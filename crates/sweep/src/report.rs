//! Sweep results: per-scenario metric rows, statistical summaries and
//! worst-case identification.

use ams_core::ClusterStats;
use ams_exec::ExecStats;
use ams_monitor::Verdict;
use ams_scope::fnv::Fnv;

/// One scenario's outcome: its metric values (in the order of
/// [`SweepReport::metric_names`]) and the solver counters it spent.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario index (row of the spec).
    pub index: usize,
    /// Human-readable scenario label (`"#3 r=1.2000e3"`).
    pub label: String,
    /// Extracted metric values, one per metric.
    pub metrics: Vec<f64>,
    /// Solver counters of this scenario (transient steps map to
    /// `iterations`; the sparse symbolic/numeric split is in `solve`).
    pub stats: ClusterStats,
    /// Monitor verdicts, one per property in the order of
    /// [`SweepReport::monitor_names`]. Empty when the sweep ran without
    /// monitors.
    pub verdicts: Vec<Verdict>,
}

impl ScenarioResult {
    /// `true` when no monitor failed on this scenario (vacuous verdicts
    /// don't fail — they carry no evidence either way).
    pub fn monitors_passed(&self) -> bool {
        !self.verdicts.iter().any(Verdict::is_fail)
    }
}

/// Per-property aggregate of monitor verdicts across all scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSummary {
    /// Property name (from [`SweepReport::monitor_names`]).
    pub name: String,
    /// Scenarios on which the property passed.
    pub pass: usize,
    /// Scenarios on which the property failed.
    pub fail: usize,
    /// Scenarios on which the property was vacuous.
    pub vacuous: usize,
    /// The lowest-index failing scenario, with its violation code and
    /// witness point: `(scenario index, code, t, value)`.
    pub first_fail: Option<(usize, &'static str, f64, f64)>,
}

/// Distribution summary of one metric across all scenarios.
///
/// When **every** scenario's value is NaN (`count == 0`) the summary is
/// degenerate: `min`, `max` and `mean` are all NaN and the scenario
/// indices hold the sentinel [`MetricSummary::NO_SCENARIO`] — there is
/// no scenario that produced an extreme.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Metric name.
    pub name: String,
    /// Scenarios contributing (NaN values are excluded and counted in
    /// [`MetricSummary::nan_count`]).
    pub count: usize,
    /// Scenarios whose value was NaN.
    pub nan_count: usize,
    /// Smallest value; NaN when no scenario contributed.
    pub min: f64,
    /// Scenario index of `min`, or [`MetricSummary::NO_SCENARIO`] when
    /// no scenario contributed.
    pub min_scenario: usize,
    /// Largest value; NaN when no scenario contributed.
    pub max: f64,
    /// Scenario index of `max`, or [`MetricSummary::NO_SCENARIO`] when
    /// no scenario contributed.
    pub max_scenario: usize,
    /// Arithmetic mean; NaN when no scenario contributed.
    pub mean: f64,
}

impl MetricSummary {
    /// Sentinel for [`MetricSummary::min_scenario`] /
    /// [`MetricSummary::max_scenario`] when `count == 0`: no scenario
    /// produced the (nonexistent) extreme.
    pub const NO_SCENARIO: usize = usize::MAX;
}

/// Aggregated result of a sweep run.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Metric names, shared by every [`ScenarioResult::metrics`] row.
    pub metric_names: Vec<String>,
    /// Per-scenario results, in scenario-index order.
    pub scenarios: Vec<ScenarioResult>,
    /// Execution-level statistics: `windows` counts scenarios,
    /// `barriers` counts workers, `clusters` holds one entry per
    /// scenario, and the wall clocks time the whole batch. Rows return
    /// with each shard's join, not through rings, so `ring_high_water`
    /// is 0 for sweeps. Wall times are *measurements*, not results —
    /// they are excluded from [`SweepReport::fingerprint`].
    pub exec: ExecStats,
    /// The merged span trace when the sweep ran with tracing enabled
    /// (`.trace(true)` on the sweep builder), `None` otherwise. Tracks
    /// carry scenario spans per worker shard in deterministic shard
    /// order; export with [`ams_scope::chrome::export`]. Like the wall
    /// clocks, the trace is a measurement and excluded from
    /// [`SweepReport::fingerprint`] — but its simulated-time content is
    /// itself deterministic for a fixed `(spec, workers)` pair.
    pub trace: Option<ams_scope::ScopeTrace>,
    /// Lane width the run was batched at: 1 for a scalar run, `K` when
    /// scenarios were packed into `F64xK` bundles. Batching *policy*,
    /// not a simulation result — excluded from
    /// [`SweepReport::fingerprint`].
    pub lanes: usize,
    /// Number of lane bundles executed (0 for a scalar run). Like
    /// [`SweepReport::lanes`], excluded from the fingerprint.
    pub bundles: usize,
    /// Scenarios the sweep-space gate removed before any transient ran:
    /// `(scenario index, SPC code)` pairs, in scenario order. Empty when
    /// no [`space spec`](crate::NetlistSweep::space) was installed or
    /// nothing was doomed. Gate *policy*, not a simulation result — the
    /// surviving scenarios must fingerprint identically to a run over a
    /// hand-filtered spec, so this field is excluded from
    /// [`SweepReport::fingerprint`] (lanes/bundles precedent).
    pub space_pruned: Vec<(usize, String)>,
    /// Number of scenarios forked from a shared-prefix checkpoint
    /// (0 when the sweep ran every scenario from `t = 0`). Sharing
    /// *policy*, not a simulation result — a prefix-shared run must
    /// fingerprint identically to a run-from-zero sweep, so this field
    /// is excluded from [`SweepReport::fingerprint`] (lanes/bundles
    /// precedent).
    pub prefix_forks: u64,
    /// Solver steps (or TDF iterations) spent in the shared prefix run,
    /// counted once however many scenarios forked from it. Excluded
    /// from the fingerprint like [`SweepReport::prefix_forks`].
    pub prefix_steps: u64,
    /// Monitor property names, shared by every
    /// [`ScenarioResult::verdicts`] row. Empty when the sweep ran
    /// without monitors — and only then are verdicts excluded from
    /// [`SweepReport::fingerprint`], so pre-monitor reports hash
    /// exactly as before.
    pub monitor_names: Vec<String>,
}

impl SweepReport {
    /// Position of `metric` in the metric rows.
    pub fn metric_index(&self, metric: &str) -> Option<usize> {
        self.metric_names.iter().position(|n| n == metric)
    }

    /// All values of one metric, in scenario order.
    pub fn values(&self, metric: &str) -> Option<Vec<f64>> {
        let j = self.metric_index(metric)?;
        Some(self.scenarios.iter().map(|s| s.metrics[j]).collect())
    }

    /// Min/max/mean summary of one metric, with the scenario indices
    /// that produced the extremes. When every value is NaN the summary
    /// is degenerate: NaN extremes and mean,
    /// [`MetricSummary::NO_SCENARIO`] indices.
    pub fn summary(&self, metric: &str) -> Option<MetricSummary> {
        let j = self.metric_index(metric)?;
        let mut s = MetricSummary {
            name: metric.to_string(),
            count: 0,
            nan_count: 0,
            min: f64::INFINITY,
            min_scenario: MetricSummary::NO_SCENARIO,
            max: f64::NEG_INFINITY,
            max_scenario: MetricSummary::NO_SCENARIO,
            mean: f64::NAN,
        };
        let mut sum = 0.0;
        for r in &self.scenarios {
            let v = r.metrics[j];
            if v.is_nan() {
                s.nan_count += 1;
                continue;
            }
            s.count += 1;
            sum += v;
            if v < s.min {
                s.min = v;
                s.min_scenario = r.index;
            }
            if v > s.max {
                s.max = v;
                s.max_scenario = r.index;
            }
        }
        if s.count > 0 {
            s.mean = sum / s.count as f64;
        } else {
            // All-NaN metric: ±inf "extremes" would be fabrications —
            // no scenario produced them — so report NaN throughout.
            s.min = f64::NAN;
            s.max = f64::NAN;
        }
        Some(s)
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`) of one metric. NaN
    /// values are excluded.
    pub fn percentile(&self, metric: &str, p: f64) -> Option<f64> {
        let mut vals: Vec<f64> = self.values(metric)?;
        vals.retain(|v| !v.is_nan());
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * vals.len() as f64).ceil() as usize;
        Some(vals[rank.saturating_sub(1)])
    }

    /// The scenario with the largest `|value|` of `metric` — the
    /// worst case for error- or overshoot-style metrics.
    pub fn worst_case(&self, metric: &str) -> Option<&ScenarioResult> {
        let j = self.metric_index(metric)?;
        self.scenarios
            .iter()
            .filter(|s| !s.metrics[j].is_nan())
            .max_by(|a, b| {
                a.metrics[j]
                    .abs()
                    .partial_cmp(&b.metrics[j].abs())
                    .expect("NaN filtered")
            })
    }

    /// Sum of the per-scenario solver counters.
    pub fn totals(&self) -> ClusterStats {
        let mut t = ClusterStats::default();
        for s in &self.scenarios {
            t.merge(&s.stats);
        }
        t
    }

    /// An order-sensitive FNV-1a hash of the report's *simulation
    /// results*: scenario indices, metric bit patterns, and the
    /// step-level counters (accepted/rejected steps, Newton
    /// iterations). Two classes of fields are deliberately excluded:
    ///
    /// * wall clocks and ring high-water marks — measurements that vary
    ///   with machine load, so the same spec must fingerprint
    ///   identically no matter the worker count;
    /// * solver-*policy* counters (factorization counts, the sparse
    ///   symbolic/numeric split, Jacobian reuse) — bookkeeping that
    ///   varies with factor caching (an `ams-serve` warm-cache run pays
    ///   zero symbolic analyses yet computes bit-identical waveforms,
    ///   and must fingerprint identically to a cold run).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for name in &self.metric_names {
            h.bytes(name.as_bytes());
        }
        // Monitors fold in only when attached, so a monitor-free run
        // hashes exactly as it did before monitors existed.
        let monitored = !self.monitor_names.is_empty();
        if monitored {
            for name in &self.monitor_names {
                h.bytes(name.as_bytes());
            }
        }
        for s in &self.scenarios {
            h.u64(s.index as u64);
            for v in &s.metrics {
                h.u64(v.to_bits());
            }
            h.u64(s.stats.iterations);
            h.u64(s.stats.firings);
            h.u64(s.stats.newton_iterations);
            if monitored {
                for v in &s.verdicts {
                    v.fold_bits(|b| h.u64(b));
                }
            }
        }
        h.finish()
    }

    /// Per-property pass/fail/vacuous tallies across all scenarios,
    /// with the first failing witness each. Empty when the sweep ran
    /// without monitors.
    pub fn monitor_summary(&self) -> Vec<MonitorSummary> {
        self.monitor_names
            .iter()
            .enumerate()
            .map(|(j, name)| {
                let mut s = MonitorSummary {
                    name: name.clone(),
                    pass: 0,
                    fail: 0,
                    vacuous: 0,
                    first_fail: None,
                };
                for r in &self.scenarios {
                    match r.verdicts[j] {
                        Verdict::Pass => s.pass += 1,
                        Verdict::Vacuous => s.vacuous += 1,
                        Verdict::Fail { code, t, value } => {
                            s.fail += 1;
                            if s.first_fail.is_none() {
                                s.first_fail = Some((r.index, code, t, value));
                            }
                        }
                    }
                }
                s
            })
            .collect()
    }

    /// Scenarios on which every monitor held (no failing verdict), i.e.
    /// the sweep's yield numerator. Equals the scenario count when no
    /// monitors were attached.
    pub fn passing_scenarios(&self) -> usize {
        self.scenarios
            .iter()
            .filter(|s| s.monitors_passed())
            .count()
    }

    /// Exports the run's execution shape as `ams-scope` metrics under
    /// the `sweep.*` namespace: scenario count, lane width and bundle
    /// count (`sweep.lanes` is 1 and `sweep.bundles` 0 for scalar
    /// runs), plus the folded step/Newton counters. Merge into a
    /// service-level [`MetricsRegistry`](ams_scope::MetricsRegistry)
    /// with [`MetricsRegistry::merge`](ams_scope::MetricsRegistry::merge).
    pub fn scope_metrics(&self) -> ams_scope::MetricsRegistry {
        let mut m = ams_scope::MetricsRegistry::new();
        m.counter_add("sweep.scenarios", self.scenarios.len() as u64);
        m.gauge_set("sweep.lanes", self.lanes.max(1) as f64);
        m.counter_add("sweep.bundles", self.bundles as u64);
        let t = self.totals();
        m.counter_add("sweep.steps", t.iterations);
        m.counter_add("sweep.steps_rejected", t.firings);
        m.counter_add("sweep.newton_iterations", t.newton_iterations);
        m.counter_add("sweep.factorizations", t.factorizations);
        m.counter_add("sweep.space_pruned", self.space_pruned.len() as u64);
        for (_, code) in &self.space_pruned {
            m.counter_add(&format!("lint.space.{code}"), 1);
        }
        m.counter_add("sweep.prefix.forks", self.prefix_forks);
        m.counter_add("sweep.prefix.steps", self.prefix_steps);
        if !self.monitor_names.is_empty() {
            m.counter_add("monitor.properties", self.monitor_names.len() as u64);
            let mut pass = 0u64;
            let mut fail = 0u64;
            let mut vacuous = 0u64;
            for s in &self.scenarios {
                for v in &s.verdicts {
                    match v {
                        Verdict::Pass => pass += 1,
                        Verdict::Vacuous => vacuous += 1,
                        Verdict::Fail { code, .. } => {
                            fail += 1;
                            m.counter_add(&format!("monitor.{code}"), 1);
                        }
                    }
                }
            }
            m.counter_add("monitor.pass", pass);
            m.counter_add("monitor.fail", fail);
            m.counter_add("monitor.vacuous", vacuous);
            m.counter_add("monitor.scenarios_passed", self.passing_scenarios() as u64);
        }
        m
    }

    /// A compact human-readable table of all metric summaries.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "sweep: {} scenarios, {} metrics\n",
            self.scenarios.len(),
            self.metric_names.len()
        );
        if self.lanes > 1 {
            let _ = writeln!(
                out,
                "  lane-batched: {} bundles x {} lanes",
                self.bundles, self.lanes
            );
        }
        if !self.space_pruned.is_empty() {
            let _ = writeln!(
                out,
                "  space-pruned: {} scenario(s) proved doomed before running",
                self.space_pruned.len()
            );
        }
        if self.prefix_forks > 0 {
            let _ = writeln!(
                out,
                "  prefix-shared: {} fork(s) from a {}-step common prefix",
                self.prefix_forks, self.prefix_steps
            );
        }
        for name in &self.metric_names {
            if let Some(s) = self.summary(name) {
                if s.count == 0 {
                    let _ = writeln!(out, "  {name}: all {} value(s) NaN", s.nan_count);
                } else {
                    let _ = writeln!(
                        out,
                        "  {name}: min {:.6e} (#{}) | mean {:.6e} | max {:.6e} (#{})",
                        s.min, s.min_scenario, s.mean, s.max, s.max_scenario
                    );
                }
            }
        }
        if !self.monitor_names.is_empty() {
            let passed = self.passing_scenarios();
            let total = self.scenarios.len();
            let pct = if total > 0 {
                100.0 * passed as f64 / total as f64
            } else {
                100.0
            };
            let _ = writeln!(
                out,
                "  monitors: {} propertie(s), yield {passed}/{total} ({pct:.1}%)",
                self.monitor_names.len()
            );
            for s in self.monitor_summary() {
                let _ = write!(
                    out,
                    "    {}: {} pass, {} fail, {} vacuous",
                    s.name, s.pass, s.fail, s.vacuous
                );
                if let Some((idx, code, t, value)) = s.first_fail {
                    let _ = write!(
                        out,
                        " | first fail #{idx} {code} at t={t:.6e} v={value:.6e}"
                    );
                }
                out.push('\n');
            }
        }
        let t = self.totals();
        let _ = writeln!(
            out,
            "  solver: {} steps, {} factorizations ({} symbolic, {} numeric refactors)",
            t.iterations, t.factorizations, t.solve.symbolic_analyses, t.solve.numeric_refactors
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(values: &[f64]) -> SweepReport {
        SweepReport {
            metric_names: vec!["m".into()],
            scenarios: values
                .iter()
                .enumerate()
                .map(|(i, &v)| ScenarioResult {
                    index: i,
                    label: format!("#{i}"),
                    metrics: vec![v],
                    stats: ClusterStats {
                        iterations: 10 + i as u64,
                        ..Default::default()
                    },
                    verdicts: Vec::new(),
                })
                .collect(),
            exec: ExecStats::default(),
            trace: None,
            lanes: 1,
            bundles: 0,
            space_pruned: Vec::new(),
            prefix_forks: 0,
            prefix_steps: 0,
            monitor_names: Vec::new(),
        }
    }

    #[test]
    fn summary_tracks_extremes_and_mean() {
        let r = report(&[3.0, -1.0, 7.0, 5.0]);
        let s = r.summary("m").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.min_scenario, 1);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.max_scenario, 2);
        assert!((s.mean - 3.5).abs() < 1e-12);
        assert!(r.summary("nope").is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let r = report(&[15.0, 20.0, 35.0, 40.0, 50.0]);
        assert_eq!(r.percentile("m", 0.0).unwrap(), 15.0);
        assert_eq!(r.percentile("m", 30.0).unwrap(), 20.0);
        assert_eq!(r.percentile("m", 40.0).unwrap(), 20.0);
        assert_eq!(r.percentile("m", 50.0).unwrap(), 35.0);
        assert_eq!(r.percentile("m", 100.0).unwrap(), 50.0);
    }

    #[test]
    fn worst_case_uses_absolute_value_and_skips_nan() {
        let r = report(&[3.0, -9.0, f64::NAN, 5.0]);
        assert_eq!(r.worst_case("m").unwrap().index, 1);
        let s = r.summary("m").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.nan_count, 1);
    }

    #[test]
    fn all_nan_metric_summarizes_as_nan_not_inf() {
        // Regression: the summary used to report min:+inf / max:-inf
        // with a fabricated min_scenario of 0 and a 0.0/0 mean.
        let r = report(&[f64::NAN, f64::NAN, f64::NAN]);
        let s = r.summary("m").unwrap();
        assert_eq!(s.count, 0);
        assert_eq!(s.nan_count, 3);
        assert!(s.min.is_nan(), "min must be NaN, got {}", s.min);
        assert!(s.max.is_nan(), "max must be NaN, got {}", s.max);
        assert!(s.mean.is_nan(), "mean must be NaN, got {}", s.mean);
        assert_eq!(s.min_scenario, MetricSummary::NO_SCENARIO);
        assert_eq!(s.max_scenario, MetricSummary::NO_SCENARIO);
        // render() must not print the sentinel as a scenario number.
        let text = r.render();
        assert!(text.contains("all 3 value(s) NaN"), "{text}");
        assert!(!text.contains("18446744073709551615"), "{text}");
        // A single finite value still wins both extremes.
        let r = report(&[f64::NAN, 2.5]);
        let s = r.summary("m").unwrap();
        assert_eq!((s.min, s.max, s.mean), (2.5, 2.5, 2.5));
        assert_eq!((s.min_scenario, s.max_scenario), (1, 1));
    }

    #[test]
    fn fingerprint_is_stable_and_value_sensitive() {
        let a = report(&[1.0, 2.0]);
        let b = report(&[1.0, 2.0]);
        let c = report(&[1.0, 2.0 + 1e-15]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Wall clocks do not perturb the fingerprint.
        let mut d = report(&[1.0, 2.0]);
        d.exec.compute_wall = std::time::Duration::from_secs(5);
        d.exec.ring_high_water = 99;
        assert_eq!(a.fingerprint(), d.fingerprint());
        // Neither do solver-policy counters: a warm-cache run that pays
        // no symbolic analysis fingerprints like a cold run.
        let mut e = report(&[1.0, 2.0]);
        e.scenarios[0].stats.factorizations = 7;
        e.scenarios[0].stats.solve.symbolic_analyses = 1;
        e.scenarios[0].stats.solve.numeric_refactors = 3;
        assert_eq!(a.fingerprint(), e.fingerprint());
        // Step-level counters do: a different step sequence is a
        // different result.
        let mut f = report(&[1.0, 2.0]);
        f.scenarios[0].stats.iterations += 1;
        assert_ne!(a.fingerprint(), f.fingerprint());
    }

    #[test]
    fn totals_fold_scenario_stats() {
        let r = report(&[1.0, 2.0, 3.0]);
        assert_eq!(r.totals().iterations, 10 + 11 + 12);
    }

    #[test]
    fn lane_shape_is_reported_but_not_fingerprinted() {
        let scalar = report(&[1.0, 2.0]);
        let mut lane = report(&[1.0, 2.0]);
        lane.lanes = 8;
        lane.bundles = 1;
        // Batching policy never perturbs the result hash.
        assert_eq!(scalar.fingerprint(), lane.fingerprint());

        let m = lane.scope_metrics();
        assert_eq!(m.gauge("sweep.lanes"), Some(8.0));
        assert_eq!(m.counter("sweep.bundles"), 1);
        assert_eq!(m.counter("sweep.scenarios"), 2);
        assert_eq!(m.counter("sweep.steps"), 10 + 11);
        let s = scalar.scope_metrics();
        assert_eq!(s.gauge("sweep.lanes"), Some(1.0));
        assert_eq!(s.counter("sweep.bundles"), 0);
        assert!(lane.render().contains("1 bundles x 8 lanes"));
        assert!(!scalar.render().contains("lane-batched"));
    }

    #[test]
    fn prefix_sharing_is_reported_but_not_fingerprinted() {
        let plain = report(&[1.0, 2.0]);
        let mut shared = report(&[1.0, 2.0]);
        shared.prefix_forks = 2;
        shared.prefix_steps = 64;
        // Sharing policy never perturbs the result hash: a forked sweep
        // must match a run-from-zero sweep bit for bit.
        assert_eq!(plain.fingerprint(), shared.fingerprint());
        let m = shared.scope_metrics();
        assert_eq!(m.counter("sweep.prefix.forks"), 2);
        assert_eq!(m.counter("sweep.prefix.steps"), 64);
        assert!(shared.render().contains("2 fork(s) from a 64-step"));
        assert!(!plain.render().contains("prefix-shared"));
    }

    #[test]
    fn monitor_verdicts_fingerprint_only_when_attached() {
        // Without monitors: verdicts (there are none) leave the hash
        // exactly as the pre-monitor format.
        let plain = report(&[1.0, 2.0]);
        let mut with_empty_names = report(&[1.0, 2.0]);
        with_empty_names.scenarios[0].verdicts = Vec::new();
        assert_eq!(plain.fingerprint(), with_empty_names.fingerprint());

        let monitored = |verdicts: Vec<Vec<Verdict>>| {
            let mut r = report(&[1.0, 2.0]);
            r.monitor_names = vec!["settled".into(), "no_over".into()];
            for (s, v) in r.scenarios.iter_mut().zip(verdicts) {
                s.verdicts = v;
            }
            r
        };
        let all_pass = monitored(vec![
            vec![Verdict::Pass, Verdict::Pass],
            vec![Verdict::Pass, Verdict::Pass],
        ]);
        let one_fail = monitored(vec![
            vec![Verdict::Pass, Verdict::Pass],
            vec![
                Verdict::Fail {
                    code: "MON002",
                    t: 1e-3,
                    value: 1.4,
                },
                Verdict::Vacuous,
            ],
        ]);
        assert_ne!(plain.fingerprint(), all_pass.fingerprint());
        assert_ne!(all_pass.fingerprint(), one_fail.fingerprint());
        // Same verdicts → same hash (worker-count invariance relies on
        // this being purely value-determined).
        assert_eq!(
            one_fail.fingerprint(),
            monitored(vec![
                vec![Verdict::Pass, Verdict::Pass],
                vec![
                    Verdict::Fail {
                        code: "MON002",
                        t: 1e-3,
                        value: 1.4
                    },
                    Verdict::Vacuous,
                ],
            ])
            .fingerprint()
        );

        // Summary, yield and metrics.
        assert_eq!(one_fail.passing_scenarios(), 1);
        assert!(one_fail.scenarios[0].monitors_passed());
        assert!(!one_fail.scenarios[1].monitors_passed());
        let sums = one_fail.monitor_summary();
        assert_eq!(sums[0].name, "settled");
        assert_eq!((sums[0].pass, sums[0].fail, sums[0].vacuous), (1, 1, 0));
        assert_eq!(sums[0].first_fail, Some((1, "MON002", 1e-3, 1.4)));
        assert_eq!((sums[1].pass, sums[1].fail, sums[1].vacuous), (1, 0, 1));
        let m = one_fail.scope_metrics();
        assert_eq!(m.counter("monitor.properties"), 2);
        assert_eq!(m.counter("monitor.pass"), 2);
        assert_eq!(m.counter("monitor.fail"), 1);
        assert_eq!(m.counter("monitor.vacuous"), 1);
        assert_eq!(m.counter("monitor.MON002"), 1);
        assert_eq!(m.counter("monitor.scenarios_passed"), 1);
        assert_eq!(plain.scope_metrics().counter("monitor.properties"), 0);
        let text = one_fail.render();
        assert!(text.contains("yield 1/2 (50.0%)"), "{text}");
        assert!(text.contains("first fail #1 MON002"), "{text}");
        assert!(!plain.render().contains("monitors:"));
    }

    #[test]
    fn space_pruning_is_reported_but_not_fingerprinted() {
        let plain = report(&[1.0, 2.0]);
        let mut pruned = report(&[1.0, 2.0]);
        pruned.space_pruned = vec![(7, "SPC001".into()), (9, "SPC002".into())];
        // Gate policy never perturbs the result hash: survivors match a
        // run over a hand-filtered spec bit for bit.
        assert_eq!(plain.fingerprint(), pruned.fingerprint());
        let m = pruned.scope_metrics();
        assert_eq!(m.counter("sweep.space_pruned"), 2);
        assert_eq!(m.counter("lint.space.SPC001"), 1);
        assert_eq!(m.counter("lint.space.SPC002"), 1);
        assert!(pruned.render().contains("space-pruned: 2"));
        assert!(!plain.render().contains("space-pruned"));
    }
}
