//! Batched sweeps over one TDF cluster topology.
//!
//! A [`TdfSweep`] elaborates the graph **once per worker** — paying
//! `setup`, balance-equation solving, schedule construction and
//! timestep propagation once — and then replays scenarios through
//! [`Cluster::reset`], which rewinds the elaborated cluster to `t = 0`
//! without re-elaboration (or through [`Cluster::restore`] of a shared
//! prefix checkpoint). The `ams-lint` gate likewise runs once, on the
//! first worker's graph, since every worker builds the same topology.
//!
//! There is one executor: [`TdfSweep::run_lanes`] runs bundles of
//! scenarios, and [`TdfSweep::run`] is its width-1 case, reached
//! through an adapter that presents a [`SweepModel`] as a one-lane
//! [`LaneSweepModel`].
//!
//! Scenario parameters reach the modules through whatever channel the
//! model chooses — typically [`SharedSample`](ams_core::SharedSample)
//! cells captured by both the modules and the [`SweepModel`].

use crate::engine::{emit_monitor_instants, push_verdict_slots, run_sharded};
use crate::options::SweepOptions;
use crate::report::SweepReport;
use crate::spec::{Scenario, SweepSpec};
use crate::SweepError;
use ams_core::{Cluster, ClusterCheckpoint, TdfGraph};
use ams_lint::LintPolicy;
use ams_monitor::{MonitorBank, MonitorSpec};
use ams_scope::{scenario_arg, SpanKind, Tracer};

/// The per-worker model half of a TDF sweep: applies a scenario's
/// parameters before the run and extracts its metrics after.
///
/// One instance is built per worker (alongside that worker's graph) and
/// reused for every scenario the worker executes, so it must leave no
/// scenario state behind that `apply` does not overwrite.
pub trait SweepModel: Send {
    /// Writes the scenario's parameters into the model (e.g. through
    /// [`SharedSample`](ams_core::SharedSample) cells wired into the
    /// graph's modules). Runs after [`Cluster::reset`], before the run.
    fn apply(&mut self, scenario: &Scenario);

    /// Extracts the scenario's metric values after the run — typically
    /// from probes the model kept when building the graph. `out` has
    /// one slot per metric name, initialized to NaN.
    fn metrics(&mut self, cluster: &Cluster, out: &mut [f64]);
}

/// The per-worker model half of a *lane-batched* TDF sweep: one cluster
/// run evaluates a whole bundle of scenarios at once.
///
/// Where [`SweepModel`] sees one scenario per run, a `LaneSweepModel`
/// receives the bundle's scenario slice and is expected to carry all of
/// them through a single cluster execution — typically by wiring
/// lane-bundled state (e.g. [`ams_math::F64xK`]) into the modules, or
/// by widening per-scenario parameters into per-lane arrays. The graph
/// topology stays scalar; only the sample values fan out.
pub trait LaneSweepModel: Send {
    /// Writes the bundle's parameters into the model. `scenarios` holds
    /// the bundle's scenarios in lane order; the final bundle of a
    /// sweep may be shorter than the configured lane width. Runs after
    /// [`Cluster::reset`], before the run.
    fn apply(&mut self, scenarios: &[Scenario]);

    /// Extracts each lane's metric values after the run. `out` has one
    /// row per scenario in the bundle (matching the `apply` slice), each
    /// with one slot per metric name, initialized to NaN.
    fn metrics(&mut self, cluster: &Cluster, out: &mut [Vec<f64>]);
}

/// Presents a [`SweepModel`] as a one-lane [`LaneSweepModel`], so
/// [`TdfSweep::run`] is the width-1 case of the lane executor.
struct OneLane<M>(M);

impl<M: SweepModel> LaneSweepModel for OneLane<M> {
    fn apply(&mut self, scenarios: &[Scenario]) {
        self.0.apply(&scenarios[0]);
    }

    fn metrics(&mut self, cluster: &Cluster, out: &mut [Vec<f64>]) {
        self.0.metrics(cluster, &mut out[0]);
    }
}

/// One worker's state: its elaborated cluster, its model and — with a
/// [`prefix`](TdfSweep::prefix) — the checkpoint every bundle restores
/// plus the monitor bank as the prefix left it (checkpoints exclude
/// monitor state).
struct Worker<M> {
    cluster: Cluster,
    model: M,
    fork: Option<(ClusterCheckpoint, Option<MonitorBank>)>,
}

/// A batched sweep over one TDF cluster topology.
#[derive(Debug, Clone)]
pub struct TdfSweep {
    iterations: u64,
    opts: SweepOptions,
    prefix_iterations: Option<u64>,
}

impl TdfSweep {
    /// A sweep running each scenario for `iterations` schedule
    /// iterations (standalone, no DE kernel).
    pub fn new(iterations: u64) -> TdfSweep {
        TdfSweep {
            iterations,
            opts: SweepOptions::new("tdf-sweep"),
            prefix_iterations: None,
        }
    }

    /// Attaches streaming temporal assertion monitors: every scenario
    /// evaluates `spec`'s properties over its signal samples as the
    /// cluster runs (fed once per completed schedule iteration, like
    /// probes — no sample buffering), and the report carries one
    /// [`Verdict`](ams_monitor::Verdict) per property per scenario.
    /// Channel names are resolved against each worker's elaborated
    /// cluster by signal name; an unknown channel rejects the batch
    /// with [`SweepError::Invalid`].
    ///
    /// Verdicts fold into [`SweepReport::fingerprint`], are
    /// bit-identical across worker counts, and survive
    /// [`prefix`](TdfSweep::prefix) forking unchanged (each fork
    /// resumes from the automaton state the shared prefix accumulated).
    /// Rejected by [`run_lanes`](TdfSweep::run_lanes) at widths above 1:
    /// a lane-bundled cluster multiplexes all lanes through one scalar
    /// signal trace, so no per-scenario waveform exists to monitor.
    pub fn monitors(mut self, spec: MonitorSpec) -> TdfSweep {
        self.opts.monitors = Some(spec);
        self
    }

    /// Declares the first `prefix` schedule iterations of every
    /// scenario as a shared prefix: each worker runs its pristine
    /// cluster once to the fork point, saves a [`ClusterCheckpoint`],
    /// and every bundle **restores** it instead of rewinding to
    /// iteration 0 — paying only the remaining iterations of cluster
    /// work. Works at every lane width. The sharing is counted in
    /// [`SweepReport::prefix_forks`] (one per scenario) /
    /// [`SweepReport::prefix_steps`] (fingerprint-excluded); with
    /// tracing enabled each fork records a
    /// [`SpanKind::Checkpoint`] instant (`arg` = checkpoint bytes)
    /// inside its scenario span. Every worker's prefix is identical
    /// (same topology, template parameters), so reports stay
    /// bit-identical across worker counts.
    ///
    /// **Contract:** valid only when the cluster's trajectory over the
    /// prefix iterations is scenario-invariant — the parameters
    /// written by [`SweepModel::apply`] (or [`LaneSweepModel::apply`])
    /// must act strictly after the fork point, or only in `metrics`.
    /// Stateful modules must implement
    /// [`TdfModule::save_state`](ams_core::TdfModule::save_state) /
    /// [`restore_state`](ams_core::TdfModule::restore_state) (the same
    /// contract [`Cluster::save`] itself documents); the sweep cannot
    /// verify either. Under the contract a forked sweep fingerprints
    /// like the same sweep from iteration 0, at every lane width.
    pub fn prefix(mut self, iterations: u64) -> TdfSweep {
        self.prefix_iterations = Some(iterations);
        self
    }

    /// Enables span tracing: every bundle records a
    /// [`SpanKind::Scenario`] span (timestamped in the scenario-index
    /// domain, `arg` = first scenario index, packed with the lane width
    /// above width 1 — see [`scenario_arg`]) with the cluster's
    /// iteration and embedded-solver spans folded in. The merged
    /// [`ScopeTrace`](ams_scope::ScopeTrace) lands in
    /// [`SweepReport::trace`], one `shard-s` track per worker shard.
    /// Disabled (the default) costs one branch per bundle.
    pub fn trace(mut self, enabled: bool) -> TdfSweep {
        self.opts.trace = enabled;
        self
    }

    /// Sets the lint policy gating the topology.
    pub fn lint_policy(mut self, policy: LintPolicy) -> TdfSweep {
        self.opts.lint = policy;
        self
    }

    /// Names the sweep for lint reports and diagnostics.
    pub fn context(mut self, context: impl Into<String>) -> TdfSweep {
        self.opts.context = context.into();
        self
    }

    /// Runs every scenario of `spec` on up to `workers` threads, one
    /// cluster run per scenario — [`run_lanes`](TdfSweep::run_lanes) at
    /// width 1, with `build`'s [`SweepModel`] seen as a one-lane model.
    ///
    /// `build` is called once per worker shard, **on the coordinator**
    /// and in shard order, and returns that worker's graph plus its
    /// [`SweepModel`]. Every call must construct the same topology
    /// (same modules, signals, rates); only then is linting the first
    /// graph representative and the cross-worker determinism guarantee
    /// meaningful. Each worker's cluster is elaborated once and then
    /// `reset` between scenarios.
    ///
    /// # Errors
    ///
    /// * [`SweepError::Lint`] when the topology fails the policy gate.
    /// * [`SweepError::Core`] when elaboration (or the shared prefix
    ///   run) fails.
    /// * [`SweepError::Invalid`] for an empty spec or metric list, a
    ///   prefix outside `0 < prefix < iterations`, or a monitor channel
    ///   that names no signal.
    /// * [`SweepError::Scenario`] for the lowest-indexed failing
    ///   scenario.
    pub fn run<M, B>(
        &self,
        spec: &SweepSpec,
        workers: usize,
        metrics: &[&str],
        mut build: B,
    ) -> Result<SweepReport, SweepError>
    where
        M: SweepModel,
        B: FnMut(usize) -> (TdfGraph, M),
    {
        self.run_lanes(spec, workers, metrics, 1, |slot| {
            let (graph, model) = build(slot);
            (graph, OneLane(model))
        })
    }

    /// Runs every scenario of `spec` lane-batched: `lanes` consecutive
    /// scenarios form one bundle, and each bundle costs a single
    /// cluster run (one `reset` or prefix restore, one
    /// `run_standalone`). The model — a [`LaneSweepModel`] — carries the
    /// whole bundle through that run, typically via lane-bundled
    /// samples inside the modules. This is the one TDF executor:
    /// [`run`](TdfSweep::run) is its width-1 case.
    ///
    /// Above width 1:
    ///
    /// * The report has the same per-scenario shape, but each
    ///   scenario's solver counters are its *bundle's* counters, so
    ///   [`SweepReport::totals`] over-counts the actual work by up to
    ///   the lane width (the actual work is roughly `1/lanes` of a
    ///   scalar sweep's).
    /// * A scenario failure is attributed to the bundle's first
    ///   scenario index.
    /// * [`SpanKind::Scenario`] spans cover a bundle and carry the lane
    ///   width in their `arg` (see [`scenario_arg`]).
    /// * The final bundle may be shorter than `lanes`; the model sees
    ///   the true bundle size — there is no padding.
    /// * Monitors are rejected: the bundle's lanes share one signal
    ///   trace.
    ///
    /// [`prefix`](TdfSweep::prefix) works at every width. Reports stay
    /// bit-identical across worker counts: bundle composition depends
    /// only on the scenario order and `lanes`.
    ///
    /// # Errors
    ///
    /// As [`run`](TdfSweep::run), plus [`SweepError::Invalid`] when
    /// `lanes` is zero, or above 1 with monitors attached.
    pub fn run_lanes<M, B>(
        &self,
        spec: &SweepSpec,
        workers: usize,
        metrics: &[&str],
        lanes: usize,
        mut build: B,
    ) -> Result<SweepReport, SweepError>
    where
        M: LaneSweepModel,
        B: FnMut(usize) -> (TdfGraph, M),
    {
        if spec.is_empty() {
            return Err(SweepError::invalid("sweep spec has no scenarios"));
        }
        if metrics.is_empty() {
            return Err(SweepError::invalid("sweep needs at least one metric"));
        }
        if lanes == 0 {
            return Err(SweepError::invalid("lane width must be at least 1"));
        }
        let prefix = self.prefix_iterations;
        if let Some(p) = prefix {
            if p == 0 || p >= self.iterations {
                return Err(SweepError::invalid(format!(
                    "prefix iterations = {p} must satisfy 0 < prefix < iterations = {}",
                    self.iterations
                )));
            }
        }
        if lanes > 1 && self.opts.monitors().is_some() {
            return Err(SweepError::invalid(
                "monitors need one scenario per cluster run: lane bundles multiplex \
                 every lane through one signal trace, so no per-scenario waveform \
                 exists to monitor — use run()",
            ));
        }

        let scenarios = spec.scenarios();
        let n = scenarios.len();
        let n_metrics = metrics.len();
        let mut lint_warnings = 0usize;
        // Forks restore the checkpoint's iteration counter, so each
        // bundle runs only the tail beyond the fork point.
        let tail = self.iterations - prefix.unwrap_or(0);

        let shard = run_sharded(
            n.div_ceil(lanes),
            workers,
            self.opts.trace,
            |slot, _items| {
                let (mut graph, model) = build(slot);
                // One lint pass per topology: every worker builds the
                // same graph, so the first one is representative.
                if slot == 0 {
                    lint_warnings = self.opts.gate(graph.lint())?;
                }
                let mut cluster = graph.elaborate()?;
                // Monitors attach before the prefix so the shared
                // prefix iterations feed the automata exactly as a
                // run-from-zero scenario would.
                if let Some(m) = self
                    .opts
                    .resolve_monitors("signal in the TDF graph", |ch| cluster.find_signal(ch))?
                {
                    cluster.attach_monitors(m.bank, &m.targets);
                }
                // The shared prefix runs once per worker, on the
                // pristine cluster and before tracing switches on, so
                // its spans never land in a scenario's track.
                let fork = match prefix {
                    Some(p) => {
                        cluster.run_standalone(p).map_err(SweepError::Core)?;
                        Some((cluster.save(), cluster.monitor_bank().cloned()))
                    }
                    None => None,
                };
                if self.opts.trace {
                    cluster.set_tracing(true);
                }
                Ok(Worker {
                    cluster,
                    model,
                    fork,
                })
            },
            |w: &mut Worker<M>, item, tracer: &mut Tracer| {
                let lo = item * lanes;
                let bundle = &scenarios[lo..n.min(lo + lanes)];
                let first = bundle[0].index();
                let fail = |e| SweepError::scenario(first, e);
                match &w.fork {
                    Some((cp, bank)) => {
                        w.cluster.restore(cp).map_err(fail)?;
                        if let Some(bank) = bank {
                            w.cluster.set_monitor_bank_state(bank.clone());
                        }
                    }
                    None => w.cluster.reset(),
                }
                w.model.apply(bundle);
                let span_arg = scenario_arg(first as u64, lanes);
                if tracer.is_enabled() {
                    tracer.begin_with(SpanKind::Scenario, first as u64, span_arg);
                    if let Some((cp, _)) = &w.fork {
                        tracer.instant(
                            SpanKind::Checkpoint,
                            first as u64,
                            cp.approx_bytes() as u64,
                        );
                    }
                }
                w.cluster.run_standalone(tail).map_err(fail)?;
                let mut rows = vec![vec![f64::NAN; n_metrics]; bundle.len()];
                w.model.metrics(&w.cluster, &mut rows);
                let verdicts = w
                    .cluster
                    .monitor_bank()
                    .map(MonitorBank::finish)
                    .unwrap_or_default();
                if tracer.is_enabled() {
                    // Cluster and embedded-solver spans ride on the same
                    // track, inside the scenario span (their timestamps
                    // are the scenario's local simulated time).
                    for (_, events) in w.cluster.take_traces() {
                        tracer.extend(events);
                    }
                    if let Some(bank) = w.cluster.monitor_bank() {
                        // Non-failures stamp the last sample the bank
                        // saw (the TDF horizon in seconds).
                        let horizon = bank
                            .monitors()
                            .iter()
                            .map(ams_monitor::Monitor::last_time)
                            .fold(0.0f64, f64::max);
                        emit_monitor_instants(tracer, &verdicts, horizon);
                    }
                    let end = bundle[bundle.len() - 1].index() as u64 + 1;
                    tracer.end_with(SpanKind::Scenario, end, span_arg);
                }
                // Monitors only run at width 1: the verdicts ride home
                // in extra slots of the single row.
                push_verdict_slots(&mut rows[0], &verdicts);
                Ok((rows.concat(), w.cluster.stats()))
            },
        )?;

        // The space pass is MNA-specific; TDF structure is
        // scenario-invariant, so nothing is ever pruned here.
        let report = shard.into_report(
            &self.opts,
            metrics,
            scenarios,
            lanes,
            lint_warnings,
            Vec::new(),
        );
        Ok(SweepReport {
            prefix_forks: if prefix.is_some() { n as u64 } else { 0 },
            prefix_steps: prefix.unwrap_or(0),
            ..report
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_core::{CoreError, SharedSample, TdfIo, TdfModule, TdfProbe, TdfSetup};
    use ams_kernel::SimTime;

    /// `y[k] = gain · sin(2π f k Δt)` with gain injected per scenario.
    struct Osc {
        out: ams_core::TdfOut,
        gain: SharedSample,
        k: u64,
    }

    impl TdfModule for Osc {
        fn setup(&mut self, cfg: &mut TdfSetup) {
            cfg.output(self.out);
            cfg.set_timestep(SimTime::from_us(1));
        }

        fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
            let t = self.k as f64 * 1e-6;
            io.write1(
                self.out,
                self.gain.get() * (2.0 * std::f64::consts::PI * 1e4 * t).sin(),
            );
            self.k += 1;
            Ok(())
        }

        fn reset(&mut self) {
            self.k = 0;
        }

        fn save_state(&self, out: &mut Vec<f64>) {
            out.push(self.k as f64);
        }

        fn restore_state(&mut self, state: &[f64]) {
            self.k = state[0] as u64;
        }
    }

    struct Model {
        gain: SharedSample,
        probe: TdfProbe,
    }

    impl SweepModel for Model {
        fn apply(&mut self, scenario: &Scenario) {
            self.gain.set(scenario.value("gain"));
        }

        fn metrics(&mut self, _cluster: &Cluster, out: &mut [f64]) {
            let peak = self
                .probe
                .values()
                .into_iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            out[0] = peak;
        }
    }

    fn build(slot: usize) -> (TdfGraph, Model) {
        let mut g = TdfGraph::new(format!("osc{slot}"));
        let s = g.signal("y");
        let probe = g.probe(s);
        let gain = SharedSample::new(1.0);
        g.add_module(
            "osc",
            Osc {
                out: s.writer(),
                gain: gain.clone(),
                k: 0,
            },
        );
        (g, Model { gain, probe })
    }

    #[test]
    fn gain_sweep_scales_the_peak_and_reuses_elaboration() {
        let gains = [0.5, 1.0, 2.0, 4.0, 8.0];
        let spec = SweepSpec::grid(&[("gain", &gains)], 3).unwrap();
        let report = TdfSweep::new(200).run(&spec, 2, &["peak"], build).unwrap();
        let peaks = report.values("peak").unwrap();
        for (peak, gain) in peaks.iter().zip(&gains) {
            // 200 µs at 10 kHz covers two full periods: the sampled
            // peak is within one sample step of the amplitude.
            assert!((peak / gain - 1.0).abs() < 1e-2, "peak {peak} gain {gain}");
        }
        // Five scenarios ran on at most two elaborations (one per
        // worker), each 200 iterations.
        assert_eq!(report.totals().iterations, 5 * 200);
        let s = report.summary("peak").unwrap();
        assert_eq!(s.max_scenario, 4);
        assert_eq!(s.min_scenario, 0);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let spec = SweepSpec::monte_carlo(&[("gain", 0.1, 10.0)], 12, 77).unwrap();
        let base = TdfSweep::new(64).run(&spec, 1, &["peak"], build).unwrap();
        for workers in [2, 4] {
            let other = TdfSweep::new(64)
                .run(&spec, workers, &["peak"], build)
                .unwrap();
            assert_eq!(base.fingerprint(), other.fingerprint(), "workers={workers}");
        }
    }

    #[test]
    fn trace_covers_every_scenario() {
        use ams_scope::Phase;

        let gains = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
        let spec = SweepSpec::grid(&[("gain", &gains)], 3).unwrap();
        let report = TdfSweep::new(50)
            .trace(true)
            .run(&spec, 2, &["peak"], build)
            .unwrap();

        // The trace carries one Scenario span per scenario, tagged with
        // its index, on shard tracks, plus the cluster's iteration spans.
        let trace = report.trace.as_ref().expect("trace enabled");
        assert!(trace
            .tracks
            .iter()
            .all(|t| t.process.starts_with("shard-") && t.thread == "scenarios"));
        let mut indices: Vec<u64> = trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == SpanKind::Scenario && e.phase == Phase::Begin)
            .map(|e| e.arg)
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3, 4, 5]);
        assert!(trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .any(|e| e.kind == SpanKind::ClusterIteration));

        // Tracing off (the default) leaves the report trace-free.
        let plain = TdfSweep::new(50).run(&spec, 2, &["peak"], build).unwrap();
        assert!(plain.trace.is_none());
    }

    /// Lane model for the same oscillator: the cluster runs at unit
    /// gain once per bundle; each lane's peak is its gain times the
    /// shared unit peak. Scaling a positive factor through `max(|·|)`
    /// commutes bit-exactly, so values match the scalar sweep.
    struct LaneModel {
        gains: Vec<f64>,
        probe: TdfProbe,
    }

    impl LaneSweepModel for LaneModel {
        fn apply(&mut self, scenarios: &[Scenario]) {
            self.gains = scenarios.iter().map(|s| s.value("gain")).collect();
        }

        fn metrics(&mut self, _cluster: &Cluster, out: &mut [Vec<f64>]) {
            let unit = self
                .probe
                .values()
                .into_iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            for (row, g) in out.iter_mut().zip(&self.gains) {
                row[0] = g * unit;
            }
        }
    }

    fn build_lane(slot: usize) -> (TdfGraph, LaneModel) {
        let mut g = TdfGraph::new(format!("osc{slot}"));
        let s = g.signal("y");
        let probe = g.probe(s);
        g.add_module(
            "osc",
            Osc {
                out: s.writer(),
                gain: SharedSample::new(1.0),
                k: 0,
            },
        );
        (
            g,
            LaneModel {
                gains: Vec::new(),
                probe,
            },
        )
    }

    #[test]
    fn lane_sweep_matches_scalar_values_with_a_short_final_bundle() {
        let gains = [0.5, 1.0, 2.0, 4.0, 8.0];
        let spec = SweepSpec::grid(&[("gain", &gains)], 3).unwrap();
        let scalar = TdfSweep::new(200).run(&spec, 2, &["peak"], build).unwrap();
        let lane = TdfSweep::new(200)
            .run_lanes(&spec, 1, &["peak"], 4, build_lane)
            .unwrap();
        assert_eq!(lane.lanes, 4);
        assert_eq!(lane.bundles, 2); // 4 + 1: the last bundle is short
        assert_eq!(scalar.values("peak").unwrap(), lane.values("peak").unwrap());
        // Counters are bundle-shared: every scenario reports its
        // bundle's 200 iterations even though only 2 runs happened.
        assert_eq!(lane.totals().iterations, 5 * 200);
        // Width 1 is `run`'s own path: the same report, no bundles.
        let width1 = TdfSweep::new(200)
            .run_lanes(&spec, 2, &["peak"], 1, build_lane)
            .unwrap();
        assert_eq!(width1.fingerprint(), scalar.fingerprint());
        assert_eq!((width1.lanes, width1.bundles), (1, 0));
    }

    #[test]
    fn lane_sweep_is_worker_deterministic() {
        let spec = SweepSpec::monte_carlo(&[("gain", 0.1, 10.0)], 13, 77).unwrap();
        let base = TdfSweep::new(64)
            .run_lanes(&spec, 1, &["peak"], 4, build_lane)
            .unwrap();
        for workers in [2, 4] {
            let other = TdfSweep::new(64)
                .run_lanes(&spec, workers, &["peak"], 4, build_lane)
                .unwrap();
            assert_eq!(base.fingerprint(), other.fingerprint(), "workers={workers}");
        }
        assert!(matches!(
            TdfSweep::new(64).run_lanes(&spec, 1, &["peak"], 0, build_lane),
            Err(SweepError::Invalid(_))
        ));
    }

    /// A gain that only acts in `metrics` (post-scaling, LaneModel
    /// style): the cluster's trajectory is scenario-invariant, which is
    /// exactly the prefix-sharing contract.
    struct PostModel {
        gain: f64,
        probe: TdfProbe,
    }

    impl SweepModel for PostModel {
        fn apply(&mut self, scenario: &Scenario) {
            self.gain = scenario.value("gain");
        }

        fn metrics(&mut self, _cluster: &Cluster, out: &mut [f64]) {
            let unit = self
                .probe
                .values()
                .into_iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            out[0] = self.gain * unit;
        }
    }

    fn build_post(slot: usize) -> (TdfGraph, PostModel) {
        let mut g = TdfGraph::new(format!("osc{slot}"));
        let s = g.signal("y");
        let probe = g.probe(s);
        g.add_module(
            "osc",
            Osc {
                out: s.writer(),
                gain: SharedSample::new(1.0),
                k: 0,
            },
        );
        (g, PostModel { gain: 1.0, probe })
    }

    #[test]
    fn prefix_fork_matches_run_from_zero_bit_for_bit() {
        let gains = [0.5, 1.0, 2.0, 4.0, 8.0];
        let spec = SweepSpec::grid(&[("gain", &gains)], 3).unwrap();
        let plain = TdfSweep::new(200)
            .run(&spec, 2, &["peak"], build_post)
            .unwrap();
        assert_eq!(plain.prefix_forks, 0);
        for workers in [1, 2, 4] {
            let shared = TdfSweep::new(200)
                .prefix(64)
                .run(&spec, workers, &["peak"], build_post)
                .unwrap();
            assert_eq!(
                plain.fingerprint(),
                shared.fingerprint(),
                "workers={workers}"
            );
            assert_eq!(shared.prefix_forks, 5);
            assert_eq!(shared.prefix_steps, 64);
            // Restored counters continue from the checkpoint's: totals
            // accumulate to run-from-zero work per scenario.
            assert_eq!(shared.totals().iterations, 5 * 200);
        }
    }

    #[test]
    fn prefix_fork_restores_module_and_probe_state() {
        use ams_scope::Phase;
        // The oscillator's phase counter `k` lives in module state: a
        // fork that failed to restore it would resume mid-waveform and
        // shift every sample of the tail. Compare actual metric values,
        // not just fingerprints.
        let gains = [0.5, 2.0, 4.0];
        let spec = SweepSpec::grid(&[("gain", &gains)], 0).unwrap();
        let plain = TdfSweep::new(100)
            .run(&spec, 1, &["peak"], build_post)
            .unwrap();
        let shared = TdfSweep::new(100)
            .prefix(30)
            .trace(true)
            .run(&spec, 2, &["peak"], build_post)
            .unwrap();
        assert_eq!(
            plain.values("peak").unwrap(),
            shared.values("peak").unwrap()
        );
        // Each fork records a Checkpoint instant inside its span.
        let trace = shared.trace.as_ref().expect("trace enabled");
        let instants: Vec<_> = trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == SpanKind::Checkpoint && e.phase == Phase::Instant)
            .collect();
        assert_eq!(instants.len(), 3);
        assert!(instants.iter().all(|e| e.arg > 0));
    }

    #[test]
    fn prefix_rejects_bad_lengths_and_forks_lane_bundles() {
        let spec = SweepSpec::grid(&[("gain", &[1.0, 2.0])], 0).unwrap();
        for bad in [0, 100, 150] {
            assert!(
                matches!(
                    TdfSweep::new(100)
                        .prefix(bad)
                        .run(&spec, 1, &["peak"], build_post),
                    Err(SweepError::Invalid(_))
                ),
                "prefix = {bad}"
            );
        }
        // Every bundle forks from the worker's checkpoint: bit-identical
        // to the same lane sweep from iteration 0, short last bundle
        // (5 = 4 + 1) included.
        let gains = [0.5, 1.0, 2.0, 4.0, 8.0];
        let spec = SweepSpec::grid(&[("gain", &gains)], 3).unwrap();
        let from_zero = TdfSweep::new(100)
            .run_lanes(&spec, 1, &["peak"], 4, build_lane)
            .unwrap();
        for workers in [1, 2, 4] {
            let forked = TdfSweep::new(100)
                .prefix(30)
                .run_lanes(&spec, workers, &["peak"], 4, build_lane)
                .unwrap();
            assert_eq!(
                forked.fingerprint(),
                from_zero.fingerprint(),
                "workers={workers}"
            );
            assert_eq!(forked.bundles, 2);
            assert_eq!(forked.prefix_forks, 5);
            assert_eq!(forked.prefix_steps, 30);
        }
    }

    #[test]
    fn lint_gate_rejects_rate_inconsistent_topologies() {
        struct TwoRate {
            a: ams_core::TdfOut,
            b: ams_core::TdfIn,
        }
        impl TdfModule for TwoRate {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.output_with(self.a, 2);
                cfg.input_with(self.b, 3, 1);
                cfg.set_timestep(SimTime::from_us(1));
            }
            fn processing(&mut self, _io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                Ok(())
            }
        }
        struct NoModel;
        impl SweepModel for NoModel {
            fn apply(&mut self, _s: &Scenario) {}
            fn metrics(&mut self, _c: &Cluster, _out: &mut [f64]) {}
        }
        let spec = SweepSpec::grid(&[("x", &[1.0])], 0).unwrap();
        let err = TdfSweep::new(10)
            .run(&spec, 1, &["m"], |_slot| {
                let mut g = TdfGraph::new("bad");
                let s = g.signal("x");
                g.add_module(
                    "m",
                    TwoRate {
                        a: s.writer(),
                        b: s.reader(),
                    },
                );
                (g, NoModel)
            })
            .unwrap_err();
        assert!(matches!(err, SweepError::Lint(_)), "got {err}");
    }
}
