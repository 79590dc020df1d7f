//! Batched transient sweeps over value-variants of one netlist.
//!
//! All scenarios of a [`NetlistSweep`] share the template circuit's
//! *topology*: the `apply` closure may only change element values
//! (through [`Circuit::set_resistance`](ams_net::Circuit::set_resistance)
//! and friends, which cannot alter connectivity). That invariant is what
//! the batch amortizes on:
//!
//! * the `ams-lint` MNA checks run **once**, on the template, not per
//!   scenario;
//! * with the sparse backend, one symbolic LU analysis (ordering, pivot
//!   sequence, fill pattern) — the first bundle's, or the shared
//!   prefix run's — is exported and adopted by every other bundle, which
//!   then pays only numeric refactorization — see the
//!   `e10_sweep_throughput` benchmark for the measured win.
//!
//! Every entry point runs through one driver and one bundle executor,
//! generic over the engine's lane scalar: [`NetlistSweep::run`] is width
//! 1 (`f64`), [`NetlistSweep::run_lanes`] the configured width, and a
//! [`NetlistSweep::prefix`] fork is a bundle that starts from the prefix
//! checkpoint instead of t = 0.

use crate::engine::{decode_verdict_slots, emit_monitor_instants, push_verdict_slots, run_sharded};
use crate::options::{ResolvedMonitors, SweepOptions};
use crate::report::SweepReport;
use crate::spec::{Scenario, SweepSpec};
use crate::{CancelToken, SweepError};
use ams_core::ClusterStats;
use ams_lint::{classify_point, lint_circuit, lint_space, LintPolicy, SpaceSpec};
use ams_math::{F64xK, Lanes};
use ams_monitor::{MonitorBank, MonitorSpec, Verdict};
use ams_net::{
    AdaptiveOptions, Checkpoint, Circuit, IntegrationMethod, NetError, NodeId, ScenarioProbe,
    SolverBackend, SymbolicFactor, Transient, TransientSolver, TransientStats,
};
use ams_scope::{scenario_arg, SpanKind, Tracer};

/// How each scenario's transient analysis is stepped.
#[derive(Debug, Clone)]
pub enum RunMode {
    /// Fixed-step integration to `t_end` with step `h`.
    Fixed {
        /// Simulation horizon in seconds.
        t_end: f64,
        /// Timestep in seconds.
        h: f64,
    },
    /// Adaptive step-doubling integration to `t_end`.
    Adaptive {
        /// Simulation horizon in seconds.
        t_end: f64,
        /// Error-controller options.
        opts: AdaptiveOptions,
    },
}

/// A per-scenario completion callback: `(scenario index, metric row,
/// solver counters, monitor verdicts)`. Runs on whichever thread
/// finished the scenario, so implementations must be `Send + Sync`;
/// keyed by index, the stream is order-independent. The counters are
/// the same [`ClusterStats`] the scenario's
/// [`ScenarioResult`](crate::ScenarioResult) will carry, and the
/// verdicts the same slice (empty with no monitors attached), so a
/// consumer can persist resumable, fingerprint-grade partial results
/// (lane runs report the bundle's counters for every scenario in the
/// bundle, exactly as the report does).
pub type ProgressFn =
    std::sync::Arc<dyn Fn(usize, &[f64], &ClusterStats, &[Verdict]) + Send + Sync>;

/// A slot that receives the symbolic factor scenario 0 exports, letting
/// callers keep it warm across runs of the same topology (`ams-serve`'s
/// topology cache). Filled once scenario 0 completes; left untouched
/// when the run was itself seeded by [`NetlistSweep::symbolic_hint`]
/// (nothing new was analyzed) or the backend is dense.
pub type FactorSink = std::sync::Arc<std::sync::Mutex<Option<SymbolicFactor>>>;

/// What one bundle produces: the `K` rows (padding lanes included), the
/// bundle's counters, and — when asked to export — its symbolic factor
/// for sibling bundles.
type Bundle<T> = (Vec<Vec<f64>>, ClusterStats, Option<SymbolicFactor<T>>);

/// A batched transient sweep over one circuit topology.
#[derive(Clone)]
pub struct NetlistSweep {
    template: Circuit,
    method: IntegrationMethod,
    backend: SolverBackend,
    mode: RunMode,
    share_symbolic: bool,
    opts: SweepOptions,
    space: Option<SpaceSpec>,
    pre_linted: bool,
    symbolic_hint: Option<SymbolicFactor>,
    cancel: Option<CancelToken>,
    progress: Option<ProgressFn>,
    factor_sink: Option<FactorSink>,
    lanes: usize,
    prefix_t0: Option<f64>,
}

impl std::fmt::Debug for NetlistSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetlistSweep")
            .field("method", &self.method)
            .field("backend", &self.backend)
            .field("mode", &self.mode)
            .field("share_symbolic", &self.share_symbolic)
            .field("opts", &self.opts)
            .field("space", &self.space.is_some())
            .field("pre_linted", &self.pre_linted)
            .field("symbolic_hint", &self.symbolic_hint.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("progress", &self.progress.is_some())
            .field("factor_sink", &self.factor_sink.is_some())
            .field("prefix_t0", &self.prefix_t0)
            .finish_non_exhaustive()
    }
}

impl NetlistSweep {
    /// A sweep over `template` with the given integration method.
    /// Defaults: automatic backend selection, fixed-step 1 µs horizon at
    /// 1 ns, symbolic sharing on, default lint policy.
    pub fn new(template: Circuit, method: IntegrationMethod) -> NetlistSweep {
        NetlistSweep {
            template,
            method,
            backend: SolverBackend::Auto,
            mode: RunMode::Fixed {
                t_end: 1e-6,
                h: 1e-9,
            },
            share_symbolic: true,
            opts: SweepOptions::new("sweep"),
            space: None,
            pre_linted: false,
            symbolic_hint: None,
            cancel: None,
            progress: None,
            factor_sink: None,
            lanes: 8,
            prefix_t0: None,
        }
    }

    /// Attaches streaming temporal assertion monitors: every scenario
    /// evaluates `spec`'s properties *during* integration (fed on
    /// accepted steps only, exactly when the probe fires — no sample
    /// is buffered), and the report carries one
    /// [`Verdict`] per property per scenario.
    /// Channel names are resolved against the *template* circuit's
    /// node names once per run; an unknown channel rejects the batch
    /// with [`SweepError::Invalid`].
    ///
    /// Verdicts are part of the report's deterministic surface: they
    /// fold into [`SweepReport::fingerprint`], are bit-identical
    /// across worker counts, survive [`prefix`](NetlistSweep::prefix)
    /// forking unchanged (the prefix run feeds the automata on
    /// `[0, t0]` and every fork continues from that state), and under
    /// [`run_lanes`](NetlistSweep::run_lanes) each lane keeps its own
    /// bank. With tracing enabled each scenario records one
    /// [`SpanKind::Monitor`] instant per property, timestamped with
    /// the violation's witness time.
    pub fn monitors(mut self, spec: MonitorSpec) -> NetlistSweep {
        self.opts.monitors = Some(spec);
        self
    }

    /// Resolves the installed monitor spec (if any) against the
    /// template's node names, once per run.
    fn resolve_monitors(&self) -> Result<Option<ResolvedMonitors<NodeId>>, SweepError> {
        self.opts
            .resolve_monitors("node in the sweep template", |ch| {
                self.template.find_node(ch)
            })
    }

    /// Declares the first `t0` seconds of every scenario as a shared
    /// prefix: the sweep integrates the *template* circuit once to `t0`
    /// on the coordinator with the scalar engine, freezes a
    /// [`Checkpoint`], and forks every scenario from it — each
    /// scenario pays only the `[t0, t_end]` tail of solver work. Under
    /// [`run_lanes`](NetlistSweep::run_lanes) at widths above 1 each
    /// bundle restores the checkpoint broadcast into all of its lanes,
    /// and the prefix's scalar symbolic analysis, widened, seeds every
    /// bundle. The report counts the sharing in
    /// [`SweepReport::prefix_forks`] (one per scenario at any width) /
    /// [`SweepReport::prefix_steps`] (fingerprint-excluded), and with
    /// tracing enabled the prefix run appears as a
    /// [`SpanKind::Checkpoint`] span on the coordinator track (`arg` =
    /// scenario count) with one `Checkpoint` instant per fork (`arg` =
    /// checkpoint size in bytes).
    ///
    /// **Contract:** sharing is only valid when every scenario's
    /// trajectory is identical to the template's on `[0, t0]` — the
    /// swept parameters must act strictly after `t0` (a
    /// [`Waveform::Pulse`](ams_net::Waveform::Pulse) with
    /// `delay >= t0`, external inputs driven after `t0`, …). The sweep
    /// cannot verify this; a violated contract silently yields forked
    /// trajectories that differ from a run-from-zero sweep.
    ///
    /// Under the contract a **fixed-step** forked sweep is
    /// bit-identical to run-from-zero when `t0` is a step multiple
    /// (the step sequence is unchanged); an **adaptive** prefix
    /// clamps its last step at `t0`, so forked runs are
    /// self-consistent and worker-invariant but not bit-comparable to
    /// run-from-zero. The same holds per lane width: a forked
    /// `lanes(K)` sweep fingerprints like `lanes(K)` from zero.
    pub fn prefix(mut self, t0: f64) -> NetlistSweep {
        self.prefix_t0 = Some(t0);
        self
    }

    /// Sets the lane width [`run_lanes`](NetlistSweep::run_lanes) packs
    /// scenarios at (default 8): 1 (the scalar `f64` engine) or the
    /// [`F64xK`] bundle widths 4, 8 and 16. Every width runs through
    /// the same driver and bundle executor, with or without a
    /// [`prefix`](NetlistSweep::prefix). Ignored by
    /// [`run`](NetlistSweep::run), which is always width 1.
    pub fn lanes(mut self, lanes: usize) -> NetlistSweep {
        self.lanes = lanes;
        self
    }

    /// Declares the template topology as already gated: the lint pass
    /// is skipped entirely (zero lint work per run). For callers that
    /// cache lint verdicts across runs of one topology — `ams-serve`'s
    /// warm path — not for skipping checks that never happened.
    pub fn pre_linted(mut self, pre_linted: bool) -> NetlistSweep {
        self.pre_linted = pre_linted;
        self
    }

    /// Seeds the run with a symbolic factor from a previous run over the
    /// same topology: **every** scenario, including the first, adopts it
    /// and pays only a numeric refactorization — the whole run performs
    /// zero symbolic analyses. A hint whose sparsity pattern does not
    /// match is ignored (a fresh analysis happens as usual).
    pub fn symbolic_hint(mut self, hint: SymbolicFactor) -> NetlistSweep {
        self.symbolic_hint = Some(hint);
        self
    }

    /// Attaches a cancellation token, checked at scenario boundaries on
    /// the coordinator and on every worker. See [`CancelToken`].
    pub fn cancel_token(mut self, token: CancelToken) -> NetlistSweep {
        self.cancel = Some(token);
        self
    }

    /// Installs a per-scenario completion callback for streaming result
    /// delivery: invoked with `(index, metric row)` as soon as each
    /// scenario finishes, before the batch completes. See [`ProgressFn`].
    pub fn on_scenario(mut self, progress: ProgressFn) -> NetlistSweep {
        self.progress = Some(progress);
        self
    }

    /// Installs a sink that receives scenario 0's exported symbolic
    /// factor, for callers that cache it across runs. See [`FactorSink`].
    pub fn factor_sink(mut self, sink: FactorSink) -> NetlistSweep {
        self.factor_sink = Some(sink);
        self
    }

    /// Enables span tracing: every scenario records a
    /// [`SpanKind::Scenario`] span (timestamped in the scenario-index
    /// domain, `arg` = scenario index) with the solver's
    /// assemble/factor/solve/Newton spans folded in (a lane bundle is
    /// one span whose `arg` also carries the width). The merged
    /// [`ScopeTrace`](ams_scope::ScopeTrace) lands in
    /// [`SweepReport::trace`] — scenario 0 (or the prefix run) on the
    /// `coordinator` track, shard `s` on `shard-s`. Disabled (the
    /// default) costs one branch per scenario.
    pub fn trace(mut self, enabled: bool) -> NetlistSweep {
        self.opts.trace = enabled;
        self
    }

    /// Selects the linear-solver backend for every scenario.
    pub fn backend(mut self, backend: SolverBackend) -> NetlistSweep {
        self.backend = backend;
        self
    }

    /// Fixed-step integration to `t_end` with step `h`.
    pub fn fixed_step(mut self, t_end: f64, h: f64) -> NetlistSweep {
        self.mode = RunMode::Fixed { t_end, h };
        self
    }

    /// Adaptive integration to `t_end` with the given controller options.
    pub fn adaptive(mut self, t_end: f64, opts: AdaptiveOptions) -> NetlistSweep {
        self.mode = RunMode::Adaptive { t_end, opts };
        self
    }

    /// Enables or disables cross-scenario symbolic-factor sharing
    /// (enabled by default; disabling is mainly for benchmarking the
    /// amortization itself).
    pub fn share_symbolic(mut self, share: bool) -> NetlistSweep {
        self.share_symbolic = share;
        self
    }

    /// Sets the lint policy gating the template topology.
    pub fn lint_policy(mut self, policy: LintPolicy) -> NetlistSweep {
        self.opts.lint = policy;
        self
    }

    /// Installs a sweep-space abstract-interpretation spec: before any
    /// scenario runs, `ams-lint::space` interval-analyzes the whole
    /// parameter box once per batch. The outcome is gated by the same
    /// [`LintPolicy`] as the concrete checks:
    ///
    /// * a policy-denied space-wide defect (`SPC004` unknown bind,
    ///   `SPC005` structural defect at every corner) rejects the batch
    ///   with [`SweepError::Lint`];
    /// * a policy-denied corner-dependent defect (`SPC001` domain
    ///   crossing, `SPC002` singular corner) **prunes** exactly the
    ///   statically doomed scenarios — each one re-classified at its
    ///   concrete point — and lists them in
    ///   [`SweepReport::space_pruned`]; survivors keep their indices
    ///   and seeds, so the pruned run is bit-compatible with a
    ///   hand-filtered spec at any worker count. A batch whose every
    ///   scenario is doomed is rejected outright;
    /// * warnings (`SPC003` unsafe timestep, `SPC006` lane hazard) are
    ///   printed and counted like any other lint warning.
    ///
    /// With tracing enabled the pass records a
    /// [`SpanKind::SpaceLint`] span on the coordinator track (`arg` =
    /// scenario count of the incoming batch).
    pub fn space(mut self, spec: SpaceSpec) -> NetlistSweep {
        self.space = Some(spec);
        self
    }

    /// Names the sweep for lint reports and diagnostics.
    pub fn context(mut self, context: impl Into<String>) -> NetlistSweep {
        self.opts.context = context.into();
        self
    }

    /// Runs the installed space pass (if any) and applies the policy:
    /// whole-batch rejection, scenario pruning, or pass-through. See
    /// [`NetlistSweep::space`]. Returns the pruned spec when anything
    /// was removed; `None` leaves the caller's spec untouched.
    fn space_gate(
        &self,
        spec: &SweepSpec,
        tracer: &mut Tracer,
        lint_warnings: &mut usize,
        pruned: &mut Vec<(usize, String)>,
    ) -> Result<Option<SweepSpec>, SweepError> {
        let Some(sspec) = &self.space else {
            return Ok(None);
        };
        let traced = tracer.is_enabled();
        if traced {
            tracer.begin_with(SpanKind::SpaceLint, 0, spec.len() as u64);
        }
        let sr = lint_space(self.opts.context.clone(), &self.template, sspec);
        if traced {
            tracer.end_with(SpanKind::SpaceLint, 0, spec.len() as u64);
        }
        *lint_warnings += self.opts.warn(&sr.report);
        let denied = self.opts.lint.denied(&sr.report);
        if denied.is_empty() {
            return Ok(None);
        }
        // Corner-dependent codes re-classify per scenario and prune;
        // any other denied code dooms the whole box, so the batch is
        // rejected before a single solver is built.
        let prunable = [ams_lint::codes::SPC001, ams_lint::codes::SPC002];
        if denied.iter().any(|d| !prunable.contains(&d.code)) {
            return Err(SweepError::Lint(sr.report));
        }
        let mut survivors = spec.clone();
        survivors.retain(|sc| {
            match classify_point(&self.template, sspec, sc.names(), sc.values()) {
                Some(code) => {
                    pruned.push((sc.index(), code.to_string()));
                    false
                }
                None => true,
            }
        });
        if survivors.is_empty() {
            return Err(SweepError::Lint(sr.report));
        }
        Ok(Some(survivors))
    }

    /// Runs every scenario of `spec` on up to `workers` threads, one
    /// scalar engine per scenario, and aggregates a [`SweepReport`] —
    /// [`run_lanes`](NetlistSweep::run_lanes) at width 1, whatever
    /// [`lanes`](NetlistSweep::lanes) says.
    ///
    /// `apply` receives a clone of the template and the scenario, and
    /// writes the scenario's parameter values into it (element-value
    /// mutators only — the topology must stay fixed). `observe` is the
    /// probe: it runs after every accepted step with a
    /// [`ScenarioProbe`] and the scenario's metric slots (initialized
    /// to NaN; one slot per name in `metrics`), and typically records
    /// last/extreme values.
    ///
    /// The first scenario runs on the coordinator thread (the
    /// [`prefix`](NetlistSweep::prefix) run takes that role when one is
    /// declared); with a sparse backend its symbolic analysis seeds
    /// every other scenario's solver. Scheduling, seeds and the shared
    /// factor are all independent of `workers`, so the report is
    /// **bit-identical** across worker counts.
    ///
    /// # Errors
    ///
    /// * [`SweepError::Lint`] when the template fails the policy gate.
    /// * [`SweepError::Invalid`] for an empty spec or empty metric list.
    /// * [`SweepError::Scenario`] for the lowest-indexed failing
    ///   scenario.
    pub fn run<A, O>(
        &self,
        spec: &SweepSpec,
        workers: usize,
        metrics: &[&str],
        apply: A,
        observe: O,
    ) -> Result<SweepReport, SweepError>
    where
        A: Fn(&mut Circuit, &Scenario) -> Result<(), NetError> + Sync,
        O: Fn(&dyn ScenarioProbe, &mut [f64]) + Sync,
    {
        self.drive::<f64, A, O>(spec, workers, metrics, &apply, &observe)
    }

    /// Runs every scenario of `spec` lane-batched: consecutive
    /// scenarios are packed [`lanes`](NetlistSweep::lanes) at a time
    /// into one [`Transient`] engine, which assembles, factors and
    /// solves all of them per instruction stream. Width 1 *is* the
    /// scalar path ([`run`](NetlistSweep::run)); every width goes
    /// through the same driver and the same bundle executor, and the
    /// report has the same per-scenario shape.
    ///
    /// `observe` receives a [`ScenarioProbe`] — a view of its
    /// scenario's lane — so one closure body serves every width.
    ///
    /// Semantics that differ from the scalar path, all inherited from
    /// the engine's lane semantics:
    ///
    /// * Metric values may deviate from a scalar run by up to ~1e-9
    ///   relative: bundled Newton iterates until every live lane
    ///   converges and adaptive runs share the min-over-lanes step, so
    ///   easy corners get extra (convergent) iterations. Lane-mode
    ///   reports are still **bit-identical across worker counts** —
    ///   bundle composition is index-determined and one symbolic
    ///   analysis seeds all shards.
    /// * A diverging scenario surfaces as NaN metrics for its lane
    ///   instead of failing the whole run; the run errors only when a
    ///   bundle loses *all* its lanes (attributed to the bundle's first
    ///   scenario).
    /// * Per-scenario solver counters are the *bundle's* counters (one
    ///   step advances every lane), so [`SweepReport::totals`]
    ///   over-counts by up to the lane width vs. a scalar run.
    /// * The last bundle is padded by replicating the final scenario;
    ///   padded lanes are dropped before the report is assembled.
    /// * A [`FactorSink`] only receives scalar analyses (the
    ///   [`prefix`](NetlistSweep::prefix) run's, or scenario 0's at
    ///   width 1); a scalar
    ///   [`symbolic_hint`](NetlistSweep::symbolic_hint) is honored at
    ///   every width by widening it to the lane scalar.
    ///
    /// [`prefix`](NetlistSweep::prefix) works at every width: the
    /// prefix runs once at width 1 and every bundle forks from its
    /// checkpoint, broadcast into each lane.
    ///
    /// # Errors
    ///
    /// As [`run`](NetlistSweep::run), plus [`SweepError::Invalid`] for
    /// a lane width outside {1, 4, 8, 16}.
    pub fn run_lanes<A, O>(
        &self,
        spec: &SweepSpec,
        workers: usize,
        metrics: &[&str],
        apply: A,
        observe: O,
    ) -> Result<SweepReport, SweepError>
    where
        A: Fn(&mut Circuit, &Scenario) -> Result<(), NetError> + Sync,
        O: Fn(&dyn ScenarioProbe, &mut [f64]) + Sync,
    {
        match self.lanes {
            1 => self.drive::<f64, A, O>(spec, workers, metrics, &apply, &observe),
            4 => self.drive::<F64xK<4>, A, O>(spec, workers, metrics, &apply, &observe),
            8 => self.drive::<F64xK<8>, A, O>(spec, workers, metrics, &apply, &observe),
            16 => self.drive::<F64xK<16>, A, O>(spec, workers, metrics, &apply, &observe),
            other => Err(SweepError::invalid(format!(
                "unsupported lane width {other}: pick 1, 4, 8 or 16"
            ))),
        }
    }

    /// The one sweep driver, at lane width `T::LANES`: gates, optional
    /// shared prefix, bundle 0 inline on the coordinator (when there is
    /// no prefix to donate the symbolic analysis), every other bundle
    /// through the sharded engine, then the shared report tail.
    fn drive<T: Lanes, A, O>(
        &self,
        spec: &SweepSpec,
        workers: usize,
        metrics: &[&str],
        apply: &A,
        observe: &O,
    ) -> Result<SweepReport, SweepError>
    where
        A: Fn(&mut Circuit, &Scenario) -> Result<(), NetError> + Sync,
        O: Fn(&dyn ScenarioProbe, &mut [f64]) + Sync,
    {
        if spec.is_empty() {
            return Err(SweepError::invalid("sweep spec has no scenarios"));
        }
        if metrics.is_empty() {
            return Err(SweepError::invalid("sweep needs at least one metric"));
        }

        // Lint gate: once per topology, never per scenario — and not at
        // all when the caller holds a cached verdict (`pre_linted`).
        let mut lint_warnings = if self.pre_linted {
            0
        } else {
            self.opts
                .gate(lint_circuit(self.opts.context.clone(), &self.template))?
        };

        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(SweepError::Cancelled);
        }

        let mut coord_tracer = if self.opts.trace {
            Tracer::on()
        } else {
            Tracer::off()
        };

        // Space gate: one abstract-interpretation pass over the whole
        // parameter box; statically doomed scenarios never reach a
        // solver, and bundles pack only survivors.
        let mut space_pruned = Vec::new();
        let gated;
        let spec = match self.space_gate(
            spec,
            &mut coord_tracer,
            &mut lint_warnings,
            &mut space_pruned,
        )? {
            Some(s) => {
                gated = s;
                &gated
            }
            None => spec,
        };

        let scenarios = spec.scenarios();
        let n = scenarios.len();
        let k = T::LANES;
        let n_bundles = n.div_ceil(k);
        let n_metrics = metrics.len();
        let mut prefix = match self.prefix_t0 {
            Some(t0) => Some(self.run_prefix(t0, n, n_metrics, observe, &mut coord_tracer)?),
            None => None,
        };
        let mon = match prefix.as_mut() {
            // Forks resume from the banks the prefix fed on [0, t0].
            Some(p) => p.monitors.take(),
            None => self.resolve_monitors()?,
        };
        let mon_ref = mon.as_ref();
        let progress = |b: usize, rows: &[Vec<f64>], stats: &ClusterStats| {
            if let Some(p) = &self.progress {
                for (sc, row) in scenarios[b * k..].iter().zip(rows) {
                    let verdicts = decode_verdict_slots(&row[n_metrics..]);
                    p(sc.index(), &row[..n_metrics], stats, &verdicts);
                }
            }
        };

        // The symbolic donor every bundle adopts: a caller-supplied
        // hint wins, then the prefix run's analysis, then bundle 0's.
        let share = self.share_symbolic;
        let mut donor: Option<SymbolicFactor<T>> = self
            .symbolic_hint
            .as_ref()
            .or(prefix.as_ref().and_then(|p| p.factor.as_ref()))
            .filter(|_| share)
            .map(SymbolicFactor::cast);
        let mut sink_factor = prefix.as_ref().and_then(|p| p.factor.clone());

        // Without a prefix, bundle 0 runs inline on the coordinator: it
        // computes the shared symbolic analysis, so every worker count
        // sees the same pivot sequence.
        let first = if prefix.is_none() {
            let (rows, stats, exported) = self.run_bundle::<T, A, O>(
                scenarios,
                0,
                None,
                donor.as_ref(),
                share && donor.is_none(),
                n_metrics,
                mon_ref,
                &mut coord_tracer,
                apply,
                observe,
            )?;
            progress(0, &rows, &stats);
            if let Some(f) = exported {
                // Only a one-lane analysis is a scalar factor a cache
                // may hand to scalar runs later.
                if k == 1 {
                    sink_factor = Some(f.cast());
                }
                donor = Some(f);
            }
            Some((rows.concat(), stats))
        } else {
            None
        };
        if let (Some(sink), Some(f)) = (&self.factor_sink, sink_factor) {
            *sink.lock().expect("factor sink poisoned") = Some(f);
        }

        let inline = usize::from(first.is_some());
        let mut shard = run_sharded(
            n_bundles - inline,
            workers,
            self.opts.trace,
            |_slot, _items| Ok(()),
            |_state: &mut (), item, tracer: &mut Tracer| {
                if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    return Err(SweepError::Cancelled);
                }
                let b = item + inline;
                let (rows, stats, _) = self.run_bundle::<T, A, O>(
                    scenarios,
                    b,
                    prefix.as_ref(),
                    donor.as_ref(),
                    false,
                    n_metrics,
                    mon_ref,
                    tracer,
                    apply,
                    observe,
                )?;
                progress(b, &rows, &stats);
                // Verdicts ride home in extra row slots; the report
                // assembly strips and decodes them.
                Ok((rows.concat(), stats))
            },
        )?;

        if let Some((row, stats)) = first {
            shard.metrics.insert(0, row);
            shard.stats.insert(0, stats);
        }
        let report = shard.into_report(
            &self.opts,
            metrics,
            scenarios,
            k,
            lint_warnings,
            coord_tracer.take_events(),
        );
        Ok(SweepReport {
            space_pruned,
            prefix_forks: if prefix.is_some() { n as u64 } else { 0 },
            prefix_steps: prefix.map_or(0, |p| p.steps),
            ..report
        })
    }

    /// Integrates the *template* once to `t0` on the coordinator at
    /// width 1 and freezes the fork point (see
    /// [`NetlistSweep::prefix`]). The contract guarantees every
    /// scenario is indistinguishable from the template on `[0, t0]`, so
    /// prefix failures are batch failures, not scenario failures.
    fn run_prefix<O>(
        &self,
        t0: f64,
        n: usize,
        n_metrics: usize,
        observe: &O,
        coord_tracer: &mut Tracer,
    ) -> Result<Prefix, SweepError>
    where
        O: Fn(&dyn ScenarioProbe, &mut [f64]) + Sync,
    {
        let t_end = self.horizon();
        if !t0.is_finite() || t0 <= 0.0 || t0 >= t_end {
            return Err(SweepError::invalid(format!(
                "prefix t0 = {t0} must satisfy 0 < t0 < t_end = {t_end}"
            )));
        }
        let mut monitors = self.resolve_monitors()?;
        let mut pre = TransientSolver::new(&self.template, self.method).map_err(SweepError::Net)?;
        pre.backend = self.backend;
        if let (true, Some(h)) = (self.share_symbolic, self.symbolic_hint.as_ref()) {
            pre.adopt_symbolic_factor(h);
        }
        // Monitors watch the whole trajectory: the prefix feeds the
        // prototype bank on [0, t0] and every fork resumes from that
        // fed state — verdicts match a run-from-zero scenario.
        if let Some(m) = &monitors {
            pre.attach_monitors(m.bank.clone(), &m.targets);
        }
        let traced = coord_tracer.is_enabled();
        if traced {
            coord_tracer.begin_with(SpanKind::Checkpoint, 0, n as u64);
            pre.set_tracing(true);
        }

        // The prefix observes into a template metric row every fork
        // starts from, so whole-trajectory metrics (max, integral, …)
        // see exactly what a run-from-zero scenario would.
        let mut vals = vec![f64::NAN; n_metrics];
        let mut probes = 0u64;
        let probe = |s: &TransientSolver| {
            probes += 1;
            observe(s, &mut vals);
        };
        let run = match &self.mode {
            RunMode::Fixed { h, .. } => pre.run(t0, *h, probe),
            RunMode::Adaptive { opts, .. } => pre.run_adaptive(t0, opts, probe),
        };
        run.map_err(SweepError::Net)?;
        // Swap the prototype for the fed bank: forks clone automaton
        // state as of t0, not fresh monitors.
        if let Some(m) = &mut monitors {
            m.bank = pre.take_monitors().expect("prefix monitors attached");
        }
        if traced {
            coord_tracer.extend(pre.take_trace_events());
            coord_tracer.end_with(SpanKind::Checkpoint, 1, n as u64);
        }
        // The prefix run doubles as the symbolic-analysis donor that
        // the inline bundle 0 is on the plain path.
        let factor = if self.share_symbolic && self.symbolic_hint.is_none() {
            pre.symbolic_factor()
        } else {
            None
        };
        Ok(Prefix {
            cp: pre.checkpoint(),
            steps: pre.stats().steps,
            vals,
            probes,
            monitors,
            factor,
        })
    }

    /// The one scenario executor: runs bundle `b` (scenarios `b·K ..`,
    /// padded to `K = T::LANES` by replicating the last) from t = 0 or,
    /// with `start`, as a fork of the shared prefix. Returns all `K`
    /// rows (metrics then verdict slots; padding included — the caller
    /// drops it), the bundle's counters, and (when `export`) its
    /// symbolic factor for sibling bundles.
    ///
    /// A fork restores the prefix checkpoint into every lane and
    /// continues the prefix's metric rows, probe count and step
    /// counters, so its stats — and with them the report fingerprint —
    /// accumulate to run-from-zero totals.
    #[allow(clippy::too_many_arguments)]
    fn run_bundle<T: Lanes, A, O>(
        &self,
        scenarios: &[Scenario],
        b: usize,
        start: Option<&Prefix>,
        donor: Option<&SymbolicFactor<T>>,
        export: bool,
        n_metrics: usize,
        mon: Option<&ResolvedMonitors<NodeId>>,
        tracer: &mut Tracer,
        apply: &A,
        observe: &O,
    ) -> Result<Bundle<T>, SweepError>
    where
        A: Fn(&mut Circuit, &Scenario) -> Result<(), NetError> + Sync,
        O: Fn(&dyn ScenarioProbe, &mut [f64]) + Sync,
    {
        let k = T::LANES;
        let n = scenarios.len();
        let lo = b * k;
        let used = k.min(n - lo);
        let first_idx = scenarios[lo].index();
        let fail = |e: NetError| SweepError::scenario(first_idx, e);

        let mut circuits = Vec::with_capacity(k);
        for l in 0..k {
            let sc = &scenarios[(lo + l).min(n - 1)];
            let mut ckt = self.template.clone();
            apply(&mut ckt, sc).map_err(|e| SweepError::scenario(sc.index(), e))?;
            circuits.push(ckt);
        }
        let mut tr = Transient::<T>::from_circuits(circuits, self.method).map_err(fail)?;
        tr.backend = self.backend;
        if let Some(h) = donor {
            tr.adopt_symbolic_factor(h);
        }
        if let Some(p) = start {
            tr.restore_checkpoint(&p.cp).map_err(fail)?;
        }
        if let Some(m) = mon {
            tr.attach_monitors(m.bank.clone(), &m.targets);
        }
        let span_arg = scenario_arg(first_idx as u64, k);
        let traced = tracer.is_enabled();
        if traced {
            tracer.begin_with(SpanKind::Scenario, first_idx as u64, span_arg);
            if let Some(p) = start {
                tracer.instant(
                    SpanKind::Checkpoint,
                    first_idx as u64,
                    p.cp.approx_bytes() as u64,
                );
            }
            tr.set_tracing(true);
        }

        let mut rows = match start {
            Some(p) => vec![p.vals.clone(); k],
            None => vec![vec![f64::NAN; n_metrics]; k],
        };
        let mut probes = start.map_or(0, |p| p.probes);
        let probe = |s: &Transient<T>| {
            probes += 1;
            for (l, row) in rows.iter_mut().enumerate().take(used) {
                observe(&s.lane_view(l), row);
            }
        };
        let run = match &self.mode {
            RunMode::Fixed { t_end, h } => tr.run(*t_end, *h, probe),
            RunMode::Adaptive { t_end, opts } => tr.run_adaptive(*t_end, opts, probe),
        };
        run.map_err(fail)?;
        let verdicts: Vec<Vec<Verdict>> =
            tr.monitor_banks().iter().map(MonitorBank::finish).collect();
        for (row, v) in rows.iter_mut().zip(&verdicts) {
            push_verdict_slots(row, v);
        }
        if traced {
            // Solver spans ride on the same track, inside the scenario
            // span (solver timestamps are the scenario's local simulated
            // time; the span itself lives in the index domain).
            tracer.extend(tr.take_trace_events());
            for v in verdicts.iter().take(used) {
                emit_monitor_instants(tracer, v, self.horizon());
            }
            tracer.end_with(
                SpanKind::Scenario,
                scenarios[lo + used - 1].index() as u64 + 1,
                span_arg,
            );
        }

        let stats = cluster_stats(tr.stats(), probes);
        let exported = if export { tr.symbolic_factor() } else { None };
        Ok((rows, stats, exported))
    }

    /// The simulation horizon of the configured [`RunMode`].
    fn horizon(&self) -> f64 {
        match &self.mode {
            RunMode::Fixed { t_end, .. } | RunMode::Adaptive { t_end, .. } => *t_end,
        }
    }
}

/// The shared prefix every fork starts from: the checkpoint at `t0`,
/// the template's metric row and probe count up to it, its accepted
/// steps, the monitor banks it fed, and its symbolic analysis (when it
/// is the donor).
struct Prefix {
    cp: Checkpoint,
    steps: u64,
    vals: Vec<f64>,
    probes: u64,
    monitors: Option<ResolvedMonitors<NodeId>>,
    factor: Option<SymbolicFactor>,
}

/// Maps a scenario's transient counters onto the common
/// [`ClusterStats`] shape: accepted steps count as iterations, rejected
/// steps as firings (the only spare monotonic counter), probe calls as
/// probe samples.
fn cluster_stats(t: TransientStats, probes: u64) -> ClusterStats {
    ClusterStats {
        iterations: t.steps,
        firings: t.rejected,
        probe_samples: probes,
        newton_iterations: t.newton_iterations,
        factorizations: t.factorizations,
        solve: t.solve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_net::NodeId;

    struct Rc {
        ckt: Circuit,
        r: ams_net::ElementId,
        out: NodeId,
    }

    fn rc() -> Rc {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source("V", inp, Circuit::GROUND, 1.0).unwrap();
        let r = ckt.resistor("R", inp, out, 1e3).unwrap();
        ckt.capacitor("C", out, Circuit::GROUND, 1e-9).unwrap();
        Rc { ckt, r, out }
    }

    #[test]
    fn grid_sweep_reproduces_serial_answers() {
        let Rc { ckt, r, out } = rc();
        let values = [0.5e3, 1e3, 2e3, 4e3];
        let spec = SweepSpec::grid(&[("r", &values)], 1).unwrap();
        let sweep =
            NetlistSweep::new(ckt.clone(), IntegrationMethod::Trapezoidal).fixed_step(2e-6, 2e-9);
        let report = sweep
            .run(
                &spec,
                3,
                &["v_out"],
                |c, sc| c.set_resistance(r, sc.value("r")),
                |tr, m| m[0] = tr.voltage(out),
            )
            .unwrap();

        assert_eq!(report.scenarios.len(), 4);
        // Slower RC (larger R) charges less by the fixed horizon.
        let v = report.values("v_out").unwrap();
        assert!(v.windows(2).all(|w| w[0] > w[1]), "{v:?}");

        // Each scenario matches a plain serial solver over the same
        // variant exactly (dense auto backend here, no hint in play).
        for (sc, row) in spec.scenarios().iter().zip(&report.scenarios) {
            let mut variant = ckt.clone();
            variant.set_resistance(r, sc.value("r")).unwrap();
            let mut tr = TransientSolver::new(&variant, IntegrationMethod::Trapezoidal).unwrap();
            let mut last = f64::NAN;
            tr.run(2e-6, 2e-9, |s| last = s.voltage(out)).unwrap();
            assert_eq!(row.metrics[0], last, "scenario {}", sc.index());
        }
    }

    #[test]
    fn empty_spec_and_metrics_are_rejected() {
        let Rc { ckt, r, .. } = rc();
        let mut spec = SweepSpec::grid(&[("r", &[1e3])], 0).unwrap();
        let sweep = NetlistSweep::new(ckt, IntegrationMethod::BackwardEuler);
        assert!(matches!(
            sweep.run(
                &spec,
                1,
                &[],
                |c, s| c.set_resistance(r, s.value("r")),
                |_, _| {}
            ),
            Err(SweepError::Invalid(_))
        ));
        spec.retain(|_| false);
        assert!(matches!(
            sweep.run(
                &spec,
                1,
                &["m"],
                |c, s| c.set_resistance(r, s.value("r")),
                |_, _| {}
            ),
            Err(SweepError::Invalid(_))
        ));
    }

    #[test]
    fn failing_scenario_is_identified_by_lowest_index() {
        let Rc { ckt, r, out } = rc();
        let spec = SweepSpec::grid(&[("r", &[1e3, -1.0, 2e3, -2.0])], 0).unwrap();
        let err = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
            .fixed_step(1e-7, 1e-9)
            .run(
                &spec,
                2,
                &["v"],
                |c, sc| c.set_resistance(r, sc.value("r")),
                |tr, m| m[0] = tr.voltage(out),
            )
            .unwrap_err();
        match err {
            SweepError::Scenario { index, .. } => assert_eq!(index, 1),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn trace_attributes_solver_spans_to_scenarios() {
        use ams_scope::Phase;
        let Rc { ckt, r, out } = rc();
        let spec = SweepSpec::grid(&[("r", &[0.5e3, 1e3, 2e3, 4e3])], 1).unwrap();
        let report = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
            .fixed_step(1e-7, 1e-9)
            .trace(true)
            .run(
                &spec,
                2,
                &["v"],
                |c, sc| c.set_resistance(r, sc.value("r")),
                |tr, m| m[0] = tr.voltage(out),
            )
            .unwrap();

        let trace = report.trace.as_ref().expect("trace enabled");
        // Scenario 0 ran inline: its span and the solver's spans are on
        // the coordinator track.
        let coord = trace
            .tracks
            .iter()
            .find(|t| t.process == "coordinator")
            .expect("coordinator track");
        assert_eq!(coord.thread, "scenarios");
        assert!(coord
            .events
            .iter()
            .any(|e| e.kind == SpanKind::Scenario && e.arg == 0));
        assert!(coord.events.iter().any(|e| e.kind == SpanKind::MnaSolve));

        // Every scenario index appears exactly once as a Scenario begin,
        // spread over coordinator + shard tracks.
        let mut indices: Vec<u64> = trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == SpanKind::Scenario && e.phase == Phase::Begin)
            .map(|e| e.arg)
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        for t in &trace.tracks {
            assert!(t.process == "coordinator" || t.process.starts_with("shard-"));
        }
    }

    #[test]
    fn lint_gate_rejects_ill_posed_templates_once() {
        // A floating node: MNA lint flags it, the sweep refuses to run.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.node("floating");
        ckt.voltage_source("V", a, Circuit::GROUND, 1.0).unwrap();
        let spec = SweepSpec::grid(&[("x", &[1.0, 2.0])], 0).unwrap();
        let err = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
            .run(&spec, 1, &["m"], |_, _| Ok(()), |_, _| {})
            .unwrap_err();
        match err {
            SweepError::Lint(report) => assert!(report.error_count() > 0),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn lane_run_matches_scalar_run_with_a_padded_final_bundle() {
        let Rc { ckt, r, out } = rc();
        // 10 scenarios at width 4: bundles of 4 + 4 + 2 (padded to 4).
        let values = [
            0.4e3, 0.6e3, 0.8e3, 1e3, 1.3e3, 1.7e3, 2.2e3, 2.8e3, 3.5e3, 4.5e3,
        ];
        let spec = SweepSpec::grid(&[("r", &values)], 1).unwrap();
        let sweep = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal).fixed_step(2e-6, 2e-9);
        let scalar = sweep
            .run(
                &spec,
                2,
                &["v_out"],
                |c, sc| c.set_resistance(r, sc.value("r")),
                |tr, m| m[0] = tr.voltage(out),
            )
            .unwrap();
        let lane = sweep
            .clone()
            .lanes(4)
            .run_lanes(
                &spec,
                2,
                &["v_out"],
                |c, sc| c.set_resistance(r, sc.value("r")),
                |p, m| m[0] = p.voltage(out),
            )
            .unwrap();
        assert_eq!(lane.lanes, 4);
        assert_eq!(lane.bundles, 3);
        assert_eq!(lane.scenarios.len(), 10); // padding dropped
        let a = scalar.values("v_out").unwrap();
        let b = lane.values("v_out").unwrap();
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                ((x - y) / x).abs() <= 1e-9,
                "scenario {i}: scalar {x} lane {y}"
            );
        }
    }

    #[test]
    fn lane_run_is_bit_identical_across_worker_counts() {
        let Rc { ckt, r, out } = rc();
        let spec = SweepSpec::monte_carlo(&[("r", 0.5e3, 5e3)], 11, 42).unwrap();
        let sweep = NetlistSweep::new(ckt, IntegrationMethod::BackwardEuler)
            .fixed_step(1e-6, 2e-9)
            .lanes(8);
        let apply = |c: &mut Circuit, sc: &Scenario| c.set_resistance(r, sc.value("r"));
        let base = sweep
            .run_lanes(&spec, 1, &["v"], apply, |p, m| m[0] = p.voltage(out))
            .unwrap();
        for workers in [2, 4] {
            let other = sweep
                .run_lanes(&spec, workers, &["v"], apply, |p, m| m[0] = p.voltage(out))
                .unwrap();
            assert_eq!(base.fingerprint(), other.fingerprint(), "workers={workers}");
        }
    }

    #[test]
    fn lane_width_one_is_the_scalar_path_and_odd_widths_are_rejected() {
        let Rc { ckt, r, out } = rc();
        let spec = SweepSpec::grid(&[("r", &[0.5e3, 1e3, 2e3])], 1).unwrap();
        let apply = |c: &mut Circuit, sc: &Scenario| c.set_resistance(r, sc.value("r"));
        let sweep = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal).fixed_step(1e-6, 2e-9);
        let scalar = sweep
            .run(&spec, 2, &["v"], apply, |tr, m| m[0] = tr.voltage(out))
            .unwrap();
        let via_lanes = sweep
            .clone()
            .lanes(1)
            .run_lanes(&spec, 2, &["v"], apply, |p, m| m[0] = p.voltage(out))
            .unwrap();
        // Width 1 *is* the scalar engine: identical fingerprint, scalar
        // report shape.
        assert_eq!(scalar.fingerprint(), via_lanes.fingerprint());
        assert_eq!(via_lanes.lanes, 1);
        assert_eq!(via_lanes.bundles, 0);
        assert!(matches!(
            sweep
                .clone()
                .lanes(3)
                .run_lanes(&spec, 1, &["v"], apply, |p, m| m[0] = p.voltage(out)),
            Err(SweepError::Invalid(_))
        ));
    }

    fn rc_space(dr_lo: f64, dr_hi: f64) -> ams_lint::SpaceSpec {
        use ams_lint::{ParamRange, SpaceBind, SpaceSpec, SpaceTarget};
        SpaceSpec::new(
            vec![ParamRange::new("dr", dr_lo, dr_hi)],
            vec![SpaceBind {
                param: "dr".into(),
                element: "R".into(),
                target: SpaceTarget::Resistance,
                relative: true,
                nominal: 1e3,
            }],
        )
    }

    #[test]
    fn space_gate_prunes_doomed_scenarios_bit_identically() {
        let Rc { ckt, r, out } = rc();
        // dr = -1.5 drives R to -500 Ω: statically doomed. The gate
        // must remove exactly that scenario before `apply` ever sees it
        // (set_resistance would reject the negative value).
        let spec = SweepSpec::grid(&[("dr", &[-1.5, -0.5, 0.0, 0.5])], 7).unwrap();
        let sweep = NetlistSweep::new(ckt.clone(), IntegrationMethod::Trapezoidal)
            .fixed_step(2e-6, 2e-9)
            .space(rc_space(-1.5, 0.5));
        let apply =
            |c: &mut Circuit, sc: &Scenario| c.set_resistance(r, 1e3 * (1.0 + sc.value("dr")));
        let report = sweep
            .run(&spec, 1, &["v"], apply, |tr, m| m[0] = tr.voltage(out))
            .unwrap();
        assert_eq!(report.space_pruned, vec![(0, "SPC001".to_string())]);
        assert_eq!(report.scenarios.len(), 3);
        // Survivors keep their original indices and seeds.
        assert_eq!(report.scenarios[0].index, 1);

        // Bit-identical across worker counts...
        let at4 = sweep
            .run(&spec, 4, &["v"], apply, |tr, m| m[0] = tr.voltage(out))
            .unwrap();
        assert_eq!(report.fingerprint(), at4.fingerprint());
        assert_eq!(at4.space_pruned, report.space_pruned);

        // ...and to an ungated run over a hand-filtered spec.
        let mut hand = spec.clone();
        hand.retain(|sc| sc.value("dr") > -1.0);
        let ungated = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
            .fixed_step(2e-6, 2e-9)
            .run(&hand, 2, &["v"], apply, |tr, m| m[0] = tr.voltage(out))
            .unwrap();
        assert_eq!(report.fingerprint(), ungated.fingerprint());

        // The lane path prunes before bundle composition.
        let lanes = sweep
            .clone()
            .lanes(4)
            .run_lanes(&spec, 2, &["v"], apply, |p, m| m[0] = p.voltage(out))
            .unwrap();
        assert_eq!(lanes.space_pruned, report.space_pruned);
        assert_eq!(lanes.scenarios.len(), 3);
    }

    #[test]
    fn space_gate_rejects_unknown_binds_and_fully_doomed_batches() {
        let Rc { ckt, r, out } = rc();
        let apply =
            |c: &mut Circuit, sc: &Scenario| c.set_resistance(r, 1e3 * (1.0 + sc.value("dr")));

        // A bind to a nonexistent element dooms the whole box: the
        // batch is rejected outright, no pruning attempted.
        let spec = SweepSpec::grid(&[("dr", &[0.0, 0.1])], 0).unwrap();
        let mut bad = rc_space(0.0, 0.1);
        bad.binds[0].element = "nope".into();
        let err = NetlistSweep::new(ckt.clone(), IntegrationMethod::Trapezoidal)
            .space(bad)
            .run(&spec, 1, &["v"], apply, |tr, m| m[0] = tr.voltage(out))
            .unwrap_err();
        match err {
            SweepError::Lint(rep) => assert!(rep.has_code(ams_lint::codes::SPC004)),
            other => panic!("unexpected error {other}"),
        }

        // Every scenario doomed -> rejected, not an empty run.
        let doomed = SweepSpec::grid(&[("dr", &[-1.5, -1.2])], 0).unwrap();
        let err = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
            .space(rc_space(-1.5, -1.2))
            .run(&doomed, 1, &["v"], apply, |tr, m| m[0] = tr.voltage(out))
            .unwrap_err();
        match err {
            SweepError::Lint(rep) => assert!(rep.has_code(ams_lint::codes::SPC001)),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn healthy_space_passes_through_untouched_and_traces_a_span() {
        let Rc { ckt, r, out } = rc();
        let spec = SweepSpec::grid(&[("dr", &[-0.2, 0.0, 0.2])], 0).unwrap();
        let report = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
            .fixed_step(1e-7, 1e-9)
            .space(rc_space(-0.2, 0.2))
            .trace(true)
            .run(
                &spec,
                2,
                &["v"],
                |c, sc| c.set_resistance(r, 1e3 * (1.0 + sc.value("dr"))),
                |tr, m| m[0] = tr.voltage(out),
            )
            .unwrap();
        assert!(report.space_pruned.is_empty());
        assert_eq!(report.scenarios.len(), 3);
        let trace = report.trace.as_ref().expect("trace enabled");
        let coord = trace
            .tracks
            .iter()
            .find(|t| t.process == "coordinator")
            .expect("coordinator track");
        // The pass itself is visible: one SpaceLint span fronting the
        // batch, arg = incoming scenario count.
        assert!(coord
            .events
            .iter()
            .any(|e| e.kind == SpanKind::SpaceLint && e.arg == 3));
    }

    /// Pulse whose leading edge sits at `delay`: identical to the DC
    /// baseline `v1 = 1` before it, scenario-dependent after — the
    /// prefix-sharing contract by construction.
    fn pulse(v2: f64, delay: f64, tau: f64) -> ams_net::Waveform {
        ams_net::Waveform::Pulse {
            v1: 1.0,
            v2,
            delay,
            rise: 8.0 * tau,
            fall: 8.0 * tau,
            width: 64.0 * tau,
            period: 0.0,
        }
    }

    fn pulse_rc(delay: f64, tau: f64) -> (Circuit, ams_net::ElementId, NodeId) {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let v = ckt.voltage_source("V", inp, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R", inp, out, 1e3).unwrap();
        ckt.capacitor("C", out, Circuit::GROUND, 1e-9).unwrap();
        ckt.set_source_waveform(v, pulse(1.0, delay, tau)).unwrap();
        (ckt, v, out)
    }

    #[test]
    fn prefix_fork_is_bit_identical_to_run_from_zero_across_workers() {
        // Power-of-two step and fork point: every partial sum of h is
        // exact, so fixed-step bit-identity is testable with `==`.
        let h = (2.0f64).powi(-20);
        let t0 = 64.0 * h;
        let t_end = 256.0 * h;
        let (ckt, v, out) = pulse_rc(t0, h);
        let values = [0.0, 0.5, 2.0, 4.0, 8.0];
        let spec = SweepSpec::grid(&[("v2", &values)], 3).unwrap();
        let apply =
            |c: &mut Circuit, sc: &Scenario| c.set_source_waveform(v, pulse(sc.value("v2"), t0, h));
        // One last-value and one whole-trajectory metric: the latter
        // only matches when forks inherit the prefix's observations.
        let observe = |tr: &dyn ScenarioProbe, m: &mut [f64]| {
            let x = tr.voltage(out);
            m[0] = x;
            m[1] = m[1].max(x);
        };
        let plain = NetlistSweep::new(ckt.clone(), IntegrationMethod::Trapezoidal)
            .fixed_step(t_end, h)
            .run(&spec, 2, &["v_end", "v_max"], apply, observe)
            .unwrap();
        assert_eq!(plain.prefix_forks, 0);
        // The contract is not vacuous: scenarios genuinely diverge
        // after t0.
        let vs = plain.values("v_end").unwrap();
        assert!(vs.windows(2).any(|w| w[0] != w[1]), "{vs:?}");

        let shared = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
            .fixed_step(t_end, h)
            .prefix(t0);
        for workers in [1, 2, 4] {
            let report = shared
                .run(&spec, workers, &["v_end", "v_max"], apply, observe)
                .unwrap();
            assert_eq!(
                plain.fingerprint(),
                report.fingerprint(),
                "workers={workers}"
            );
            assert_eq!(report.prefix_forks, 5);
            assert_eq!(report.prefix_steps, 64);
        }
    }

    #[test]
    fn prefix_trace_records_checkpoint_spans() {
        use ams_scope::Phase;
        let h = (2.0f64).powi(-20);
        let t0 = 64.0 * h;
        let (ckt, v, out) = pulse_rc(t0, h);
        let values = [0.0, 2.0, 4.0];
        let spec = SweepSpec::grid(&[("v2", &values)], 0).unwrap();
        let report = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
            .fixed_step(256.0 * h, h)
            .prefix(t0)
            .trace(true)
            .run(
                &spec,
                2,
                &["v"],
                |c, sc| c.set_source_waveform(v, pulse(sc.value("v2"), t0, h)),
                |tr, m| m[0] = tr.voltage(out),
            )
            .unwrap();
        let trace = report.trace.as_ref().expect("trace enabled");
        // The prefix run is one Checkpoint span on the coordinator
        // track, arg = scenario count, with the solver's spans inside.
        let coord = trace
            .tracks
            .iter()
            .find(|t| t.process == "coordinator")
            .expect("coordinator track");
        assert!(coord
            .events
            .iter()
            .any(|e| e.kind == SpanKind::Checkpoint && e.phase == Phase::Begin && e.arg == 3));
        assert!(coord.events.iter().any(|e| e.kind == SpanKind::MnaSolve));
        // Every fork records a Checkpoint instant (arg = checkpoint
        // bytes) inside its Scenario span on some worker track.
        let instants: Vec<_> = trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == SpanKind::Checkpoint && e.phase == Phase::Instant)
            .collect();
        assert_eq!(instants.len(), 3);
        assert!(instants.iter().all(|e| e.arg > 0));
        let mut indices: Vec<u64> = trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == SpanKind::Scenario && e.phase == Phase::Begin)
            .map(|e| e.arg)
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn prefix_rejects_bad_t0_and_forks_at_every_lane_width() {
        let h = (2.0f64).powi(-20);
        let t0 = 64.0 * h;
        let t_end = 256.0 * h;
        let (ckt, v, out) = pulse_rc(t0, h);
        let values = [0.0, 2.0];
        let spec = SweepSpec::grid(&[("v2", &values)], 0).unwrap();
        let apply =
            |c: &mut Circuit, sc: &Scenario| c.set_source_waveform(v, pulse(sc.value("v2"), t0, h));
        let observe = |tr: &dyn ScenarioProbe, m: &mut [f64]| m[0] = tr.voltage(out);
        let base = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal).fixed_step(t_end, h);
        for bad in [0.0, -1.0, t_end, 2.0 * t_end, f64::NAN] {
            assert!(
                matches!(
                    base.clone()
                        .prefix(bad)
                        .run(&spec, 1, &["v"], apply, observe),
                    Err(SweepError::Invalid(_))
                ),
                "t0 = {bad}"
            );
        }
        // lanes(1) is the scalar path.
        let scalar = base
            .clone()
            .prefix(t0)
            .run(&spec, 2, &["v"], apply, observe)
            .unwrap();
        let via_lanes = base
            .clone()
            .prefix(t0)
            .lanes(1)
            .run_lanes(&spec, 2, &["v"], apply, observe)
            .unwrap();
        assert_eq!(scalar.fingerprint(), via_lanes.fingerprint());
        assert_eq!(via_lanes.prefix_forks, 2);

        // Wider bundles fork from the same width-1 prefix, broadcast
        // into every lane: bit-identical to the same lane sweep from
        // zero at every worker count, padded last bundle included
        // (10 scenarios = 4+4+2 and 8+2).
        let values = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0];
        let spec = SweepSpec::grid(&[("v2", &values)], 5).unwrap();
        let observe = |tr: &dyn ScenarioProbe, m: &mut [f64]| {
            let x = tr.voltage(out);
            m[0] = x;
            m[1] = m[1].max(x);
        };
        for k in [4, 8] {
            let from_zero = base
                .clone()
                .lanes(k)
                .run_lanes(&spec, 1, &["v_end", "v_max"], apply, observe)
                .unwrap();
            assert_eq!(from_zero.prefix_forks, 0);
            for workers in [1, 2, 4] {
                let forked = base
                    .clone()
                    .prefix(t0)
                    .lanes(k)
                    .run_lanes(&spec, workers, &["v_end", "v_max"], apply, observe)
                    .unwrap();
                assert_eq!(
                    forked.fingerprint(),
                    from_zero.fingerprint(),
                    "lanes={k} workers={workers}"
                );
                assert_eq!(forked.prefix_forks, 10);
                assert_eq!(forked.prefix_steps, 64);
                assert_eq!(forked.bundles, 10usize.div_ceil(k));
            }
        }
    }

    #[test]
    fn adaptive_prefix_is_worker_invariant() {
        // Adaptive forks are not bit-comparable to run-from-zero (the
        // prefix clamps its last step at t0) but must stay
        // self-consistent: identical fingerprints at any worker count.
        let t0 = 2e-6;
        let (ckt, v, out) = pulse_rc(t0, 0.1e-6);
        let values = [0.0, 2.0, 4.0, 8.0];
        let spec = SweepSpec::grid(&[("v2", &values)], 0).unwrap();
        let sweep = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
            .adaptive(
                5e-6,
                AdaptiveOptions {
                    initial_step: 1e-9,
                    ..AdaptiveOptions::default()
                },
            )
            .prefix(t0);
        let apply = |c: &mut Circuit, sc: &Scenario| {
            c.set_source_waveform(v, pulse(sc.value("v2"), t0, 0.1e-6))
        };
        let base = sweep
            .run(&spec, 1, &["v"], apply, |tr, m| m[0] = tr.voltage(out))
            .unwrap();
        assert_eq!(base.prefix_forks, 4);
        assert!(base.prefix_steps > 0);
        for r in &base.scenarios {
            assert!(r.metrics[0].is_finite());
            assert!(r.stats.iterations > 0);
        }
        let at4 = sweep
            .run(&spec, 4, &["v"], apply, |tr, m| m[0] = tr.voltage(out))
            .unwrap();
        assert_eq!(base.fingerprint(), at4.fingerprint());
    }

    #[test]
    fn adaptive_mode_runs_and_counts_rejections_as_firings() {
        let Rc { ckt, r, out } = rc();
        let spec = SweepSpec::grid(&[("r", &[1e3, 3e3])], 0).unwrap();
        let report = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
            .adaptive(
                5e-6,
                AdaptiveOptions {
                    initial_step: 1e-9,
                    ..AdaptiveOptions::default()
                },
            )
            .run(
                &spec,
                2,
                &["v_out"],
                |c, sc| c.set_resistance(r, sc.value("r")),
                |tr, m| m[0] = tr.voltage(out),
            )
            .unwrap();
        for r in &report.scenarios {
            assert!(r.stats.iterations > 0);
            // Step-doubling runs full + two half solves per accepted
            // step, so probes (one per accepted step) trail steps.
            assert!(r.stats.probe_samples > 0);
            assert!(r.stats.iterations >= r.stats.probe_samples);
            assert!(r.metrics[0].is_finite());
        }
    }
}
