//! The parallel simulator façade.
//!
//! [`ParallelSim`] mirrors `ams_core::AmsSimulator` — one DE kernel plus
//! any number of TDF clusters — but executes the clusters on a pool of
//! worker threads, meeting the kernel only at synchronization points.
//!
//! # Synchronization model
//!
//! Simulated time advances in *windows*. A window `[now, t_sync)` ends
//! at the earliest of
//!
//! * the horizon passed to [`ParallelSim::run_until`],
//! * the kernel's next pending timed event
//!   ([`Kernel::next_event_time`](ams_kernel::Kernel::next_event_time)),
//! * the *second* upcoming activation of any cluster with DE converter
//!   bindings (so such a cluster runs at most one iteration per window
//!   and never reads a DE value that a concurrent write should have
//!   changed).
//!
//! Before dispatch the coordinator samples every DE→TDF binding into its
//! shared cell; the workers then run every cluster activation that
//! starts inside the window and meet at a barrier. Afterwards the
//! coordinator replays all queued TDF→DE samples into the kernel at
//! their exact timestamps (delta-cycle semantics preserved) and advances
//! the kernel to `t_sync`. Clusters without DE bindings are unconstrained
//! and free-run to the horizon in a single window — that is where the
//! parallel speedup comes from.
//!
//! This reproduces the serial simulator's observable behaviour exactly:
//! probe waveforms and DE signal traces are bit-identical, because every
//! cluster reads the same converter values and the kernel applies every
//! write at the same instant as in the serial schedule.

use crate::partition::{partition, Partition};
use crate::pool::WorkerPool;
use crate::spsc::{ring, RingMonitor};
use crate::stats::ExecStats;
use ams_core::{CoreError, DeReadBinding, DeWriteBinding, TdfGraph, TdfSignal};
use ams_kernel::{Kernel, SimTime};
use ams_lint::{LintPolicy, LintReport};
use ams_scope::{ScopeTrace, SpanKind, Tracer};
use std::time::Instant;

/// Default capacity of the SPSC rings created by [`ParallelSim::pipe`].
pub const DEFAULT_PIPE_CAPACITY: usize = 1024;

struct BoundCluster {
    period: SimTime,
    /// Coordinator-side mirror of the cluster's next activation time.
    next_activation: SimTime,
}

struct Running {
    pool: WorkerPool,
    partition: Partition,
    bound: Vec<BoundCluster>,
    de_reads: Vec<DeReadBinding>,
    de_writes: Vec<DeWriteBinding>,
    /// The next instant whose activity (kernel events, bound-cluster
    /// activations) has not been processed yet. The kernel itself is
    /// kept strictly *behind* this instant so that DE input snapshots
    /// observe the same pre-delta values the serial simulator's cluster
    /// drivers read.
    frontier: SimTime,
}

/// A DE kernel co-simulating with TDF clusters spread across worker
/// threads. Build it like `AmsSimulator` — create kernel signals, add
/// graphs, optionally [`pipe`](ParallelSim::pipe) clusters together —
/// then call [`run_until`](ParallelSim::run_until).
pub struct ParallelSim {
    kernel: Kernel,
    workers: usize,
    staged: Vec<TdfGraph>,
    pipes: Vec<(usize, usize)>,
    monitors: Vec<RingMonitor>,
    running: Option<Running>,
    stats: ExecStats,
    lint_policy: LintPolicy,
    lint_reports: Vec<LintReport>,
    tracing: bool,
    tracer: Tracer,
}

impl ParallelSim {
    /// Creates a simulator that will use up to `workers` worker threads
    /// (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        ParallelSim {
            kernel: Kernel::new(),
            workers: workers.max(1),
            staged: Vec::new(),
            pipes: Vec::new(),
            monitors: Vec::new(),
            running: None,
            stats: ExecStats::default(),
            lint_policy: LintPolicy::default(),
            lint_reports: Vec::new(),
            tracing: false,
            tracer: Tracer::off(),
        }
    }

    /// Enables or disables span tracing: `de.window` and `exec.barrier`
    /// spans on the coordinator, delta-cycle instants on the kernel, and
    /// iteration/solver spans on every cluster (workers buffer locally;
    /// the coordinator merges deterministically in
    /// [`take_trace`](ParallelSim::take_trace)). Disabled (the default)
    /// costs one branch per hook site.
    ///
    /// # Errors
    ///
    /// Propagates worker failures when the pool is already running.
    pub fn set_tracing(&mut self, enabled: bool) -> Result<(), CoreError> {
        self.tracing = enabled;
        self.tracer.set_enabled(enabled);
        self.kernel.set_tracing(enabled);
        if let Some(run) = &mut self.running {
            run.pool.set_tracing(enabled)?;
        }
        Ok(())
    }

    /// Drains every trace buffer into one [`ScopeTrace`]: the
    /// coordinator's window/barrier spans and the kernel's delta-cycle
    /// instants first (process `coordinator`), then each cluster's
    /// tracks on its worker's process (`worker-N`, from the partition
    /// assignment), in cluster registration order. The merge is
    /// deterministic: track order never depends on thread timing.
    pub fn take_trace(&mut self) -> ScopeTrace {
        let mut trace = ScopeTrace::new();
        let own = self.tracer.take_events();
        if !own.is_empty() {
            trace.add_track("coordinator", "exec", own);
        }
        let kernel_events = self.kernel.take_trace_events();
        if !kernel_events.is_empty() {
            trace.add_track("coordinator", "kernel", kernel_events);
        }
        if let Some(run) = &mut self.running {
            for (idx, sources) in run.pool.collect_traces() {
                let worker = run.partition.assignment[idx];
                for (source, events) in sources {
                    trace.add_track(format!("worker-{worker}"), source, events);
                }
            }
        }
        trace
    }

    /// Replaces the lint policy applied during
    /// [`elaborate`](ParallelSim::elaborate). The default denies
    /// error-severity diagnostics and prints warn-severity ones.
    pub fn set_lint_policy(&mut self, policy: LintPolicy) {
        self.lint_policy = policy;
    }

    /// The lint policy applied during elaboration.
    pub fn lint_policy(&self) -> &LintPolicy {
        &self.lint_policy
    }

    /// Lint reports collected so far, one per staged graph (in staging
    /// order), populated by [`elaborate`](ParallelSim::elaborate).
    pub fn lint_reports(&self) -> &[LintReport] {
        &self.lint_reports
    }

    /// The DE kernel (signals, statistics, time).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access for building the DE side.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Stages a TDF graph for execution and returns its index. Graphs
    /// elaborate lazily on the first [`run_until`](ParallelSim::run_until).
    ///
    /// # Panics
    ///
    /// Panics if called after the first run (the partition is fixed).
    pub fn add_graph(&mut self, graph: TdfGraph) -> usize {
        assert!(
            self.running.is_none(),
            "clusters cannot be added after the first run"
        );
        self.staged.push(graph);
        self.staged.len() - 1
    }

    /// Mutable access to a staged graph, for wiring added after
    /// staging — typically modules consuming the signal returned by
    /// [`pipe`](ParallelSim::pipe).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is unknown or the engine has already elaborated.
    pub fn graph_mut(&mut self, idx: usize) -> &mut TdfGraph {
        assert!(
            self.running.is_none(),
            "clusters cannot be modified after the first run"
        );
        &mut self.staged[idx]
    }

    /// Connects a TDF signal of cluster `producer` to a fresh input
    /// signal of cluster `consumer` through a wait-free SPSC ring of the
    /// given `capacity` (see [`DEFAULT_PIPE_CAPACITY`]), bypassing the DE
    /// kernel entirely. The two clusters become one partition component
    /// and the producer runs before the consumer inside each window, so
    /// the stream is deterministic. Wire consumers of the returned
    /// signal through [`graph_mut`](ParallelSim::graph_mut):
    ///
    /// ```ignore
    /// let a = sim.add_graph(producer_graph);
    /// let b = sim.add_graph(consumer_graph);
    /// let inp = sim.pipe("link", a, tap_signal, b, 256);
    /// sim.graph_mut(b).add_module("use", Gain::new(inp.reader(), out.writer(), 2.0));
    /// ```
    ///
    /// The consumer drains the ring only after the producer finishes the
    /// window, so `capacity` must cover one window's production; free
    /// running clusters (no DE bindings) get the whole horizon as one
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `producer >= consumer` (registration order is execution
    /// order) or either index is unknown.
    pub fn pipe(
        &mut self,
        name: impl Into<String>,
        producer: usize,
        signal: TdfSignal,
        consumer: usize,
        capacity: usize,
    ) -> TdfSignal {
        assert!(
            producer < consumer,
            "pipe producer must be registered before its consumer \
             ({producer} !< {consumer})"
        );
        assert!(consumer < self.staged.len(), "unknown consumer cluster");
        let name = name.into();
        let (tx, rx) = ring(capacity);
        self.monitors.push(tx.monitor());
        self.staged[producer].to_sink(format!("{name}.tx"), signal, tx);
        let sig = self.staged[consumer].from_source(format!("{name}.rx"), rx);
        self.pipes.push((producer, consumer));
        sig
    }

    /// Elaborates all staged graphs, partitions them and spawns the
    /// worker pool. Called automatically by the first
    /// [`run_until`](ParallelSim::run_until); call it eagerly to surface
    /// elaboration errors early or to inspect [`partition`](Self::partition).
    ///
    /// # Errors
    ///
    /// Propagates elaboration failures (scheduling, timestep, topology).
    pub fn elaborate(&mut self) -> Result<(), CoreError> {
        if self.running.is_some() {
            return Ok(());
        }
        // ---- pre-elaboration static analysis ---------------------
        // Every staged graph is linted before any of them elaborates,
        // so a rejected model never spawns workers. Deny-level
        // diagnostics abort with `CoreError::Lint`; warnings print and
        // are kept in `lint_reports` either way.
        let mut staged: Vec<TdfGraph> = self.staged.drain(..).collect();
        self.lint_reports.clear();
        self.stats.lint_errors = 0;
        self.stats.lint_warnings = 0;
        for g in &mut staged {
            let report = g.lint();
            self.stats.lint_errors += report.error_count();
            self.stats.lint_warnings += report.warning_count();
            for d in self.lint_policy.warned(&report) {
                eprintln!("lint [{}]: {d}", report.context);
            }
            let denied = !self.lint_policy.denied(&report).is_empty();
            self.lint_reports.push(report.clone());
            if denied {
                self.staged = staged;
                return Err(CoreError::Lint(report));
            }
        }

        let mut clusters = Vec::new();
        for g in staged {
            let mut c = g.elaborate()?;
            if self.tracing {
                c.set_tracing(true);
            }
            clusters.push(c);
        }

        // Couplings: explicit pipes, plus any two clusters touching the
        // same DE signal (their relative order matters, so they must not
        // run concurrently).
        let mut edges = self.pipes.clone();
        let touched: Vec<Vec<usize>> = clusters
            .iter()
            .map(|c| {
                let mut sigs: Vec<usize> = c
                    .de_read_bindings()
                    .iter()
                    .map(|(s, _)| s.index())
                    .chain(c.de_write_bindings().iter().map(|(s, _)| s.index()))
                    .collect();
                sigs.sort_unstable();
                sigs.dedup();
                sigs
            })
            .collect();
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                if touched[i]
                    .iter()
                    .any(|s| touched[j].binary_search(s).is_ok())
                {
                    edges.push((i, j));
                }
            }
        }

        let costs: Vec<u64> = clusters.iter().map(|c| c.iteration_cost()).collect();
        let part = partition(&costs, &edges, self.workers);

        let mut bound = Vec::new();
        let mut de_reads = Vec::new();
        let mut de_writes = Vec::new();
        for c in &clusters {
            if c.has_de_bindings() {
                bound.push(BoundCluster {
                    period: c.period(),
                    next_activation: SimTime::ZERO,
                });
            }
            de_reads.extend(c.de_read_bindings().iter().cloned());
            de_writes.extend(c.de_write_bindings().iter().cloned());
        }

        let mut groups: Vec<Vec<(usize, ams_core::Cluster)>> =
            (0..part.loads.len()).map(|_| Vec::new()).collect();
        for (idx, c) in clusters.into_iter().enumerate() {
            groups[part.assignment[idx]].push((idx, c));
        }

        self.running = Some(Running {
            pool: WorkerPool::spawn(groups),
            partition: part,
            bound,
            de_reads,
            de_writes,
            frontier: SimTime::ZERO,
        });
        Ok(())
    }

    /// The partition computed by [`elaborate`](Self::elaborate), if it
    /// ran already.
    pub fn partition(&self) -> Option<&Partition> {
        self.running.as_ref().map(|r| &r.partition)
    }

    /// Runs the co-simulation until `until`, window by window.
    ///
    /// # Errors
    ///
    /// The first cluster or kernel failure encountered.
    pub fn run_until(&mut self, until: SimTime) -> Result<(), CoreError> {
        self.elaborate()?;
        let run = self.running.as_mut().expect("elaborated above");
        let eps = SimTime::from_fs(1);

        // Invariant at the top of every window: every instant strictly
        // before `run.frontier` is fully settled in the kernel, and no
        // activity at or after it has been processed. Cluster activations
        // at exactly `until` are included, matching the serial kernel.
        while run.frontier <= until {
            let t_act = run.frontier;

            // ---- choose the synchronization point --------------------
            // The window covers [t_act, t_next): every bound cluster
            // activates at most once (at t_act), and no kernel event
            // fires strictly inside the window.
            let mut t_next = until + eps;
            if let Some(te) = self.kernel.next_event_time() {
                if te > t_act {
                    t_next = t_next.min(te);
                }
            }
            for b in &run.bound {
                let cap = if b.next_activation == t_act {
                    t_act + b.period
                } else {
                    b.next_activation
                };
                t_next = t_next.min(cap);
            }
            debug_assert!(t_next > t_act);

            // ---- sample DE inputs, dispatch, barrier -----------------
            // The snapshot happens before any instant-`t_act` kernel
            // process runs: clusters see the same pre-delta values as
            // the serial driver processes.
            for (sig, cell) in &run.de_reads {
                cell.set(self.kernel.peek(*sig));
            }
            let traced = self.tracer.is_enabled();
            if traced {
                self.tracer.begin(SpanKind::DeWindow, t_act.as_fs());
                self.tracer.begin(SpanKind::BarrierWait, t_act.as_fs());
            }
            let t0 = Instant::now();
            run.pool.run_window(t_next)?;
            self.stats.compute_wall += t0.elapsed();
            self.stats.windows += 1;
            self.stats.barriers += 1;
            if traced {
                self.tracer.end(SpanKind::BarrierWait, t_next.as_fs());
            }
            for b in &mut run.bound {
                while b.next_activation < t_next {
                    b.next_activation += b.period;
                }
            }

            // ---- replay TDF→DE writes, settle to the frontier --------
            let t1 = Instant::now();
            let mut samples: Vec<(SimTime, usize, f64)> = Vec::new();
            for (bidx, (_, queue)) in run.de_writes.iter().enumerate() {
                let mut q = queue.lock().expect("sample queue poisoned");
                while let Some(&(t, v)) = q.front() {
                    if t < t_next {
                        samples.push((t, bidx, v));
                        q.pop_front();
                    } else {
                        break;
                    }
                }
            }
            samples.sort_by_key(|&(t, bidx, _)| (t, bidx));
            for (t, bidx, v) in samples {
                if self.kernel.now() < t {
                    self.kernel.run_until(t)?;
                }
                let (sig, _) = run.de_writes[bidx];
                self.kernel.poke(sig, v);
            }
            // Settle every instant strictly below the new frontier,
            // leaving instant `t_next` untouched for the next window.
            self.kernel.run_until(t_next - eps)?;
            self.stats.sync_wall += t1.elapsed();
            if self.tracer.is_enabled() {
                self.tracer.end(SpanKind::DeWindow, t_next.as_fs());
            }
            run.frontier = t_next;
        }

        // Park the kernel clock exactly at the horizon.
        self.kernel.run_until(until)?;
        Ok(())
    }

    /// Rewinds the whole simulation to `t = 0`: every cluster resets (see
    /// [`Cluster::reset`](ams_core::Cluster::reset)) and a fresh kernel
    /// replaces the old one. DE-side structure (signals, processes) must
    /// be rebuilt by the caller on the new kernel — for the common case
    /// of probe-only models nothing else is needed.
    ///
    /// # Errors
    ///
    /// Propagates worker failures.
    pub fn reset(&mut self) -> Result<(), CoreError> {
        if let Some(run) = &mut self.running {
            run.pool.reset()?;
            for b in &mut run.bound {
                b.next_activation = SimTime::ZERO;
            }
            run.frontier = SimTime::ZERO;
        }
        self.kernel = Kernel::new();
        self.kernel.set_tracing(self.tracing);
        let _ = self.tracer.take_events();
        self.stats = ExecStats {
            // Lint counts belong to elaboration, which survives a reset.
            lint_errors: self.stats.lint_errors,
            lint_warnings: self.stats.lint_warnings,
            ..ExecStats::default()
        };
        Ok(())
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// A snapshot of the aggregated execution statistics: window and
    /// barrier counts, per-cluster counters (with embedded-solver totals
    /// folded in), SPSC high-water marks and per-phase wall time.
    pub fn stats(&mut self) -> ExecStats {
        let mut stats = self.stats.clone();
        if let Some(run) = &mut self.running {
            stats.clusters = run
                .pool
                .collect_stats()
                .into_iter()
                .map(|(_, name, s)| (name, s))
                .collect();
        }
        stats.ring_high_water = self
            .monitors
            .iter()
            .map(|m| m.high_water())
            .max()
            .unwrap_or(0);
        stats
    }
}

impl std::fmt::Debug for ParallelSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSim")
            .field("workers", &self.workers)
            .field("staged", &self.staged.len())
            .field("elaborated", &self.running.is_some())
            .finish()
    }
}
