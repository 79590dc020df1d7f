//! The AMS simulator facade: DE kernel + TDF clusters under one roof.
//!
//! This is the paper's **synchronization layer** ("here comes the concept
//! of a dedicated manager, let us call it the synchronization layer, in
//! the SystemC-AMS framework", §3 O6). A cluster with converter bindings
//! is registered as a DE method process that re-arms itself every
//! cluster period; converter bindings move values across the boundary
//! with the static-dataflow semantics of the paper's phase 1:
//!
//! * **DE → TDF**: the kernel signal is sampled at cluster activation.
//! * **TDF → DE**: every sample is written to the kernel signal at its
//!   exact sample time by a dedicated writer process (delta-cycle
//!   semantics preserved).
//!
//! A cluster without converter bindings has nothing to synchronize, so
//! it never meets the kernel: [`AmsSimulator::run_until`] runs its
//! iterations directly, beside the kernel on up to
//! [`AmsSimulator::with_workers`] threads. Such clusters share nothing,
//! so every worker count gives the same bits, read between runs.
//!
//! Before the first activation every module's `initialize` has
//! established the paper's "consistent initial (quiescent) state".

use crate::cluster::{Cluster, ClusterStats, TdfAcResult, TdfGraph};
use crate::CoreError;
use ams_kernel::{Kernel, KernelError, SimTime};
use ams_lint::{LintPolicy, LintReport};
use std::cell::{RefCell, RefMut};
use std::rc::Rc;
use std::sync::Mutex;

/// Handle to a cluster registered with an [`AmsSimulator`].
///
/// A cluster without converter bindings runs beside the kernel, not in
/// step with it, and [`AmsSimulator::run_until`] holds it borrowed for
/// the whole run: read its handle between runs. Read from a kernel
/// process during a run, it panics.
#[derive(Clone)]
pub struct ClusterHandle {
    inner: Rc<RefCell<Cluster>>,
    error: Rc<RefCell<Option<CoreError>>>,
}

impl ClusterHandle {
    /// The cluster period.
    pub fn period(&self) -> SimTime {
        self.inner.borrow().period()
    }

    /// Completed iterations.
    pub fn iterations(&self) -> u64 {
        self.inner.borrow().iterations()
    }

    /// The cluster's execution counters; see [`Cluster::stats`].
    pub fn stats(&self) -> ClusterStats {
        self.inner.borrow().stats()
    }

    /// Runs a small-signal AC analysis over the cluster's module graph.
    ///
    /// # Errors
    ///
    /// See [`Cluster::ac_analysis`].
    pub fn ac_analysis(&self, freqs_hz: &[f64]) -> Result<TdfAcResult, CoreError> {
        self.inner.borrow_mut().ac_analysis(freqs_hz)
    }
}

impl std::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.borrow().fmt(f)
    }
}

/// A cluster without converter bindings, run by
/// [`AmsSimulator::run_until`] instead of the kernel.
struct FreeCluster {
    handle: ClusterHandle,
    /// Set by the first failure: the cluster stops for good, as a
    /// failed driver process does.
    stopped: bool,
}

impl FreeCluster {
    /// Stores a run's failure for [`AmsSimulator::run_until`] to report.
    fn record(&mut self, result: Result<(), CoreError>) {
        if let Err(e) = result {
            self.stopped = true;
            *self.handle.error.borrow_mut() = Some(e);
        }
    }
}

/// Runs every iteration of a free cluster that starts at or before
/// `until` (horizon-inclusive, like the kernel driver). Free clusters
/// start at `t = 0`, so those are the first `until / period + 1`.
fn run_free(cluster: &mut Cluster, until: SimTime) -> Result<(), CoreError> {
    let due = until / cluster.period() + 1;
    cluster.run_standalone(due.saturating_sub(cluster.iterations()))
}

/// The heterogeneous simulator: one DE kernel plus any number of TDF
/// clusters (each possibly embedding CT solvers) — the paper's O1
/// ("suitable for the description and the simulation of heterogeneous
/// systems") in one object.
///
/// # Example
///
/// ```
/// use ams_core::{AmsSimulator, TdfGraph, CoreError, TdfSetup, TdfIo, TdfModule};
/// use ams_kernel::SimTime;
///
/// struct Const { out: ams_core::TdfOut }
/// impl TdfModule for Const {
///     fn setup(&mut self, cfg: &mut TdfSetup) {
///         cfg.output(self.out);
///         cfg.set_timestep(SimTime::from_us(1));
///     }
///     fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
///         io.write1(self.out, 2.5);
///         Ok(())
///     }
/// }
///
/// # fn main() -> Result<(), CoreError> {
/// let mut sim = AmsSimulator::new();
/// let de_out = sim.kernel_mut().signal("tdf_out", 0.0f64);
/// let mut g = TdfGraph::new("demo");
/// let s = g.signal("c");
/// g.add_module("const", Const { out: s.writer() });
/// g.to_de("conv", s, de_out);
/// sim.add_cluster(g)?;
/// sim.run_until(SimTime::from_us(10))?;
/// assert_eq!(sim.kernel().peek(de_out), 2.5);
/// # Ok(())
/// # }
/// ```
pub struct AmsSimulator {
    kernel: Kernel,
    /// Every cluster, in registration order.
    clusters: Vec<ClusterHandle>,
    /// The clusters without converter bindings, in registration order.
    free: Vec<FreeCluster>,
    workers: usize,
    /// Set by the first run. The kernel initializes its processes once,
    /// so a cluster added later would never fire.
    started: bool,
    lint_policy: LintPolicy,
    lint_reports: Vec<LintReport>,
    tracing: bool,
}

impl Default for AmsSimulator {
    fn default() -> Self {
        AmsSimulator::new()
    }
}

impl AmsSimulator {
    /// Creates a simulator with an empty kernel at time zero that runs
    /// every cluster on the caller's thread.
    pub fn new() -> Self {
        AmsSimulator::with_workers(1)
    }

    /// Creates a simulator that runs the clusters without converter
    /// bindings on up to `workers` threads (clamped to at least 1): the
    /// caller's, which also runs the kernel, plus up to `workers − 1`
    /// scoped threads per [`run_until`](Self::run_until). Clusters with
    /// converter bindings always run on the kernel.
    ///
    /// Every worker count gives the same results bit for bit, read
    /// between `run_until` calls. A free cluster does not advance in
    /// step with the kernel, so a DE process that reads its
    /// [`TdfProbe`](crate::TdfProbe) during a run sees a snapshot that
    /// depends on the worker count and on thread timing.
    pub fn with_workers(workers: usize) -> Self {
        AmsSimulator {
            kernel: Kernel::new(),
            clusters: Vec::new(),
            free: Vec::new(),
            workers: workers.max(1),
            started: false,
            lint_policy: LintPolicy::default(),
            lint_reports: Vec::new(),
            tracing: false,
        }
    }

    /// Enables or disables span tracing across the kernel and every
    /// registered cluster (including their embedded solvers). Clusters
    /// added later inherit the setting. Disabled (the default) costs
    /// one branch per hook site.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        self.kernel.set_tracing(enabled);
        for c in &self.clusters {
            c.inner.borrow_mut().set_tracing(enabled);
        }
    }

    /// Drains all trace buffers into a [`ams_scope::ScopeTrace`]: the
    /// kernel's delta-cycle instants on track `(coordinator, kernel)`
    /// and each cluster (and traced solver inside it) on its own
    /// `(coordinator, source)` track, in registration order — so the
    /// export does not depend on the worker count.
    pub fn take_trace(&mut self) -> ams_scope::ScopeTrace {
        let mut trace = ams_scope::ScopeTrace::new();
        let kernel_events = self.kernel.take_trace_events();
        if !kernel_events.is_empty() {
            trace.add_track("coordinator", "kernel", kernel_events);
        }
        for c in &self.clusters {
            for (source, events) in c.inner.borrow_mut().take_traces() {
                trace.add_track("coordinator", source, events);
            }
        }
        trace
    }

    /// Replaces the static-analysis policy applied by
    /// [`AmsSimulator::add_cluster`]. The default denies error-severity
    /// diagnostics and warns the rest; use
    /// [`ams_lint::LintPolicy::allow_all`] to opt out entirely, or
    /// [`ams_lint::LintPolicy::set_code`] for per-code overrides.
    pub fn set_lint_policy(&mut self, policy: LintPolicy) {
        self.lint_policy = policy;
    }

    /// The active static-analysis policy.
    pub fn lint_policy(&self) -> &LintPolicy {
        &self.lint_policy
    }

    /// The lint reports collected so far, one per
    /// [`AmsSimulator::add_cluster`] call (including clean and
    /// warned-only reports).
    pub fn lint_reports(&self) -> &[LintReport] {
        &self.lint_reports
    }

    /// The DE kernel (for reading signals, statistics, time).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access for building the DE side (signals, processes,
    /// clocks).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Elaborates a TDF graph and registers it for execution: the cluster
    /// activates at `t = 0` and every period thereafter. A graph with
    /// converter bindings becomes a DE driver process; one without never
    /// meets the kernel (see [`AmsSimulator::with_workers`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] once [`AmsSimulator::run_until`]
    /// has run, [`CoreError::Lint`] when the pre-elaboration static
    /// analyses find a diagnostic the active [`LintPolicy`] denies
    /// (default: any error-severity finding), and otherwise propagates
    /// elaboration failures (scheduling, timestep, topology).
    pub fn add_cluster(&mut self, mut graph: TdfGraph) -> Result<ClusterHandle, CoreError> {
        let name = graph.name().to_string();
        if self.started {
            return Err(CoreError::invalid(format!(
                "cluster '{name}' added after the first run; add every cluster before running"
            )));
        }

        // Static analysis precedes elaboration so ill-posed graphs are
        // rejected with stable diagnostic codes instead of mid-build
        // errors.
        let report = graph.lint();
        let n_bindings = graph.de_binding_count();
        if !self.lint_policy.denied(&report).is_empty() {
            self.lint_reports.push(report.clone());
            return Err(CoreError::Lint(report));
        }
        for d in self.lint_policy.warned(&report) {
            eprintln!("lint [{}]: {d}", report.context);
        }

        let mut cluster = graph.elaborate()?;
        if self.tracing {
            cluster.set_tracing(true);
        }

        // Cross-MoC timing: converter ports vs. kernel clocks.
        let mut report = report;
        if n_bindings > 0 {
            let timing = ams_lint::lint_converter_timing(
                name.clone(),
                cluster.period(),
                n_bindings,
                self.kernel.clock_periods(),
            );
            for d in self.lint_policy.warned(&timing) {
                eprintln!("lint [{}]: {d}", timing.context);
            }
            if !self.lint_policy.denied(&timing).is_empty() {
                self.lint_reports.push(timing.clone());
                return Err(CoreError::Lint(timing));
            }
            report.merge(timing);
        }
        self.lint_reports.push(report);

        let handle = ClusterHandle {
            inner: Rc::new(RefCell::new(cluster)),
            error: Rc::new(RefCell::new(None)),
        };
        if n_bindings > 0 {
            self.add_driver(&name, &handle);
        } else {
            self.free.push(FreeCluster {
                handle: handle.clone(),
                stopped: false,
            });
        }
        self.clusters.push(handle.clone());
        Ok(handle)
    }

    /// Registers the driver process of a cluster with converter
    /// bindings, plus one writer process per TDF→DE binding.
    fn add_driver(&mut self, name: &str, handle: &ClusterHandle) {
        let (period, de_reads, de_writes) = {
            let cluster = handle.inner.borrow();
            (
                cluster.period(),
                cluster.de_reads.clone(),
                cluster.de_writes.clone(),
            )
        };

        // One writer process + wake event per TDF→DE binding.
        let mut write_events = Vec::new();
        for (widx, (de_sig, queue)) in de_writes.iter().enumerate() {
            let ev = self.kernel.event(format!("{name}.to_de{widx}.wake"));
            write_events.push(ev);
            let de_sig = *de_sig;
            let queue = queue.clone();
            let pid = self
                .kernel
                .add_process(format!("{name}.to_de{widx}"), move |ctx| {
                    let mut q = queue.lock().expect("sample queue poisoned");
                    let now = ctx.now();
                    while let Some(&(t, v)) = q.front() {
                        if t <= now {
                            ctx.write(de_sig, v);
                            q.pop_front();
                        } else {
                            ctx.next_trigger_in(t - now);
                            return;
                        }
                    }
                });
            self.kernel.make_sensitive(pid, ev);
            self.kernel.dont_initialize(pid);
        }

        // The cluster driver process.
        let inner = handle.inner.clone();
        let error = handle.error.clone();
        self.kernel
            .add_process(format!("{name}.driver"), move |ctx| {
                if error.borrow().is_some() {
                    return; // poisoned: stop re-arming
                }
                // Sample DE inputs at activation time.
                for (sig, cell) in &de_reads {
                    cell.set(ctx.read(*sig));
                }
                let start = ctx.now();
                let result = inner.borrow_mut().run_iteration(start);
                match result {
                    Ok(()) => {
                        // Wake the writer processes (next delta, same time).
                        for &ev in &write_events {
                            ctx.notify(ev);
                        }
                        ctx.next_trigger_in(period);
                    }
                    Err(e) => {
                        *error.borrow_mut() = Some(e);
                    }
                }
            });
    }

    /// Runs the co-simulation until `until`: the kernel with its driven
    /// clusters, and every iteration of each cluster without converter
    /// bindings that starts at or before `until`, beside the kernel (see
    /// [`AmsSimulator::with_workers`]). Those clusters share nothing
    /// with the kernel, so they run to `until` even when the kernel
    /// fails earlier, at every worker count.
    ///
    /// A failing cluster stops for good; its error is kept until a
    /// `run_until` reports it.
    ///
    /// # Errors
    ///
    /// A kernel error first, then the failures of the clusters in
    /// registration order, one per call.
    pub fn run_until(&mut self, until: SimTime) -> Result<(), CoreError> {
        self.started = true;
        self.run_beside_kernel(until)?;
        for c in &self.clusters {
            if let Some(e) = c.error.borrow_mut().take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Runs the kernel on the caller's thread while up to `workers − 1`
    /// scoped threads take free clusters from a shared queue; the caller
    /// drains the queue too once the kernel is done (at one worker, every
    /// free cluster in registration order). The clusters share nothing,
    /// so any assignment gives the same bits.
    fn run_beside_kernel(&mut self, until: SimTime) -> Result<(), KernelError> {
        let mut clusters: Vec<(usize, RefMut<'_, Cluster>)> = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.stopped)
            .map(|(i, f)| (i, f.handle.inner.borrow_mut()))
            .collect();
        if clusters.is_empty() {
            return self.kernel.run_until(until);
        }
        let threads = (self.workers - 1).min(clusters.len());
        let jobs: Vec<(usize, &mut Cluster)> =
            clusters.iter_mut().map(|(i, c)| (*i, &mut **c)).collect();
        let queue = Mutex::new(jobs.into_iter());
        let kernel = &mut self.kernel;
        let (kernel_result, results) = std::thread::scope(|scope| {
            let drain = || {
                let mut done = Vec::new();
                loop {
                    let job = queue.lock().expect("cluster queue poisoned").next();
                    let Some((i, cluster)) = job else {
                        return done;
                    };
                    done.push((i, run_free(cluster, until)));
                }
            };
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(drain)).collect();
            let kernel_result = kernel.run_until(until);
            let mut results = drain();
            for h in handles {
                results.extend(
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            (kernel_result, results)
        });
        drop(clusters);
        for (i, result) in results {
            self.free[i].record(result);
        }
        kernel_result
    }

    /// Runs for a duration from the current time.
    ///
    /// # Errors
    ///
    /// See [`AmsSimulator::run_until`].
    pub fn run_for(&mut self, duration: SimTime) -> Result<(), CoreError> {
        let until = self.kernel.now().saturating_add(duration);
        self.run_until(until)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }
}

impl std::fmt::Debug for AmsSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmsSimulator")
            .field("kernel", &self.kernel)
            .field("clusters", &self.clusters.len())
            .field("workers", &self.workers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{TdfIo, TdfModule, TdfSetup};
    use crate::port::TdfOut;
    use std::cell::RefCell as StdRefCell;
    use std::rc::Rc as StdRc;

    struct Ramp {
        out: TdfOut,
        ts: SimTime,
        v: f64,
    }
    impl TdfModule for Ramp {
        fn setup(&mut self, cfg: &mut TdfSetup) {
            cfg.output(self.out);
            cfg.set_timestep(self.ts);
        }
        fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
            io.write1(self.out, self.v);
            self.v += 1.0;
            Ok(())
        }
    }

    struct DeGain {
        inp: crate::port::TdfIn,
        out: TdfOut,
        k: f64,
    }
    impl TdfModule for DeGain {
        fn setup(&mut self, cfg: &mut TdfSetup) {
            cfg.input(self.inp);
            cfg.output(self.out);
        }
        fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
            let v = io.read1(self.inp);
            io.write1(self.out, self.k * v);
            Ok(())
        }
    }

    #[test]
    fn tdf_to_de_writes_each_sample_at_its_time() {
        let mut sim = AmsSimulator::new();
        let de_out = sim.kernel_mut().signal("out", -1.0f64);
        let log = StdRc::new(StdRefCell::new(Vec::new()));
        let l2 = log.clone();
        sim.kernel_mut().observe(de_out, move |t, v| {
            l2.borrow_mut().push((t, *v));
        });

        let mut g = TdfGraph::new("ramp");
        let s = g.signal("r");
        g.add_module(
            "ramp",
            Ramp {
                out: s.writer(),
                ts: SimTime::from_us(5),
                v: 0.0,
            },
        );
        g.to_de("conv", s, de_out);
        sim.add_cluster(g).unwrap();
        sim.run_until(SimTime::from_us(16)).unwrap();
        assert_eq!(
            *log.borrow(),
            vec![
                (SimTime::ZERO, 0.0),
                (SimTime::from_us(5), 1.0),
                (SimTime::from_us(10), 2.0),
                (SimTime::from_us(15), 3.0),
            ]
        );
    }

    #[test]
    fn de_to_tdf_samples_at_activation() {
        let mut sim = AmsSimulator::new();
        let ctrl = sim.kernel_mut().signal("ctrl", 10.0f64);
        // DE process bumps the control value at 7 µs.
        let c2 = ctrl;
        sim.kernel_mut().add_process("bump", move |ctx| {
            if ctx.now().is_zero() {
                ctx.next_trigger_in(SimTime::from_us(7));
            } else {
                ctx.write(c2, 20.0);
            }
        });

        let mut g = TdfGraph::new("sampler");
        let s_in = g.from_de("ctrl_in", ctrl);
        let s_out = g.signal("scaled");
        let probe = g.probe(s_out);
        g.add_module(
            "gain",
            DeGain {
                inp: s_in.reader(),
                out: s_out.writer(),
                k: 0.5,
            },
        );
        // A timestep must come from somewhere: declare on a dummy source?
        // The gain chain has none — declare via a module with timestep.
        struct Pace;
        impl TdfModule for Pace {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.set_timestep(SimTime::from_us(5));
            }
            fn processing(&mut self, _io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                Ok(())
            }
        }
        g.add_module("pace", Pace);
        sim.add_cluster(g).unwrap();
        sim.run_until(SimTime::from_us(21)).unwrap();
        // Activations at 0, 5, 10, 15, 20 µs; the 7 µs bump is visible
        // from the 10 µs activation on.
        assert_eq!(probe.values(), vec![5.0, 5.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn tracing_collects_kernel_and_cluster_tracks() {
        let mut sim = AmsSimulator::new();
        let de_out = sim.kernel_mut().signal("out", 0.0f64);
        let mut g = TdfGraph::new("ramp");
        let s = g.signal("r");
        g.add_module(
            "ramp",
            Ramp {
                out: s.writer(),
                ts: SimTime::from_us(5),
                v: 0.0,
            },
        );
        g.to_de("conv", s, de_out);
        sim.set_tracing(true);
        sim.add_cluster(g).unwrap(); // added after enabling: inherits
        sim.run_until(SimTime::from_us(20)).unwrap();
        let trace = sim.take_trace();
        let names: Vec<&str> = trace.tracks.iter().map(|t| t.thread.as_str()).collect();
        assert!(names.contains(&"kernel"), "tracks: {names:?}");
        assert!(names.contains(&"ramp"), "tracks: {names:?}");
        let cluster_track = trace.tracks.iter().find(|t| t.thread == "ramp").unwrap();
        // 5 iterations (t = 0, 5, 10, 15, 20 µs), each a begin/end pair.
        assert_eq!(cluster_track.events.len(), 10);
        assert!(cluster_track
            .events
            .iter()
            .all(|e| e.kind == ams_scope::SpanKind::ClusterIteration));
        assert!(trace.tracks.iter().all(|t| t.process == "coordinator"));
        // Drained: a second take is empty.
        assert!(sim.take_trace().is_empty());
    }

    #[test]
    fn cluster_failure_surfaces_as_error() {
        struct Failing {
            out: TdfOut,
        }
        impl TdfModule for Failing {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.output(self.out);
                cfg.set_timestep(SimTime::from_us(1));
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                if io.time() > 2e-6 {
                    return Err(CoreError::solver("failing", "synthetic divergence"));
                }
                io.write1(self.out, 0.0);
                Ok(())
            }
        }
        let mut sim = AmsSimulator::new();
        let mut g = TdfGraph::new("failer");
        let s = g.signal("x");
        g.add_module("f", Failing { out: s.writer() });
        sim.add_cluster(g).unwrap();
        let err = sim.run_until(SimTime::from_us(10)).unwrap_err();
        assert!(matches!(err, CoreError::Solver { .. }), "{err}");
        // Subsequent runs are clean (error consumed, cluster stopped).
        sim.run_until(SimTime::from_us(20)).unwrap();
    }

    #[test]
    fn two_clusters_with_different_periods_coexist() {
        let mut sim = AmsSimulator::new();
        let out_a = sim.kernel_mut().signal("a", 0.0f64);
        let out_b = sim.kernel_mut().signal("b", 0.0f64);

        let mut ga = TdfGraph::new("fast");
        let sa = ga.signal("x");
        ga.add_module(
            "ramp",
            Ramp {
                out: sa.writer(),
                ts: SimTime::from_us(1),
                v: 1.0,
            },
        );
        ga.to_de("conv", sa, out_a);
        let ha = sim.add_cluster(ga).unwrap();

        let mut gb = TdfGraph::new("slow");
        let sb = gb.signal("x");
        gb.add_module(
            "ramp",
            Ramp {
                out: sb.writer(),
                ts: SimTime::from_us(7),
                v: 1.0,
            },
        );
        gb.to_de("conv", sb, out_b);
        let hb = sim.add_cluster(gb).unwrap();

        sim.run_until(SimTime::from_us(21)).unwrap();
        assert_eq!(ha.iterations(), 22); // t = 0..21 µs inclusive
        assert_eq!(hb.iterations(), 4); // t = 0, 7, 14, 21 µs
        assert_eq!(sim.kernel().peek(out_a), 22.0);
        assert_eq!(sim.kernel().peek(out_b), 4.0);
    }

    #[test]
    fn de_feedback_loop_through_clusters() {
        // TDF writes to DE; a DE process doubles it; TDF reads it back
        // next activation.
        let mut sim = AmsSimulator::new();
        let tdf_out = sim.kernel_mut().signal("tdf_out", 0.0f64);
        let de_out = sim.kernel_mut().signal("de_out", 0.0f64);
        let (s_in, s_out) = (tdf_out, de_out);
        let pid = sim.kernel_mut().add_process("doubler", move |ctx| {
            let v = ctx.read(s_in);
            ctx.write(s_out, 2.0 * v);
        });
        let ev = sim.kernel().signal_event(tdf_out);
        sim.kernel_mut().make_sensitive(pid, ev);

        struct AddOne {
            inp: crate::port::TdfIn,
            out: TdfOut,
        }
        impl TdfModule for AddOne {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.input(self.inp);
                cfg.output(self.out);
                cfg.set_timestep(SimTime::from_us(1));
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                let v = io.read1(self.inp);
                io.write1(self.out, v + 1.0);
                Ok(())
            }
        }
        let mut g = TdfGraph::new("loop");
        let s_feedback = g.from_de("fb", de_out);
        let s_next = g.signal("next");
        g.add_module(
            "addone",
            AddOne {
                inp: s_feedback.reader(),
                out: s_next.writer(),
            },
        );
        g.to_de("conv", s_next, tdf_out);
        sim.add_cluster(g).unwrap();

        // Iteration k: tdf_out = 2·tdf_out_prev + 1 → 1, 3, 7, 15, …
        sim.run_until(SimTime::from_us(3)).unwrap();
        assert_eq!(sim.kernel().peek(tdf_out), 15.0);
    }

    #[test]
    fn add_cluster_after_run_is_rejected() {
        fn ramp(
            name: &str,
            de_out: Option<ams_kernel::Signal<f64>>,
        ) -> (TdfGraph, crate::TdfProbe) {
            let mut g = TdfGraph::new(name);
            let s = g.signal("r");
            let probe = g.probe(s);
            g.add_module(
                "ramp",
                Ramp {
                    out: s.writer(),
                    ts: SimTime::from_us(1),
                    v: 0.0,
                },
            );
            if let Some(de) = de_out {
                g.to_de("conv", s, de);
            }
            (g, probe)
        }
        let mut sim = AmsSimulator::new();
        let out = sim.kernel_mut().signal("out", 0.0f64);
        let late_out = sim.kernel_mut().signal("late_out", 0.0f64);
        let (g, early) = ramp("early", Some(out));
        sim.add_cluster(g).unwrap();
        sim.run_until(SimTime::from_us(10)).unwrap();
        assert_eq!(early.len(), 11);
        // Bound or free, a late cluster would never start at t = 0.
        for de in [Some(late_out), None] {
            let (g, late) = ramp("late", de);
            let err = sim.add_cluster(g).unwrap_err();
            assert!(matches!(err, CoreError::Invalid { .. }), "{err}");
            assert!(late.is_empty());
        }
        sim.run_until(SimTime::from_us(20)).unwrap();
        assert_eq!(early.len(), 21);
    }
}
