//! TDF cluster construction, elaboration and execution.
//!
//! A [`TdfGraph`] is the user-facing builder; [`TdfGraph::elaborate`]
//! performs the analysis the paper prescribes for the SDF↔CT coupling —
//! balance-equation scheduling (via `ams-sdf`), timestep propagation and
//! consistency checking — and compiles the schedule into a [`Cluster`], a
//! self-contained executable that runs one schedule iteration per cluster
//! period: a firing plan of back-to-back runs over fixed sample rings.
//! The synchronization layer in [`crate::sim`] drives clusters from the
//! DE kernel; [`Cluster::ac_analysis`] derives the small-signal
//! frequency-domain model from the very same module graph.

use crate::module::{AcIo, PortRt, SignalBuf, TdfInit, TdfIo, TdfModule, TdfSetup};
use crate::port::{TdfIn, TdfSignal};
use crate::shared::{sample_queue, SampleQueue, SharedSample};
use crate::CoreError;
use ams_kernel::{Signal, SimTime};
use ams_math::{Complex64, DMat, DVec, Lu};
use ams_monitor::MonitorBank;
use ams_scope::{SpanKind, TraceEvent, Tracer};
use ams_sdf::{schedule as sdf_schedule, SdfGraph};
use std::sync::{Arc, Mutex};

/// Identifier of a module within one graph/cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleId(pub(crate) usize);

/// A recorded waveform handle: clones share the same storage, so the
/// probe stays readable after the graph is consumed by elaboration.
///
/// A cluster without converter bindings fills its probes beside the
/// kernel during [`AmsSimulator::run_until`](crate::AmsSimulator::run_until),
/// not in step with it. Read such a probe between runs: a read from a
/// DE process during a run sees a snapshot that depends on the worker
/// count and on thread timing.
#[derive(Debug, Clone, Default)]
pub struct TdfProbe {
    data: Arc<Mutex<Vec<(f64, f64)>>>,
}

impl TdfProbe {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(f64, f64)>> {
        self.data.lock().expect("probe storage poisoned")
    }

    /// All recorded `(time_seconds, value)` samples so far.
    pub fn samples(&self) -> Vec<(f64, f64)> {
        self.lock().clone()
    }

    /// Just the sample values.
    pub fn values(&self) -> Vec<f64> {
        self.lock().iter().map(|&(_, v)| v).collect()
    }

    /// Just the sample times, in seconds.
    pub fn times(&self) -> Vec<f64> {
        self.lock().iter().map(|&(t, _)| t).collect()
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Returns `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

/// DE→TDF converter: writes the latched kernel value once per firing.
struct DeReadModule {
    out: crate::port::TdfOut,
    cell: SharedSample,
}

impl TdfModule for DeReadModule {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.output(self.out);
    }
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        io.write1(self.out, self.cell.get());
        Ok(())
    }
}

/// TDF→DE converter: queues each sample with its exact time for the
/// kernel-side writer process.
struct DeWriteModule {
    inp: TdfIn,
    queue: SampleQueue,
}

impl TdfModule for DeWriteModule {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.input(self.inp);
    }
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let v = io.read1(self.inp);
        self.queue
            .lock()
            .expect("sample queue poisoned")
            .push_back((io.time_exact(), v));
        Ok(())
    }
}

/// A DE→TDF converter binding: the kernel signal and the shared cell its
/// value is sampled into at each cluster activation.
type DeReadBinding = (Signal<f64>, SharedSample);
/// A TDF→DE converter binding: the kernel signal and the timestamped
/// sample queue feeding it.
type DeWriteBinding = (Signal<f64>, SampleQueue);

/// A timed-dataflow graph under construction.
///
/// # Example
///
/// ```
/// use ams_core::{TdfGraph, TdfModule, TdfSetup, TdfIo, CoreError};
/// use ams_kernel::SimTime;
///
/// struct One { out: ams_core::TdfOut }
/// impl TdfModule for One {
///     fn setup(&mut self, cfg: &mut TdfSetup) {
///         cfg.output(self.out);
///         cfg.set_timestep(SimTime::from_us(1));
///     }
///     fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
///         io.write1(self.out, 1.0);
///         Ok(())
///     }
/// }
///
/// # fn main() -> Result<(), CoreError> {
/// let mut g = TdfGraph::new("demo");
/// let s = g.signal("ones");
/// let probe = g.probe(s);
/// g.add_module("one", One { out: s.writer() });
/// let mut cluster = g.elaborate()?;
/// cluster.run_iteration(SimTime::ZERO)?;
/// assert_eq!(probe.values(), vec![1.0]);
/// # Ok(())
/// # }
/// ```
pub struct TdfGraph {
    name: String,
    signal_names: Vec<String>,
    modules: Vec<(String, Box<dyn TdfModule>)>,
    de_reads: Vec<DeReadBinding>,
    de_writes: Vec<DeWriteBinding>,
    probes: Vec<(TdfSignal, TdfProbe)>,
}

impl TdfGraph {
    /// Creates an empty graph with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        TdfGraph {
            name: name.into(),
            signal_names: Vec::new(),
            modules: Vec::new(),
            de_reads: Vec::new(),
            de_writes: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a named TDF signal.
    pub fn signal(&mut self, name: impl Into<String>) -> TdfSignal {
        let id = TdfSignal(self.signal_names.len());
        self.signal_names.push(name.into());
        id
    }

    /// Adds a module to the graph.
    pub fn add_module(
        &mut self,
        name: impl Into<String>,
        module: impl TdfModule + 'static,
    ) -> ModuleId {
        let id = ModuleId(self.modules.len());
        self.modules.push((name.into(), Box::new(module)));
        id
    }

    /// Adds a DE→TDF converter: the returned signal carries the value of
    /// the kernel signal, sampled at each cluster activation (the
    /// standard TDF converter-port semantics).
    pub fn from_de(&mut self, name: impl Into<String>, de: Signal<f64>) -> TdfSignal {
        let name = name.into();
        let cell = SharedSample::new(0.0);
        self.de_reads.push((de, cell.clone()));
        let sig = self.signal(format!("{name}.tdf"));
        self.add_module(
            name,
            DeReadModule {
                out: sig.writer(),
                cell,
            },
        );
        sig
    }

    /// Adds a TDF→DE converter: each sample of `input` is written to the
    /// kernel signal at its exact sample time.
    pub fn to_de(&mut self, name: impl Into<String>, input: TdfSignal, de: Signal<f64>) {
        let queue = sample_queue();
        self.de_writes.push((de, queue.clone()));
        self.add_module(
            name,
            DeWriteModule {
                inp: input.reader(),
                queue,
            },
        );
    }

    /// Registers a probe recording every sample of `signal`.
    pub fn probe(&mut self, signal: TdfSignal) -> TdfProbe {
        let probe = TdfProbe::default();
        self.probes.push((signal, probe.clone()));
        probe
    }

    /// Number of DE converter bindings (reads plus writes) declared so
    /// far — the cross-MoC surface the converter-timing lint checks.
    pub fn de_binding_count(&self) -> usize {
        self.de_reads.len() + self.de_writes.len()
    }

    /// Runs the pre-elaboration static analyses over this graph and
    /// returns the diagnostics — rate consistency, delay-free cycles,
    /// writer uniqueness, dangling signals, timestep coherence (see the
    /// `ams-lint` code registry). The graph is not consumed; `setup` is
    /// invoked on each module to collect port declarations, exactly as
    /// [`TdfGraph::elaborate`] will do again later (`setup` is required
    /// to be a pure declaration pass).
    ///
    /// [`crate::AmsSimulator::add_cluster`] calls this automatically
    /// under its [`ams_lint::LintPolicy`]; calling it directly is useful
    /// for `--lint-only` tooling.
    pub fn lint(&mut self) -> ams_lint::LintReport {
        ams_lint::lint_tdf(&self.lint_model())
    }

    /// Builds the neutral IR the static analyses run on.
    pub(crate) fn lint_model(&mut self) -> ams_lint::TdfModel {
        let mut m = ams_lint::TdfModel::new(self.name.clone());
        let sigs: Vec<usize> = self
            .signal_names
            .iter()
            .map(|name| m.add_signal(name.clone()))
            .collect();
        for (midx, (name, module)) in self.modules.iter_mut().enumerate() {
            let mid = m.add_module(name.clone());
            debug_assert_eq!(mid, midx);
            let mut cfg = TdfSetup::default();
            module.setup(&mut cfg);
            for inp in &cfg.inputs {
                m.read(mid, sigs[inp.signal.0], inp.rate, inp.delay);
            }
            for out in &cfg.outputs {
                m.write(mid, sigs[out.signal.0], out.rate);
            }
            if let Some(ts) = cfg.timestep {
                m.set_timestep_fs(mid, ts.as_fs());
            }
        }
        for &(sig, _) in &self.probes {
            m.mark_probed(sigs[sig.0]);
        }
        m
    }

    /// Elaborates the graph: runs `setup`, checks writer uniqueness,
    /// solves the balance equations, builds the static schedule,
    /// propagates timesteps, runs `initialize`, and compiles the
    /// schedule into the cluster's firing plan and signal rings.
    ///
    /// The plan groups the schedule's consecutive firings of one module
    /// into a run, so a run fires its module back to back. Each signal
    /// gets a ring of its writer's samples per iteration plus its
    /// deepest reader delay, rounded up to a power of two: enough for
    /// every read within an iteration and for the probe and monitor
    /// flush after it, so nothing is trimmed or grown while running.
    ///
    /// # Errors
    ///
    /// * [`CoreError::MultipleWriters`] / [`CoreError::NoWriter`] on
    ///   malformed connectivity.
    /// * [`CoreError::Invalid`] when a module declares the same input
    ///   twice.
    /// * [`CoreError::Sdf`] for inconsistent rates or deadlock.
    /// * [`CoreError::NoTimestep`] / [`CoreError::InconsistentTimestep`] /
    ///   [`CoreError::InexactTimestep`] for timestep problems.
    /// * [`CoreError::Invalid`] when a signal's ring cannot be allocated
    ///   (an absurd rate or delay).
    pub fn elaborate(mut self) -> Result<Cluster, CoreError> {
        let n_sigs = self.signal_names.len();
        let n_mods = self.modules.len();

        // Phase 1: collect declarations.
        let mut setups = Vec::with_capacity(n_mods);
        for (_, module) in &mut self.modules {
            let mut cfg = TdfSetup::default();
            module.setup(&mut cfg);
            setups.push(cfg);
        }

        // Writer map.
        let mut writer: Vec<Option<(usize, u64)>> = vec![None; n_sigs];
        for (midx, cfg) in setups.iter().enumerate() {
            for out in &cfg.outputs {
                if writer[out.signal.0].is_some() {
                    return Err(CoreError::MultipleWriters {
                        signal: self.signal_names[out.signal.0].clone(),
                    });
                }
                writer[out.signal.0] = Some((midx, out.rate));
            }
        }
        // Reader validation: one port entry per signal.
        for (midx, cfg) in setups.iter().enumerate() {
            for (i, inp) in cfg.inputs.iter().enumerate() {
                if writer[inp.signal.0].is_none() {
                    return Err(CoreError::NoWriter {
                        signal: self.signal_names[inp.signal.0].clone(),
                    });
                }
                if cfg.inputs[..i].iter().any(|d| d.signal == inp.signal) {
                    return Err(CoreError::invalid(format!(
                        "module '{}' declared input '{}' twice",
                        self.modules[midx].0, self.signal_names[inp.signal.0]
                    )));
                }
            }
        }
        for &(sig, _) in &self.probes {
            if writer[sig.0].is_none() {
                return Err(CoreError::NoWriter {
                    signal: self.signal_names[sig.0].clone(),
                });
            }
        }

        // Phase 2: dataflow analysis.
        let mut sdf = SdfGraph::new();
        let actors: Vec<_> = self
            .modules
            .iter()
            .map(|(name, _)| sdf.add_actor(name.clone()))
            .collect();
        for (midx, cfg) in setups.iter().enumerate() {
            for inp in &cfg.inputs {
                let (w_idx, w_rate) = writer[inp.signal.0].expect("validated above");
                sdf.connect(actors[w_idx], w_rate, actors[midx], inp.rate, inp.delay)?;
            }
        }
        let sched = sdf_schedule(&sdf)?;
        let q = sched.repetition_vector().to_vec();

        // Phase 3: timestep propagation.
        let mut period: Option<(SimTime, usize)> = None;
        for (midx, cfg) in setups.iter().enumerate() {
            if let Some(ts) = cfg.timestep {
                if ts.is_zero() {
                    return Err(CoreError::invalid(format!(
                        "module '{}' declared a zero timestep",
                        self.modules[midx].0
                    )));
                }
                let implied = ts * q[midx];
                match period {
                    None => period = Some((implied, midx)),
                    Some((t, _)) if t == implied => {}
                    Some((t, _)) => {
                        return Err(CoreError::InconsistentTimestep {
                            module: self.modules[midx].0.clone(),
                            implied_period: implied,
                            established_period: t,
                        })
                    }
                }
            }
        }
        let (period, _) = period.ok_or(CoreError::NoTimestep)?;
        let mut timesteps = Vec::with_capacity(n_mods);
        for (midx, &reps) in q.iter().enumerate() {
            if period.as_fs() % reps != 0 {
                return Err(CoreError::InexactTimestep {
                    module: self.modules[midx].0.clone(),
                    period,
                    repetitions: reps,
                });
            }
            timesteps.push(period / reps);
        }

        // Per signal: the sample period (seconds) for probe timestamps,
        // and the writer's samples per iteration.
        let mut sig_period_secs = vec![0.0f64; n_sigs];
        let mut ring_len = vec![0u64; n_sigs];
        for (s, w) in writer.iter().enumerate() {
            if let Some((w_idx, w_rate)) = w {
                sig_period_secs[s] = timesteps[*w_idx].to_seconds() / *w_rate as f64;
                ring_len[s] = q[*w_idx].saturating_mul(*w_rate);
            }
        }

        // Phase 4: the signal rings: the writer's samples per iteration
        // plus the deepest reader delay.
        let mut deepest = vec![0u64; n_sigs];
        for inp in setups.iter().flat_map(|cfg| &cfg.inputs) {
            deepest[inp.signal.0] = deepest[inp.signal.0].max(inp.delay);
        }
        let bufs = ring_len
            .iter()
            .zip(&deepest)
            .zip(&self.signal_names)
            .map(|((&len, &delay), name)| {
                SignalBuf::with_capacity(len.saturating_add(delay)).ok_or_else(|| {
                    CoreError::invalid(format!(
                        "signal '{name}' needs a ring of {len} samples per iteration plus a delay of {delay}, more than can be allocated"
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Phase 5: initialization, which writes delay-slot values into
        // each module's input-port table.
        let mut modules_rt = Vec::with_capacity(n_mods);
        for ((name, mut module), (cfg, timestep)) in
            self.modules.into_iter().zip(setups.iter().zip(timesteps))
        {
            let mut in_ports: Vec<PortRt> = cfg.inputs.iter().map(PortRt::new).collect();
            module.initialize(&mut TdfInit {
                module_timestep: timestep,
                inputs: &mut in_ports,
                module_name: &name,
            })?;
            let out_ports = cfg.outputs.iter().map(PortRt::new).collect();
            modules_rt.push(ModuleRt {
                name,
                module,
                timestep,
                timestep_secs: timestep.to_seconds(),
                in_ports,
                out_ports,
            });
        }

        // Phase 6: the firing plan, one run per stretch of consecutive
        // firings of one module in the schedule.
        let mut plan: Vec<Run> = Vec::new();
        let mut fired = vec![0u64; n_mods];
        for actor in sched.firings() {
            let module = actor.index();
            match plan.last_mut() {
                Some(run) if run.module == module => run.count += 1,
                _ => plan.push(Run {
                    module,
                    count: 1,
                    first: fired[module],
                }),
            }
            fired[module] += 1;
        }
        Ok(Cluster {
            name: self.name,
            signal_names: self.signal_names,
            period,
            modules: modules_rt,
            plan,
            bufs,
            iteration: 0,
            sig_period_secs,
            stats: ClusterStats::default(),
            tracer: Tracer::off(),
            probes: self
                .probes
                .into_iter()
                .map(|(sig, probe)| ProbeRt {
                    signal: sig,
                    probe,
                    next_idx: 0,
                })
                .collect(),
            de_reads: self.de_reads,
            de_writes: self.de_writes,
            monitors: None,
        })
    }
}

impl std::fmt::Debug for TdfGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TdfGraph")
            .field("name", &self.name)
            .field("signals", &self.signal_names.len())
            .field("modules", &self.modules.len())
            .finish()
    }
}

struct ModuleRt {
    name: String,
    module: Box<dyn TdfModule>,
    timestep: SimTime,
    timestep_secs: f64,
    /// Port tables in declaration order, one entry per signal.
    in_ports: Vec<PortRt>,
    out_ports: Vec<PortRt>,
}

/// One entry of a cluster's firing plan: `count` back-to-back firings
/// of one module, the first of them its `first`-th firing (from 0) in
/// the iteration.
#[derive(Debug, Clone, Copy)]
struct Run {
    module: usize,
    count: u64,
    first: u64,
}

impl ModuleRt {
    /// Fires the module `run.count` times back to back over `bufs`,
    /// borrowing it in place, then advances its port counters once.
    /// Returns the firings made (a failing one included) and the first
    /// failure, with module context.
    fn fire_run(
        &mut self,
        run: Run,
        start: SimTime,
        bufs: &mut [SignalBuf],
    ) -> (u64, Result<(), CoreError>) {
        let mut io = TdfIo {
            module_name: &self.name,
            run_start: start + self.timestep * run.first,
            firing: 0,
            timestep: self.timestep_secs,
            timestep_exact: self.timestep,
            in_ports: &self.in_ports,
            out_ports: &self.out_ports,
            bufs,
        };
        let mut fired = run.count;
        let mut result = Ok(());
        for firing in 0..run.count {
            io.firing = firing;
            if let Err(e) = self.module.processing(&mut io) {
                fired = firing + 1;
                result = Err(match e {
                    CoreError::Solver { .. } => e,
                    other => CoreError::solver(&self.name, other),
                });
                break;
            }
        }
        for port in self.in_ports.iter_mut().chain(&mut self.out_ports) {
            port.counter += (fired * port.rate) as i64;
        }
        (fired, result)
    }
}

struct ProbeRt {
    signal: TdfSignal,
    probe: TdfProbe,
    next_idx: i64,
}

/// Execution counters of one cluster, surfaced to the instrumentation
/// layer in `ams-exec` (and to anyone else who asks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Completed schedule iterations.
    pub iterations: u64,
    /// Module firings across all iterations (converter modules included).
    pub firings: u64,
    /// Samples delivered to probes.
    pub probe_samples: u64,
    /// Newton iterations across all embedded numeric solvers.
    pub newton_iterations: u64,
    /// Matrix factorizations across all embedded numeric solvers.
    pub factorizations: u64,
    /// Linear-solver counters across all embedded numeric solvers
    /// (sparse symbolic/numeric split, pattern sizes, reused
    /// factorizations).
    pub solve: ams_math::SolveStats,
}

impl ClusterStats {
    /// Folds another counter set into this one (counts add; the gauges
    /// inside [`SolveStats`](ams_math::SolveStats) take the maximum).
    pub fn merge(&mut self, other: &ClusterStats) {
        self.iterations += other.iterations;
        self.firings += other.firings;
        self.probe_samples += other.probe_samples;
        self.newton_iterations += other.newton_iterations;
        self.factorizations += other.factorizations;
        self.solve.merge(&other.solve);
    }
}

/// An elaborated, executable TDF cluster.
pub struct Cluster {
    name: String,
    signal_names: Vec<String>,
    period: SimTime,
    modules: Vec<ModuleRt>,
    /// The schedule compiled into runs of back-to-back firings.
    plan: Vec<Run>,
    /// One ring per signal, sized at elaboration.
    bufs: Vec<SignalBuf>,
    iteration: u64,
    sig_period_secs: Vec<f64>,
    probes: Vec<ProbeRt>,
    stats: ClusterStats,
    tracer: Tracer,
    pub(crate) de_reads: Vec<DeReadBinding>,
    pub(crate) de_writes: Vec<DeWriteBinding>,
    /// Attached streaming assertion monitors (`None` = one branch per
    /// iteration, the same disabled-cost discipline as `tracer`).
    monitors: Option<ClusterMonitors>,
}

/// A monitor bank bound to this cluster's signal rings. Each channel
/// walks its signal's ring with a cursor, exactly like a probe — but
/// folds samples into the automata instead of storing them.
struct ClusterMonitors {
    bank: MonitorBank,
    /// The bank as attached, for [`Cluster::reset`].
    pristine: MonitorBank,
    /// Per channel: `(signal index, next stream index to feed)`.
    taps: Vec<(usize, i64)>,
}

impl Cluster {
    /// The cluster period: the wall of simulated time covered by one
    /// schedule iteration.
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// The cluster's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Completed iterations.
    pub fn iterations(&self) -> u64 {
        self.iteration
    }

    /// Looks a TDF signal up by name. `None` when no signal carries
    /// that name; first match wins on duplicates.
    pub fn find_signal(&self, name: &str) -> Option<TdfSignal> {
        self.signal_names
            .iter()
            .position(|n| n == name)
            .map(TdfSignal)
    }

    /// Attaches a compiled monitor bank: channel `ch` of the bank
    /// streams signal `signals[ch]` (pair them with
    /// [`MonitorBank::channels`], resolved via
    /// [`Cluster::find_signal`]). Samples are fed once per completed
    /// iteration, in stream order and from the next sample each signal
    /// produces, with the same timestamps probes record; nothing is
    /// buffered. Replaces any bank attached earlier.
    ///
    /// # Panics
    ///
    /// Panics when `signals` does not pair 1:1 with the bank's channels
    /// or names a signal outside the cluster.
    pub fn attach_monitors(&mut self, bank: MonitorBank, signals: &[TdfSignal]) {
        assert_eq!(
            bank.channels().len(),
            signals.len(),
            "one signal per monitor channel"
        );
        let taps = signals
            .iter()
            .map(|s| {
                assert!(s.0 < self.bufs.len(), "signal out of range");
                (s.0, self.bufs[s.0].end())
            })
            .collect();
        self.monitors = Some(ClusterMonitors {
            pristine: bank.clone(),
            bank,
            taps,
        });
    }

    /// The attached monitor bank, when present.
    pub fn monitor_bank(&self) -> Option<&MonitorBank> {
        self.monitors.as_ref().map(|m| &m.bank)
    }

    /// Detaches and returns the monitor bank (with all accumulated
    /// automaton state), when present.
    pub fn take_monitors(&mut self) -> Option<MonitorBank> {
        self.monitors.take().map(|m| m.bank)
    }

    /// Overwrites the attached bank's automaton state and re-syncs the
    /// feed cursors to the current ring ends. [`Cluster::save`]
    /// deliberately excludes monitor state, so a checkpoint-forking
    /// sweep calls this right after [`Cluster::restore`] with the bank
    /// snapshot it took at the checkpoint. No-op when no bank is
    /// attached.
    pub fn set_monitor_bank_state(&mut self, bank: MonitorBank) {
        if let Some(mon) = self.monitors.as_mut() {
            mon.bank = bank;
            for (sig, next) in mon.taps.iter_mut() {
                *next = self.bufs[*sig].end();
            }
        }
    }

    /// The resolved timestep of a module.
    pub fn module_timestep(&self, id: ModuleId) -> SimTime {
        self.modules[id.0].timestep
    }

    /// Runs one schedule iteration whose first sample is at `start`:
    /// the firing plan's runs in order.
    ///
    /// # Errors
    ///
    /// Propagates module processing failures with module context.
    pub fn run_iteration(&mut self, start: SimTime) -> Result<(), CoreError> {
        let traced = self.tracer.is_enabled();
        if traced {
            self.tracer
                .begin_with(SpanKind::ClusterIteration, start.as_fs(), self.iteration);
        }
        for &run in &self.plan {
            let (fired, result) = self.modules[run.module].fire_run(run, start, &mut self.bufs);
            self.stats.firings += fired;
            result?;
        }
        self.iteration += 1;
        self.stats.iterations += 1;
        self.flush_probes();
        self.feed_monitors();
        if traced {
            let firings = self.plan.iter().map(|run| run.count).sum();
            self.tracer.end_with(
                SpanKind::ClusterIteration,
                (start + self.period).as_fs(),
                firings,
            );
        }
        Ok(())
    }

    fn flush_probes(&mut self) {
        for p in &mut self.probes {
            let buf = &self.bufs[p.signal.0];
            let end = buf.end();
            let period = self.sig_period_secs[p.signal.0];
            let mut data = p.probe.lock();
            for idx in p.next_idx..end {
                let v = buf.get(idx).expect("probe cursor within the ring");
                data.push((idx as f64 * period, v));
            }
            self.stats.probe_samples += (end - p.next_idx) as u64;
            p.next_idx = end;
        }
    }

    /// Streams every not-yet-seen sample of each monitored signal into
    /// the attached bank (same cursor walk as
    /// [`Cluster::flush_probes`], without storing anything). One branch
    /// when no bank is attached.
    fn feed_monitors(&mut self) {
        if let Some(mon) = self.monitors.as_mut() {
            for (ch, (sig, next)) in mon.taps.iter_mut().enumerate() {
                let buf = &self.bufs[*sig];
                let end = buf.end();
                let period = self.sig_period_secs[*sig];
                for idx in *next..end {
                    let v = buf.get(idx).expect("monitor cursor within the ring");
                    mon.bank.feed(ch, idx as f64 * period, v);
                }
                *next = end;
            }
        }
    }

    /// Per signal, the oldest sample a reader, probe or monitor still
    /// needs (the ring's end when none does, never below 0): where the
    /// window a checkpoint stores begins.
    fn window_starts(&self) -> Vec<i64> {
        let mut from: Vec<i64> = self.bufs.iter().map(SignalBuf::end).collect();
        for ip in self.modules.iter().flat_map(|m| &m.in_ports) {
            let s = ip.signal.0;
            from[s] = from[s].min(ip.counter - ip.delay as i64);
        }
        for p in &self.probes {
            from[p.signal.0] = from[p.signal.0].min(p.next_idx);
        }
        if let Some(mon) = &self.monitors {
            for &(sig, next) in &mon.taps {
                from[sig] = from[sig].min(next);
            }
        }
        from.iter().map(|&f| f.max(0)).collect()
    }

    /// Runs the cluster standalone (without a DE kernel) for `iterations`
    /// more schedule iterations; iteration `k` starts at `period × k`, so
    /// a fresh cluster starts at time zero. Converter bindings, if any,
    /// read 0.0 and queue writes unobserved.
    ///
    /// # Errors
    ///
    /// Propagates processing failures.
    pub fn run_standalone(&mut self, iterations: u64) -> Result<(), CoreError> {
        for _ in 0..iterations {
            let start = self.period * self.iteration;
            self.run_iteration(start)?;
        }
        Ok(())
    }

    /// Execution counters (iterations, firings, probe samples), with the
    /// Newton/factorization totals of every embedded solver folded in via
    /// [`TdfModule::solver_stats`].
    pub fn stats(&self) -> ClusterStats {
        let mut s = self.stats;
        for m in &self.modules {
            if let Some((newton, lu)) = m.module.solver_stats() {
                s.newton_iterations += newton;
                s.factorizations += lu;
            }
            if let Some(solve) = m.module.solve_stats() {
                s.solve.merge(&solve);
            }
        }
        s
    }

    /// Enables or disables span tracing on the cluster and every
    /// embedded solver (via [`TdfModule::set_tracing`]). Disabled (the
    /// default) costs one branch per iteration.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
        for m in &mut self.modules {
            m.module.set_tracing(enabled);
        }
    }

    /// `true` when span tracing is enabled on this cluster.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Drains all trace buffers: one `(source, events)` entry for the
    /// cluster's own iteration spans (source = cluster name) plus one
    /// per module that recorded solver events (source =
    /// `"{cluster}/{module}"`). Empty buffers are skipped.
    pub fn take_traces(&mut self) -> Vec<(String, Vec<TraceEvent>)> {
        let mut out = Vec::new();
        let own = self.tracer.take_events();
        if !own.is_empty() {
            out.push((self.name.clone(), own));
        }
        for m in &mut self.modules {
            let events = m.module.take_trace_events();
            if !events.is_empty() {
                out.push((format!("{}/{}", self.name, m.name), events));
            }
        }
        out
    }

    /// Rewinds the elaborated cluster to `t = 0` without re-elaboration:
    /// clears signal rings, port counters, probes, queued DE writes and
    /// execution counters, and asks every module to restore its
    /// post-`initialize` state via [`TdfModule::reset`].
    ///
    /// Delay-sample initial values established during elaboration are
    /// preserved, so the first iteration after a reset replays the first
    /// iteration after elaboration exactly (for modules that implement
    /// `reset` faithfully).
    pub fn reset(&mut self) {
        self.iteration = 0;
        self.stats = ClusterStats::default();
        for buf in &mut self.bufs {
            buf.refill(0, &[]);
        }
        for m in &mut self.modules {
            for port in m.in_ports.iter_mut().chain(&mut m.out_ports) {
                port.counter = 0;
            }
            m.module.reset();
        }
        for p in &mut self.probes {
            p.next_idx = 0;
            p.probe.lock().clear();
        }
        if let Some(mon) = self.monitors.as_mut() {
            mon.bank = mon.pristine.clone();
            for (_, next) in mon.taps.iter_mut() {
                *next = 0;
            }
        }
        for (_, queue) in &self.de_writes {
            queue.lock().expect("sample queue poisoned").clear();
        }
    }

    /// Freezes the cluster's full dynamic state into a
    /// [`ClusterCheckpoint`]: iteration/stat counters, the window of
    /// each signal's ring that a reader, probe or monitor still needs,
    /// per-port sample counters, probe cursors *and*
    /// recorded probe data, converter-binding samples and queues, plus
    /// each module's internal state via
    /// [`TdfModule::save_state`]. Restoring with [`Cluster::restore`]
    /// and continuing the run reproduces an uninterrupted run exactly
    /// (for modules that implement the save/restore hooks faithfully) —
    /// probe data included, since the snapshot carries the samples
    /// recorded so far.
    pub fn save(&self) -> ClusterCheckpoint {
        ClusterCheckpoint {
            iteration: self.iteration,
            stats: self.stats,
            bufs: self
                .bufs
                .iter()
                .zip(self.window_starts())
                .map(|(buf, from)| (from, buf.window(from)))
                .collect(),
            // Port counters are captured in declaration order, the order
            // of the port tables.
            in_counters: self
                .modules
                .iter()
                .map(|m| m.in_ports.iter().map(|p| p.counter).collect())
                .collect(),
            out_counters: self
                .modules
                .iter()
                .map(|m| m.out_ports.iter().map(|p| p.counter).collect())
                .collect(),
            module_state: self
                .modules
                .iter()
                .map(|m| {
                    let mut st = Vec::new();
                    m.module.save_state(&mut st);
                    st
                })
                .collect(),
            probe_next: self.probes.iter().map(|p| p.next_idx).collect(),
            probe_data: self.probes.iter().map(|p| p.probe.lock().clone()).collect(),
            de_reads: self.de_reads.iter().map(|(_, cell)| cell.get()).collect(),
            de_writes: self
                .de_writes
                .iter()
                .map(|(_, q)| {
                    q.lock()
                        .expect("sample queue poisoned")
                        .iter()
                        .copied()
                        .collect()
                })
                .collect(),
        }
    }

    /// Rewinds the cluster to a state captured with [`Cluster::save`],
    /// refilling each signal's ring with the saved window.
    /// The target must be structurally identical (same elaboration:
    /// module, signal, probe and converter counts) — typically the same
    /// cluster, or a fresh elaboration of the same graph. Validation
    /// happens before any mutation, so a failed restore leaves the
    /// cluster unchanged.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invalid`] when the checkpoint's shape does not match
    /// this cluster's, or a saved window does not fit its signal's ring.
    pub fn restore(&mut self, cp: &ClusterCheckpoint) -> Result<(), CoreError> {
        if cp.bufs.len() != self.bufs.len()
            || cp.in_counters.len() != self.modules.len()
            || cp.out_counters.len() != self.modules.len()
            || cp.module_state.len() != self.modules.len()
            || cp.probe_next.len() != self.probes.len()
            || cp.probe_data.len() != self.probes.len()
            || cp.de_reads.len() != self.de_reads.len()
            || cp.de_writes.len() != self.de_writes.len()
        {
            return Err(CoreError::invalid(format!(
                "checkpoint shape does not match cluster '{}'",
                self.name
            )));
        }
        for (m, (ins, outs)) in self
            .modules
            .iter()
            .zip(cp.in_counters.iter().zip(&cp.out_counters))
        {
            if ins.len() != m.in_ports.len() || outs.len() != m.out_ports.len() {
                return Err(CoreError::invalid(format!(
                    "checkpoint port layout does not match module '{}'",
                    m.name
                )));
            }
        }
        for (s, (buf, (base, data))) in self.bufs.iter().zip(&cp.bufs).enumerate() {
            if *base < 0 || data.len() > buf.capacity() {
                return Err(CoreError::invalid(format!(
                    "checkpoint window of signal '{}' does not fit its ring",
                    self.signal_names[s]
                )));
            }
        }
        // A probe resumes from its cursor, which the saved window holds.
        for (p, &next) in self.probes.iter().zip(&cp.probe_next) {
            let (base, data) = &cp.bufs[p.signal.0];
            if !(*base..=*base + data.len() as i64).contains(&next) {
                return Err(CoreError::invalid(format!(
                    "checkpoint probe cursor of signal '{}' is outside its saved window",
                    self.signal_names[p.signal.0]
                )));
            }
        }
        self.iteration = cp.iteration;
        self.stats = cp.stats;
        for (buf, (base, data)) in self.bufs.iter_mut().zip(&cp.bufs) {
            buf.refill(*base, data);
        }
        for (midx, m) in self.modules.iter_mut().enumerate() {
            for (p, &c) in m.in_ports.iter_mut().zip(&cp.in_counters[midx]) {
                p.counter = c;
            }
            for (p, &c) in m.out_ports.iter_mut().zip(&cp.out_counters[midx]) {
                p.counter = c;
            }
            m.module.restore_state(&cp.module_state[midx]);
        }
        for (p, (&next, data)) in self
            .probes
            .iter_mut()
            .zip(cp.probe_next.iter().zip(&cp.probe_data))
        {
            p.next_idx = next;
            p.probe.lock().clone_from(data);
        }
        for ((_, cell), &v) in self.de_reads.iter().zip(&cp.de_reads) {
            cell.set(v);
        }
        for ((_, queue), saved) in self.de_writes.iter().zip(&cp.de_writes) {
            let mut q = queue.lock().expect("sample queue poisoned");
            q.clear();
            q.extend(saved.iter().copied());
        }
        Ok(())
    }

    /// Small-signal AC analysis of the whole cluster: solves the complex
    /// linear system formed by every module's `ac_processing` stamps at
    /// each frequency.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Invalid`] for an empty frequency list.
    /// * Solver failures for structurally singular stamp systems.
    pub fn ac_analysis(&mut self, freqs_hz: &[f64]) -> Result<TdfAcResult, CoreError> {
        if freqs_hz.is_empty() {
            return Err(CoreError::invalid(
                "ac analysis needs at least one frequency",
            ));
        }
        let n = self.bufs.len();
        let mut data = Vec::with_capacity(freqs_hz.len());
        for &f in freqs_hz {
            let omega = 2.0 * std::f64::consts::PI * f;
            let mut mat = DMat::<Complex64>::identity(n);
            let mut rhs = DVec::<Complex64>::zeros(n);
            for m in &mut self.modules {
                let ins: Vec<TdfSignal> = m.in_ports.iter().map(|p| p.signal).collect();
                let outs: Vec<TdfSignal> = m.out_ports.iter().map(|p| p.signal).collect();
                let mut ac = AcIo {
                    omega,
                    module_name: &m.name,
                    declared_inputs: &ins,
                    declared_outputs: &outs,
                    gains: Vec::new(),
                    sources: Vec::new(),
                };
                m.module.ac_processing(&mut ac);
                for (out, inp, g) in ac.gains {
                    mat[(out.0, inp.0)] -= g;
                }
                for (out, src) in ac.sources {
                    rhs[out.0] += src;
                }
            }
            let lu = Lu::factor(&mat).map_err(|e| CoreError::solver(&self.name, e))?;
            let x = lu
                .solve(&rhs)
                .map_err(|e| CoreError::solver(&self.name, e))?;
            data.push(x.into_inner());
        }
        Ok(TdfAcResult {
            freqs_hz: freqs_hz.to_vec(),
            data,
        })
    }

    /// The registered name of a TDF signal.
    pub fn signal_name(&self, sig: TdfSignal) -> &str {
        &self.signal_names[sig.0]
    }
}

/// A frozen [`Cluster`] state: counters, signal-ring windows, port
/// cursors, probe data, converter-binding samples and per-module
/// internal state. Produced by [`Cluster::save`], re-applied by
/// [`Cluster::restore`]. Cloning is cheap relative to a run, so the
/// prefix-sharing idiom is "save once after the common prefix, restore
/// per scenario".
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCheckpoint {
    iteration: u64,
    stats: ClusterStats,
    /// Per signal, `(first stream index, samples)`: the window of its
    /// ring that a reader, probe or monitor still needed.
    bufs: Vec<(i64, Vec<f64>)>,
    /// Per-module input-port counters, in declaration order.
    in_counters: Vec<Vec<i64>>,
    /// Per-module output-port counters, in declaration order.
    out_counters: Vec<Vec<i64>>,
    /// Per-module [`TdfModule::save_state`] payloads.
    module_state: Vec<Vec<f64>>,
    probe_next: Vec<i64>,
    probe_data: Vec<Vec<(f64, f64)>>,
    de_reads: Vec<f64>,
    de_writes: Vec<Vec<(SimTime, f64)>>,
}

impl ClusterCheckpoint {
    /// Completed schedule iterations at the capture point.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Execution counters at the capture point.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Estimated resident size in bytes — the currency of byte-budgeted
    /// checkpoint caches, not an exact allocation count.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<ClusterCheckpoint>()
            + self
                .bufs
                .iter()
                .map(|(_, d)| 8 + d.len() * 8)
                .sum::<usize>()
            + self.in_counters.iter().map(|c| c.len() * 8).sum::<usize>()
            + self.out_counters.iter().map(|c| c.len() * 8).sum::<usize>()
            + self.module_state.iter().map(|s| s.len() * 8).sum::<usize>()
            + self.probe_next.len() * 8
            + self.probe_data.iter().map(|d| d.len() * 16).sum::<usize>()
            + self.de_reads.len() * 8
            + self.de_writes.iter().map(|q| q.len() * 16).sum::<usize>()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("name", &self.name)
            .field("period", &self.period)
            .field("modules", &self.modules.len())
            .field("iterations", &self.iteration)
            .finish()
    }
}

/// AC sweep result over a TDF cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct TdfAcResult {
    freqs_hz: Vec<f64>,
    /// `data[freq_index][signal_index]`.
    data: Vec<Vec<Complex64>>,
}

impl TdfAcResult {
    /// The analysis frequencies in Hz.
    pub fn freqs_hz(&self) -> &[f64] {
        &self.freqs_hz
    }

    /// The complex response of one signal across all frequencies.
    pub fn response(&self, signal: TdfSignal) -> Vec<Complex64> {
        self.data.iter().map(|row| row[signal.0]).collect()
    }

    /// Magnitude (dB) of one signal across all frequencies.
    pub fn mag_db(&self, signal: TdfSignal) -> Vec<f64> {
        self.response(signal)
            .iter()
            .map(|v| 20.0 * v.abs().log10())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::TdfOut;

    /// Emits k, k+1, k+2, …
    struct Counter {
        out: TdfOut,
        next: f64,
        ts: SimTime,
    }
    impl TdfModule for Counter {
        fn setup(&mut self, cfg: &mut TdfSetup) {
            cfg.output(self.out);
            cfg.set_timestep(self.ts);
        }
        fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
            io.write1(self.out, self.next);
            self.next += 1.0;
            Ok(())
        }
        fn save_state(&self, out: &mut Vec<f64>) {
            out.push(self.next);
        }
        fn restore_state(&mut self, state: &[f64]) {
            self.next = state[0];
        }
    }

    struct Gain {
        inp: TdfIn,
        out: TdfOut,
        k: f64,
    }
    impl TdfModule for Gain {
        fn setup(&mut self, cfg: &mut TdfSetup) {
            cfg.input(self.inp);
            cfg.output(self.out);
        }
        fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
            let x = io.read1(self.inp);
            io.write1(self.out, self.k * x);
            Ok(())
        }
        fn ac_processing(&mut self, ac: &mut AcIo<'_>) {
            ac.set_gain(self.inp, self.out, Complex64::from_real(self.k));
        }
    }

    /// Consumes 4 samples, emits their mean (4:1 decimator).
    struct Mean4 {
        inp: TdfIn,
        out: TdfOut,
    }
    impl TdfModule for Mean4 {
        fn setup(&mut self, cfg: &mut TdfSetup) {
            cfg.input_with(self.inp, 4, 0);
            cfg.output(self.out);
        }
        fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
            let sum: f64 = (0..4).map(|k| io.read(self.inp, k)).sum();
            io.write1(self.out, sum / 4.0);
            Ok(())
        }
    }

    #[test]
    fn single_rate_pipeline() {
        let mut g = TdfGraph::new("pipe");
        let s1 = g.signal("s1");
        let s2 = g.signal("s2");
        let probe = g.probe(s2);
        g.add_module(
            "cnt",
            Counter {
                out: s1.writer(),
                next: 1.0,
                ts: SimTime::from_us(1),
            },
        );
        g.add_module(
            "g2",
            Gain {
                inp: s1.reader(),
                out: s2.writer(),
                k: 2.0,
            },
        );
        let mut c = g.elaborate().unwrap();
        assert_eq!(c.period(), SimTime::from_us(1));
        c.run_standalone(3).unwrap();
        assert_eq!(probe.values(), vec![2.0, 4.0, 6.0]);
        // Sample times follow the signal period.
        for (t, want) in probe.times().iter().zip([0.0, 1e-6, 2e-6]) {
            assert!((t - want).abs() < 1e-12, "time {t} vs {want}");
        }
    }

    #[test]
    fn monitors_stream_signals_like_probes() {
        use ams_monitor::MonitorSpec;
        let build = |k: f64| {
            let mut g = TdfGraph::new("mon");
            let s1 = g.signal("s1");
            let s2 = g.signal("s2");
            g.add_module(
                "cnt",
                Counter {
                    out: s1.writer(),
                    next: 1.0,
                    ts: SimTime::from_us(1),
                },
            );
            g.add_module(
                "g2",
                Gain {
                    inp: s1.reader(),
                    out: s2.writer(),
                    k,
                },
            );
            g.elaborate().unwrap()
        };
        let spec = MonitorSpec::parse(
            "bounded:overshoot(max=9.5)@s2;\
             ramping:ramp(from=0,until=1,tol=0)@s2;\
             fin:finite()@s1",
        )
        .unwrap();
        let bank = MonitorBank::new(&spec);
        let mut c = build(2.0);
        let sigs: Vec<TdfSignal> = bank
            .channels()
            .iter()
            .map(|ch| c.find_signal(ch).unwrap())
            .collect();
        assert!(c.find_signal("missing").is_none());
        c.attach_monitors(bank.clone(), &sigs);
        // s2 = 2, 4, 6 after 3 iterations: all pass.
        c.run_standalone(3).unwrap();
        let fed = c.monitor_bank().unwrap();
        assert_eq!(fed.samples(), 6); // 3 samples × 2 channels
        assert!(fed.finish().iter().all(|v| v.is_pass()));
        // reset() rewinds the bank with the buffers.
        c.reset();
        assert_eq!(c.monitor_bank().unwrap().samples(), 0);
        // Run further: s2 = 2..=10, overshoot fires at the 5th sample.
        c.run_standalone(5).unwrap();
        let v = c.monitor_bank().unwrap().finish();
        assert_eq!(v[0].code(), Some("MON002"));
        assert!(v[1].is_pass() && v[2].is_pass());
        // Checkpoint forking: snapshot the bank with the cluster state,
        // run ahead, then restore + re-sync — the fork replays bit-
        // identically to the uninterrupted run.
        let mut c = build(2.0);
        c.attach_monitors(bank, &sigs);
        c.run_standalone(2).unwrap();
        let cp = c.save();
        let snap = c.monitor_bank().unwrap().clone();
        c.run_standalone(6).unwrap();
        let ahead = c.monitor_bank().unwrap().finish();
        c.restore(&cp).unwrap();
        c.set_monitor_bank_state(snap);
        c.run_standalone(6).unwrap();
        assert_eq!(c.monitor_bank().unwrap().finish(), ahead);
        assert_eq!(c.monitor_bank().unwrap().samples(), 16);
    }

    #[test]
    fn multirate_decimation() {
        let mut g = TdfGraph::new("multi");
        let fast = g.signal("fast");
        let slow = g.signal("slow");
        let probe = g.probe(slow);
        g.add_module(
            "cnt",
            Counter {
                out: fast.writer(),
                next: 1.0,
                ts: SimTime::from_us(1),
            },
        );
        g.add_module(
            "mean",
            Mean4 {
                inp: fast.reader(),
                out: slow.writer(),
            },
        );
        let mut c = g.elaborate().unwrap();
        // Counter fires 4× per iteration → cluster period 4 µs.
        assert_eq!(c.period(), SimTime::from_us(4));
        c.run_standalone(2).unwrap();
        assert_eq!(probe.values(), vec![2.5, 6.5]);
        // The slow signal's sample period is 4 µs.
        for (t, want) in probe.times().iter().zip([0.0, 4e-6]) {
            assert!((t - want).abs() < 1e-12, "time {t} vs {want}");
        }
    }

    #[test]
    fn feedback_loop_with_delay() {
        // Accumulator: out[n] = out[n−1] + 1, seeded with 10 via the
        // delay sample.
        struct Acc {
            inp: TdfIn,
            out: TdfOut,
            ts: SimTime,
        }
        impl TdfModule for Acc {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.input_with(self.inp, 1, 1);
                cfg.output(self.out);
                cfg.set_timestep(self.ts);
            }
            fn initialize(&mut self, init: &mut TdfInit<'_>) -> Result<(), CoreError> {
                init.set_initial(self.inp, 0, 10.0);
                Ok(())
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                let prev = io.read1(self.inp);
                io.write1(self.out, prev + 1.0);
                Ok(())
            }
        }
        let mut g = TdfGraph::new("fb");
        let s = g.signal("acc");
        let probe = g.probe(s);
        g.add_module(
            "acc",
            Acc {
                inp: s.reader(),
                out: s.writer(),
                ts: SimTime::from_ns(10),
            },
        );
        let mut c = g.elaborate().unwrap();
        c.run_standalone(4).unwrap();
        assert_eq!(probe.values(), vec![11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn feedback_without_delay_deadlocks() {
        struct Loop {
            inp: TdfIn,
            out: TdfOut,
        }
        impl TdfModule for Loop {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.input(self.inp);
                cfg.output(self.out);
                cfg.set_timestep(SimTime::from_ns(1));
            }
            fn processing(&mut self, _io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                Ok(())
            }
        }
        let mut g = TdfGraph::new("dead");
        let s = g.signal("x");
        g.add_module(
            "loop",
            Loop {
                inp: s.reader(),
                out: s.writer(),
            },
        );
        assert!(matches!(
            g.elaborate(),
            Err(CoreError::Sdf(ams_sdf::SdfError::Deadlock { .. }))
        ));
    }

    #[test]
    fn multiple_writers_rejected() {
        let mut g = TdfGraph::new("dup");
        let s = g.signal("x");
        g.add_module(
            "a",
            Counter {
                out: s.writer(),
                next: 0.0,
                ts: SimTime::from_us(1),
            },
        );
        g.add_module(
            "b",
            Counter {
                out: s.writer(),
                next: 0.0,
                ts: SimTime::from_us(1),
            },
        );
        assert!(matches!(
            g.elaborate(),
            Err(CoreError::MultipleWriters { .. })
        ));
    }

    #[test]
    fn duplicate_input_declaration_rejected() {
        /// Declares its one input twice, with different rates.
        struct Twice {
            inp: TdfIn,
        }
        impl TdfModule for Twice {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.input(self.inp);
                cfg.input_with(self.inp, 2, 0);
            }
            fn processing(&mut self, _io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                Ok(())
            }
        }
        let mut g = TdfGraph::new("twice");
        let s = g.signal("x");
        g.add_module(
            "src",
            Counter {
                out: s.writer(),
                next: 0.0,
                ts: SimTime::from_us(1),
            },
        );
        g.add_module("twice", Twice { inp: s.reader() });
        let Err(CoreError::Invalid { reason }) = g.elaborate() else {
            panic!("a twice-declared input must be rejected");
        };
        assert!(
            reason.contains("'twice'") && reason.contains("'x'"),
            "{reason}"
        );
    }

    #[test]
    fn unwritten_signal_rejected() {
        let mut g = TdfGraph::new("nowriter");
        let s = g.signal("x");
        let y = g.signal("y");
        g.add_module(
            "g",
            Gain {
                inp: s.reader(),
                out: y.writer(),
                k: 1.0,
            },
        );
        assert!(matches!(g.elaborate(), Err(CoreError::NoWriter { .. })));
    }

    #[test]
    fn no_timestep_rejected() {
        let mut g = TdfGraph::new("nots");
        let s = g.signal("x");
        let y = g.signal("y");
        struct Src {
            out: TdfOut,
        }
        impl TdfModule for Src {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.output(self.out);
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                io.write1(self.out, 0.0);
                Ok(())
            }
        }
        g.add_module("src", Src { out: s.writer() });
        g.add_module(
            "g",
            Gain {
                inp: s.reader(),
                out: y.writer(),
                k: 1.0,
            },
        );
        assert!(matches!(g.elaborate(), Err(CoreError::NoTimestep)));
    }

    #[test]
    fn inconsistent_timesteps_rejected() {
        let mut g = TdfGraph::new("mismatch");
        let s1 = g.signal("a");
        let s2 = g.signal("b");
        g.add_module(
            "c1",
            Counter {
                out: s1.writer(),
                next: 0.0,
                ts: SimTime::from_us(1),
            },
        );
        struct GainTs {
            inp: TdfIn,
            out: TdfOut,
        }
        impl TdfModule for GainTs {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.input(self.inp);
                cfg.output(self.out);
                cfg.set_timestep(SimTime::from_us(2)); // conflicts with 1 µs
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                let v = io.read1(self.inp);
                io.write1(self.out, v);
                Ok(())
            }
        }
        g.add_module(
            "g",
            GainTs {
                inp: s1.reader(),
                out: s2.writer(),
            },
        );
        assert!(matches!(
            g.elaborate(),
            Err(CoreError::InconsistentTimestep { .. })
        ));
    }

    #[test]
    fn ac_analysis_of_gain_chain() {
        let mut g = TdfGraph::new("ac");
        let s1 = g.signal("in");
        let s2 = g.signal("out");
        struct AcSrc {
            out: TdfOut,
        }
        impl TdfModule for AcSrc {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.output(self.out);
                cfg.set_timestep(SimTime::from_us(1));
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                io.write1(self.out, 0.0);
                Ok(())
            }
            fn ac_processing(&mut self, ac: &mut AcIo<'_>) {
                ac.set_source(self.out, Complex64::ONE);
            }
        }
        g.add_module("src", AcSrc { out: s1.writer() });
        g.add_module(
            "g3",
            Gain {
                inp: s1.reader(),
                out: s2.writer(),
                k: 3.0,
            },
        );
        let mut c = g.elaborate().unwrap();
        let ac = c.ac_analysis(&[100.0, 1000.0]).unwrap();
        let resp = ac.response(s2);
        assert!((resp[0].re - 3.0).abs() < 1e-12);
        assert!((resp[1].re - 3.0).abs() < 1e-12);
        assert_eq!(ac.freqs_hz(), &[100.0, 1000.0]);
    }

    #[test]
    fn ac_analysis_solves_feedback() {
        // Loop: y = src + k·y → y = 1/(1−k).
        struct FbSum {
            src: TdfIn,
            fb: TdfIn,
            out: TdfOut,
            k: f64,
        }
        impl TdfModule for FbSum {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.input(self.src);
                cfg.input_with(self.fb, 1, 1);
                cfg.output(self.out);
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                let s = io.read1(self.src);
                let f = io.read1(self.fb);
                io.write1(self.out, s + self.k * f);
                Ok(())
            }
            fn ac_processing(&mut self, ac: &mut AcIo<'_>) {
                ac.set_gain(self.src, self.out, Complex64::ONE);
                ac.set_gain(self.fb, self.out, Complex64::from_real(self.k));
            }
        }
        struct AcSrc2 {
            out: TdfOut,
        }
        impl TdfModule for AcSrc2 {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.output(self.out);
                cfg.set_timestep(SimTime::from_us(1));
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                io.write1(self.out, 0.0);
                Ok(())
            }
            fn ac_processing(&mut self, ac: &mut AcIo<'_>) {
                ac.set_source(self.out, Complex64::ONE);
            }
        }
        let mut g = TdfGraph::new("acfb");
        let s_src = g.signal("src");
        let s_y = g.signal("y");
        g.add_module(
            "src",
            AcSrc2 {
                out: s_src.writer(),
            },
        );
        g.add_module(
            "sum",
            FbSum {
                src: s_src.reader(),
                fb: s_y.reader(),
                out: s_y.writer(),
                k: 0.5,
            },
        );
        let mut c = g.elaborate().unwrap();
        let ac = c.ac_analysis(&[10.0]).unwrap();
        let y = ac.response(s_y)[0];
        assert!((y.re - 2.0).abs() < 1e-12, "y = {y}");
    }

    #[test]
    fn empty_frequency_list_rejected() {
        let mut g = TdfGraph::new("x");
        let s = g.signal("s");
        g.add_module(
            "c",
            Counter {
                out: s.writer(),
                next: 0.0,
                ts: SimTime::from_us(1),
            },
        );
        let mut c = g.elaborate().unwrap();
        assert!(c.ac_analysis(&[]).is_err());
    }

    #[test]
    fn save_restore_resumes_identical_run() {
        // Counter (module-internal state) → gain → probe: the restored
        // continuation must reproduce the uninterrupted run exactly,
        // probe contents and stats included.
        fn build() -> (Cluster, TdfProbe) {
            let mut g = TdfGraph::new("ckpt");
            let s1 = g.signal("s1");
            let s2 = g.signal("s2");
            let probe = g.probe(s2);
            g.add_module(
                "cnt",
                Counter {
                    out: s1.writer(),
                    next: 1.0,
                    ts: SimTime::from_us(1),
                },
            );
            g.add_module(
                "g2",
                Gain {
                    inp: s1.reader(),
                    out: s2.writer(),
                    k: 2.0,
                },
            );
            (g.elaborate().unwrap(), probe)
        }
        let (mut c, probe) = build();
        c.run_standalone(7).unwrap();
        let full_samples = probe.samples();
        let full_stats = c.stats();

        let (mut c2, probe2) = build();
        c2.run_standalone(3).unwrap();
        let cp = c2.save();
        assert_eq!(cp.iteration(), 3);
        assert_eq!(cp.stats().iterations, 3);
        assert!(cp.approx_bytes() > 0);
        // Divergent detour, then rewind and run the remaining 4.
        c2.run_standalone(5).unwrap();
        c2.restore(&cp).unwrap();
        assert_eq!(c2.iterations(), 3);
        c2.run_standalone(4).unwrap();
        assert_eq!(probe2.samples(), full_samples);
        assert_eq!(c2.stats(), full_stats);

        // Restore into a fresh elaboration of the same graph.
        let (mut c3, probe3) = build();
        c3.restore(&cp).unwrap();
        c3.run_standalone(4).unwrap();
        assert_eq!(probe3.samples(), full_samples);
        assert_eq!(c3.stats(), full_stats);
    }

    #[test]
    fn restore_rejects_mismatched_shape() {
        let mut g = TdfGraph::new("a");
        let s = g.signal("s");
        g.add_module(
            "c",
            Counter {
                out: s.writer(),
                next: 0.0,
                ts: SimTime::from_us(1),
            },
        );
        let c = g.elaborate().unwrap();
        let cp = c.save();

        let mut g2 = TdfGraph::new("b");
        let x = g2.signal("x");
        let y = g2.signal("y");
        g2.add_module(
            "c",
            Counter {
                out: x.writer(),
                next: 0.0,
                ts: SimTime::from_us(1),
            },
        );
        g2.add_module(
            "g",
            Gain {
                inp: x.reader(),
                out: y.writer(),
                k: 1.0,
            },
        );
        let mut other = g2.elaborate().unwrap();
        assert!(other.restore(&cp).is_err());
        // Failed restores leave the cluster untouched.
        assert_eq!(other.iterations(), 0);
    }

    #[test]
    fn restore_rejects_a_probe_cursor_outside_its_window() {
        // Same shape, different probe placement: the saved cursor (3,
        // on the slow signal) lies outside the fast signal's window.
        let build = |probe_fast: bool| {
            let mut g = TdfGraph::new("probe");
            let fast = g.signal("fast");
            let slow = g.signal("slow");
            g.probe(if probe_fast { fast } else { slow });
            g.add_module(
                "cnt",
                Counter {
                    out: fast.writer(),
                    next: 0.0,
                    ts: SimTime::from_us(1),
                },
            );
            g.add_module(
                "mean",
                Mean4 {
                    inp: fast.reader(),
                    out: slow.writer(),
                },
            );
            g.elaborate().unwrap()
        };
        let mut c = build(false);
        c.run_standalone(3).unwrap();
        let cp = c.save();
        let mut other = build(true);
        let Err(CoreError::Invalid { reason }) = other.restore(&cp) else {
            panic!("a probe cursor outside its window must be refused");
        };
        assert!(reason.contains("'fast'"), "{reason}");
        assert_eq!(other.iterations(), 0);
    }

    #[test]
    fn save_restore_carries_delay_feedback_state() {
        // The accumulator's whole state lives in the delayed signal
        // buffer: restore must rewind it faithfully.
        struct Acc {
            inp: TdfIn,
            out: TdfOut,
        }
        impl TdfModule for Acc {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.input_with(self.inp, 1, 1);
                cfg.output(self.out);
                cfg.set_timestep(SimTime::from_ns(10));
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                let prev = io.read1(self.inp);
                io.write1(self.out, prev + 1.0);
                Ok(())
            }
        }
        let mut g = TdfGraph::new("fb");
        let s = g.signal("acc");
        let probe = g.probe(s);
        g.add_module(
            "acc",
            Acc {
                inp: s.reader(),
                out: s.writer(),
            },
        );
        let mut c = g.elaborate().unwrap();
        c.run_standalone(2).unwrap();
        let cp = c.save();
        c.run_standalone(3).unwrap();
        let full = probe.samples();
        c.restore(&cp).unwrap();
        c.run_standalone(3).unwrap();
        assert_eq!(probe.samples(), full);
    }

    #[test]
    fn save_restore_of_multirate_feedback_with_monitors_resumes_identically() {
        /// 4:1 decimator with a delay-1 feedback input:
        /// `y[n] = mean(x[4n..4n+4]) + fb[n−1] / 2`, `fb[−1] = 0.25`.
        struct DecimateFb {
            inp: TdfIn,
            fb: TdfIn,
            out: TdfOut,
        }
        impl TdfModule for DecimateFb {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.input_with(self.inp, 4, 0);
                cfg.input_with(self.fb, 1, 1);
                cfg.output(self.out);
            }
            fn initialize(&mut self, init: &mut TdfInit<'_>) -> Result<(), CoreError> {
                init.set_initial(self.fb, 0, 0.25);
                Ok(())
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                let mean = (0..4).map(|k| io.read(self.inp, k)).sum::<f64>() / 4.0;
                let y = mean + 0.5 * io.read1(self.fb);
                io.write1(self.out, y);
                Ok(())
            }
        }
        use ams_monitor::MonitorSpec;
        // `slow` reads 2.625, 7.68, 13.96, … and crosses 40 at
        // iteration 6, after the checkpoint.
        let spec = MonitorSpec::parse(
            "peak:overshoot(max=40)@slow;fin:finite()@fast;loop:overshoot(max=1e9)@fb",
        )
        .unwrap();
        let build = || {
            let mut g = TdfGraph::new("ring");
            let fast = g.signal("fast");
            let slow = g.signal("slow");
            let fb = g.signal("fb");
            let probes = (g.probe(fast), g.probe(slow));
            g.add_module(
                "cnt",
                Counter {
                    out: fast.writer(),
                    next: 1.0,
                    ts: SimTime::from_us(1),
                },
            );
            g.add_module(
                "dec",
                DecimateFb {
                    inp: fast.reader(),
                    fb: fb.reader(),
                    out: slow.writer(),
                },
            );
            g.add_module(
                "loop",
                Gain {
                    inp: slow.reader(),
                    out: fb.writer(),
                    k: 0.9,
                },
            );
            let mut c = g.elaborate().unwrap();
            let bank = MonitorBank::new(&spec);
            let sigs: Vec<TdfSignal> = bank
                .channels()
                .iter()
                .map(|ch| c.find_signal(ch).unwrap())
                .collect();
            c.attach_monitors(bank, &sigs);
            (c, probes)
        };
        let (mut full, (full_fast, full_slow)) = build();
        full.run_standalone(10).unwrap();
        let verdicts = full.monitor_bank().unwrap().finish();
        assert_eq!(verdicts[0].code(), Some("MON002"), "{verdicts:?}");

        let (mut first, _) = build();
        first.run_standalone(3).unwrap();
        let cp = first.save();
        let bank = first.monitor_bank().unwrap().clone();
        let (mut fork, (fork_fast, fork_slow)) = build();
        fork.restore(&cp).unwrap();
        fork.set_monitor_bank_state(bank);
        fork.run_standalone(7).unwrap();
        assert_eq!(fork_fast.samples(), full_fast.samples());
        assert_eq!(fork_slow.samples(), full_slow.samples());
        assert_eq!(fork.stats(), full.stats());
        let fed = fork.monitor_bank().unwrap();
        assert_eq!(fed.samples(), full.monitor_bank().unwrap().samples());
        assert_eq!(fed.finish(), verdicts);
    }

    #[test]
    fn a_ring_beyond_memory_is_a_typed_error() {
        /// Reads its own output 2⁶² samples late.
        struct Late {
            inp: TdfIn,
            out: TdfOut,
        }
        impl TdfModule for Late {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.input_with(self.inp, 1, 1 << 62);
                cfg.output(self.out);
                cfg.set_timestep(SimTime::from_us(1));
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                let v = io.read1(self.inp);
                io.write1(self.out, v);
                Ok(())
            }
        }
        let mut g = TdfGraph::new("late");
        let s = g.signal("echo");
        g.add_module(
            "late",
            Late {
                inp: s.reader(),
                out: s.writer(),
            },
        );
        let Err(CoreError::Invalid { reason }) = g.elaborate() else {
            panic!("an unallocatable ring must be refused");
        };
        assert!(reason.contains("'echo'"), "{reason}");
    }

    #[test]
    fn rings_hold_one_iteration_plus_the_deepest_delay() {
        /// Accumulates its 4:1 decimated input over a delay-3 feedback.
        struct Acc3 {
            inp: TdfIn,
            fb: TdfIn,
            out: TdfOut,
        }
        impl TdfModule for Acc3 {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.input(self.inp);
                cfg.input_with(self.fb, 1, 3);
                cfg.output(self.out);
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                let y = io.read1(self.inp) + io.read1(self.fb);
                io.write1(self.out, y);
                Ok(())
            }
        }
        let mut g = TdfGraph::new("rings");
        let fast = g.signal("fast");
        let slow = g.signal("slow");
        let acc = g.signal("acc");
        let probe = g.probe(acc);
        g.add_module(
            "cnt",
            Counter {
                out: fast.writer(),
                next: 0.0,
                ts: SimTime::from_us(1),
            },
        );
        g.add_module(
            "mean",
            Mean4 {
                inp: fast.reader(),
                out: slow.writer(),
            },
        );
        g.add_module(
            "acc",
            Acc3 {
                inp: slow.reader(),
                fb: acc.reader(),
                out: acc.writer(),
            },
        );
        let mut c = g.elaborate().unwrap();
        // 4 samples of `fast` per iteration; 1 of `slow`; 1 of `acc`
        // plus its delay of 3.
        let caps: Vec<usize> = c.bufs.iter().map(SignalBuf::capacity).collect();
        assert_eq!(caps, vec![4, 1, 4]);
        // The plan fires the counter as one run of four.
        let runs: Vec<(usize, u64, u64)> = c
            .plan
            .iter()
            .map(|r| (r.module, r.count, r.first))
            .collect();
        assert_eq!(runs, vec![(0, 4, 0), (1, 1, 0), (2, 1, 0)]);
        c.run_standalone(1000).unwrap();
        let caps: Vec<usize> = c.bufs.iter().map(SignalBuf::capacity).collect();
        assert_eq!(caps, vec![4, 1, 4], "rings never grow");
        // acc[n] = mean(4n..4n+4) + acc[n−3]: 1.5, 5.5, 9.5, 15, 23, …
        assert_eq!(probe.values()[..5], [1.5, 5.5, 9.5, 15.0, 23.0]);
        assert_eq!(probe.len(), 1000);
    }
}
