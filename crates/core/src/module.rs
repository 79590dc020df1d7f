//! The TDF module trait and its per-phase context objects.
//!
//! Mirrors the SystemC-AMS module lifecycle this paper seeded:
//! `setup` (attribute declaration) → `initialize` (delay samples, DC
//! state) → repeated `processing` (one firing) → optional
//! `ac_processing` (small-signal frequency-domain contribution derived
//! from the same module, §3 O3: "this should not require additional
//! language element").

use crate::port::{PortDecl, TdfIn, TdfOut, TdfSignal};
use ams_kernel::SimTime;
use ams_math::Complex64;

/// A timed-dataflow module: the paper's "continuous behaviour encapsulated
/// in static dataflow modules" (phase 1).
///
/// Implementors declare ports and (optionally) a timestep in
/// [`setup`](TdfModule::setup), then compute samples in
/// [`processing`](TdfModule::processing) each firing.
///
/// Modules are `Send`: an elaborated [`Cluster`](crate::Cluster) can be
/// handed to a worker thread of the parallel execution engine. Shared
/// observation state must therefore use `Arc<Mutex<…>>` (or the
/// primitives in [`crate::shared`]) rather than `Rc<RefCell<…>>`.
pub trait TdfModule: Send {
    /// Declares port rates/delays and (optionally) the module timestep.
    fn setup(&mut self, cfg: &mut TdfSetup);

    /// One-time initialization after scheduling: set initial delay-sample
    /// values, compute the DC state (the paper's consistent quiescent
    /// state). Default: nothing.
    ///
    /// # Errors
    ///
    /// Implementations may fail (e.g. a DC operating point does not
    /// converge); the error aborts elaboration.
    fn initialize(&mut self, _init: &mut TdfInit<'_>) -> Result<(), crate::CoreError> {
        Ok(())
    }

    /// One firing: read `rate` samples per input, write `rate` samples
    /// per output.
    ///
    /// # Errors
    ///
    /// Implementations may fail (e.g. an embedded Newton solve diverges);
    /// the error aborts the simulation run with context.
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), crate::CoreError>;

    /// Stamps this module's small-signal frequency-domain relation
    /// (`out = Σ gain·in + source`). Default: every output is 0 in AC.
    fn ac_processing(&mut self, _ac: &mut AcIo<'_>) {}

    /// Restores internal state to what it was right after
    /// [`initialize`](TdfModule::initialize), so the cluster can be
    /// re-run from `t = 0` (see [`Cluster::reset`](crate::Cluster::reset)).
    /// Default: nothing — correct for stateless modules; stateful ones
    /// should override.
    fn reset(&mut self) {}

    /// Appends the module's internal numeric state to `out`, for
    /// [`Cluster::save`](crate::Cluster::save) checkpoints. Paired with
    /// [`restore_state`](TdfModule::restore_state): restoring the saved
    /// values must put the module back in the captured state, so a
    /// continued run is indistinguishable from an uninterrupted one.
    /// Default: nothing — correct for stateless modules (including every
    /// pure converter); stateful ones should override both hooks, just
    /// as they override [`reset`](TdfModule::reset).
    fn save_state(&self, out: &mut Vec<f64>) {
        let _ = out;
    }

    /// Rewinds internal state to values previously captured by
    /// [`save_state`](TdfModule::save_state) on an identically
    /// constructed module. Default: nothing.
    fn restore_state(&mut self, state: &[f64]) {
        let _ = state;
    }

    /// Counters `(newton_iterations, factorizations)` of an embedded
    /// numeric solver, if this module wraps one. The default (`None`)
    /// marks a module with no solver; [`crate::CtModule`] forwards its
    /// plug-in solver's counters so clusters can aggregate them.
    fn solver_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Linear-solver counters of an embedded numeric solver (sparse
    /// symbolic analyses, numeric refactorizations, pattern sizes,
    /// reused factorizations), if this module wraps one. Default:
    /// `None`.
    fn solve_stats(&self) -> Option<ams_math::SolveStats> {
        None
    }

    /// Enables or disables span tracing on an embedded numeric solver.
    /// The default is a no-op — correct for modules without one;
    /// [`crate::CtModule`] forwards to its plug-in solver.
    fn set_tracing(&mut self, _enabled: bool) {}

    /// Drains trace events recorded by an embedded solver since the
    /// last call. Default: none.
    fn take_trace_events(&mut self) -> Vec<ams_scope::TraceEvent> {
        Vec::new()
    }
}

/// Port/timestep declaration context passed to [`TdfModule::setup`].
#[derive(Debug, Default)]
pub struct TdfSetup {
    pub(crate) inputs: Vec<PortDecl>,
    pub(crate) outputs: Vec<PortDecl>,
    pub(crate) timestep: Option<SimTime>,
}

impl TdfSetup {
    /// Declares an input port with rate 1 and no delay.
    pub fn input(&mut self, port: TdfIn) {
        self.input_with(port, 1, 0);
    }

    /// Declares an input port with an explicit rate and delay (delay
    /// samples break feedback loops; their values are set in
    /// [`TdfModule::initialize`]).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn input_with(&mut self, port: TdfIn, rate: u64, delay: u64) {
        assert!(rate > 0, "port rate must be at least 1");
        self.inputs.push(PortDecl {
            signal: port.signal,
            rate,
            delay,
        });
    }

    /// Declares an output port with rate 1.
    pub fn output(&mut self, port: TdfOut) {
        self.output_with(port, 1);
    }

    /// Declares an output port with an explicit rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn output_with(&mut self, port: TdfOut, rate: u64) {
        assert!(rate > 0, "port rate must be at least 1");
        self.outputs.push(PortDecl {
            signal: port.signal,
            rate,
            delay: 0,
        });
    }

    /// Declares this module's firing period (timestep). At least one
    /// module per cluster must declare one; all declarations must agree
    /// after rate propagation.
    pub fn set_timestep(&mut self, step: SimTime) {
        self.timestep = Some(step);
    }
}

/// Initialization context: set values of input-port delay samples.
#[derive(Debug)]
pub struct TdfInit<'a> {
    pub(crate) module_timestep: SimTime,
    /// The module's input-port table; delay-slot values land in it.
    pub(crate) inputs: &'a mut [PortRt],
    pub(crate) module_name: &'a str,
}

impl TdfInit<'_> {
    /// This module's resolved firing period.
    pub fn timestep(&self) -> SimTime {
        self.module_timestep
    }

    /// Sets the value of the `slot`-th delay sample of an input port
    /// (defaults to 0.0).
    ///
    /// # Panics
    ///
    /// Panics if the port was not declared with at least `slot + 1`
    /// delay samples.
    pub fn set_initial(&mut self, port: TdfIn, slot: u64, value: f64) {
        let ip = self
            .inputs
            .iter_mut()
            .find(|p| p.signal == port.signal)
            .unwrap_or_else(|| {
                panic!(
                    "module '{}' set_initial on undeclared input {}",
                    self.module_name, port.signal
                )
            });
        assert!(
            slot < ip.delay,
            "module '{}': initial slot {slot} exceeds declared delay {}",
            self.module_name,
            ip.delay
        );
        let slot = slot as usize;
        if slot >= ip.initial.len() {
            ip.initial.resize(slot + 1, 0.0);
        }
        ip.initial[slot] = value;
    }
}

/// Sample storage for one TDF signal: a fixed power-of-two ring over
/// the absolute sample stream its writer produces. Elaboration sizes it
/// once to the writer's samples per iteration plus the deepest reader
/// delay, which holds every sample a reader can still ask for during an
/// iteration and every sample the probes and monitors flush after it.
#[derive(Debug, Clone)]
pub(crate) struct SignalBuf {
    /// Stream index `i` lives in `ring[i & mask]`.
    ring: Box<[f64]>,
    mask: usize,
    /// One past the highest stream index written: the ring holds the
    /// last `min(end, capacity)` samples.
    end: i64,
}

impl SignalBuf {
    /// An empty ring of at least `samples` slots (and at least one).
    /// `None` when that many samples cannot be allocated.
    pub fn with_capacity(samples: u64) -> Option<Self> {
        let cap = usize::try_from(samples.max(1))
            .ok()?
            .checked_next_power_of_two()?;
        let mut ring = Vec::new();
        ring.try_reserve_exact(cap).ok()?;
        ring.resize(cap, 0.0);
        Some(SignalBuf {
            ring: ring.into_boxed_slice(),
            mask: cap - 1,
            end: 0,
        })
    }

    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// One past the highest stream index written.
    pub fn end(&self) -> i64 {
        self.end
    }

    /// The sample at stream index `idx`, when the ring holds it.
    pub fn get(&self, idx: i64) -> Option<f64> {
        // `end − 1 − idx` counts back from the newest sample; a negative
        // count (a sample not yet written) wraps to a huge one.
        let held = self.end.min(self.ring.len() as i64);
        (((self.end - 1 - idx) as u64) < held as u64).then(|| self.ring[idx as usize & self.mask])
    }

    /// Stores the sample at stream index `idx`. Stream indices skipped
    /// past the previous end read 0.0.
    pub fn set(&mut self, idx: i64, v: f64) {
        debug_assert!(
            self.end - idx <= self.ring.len() as i64,
            "writing below the held window"
        );
        if idx > self.end {
            for skipped in self.end.max(idx - self.mask as i64)..idx {
                self.ring[skipped as usize & self.mask] = 0.0;
            }
        }
        self.end = self.end.max(idx + 1);
        self.ring[idx as usize & self.mask] = v;
    }

    /// The held samples from stream index `from` to the end.
    pub fn window(&self, from: i64) -> Vec<f64> {
        (from..self.end)
            .map(|idx| self.get(idx).expect("window within the ring"))
            .collect()
    }

    /// Empties the ring, then holds `data` at stream indices `base..`.
    pub fn refill(&mut self, base: i64, data: &[f64]) {
        self.ring.fill(0.0);
        self.end = base;
        for (idx, &v) in (base..).zip(data) {
            self.set(idx, v);
        }
    }
}

/// Runtime state of one port: an entry of its module's input or output
/// port table, kept in declaration order.
#[derive(Debug, Clone)]
pub(crate) struct PortRt {
    pub signal: TdfSignal,
    pub rate: u64,
    /// Delay samples (always 0 on an output).
    pub delay: u64,
    /// Samples consumed (input) or produced (output) so far: the
    /// absolute stream index of the next one.
    pub counter: i64,
    /// Values of an input's delay slots set in
    /// [`TdfModule::initialize`] (slot 0 is consumed first); slots past
    /// the end read 0.0.
    pub initial: Vec<f64>,
}

impl PortRt {
    /// A fresh entry for a declared port.
    pub fn new(decl: &PortDecl) -> Self {
        PortRt {
            signal: decl.signal,
            rate: decl.rate,
            delay: decl.delay,
            counter: 0,
            initial: Vec::new(),
        }
    }
}

/// Per-firing sample I/O passed to [`TdfModule::processing`].
///
/// Reads and writes are indexed within the firing's rate window:
/// `read(port, k)` returns the `k`-th of `rate` samples consumed this
/// firing.
pub struct TdfIo<'a> {
    pub(crate) module_name: &'a str,
    /// Exact time of the first firing of this run of back-to-back
    /// firings.
    pub(crate) run_start: SimTime,
    /// This firing's index within its run: a port's samples this firing
    /// start at `counter + firing·rate`, its counter being advanced
    /// once per run.
    pub(crate) firing: u64,
    /// Module firing period in seconds.
    pub(crate) timestep: f64,
    /// The same period as an exact kernel time.
    pub(crate) timestep_exact: SimTime,
    /// The module's port tables. A block has a few ports, so a linear
    /// scan over them finds one faster than hashing would.
    pub(crate) in_ports: &'a [PortRt],
    pub(crate) out_ports: &'a [PortRt],
    pub(crate) bufs: &'a mut [SignalBuf],
}

impl TdfIo<'_> {
    /// Time of this firing's first sample, in seconds.
    pub fn time(&self) -> f64 {
        self.time_exact().to_seconds()
    }

    /// The same instant as an exact (femtosecond) kernel time.
    pub fn time_exact(&self) -> SimTime {
        self.run_start + self.timestep_exact * self.firing
    }

    /// This module's firing period, in seconds.
    pub fn timestep(&self) -> f64 {
        self.timestep
    }

    /// The same period as an exact (femtosecond) kernel time.
    pub fn timestep_exact(&self) -> SimTime {
        self.timestep_exact
    }

    /// Reads the `k`-th input sample of this firing from `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port was not declared or `k` is not below its
    /// rate (valid indices are `0..rate`).
    pub fn read(&mut self, port: TdfIn, k: u64) -> f64 {
        let ip = self
            .in_ports
            .iter()
            .find(|p| p.signal == port.signal)
            .unwrap_or_else(|| {
                panic!(
                    "module '{}' read undeclared input {}",
                    self.module_name, port.signal
                )
            });
        assert!(
            k < ip.rate,
            "module '{}': read index {k} is out of range for rate {}",
            self.module_name,
            ip.rate
        );
        let idx = ip.counter + (self.firing * ip.rate + k) as i64 - ip.delay as i64;
        if idx < 0 {
            // Delay slot: slot 0 is consumed first.
            let slot = (ip.delay as i64 + idx) as usize;
            ip.initial.get(slot).copied().unwrap_or(0.0)
        } else {
            self.bufs[port.signal.0].get(idx).unwrap_or_else(|| {
                panic!(
                    "module '{}': sample {idx} of {} unavailable (scheduler invariant violated)",
                    self.module_name, port.signal
                )
            })
        }
    }

    /// Reads the single sample of a rate-1 input port.
    pub fn read1(&mut self, port: TdfIn) -> f64 {
        self.read(port, 0)
    }

    /// Writes the `k`-th output sample of this firing to `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port was not declared or `k` is not below its
    /// rate (valid indices are `0..rate`).
    pub fn write(&mut self, port: TdfOut, k: u64, value: f64) {
        let op = self
            .out_ports
            .iter()
            .find(|p| p.signal == port.signal)
            .unwrap_or_else(|| {
                panic!(
                    "module '{}' wrote undeclared output {}",
                    self.module_name, port.signal
                )
            });
        assert!(
            k < op.rate,
            "module '{}': write index {k} is out of range for rate {}",
            self.module_name,
            op.rate
        );
        let idx = op.counter + (self.firing * op.rate + k) as i64;
        self.bufs[port.signal.0].set(idx, value);
    }

    /// Writes the single sample of a rate-1 output port.
    pub fn write1(&mut self, port: TdfOut, value: f64) {
        self.write(port, 0, value);
    }
}

impl std::fmt::Debug for TdfIo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TdfIo")
            .field("module", &self.module_name)
            .field("t0", &self.time())
            .field("timestep", &self.timestep)
            .finish()
    }
}

/// AC (small-signal frequency-domain) stamping context.
///
/// Each TDF signal is one complex unknown; a module contributes the
/// linear relation `X(out) = Σ gain·X(in) + source` for each of its
/// outputs. Unstamped outputs default to 0.
#[derive(Debug)]
pub struct AcIo<'a> {
    pub(crate) omega: f64,
    pub(crate) module_name: &'a str,
    pub(crate) declared_inputs: &'a [TdfSignal],
    pub(crate) declared_outputs: &'a [TdfSignal],
    /// (out signal, in signal, gain) triplets.
    pub(crate) gains: Vec<(TdfSignal, TdfSignal, Complex64)>,
    /// (out signal, source) pairs.
    pub(crate) sources: Vec<(TdfSignal, Complex64)>,
}

impl AcIo<'_> {
    /// The analysis angular frequency ω in rad/s.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// The analysis frequency in Hz.
    pub fn freq_hz(&self) -> f64 {
        self.omega / (2.0 * std::f64::consts::PI)
    }

    /// Stamps `X(out) += gain · X(in)`.
    ///
    /// # Panics
    ///
    /// Panics if the ports were not declared by this module.
    pub fn set_gain(&mut self, input: TdfIn, output: TdfOut, gain: Complex64) {
        assert!(
            self.declared_inputs.contains(&input.signal),
            "module '{}' ac-stamped undeclared input {}",
            self.module_name,
            input.signal
        );
        assert!(
            self.declared_outputs.contains(&output.signal),
            "module '{}' ac-stamped undeclared output {}",
            self.module_name,
            output.signal
        );
        self.gains.push((output.signal, input.signal, gain));
    }

    /// Stamps an independent AC source on an output (the stimulus
    /// designation).
    ///
    /// # Panics
    ///
    /// Panics if the port was not declared by this module.
    pub fn set_source(&mut self, output: TdfOut, value: Complex64) {
        assert!(
            self.declared_outputs.contains(&output.signal),
            "module '{}' ac-stamped undeclared output {}",
            self.module_name,
            output.signal
        );
        self.sources.push((output.signal, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_collects_declarations() {
        let s0 = TdfSignal(0);
        let s1 = TdfSignal(1);
        let mut cfg = TdfSetup::default();
        cfg.input_with(s0.reader(), 2, 1);
        cfg.output(s1.writer());
        cfg.set_timestep(SimTime::from_us(5));
        assert_eq!(cfg.inputs.len(), 1);
        assert_eq!(cfg.inputs[0].rate, 2);
        assert_eq!(cfg.inputs[0].delay, 1);
        assert_eq!(cfg.outputs[0].rate, 1);
        assert_eq!(cfg.timestep, Some(SimTime::from_us(5)));
    }

    #[test]
    #[should_panic(expected = "rate must be at least 1")]
    fn zero_rate_panics() {
        let mut cfg = TdfSetup::default();
        cfg.input_with(TdfSignal(0).reader(), 0, 0);
    }

    /// An empty ring of `samples` slots.
    fn ring(samples: u64) -> SignalBuf {
        SignalBuf::with_capacity(samples).unwrap()
    }

    #[test]
    fn signal_buf_window() {
        let mut b = ring(3);
        assert_eq!(b.capacity(), 4);
        b.set(0, 1.0);
        b.set(3, 4.0);
        assert_eq!(b.get(0), Some(1.0));
        assert_eq!(b.get(1), Some(0.0)); // skipped slots read zero
        assert_eq!(b.get(3), Some(4.0));
        assert_eq!(b.get(4), None);
        // Skipping index 4 zeroes the slot that held index 0.
        b.set(5, 6.0);
        assert_eq!(b.get(1), None);
        assert_eq!(b.window(2), vec![0.0, 4.0, 0.0, 6.0]);
        // A refill zeroes the ring below its window.
        b.refill(10, &[7.0, 8.0]);
        assert_eq!(b.end(), 12);
        assert_eq!(b.window(8), vec![0.0, 0.0, 7.0, 8.0]);
        assert_eq!(b.get(7), None);
    }

    #[test]
    fn ring_sizes_beyond_memory_are_refused() {
        assert!(SignalBuf::with_capacity(1 << 62).is_none());
        assert!(SignalBuf::with_capacity(u64::MAX).is_none());
    }

    #[test]
    fn io_reads_delay_slots_then_stream() {
        let sig = TdfSignal(0);
        let mut bufs = vec![ring(4)];
        bufs[0].set(0, 10.0);
        let in_ports = [PortRt {
            initial: vec![42.0],
            ..PortRt::new(&PortDecl {
                signal: sig,
                rate: 2,
                delay: 1,
            })
        }];
        let mut io = io_over(&in_ports, &[], &mut bufs);
        // k=0 → stream index −1 → delay slot 0 = 42; k=1 → stream 0 = 10.
        assert_eq!(io.read(sig.reader(), 0), 42.0);
        assert_eq!(io.read(sig.reader(), 1), 10.0);
    }

    #[test]
    fn io_indexes_samples_and_time_by_firing_within_the_run() {
        let ports = rate2_port();
        let mut bufs = vec![ring(8)];
        for idx in 0..6 {
            bufs[0].set(idx, idx as f64);
        }
        let mut io = io_over(&ports, &[], &mut bufs);
        io.run_start = SimTime::from_us(3);
        io.firing = 2;
        assert_eq!(io.read(TdfSignal(0).reader(), 0), 4.0);
        assert_eq!(io.read(TdfSignal(0).reader(), 1), 5.0);
        assert_eq!(io.time_exact(), SimTime::from_us(3) + SimTime::from_secs(2));
        assert_eq!(io.time().to_bits(), io.time_exact().to_seconds().to_bits());
    }

    #[test]
    #[should_panic(expected = "undeclared input")]
    fn undeclared_read_panics() {
        let mut bufs: Vec<SignalBuf> = vec![];
        let mut io = io_over(&[], &[], &mut bufs);
        let _ = io.read1(TdfSignal(0).reader());
    }

    #[test]
    #[should_panic(expected = "scheduler invariant violated")]
    fn read_outside_the_ring_panics() {
        let ports = rate2_port();
        let mut bufs = vec![ring(2)];
        for idx in 0..4 {
            bufs[0].set(idx, 0.0);
        }
        // Samples 0 and 1 have left the two-slot ring.
        let mut io = io_over(&ports, &[], &mut bufs);
        let _ = io.read(TdfSignal(0).reader(), 1);
    }

    /// Firing 0 of a run of module `m` over the given port tables.
    fn io_over<'a>(
        in_ports: &'a [PortRt],
        out_ports: &'a [PortRt],
        bufs: &'a mut [SignalBuf],
    ) -> TdfIo<'a> {
        TdfIo {
            module_name: "m",
            run_start: SimTime::ZERO,
            firing: 0,
            timestep: 1.0,
            timestep_exact: SimTime::from_secs(1),
            in_ports,
            out_ports,
            bufs,
        }
    }

    /// Signal 0 declared at rate 2 without delay.
    fn rate2_port() -> [PortRt; 1] {
        [PortRt::new(&PortDecl {
            signal: TdfSignal(0),
            rate: 2,
            delay: 0,
        })]
    }

    #[test]
    #[should_panic(expected = "read index 2 is out of range for rate 2")]
    fn read_at_rate_panics() {
        let ports = rate2_port();
        let mut bufs = vec![ring(4)];
        // The sample exists, so only the rate check can refuse the read.
        bufs[0].set(2, 0.0);
        let mut io = io_over(&ports, &[], &mut bufs);
        let _ = io.read(TdfSignal(0).reader(), 2);
    }

    #[test]
    #[should_panic(expected = "write index 2 is out of range for rate 2")]
    fn write_at_rate_panics() {
        let ports = rate2_port();
        let mut bufs = vec![ring(4)];
        let mut io = io_over(&[], &ports, &mut bufs);
        io.write(TdfSignal(0).writer(), 1, 1.0);
        io.write(TdfSignal(0).writer(), 2, 2.0);
    }

    #[test]
    fn ac_io_records_stamps() {
        let s_in = TdfSignal(0);
        let s_out = TdfSignal(1);
        let ins = vec![s_in];
        let outs = vec![s_out];
        let mut ac = AcIo {
            omega: 2.0 * std::f64::consts::PI * 50.0,
            module_name: "g",
            declared_inputs: &ins,
            declared_outputs: &outs,
            gains: Vec::new(),
            sources: Vec::new(),
        };
        assert!((ac.freq_hz() - 50.0).abs() < 1e-9);
        ac.set_gain(s_in.reader(), s_out.writer(), Complex64::from_real(2.0));
        ac.set_source(s_out.writer(), Complex64::ONE);
        assert_eq!(ac.gains.len(), 1);
        assert_eq!(ac.sources.len(), 1);
    }

    #[test]
    #[should_panic(expected = "undeclared input")]
    fn ac_undeclared_port_panics() {
        let outs = vec![TdfSignal(1)];
        let mut ac = AcIo {
            omega: 1.0,
            module_name: "g",
            declared_inputs: &[],
            declared_outputs: &outs,
            gains: Vec::new(),
            sources: Vec::new(),
        };
        ac.set_gain(TdfSignal(5).reader(), TdfSignal(1).writer(), Complex64::ONE);
    }
}
