//! The discrete-event scheduler: signals, events, processes and the
//! evaluate/update (delta-cycle) loop.
//!
//! Semantics follow the SystemC core language the paper builds on (§3,
//! O2): "the discrete event (DE) MoC views a system as a set of concurrent
//! processes interacting through signals. Processes are activated when
//! signals whose values are read in the processes experience a value
//! change, a.k.a. events."
//!
//! * **Signals** hold a current value; writes are *pending* until the
//!   update phase at the end of the current delta cycle. A write that
//!   changes the value fires the signal's value-changed event.
//! * **Events** wake statically sensitive processes. They can be
//!   notified for the next delta cycle or at a future time.
//! * **Processes** are method processes (run-to-completion callbacks) with
//!   static sensitivity and one-shot timeouts (`next_trigger_in`), which
//!   is sufficient for RTL-style models, clocks, software-ish controllers
//!   and — crucially — the AMS synchronization layer that re-activates
//!   TDF clusters at their period.

use crate::{KernelError, SimTime};
use ams_scope::{SpanKind, TraceEvent, Tracer};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

/// A value that can live on a [`Signal`].
pub trait SignalValue: Clone + PartialEq + fmt::Debug + 'static {}
impl<T: Clone + PartialEq + fmt::Debug + 'static> SignalValue for T {}

/// Typed handle to a signal owned by a [`Kernel`].
///
/// Handles are `Copy` and cheap; they are only valid for the kernel that
/// created them.
pub struct Signal<T: SignalValue> {
    index: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: SignalValue> Clone for Signal<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: SignalValue> Copy for Signal<T> {}

impl<T: SignalValue> fmt::Debug for Signal<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signal#{}", self.index)
    }
}

impl<T: SignalValue> Signal<T> {
    /// The raw slot index (for tracing frontends).
    pub fn index(self) -> usize {
        self.index
    }
}

/// Handle to a kernel event (like `sc_event`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event(usize);

impl Event {
    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(usize);

/// Statistics the kernel keeps while running (used by experiment E1 to
/// quantify scheduling overhead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total delta cycles executed.
    pub delta_cycles: u64,
    /// Total process activations.
    pub activations: u64,
    /// Total timed-event queue pops.
    pub timed_events: u64,
}

type Observer<T> = Box<dyn FnMut(SimTime, &T)>;

struct TypedSignal<T: SignalValue> {
    name: String,
    value: T,
    pending: Option<T>,
    event: Event,
    observers: Vec<Observer<T>>,
}

trait SignalSlot {
    /// Applies a pending write; returns `true` if the value changed.
    fn apply_update(&mut self, now: SimTime) -> bool;
    fn event(&self) -> Event;
    fn name(&self) -> &str;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Captures the current value for a [`KernelCheckpoint`].
    fn snapshot_value(&self) -> Box<dyn ValueSnapshot>;
}

/// A frozen signal value that can be validated against and re-applied
/// to the slot it was captured from (same index, same value type).
trait ValueSnapshot {
    /// `true` when `slot` holds the same value type this snapshot does.
    fn matches(&self, slot: &dyn SignalSlot) -> bool;
    /// Writes the frozen value back, discarding any pending write.
    fn apply(&self, slot: &mut dyn SignalSlot);
    fn clone_box(&self) -> Box<dyn ValueSnapshot>;
}

impl Clone for Box<dyn ValueSnapshot> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

struct TypedSnapshot<T: SignalValue>(T);

impl<T: SignalValue> ValueSnapshot for TypedSnapshot<T> {
    fn matches(&self, slot: &dyn SignalSlot) -> bool {
        slot.as_any().downcast_ref::<TypedSignal<T>>().is_some()
    }

    fn apply(&self, slot: &mut dyn SignalSlot) {
        let slot = slot
            .as_any_mut()
            .downcast_mut::<TypedSignal<T>>()
            .expect("snapshot type validated before apply");
        slot.value = self.0.clone();
        slot.pending = None;
    }

    fn clone_box(&self) -> Box<dyn ValueSnapshot> {
        Box::new(TypedSnapshot(self.0.clone()))
    }
}

impl<T: SignalValue> SignalSlot for TypedSignal<T> {
    fn apply_update(&mut self, now: SimTime) -> bool {
        if let Some(next) = self.pending.take() {
            if next != self.value {
                self.value = next;
                for obs in &mut self.observers {
                    obs(now, &self.value);
                }
                return true;
            }
        }
        false
    }

    fn event(&self) -> Event {
        self.event
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn snapshot_value(&self) -> Box<dyn ValueSnapshot> {
        Box::new(TypedSnapshot(self.value.clone()))
    }
}

struct EventSlot {
    #[allow(dead_code)]
    name: String,
    static_sensitive: Vec<ProcessId>,
}

type ProcessBody = Box<dyn FnMut(&mut ProcContext<'_>)>;

struct ProcessSlot {
    name: String,
    body: Option<ProcessBody>,
    runnable: bool,
    dont_initialize: bool,
    /// Generation counter for one-shot timeouts: a queued wake-up only
    /// fires if its generation still matches.
    timeout_gen: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimedAction {
    Notify(Event),
    Wake(ProcessId, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimedEntry {
    time: SimTime,
    seq: u64,
    action: TimedAction,
}

impl Ord for TimedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for TimedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The discrete-event simulation kernel.
///
/// # Example
///
/// ```
/// use ams_kernel::{Kernel, SimTime};
///
/// # fn main() -> Result<(), ams_kernel::KernelError> {
/// let mut kernel = Kernel::new();
/// let sig = kernel.signal("count", 0u32);
/// let pid = kernel.add_process("incrementer", move |ctx| {
///     let v = ctx.read(sig);
///     if v < 3 {
///         ctx.write(sig, v + 1);
///     }
/// });
/// kernel.make_sensitive(pid, kernel.signal_event(sig));
/// kernel.run_until(SimTime::from_ns(10))?;
/// assert_eq!(kernel.peek(sig), 3);
/// # Ok(())
/// # }
/// ```
pub struct Kernel {
    time: SimTime,
    started: bool,
    signals: Vec<Box<dyn SignalSlot>>,
    events: Vec<EventSlot>,
    processes: Vec<ProcessSlot>,
    runnable: VecDeque<ProcessId>,
    /// Signal indices with pending writes (deduplicated).
    update_list: Vec<usize>,
    update_marked: Vec<bool>,
    delta_notified: Vec<Event>,
    /// Update-phase scratch: the drained `update_list` (the two swap
    /// every delta cycle) and the events the updates fired. Kept so a
    /// delta cycle does not allocate.
    updating: Vec<usize>,
    fired: Vec<Event>,
    timed: BinaryHeap<Reverse<TimedEntry>>,
    seq: u64,
    stats: KernelStats,
    max_deltas_per_instant: u64,
    /// Periods of the clocks created on this kernel, for cross-MoC
    /// timing lint (converter ports vs. clock edges).
    clock_periods: Vec<(String, SimTime)>,
    tracer: Tracer,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// Creates an empty kernel at time zero.
    pub fn new() -> Self {
        Kernel {
            time: SimTime::ZERO,
            started: false,
            signals: Vec::new(),
            events: Vec::new(),
            processes: Vec::new(),
            runnable: VecDeque::new(),
            update_list: Vec::new(),
            update_marked: Vec::new(),
            delta_notified: Vec::new(),
            updating: Vec::new(),
            fired: Vec::new(),
            timed: BinaryHeap::new(),
            seq: 0,
            stats: KernelStats::default(),
            max_deltas_per_instant: 100_000,
            clock_periods: Vec::new(),
            tracer: Tracer::off(),
        }
    }

    /// Enables or disables span tracing on this kernel. Disabled (the
    /// default) costs one branch per delta cycle.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// Drains the trace events recorded so far (delta-cycle instants;
    /// `t` is the simulated time in fs, `arg` the process activations
    /// in that cycle).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.tracer.take_events()
    }

    /// Records a clock's name and period (called by [`crate::Clock`]).
    pub(crate) fn register_clock(&mut self, name: String, period: SimTime) {
        self.clock_periods.push((name, period));
    }

    /// Names and periods of every clock created on this kernel, in
    /// creation order. Static analyses use this to check converter-port
    /// timing against the digital time base.
    pub fn clock_periods(&self) -> &[(String, SimTime)] {
        &self.clock_periods
    }

    /// Sets the delta-cycle limit per time instant (default 100 000).
    /// Exceeding it aborts the run with [`KernelError::DeltaOverflow`].
    pub fn set_delta_limit(&mut self, limit: u64) {
        self.max_deltas_per_instant = limit.max(1);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Scheduling statistics accumulated so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The timestamp of the earliest pending timed notification, if any.
    ///
    /// This is the kernel's synchronization-point API: a parallel
    /// execution engine may run decoupled dataflow clusters ahead of the
    /// kernel up to (but not past) this time without missing a
    /// discrete-event interaction. Delta-cycle (immediate) activity is
    /// not visible here; it belongs to the current instant.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.timed.peek().map(|Reverse(e)| e.time)
    }

    // ----- construction ---------------------------------------------------

    /// Creates a signal with an initial value and returns its handle.
    pub fn signal<T: SignalValue>(&mut self, name: impl Into<String>, initial: T) -> Signal<T> {
        let name = name.into();
        let event = self.event(format!("{name}.value_changed"));
        let index = self.signals.len();
        self.signals.push(Box::new(TypedSignal {
            name,
            value: initial,
            pending: None,
            event,
            observers: Vec::new(),
        }));
        self.update_marked.push(false);
        Signal {
            index,
            _marker: PhantomData,
        }
    }

    /// Creates a named event.
    pub fn event(&mut self, name: impl Into<String>) -> Event {
        let id = Event(self.events.len());
        self.events.push(EventSlot {
            name: name.into(),
            static_sensitive: Vec::new(),
        });
        id
    }

    /// Registers a method process. It runs once during initialization
    /// (unless [`Kernel::dont_initialize`] is called) and then whenever
    /// one of its sensitivities fires.
    pub fn add_process(
        &mut self,
        name: impl Into<String>,
        body: impl FnMut(&mut ProcContext<'_>) + 'static,
    ) -> ProcessId {
        let id = ProcessId(self.processes.len());
        self.processes.push(ProcessSlot {
            name: name.into(),
            body: Some(Box::new(body)),
            runnable: false,
            dont_initialize: false,
            timeout_gen: 0,
        });
        id
    }

    /// Adds `event` to the static sensitivity list of `process`.
    pub fn make_sensitive(&mut self, process: ProcessId, event: Event) {
        let slot = &mut self.events[event.0];
        if !slot.static_sensitive.contains(&process) {
            slot.static_sensitive.push(process);
        }
    }

    /// Suppresses the initialization run of a process (like SystemC's
    /// `dont_initialize()`).
    pub fn dont_initialize(&mut self, process: ProcessId) {
        self.processes[process.0].dont_initialize = true;
    }

    /// The value-changed event of a signal, for use in sensitivity lists.
    pub fn signal_event<T: SignalValue>(&self, sig: Signal<T>) -> Event {
        self.signals[sig.index].event()
    }

    /// The registered name of a signal.
    pub fn signal_name<T: SignalValue>(&self, sig: Signal<T>) -> &str {
        self.signals[sig.index].name()
    }

    /// Registers an observer invoked (during the update phase) whenever
    /// the signal's value changes. Used by tracing frontends.
    pub fn observe<T: SignalValue>(
        &mut self,
        sig: Signal<T>,
        observer: impl FnMut(SimTime, &T) + 'static,
    ) {
        let slot = self.signals[sig.index]
            .as_any_mut()
            .downcast_mut::<TypedSignal<T>>()
            .expect("signal handle type matches its slot by construction");
        slot.observers.push(Box::new(observer));
    }

    // ----- signal access (outside processes) -------------------------------

    /// Reads the current value of a signal from outside a process.
    pub fn peek<T: SignalValue>(&self, sig: Signal<T>) -> T {
        self.typed(sig).value.clone()
    }

    /// Writes a signal from outside a process (testbench style). The write
    /// follows normal delta semantics: it takes effect at the next update
    /// phase of the following [`Kernel::run_until`] call.
    pub fn poke<T: SignalValue>(&mut self, sig: Signal<T>, value: T) {
        self.typed_mut(sig).pending = Some(value);
        self.mark_for_update(sig.index);
    }

    fn typed<T: SignalValue>(&self, sig: Signal<T>) -> &TypedSignal<T> {
        self.signals[sig.index]
            .as_any()
            .downcast_ref::<TypedSignal<T>>()
            .expect("signal handle type matches its slot by construction")
    }

    fn typed_mut<T: SignalValue>(&mut self, sig: Signal<T>) -> &mut TypedSignal<T> {
        self.signals[sig.index]
            .as_any_mut()
            .downcast_mut::<TypedSignal<T>>()
            .expect("signal handle type matches its slot by construction")
    }

    fn mark_for_update(&mut self, index: usize) {
        if !self.update_marked[index] {
            self.update_marked[index] = true;
            self.update_list.push(index);
        }
    }

    fn make_runnable(&mut self, pid: ProcessId) {
        let slot = &mut self.processes[pid.0];
        if !slot.runnable && slot.body.is_some() {
            slot.runnable = true;
            self.runnable.push_back(pid);
        }
    }

    fn notify_now(&mut self, ev: Event) {
        // Wake the sensitive processes into the runnable queue, walking
        // the list by index (`make_runnable` never edits it).
        for i in 0..self.events[ev.0].static_sensitive.len() {
            let pid = self.events[ev.0].static_sensitive[i];
            self.make_runnable(pid);
        }
    }

    /// Notifies an event for the next delta cycle (from outside a process).
    pub fn notify_delta(&mut self, ev: Event) {
        self.delta_notified.push(ev);
    }

    /// Notifies an event `delay` after the current time (from outside a
    /// process). A zero delay is equivalent to a delta notification.
    pub fn notify_in(&mut self, ev: Event, delay: SimTime) {
        if delay.is_zero() {
            self.notify_delta(ev);
        } else {
            let entry = TimedEntry {
                time: self.time + delay,
                seq: self.seq,
                action: TimedAction::Notify(ev),
            };
            self.seq += 1;
            self.timed.push(Reverse(entry));
        }
    }

    // ----- the evaluate/update loop ----------------------------------------

    /// Runs one delta cycle: evaluate all runnable processes, then apply
    /// signal updates and delta notifications. Returns `true` if any
    /// activity occurred.
    fn delta_cycle(&mut self) -> bool {
        let had_runnable = !self.runnable.is_empty();
        if had_runnable {
            self.stats.delta_cycles += 1;
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    SpanKind::DeltaCycle,
                    self.time.as_fs(),
                    self.runnable.len() as u64,
                );
            }
        }
        // Evaluate phase.
        while let Some(pid) = self.runnable.pop_front() {
            self.processes[pid.0].runnable = false;
            let mut body = self.processes[pid.0]
                .body
                .take()
                .expect("runnable process has a body");
            self.stats.activations += 1;
            {
                let mut ctx = ProcContext { kernel: self, pid };
                body(&mut ctx);
            }
            // A process may have been re-queued while running (immediate
            // notification); body must be restored regardless.
            self.processes[pid.0].body = Some(body);
        }
        // Update phase.
        std::mem::swap(&mut self.update_list, &mut self.updating);
        for &idx in &self.updating {
            self.update_marked[idx] = false;
            if self.signals[idx].apply_update(self.time) {
                self.fired.push(self.signals[idx].event());
            }
        }
        self.updating.clear();
        self.fired.append(&mut self.delta_notified);
        let had_updates = !self.fired.is_empty();
        for i in 0..self.fired.len() {
            let ev = self.fired[i];
            self.notify_now(ev);
        }
        self.fired.clear();
        had_runnable || had_updates
    }

    /// Exhausts all delta cycles at the current instant.
    fn settle(&mut self) -> Result<(), KernelError> {
        let mut deltas = 0u64;
        while !self.runnable.is_empty()
            || !self.update_list.is_empty()
            || !self.delta_notified.is_empty()
        {
            self.delta_cycle();
            deltas += 1;
            if deltas > self.max_deltas_per_instant {
                return Err(KernelError::DeltaOverflow {
                    time: self.time,
                    limit: self.max_deltas_per_instant,
                });
            }
        }
        Ok(())
    }

    fn initialize(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.processes.len() {
            if !self.processes[i].dont_initialize {
                self.make_runnable(ProcessId(i));
            }
        }
    }

    /// Runs the simulation until `until` (inclusive). Timed activity
    /// scheduled later stays queued for subsequent calls. On return the
    /// kernel time is `until` (or later if already past it).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::DeltaOverflow`] on zero-delay oscillations.
    pub fn run_until(&mut self, until: SimTime) -> Result<(), KernelError> {
        self.initialize();
        loop {
            self.settle()?;
            // Advance to the next timed entry, if within the horizon.
            let next_time = match self.timed.peek() {
                Some(Reverse(entry)) if entry.time <= until => entry.time,
                _ => break,
            };
            self.time = next_time;
            while let Some(Reverse(entry)) = self.timed.peek() {
                if entry.time != next_time {
                    break;
                }
                let Reverse(entry) = self.timed.pop().expect("peeked entry exists");
                self.stats.timed_events += 1;
                match entry.action {
                    TimedAction::Notify(ev) => self.notify_now(ev),
                    TimedAction::Wake(pid, gen) => {
                        if self.processes[pid.0].timeout_gen == gen {
                            self.make_runnable(pid);
                        }
                    }
                }
            }
        }
        if self.time < until {
            self.time = until;
        }
        Ok(())
    }

    /// Runs for a duration from the current time.
    ///
    /// # Errors
    ///
    /// Same as [`Kernel::run_until`].
    pub fn run_for(&mut self, duration: SimTime) -> Result<(), KernelError> {
        let until = self.time.saturating_add(duration);
        self.run_until(until)
    }

    /// Name of a process (diagnostics).
    pub fn process_name(&self, pid: ProcessId) -> &str {
        &self.processes[pid.0].name
    }

    // ----- checkpoint / restore --------------------------------------------

    /// Freezes the kernel's dynamic state — simulation time, the timed
    /// event queue (which is where clock edges and `next_trigger_in`
    /// wake-ups live), per-process timeout generations, every signal's
    /// current value and the scheduling statistics — into a
    /// [`KernelCheckpoint`] that [`Kernel::restore_checkpoint`] can
    /// later re-apply.
    ///
    /// State owned by process closures (captured `Rc`s and the like) is
    /// *not* part of the kernel and is not captured; layered runtimes
    /// (TDF clusters, SDF executors, transient solvers) checkpoint that
    /// state through their own snapshot types.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotQuiescent`] if delta-cycle activity is still
    /// pending — checkpoints are only well-defined between
    /// [`Kernel::run_until`] calls, when the instant has settled.
    pub fn checkpoint(&self) -> Result<KernelCheckpoint, KernelError> {
        if !self.runnable.is_empty()
            || !self.update_list.is_empty()
            || !self.delta_notified.is_empty()
        {
            return Err(KernelError::NotQuiescent { time: self.time });
        }
        Ok(KernelCheckpoint {
            time: self.time,
            seq: self.seq,
            started: self.started,
            stats: self.stats,
            timed: self.timed.iter().map(|Reverse(e)| *e).collect(),
            timeout_gens: self.processes.iter().map(|p| p.timeout_gen).collect(),
            values: self.signals.iter().map(|s| s.snapshot_value()).collect(),
        })
    }

    /// Rewinds this kernel to a state previously captured with
    /// [`Kernel::checkpoint`]. The kernel must have the same structure
    /// (signals, events and processes created in the same order with the
    /// same types) — typically it *is* the same kernel, or a freshly
    /// elaborated copy of the same model.
    ///
    /// Validation is all-or-nothing: on error the kernel is unchanged.
    ///
    /// # Errors
    ///
    /// * [`KernelError::UnknownHandle`] when the signal or process count
    ///   differs from the checkpointed kernel's;
    /// * [`KernelError::TypeMismatch`] when a signal slot holds a
    ///   different value type than the snapshot captured.
    pub fn restore_checkpoint(&mut self, cp: &KernelCheckpoint) -> Result<(), KernelError> {
        if cp.values.len() != self.signals.len() {
            return Err(KernelError::UnknownHandle {
                kind: "signal",
                index: cp.values.len(),
            });
        }
        if cp.timeout_gens.len() != self.processes.len() {
            return Err(KernelError::UnknownHandle {
                kind: "process",
                index: cp.timeout_gens.len(),
            });
        }
        for (snap, slot) in cp.values.iter().zip(&self.signals) {
            if !snap.matches(slot.as_ref()) {
                return Err(KernelError::TypeMismatch {
                    signal: slot.name().to_string(),
                });
            }
        }
        for (snap, slot) in cp.values.iter().zip(&mut self.signals) {
            snap.apply(slot.as_mut());
        }
        self.time = cp.time;
        self.seq = cp.seq;
        self.started = cp.started;
        self.stats = cp.stats;
        self.timed = cp.timed.iter().map(|e| Reverse(*e)).collect();
        for (slot, &g) in self.processes.iter_mut().zip(&cp.timeout_gens) {
            slot.timeout_gen = g;
            slot.runnable = false;
        }
        self.runnable.clear();
        self.update_list.clear();
        for m in &mut self.update_marked {
            *m = false;
        }
        self.delta_notified.clear();
        Ok(())
    }
}

/// A frozen [`Kernel`] state: simulation time, the timed event queue
/// (clock edges, armed timeouts), per-process timeout generations,
/// every signal's current value and the scheduling statistics.
///
/// Produced by [`Kernel::checkpoint`], re-applied by
/// [`Kernel::restore_checkpoint`]. Cloning is cheap relative to a
/// simulation run, so the copy-on-write forking idiom is "checkpoint
/// once, clone per fork".
#[derive(Clone)]
pub struct KernelCheckpoint {
    time: SimTime,
    seq: u64,
    started: bool,
    stats: KernelStats,
    timed: Vec<TimedEntry>,
    timeout_gens: Vec<u64>,
    values: Vec<Box<dyn ValueSnapshot>>,
}

impl KernelCheckpoint {
    /// Simulation time of the captured state.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Number of entries frozen from the timed event queue.
    pub fn pending_timed(&self) -> usize {
        self.timed.len()
    }
}

impl fmt::Debug for KernelCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelCheckpoint")
            .field("time", &self.time)
            .field("timed", &self.timed.len())
            .field("signals", &self.values.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("time", &self.time)
            .field("signals", &self.signals.len())
            .field("events", &self.events.len())
            .field("processes", &self.processes.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Execution context passed to a process while it runs.
///
/// Provides signal access with delta semantics, event notification and
/// one-shot timeouts.
pub struct ProcContext<'k> {
    kernel: &'k mut Kernel,
    pid: ProcessId,
}

impl ProcContext<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.time
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Reads the current value of a signal.
    pub fn read<T: SignalValue>(&self, sig: Signal<T>) -> T {
        self.kernel.typed(sig).value.clone()
    }

    /// Writes a signal; the new value becomes visible in the next delta
    /// cycle (evaluate/update semantics).
    pub fn write<T: SignalValue>(&mut self, sig: Signal<T>, value: T) {
        self.kernel.typed_mut(sig).pending = Some(value);
        self.kernel.mark_for_update(sig.index);
    }

    /// Notifies an event for the next delta cycle.
    pub fn notify(&mut self, ev: Event) {
        self.kernel.delta_notified.push(ev);
    }

    /// Notifies an event `delay` in the future (zero = next delta).
    pub fn notify_in(&mut self, ev: Event, delay: SimTime) {
        self.kernel.notify_in(ev, delay);
    }

    /// Arms a one-shot wake-up for this process `delay` from now,
    /// superseding any previously armed wake-up.
    ///
    /// This is the mechanism the AMS synchronization layer uses to
    /// schedule TDF cluster activations on the DE timeline.
    pub fn next_trigger_in(&mut self, delay: SimTime) {
        let slot = &mut self.kernel.processes[self.pid.0];
        slot.timeout_gen += 1;
        let gen = slot.timeout_gen;
        let entry = TimedEntry {
            time: self.kernel.time.saturating_add(delay),
            seq: self.kernel.seq,
            action: TimedAction::Wake(self.pid, gen),
        };
        self.kernel.seq += 1;
        self.kernel.timed.push(Reverse(entry));
    }

    /// Adds an event to this process's static sensitivity (rarely needed
    /// at run time; prefer [`Kernel::make_sensitive`] during elaboration).
    pub fn make_sensitive(&mut self, ev: Event) {
        self.kernel.make_sensitive(self.pid, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn write_is_not_visible_until_next_delta() {
        let mut k = Kernel::new();
        let s = k.signal("s", 0i32);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let p = k.add_process("writer", move |ctx| {
            ctx.write(s, 42);
            // Read-back in the same evaluate phase sees the old value.
            seen2.borrow_mut().push(ctx.read(s));
        });
        let _ = p;
        k.run_until(SimTime::ZERO).unwrap();
        assert_eq!(*seen.borrow(), vec![0]);
        assert_eq!(k.peek(s), 42);
    }

    #[test]
    fn sensitivity_triggers_on_change_only() {
        let mut k = Kernel::new();
        let s = k.signal("s", 0i32);
        let count = Rc::new(RefCell::new(0));
        let c2 = count.clone();
        let p = k.add_process("watcher", move |_ctx| {
            *c2.borrow_mut() += 1;
        });
        k.make_sensitive(p, k.signal_event(s));
        k.dont_initialize(p);

        k.poke(s, 0); // same value: no event
        k.run_until(SimTime::from_ns(1)).unwrap();
        assert_eq!(*count.borrow(), 0);

        k.poke(s, 7); // change: one activation
        k.run_until(SimTime::from_ns(2)).unwrap();
        assert_eq!(*count.borrow(), 1);
    }

    #[test]
    fn tracing_records_delta_cycle_instants() {
        let mut k = Kernel::new();
        let s = k.signal("s", 0i32);
        let p = k.add_process("echo", move |ctx| {
            let v = ctx.read(s);
            if v < 3 {
                ctx.write(s, v + 1);
            }
        });
        k.make_sensitive(p, k.signal_event(s));
        k.set_tracing(true);
        k.run_until(SimTime::from_ns(1)).unwrap();
        let events = k.take_trace_events();
        assert_eq!(events.len() as u64, k.stats().delta_cycles);
        assert!(events
            .iter()
            .all(|e| e.kind == SpanKind::DeltaCycle && e.arg >= 1));
        // Draining leaves the buffer empty; disabled kernels record nothing.
        assert!(k.take_trace_events().is_empty());
        k.set_tracing(false);
        k.poke(s, 0);
        k.run_until(SimTime::from_ns(2)).unwrap();
        assert!(k.take_trace_events().is_empty());
    }

    #[test]
    fn initialization_runs_processes_once() {
        let mut k = Kernel::new();
        let count = Rc::new(RefCell::new(0));
        let c2 = count.clone();
        k.add_process("init", move |_| {
            *c2.borrow_mut() += 1;
        });
        k.run_until(SimTime::from_ns(5)).unwrap();
        k.run_until(SimTime::from_ns(10)).unwrap();
        assert_eq!(*count.borrow(), 1);
    }

    #[test]
    fn dont_initialize_suppresses_first_run() {
        let mut k = Kernel::new();
        let count = Rc::new(RefCell::new(0));
        let c2 = count.clone();
        let p = k.add_process("lazy", move |_| {
            *c2.borrow_mut() += 1;
        });
        k.dont_initialize(p);
        k.run_until(SimTime::from_ns(5)).unwrap();
        assert_eq!(*count.borrow(), 0);
    }

    #[test]
    fn timed_event_notification() {
        let mut k = Kernel::new();
        let ev = k.event("tick");
        let fired_at = Rc::new(RefCell::new(Vec::new()));
        let f2 = fired_at.clone();
        let p = k.add_process("listener", move |ctx| {
            f2.borrow_mut().push(ctx.now());
        });
        k.make_sensitive(p, ev);
        k.dont_initialize(p);
        k.notify_in(ev, SimTime::from_ns(3));
        k.run_until(SimTime::from_ns(10)).unwrap();
        assert_eq!(*fired_at.borrow(), vec![SimTime::from_ns(3)]);
        assert_eq!(k.now(), SimTime::from_ns(10));
    }

    #[test]
    fn next_trigger_makes_periodic_process() {
        let mut k = Kernel::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        let t2 = times.clone();
        k.add_process("periodic", move |ctx| {
            t2.borrow_mut().push(ctx.now());
            ctx.next_trigger_in(SimTime::from_ns(10));
        });
        k.run_until(SimTime::from_ns(35)).unwrap();
        assert_eq!(
            *times.borrow(),
            vec![
                SimTime::ZERO,
                SimTime::from_ns(10),
                SimTime::from_ns(20),
                SimTime::from_ns(30)
            ]
        );
    }

    #[test]
    fn superseded_timeout_does_not_fire() {
        let mut k = Kernel::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        let t2 = times.clone();
        k.add_process("rearming", move |ctx| {
            t2.borrow_mut().push(ctx.now());
            if ctx.now().is_zero() {
                ctx.next_trigger_in(SimTime::from_ns(5));
                // Supersede: only the 8 ns wake-up must fire.
                ctx.next_trigger_in(SimTime::from_ns(8));
            }
        });
        k.run_until(SimTime::from_ns(20)).unwrap();
        assert_eq!(*times.borrow(), vec![SimTime::ZERO, SimTime::from_ns(8)]);
    }

    #[test]
    fn delta_chain_propagates_through_processes() {
        // a -> b -> c pipeline of combinational processes.
        let mut k = Kernel::new();
        let a = k.signal("a", 0i32);
        let b = k.signal("b", 0i32);
        let c = k.signal("c", 0i32);
        let p1 = k.add_process("a_to_b", move |ctx| {
            let v = ctx.read(a);
            ctx.write(b, v + 1);
        });
        k.make_sensitive(p1, k.signal_event(a));
        let p2 = k.add_process("b_to_c", move |ctx| {
            let v = ctx.read(b);
            ctx.write(c, v * 2);
        });
        k.make_sensitive(p2, k.signal_event(b));
        k.run_until(SimTime::ZERO).unwrap();
        k.poke(a, 10);
        k.run_until(SimTime::from_ns(1)).unwrap();
        assert_eq!(k.peek(c), 22);
    }

    #[test]
    fn zero_delay_oscillation_is_detected() {
        let mut k = Kernel::new();
        k.set_delta_limit(100);
        let s = k.signal("osc", false);
        let p = k.add_process("toggler", move |ctx| {
            let v = ctx.read(s);
            ctx.write(s, !v);
        });
        k.make_sensitive(p, k.signal_event(s));
        let err = k.run_until(SimTime::from_ns(1)).unwrap_err();
        assert!(matches!(err, KernelError::DeltaOverflow { .. }));
    }

    #[test]
    fn observers_fire_on_change() {
        let mut k = Kernel::new();
        let s = k.signal("s", 0i32);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        k.observe(s, move |t, v| l2.borrow_mut().push((t, *v)));
        k.poke(s, 5);
        k.run_until(SimTime::from_ns(1)).unwrap();
        k.poke(s, 5); // no change, no callback
        k.run_until(SimTime::from_ns(2)).unwrap();
        assert_eq!(*log.borrow(), vec![(SimTime::ZERO, 5)]);
    }

    #[test]
    fn stats_count_activity() {
        let mut k = Kernel::new();
        let times = Rc::new(RefCell::new(0));
        let t2 = times.clone();
        k.add_process("p", move |ctx| {
            *t2.borrow_mut() += 1;
            if ctx.now() < SimTime::from_ns(50) {
                ctx.next_trigger_in(SimTime::from_ns(10));
            }
        });
        k.run_until(SimTime::from_ns(100)).unwrap();
        let stats = k.stats();
        assert_eq!(stats.activations, 6); // t = 0, 10, 20, 30, 40, 50
        assert!(stats.delta_cycles >= 6);
        assert_eq!(*times.borrow(), 6);
    }

    #[test]
    fn two_kernels_are_independent() {
        let mut k1 = Kernel::new();
        let mut k2 = Kernel::new();
        let s1 = k1.signal("x", 1i32);
        let s2 = k2.signal("x", 2i32);
        k1.poke(s1, 10);
        k1.run_until(SimTime::from_ns(1)).unwrap();
        assert_eq!(k1.peek(s1), 10);
        assert_eq!(k2.peek(s2), 2);
    }

    #[test]
    fn checkpoint_restore_resumes_identical_timeline() {
        // A periodic process whose whole state lives in a signal: the
        // continuation after restore must reproduce the original run.
        fn build() -> (Kernel, Signal<u32>) {
            let mut k = Kernel::new();
            let s = k.signal("count", 0u32);
            k.add_process("tick", move |ctx| {
                let v = ctx.read(s);
                ctx.write(s, v + 1);
                ctx.next_trigger_in(SimTime::from_ns(10));
            });
            (k, s)
        }
        let (mut k, s) = build();
        k.run_until(SimTime::from_ns(25)).unwrap();
        let cp = k.checkpoint().unwrap();
        assert_eq!(cp.time(), SimTime::from_ns(25));
        assert_eq!(cp.pending_timed(), 1);
        k.run_until(SimTime::from_ns(60)).unwrap();
        let final_count = k.peek(s);
        let final_stats = k.stats();

        // Rewind the same kernel via a clone of the checkpoint.
        k.restore_checkpoint(&cp.clone()).unwrap();
        assert_eq!(k.now(), SimTime::from_ns(25));
        assert_eq!(k.peek(s), 3); // activations at t = 0, 10, 20
        k.run_until(SimTime::from_ns(60)).unwrap();
        assert_eq!(k.peek(s), final_count);
        assert_eq!(k.stats(), final_stats);

        // And restore into a freshly elaborated copy of the same model.
        let (mut k2, s2) = build();
        k2.run_until(SimTime::from_ns(25)).unwrap();
        k2.restore_checkpoint(&cp).unwrap();
        k2.run_until(SimTime::from_ns(60)).unwrap();
        assert_eq!(k2.peek(s2), final_count);
    }

    #[test]
    fn checkpoint_requires_quiescence() {
        let mut k = Kernel::new();
        let s = k.signal("s", 0i32);
        k.run_until(SimTime::ZERO).unwrap();
        k.poke(s, 1); // pending update: the instant has not settled
        assert!(matches!(
            k.checkpoint(),
            Err(KernelError::NotQuiescent { .. })
        ));
        k.run_until(SimTime::from_ns(1)).unwrap();
        assert!(k.checkpoint().is_ok());
    }

    #[test]
    fn restore_validates_structure_and_types() {
        let mut a = Kernel::new();
        a.signal("x", 0u32);
        a.run_until(SimTime::ZERO).unwrap();
        let cp = a.checkpoint().unwrap();

        let mut wrong_count = Kernel::new();
        assert!(matches!(
            wrong_count.restore_checkpoint(&cp),
            Err(KernelError::UnknownHandle { kind: "signal", .. })
        ));

        let mut wrong_type = Kernel::new();
        wrong_type.signal("x", 0.0f64);
        assert!(matches!(
            wrong_type.restore_checkpoint(&cp),
            Err(KernelError::TypeMismatch { .. })
        ));
        // Failed restores leave the kernel untouched.
        assert_eq!(wrong_type.now(), SimTime::ZERO);
    }

    #[test]
    fn string_signals_work() {
        let mut k = Kernel::new();
        let s = k.signal("mode", String::from("idle"));
        k.poke(s, String::from("run"));
        k.run_until(SimTime::from_ns(1)).unwrap();
        assert_eq!(k.peek(s), "run");
    }
}
