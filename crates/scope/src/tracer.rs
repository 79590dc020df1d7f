//! Span/event recording.
//!
//! A [`Tracer`] is a single-owner event recorder: the component that
//! owns it (a kernel, a cluster, a transient solver, an execution
//! coordinator) writes [`TraceEvent`]s into a plain `Vec` — lock-free
//! because nothing else can touch it — and hands the buffer over at
//! collection time. The disabled state is a `None`: every hook costs
//! exactly one branch, no allocation, no atomics.
//!
//! Each tracer becomes one *track* of a [`ScopeTrace`]; begin/end pairs
//! recorded by one tracer are well nested by construction, which is
//! what lets the Chrome exporter emit them without any cross-buffer
//! reordering (and therefore deterministically).

use std::time::Instant;

/// What a span or instant event describes. The set covers every hot
/// path of the stack, from the DE kernel down to the sparse LU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// One delta cycle of the DE kernel (instant; `arg` = number of
    /// process activations).
    DeltaCycle = 0,
    /// One schedule iteration of a TDF cluster (span; `arg` =
    /// iteration index).
    ClusterIteration = 1,
    /// MNA matrix assembly (span).
    MnaAssemble = 2,
    /// MNA factorization — dense LU or sparse numeric/symbolic (span).
    MnaFactor = 3,
    /// MNA forward/backward substitution (span).
    MnaSolve = 4,
    /// One converged Newton solve (instant; `arg` = iterations spent).
    NewtonIteration = 5,
    /// An accepted adaptive step (instant; `arg` = step size `h` as
    /// `f64` bits).
    StepAccept = 6,
    /// A rejected adaptive step (instant; `arg` = step size `h` as
    /// `f64` bits).
    StepReject = 7,
    /// One sweep scenario (span; `arg` = scenario index).
    Scenario = 8,
    /// User-defined (instant or span; `arg` free).
    Custom = 9,
    /// One wire request handled by the `ams-serve` daemon (span; `arg`
    /// = request ordinal on the connection).
    ServeRequest = 10,
    /// One `ams-serve` job from admission to completion (span; `arg` =
    /// job sequence number).
    ServeJob = 11,
    /// One sweep-space abstract-interpretation pass (span; `arg` =
    /// number of scenarios in the batch it fronts).
    SpaceLint = 12,
    /// Solver-state checkpoint activity: a shared-prefix run, a state
    /// capture or a restore (span for prefix runs, instant for
    /// capture/restore; `arg` = forks served or checkpoint bytes).
    Checkpoint = 13,
    /// One monitor verdict rendered after a scenario (instant; `arg` =
    /// property index `<< 8 | ` violation-code number, `0` for a pass,
    /// timestamped with the witness point's simulated time).
    Monitor = 14,
}

impl SpanKind {
    /// All kinds, in discriminant order.
    pub const ALL: [SpanKind; 15] = [
        SpanKind::DeltaCycle,
        SpanKind::ClusterIteration,
        SpanKind::MnaAssemble,
        SpanKind::MnaFactor,
        SpanKind::MnaSolve,
        SpanKind::NewtonIteration,
        SpanKind::StepAccept,
        SpanKind::StepReject,
        SpanKind::Scenario,
        SpanKind::Custom,
        SpanKind::ServeRequest,
        SpanKind::ServeJob,
        SpanKind::SpaceLint,
        SpanKind::Checkpoint,
        SpanKind::Monitor,
    ];

    /// Stable display name, used as the Chrome event name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::DeltaCycle => "de.delta",
            SpanKind::ClusterIteration => "tdf.iteration",
            SpanKind::MnaAssemble => "mna.assemble",
            SpanKind::MnaFactor => "mna.factor",
            SpanKind::MnaSolve => "mna.solve",
            SpanKind::NewtonIteration => "newton.solve",
            SpanKind::StepAccept => "step.accept",
            SpanKind::StepReject => "step.reject",
            SpanKind::Scenario => "sweep.scenario",
            SpanKind::Custom => "custom",
            SpanKind::ServeRequest => "serve.request",
            SpanKind::ServeJob => "serve.job",
            SpanKind::SpaceLint => "lint.space",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Monitor => "monitor",
        }
    }

    /// The kind's position in [`SpanKind::ALL`]; report tables are
    /// indexed by it.
    pub(crate) fn index(self) -> u8 {
        self as u8
    }
}

/// Packs a sweep scenario index and its lane width into one
/// [`SpanKind::Scenario`] span payload. Scalar scenarios (`lanes <= 1`)
/// keep the plain index — scalar traces stay byte-identical to exports
/// from before lane batching existed — while lane bundles carry the
/// width in the high 16 bits (indices keep the low 48).
pub fn scenario_arg(index: u64, lanes: usize) -> u64 {
    if lanes <= 1 {
        index
    } else {
        debug_assert!(index < 1 << 48, "scenario index overflows the lane packing");
        index | ((lanes as u64) << 48)
    }
}

/// Splits a [`SpanKind::Scenario`] span payload into
/// `(scenario index, lane width)`; the lane width is 1 for scalar spans.
pub fn scenario_arg_parts(arg: u64) -> (u64, usize) {
    let lanes = (arg >> 48) as usize;
    if lanes == 0 {
        (arg, 1)
    } else {
        (arg & ((1 << 48) - 1), lanes)
    }
}

/// Whether an event opens a span, closes one, or stands alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Opens a span.
    Begin = 0,
    /// Closes the innermost open span of the same kind.
    End = 1,
    /// A point event.
    Instant = 2,
}

/// One recorded event: a span boundary or an instant, stamped with both
/// simulated time (femtoseconds) and wall time (nanoseconds since the
/// owning tracer was enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What the event describes.
    pub kind: SpanKind,
    /// Span boundary or instant.
    pub phase: Phase,
    /// Simulated time in femtoseconds.
    pub t_sim_fs: u64,
    /// Wall-clock nanoseconds since the owning tracer's epoch. Only
    /// comparable within one tracer; never exported to the trace file.
    pub wall_ns: u64,
    /// Kind-specific payload (see [`SpanKind`] variants).
    pub arg: u64,
}

/// The enabled state: an event buffer plus the wall-clock epoch.
#[derive(Debug, Clone)]
struct TracerCore {
    events: Vec<TraceEvent>,
    epoch: Instant,
}

/// A single-owner span recorder. Disabled by default; every recording
/// method is one branch when disabled.
///
/// ```
/// use ams_scope::{SpanKind, Tracer};
///
/// let mut off = Tracer::off();
/// off.instant(SpanKind::DeltaCycle, 0, 1); // no-op, one branch
/// assert!(!off.is_enabled());
///
/// let mut on = Tracer::on();
/// on.begin(SpanKind::MnaFactor, 10);
/// on.end(SpanKind::MnaFactor, 10);
/// assert_eq!(on.take_events().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Box<TracerCore>>);

impl Tracer {
    /// A disabled tracer: records nothing, costs one branch per hook.
    pub const fn off() -> Tracer {
        Tracer(None)
    }

    /// An enabled tracer with an empty buffer; the wall-clock epoch
    /// starts now.
    pub fn on() -> Tracer {
        Tracer(Some(Box::new(TracerCore {
            events: Vec::new(),
            epoch: Instant::now(),
        })))
    }

    /// Enables or disables recording. Enabling an enabled tracer keeps
    /// its buffer; disabling drops any recorded events.
    pub fn set_enabled(&mut self, enabled: bool) {
        match (enabled, self.0.is_some()) {
            (true, false) => *self = Tracer::on(),
            (false, true) => self.0 = None,
            _ => {}
        }
    }

    /// `true` when events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span of `kind` at simulated time `t_sim_fs`.
    #[inline]
    pub fn begin(&mut self, kind: SpanKind, t_sim_fs: u64) {
        if let Some(core) = &mut self.0 {
            core.record(kind, Phase::Begin, t_sim_fs, 0);
        }
    }

    /// Closes the innermost open span of `kind` at `t_sim_fs`.
    #[inline]
    pub fn end(&mut self, kind: SpanKind, t_sim_fs: u64) {
        if let Some(core) = &mut self.0 {
            core.record(kind, Phase::End, t_sim_fs, 0);
        }
    }

    /// Closes a span and attaches a payload to the closing event.
    #[inline]
    pub fn end_with(&mut self, kind: SpanKind, t_sim_fs: u64, arg: u64) {
        if let Some(core) = &mut self.0 {
            core.record(kind, Phase::End, t_sim_fs, arg);
        }
    }

    /// Records a point event with a kind-specific payload.
    #[inline]
    pub fn instant(&mut self, kind: SpanKind, t_sim_fs: u64, arg: u64) {
        if let Some(core) = &mut self.0 {
            core.record(kind, Phase::Instant, t_sim_fs, arg);
        }
    }

    /// Opens a span with a payload on the opening event (e.g. the
    /// scenario index of a [`SpanKind::Scenario`] span).
    #[inline]
    pub fn begin_with(&mut self, kind: SpanKind, t_sim_fs: u64, arg: u64) {
        if let Some(core) = &mut self.0 {
            core.record(kind, Phase::Begin, t_sim_fs, arg);
        }
    }

    /// Appends pre-recorded events (from a child component's tracer)
    /// into this buffer, preserving their order. No-op when disabled.
    pub fn extend(&mut self, events: Vec<TraceEvent>) {
        if let Some(core) = &mut self.0 {
            core.events.extend(events);
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |c| c.events.len())
    }

    /// `true` when no events are buffered (or the tracer is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the buffered events, leaving the tracer enabled (if it
    /// was) with an empty buffer.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.0
            .as_mut()
            .map_or_else(Vec::new, |c| std::mem::take(&mut c.events))
    }
}

impl TracerCore {
    #[inline]
    fn record(&mut self, kind: SpanKind, phase: Phase, t_sim_fs: u64, arg: u64) {
        let wall_ns = self.epoch.elapsed().as_nanos() as u64;
        self.events.push(TraceEvent {
            kind,
            phase,
            t_sim_fs,
            wall_ns,
            arg,
        });
    }
}

/// One tracer's worth of events, attributed to a (process, thread)
/// pair of the exported trace: `process` groups tracks that ran on the
/// same OS thread or shard ("coordinator", "worker-0", "shard-1"),
/// `thread` names the component ("kernel", "rc/solver", "scenarios").
#[derive(Debug, Clone, PartialEq)]
pub struct TrackEvents {
    /// Process-level grouping (worker or shard identity).
    pub process: String,
    /// Component name within the process.
    pub thread: String,
    /// Events in recorded order (well nested per track).
    pub events: Vec<TraceEvent>,
}

/// A deterministic collection of tracks, ready for export. Track order
/// is insertion order — collectors insert in a fixed order (coordinator
/// first, then workers by index), which the exporters preserve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScopeTrace {
    /// The tracks, in insertion order.
    pub tracks: Vec<TrackEvents>,
}

impl ScopeTrace {
    /// An empty trace.
    pub fn new() -> ScopeTrace {
        ScopeTrace::default()
    }

    /// Appends one track. Empty event lists are kept — a track with no
    /// events still names its worker in the export.
    pub fn add_track(
        &mut self,
        process: impl Into<String>,
        thread: impl Into<String>,
        events: Vec<TraceEvent>,
    ) {
        self.tracks.push(TrackEvents {
            process: process.into(),
            thread: thread.into(),
            events,
        });
    }

    /// Total events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// `true` when no track holds any event.
    pub fn is_empty(&self) -> bool {
        self.event_count() == 0
    }

    /// Moves every track of `other` to the end of this trace.
    pub fn append(&mut self, mut other: ScopeTrace) {
        self.tracks.append(&mut other.tracks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin(SpanKind::ClusterIteration, 0);
        t.instant(SpanKind::DeltaCycle, 5, 1);
        t.end(SpanKind::ClusterIteration, 10);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn enabled_tracer_records_in_order_with_monotone_wall_time() {
        let mut t = Tracer::on();
        t.begin(SpanKind::MnaAssemble, 100);
        t.end(SpanKind::MnaAssemble, 100);
        t.instant(SpanKind::StepAccept, 200, 42);
        let ev = t.take_events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].kind, SpanKind::MnaAssemble);
        assert_eq!(ev[0].phase, Phase::Begin);
        assert_eq!(ev[1].phase, Phase::End);
        assert_eq!(ev[2].arg, 42);
        assert!(ev[0].wall_ns <= ev[1].wall_ns);
        assert!(ev[1].wall_ns <= ev[2].wall_ns);
        // Buffer drained, tracer still enabled.
        assert!(t.is_enabled());
        assert!(t.is_empty());
    }

    #[test]
    fn set_enabled_round_trips_and_drops_events_when_disabled() {
        let mut t = Tracer::off();
        t.set_enabled(true);
        t.instant(SpanKind::Custom, 0, 0);
        assert_eq!(t.len(), 1);
        t.set_enabled(false);
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn extend_preserves_child_order() {
        let mut child = Tracer::on();
        child.begin(SpanKind::MnaFactor, 1);
        child.end(SpanKind::MnaFactor, 2);
        let mut parent = Tracer::on();
        parent.begin_with(SpanKind::Scenario, 0, 7);
        parent.extend(child.take_events());
        parent.end(SpanKind::Scenario, 3);
        let ev = parent.take_events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].kind, SpanKind::Scenario);
        assert_eq!(ev[1].kind, SpanKind::MnaFactor);
        assert_eq!(ev[3].phase, Phase::End);
    }

    #[test]
    fn kind_indices_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::ALL[kind.index() as usize], kind);
        }
    }

    #[test]
    fn scenario_arg_round_trips_and_keeps_scalar_args_plain() {
        // Scalar spans: the arg IS the index, bit-for-bit.
        assert_eq!(scenario_arg(42, 1), 42);
        assert_eq!(scenario_arg(42, 0), 42);
        assert_eq!(scenario_arg_parts(42), (42, 1));
        // Lane spans pack the width into the high bits.
        for lanes in [4usize, 8, 16] {
            let arg = scenario_arg(1234, lanes);
            assert_ne!(arg, 1234);
            assert_eq!(scenario_arg_parts(arg), (1234, lanes));
        }
        assert_eq!(scenario_arg_parts(scenario_arg(0, 8)), (0, 8));
    }

    #[test]
    fn trace_counts_events_across_tracks() {
        let mut trace = ScopeTrace::new();
        trace.add_track("coordinator", "exec", Vec::new());
        let mut t = Tracer::on();
        t.instant(SpanKind::Custom, 0, 0);
        trace.add_track("worker-0", "cluster", t.take_events());
        assert_eq!(trace.event_count(), 1);
        assert!(!trace.is_empty());
        assert_eq!(trace.tracks[0].process, "coordinator");
    }
}
