//! # ams-scope — unified tracing, metrics and profiling
//!
//! The paper's efficiency objectives (O5/O7: simulation speed, support
//! for analyses) are only verifiable if a run can show *where* time and
//! solver effort go. This crate is the substrate every other crate
//! reports into: a span/event tracer, a metrics registry, and exporters
//! — always compiled, but **zero-cost when disabled** (one branch per
//! hook, no allocation, no atomics).
//!
//! Three pillars:
//!
//! * **Spans and events** ([`Tracer`], [`TraceEvent`], [`SpanKind`]):
//!   scoped spans for delta cycles, cluster activations, sweep
//!   scenarios, MNA assemble/factor/solve, Newton iterations and adaptive-step
//!   accept/reject, each carrying *simulated* time (in femtoseconds)
//!   and wall time. Every tracer is single-owner, so the per-worker
//!   buffers are lock-free by construction; a buffer that must cross
//!   threads travels with its owner.
//! * **Metrics** ([`MetricsRegistry`], [`Histogram`]): named counters,
//!   gauges and HDR-style log-bucket histograms (pure Rust, no deps)
//!   for step sizes, Newton iteration counts and refactorizations.
//!   The `ExecStats`/`SolveStats`
//!   aggregates of the execution crates feed this registry.
//! * **Exporters**: Chrome `trace_event` JSON ([`chrome::export`],
//!   loadable in Perfetto / `chrome://tracing`, one track per tracer,
//!   timestamps in *simulated* time so exports are byte-identical
//!   across runs) and a human-readable [`ScopeReport`].
//!
//! # Determinism
//!
//! Chrome export uses only simulated time and the deterministic track
//! structure — wall-clock readings are confined to the profiling
//! aggregates of [`ScopeReport`]. The same model with the same seed and
//! worker count therefore produces a **byte-identical** trace file.
//!
//! # Example
//!
//! ```
//! use ams_scope::{chrome, ScopeTrace, SpanKind, Tracer};
//!
//! let mut tracer = Tracer::on();
//! tracer.begin(SpanKind::ClusterIteration, 0);
//! tracer.instant(SpanKind::NewtonIteration, 500, 3);
//! tracer.end(SpanKind::ClusterIteration, 1_000);
//!
//! let mut trace = ScopeTrace::new();
//! trace.add_track("coordinator", "exec", tracer.take_events());
//! let json = chrome::export(&trace);
//! assert!(chrome::validate(&json).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod chrome;
pub mod fnv;
pub mod json;
pub mod metrics;
pub mod report;
mod tracer;

pub use args::ScopeArgs;
pub use metrics::{Histogram, Metric, MetricsRegistry};
pub use report::ScopeReport;
pub use tracer::{
    scenario_arg, scenario_arg_parts, Phase, ScopeTrace, SpanKind, TraceEvent, Tracer, TrackEvents,
};
