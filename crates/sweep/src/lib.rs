//! Batched multi-scenario simulation: parameter sweeps, corner
//! analysis and Monte Carlo over one AMS model.
//!
//! The DATE 2003 paper motivates SystemC-AMS with *simulation speed*:
//! analog verification is dominated not by one long run but by **many
//! short variants** of the same model — process corners, component
//! tolerances, stimulus variations. This crate turns that workload into
//! a first-class batch job:
//!
//! * [`SweepSpec`] enumerates scenarios — full-factorial grids
//!   ([`SweepSpec::grid`]), explicit rows ([`SweepSpec::list`]) or
//!   Monte-Carlo samples ([`SweepSpec::monte_carlo`]) — each with a
//!   deterministic per-scenario PRNG seed derived only from the base
//!   seed and the scenario index;
//! * [`NetlistSweep`] runs transient analyses of value-variants of one
//!   [`Circuit`](ams_net::Circuit). Scenarios share the topology, so
//!   the sparse **symbolic analysis is paid once** and adopted by every
//!   sibling engine
//!   ([`adopt_symbolic_factor`](ams_net::Transient::adopt_symbolic_factor))
//!   — per-scenario
//!   cost drops to numeric refactorization;
//! * [`TdfSweep`] runs variants of one TDF cluster, elaborating the
//!   graph **once per worker** and replaying scenarios through
//!   [`Cluster::reset`](ams_core::Cluster::reset) instead of
//!   re-elaborating;
//! * the `ams-lint` gate runs **once per topology**, not per scenario;
//! * results come back with each shard's join into a
//!   [`SweepReport`]: per-scenario metric rows, min/max/mean/percentile
//!   summaries, worst-case scenario identification, and aggregated
//!   solver counters.
//!
//! # Determinism
//!
//! Scenario seeds, scheduling (a round-robin deal over shards) and the
//! shared symbolic factor are all computed on the coordinator from the
//! spec alone. The same spec therefore produces a **bit-identical**
//! [`SweepReport`] (compare [`SweepReport::fingerprint`]) regardless of
//! the worker count.
//!
//! # Example
//!
//! ```
//! use ams_net::{Circuit, IntegrationMethod};
//! use ams_sweep::{NetlistSweep, SweepSpec};
//!
//! // RC low-pass template; sweep R over a 3x corner grid.
//! let mut ckt = Circuit::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.voltage_source("V", inp, Circuit::GROUND, 1.0).unwrap();
//! let r = ckt.resistor("R", inp, out, 1e3).unwrap();
//! ckt.capacitor("C", out, Circuit::GROUND, 1e-9).unwrap();
//!
//! let spec = SweepSpec::grid(&[("r", &[0.5e3, 1e3, 2e3])], 42).unwrap();
//! let report = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
//!     .fixed_step(5e-6, 1e-8)
//!     .run(
//!         &spec,
//!         2,
//!         &["v_out"],
//!         |ckt, sc| ckt.set_resistance(r, sc.value("r")),
//!         |tr, m| m[0] = tr.voltage(out),
//!     )
//!     .unwrap();
//! let s = report.summary("v_out").unwrap();
//! assert_eq!(s.count, 3);
//! assert!(s.min > 0.99); // all corners settle near 1 V
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod json;
pub mod netlist;
mod options;
pub mod report;
pub mod spec;
pub mod tdf;

pub use netlist::{FactorSink, NetlistSweep, ProgressFn, RunMode};
// Re-exported because [`ScenarioResult::stats`], and with it every
// [`ProgressFn`] call, carries it.
pub use ams_core::ClusterStats;
// Re-exported because monitor specs and verdicts appear in the sweep
// builder and report surfaces.
pub use ams_monitor::{MonitorSpec, Verdict};
pub use report::{MetricSummary, MonitorSummary, ScenarioResult, SweepReport};
pub use spec::{Scenario, SweepSpec};
pub use tdf::{LaneSweepModel, SweepModel, TdfSweep};

use ams_lint::LintReport;
use ams_net::NetError;
use std::fmt;
// Under the `loom` feature the token is rebuilt on model-checked
// atomics so `tests/loom_cancel.rs` can explore its interleavings.
#[cfg(feature = "loom")]
use loom::sync::atomic::{AtomicBool, Ordering};
#[cfg(feature = "loom")]
use loom::sync::Arc;
#[cfg(not(feature = "loom"))]
use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(not(feature = "loom"))]
use std::sync::Arc;

/// A cooperative cancellation flag shared between a sweep run and its
/// controller (another thread, a service scheduler, a signal handler).
///
/// Sweeps check the token **at scenario boundaries** (bundle boundaries
/// in a lane run): a cancelled run finishes the scenarios currently in
/// flight (at most one bundle per worker), skips everything else and
/// returns [`SweepError::Cancelled`]. The
/// token is one atomic flag — clone it freely, set it from anywhere.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Errors surfaced by a sweep run.
#[derive(Debug)]
pub enum SweepError {
    /// The topology failed the pre-sweep lint gate (policy-denied
    /// diagnostics). The whole batch is rejected before any scenario
    /// runs.
    Lint(LintReport),
    /// A scenario's simulation failed; the payload says which one.
    Scenario {
        /// Index of the failing scenario.
        index: usize,
        /// The underlying failure, rendered.
        reason: String,
    },
    /// A netlist-level failure outside any single scenario (template
    /// validation, DC operating point of the shared topology, …).
    Net(NetError),
    /// A TDF-level failure outside any single scenario (elaboration of
    /// the shared graph).
    Core(ams_core::CoreError),
    /// The sweep specification itself was malformed.
    Invalid(String),
    /// The run was cancelled through its [`CancelToken`] before every
    /// scenario completed. Scenarios already finished are discarded;
    /// cancellation is a control-flow outcome, not a partial report.
    Cancelled,
}

impl SweepError {
    pub(crate) fn invalid(msg: impl Into<String>) -> SweepError {
        SweepError::Invalid(msg.into())
    }

    pub(crate) fn scenario(index: usize, err: impl fmt::Display) -> SweepError {
        SweepError::Scenario {
            index,
            reason: err.to_string(),
        }
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Lint(report) => write!(
                f,
                "sweep topology rejected by lint ({} error(s)):\n{}",
                report.error_count(),
                report.render()
            ),
            SweepError::Scenario { index, reason } => {
                write!(f, "scenario #{index} failed: {reason}")
            }
            SweepError::Net(e) => write!(f, "netlist error: {e}"),
            SweepError::Core(e) => write!(f, "TDF error: {e}"),
            SweepError::Invalid(msg) => write!(f, "invalid sweep: {msg}"),
            SweepError::Cancelled => write!(f, "sweep cancelled"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<NetError> for SweepError {
    fn from(e: NetError) -> Self {
        SweepError::Net(e)
    }
}

impl From<ams_core::CoreError> for SweepError {
    fn from(e: ams_core::CoreError) -> Self {
        SweepError::Core(e)
    }
}
