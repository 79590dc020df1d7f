//! Simulation-as-a-service for SystemC-AMS models.
//!
//! The DATE 2003 paper's speed argument (§3: statically scheduled
//! dataflow "can be implemented very efficiently") is about one run.
//! This crate amortizes across *many* runs: a long-lived daemon keeps
//! per-topology artifacts warm — the elaborated [`Circuit`](ams_net::Circuit), its
//! `ams-lint` verdict, and the sparse symbolic LU factor — so a repeat
//! job over a known topology pays **zero** lint passes and **zero**
//! symbolic analyses, only numeric work. Layers:
//!
//! * [`model`] — the declarative wire model: [`CircuitSpec`] /
//!   [`JobSpec`] describe a netlist, parameter binds, probes and a
//!   sweep as data (closures cannot travel over a socket), with
//!   deterministic JSON round-trips and a stable topology fingerprint;
//! * [`cache`] — [`TopologyCache`], an LRU over topology fingerprints
//!   with a byte budget, caching positive *and* negative lint verdicts
//!   and warm symbolic factors;
//! * [`sched`] — tenant quotas ([`TenantConfig`]) and weighted fair
//!   queuing across tenants;
//! * [`handle`] — [`ServeHandle`], the in-process service: submit /
//!   status / poll / wait / cancel / suspend / resume / metrics /
//!   shutdown, a dispatcher thread leasing worker slots from an
//!   [`ams_exec::SlotPool`], and per-job threads running `ams-sweep`
//!   batches (4-lane bundles once a job has two scenarios) with
//!   cooperative cancellation at bundle boundaries.
//!   A suspended job keeps its completed scenarios in its record; the
//!   resumed job re-runs only the remainder and its report
//!   fingerprints identically to an uninterrupted run;
//! * [`protocol`] — the newline-delimited JSON request/response mapping
//!   used over TCP (and directly testable without a socket);
//! * [`daemon`] — the accept loop over `std::net::TcpListener`, with
//!   graceful drain on SIGTERM ([`signal`]) or a `shutdown` request.
//!
//! Authority is capability-style: tenants and jobs are addressed by
//! unforgeable random tokens minted from the daemon's secret seed, and
//! every job operation requires the pair (tenant token, job token) to
//! match — a tenant can only reference what it submitted.
//!
//! # Example
//!
//! ```
//! use ams_serve::{JobSpec, ServeConfig, ServeHandle, TenantConfig};
//!
//! let handle = ServeHandle::start(ServeConfig {
//!     workers: 2,
//!     ..ServeConfig::default()
//! });
//! let admin = handle.admin_token().to_string();
//! let tenant = handle
//!     .register_tenant(&admin, TenantConfig::named("lab"))
//!     .unwrap();
//! let job = handle
//!     .submit(&tenant, JobSpec::demo_rc(8, 0x5EED))
//!     .unwrap();
//! let report = handle.wait(&tenant, &job).unwrap();
//! assert_eq!(report.scenarios.len(), 8);
//! handle.shutdown();
//! handle.join();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod cache;
pub mod daemon;
pub mod handle;
pub mod model;
pub mod protocol;
pub mod sched;
pub mod signal;

pub use cache::TopologyCache;
pub use daemon::serve;
pub use handle::{JobState, JobStatus, ScenarioEvent, ServeHandle};
pub use model::{
    BindTarget, CircuitSpec, ElementKindSpec, ElementSpec, JobSpec, MetricSpec, ParamBind,
    ProbeKind, SweepDecl, WaveSpec,
};
pub use sched::{ServeConfig, TenantConfig};

/// Failures of the service layer. Simulation-level failures are carried
/// through from [`ams_sweep::SweepError`]; the rest are admission,
/// authority and protocol outcomes with distinct wire codes (see
/// [`ServeError::code`]).
#[derive(Debug)]
pub enum ServeError {
    /// A malformed specification or request.
    Invalid(String),
    /// Unknown or mismatched token: the caller does not hold the
    /// authority it claimed. Deliberately unspecific about *why*.
    Auth,
    /// The tenant's submit queue is full; retry after draining. The
    /// acceptor never blocks on a full queue.
    Backpressure,
    /// The tenant or admin operation conflicts with a quota.
    Quota(String),
    /// The daemon is draining and accepts no new work.
    Shutdown,
    /// The underlying sweep failed (lint gate, scenario failure, …).
    Sweep(ams_sweep::SweepError),
    /// An asynchronous job ended in failure; the payload is the
    /// rendered cause (possibly replayed from a cached lint verdict).
    Failed(String),
    /// The job was cancelled before completion.
    Cancelled,
    /// A request line exceeded the daemon's line cap (the payload, in
    /// bytes); the daemon answers once and closes the connection.
    TooLarge(usize),
}

impl ServeError {
    pub(crate) fn invalid(msg: impl Into<String>) -> ServeError {
        ServeError::Invalid(msg.into())
    }

    /// Stable machine-readable code used in wire responses.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Invalid(_) => "invalid",
            ServeError::Auth => "auth",
            ServeError::Backpressure => "backpressure",
            ServeError::Quota(_) => "quota",
            ServeError::Shutdown => "shutdown",
            ServeError::Sweep(_) => "sweep",
            ServeError::Failed(_) => "failed",
            ServeError::Cancelled => "cancelled",
            ServeError::TooLarge(_) => "too_large",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Auth => write!(f, "unknown or mismatched token"),
            ServeError::Backpressure => write!(f, "queue full, retry later"),
            ServeError::Quota(msg) => write!(f, "quota violation: {msg}"),
            ServeError::Shutdown => write!(f, "service is shutting down"),
            ServeError::Sweep(e) => write!(f, "sweep failed: {e}"),
            ServeError::Failed(msg) => write!(f, "job failed: {msg}"),
            ServeError::Cancelled => write!(f, "job cancelled"),
            ServeError::TooLarge(cap) => write!(f, "request line longer than {cap} bytes"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ams_sweep::SweepError> for ServeError {
    fn from(e: ams_sweep::SweepError) -> ServeError {
        match e {
            ams_sweep::SweepError::Cancelled => ServeError::Cancelled,
            other => ServeError::Sweep(other),
        }
    }
}
