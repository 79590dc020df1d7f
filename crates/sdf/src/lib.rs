//! Synchronous dataflow (SDF): rate analysis and static scheduling.
//!
//! "The dataflow (DF) MoC views a system as a directed graph where the
//! vertices represent computations and the edges represent totally ordered
//! sequences (or streams) of tokens. In the particular case of static or
//! synchronous dataflow (SDF), the scheduling of the operations is static"
//! (paper §3). This crate provides:
//!
//! * [`SdfGraph`] — topology with production/consumption rates and
//!   initial tokens (delays);
//! * [`SdfGraph::repetition_vector`] — the balance equations solved with
//!   exact rational arithmetic, with consistency checking (the solver
//!   itself, [`solve_balance`], also takes a plain edge list);
//! * [`schedule`] — periodic admissible sequential schedule construction
//!   with deadlock detection.
//!
//! The crate runs nothing itself. `ams-core` schedules every timed-dataflow
//! cluster with it and compiles that order into its firing plan, and
//! `ams-lint` predicts the same rate and deadlock failures before
//! elaboration.
//!
//! # Example
//!
//! ```
//! use ams_sdf::{schedule, SdfGraph};
//!
//! # fn main() -> Result<(), ams_sdf::SdfError> {
//! let mut g = SdfGraph::new();
//! let src = g.add_actor("src");
//! let fir = g.add_actor("fir");
//! let dec = g.add_actor("decimate");
//! g.connect(src, 1, fir, 1, 0)?;
//! g.connect(fir, 1, dec, 8, 0)?; // 8:1 decimation
//! let s = schedule(&g)?;
//! assert_eq!(s.repetition_vector(), &[8, 8, 1]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
mod schedule;

pub use error::SdfError;
pub use graph::{solve_balance, ActorId, EdgeId, EdgeInfo, SdfGraph};
pub use schedule::{schedule, Schedule};
