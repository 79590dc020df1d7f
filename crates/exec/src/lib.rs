//! Execution accounting shared by the batch layers of the SystemC-AMS
//! stack.
//!
//! Parallel co-simulation itself lives in `ams_core::AmsSimulator`
//! (`with_workers`): clusters without converter ports never meet the
//! DE kernel, so they run beside it on scoped threads. This crate keeps
//! the two pieces the sweep and service layers share:
//!
//! * [`stats`] — [`ExecStats`], the aggregate of a batch run: per-item
//!   cluster counters (embedded-solver Newton/factorization totals
//!   folded in), per-phase wall time and lint counts;
//! * [`slots`] — a [`SlotPool`] counting semaphore over the worker
//!   budget, letting admission schedulers (e.g. `ams-serve`) lease
//!   cores to concurrent jobs without oversubscription.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod slots;
pub mod stats;

pub use slots::{SlotLease, SlotPool};
pub use stats::ExecStats;
