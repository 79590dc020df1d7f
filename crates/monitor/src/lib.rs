//! # ams-monitor — streaming temporal assertions over analog waveforms
//!
//! The paper's validation objective (designers must be able to *check*
//! mixed-signal behavior at the system level, not just plot it) needs a
//! layer that watches every waveform as it streams out of a solver and
//! renders a machine-checkable verdict. This crate is that layer: a
//! small property language ([`Property`], parsed from text by
//! [`MonitorSpec::parse`]) compiled into incremental **O(1)-per-sample
//! monitor automata** ([`Monitor`], grouped into a [`MonitorBank`]).
//!
//! Monitors follow the `ams-scope` hook discipline: no sample is ever
//! buffered — each automaton folds its state as samples arrive, so an
//! attached bank costs a few comparisons per accepted solver step and a
//! detached one costs a single branch. Violations latch the **first**
//! witness point (simulated time + offending value) and carry stable
//! diagnostic codes (`MON001`–`MON009`, see [`codes`]) that are
//! registry-synced with `DESIGN.md` exactly like the `ams-lint` codes.
//!
//! The crate is dependency-free by design: `ams-net` attaches banks to
//! MNA node probes, `ams-core` to TDF signals, and `ams-sweep` folds
//! per-scenario [`Verdict`]s into its reports — none of which this
//! crate needs to know about.
//!
//! # Example
//!
//! ```
//! use ams_monitor::{MonitorBank, MonitorSpec, Verdict};
//!
//! let spec = MonitorSpec::parse(
//!     "settled:settle(lo=0.9,hi=1.1,by=4.0)@out;\
//!      no_over:overshoot(max=1.3)@out",
//! )
//! .unwrap();
//! let mut bank = MonitorBank::new(&spec);
//!
//! // Feed a step response: rises, overshoots to 1.2, settles to 1.0.
//! for k in 0..100u32 {
//!     let t = f64::from(k) * 0.1;
//!     let v = 1.0 + 0.2 * (-t).exp() * (4.0 * t).cos();
//!     bank.feed(0, t, v);
//! }
//! let verdicts = bank.finish();
//! assert!(verdicts.iter().all(Verdict::is_pass));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod codes;
pub mod monitor;
pub mod property;

pub use bank::MonitorBank;
pub use monitor::{Monitor, Verdict};
pub use property::{MonitorSpec, Property, PropertySpec};
