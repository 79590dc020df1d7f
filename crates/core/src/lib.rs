//! SystemC-AMS core: the timed dataflow (TDF) model of computation and
//! the DE↔CT synchronization layer.
//!
//! This crate is the Rust realization of the primary contribution of
//! *"SystemC-AMS Requirements, Design Objectives and Rationale"*
//! (DATE 2003): analog/mixed-signal extensions layered on a SystemC-style
//! discrete-event kernel. It provides
//!
//! * [`TdfModule`] — the module lifecycle (`setup` → `initialize` →
//!   `processing` → optional `ac_processing`), the paper's "continuous
//!   behaviour encapsulated in static dataflow modules";
//! * [`TdfGraph`] / [`Cluster`] — signal-flow graphs, elaborated with
//!   exact balance-equation scheduling, timestep propagation and
//!   consistency checks (via `ams-sdf`);
//! * [`AmsSimulator`] — the synchronization layer: clusters with
//!   converter ports ([`TdfGraph::from_de`], [`TdfGraph::to_de`]) run
//!   as DE processes at their period and exchange values with kernel
//!   signals; clusters without them never meet the kernel and run on
//!   up to [`AmsSimulator::with_workers`] threads;
//! * [`CtSolver`] — the open solver-coupling architecture (O8), with
//!   bundled [`LtiCtSolver`] (linear state-space) and [`NetlistCtSolver`]
//!   (conservative-law MNA) plug-ins and the [`CtModule`] embedding;
//! * [`Cluster::ac_analysis`] — small-signal frequency-domain analysis
//!   derived from the same module graph, including feedback loops.
//!
//! # Example
//!
//! A continuous RC filter embedded in a TDF cluster, driven from and
//! observed by the discrete-event world:
//!
//! ```
//! use ams_core::{AmsSimulator, CtModule, LtiCtSolver, TdfGraph};
//! use ams_kernel::SimTime;
//! use ams_lti::{Discretization, TransferFunction};
//!
//! # fn main() -> Result<(), ams_core::CoreError> {
//! let mut sim = AmsSimulator::new();
//! let de_in = sim.kernel_mut().signal("stimulus", 1.0f64);
//! let de_out = sim.kernel_mut().signal("filtered", 0.0f64);
//!
//! let mut g = TdfGraph::new("rc");
//! let u = g.from_de("u", de_in);
//! let y = g.signal("y");
//! let tf = TransferFunction::low_pass1(1000.0).map_err(|e| ams_core::CoreError::solver("tf", e))?;
//! let solver = LtiCtSolver::from_transfer_function(&tf, Discretization::Zoh)?;
//! g.add_module(
//!     "rc",
//!     CtModule::new("rc", Box::new(solver), vec![u.reader()], vec![y.writer()],
//!                   Some(SimTime::from_us(10))),
//! );
//! g.to_de("y_conv", y, de_out);
//! sim.add_cluster(g)?;
//! sim.run_until(SimTime::from_ms(5))? ; // 5 τ
//! assert!((sim.kernel().peek(de_out) - 1.0).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod error;
mod module;
mod port;
pub mod shared;
mod sim;
mod solver;

pub use cluster::{
    Cluster, ClusterCheckpoint, ClusterStats, ModuleId, TdfAcResult, TdfGraph, TdfProbe,
};
pub use error::CoreError;
pub use module::{AcIo, TdfInit, TdfIo, TdfModule, TdfSetup};
pub use port::{TdfIn, TdfOut, TdfSignal};
pub use shared::{SampleQueue, SharedSample};
pub use sim::{AmsSimulator, ClusterHandle};
pub use solver::{CtModule, CtSolver, LtiCtSolver, NetlistCtSolver};
