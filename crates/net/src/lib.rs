//! Conservative-law network modeling and simulation via Modified Nodal
//! Analysis (MNA).
//!
//! Implements the paper's design objective O5 ("SystemC-AMS must support
//! the description and the simulation of continuous-time systems as
//! conservative-law models") and the O7 netlist description layer:
//!
//! * [`Circuit`] — netlist construction: R, L, C, independent sources
//!   (DC/sine/pulse/externally-driven), all four controlled sources,
//!   Shockley diodes and externally controlled switches;
//! * [`DcSolution`] — DC operating point (Newton with junction limiting,
//!   gmin stepping and source stepping) — the paper's "consistent initial
//!   (quiescent) state";
//! * [`Transient`] — the one transient engine: companion-model time
//!   stepping (backward Euler / trapezoidal), a factor-once linear fast
//!   path ("such networks can be simulated using efficient dedicated
//!   algorithms", §3), per-step Newton for nonlinear networks,
//!   LTE-controlled variable steps (phase 2), checkpoints and monitor
//!   taps. It is generic over the lane scalar: [`TransientSolver`] is the
//!   `f64` instance (one circuit), [`LaneTransientSolver`] the
//!   `ams_math::F64xK` instance (`K` parameter corners of one topology
//!   advanced in lockstep through assembly, sparse LU and Newton);
//! * [`Circuit::ac_sweep`] / [`Circuit::noise_analysis`] — small-signal
//!   frequency-domain and noise analyses derived from the same netlist;
//! * [`Multiphysics`] — discipline-typed mechanical (translational &
//!   rotational) and thermal element libraries over the same conservative
//!   core (phase 3), including a DC-machine electro-mechanical coupling.
//!
//! # Example
//!
//! ```
//! use ams_net::Circuit;
//!
//! # fn main() -> Result<(), ams_net::NetError> {
//! let mut ckt = Circuit::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.voltage_source_ac("V1", inp, Circuit::GROUND, 0.0, 1.0)?;
//! ckt.resistor("R1", inp, out, 1_000.0)?;
//! ckt.capacitor("C1", out, Circuit::GROUND, 1e-6)?;
//! let op = ckt.dc_operating_point()?;
//! let h = ckt.ac_transfer(&op, out, &[159.15])?; // at the pole
//! assert!((h[0].abs() - 0.7071).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod assembly;
pub mod checkpoint;
mod circuit;
mod dcop;
mod devices;
mod error;
mod mna;
mod multiphys;
mod noise;
mod pattern;
mod transient;

pub use ac::AcSolution;
pub use assembly::SolverBackend;
pub use checkpoint::Checkpoint;
pub use circuit::{Circuit, Element, ElementId, ElementKind, InputId, NodeId, Waveform};
pub use dcop::DcSolution;
pub use error::NetError;
pub use multiphys::{MechNode, Multiphysics, RotNode, ThermalNode};
pub use noise::{
    NoiseAnalysis, NoiseContribution, NoisePoint, BOLTZMANN, ELEMENTARY_CHARGE, NOISE_TEMP,
};
pub use pattern::StampPattern;
pub use transient::{
    AdaptiveOptions, IntegrationMethod, LaneSymbolicFactor, LaneTransientSolver, LaneView,
    ScenarioProbe, SymbolicFactor, Transient, TransientSolver, TransientStats,
};
