//! # systemc-ams — a Rust reproduction of the SystemC-AMS framework
//!
//! This workspace reproduces the system specified by *"SystemC-AMS
//! Requirements, Design Objectives and Rationale"* (Vachoux, Grimm,
//! Einwich — DATE 2003): analog/mixed-signal modeling and simulation
//! extensions layered over a SystemC-style discrete-event kernel,
//! spanning all three development phases of the paper's roadmap. See
//! `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! experiment index.
//!
//! The facade re-exports every member crate under a stable name:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`math`] | `ams-math` | dense linear algebra, complex numbers, ODE/DAE integrators, Newton, FFT |
//! | [`kernel`] | `ams-kernel` | discrete-event kernel: time, signals, delta cycles, processes, clocks |
//! | [`sdf`] | `ams-sdf` | synchronous dataflow: balance equations, static schedules |
//! | [`lti`] | `ams-lti` | transfer functions, zero-pole, state space, discretization, Bode |
//! | [`net`] | `ams-net` | conservative-law MNA networks: DC/transient/AC/noise, multi-domain |
//! | [`lint`] | `ams-lint` | pre-elaboration static analysis: balance/cycle/topology diagnostics |
//! | [`monitor`] | `ams-monitor` | runtime verification: streaming temporal assertions, verdicts, codes |
//! | [`core`] | `ams-core` | TDF MoC, DE↔CT synchronization layer, solver plug-ins, AMS simulator |
//! | [`blocks`] | `ams-blocks` | mixed-signal block library (sources → Σ∆ → RF → power → control) |
//! | [`wave`] | `ams-wave` | VCD/CSV tracing, spectral analysis (SNR/SINAD/THD/ENOB) |
//! | [`exec`] | `ams-exec` | execution statistics and the worker-slot semaphore of batch runs |
//! | [`sweep`] | `ams-sweep` | batched multi-scenario runs: grids, corners, Monte Carlo, reports |
//! | [`scope`] | `ams-scope` | observability: span tracer, metrics registry, Chrome trace export |
//! | [`serve`] | `ams-serve` | simulation service: TCP/JSON daemon, warm topology cache, tenant quotas |
//!
//! # Quickstart
//!
//! A heterogeneous model in a dozen lines — a continuous RC filter inside
//! a timed-dataflow cluster, stimulated from and observed by the
//! discrete-event world:
//!
//! ```
//! use systemc_ams::core::{AmsSimulator, CtModule, LtiCtSolver, TdfGraph};
//! use systemc_ams::kernel::SimTime;
//! use systemc_ams::lti::{Discretization, TransferFunction};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = AmsSimulator::new();
//! let stimulus = sim.kernel_mut().signal("stimulus", 1.0f64);
//! let filtered = sim.kernel_mut().signal("filtered", 0.0f64);
//!
//! let mut graph = TdfGraph::new("rc");
//! let u = graph.from_de("u", stimulus);
//! let y = graph.signal("y");
//! let tf = TransferFunction::low_pass1(1000.0)?; // τ = 1 ms
//! let solver = LtiCtSolver::from_transfer_function(&tf, Discretization::Zoh)?;
//! graph.add_module(
//!     "rc",
//!     CtModule::new("rc", Box::new(solver), vec![u.reader()], vec![y.writer()],
//!                   Some(SimTime::from_us(10))),
//! );
//! graph.to_de("y", y, filtered);
//! sim.add_cluster(graph)?;
//! sim.run_until(SimTime::from_ms(10))?;
//! assert!((sim.kernel().peek(filtered) - 1.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ams_blocks as blocks;
pub use ams_core as core;
pub use ams_exec as exec;
pub use ams_kernel as kernel;
pub use ams_lint as lint;
pub use ams_lti as lti;
pub use ams_math as math;
pub use ams_monitor as monitor;
pub use ams_net as net;
pub use ams_scope as scope;
pub use ams_sdf as sdf;
pub use ams_serve as serve;
pub use ams_sweep as sweep;
pub use ams_wave as wave;
