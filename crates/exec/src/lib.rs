//! Parallel, instrumented execution engine for SystemC-AMS models.
//!
//! The DATE 2003 paper motivates SystemC-AMS with simulation speed:
//! dataflow clusters are statically scheduled precisely so that their
//! execution "can be implemented very efficiently" and synchronized with
//! the discrete-event kernel only at cluster-period boundaries. This
//! crate takes that loose coupling to its logical conclusion and runs
//! the clusters **concurrently**:
//!
//! * [`mod@partition`] — deterministic static partitioning: connected
//!   components of the cluster/actor coupling graph, packed onto workers
//!   by a longest-processing-time heuristic over the balance-equation
//!   cost model;
//! * [`spsc`] — wait-free single-producer/single-consumer sample rings,
//!   the transport for converter streams that cross an execution
//!   boundary;
//! * [`pool`] — persistent worker threads owning their partitions, with
//!   a barrier at every DE synchronization point;
//! * [`stats`] — the instrumentation layer: [`ExecStats`] aggregates
//!   cluster firings, embedded-solver Newton/factorization counts, FIFO
//!   high-water marks and per-phase wall time;
//! * [`slots`] — a [`SlotPool`] counting semaphore over the worker
//!   budget, letting admission schedulers (e.g. `ams-serve`) lease
//!   cores to concurrent jobs without oversubscription;
//! * [`ParallelSim`] — the façade tying it together, a drop-in analogue
//!   of `ams_core::AmsSimulator` with bit-identical observable results.
//!
//! # Example
//!
//! ```
//! use ams_core::{TdfGraph, TdfModule, TdfSetup, TdfIo, CoreError};
//! use ams_exec::ParallelSim;
//! use ams_kernel::SimTime;
//!
//! struct Osc { out: ams_core::TdfOut, k: u64 }
//! impl TdfModule for Osc {
//!     fn setup(&mut self, cfg: &mut TdfSetup) {
//!         cfg.output(self.out);
//!         cfg.set_timestep(SimTime::from_us(1));
//!     }
//!     fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
//!         io.write1(self.out, (self.k as f64 * 0.1).sin());
//!         self.k += 1;
//!         Ok(())
//!     }
//!     fn reset(&mut self) { self.k = 0; }
//! }
//!
//! # fn main() -> Result<(), CoreError> {
//! let mut sim = ParallelSim::new(4);
//! let mut probes = Vec::new();
//! for i in 0..4 {
//!     let mut g = TdfGraph::new(format!("osc{i}"));
//!     let s = g.signal("y");
//!     probes.push(g.probe(s));
//!     g.add_module("osc", Osc { out: s.writer(), k: 0 });
//!     sim.add_graph(g);
//! }
//! sim.run_until(SimTime::from_ms(1))?;
//! assert_eq!(probes[0].len(), 1001); // horizon-inclusive, like the serial kernel
//! let stats = sim.stats();
//! assert_eq!(stats.totals().iterations, 4004);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
pub mod pool;
pub mod sim;
pub mod slots;
pub mod spsc;
pub mod stats;

pub use partition::{partition, Partition};
pub use pool::WorkerPool;
pub use sim::{ParallelSim, DEFAULT_PIPE_CAPACITY};
pub use slots::{SlotLease, SlotPool};
pub use spsc::{ring, RingConsumer, RingMonitor, RingProducer};
pub use stats::ExecStats;
