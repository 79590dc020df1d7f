//! Persistent worker threads running partitions of the model.
//!
//! Each worker owns the clusters of its partition outright (clusters are
//! `Send` by construction — modules and solvers are `Send` traits) and
//! executes them in registration order inside every synchronization
//! window. The coordinator broadcasts one command per window and the
//! reply stream doubles as the barrier: a window is over exactly when
//! every worker has answered.

use ams_core::{Cluster, ClusterStats, CoreError};
use ams_kernel::SimTime;
use ams_scope::TraceEvent;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// Per-cluster trace tracks: `(registration index, sources)` where each
/// source is a `(name, events)` track (see [`Cluster::take_traces`]).
pub type ClusterTraces = Vec<(usize, Vec<(String, Vec<TraceEvent>)>)>;

enum Cmd {
    /// Run every activation with start time strictly before `until`.
    Run {
        until: SimTime,
    },
    /// Rewind every cluster to `t = 0` (see [`Cluster::reset`]).
    Reset,
    /// Report per-cluster statistics.
    Collect,
    /// Enable or disable span tracing on every owned cluster.
    SetTracing(bool),
    /// Drain per-cluster trace buffers.
    CollectTraces,
    Shutdown,
}

enum Reply {
    Done {
        result: Result<(), CoreError>,
    },
    Stats {
        /// `(registration index, name, counters)` per owned cluster.
        clusters: Vec<(usize, String, ClusterStats)>,
    },
    Traces {
        /// `(registration index, sources)` per owned cluster; each
        /// source is a `(name, events)` track (see
        /// [`Cluster::take_traces`]).
        clusters: ClusterTraces,
    },
}

/// A pool of persistent worker threads, each owning one partition of the
/// model's clusters.
pub struct WorkerPool {
    commands: Vec<Sender<Cmd>>,
    replies: Receiver<Reply>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns one worker per non-empty group and moves the clusters in.
    /// Each cluster arrives as `(registration_index, cluster)` so the
    /// coordinator can reassemble global statistics later.
    pub fn spawn(groups: Vec<Vec<(usize, Cluster)>>) -> WorkerPool {
        let (reply_tx, replies) = channel();
        let mut commands = Vec::new();
        let mut handles = Vec::new();
        for (w, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let (cmd_tx, cmd_rx) = channel::<Cmd>();
            let tx = reply_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("ams-exec-worker-{w}"))
                .spawn(move || worker_main(group, cmd_rx, tx))
                .expect("spawning a worker thread");
            commands.push(cmd_tx);
            handles.push(handle);
        }
        WorkerPool {
            commands,
            replies,
            handles,
        }
    }

    /// Number of live workers.
    pub fn workers(&self) -> usize {
        self.commands.len()
    }

    /// Runs one synchronization window on all workers and waits at the
    /// barrier. Every cluster executes its activations with start time in
    /// `[current, until)`.
    ///
    /// # Errors
    ///
    /// The first cluster failure from any worker.
    pub fn run_window(&mut self, until: SimTime) -> Result<(), CoreError> {
        for tx in &self.commands {
            tx.send(Cmd::Run { until }).expect("worker alive");
        }
        self.barrier()
    }

    /// Rewinds every cluster to `t = 0` on its worker.
    ///
    /// # Errors
    ///
    /// Propagates reset-time failures (none today, reserved).
    pub fn reset(&mut self) -> Result<(), CoreError> {
        for tx in &self.commands {
            tx.send(Cmd::Reset).expect("worker alive");
        }
        self.barrier()
    }

    /// Collects `(registration_index, name, stats)` for every cluster.
    pub fn collect_stats(&mut self) -> Vec<(usize, String, ClusterStats)> {
        for tx in &self.commands {
            tx.send(Cmd::Collect).expect("worker alive");
        }
        let mut all = Vec::new();
        for _ in 0..self.commands.len() {
            match self.replies.recv().expect("worker alive") {
                Reply::Stats { clusters } => all.extend(clusters),
                _ => unreachable!("stats query answered with another reply"),
            }
        }
        all.sort_by_key(|&(idx, _, _)| idx);
        all
    }

    /// Enables or disables span tracing on every cluster of every
    /// worker.
    ///
    /// # Errors
    ///
    /// Propagates worker failures (none today, reserved).
    pub fn set_tracing(&mut self, enabled: bool) -> Result<(), CoreError> {
        for tx in &self.commands {
            tx.send(Cmd::SetTracing(enabled)).expect("worker alive");
        }
        self.barrier()
    }

    /// Drains every cluster's trace buffers:
    /// `(registration_index, sources)` in registration order, each
    /// source a `(name, events)` track.
    pub fn collect_traces(&mut self) -> ClusterTraces {
        for tx in &self.commands {
            tx.send(Cmd::CollectTraces).expect("worker alive");
        }
        let mut all = Vec::new();
        for _ in 0..self.commands.len() {
            match self.replies.recv().expect("worker alive") {
                Reply::Traces { clusters } => all.extend(clusters),
                _ => unreachable!("trace query answered with another reply"),
            }
        }
        all.sort_by_key(|&(idx, _)| idx);
        all
    }

    fn barrier(&mut self) -> Result<(), CoreError> {
        let mut first_err = None;
        for _ in 0..self.commands.len() {
            match self.replies.recv().expect("worker alive") {
                Reply::Done { result } => {
                    if let (Err(e), None) = (result, &first_err) {
                        first_err = Some(e);
                    }
                }
                _ => unreachable!("run answered with another reply"),
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.commands {
            let _ = tx.send(Cmd::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(
    mut clusters: Vec<(usize, Cluster)>,
    commands: Receiver<Cmd>,
    replies: Sender<Reply>,
) {
    while let Ok(cmd) = commands.recv() {
        match cmd {
            Cmd::Run { until } => {
                let mut result = Ok(());
                'run: for (_, c) in &mut clusters {
                    let period = c.period();
                    loop {
                        let start = period * c.iterations();
                        if start >= until {
                            break;
                        }
                        if let Err(e) = c.run_iteration(start) {
                            result = Err(e);
                            break 'run;
                        }
                    }
                }
                if replies.send(Reply::Done { result }).is_err() {
                    return;
                }
            }
            Cmd::Reset => {
                for (_, c) in &mut clusters {
                    c.reset();
                }
                if replies.send(Reply::Done { result: Ok(()) }).is_err() {
                    return;
                }
            }
            Cmd::Collect => {
                let stats = clusters
                    .iter()
                    .map(|(idx, c)| (*idx, c.name().to_string(), c.stats()))
                    .collect();
                if replies.send(Reply::Stats { clusters: stats }).is_err() {
                    return;
                }
            }
            Cmd::SetTracing(enabled) => {
                for (_, c) in &mut clusters {
                    c.set_tracing(enabled);
                }
                if replies.send(Reply::Done { result: Ok(()) }).is_err() {
                    return;
                }
            }
            Cmd::CollectTraces => {
                let traces = clusters
                    .iter_mut()
                    .map(|(idx, c)| (*idx, c.take_traces()))
                    .collect();
                if replies.send(Reply::Traces { clusters: traces }).is_err() {
                    return;
                }
            }
            Cmd::Shutdown => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelSim;
    use ams_core::{CoreError, TdfGraph, TdfIo, TdfModule, TdfOut, TdfSetup};

    /// A one-module free-running graph (no DE bindings).
    fn src_graph(name: &str) -> TdfGraph {
        struct Src {
            out: TdfOut,
        }
        impl TdfModule for Src {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.output(self.out);
                cfg.set_timestep(SimTime::from_us(1));
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                io.write1(self.out, 1.0);
                Ok(())
            }
        }
        let mut g = TdfGraph::new(name);
        let s = g.signal("s");
        g.add_module("src", Src { out: s.writer() });
        g
    }

    #[test]
    fn stats_count_one_barrier_per_window_in_every_run() {
        let mut sim = ParallelSim::new(2);
        sim.add_graph(src_graph("a"));
        sim.run_until(SimTime::from_us(3)).unwrap();
        let first = sim.stats();
        assert!(first.windows >= 1);
        assert_eq!(first.windows, first.barriers);
        // A reset starts the counts over for the next run.
        sim.reset().unwrap();
        sim.run_until(SimTime::from_us(3)).unwrap();
        let second = sim.stats();
        assert_eq!(second.windows, first.windows);
        assert_eq!(second.windows, second.barriers);
    }

    #[test]
    fn tracing_attributes_cluster_tracks_to_workers() {
        use ams_scope::SpanKind;
        let mut sim = ParallelSim::new(2);
        sim.set_tracing(true).unwrap();
        sim.add_graph(src_graph("a"));
        sim.add_graph(src_graph("b"));
        sim.run_until(SimTime::from_us(3)).unwrap();
        let trace = sim.take_trace();

        // The coordinator's exec track carries window + barrier spans.
        let exec = trace
            .tracks
            .iter()
            .find(|t| t.process == "coordinator" && t.thread == "exec")
            .expect("coordinator/exec track present");
        assert!(exec.events.iter().any(|e| e.kind == SpanKind::DeWindow));
        assert!(exec.events.iter().any(|e| e.kind == SpanKind::BarrierWait));

        // Every cluster track lands on the worker process the partition
        // assigned it to.
        let assignment = sim.partition().expect("elaborated").assignment.clone();
        for (idx, name) in ["a", "b"].iter().enumerate() {
            let t = trace
                .tracks
                .iter()
                .find(|t| t.thread == *name)
                .unwrap_or_else(|| panic!("track for cluster {name}"));
            assert_eq!(t.process, format!("worker-{}", assignment[idx]));
            assert!(t
                .events
                .iter()
                .any(|e| e.kind == SpanKind::ClusterIteration));
        }

        // Buffers drain on take: a second take is empty.
        assert!(sim.take_trace().is_empty());
    }
}
