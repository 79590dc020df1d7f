//! Execution statistics and instrumentation hooks.
//!
//! Profiling a mixed-signal simulation means knowing where the time
//! goes: dataflow firings, Newton iterations and matrix factorizations
//! inside embedded solvers, FIFO pressure on converter streams, and the
//! synchronization overhead of meeting the DE kernel at every cluster
//! period. [`ExecStats`] aggregates all of it from the per-component
//! counters ([`ClusterStats`],
//! [`SdfExecStats`](ams_sdf::SdfExecStats),
//! `ams_net::TransientStats` folded in through
//! `TdfModule::solver_stats`); [`ExecHook`] lets callers observe every
//! synchronization window as it happens.

use ams_core::ClusterStats;
use ams_kernel::SimTime;
use std::time::Duration;

/// Aggregated execution statistics of one parallel run.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Barriers crossed (one per window with at least one busy worker).
    pub barriers: u64,
    /// Per-cluster counters, in registration order: `(name, stats)`.
    /// Newton/factorization totals of embedded solvers are folded into
    /// each entry.
    pub clusters: Vec<(String, ClusterStats)>,
    /// Highest occupancy observed across all SPSC converter rings.
    pub ring_high_water: usize,
    /// Wall time spent inside worker compute (dispatch to barrier).
    pub compute_wall: Duration,
    /// Wall time spent synchronizing with the DE kernel (drain + advance).
    pub sync_wall: Duration,
    /// Deny-level diagnostics found by the pre-elaboration lint pass.
    /// Non-zero only when elaboration was rejected.
    pub lint_errors: usize,
    /// Warn-level diagnostics found by the pre-elaboration lint pass.
    pub lint_warnings: usize,
}

impl ExecStats {
    /// Sum of the per-cluster counters.
    pub fn totals(&self) -> ClusterStats {
        let mut t = ClusterStats::default();
        for (_, s) in &self.clusters {
            t.merge(s);
        }
        t
    }

    /// Exports the aggregate into an `ams-scope` metrics registry:
    /// window/barrier/firing counters, embedded-solver totals, the
    /// SPSC ring high-water gauge and the per-phase wall-time gauges —
    /// one deterministic name space shared with `ScopeReport`.
    pub fn to_metrics(&self) -> ams_scope::MetricsRegistry {
        let mut m = ams_scope::MetricsRegistry::new();
        m.counter_add("exec.windows", self.windows);
        m.counter_add("exec.barriers", self.barriers);
        m.gauge_set("exec.ring_high_water", self.ring_high_water as f64);
        m.gauge_set("exec.compute_wall_s", self.compute_wall.as_secs_f64());
        m.gauge_set("exec.sync_wall_s", self.sync_wall.as_secs_f64());
        m.counter_add("lint.errors", self.lint_errors as u64);
        m.counter_add("lint.warnings", self.lint_warnings as u64);
        let t = self.totals();
        m.counter_add("cluster.iterations", t.iterations);
        m.counter_add("cluster.firings", t.firings);
        m.counter_add("cluster.probe_samples", t.probe_samples);
        m.counter_add("newton.iterations", t.newton_iterations);
        m.counter_add("lu.factorizations", t.factorizations);
        m.counter_add("lu.symbolic_analyses", t.solve.symbolic_analyses);
        m.counter_add("lu.numeric_refactors", t.solve.numeric_refactors);
        m.counter_add("lu.jacobian_reused", t.solve.jacobian_reused);
        m.gauge_set("lu.nnz", t.solve.nnz as f64);
        m.gauge_set("lu.fill_in", t.solve.fill_in as f64);
        m
    }
}

/// Observation hook for a parallel run. All methods default to no-ops;
/// implement the ones you care about. The hook runs on the coordinator
/// thread, never inside workers, so it needs no internal locking beyond
/// `Send`.
pub trait ExecHook: Send {
    /// A synchronization window `[start, end)` is about to be dispatched
    /// to the workers.
    fn on_window(&mut self, _start: SimTime, _end: SimTime) {}

    /// All workers reached the barrier for the window ending at `end`.
    fn on_barrier(&mut self, _end: SimTime) {}

    /// The run finished; `stats` is the final aggregate.
    fn on_finish(&mut self, _stats: &ExecStats) {}
}

/// A trivial hook that counts windows, barriers and finishes — handy in
/// tests and as a template.
#[derive(Debug, Default)]
pub struct CountingHook {
    /// Windows observed via [`ExecHook::on_window`].
    pub windows: u64,
    /// Barriers observed via [`ExecHook::on_barrier`].
    pub barriers: u64,
    /// Finishes observed via [`ExecHook::on_finish`] — exactly one per
    /// run when driven by `ParallelSim::stats`.
    pub finishes: u64,
}

impl ExecHook for CountingHook {
    fn on_window(&mut self, _start: SimTime, _end: SimTime) {
        self.windows += 1;
    }

    fn on_barrier(&mut self, _end: SimTime) {
        self.barriers += 1;
    }

    fn on_finish(&mut self, _stats: &ExecStats) {
        self.finishes += 1;
    }
}

/// A shared handle to a hook, so a test (or dashboard) can keep reading
/// the counters while the engine owns the registered copy.
impl<H: ExecHook> ExecHook for std::sync::Arc<std::sync::Mutex<H>> {
    fn on_window(&mut self, start: SimTime, end: SimTime) {
        self.lock().expect("hook poisoned").on_window(start, end);
    }

    fn on_barrier(&mut self, end: SimTime) {
        self.lock().expect("hook poisoned").on_barrier(end);
    }

    fn on_finish(&mut self, stats: &ExecStats) {
        self.lock().expect("hook poisoned").on_finish(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_clusters() {
        let mut st = ExecStats::default();
        st.clusters.push((
            "a".into(),
            ClusterStats {
                iterations: 2,
                firings: 10,
                probe_samples: 4,
                newton_iterations: 7,
                factorizations: 1,
                ..Default::default()
            },
        ));
        st.clusters.push((
            "b".into(),
            ClusterStats {
                iterations: 3,
                firings: 5,
                probe_samples: 0,
                newton_iterations: 0,
                factorizations: 0,
                ..Default::default()
            },
        ));
        let t = st.totals();
        assert_eq!(t.iterations, 5);
        assert_eq!(t.firings, 15);
        assert_eq!(t.newton_iterations, 7);
    }

    #[test]
    fn counting_hook_counts() {
        let mut h = CountingHook::default();
        h.on_window(SimTime::ZERO, SimTime::from_ns(1));
        h.on_barrier(SimTime::from_ns(1));
        h.on_window(SimTime::from_ns(1), SimTime::from_ns(2));
        assert_eq!(h.windows, 2);
        assert_eq!(h.barriers, 1);
    }
}
