//! Execution statistics.
//!
//! Profiling a mixed-signal batch means knowing where the time goes:
//! dataflow firings, Newton iterations and matrix factorizations inside
//! embedded solvers, and the wall time of the compute and merge phases.
//! [`ExecStats`] aggregates all of it from the per-item counters
//! ([`ClusterStats`], with `ams_net::TransientStats` folded in through
//! `TdfModule::solver_stats`).
//!
//! No ring buffers or synchronization windows are left in the stack:
//! [`ExecStats::ring_high_water`] always reads 0, and a sweep report
//! counts its scenarios in `windows` and its shards in `barriers`. The
//! names stay because the sweep and service `result` wire format
//! carries them.

use ams_core::ClusterStats;
use std::time::Duration;

/// Aggregated execution statistics of one batch run.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Work items run (a sweep counts its scenarios).
    pub windows: u64,
    /// Worker shards joined (a sweep counts its shards).
    pub barriers: u64,
    /// Per-cluster counters, in registration order: `(name, stats)`.
    /// Newton/factorization totals of embedded solvers are folded into
    /// each entry.
    pub clusters: Vec<(String, ClusterStats)>,
    /// Always 0: no ring buffers are left. Kept for the wire format.
    pub ring_high_water: usize,
    /// Wall time from dispatch until the coordinator's own work finished.
    pub compute_wall: Duration,
    /// Wall time the coordinator then spent joining the other workers.
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
    /// ring high-water gauge and the per-phase wall-time gauges —
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
}
