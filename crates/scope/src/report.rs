//! Aggregated run report: span profiles + metrics.
//!
//! A [`ScopeReport`] folds a [`ScopeTrace`] into per-kind span
//! profiles (count, total simulated duration, total wall duration —
//! wall deltas are always taken between the begin and end events of
//! the *same* tracer, so epochs never mix) and derives distribution
//! metrics from the event payloads: accepted/rejected step sizes,
//! Newton iterations per solve, delta-cycle activations.
//! Execution-level aggregates (`ExecStats` and friends) merge in
//! through an extra [`MetricsRegistry`].

use crate::{Histogram, MetricsRegistry, Phase, ScopeTrace, SpanKind};
use std::fmt::Write;

/// Per-[`SpanKind`] aggregate of one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KindSummary {
    /// Completed (begin/end matched) spans.
    pub spans: u64,
    /// Instant events.
    pub instants: u64,
    /// Total simulated duration of completed spans, femtoseconds.
    pub sim_fs: u64,
    /// Total wall duration of completed spans, nanoseconds.
    pub wall_ns: u64,
    /// Distribution of per-span wall durations, nanoseconds.
    pub wall: Histogram,
}

/// A rendered-on-demand profile of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScopeReport {
    /// Aggregates indexed by [`SpanKind`] discriminant.
    kinds: Vec<KindSummary>,
    /// Number of tracks folded in.
    pub tracks: usize,
    /// Number of events folded in.
    pub events: usize,
    /// Derived + externally supplied metrics.
    pub metrics: MetricsRegistry,
}

impl ScopeReport {
    /// Builds a report from a trace plus externally computed metrics
    /// (pass an empty registry when there are none).
    pub fn from_parts(trace: &ScopeTrace, extra: &MetricsRegistry) -> ScopeReport {
        let mut kinds = vec![KindSummary::default(); SpanKind::ALL.len()];
        let mut metrics = MetricsRegistry::new();
        for track in &trace.tracks {
            // One stack per kind: end events close the innermost open
            // span of their kind within this track.
            let mut stacks: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SpanKind::ALL.len()];
            for ev in &track.events {
                let slot = &mut kinds[ev.kind.index() as usize];
                match ev.phase {
                    Phase::Begin => {
                        stacks[ev.kind.index() as usize].push((ev.t_sim_fs, ev.wall_ns))
                    }
                    Phase::End => {
                        if let Some((t0, w0)) = stacks[ev.kind.index() as usize].pop() {
                            slot.spans += 1;
                            slot.sim_fs += ev.t_sim_fs.saturating_sub(t0);
                            let wall = ev.wall_ns.saturating_sub(w0);
                            slot.wall_ns += wall;
                            slot.wall.record(wall as f64);
                        }
                    }
                    Phase::Instant => {
                        slot.instants += 1;
                        match ev.kind {
                            SpanKind::StepAccept => {
                                metrics.record("step.h_accepted", f64::from_bits(ev.arg));
                            }
                            SpanKind::StepReject => {
                                metrics.record("step.h_rejected", f64::from_bits(ev.arg));
                            }
                            SpanKind::NewtonIteration => {
                                metrics.record("newton.iterations_per_solve", ev.arg as f64);
                            }
                            SpanKind::DeltaCycle => {
                                metrics.counter_add("de.activations", ev.arg);
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        metrics.merge(extra);
        ScopeReport {
            kinds,
            tracks: trace.tracks.len(),
            events: trace.event_count(),
            metrics,
        }
    }

    /// The aggregate for one span kind.
    pub fn kind(&self, kind: SpanKind) -> &KindSummary {
        &self.kinds[kind.index() as usize]
    }

    /// The human-readable profile.
    pub fn render(&self) -> String {
        let mut out = format!(
            "scope report: {} events on {} track(s)\n",
            self.events, self.tracks
        );
        let mut any = false;
        for kind in SpanKind::ALL {
            let k = self.kind(kind);
            if k.spans == 0 && k.instants == 0 {
                continue;
            }
            if !any {
                out.push_str("spans:\n");
                any = true;
            }
            let _ = write!(out, "  {}:", kind.name());
            if k.spans > 0 {
                let _ = write!(
                    out,
                    " {} span(s), sim {}, wall {} (p50 {}, p95 {}, max {})",
                    k.spans,
                    fmt_seconds(k.sim_fs as f64 * 1e-15),
                    fmt_seconds(k.wall_ns as f64 * 1e-9),
                    fmt_seconds(k.wall.percentile(50.0) * 1e-9),
                    fmt_seconds(k.wall.percentile(95.0) * 1e-9),
                    fmt_seconds(k.wall.max() * 1e-9),
                );
            }
            if k.instants > 0 {
                let _ = write!(out, " {} instant(s)", k.instants);
            }
            out.push('\n');
        }
        if !self.metrics.is_empty() {
            out.push_str("metrics:\n");
            out.push_str(&self.metrics.render());
        }
        out
    }
}

/// `3.25e-5` → `"32.500 µs"`, for the human-readable report.
fn fmt_seconds(s: f64) -> String {
    let (scale, unit) = if s >= 1.0 {
        (1.0, "s")
    } else if s >= 1e-3 {
        (1e3, "ms")
    } else if s >= 1e-6 {
        (1e6, "µs")
    } else {
        (1e9, "ns")
    };
    format!("{:.3} {unit}", s * scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn trace() -> ScopeTrace {
        let mut t = Tracer::on();
        t.begin(SpanKind::ClusterIteration, 0);
        t.instant(SpanKind::StepAccept, 1_000, 1e-6f64.to_bits());
        t.instant(SpanKind::StepAccept, 2_000, 2e-6f64.to_bits());
        t.instant(SpanKind::StepReject, 2_500, 8e-6f64.to_bits());
        t.instant(SpanKind::NewtonIteration, 3_000, 4);
        t.end(SpanKind::ClusterIteration, 1_000_000);
        let mut trace = ScopeTrace::new();
        trace.add_track("coordinator", "exec", t.take_events());
        trace
    }

    #[test]
    fn spans_and_instants_are_aggregated() {
        let r = ScopeReport::from_parts(&trace(), &MetricsRegistry::new());
        assert_eq!(r.kind(SpanKind::ClusterIteration).spans, 1);
        assert_eq!(r.kind(SpanKind::ClusterIteration).sim_fs, 1_000_000);
        assert_eq!(r.kind(SpanKind::StepAccept).instants, 2);
        assert_eq!(r.events, 6);
        assert_eq!(r.tracks, 1);
    }

    #[test]
    fn step_and_newton_metrics_derive_from_the_events() {
        let r = ScopeReport::from_parts(&trace(), &MetricsRegistry::new());
        let h = r.metrics.histogram("step.h_accepted").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 1e-6);
        assert_eq!(h.max(), 2e-6);
        assert_eq!(r.metrics.histogram("step.h_rejected").unwrap().max(), 8e-6);
        let n = r.metrics.histogram("newton.iterations_per_solve").unwrap();
        assert_eq!(n.mean(), 4.0);
    }

    #[test]
    fn extra_metrics_merge_in() {
        let mut extra = MetricsRegistry::new();
        extra.counter_add("exec.windows", 9);
        let r = ScopeReport::from_parts(&trace(), &extra);
        assert_eq!(r.metrics.counter("exec.windows"), 9);
    }

    #[test]
    fn render_mentions_every_active_kind() {
        let r = ScopeReport::from_parts(&trace(), &MetricsRegistry::new());
        let text = r.render();
        assert!(text.contains("tdf.iteration: 1 span(s)"), "{text}");
        assert!(text.contains("step.accept"), "{text}");
        assert!(text.contains("step.h_accepted"), "{text}");
    }

    #[test]
    fn span_lines_carry_wall_percentile_columns() {
        let mut t = Tracer::on();
        for _ in 0..3 {
            t.begin(SpanKind::MnaFactor, 0);
            t.end(SpanKind::MnaFactor, 100);
        }
        let mut tr = ScopeTrace::new();
        tr.add_track("p", "t", t.take_events());
        let r = ScopeReport::from_parts(&tr, &MetricsRegistry::new());
        assert_eq!(r.kind(SpanKind::MnaFactor).wall.count(), 3);
        let text = r.render();
        assert!(
            text.contains("(p50 ") && text.contains(", p95 ") && text.contains(", max "),
            "{text}"
        );
    }

    #[test]
    fn unbalanced_end_is_ignored() {
        let mut t = Tracer::on();
        t.end(SpanKind::MnaSolve, 10);
        let mut tr = ScopeTrace::new();
        tr.add_track("p", "t", t.take_events());
        let r = ScopeReport::from_parts(&tr, &MetricsRegistry::new());
        assert_eq!(r.kind(SpanKind::MnaSolve).spans, 0);
    }

    #[test]
    fn seconds_formatting_picks_a_unit() {
        assert_eq!(fmt_seconds(2.5), "2.500 s");
        assert_eq!(fmt_seconds(3.25e-5), "32.500 µs");
        assert_eq!(fmt_seconds(1.5e-3), "1.500 ms");
        assert_eq!(fmt_seconds(4.2e-8), "42.000 ns");
    }
}
