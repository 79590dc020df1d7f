//! Harness arithmetic: quantiles that carry their sample counts, span
//! self time, and ratios that keep their base.

use std::collections::BTreeMap;
use systemc_ams::scope::{Phase, TraceEvent};

/// A quantile of a sample set, with the evidence it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The interpolated value.
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above `value`: how many observations the tail
    /// estimate is backed by.
    pub beyond: usize,
}

/// The `q`-quantile (`0 <= q <= 1`) of `samples`, linearly
/// interpolated between order statistics (the "type 7" estimator).
/// `None` for an empty set or a `q` outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let value = s[lo] + (s[hi] - s[lo]) * (pos - lo as f64);
    let beyond = s.iter().filter(|&&x| x > value).count();
    Some(Quantile {
        value,
        n: s.len(),
        beyond,
    })
}

/// `num / base`, kept together so a ratio is never reported without
/// the count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator.
    pub base: f64,
}

impl Ratio {
    /// The quotient; 0 when the base is 0 (nothing was attempted).
    pub fn value(self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.num / self.base
        }
    }
}

/// Wall time of one span kind, summed over a track.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Closed spans of this kind.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the parts their child spans cover.
    pub self_ns: u64,
    /// Each span's duration, in close order.
    pub durations_ns: Vec<u64>,
}

/// Per-kind span totals of one well-nested track, plus the summed
/// duration of its top-level spans (the part of the track's wall time
/// some span covers).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackTimes {
    /// Totals keyed by span name.
    pub kinds: BTreeMap<&'static str, SpanTotals>,
    /// Summed duration of spans with no enclosing span.
    pub top_level_ns: u64,
    /// The kind holding most of `top_level_ns`, if any span closed.
    pub top_kind: Option<&'static str>,
}

/// Folds one track's events into per-kind totals. A span's self time
/// is its duration minus the durations of its direct children. Nesting
/// is taken from event order, and each duration from its own begin/end
/// pair, so child events stamped by a different tracer (whose wall
/// clock has another epoch) still subtract correctly. Instants are
/// ignored; an end without a matching begin is dropped.
pub fn track_times(events: &[TraceEvent]) -> TrackTimes {
    struct Open {
        name: &'static str,
        begin_ns: u64,
        children_ns: u64,
    }
    let mut out = TrackTimes::default();
    let mut top: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut stack: Vec<Open> = Vec::new();
    for ev in events {
        match ev.phase {
            Phase::Begin => stack.push(Open {
                name: ev.kind.name(),
                begin_ns: ev.wall_ns,
                children_ns: 0,
            }),
            Phase::End => {
                let name = ev.kind.name();
                let Some(at) = stack.iter().rposition(|o| o.name == name) else {
                    continue;
                };
                // Spans left open inside the one closing here are
                // malformed; drop them rather than misattribute.
                stack.truncate(at + 1);
                let open = stack.pop().expect("position found above");
                let dur = ev.wall_ns.saturating_sub(open.begin_ns);
                let t = out.kinds.entry(name).or_default();
                t.count += 1;
                t.total_ns += dur;
                t.self_ns += dur.saturating_sub(open.children_ns);
                t.durations_ns.push(dur);
                match stack.last_mut() {
                    Some(parent) => parent.children_ns += dur,
                    None => {
                        out.top_level_ns += dur;
                        *top.entry(name).or_default() += dur;
                    }
                }
            }
            Phase::Instant => {}
        }
    }
    out.top_kind = top.into_iter().max_by_key(|(_, ns)| *ns).map(|(k, _)| k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use systemc_ams::scope::SpanKind;

    fn ev(kind: SpanKind, phase: Phase, wall_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            phase,
            t_sim_fs: 0,
            wall_ns,
            arg: 0,
        }
    }

    #[test]
    fn quantile_interpolates_and_counts_its_tail() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        let q = quantile(&s, 0.5).unwrap();
        assert_eq!((q.value, q.n, q.beyond), (3.0, 5, 2));
        let q = quantile(&s, 0.1).unwrap();
        assert!((q.value - 1.4).abs() < 1e-12);
        assert_eq!(q.beyond, 4);
        let q = quantile(&s, 1.0).unwrap();
        assert_eq!((q.value, q.beyond), (5.0, 0));
        assert_eq!(quantile(&[7.0], 0.99).unwrap().value, 7.0);
    }

    #[test]
    fn quantile_rejects_empty_sets_and_bad_levels() {
        assert!(quantile(&[], 0.5).is_none());
        assert!(quantile(&[1.0], 1.5).is_none());
        assert!(quantile(&[1.0], -0.1).is_none());
    }

    #[test]
    fn ratio_keeps_its_base_and_survives_zero() {
        let r = Ratio {
            num: 3.0,
            base: 4.0,
        };
        assert_eq!((r.value(), r.base), (0.75, 4.0));
        assert_eq!(
            Ratio {
                num: 0.0,
                base: 0.0
            }
            .value(),
            0.0
        );
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        use Phase::{Begin, End, Instant};
        use SpanKind::{MnaFactor, MnaSolve, Scenario, StepAccept};
        // scenario [0,100] ⊃ factor [10,40] ⊃ solve [20,30]; solve [50,60]
        let events = [
            ev(Scenario, Begin, 0),
            ev(MnaFactor, Begin, 10),
            ev(MnaSolve, Begin, 20),
            ev(MnaSolve, End, 30),
            ev(MnaFactor, End, 40),
            ev(StepAccept, Instant, 45),
            ev(MnaSolve, Begin, 50),
            ev(MnaSolve, End, 60),
            ev(Scenario, End, 100),
        ];
        let t = track_times(&events);
        let sc = &t.kinds["sweep.scenario"];
        assert_eq!((sc.count, sc.total_ns, sc.self_ns), (1, 100, 60));
        let f = &t.kinds["mna.factor"];
        assert_eq!((f.total_ns, f.self_ns), (30, 20));
        let s = &t.kinds["mna.solve"];
        assert_eq!((s.count, s.total_ns, s.self_ns), (2, 20, 20));
        assert_eq!(s.durations_ns, vec![10, 10]);
        assert_eq!(t.top_level_ns, 100);
        assert_eq!(t.top_kind, Some("sweep.scenario"));
        let all_self: u64 = t.kinds.values().map(|k| k.self_ns).sum();
        assert_eq!(all_self, t.top_level_ns, "self times partition the track");
    }

    #[test]
    fn children_from_another_epoch_still_subtract() {
        use Phase::{Begin, End};
        use SpanKind::{MnaSolve, Scenario};
        // The child's clock started 1 000 000 ns later than the parent's.
        let events = [
            ev(Scenario, Begin, 500),
            ev(MnaSolve, Begin, 3),
            ev(MnaSolve, End, 43),
            ev(Scenario, End, 600),
        ];
        let t = track_times(&events);
        assert_eq!(t.kinds["sweep.scenario"].self_ns, 60);
        assert_eq!(t.kinds["mna.solve"].self_ns, 40);
    }

    #[test]
    fn unmatched_ends_are_dropped() {
        use Phase::{Begin, End};
        use SpanKind::{MnaSolve, Scenario};
        let events = [
            ev(MnaSolve, End, 5),
            ev(Scenario, Begin, 10),
            ev(Scenario, End, 20),
        ];
        let t = track_times(&events);
        assert!(!t.kinds.contains_key("mna.solve"));
        assert_eq!(t.top_level_ns, 10);
    }
}
