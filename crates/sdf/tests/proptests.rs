//! Property-based tests of the SDF analysis invariants over randomized
//! graph topologies.

use ams_sdf::{schedule, SdfGraph};
use proptest::prelude::*;

proptest! {
    /// Random multirate chains: the repetition vector balances every
    /// edge and the schedule fires each actor exactly q times.
    #[test]
    fn chain_schedules_are_consistent(
        rates in proptest::collection::vec((1u64..8, 1u64..8), 1..6),
    ) {
        let mut g = SdfGraph::new();
        let mut actors = vec![g.add_actor("a0")];
        for (i, &(p, c)) in rates.iter().enumerate() {
            let next = g.add_actor(format!("a{}", i + 1));
            g.connect(actors[i], p, next, c, 0).unwrap();
            actors.push(next);
        }
        let s = schedule(&g).unwrap();
        let q = s.repetition_vector().to_vec();
        // Balance on every edge.
        for (i, &(p, c)) in rates.iter().enumerate() {
            prop_assert_eq!(q[i] * p, q[i + 1] * c, "edge {} unbalanced", i);
        }
        // Firing counts match q.
        let mut counts = vec![0u64; actors.len()];
        for &f in s.firings() {
            counts[f.index()] += 1;
        }
        prop_assert_eq!(counts, q);
    }

    /// A fork/join (diamond) with arbitrary rates either schedules
    /// consistently or reports a typed error — never panics — and when it
    /// schedules, replaying the firing order never underflows any FIFO.
    #[test]
    fn diamond_never_underflows(
        p1 in 1u64..5, c1 in 1u64..5,
        p2 in 1u64..5, c2 in 1u64..5,
        p3 in 1u64..5, c3 in 1u64..5,
        p4 in 1u64..5, c4 in 1u64..5,
    ) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        let c = g.add_actor("c");
        let d = g.add_actor("d");
        g.connect(a, p1, b, c1, 0).unwrap();
        g.connect(a, p2, c, c2, 0).unwrap();
        g.connect(b, p3, d, c3, 0).unwrap();
        g.connect(c, p4, d, c4, 0).unwrap();
        match schedule(&g) {
            Err(_) => {} // inconsistent rates: acceptable, typed
            Ok(s) => {
                // Replay with token counting.
                let edges = [
                    (a, b, p1, c1),
                    (a, c, p2, c2),
                    (b, d, p3, c3),
                    (c, d, p4, c4),
                ];
                let mut tokens = [0i64; 4];
                for &f in s.firings() {
                    for (k, &(src, dst, p, c)) in edges.iter().enumerate() {
                        if f == dst {
                            tokens[k] -= c as i64;
                            prop_assert!(tokens[k] >= 0, "fifo {k} underflow");
                        }
                        if f == src {
                            tokens[k] += p as i64;
                        }
                    }
                }
                // Periodicity: back to the initial state.
                prop_assert!(tokens.iter().all(|&t| t == 0));
            }
        }
    }

    /// Initial tokens (delays) never make a consistent graph *less*
    /// schedulable.
    #[test]
    fn delays_preserve_schedulability(
        p in 1u64..5, c in 1u64..5, delay in 0u64..6,
    ) {
        let mut g0 = SdfGraph::new();
        let a0 = g0.add_actor("a");
        let b0 = g0.add_actor("b");
        g0.connect(a0, p, b0, c, 0).unwrap();
        let s0 = schedule(&g0).unwrap();

        let mut g1 = SdfGraph::new();
        let a1 = g1.add_actor("a");
        let b1 = g1.add_actor("b");
        g1.connect(a1, p, b1, c, delay).unwrap();
        let s1 = schedule(&g1).unwrap();

        prop_assert_eq!(s0.repetition_vector(), s1.repetition_vector());
    }
}
