//! Static schedule construction (PASS).
//!
//! "One cycle of the scheduling consists in traversing the graph until all
//! required nodes have been visited and their corresponding computations
//! executed" (paper §3). Given a consistent repetition vector, this module
//! builds a *periodic admissible sequential schedule* by symbolic token
//! simulation, detecting deadlock when no admissible firing exists.

use crate::{ActorId, SdfError, SdfGraph};

/// A periodic admissible sequential schedule: the actor firing order for
/// one graph iteration, plus the repetition vector it realises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    firings: Vec<ActorId>,
    repetition: Vec<u64>,
}

impl Schedule {
    /// The firing sequence for one iteration.
    pub fn firings(&self) -> &[ActorId] {
        &self.firings
    }

    /// The repetition vector used to build the schedule.
    pub fn repetition_vector(&self) -> &[u64] {
        &self.repetition
    }
}

/// Builds a schedule for one iteration of the graph.
///
/// The construction is the classic "simulate token counts" PASS algorithm:
/// repeatedly fire any actor that (a) still has remaining firings this
/// iteration and (b) has enough tokens on all inputs. List order is used
/// as the tie-break, which yields a deterministic schedule.
///
/// # Errors
///
/// * Propagates [`SdfError::InconsistentRates`] from the balance
///   equations.
/// * Returns [`SdfError::Deadlock`] if the iteration cannot complete.
///
/// # Example
///
/// ```
/// use ams_sdf::{schedule, SdfGraph};
///
/// # fn main() -> Result<(), ams_sdf::SdfError> {
/// let mut g = SdfGraph::new();
/// let a = g.add_actor("a");
/// let b = g.add_actor("b");
/// g.connect(a, 2, b, 1, 0)?;
/// let s = schedule(&g)?;
/// assert_eq!(s.firings().len(), 3); // a once, b twice
/// # Ok(())
/// # }
/// ```
pub fn schedule(graph: &SdfGraph) -> Result<Schedule, SdfError> {
    let repetition = graph.repetition_vector()?;
    let n = graph.actor_count();
    let mut remaining: Vec<u64> = repetition.clone();
    let mut tokens: Vec<u64> = graph.edges().map(|(_, e)| e.initial_tokens).collect();
    let total: u64 = repetition.iter().sum();
    let mut firings = Vec::with_capacity(total as usize);

    // Precompute incidence for speed.
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, e) in graph.edges() {
        out_edges[e.src.index()].push(id.index());
        in_edges[e.dst.index()].push(id.index());
    }

    let mut fired_this_pass = true;
    while firings.len() < total as usize {
        if !fired_this_pass {
            let stuck: Vec<usize> = (0..n).filter(|&a| remaining[a] > 0).collect();
            return Err(SdfError::Deadlock {
                stuck_actors: stuck,
            });
        }
        fired_this_pass = false;
        for a in 0..n {
            while remaining[a] > 0 {
                let ready = in_edges[a].iter().all(|&ei| {
                    let e = graph.edge(crate::EdgeId(ei));
                    tokens[ei] >= e.consume
                });
                if !ready {
                    break;
                }
                // Fire.
                for &ei in &in_edges[a] {
                    let e = graph.edge(crate::EdgeId(ei));
                    tokens[ei] -= e.consume;
                }
                for &ei in &out_edges[a] {
                    let e = graph.edge(crate::EdgeId(ei));
                    tokens[ei] += e.produce;
                }
                remaining[a] -= 1;
                firings.push(ActorId(a));
                fired_this_pass = true;
            }
        }
    }

    // Sanity: after one iteration, token counts must return to initial.
    for ((_, e), (&t, _)) in graph.edges().zip(tokens.iter().zip(0..)) {
        debug_assert_eq!(
            t, e.initial_tokens,
            "token counts must be periodic over one iteration"
        );
    }

    Ok(Schedule {
        firings,
        repetition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chain_schedule_order() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        g.connect(a, 1, b, 1, 0).unwrap();
        let s = schedule(&g).unwrap();
        assert_eq!(s.firings(), &[a, b]);
    }

    #[test]
    fn multirate_counts() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        g.connect(a, 3, b, 2, 0).unwrap();
        let s = schedule(&g).unwrap();
        // q = [2, 3]: a fires 2×, b fires 3×.
        let a_count = s.firings().iter().filter(|&&x| x == a).count();
        let b_count = s.firings().iter().filter(|&&x| x == b).count();
        assert_eq!((a_count, b_count), (2, 3));
        assert_eq!(s.repetition_vector(), &[2, 3]);
    }

    #[test]
    fn cycle_without_delay_deadlocks() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        g.connect(a, 1, b, 1, 0).unwrap();
        g.connect(b, 1, a, 1, 0).unwrap();
        match schedule(&g) {
            Err(SdfError::Deadlock { stuck_actors }) => {
                assert_eq!(stuck_actors, vec![0, 1]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn cycle_with_initial_token_schedules() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        g.connect(a, 1, b, 1, 0).unwrap();
        g.connect(b, 1, a, 1, 1).unwrap(); // one delay breaks the deadlock
        let s = schedule(&g).unwrap();
        assert_eq!(s.firings(), &[a, b]);
    }

    #[test]
    fn empty_graph_gives_empty_schedule() {
        let g = SdfGraph::new();
        let s = schedule(&g).unwrap();
        assert!(s.firings().is_empty());
    }

    #[test]
    fn diamond_topology() {
        //    ┌-> b ─┐
        //  a ┤      ├-> d
        //    └-> c ─┘
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        let c = g.add_actor("c");
        let d = g.add_actor("d");
        g.connect(a, 1, b, 1, 0).unwrap();
        g.connect(a, 1, c, 1, 0).unwrap();
        g.connect(b, 1, d, 1, 0).unwrap();
        g.connect(c, 1, d, 1, 0).unwrap();
        let s = schedule(&g).unwrap();
        assert_eq!(s.firings().len(), 4);
        // d must fire last.
        assert_eq!(*s.firings().last().unwrap(), d);
        // a must fire first.
        assert_eq!(s.firings()[0], a);
    }

    #[test]
    fn schedule_is_deterministic() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        let c = g.add_actor("c");
        g.connect(a, 2, b, 1, 0).unwrap();
        g.connect(b, 1, c, 2, 0).unwrap();
        let s1 = schedule(&g).unwrap();
        let s2 = schedule(&g).unwrap();
        assert_eq!(s1, s2);
    }
}
