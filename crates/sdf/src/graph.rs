//! SDF graph topology and rate (balance-equation) analysis.
//!
//! "In the particular case of static or synchronous dataflow (SDF), the
//! scheduling of the operations is static … They have the nice property
//! that a finite static scheduling can always be found" (paper §3). This
//! module computes the *repetition vector* — the number of firings of
//! each actor per schedule iteration — by solving the balance equations
//! with exact rational arithmetic, and validates consistency.

use crate::SdfError;
use ams_math::{common_denominator, gcd, Rational};
use std::fmt;

/// Handle to an actor in an [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActorId(pub(crate) usize);

impl ActorId {
    /// The raw index of the actor.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to an edge (FIFO channel) in an [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) usize);

impl EdgeId {
    /// The raw index of the edge.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ActorInfo {
    pub name: String,
}

/// Connectivity and rates of one FIFO edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeInfo {
    /// Producing actor.
    pub src: ActorId,
    /// Tokens produced per firing of `src`.
    pub produce: u64,
    /// Consuming actor.
    pub dst: ActorId,
    /// Tokens consumed per firing of `dst`.
    pub consume: u64,
    /// Initial tokens (delays) present before the first iteration.
    pub initial_tokens: u64,
}

/// A static dataflow graph: actors connected by token-rate-annotated
/// FIFO edges.
///
/// # Example
///
/// ```
/// use ams_sdf::SdfGraph;
///
/// # fn main() -> Result<(), ams_sdf::SdfError> {
/// // A 1→2 upsampler feeding a consumer: src fires twice per sink firing…
/// let mut g = SdfGraph::new();
/// let src = g.add_actor("src");
/// let up = g.add_actor("upsample");
/// let sink = g.add_actor("sink");
/// g.connect(src, 1, up, 1, 0)?;
/// g.connect(up, 2, sink, 1, 0)?;
/// let q = g.repetition_vector()?;
/// assert_eq!(q, vec![1, 1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SdfGraph {
    pub(crate) actors: Vec<ActorInfo>,
    pub(crate) edges: Vec<EdgeInfo>,
}

impl SdfGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SdfGraph::default()
    }

    /// Adds an actor and returns its handle.
    pub fn add_actor(&mut self, name: impl Into<String>) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(ActorInfo { name: name.into() });
        id
    }

    /// Connects `src` to `dst` with the given token rates and initial
    /// tokens (delays).
    ///
    /// # Errors
    ///
    /// * [`SdfError::ZeroRate`] if either rate is zero.
    /// * [`SdfError::UnknownHandle`] if an actor handle is stale.
    pub fn connect(
        &mut self,
        src: ActorId,
        produce: u64,
        dst: ActorId,
        consume: u64,
        initial_tokens: u64,
    ) -> Result<EdgeId, SdfError> {
        let edge = self.edges.len();
        if src.0 >= self.actors.len() {
            return Err(SdfError::UnknownHandle {
                kind: "actor",
                index: src.0,
            });
        }
        if dst.0 >= self.actors.len() {
            return Err(SdfError::UnknownHandle {
                kind: "actor",
                index: dst.0,
            });
        }
        if produce == 0 || consume == 0 {
            return Err(SdfError::ZeroRate { edge });
        }
        self.edges.push(EdgeInfo {
            src,
            produce,
            dst,
            consume,
            initial_tokens,
        });
        Ok(EdgeId(edge))
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Name of an actor.
    pub fn actor_name(&self, id: ActorId) -> &str {
        &self.actors[id.0].name
    }

    /// The connectivity record of an edge.
    pub fn edge(&self, id: EdgeId) -> &EdgeInfo {
        &self.edges[id.0]
    }

    /// Iterates over all edges with their handles.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &EdgeInfo)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// Solves the balance equations and returns the minimal repetition
    /// vector: `q[src]·produce == q[dst]·consume` for every edge, with the
    /// smallest positive integers satisfying all constraints.
    ///
    /// Disconnected components are each normalized independently.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError::InconsistentRates`] if no solution exists.
    pub fn repetition_vector(&self) -> Result<Vec<u64>, SdfError> {
        solve_balance(
            self.actors.len(),
            self.edges
                .iter()
                .map(|e| (e.src.0, e.produce, e.dst.0, e.consume)),
        )
    }
}

/// Solves the balance equations of `n` actors joined by plain
/// `(src, produce, dst, consume)` edges — the solver behind
/// [`SdfGraph::repetition_vector`], for callers that hold an edge list
/// rather than a graph (`ams-lint`). Returns the minimal repetition
/// vector: `q[src]·produce == q[dst]·consume` on every edge, each
/// connected component normalized to the smallest positive integers.
///
/// # Errors
///
/// * [`SdfError::ZeroRate`] for the first edge with a zero rate.
/// * [`SdfError::InconsistentRates`] naming the first edge whose rates
///   conflict with those already established by the search.
///
/// # Panics
///
/// Panics if an edge names an actor index `≥ n`.
pub fn solve_balance(
    n: usize,
    edges: impl IntoIterator<Item = (usize, u64, usize, u64)>,
) -> Result<Vec<u64>, SdfError> {
    let edges: Vec<_> = edges.into_iter().collect();
    if let Some(edge) = edges.iter().position(|&(_, p, _, c)| p == 0 || c == 0) {
        return Err(SdfError::ZeroRate { edge });
    }
    let mut q: Vec<Option<Rational>> = vec![None; n];

    // Adjacency over undirected rate constraints.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &(src, _, dst, _)) in edges.iter().enumerate() {
        adj[src].push(i);
        adj[dst].push(i);
    }

    for start in 0..n {
        if q[start].is_some() {
            continue;
        }
        // The search from `start` assigns exactly its component.
        q[start] = Some(Rational::ONE);
        let mut component = vec![start];
        let mut stack = vec![start];
        while let Some(a) = stack.pop() {
            let qa = q[a].expect("actor on stack has an assigned rate");
            for &ei in &adj[a] {
                let (src, produce, dst, consume) = edges[ei];
                let (other, q_other) = if src == a {
                    // q[dst] = q[src]·produce/consume
                    (
                        dst,
                        qa * Rational::new(produce, consume).expect("rates are non-zero"),
                    )
                } else {
                    (
                        src,
                        qa * Rational::new(consume, produce).expect("rates are non-zero"),
                    )
                };
                match q[other] {
                    None => {
                        q[other] = Some(q_other);
                        component.push(other);
                        stack.push(other);
                    }
                    Some(existing) if existing != q_other => {
                        return Err(SdfError::InconsistentRates { edge: ei });
                    }
                    Some(_) => {}
                }
            }
        }

        // Normalize this component to minimal integers.
        component.sort_unstable();
        let rats: Vec<Rational> = component
            .iter()
            .map(|&i| q[i].expect("component members are assigned"))
            .collect();
        let denom = common_denominator(&rats);
        let scaled: Vec<u64> = rats
            .iter()
            .map(|r| r.numer() * (denom / r.denom()))
            .collect();
        let g = scaled.iter().fold(0, |acc, &v| gcd(acc, v)).max(1);
        for (&i, &v) in component.iter().zip(scaled.iter()) {
            q[i] = Some(Rational::from_int(v / g));
        }
    }

    Ok(q.into_iter()
        .map(|r| r.expect("all actors assigned").numer())
        .collect())
}

impl fmt::Display for SdfGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SdfGraph ({} actors, {} edges)",
            self.actors.len(),
            self.edges.len()
        )?;
        for (i, e) in self.edges.iter().enumerate() {
            writeln!(
                f,
                "  e{}: {}[{}] -> [{}]{} (init {})",
                i,
                self.actors[e.src.0].name,
                e.produce,
                e.consume,
                self.actors[e.dst.0].name,
                e.initial_tokens
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_repetition_vector() {
        // a -2-> -3- b: q = [3, 2]
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        g.connect(a, 2, b, 3, 0).unwrap();
        assert_eq!(g.repetition_vector().unwrap(), vec![3, 2]);
    }

    #[test]
    fn classic_three_actor_example() {
        // Lee & Messerschmitt style: a -1->2- b -3->1- c
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        let c = g.add_actor("c");
        g.connect(a, 1, b, 2, 0).unwrap();
        g.connect(b, 3, c, 1, 0).unwrap();
        // q_a·1 = q_b·2, q_b·3 = q_c·1 → q = [2, 1, 3]
        assert_eq!(g.repetition_vector().unwrap(), vec![2, 1, 3]);
    }

    #[test]
    fn inconsistent_cycle_detected() {
        // a -1->1- b, b -1->1- a but with a 2x gain somewhere: impossible.
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        g.connect(a, 1, b, 1, 0).unwrap();
        g.connect(b, 2, a, 1, 1).unwrap();
        assert!(matches!(
            g.repetition_vector(),
            Err(SdfError::InconsistentRates { edge: 1 })
        ));
    }

    #[test]
    fn solve_balance_takes_plain_edges() {
        // classic_three_actor_example as an edge list.
        assert_eq!(
            solve_balance(3, [(0, 1, 1, 2), (1, 3, 2, 1)]).unwrap(),
            vec![2, 1, 3]
        );
        // inconsistent_cycle_detected names the same edge.
        assert_eq!(
            solve_balance(2, [(0, 1, 1, 1), (1, 2, 0, 1)]),
            Err(SdfError::InconsistentRates { edge: 1 })
        );
        assert_eq!(
            solve_balance(2, [(0, 1, 1, 1), (1, 0, 0, 1)]),
            Err(SdfError::ZeroRate { edge: 1 })
        );
        // An actor on no edge fires once.
        assert_eq!(solve_balance(3, [(0, 2, 1, 4)]).unwrap(), vec![2, 1, 1]);
    }

    #[test]
    fn consistent_cycle_ok() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        g.connect(a, 2, b, 1, 0).unwrap();
        g.connect(b, 1, a, 2, 2).unwrap();
        assert_eq!(g.repetition_vector().unwrap(), vec![1, 2]);
    }

    #[test]
    fn disconnected_components_normalized_independently() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        let c = g.add_actor("c");
        let d = g.add_actor("d");
        g.connect(a, 2, b, 4, 0).unwrap(); // q = [2,1] → minimal
        g.connect(c, 5, d, 5, 0).unwrap(); // q = [1,1]
        assert_eq!(g.repetition_vector().unwrap(), vec![2, 1, 1, 1]);
    }

    #[test]
    fn zero_rate_rejected() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        assert!(matches!(
            g.connect(a, 0, b, 1, 0),
            Err(SdfError::ZeroRate { .. })
        ));
    }

    #[test]
    fn stale_handle_rejected() {
        let mut g1 = SdfGraph::new();
        let mut g2 = SdfGraph::new();
        let a1 = g1.add_actor("a");
        let b2 = g2.add_actor("b");
        // Using g1's handle in g2 (same index 0 exists, so simulate a
        // genuinely out-of-range one).
        let fake = ActorId(5);
        assert!(matches!(
            g2.connect(b2, 1, fake, 1, 0),
            Err(SdfError::UnknownHandle { .. })
        ));
        let _ = a1;
    }

    #[test]
    fn isolated_actor_gets_one() {
        let mut g = SdfGraph::new();
        g.add_actor("lonely");
        assert_eq!(g.repetition_vector().unwrap(), vec![1]);
    }

    #[test]
    fn multirate_decimation_chain() {
        // src -1->1- fir -4->1- decim: decimator consumes 4 per firing.
        let mut g = SdfGraph::new();
        let src = g.add_actor("src");
        let fir = g.add_actor("fir");
        let dec = g.add_actor("decim");
        g.connect(src, 1, fir, 1, 0).unwrap();
        g.connect(fir, 1, dec, 4, 0).unwrap();
        assert_eq!(g.repetition_vector().unwrap(), vec![4, 4, 1]);
    }

    #[test]
    fn display_lists_edges() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        g.connect(a, 1, b, 2, 3).unwrap();
        let s = g.to_string();
        assert!(s.contains("a[1] -> [2]b"));
        assert!(s.contains("init 3"));
    }
}
