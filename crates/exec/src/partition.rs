//! Static partitioning of TDF clusters onto workers.
//!
//! Two inputs describe the elaborated model: a per-node execution cost
//! (the cluster's firings per schedule iteration, i.e. the sum of its
//! balance-equation repetition vector) and an undirected edge list of
//! couplings that force two nodes onto the same worker (shared DE
//! signals, SPSC pipes). The partitioner finds the connected components
//! with a union–find pass and then packs whole components onto workers
//! with the longest-processing-time (LPT) heuristic.
//!
//! Everything is deterministic: components are keyed by their smallest
//! node id, ties break toward smaller ids and lower worker indices, so
//! the same model always yields the same assignment — a prerequisite for
//! reproducible parallel runs.

/// The result of partitioning `n` nodes onto `workers` workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `assignment[node] = worker` for every node.
    pub assignment: Vec<usize>,
    /// Connected components, each sorted ascending; the list itself is
    /// ordered by descending total cost (ties: smaller first node id).
    pub components: Vec<Vec<usize>>,
    /// Total assigned cost per worker.
    pub loads: Vec<u64>,
}

impl Partition {
    /// Node ids assigned to `worker`, ascending.
    pub fn nodes_of(&self, worker: usize) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .assignment
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w == worker)
            .map(|(n, _)| n)
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of workers that received at least one node.
    pub fn busy_workers(&self) -> usize {
        self.loads.iter().filter(|&&l| l > 0).count()
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins, keeping component ids stable.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Partitions `costs.len()` nodes onto `workers` workers.
///
/// Nodes joined by an edge land on the same worker; whole components are
/// then LPT-packed by total cost. A zero `workers` is treated as one.
///
/// # Panics
///
/// Panics if an edge references a node out of range.
pub fn partition(costs: &[u64], edges: &[(usize, usize)], workers: usize) -> Partition {
    let n = costs.len();
    let workers = workers.max(1);
    let mut uf = UnionFind::new(n);
    for &(a, b) in edges {
        assert!(a < n && b < n, "edge ({a}, {b}) out of range for {n} nodes");
        uf.union(a, b);
    }

    // Group nodes by root, keyed by the smallest member id.
    let mut by_root: Vec<Vec<usize>> = vec![Vec::new(); n];
    for node in 0..n {
        let r = uf.find(node);
        by_root[r].push(node);
    }
    let mut components: Vec<Vec<usize>> = by_root.into_iter().filter(|c| !c.is_empty()).collect();

    // LPT order: heaviest component first, first-node id breaking ties.
    let total = |c: &[usize]| c.iter().map(|&x| costs[x]).sum::<u64>();
    components.sort_by(|a, b| total(b).cmp(&total(a)).then(a[0].cmp(&b[0])));

    let mut assignment = vec![0usize; n];
    let mut loads = vec![0u64; workers];
    for comp in &components {
        let w = (0..workers)
            .min_by_key(|&w| (loads[w], w))
            .expect("at least one worker");
        loads[w] += total(comp);
        for &node in comp {
            assignment[node] = w;
        }
    }

    Partition {
        assignment,
        components,
        loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_nodes_spread_across_workers() {
        let p = partition(&[5, 5, 5, 5], &[], 4);
        assert_eq!(p.components.len(), 4);
        assert_eq!(p.busy_workers(), 4);
        // Equal costs: LPT ties resolve by node id then worker id.
        assert_eq!(p.assignment, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edges_merge_components() {
        // 0-1-2 chained, 3 free.
        let p = partition(&[1, 1, 1, 10], &[(0, 1), (1, 2)], 2);
        assert_eq!(p.components.len(), 2);
        assert_eq!(p.components[0], vec![3]); // heaviest first
        assert_eq!(p.components[1], vec![0, 1, 2]);
        assert_eq!(p.assignment[0], p.assignment[1]);
        assert_eq!(p.assignment[1], p.assignment[2]);
        assert_ne!(p.assignment[0], p.assignment[3]);
        assert_eq!(p.loads, vec![10, 3]);
    }

    #[test]
    fn lpt_balances_loads() {
        // Costs 7, 5, 4, 3 on two workers: LPT gives {7,3} and {5,4}.
        let p = partition(&[7, 5, 4, 3], &[], 2);
        assert_eq!(p.loads, vec![10, 9]);
        assert_eq!(p.assignment, vec![0, 1, 1, 0]);
    }

    #[test]
    fn deterministic_assignment() {
        let costs = [3, 1, 4, 1, 5, 9, 2, 6];
        let edges = [(0, 4), (2, 6), (5, 7)];
        let a = partition(&costs, &edges, 3);
        let b = partition(&costs, &edges, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn more_workers_than_components() {
        let p = partition(&[1, 1], &[(0, 1)], 8);
        assert_eq!(p.busy_workers(), 1);
        assert_eq!(p.assignment, vec![0, 0]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let p = partition(&[1, 2, 3], &[], 0);
        assert_eq!(p.loads.len(), 1);
        assert!(p.assignment.iter().all(|&w| w == 0));
    }
}
