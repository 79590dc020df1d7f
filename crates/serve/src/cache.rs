//! The warm topology cache: elaborated circuits, lint verdicts and
//! symbolic LU factors, keyed by topology fingerprint.
//!
//! The cache is what turns the daemon from "a socket in front of
//! `ams-sweep`" into a service worth running: the second job over a
//! topology pays zero elaboration, zero lint and zero symbolic
//! analysis. Three design points:
//!
//! * **Negative verdicts are cached too.** A topology that failed the
//!   lint gate will fail it identically next time; re-linting a known
//!   bad netlist on every retry is how a misbehaving client DoSes the
//!   daemon. The rejection is stored and replayed for free.
//! * **Byte-budget LRU.** Entries are charged an estimate of their
//!   resident size (circuit + factor); inserting past the budget
//!   evicts least-recently-used entries first. A single entry larger
//!   than the whole budget is still admitted alone — refusing to cache
//!   it would make the hot topology the one that is never warm.
//! * **Counters, not logs.** Hits, misses, evictions, resident bytes
//!   and lint runs are exported into the shared
//!   [`MetricsRegistry`] under `serve.*`
//!   names — the acceptance proof that a warm job did no cold work
//!   reads these.
//! * **Bounded verdicts.** Space-admission verdicts sit outside the
//!   byte budget but are capped in number (1 024 pairs): past the cap
//!   the least recently used `(topology, space)` pair is evicted, so a
//!   client submitting endless distinct spaces cannot grow the daemon
//!   without bound.

use crate::model::BuiltCircuit;
use ams_net::SymbolicFactor;
use ams_scope::MetricsRegistry;
use std::collections::HashMap;

/// Most space-admission verdicts the cache keeps, far above the handful
/// of `(topology, space)` pairs a working set holds; past it the least
/// recently used pair is evicted (`serve.space.evictions`).
const SPACE_VERDICTS: usize = 1024;

/// One cached topology.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The elaborated template and name→id maps.
    pub built: BuiltCircuit,
    /// `Some(message)` when the topology failed the lint gate — the
    /// cached *negative* verdict. `None` means it passed.
    pub lint_rejected: Option<String>,
    /// Warm symbolic factor, once some job has exported one.
    pub factor: Option<SymbolicFactor>,
    bytes: usize,
    stamp: u64,
}

impl CacheEntry {
    /// A fresh entry for a linted topology.
    pub fn new(built: BuiltCircuit, lint_rejected: Option<String>) -> CacheEntry {
        let bytes = circuit_bytes(&built);
        CacheEntry {
            built,
            lint_rejected,
            factor: None,
            bytes,
            stamp: 0,
        }
    }

    /// The entry's charged size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Rough resident size of an elaborated template: elements, node
/// names, and the two name→id maps. An estimate — the eviction policy
/// needs proportionality, not exactness.
fn circuit_bytes(built: &BuiltCircuit) -> usize {
    let names: usize = built
        .elements
        .keys()
        .chain(built.nodes.keys())
        .map(|k| k.len() + 48)
        .sum();
    built.circuit.element_count() * 128 + built.circuit.node_count() * 48 + names
}

/// An LRU cache over topology fingerprints with a byte budget.
#[derive(Debug)]
pub struct TopologyCache {
    entries: HashMap<u64, CacheEntry>,
    /// Space-admission verdicts keyed by `(topology fingerprint,
    /// SpaceSpec fingerprint)`: `Some(message)` is a cached rejection,
    /// `None` a cached pass, each with its LRU stamp. Kept apart from
    /// [`CacheEntry`] so the warm-path invariants (zero lint runs, zero
    /// symbolic analyses on a cache hit) are untouched, and outside the
    /// byte budget — a verdict is a short string, never a resident
    /// circuit — but capped at [`SPACE_VERDICTS`] pairs.
    space: HashMap<(u64, u64), (Option<String>, u64)>,
    budget: usize,
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    lint_runs: u64,
    space_hits: u64,
    space_runs: u64,
    space_evictions: u64,
}

impl TopologyCache {
    /// A cache bounded by `budget` bytes.
    pub fn new(budget: usize) -> TopologyCache {
        TopologyCache {
            entries: HashMap::new(),
            space: HashMap::new(),
            budget,
            clock: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            lint_runs: 0,
            space_hits: 0,
            space_runs: 0,
            space_evictions: 0,
        }
    }

    /// Looks up a topology, counting a hit or miss and refreshing its
    /// LRU stamp.
    pub fn lookup(&mut self, fp: u64) -> Option<&CacheEntry> {
        self.clock += 1;
        match self.entries.get_mut(&fp) {
            Some(e) => {
                e.stamp = self.clock;
                self.hits += 1;
                Some(e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident bytes currently charged.
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }

    /// Records that a lint pass actually ran (cold path only).
    pub fn count_lint_run(&mut self) {
        self.lint_runs += 1;
    }

    /// Looks up a cached space-admission verdict for a `(topology,
    /// space spec)` fingerprint pair, refreshing its LRU stamp.
    /// `Some(None)` is a cached pass, `Some(Some(msg))` a cached
    /// rejection, `None` means the pass has not run for this pair or its
    /// verdict was evicted.
    pub fn space_lookup(&mut self, key: (u64, u64)) -> Option<&Option<String>> {
        self.clock += 1;
        let (verdict, stamp) = self.space.get_mut(&key)?;
        *stamp = self.clock;
        self.space_hits += 1;
        Some(verdict)
    }

    /// Publishes a space-admission verdict, counting the pass that
    /// produced it. Past 1 024 pairs the least recently used one is
    /// evicted.
    pub fn space_insert(&mut self, key: (u64, u64), verdict: Option<String>) {
        self.clock += 1;
        self.space_runs += 1;
        self.space.insert(key, (verdict, self.clock));
        while self.space.len() > SPACE_VERDICTS {
            let Some(victim) = self
                .space
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.space.remove(&victim);
            self.space_evictions += 1;
        }
    }

    /// Inserts (or replaces) an entry, then evicts least-recently-used
    /// entries until the budget holds. The newly inserted entry is
    /// never evicted by its own insertion, even when it alone exceeds
    /// the budget — the hot topology must be cacheable.
    pub fn insert(&mut self, fp: u64, mut entry: CacheEntry) {
        self.clock += 1;
        entry.stamp = self.clock;
        if let Some(old) = self.entries.insert(fp, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += self.entries[&fp].bytes;
        self.evict_to_budget(fp);
    }

    /// Attaches a warm symbolic factor to an existing entry (no-op for
    /// an already-evicted fingerprint), recharging its size.
    pub fn store_factor(&mut self, fp: u64, factor: SymbolicFactor) {
        let Some(e) = self.entries.get_mut(&fp) else {
            return;
        };
        if e.factor.is_some() {
            return;
        }
        let extra = factor.approx_bytes();
        e.factor = Some(factor);
        e.bytes += extra;
        self.bytes += extra;
        self.evict_to_budget(fp);
    }

    /// Evicts least-recently-used entries until the budget holds. The
    /// just-touched entry `keep` is exempt, so an oversized entry is
    /// still admitted alone.
    fn evict_to_budget(&mut self, keep: u64) {
        while self.bytes > self.budget {
            let Some(fp) = self
                .entries
                .iter()
                .filter(|(fp, _)| **fp != keep)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(fp, _)| *fp)
            else {
                break;
            };
            let e = self.entries.remove(&fp).expect("victim exists");
            self.bytes -= e.bytes;
            self.evictions += 1;
        }
    }

    /// Exports the cache counters into `metrics` under `serve.*` names
    /// (counters are monotonic deltas against what the registry already
    /// holds, so exporting repeatedly is safe).
    pub fn export_metrics(&self, metrics: &mut MetricsRegistry) {
        for (name, v) in [
            ("serve.cache.hits", self.hits),
            ("serve.cache.misses", self.misses),
            ("serve.cache.evictions", self.evictions),
            ("serve.lint.runs", self.lint_runs),
            ("serve.space.hits", self.space_hits),
            ("serve.space.runs", self.space_runs),
            ("serve.space.evictions", self.space_evictions),
        ] {
            let cur = metrics.counter(name);
            metrics.counter_add(name, v.saturating_sub(cur));
        }
        metrics.gauge_set("serve.cache.bytes", self.bytes as f64);
        metrics.gauge_set("serve.cache.entries", self.entries.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::JobSpec;

    fn entry() -> CacheEntry {
        CacheEntry::new(JobSpec::demo_rc(2, 0).circuit.build().unwrap(), None)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut c = TopologyCache::new(1 << 20);
        assert!(c.lookup(42).is_none());
        c.insert(42, entry());
        assert!(c.lookup(42).is_some());
        assert!(c.lookup(7).is_none());
        let mut m = MetricsRegistry::new();
        c.export_metrics(&mut m);
        assert_eq!(m.counter("serve.cache.hits"), 1);
        assert_eq!(m.counter("serve.cache.misses"), 2);
        // Re-export does not double count.
        c.export_metrics(&mut m);
        assert_eq!(m.counter("serve.cache.misses"), 2);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let one = entry().bytes();
        // Room for two entries, not three.
        let mut c = TopologyCache::new(2 * one + one / 2);
        c.insert(1, entry());
        c.insert(2, entry());
        assert_eq!(c.len(), 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.lookup(1).is_some());
        c.insert(3, entry());
        assert_eq!(c.len(), 2);
        assert!(c.lookup(2).is_none(), "LRU entry evicted");
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(3).is_some());
        let mut m = MetricsRegistry::new();
        c.export_metrics(&mut m);
        assert_eq!(m.counter("serve.cache.evictions"), 1);
        assert!(c.resident_bytes() <= 2 * one + one / 2);
    }

    /// Regression for the byte accounting under the lane-aware
    /// `approx_bytes`: a stored factor must charge exactly its own
    /// estimate (scalar factors stay f64-sized — widening to a lane
    /// scalar happens in the sweep engine, never in this cache), and
    /// the recharge must be able to trigger eviction.
    #[test]
    fn storing_a_factor_recharges_the_entry_and_respects_the_budget() {
        use ams_net::{IntegrationMethod, SolverBackend, TransientSolver};

        let factor = || {
            let built = JobSpec::demo_rc(6, 0).circuit.build().unwrap();
            let mut tr =
                TransientSolver::new(&built.circuit, IntegrationMethod::Trapezoidal).unwrap();
            tr.backend = SolverBackend::Sparse;
            tr.initialize_dc().unwrap();
            tr.step(1e-9).unwrap();
            tr.symbolic_factor().expect("sparse run exports a factor")
        };
        let f = factor();
        let charge = f.approx_bytes();
        assert!(charge > 0, "factor estimate must be non-trivial");

        let mut c = TopologyCache::new(1 << 20);
        c.insert(1, entry());
        let before = c.resident_bytes();
        c.store_factor(1, f);
        assert_eq!(
            c.resident_bytes(),
            before + charge,
            "store_factor must charge exactly approx_bytes()"
        );
        // A second store is a no-op: no double charge.
        c.store_factor(1, factor());
        assert_eq!(c.resident_bytes(), before + charge);

        // The recharge participates in eviction: a budget with room for
        // two bare entries but not for one entry + factor + another
        // entry evicts the LRU sibling when the factor lands.
        let bare = entry().bytes();
        let mut c = TopologyCache::new(2 * bare + charge / 2);
        c.insert(1, entry());
        c.insert(2, entry());
        assert_eq!(c.len(), 2);
        c.store_factor(1, factor());
        assert_eq!(c.len(), 1, "factor recharge evicted the LRU entry");
        assert!(c.lookup(1).is_some(), "recharged entry survives");
        assert_eq!(c.lookup(1).unwrap().bytes(), bare + charge);
    }

    #[test]
    fn space_verdicts_are_cached_per_fingerprint_pair() {
        let mut c = TopologyCache::new(1);
        assert!(c.space_lookup((1, 2)).is_none());
        c.space_insert((1, 2), Some("space lint rejected: SPC001".into()));
        c.space_insert((1, 3), None);
        // Both polarities replay; neither touches entries or bytes.
        assert_eq!(
            c.space_lookup((1, 2)),
            Some(&Some("space lint rejected: SPC001".to_string()))
        );
        assert_eq!(c.space_lookup((1, 3)), Some(&None));
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
        let mut m = MetricsRegistry::new();
        c.export_metrics(&mut m);
        assert_eq!(m.counter("serve.space.runs"), 2);
        assert_eq!(m.counter("serve.space.hits"), 2);
        // The ordinary lint/cache counters stay untouched.
        assert_eq!(m.counter("serve.lint.runs"), 0);
        assert_eq!(m.counter("serve.cache.hits"), 0);
    }

    #[test]
    fn space_verdicts_are_capped_with_lru_eviction() {
        let mut c = TopologyCache::new(1);
        for k in 0..SPACE_VERDICTS as u64 {
            c.space_insert((k, 0), None);
        }
        // Touch the oldest pair, so the second oldest is the LRU one.
        assert_eq!(c.space_lookup((0, 0)), Some(&None));
        c.space_insert((u64::MAX, 0), Some("space lint rejected: SPC002".into()));
        assert!(c.space_lookup((1, 0)).is_none(), "LRU pair evicted");
        assert_eq!(c.space_lookup((0, 0)), Some(&None));
        assert_eq!(
            c.space_lookup((u64::MAX, 0)),
            Some(&Some("space lint rejected: SPC002".to_string()))
        );
        // Each further insert evicts exactly one pair, oldest first.
        c.space_insert((u64::MAX - 1, 0), None);
        assert!(c.space_lookup((2, 0)).is_none());
        assert_eq!(c.space_lookup((3, 0)), Some(&None));
        let mut m = MetricsRegistry::new();
        c.export_metrics(&mut m);
        assert_eq!(m.counter("serve.space.evictions"), 2);
        assert_eq!(m.counter("serve.space.runs"), SPACE_VERDICTS as u64 + 2);
        // Verdict eviction leaves the topology counters alone.
        assert_eq!(m.counter("serve.cache.evictions"), 0);
    }

    #[test]
    fn an_oversized_entry_is_still_admitted_alone() {
        let mut c = TopologyCache::new(1);
        c.insert(9, entry());
        assert_eq!(c.len(), 1);
        assert!(c.lookup(9).is_some());
    }
}
