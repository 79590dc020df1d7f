//! Per-layer accumulators for the traced run.
//!
//! Two sources feed them: spans the benchmark records around its own
//! calls into each crate's public functions, and the spans and counters
//! the program already exports (`ScopeTrace` tracks, `ExecStats`, solver
//! and service counters). Self times recorded here partition each
//! traced op's wall time; whatever they do not cover is reported as the
//! unattributed remainder.

use crate::stats::{track_times, TrackTimes};
use std::collections::BTreeMap;
use std::time::Instant;
use systemc_ams::scope::ScopeTrace;
use systemc_ams::sweep::SweepReport;

/// Accumulators for one workload's traced ops. When disabled every
/// method only runs the work it wraps.
#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    /// Self time per layer, ns, summed over traced ops. Together these
    /// partition the traced ops' wall time.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Timings of calls made beside the op (not part of its wall time).
    pub side_ns: BTreeMap<&'static str, u64>,
    /// Counters summed over traced ops.
    pub counts: BTreeMap<&'static str, f64>,
    /// Maxima over traced ops.
    pub maxima: BTreeMap<&'static str, f64>,
    /// Per-event distributions, ms.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Accumulators that record (`on`) or only pass work through.
    pub fn new(on: bool) -> Layers {
        Layers {
            on,
            ..Layers::default()
        }
    }

    /// Whether this op is traced.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, charging its wall time to `layer` as self time.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        *self.self_ns.entry(layer).or_default() += t.elapsed().as_nanos() as u64;
        out
    }

    /// Runs `f` and returns its result with its wall time in ns (0 when
    /// disabled), for calls whose time is split further by the caller.
    pub fn wall<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.on {
            return (f(), 0);
        }
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_nanos() as u64)
    }

    /// Charges `ns` of self time to `layer`.
    pub fn add_self(&mut self, layer: &'static str, ns: u64) {
        if self.on {
            *self.self_ns.entry(layer).or_default() += ns;
        }
    }

    /// Records a timing taken beside the op.
    pub fn add_side(&mut self, layer: &'static str, ns: u64) {
        if self.on {
            *self.side_ns.entry(layer).or_default() += ns;
        }
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += v;
        }
    }

    /// Raises maximum `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let m = self.maxima.entry(name).or_insert(v);
            *m = m.max(v);
        }
    }

    /// Appends one observation (ms) to distribution `name`.
    pub fn sample(&mut self, name: &'static str, ms: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(ms);
        }
    }

    /// Folds one track's span self times in under their span names and
    /// returns the summed duration of its top-level spans. Each closed
    /// `sweep.scenario` span also lands in the `sweep.scenario`
    /// distribution.
    fn fold_track(&mut self, t: &TrackTimes) -> u64 {
        for (name, k) in &t.kinds {
            self.add_self(name, k.self_ns);
            if *name == "sweep.scenario" {
                for d in &k.durations_ns {
                    self.sample("sweep.scenario", *d as f64 / 1e6);
                }
            }
        }
        t.top_level_ns
    }

    /// Charges a call whose inner spans the program recorded in `trace`,
    /// one track per component. The spans keep their own names; the part
    /// of `wall_ns` no span covers goes to `layer`.
    ///
    /// Tracks nest in real time (an embedded solver's track runs inside
    /// its cluster's iteration spans) but each track's clock has its own
    /// epoch, so the nesting is applied from totals: the track covering
    /// the most time is taken as the outermost, and its top-level kind
    /// gives up the time the other tracks cover. That holds for a model
    /// with one cluster, the only kind this benchmark traces this way.
    pub fn nested(&mut self, layer: &'static str, wall_ns: u64, trace: &ScopeTrace) {
        if !self.on {
            return;
        }
        let tracks: Vec<TrackTimes> = trace
            .tracks
            .iter()
            .map(|t| track_times(&t.events))
            .collect();
        let mut covered = 0;
        let mut inner = 0;
        let mut outer_kind = None;
        for t in &tracks {
            let top = self.fold_track(t);
            if top > covered {
                inner += covered;
                covered = top;
                outer_kind = t.top_kind;
            } else {
                inner += top;
            }
        }
        if let Some(k) = outer_kind {
            let own = self.self_ns.entry(k).or_default();
            *own = own.saturating_sub(inner);
        }
        self.add_self(layer, wall_ns.saturating_sub(covered));
    }

    /// Splits one traced `NetlistSweep` call of `wall_ns` into layers.
    /// The coordinator's spans (space proof, prefix run, the first
    /// scenario or bundle) and the shard's spans keep their names; the
    /// shard phase outside scenario spans is row transport; `sync_wall`
    /// is the final drain and join; what is left of the call is the
    /// coordinator's report merge.
    pub fn sweep(&mut self, wall_ns: u64, report: &SweepReport) {
        if !self.on {
            return;
        }
        let mut coordinator = 0;
        let mut shards = 0;
        if let Some(trace) = &report.trace {
            for track in &trace.tracks {
                let covered = self.fold_track(&track_times(&track.events));
                if track.process == "coordinator" {
                    coordinator += covered;
                } else {
                    shards += covered;
                }
            }
        }
        let compute = report.exec.compute_wall.as_nanos() as u64;
        let sync = report.exec.sync_wall.as_nanos() as u64;
        self.add_self("sweep.transport", compute.saturating_sub(shards));
        self.add_self("sweep.sync", sync);
        self.add_self(
            "sweep.merge",
            wall_ns.saturating_sub(compute + sync + coordinator),
        );
        self.count("sweep.compute_wall_ns", compute as f64);
        self.max("sweep.ring_high_water", report.exec.ring_high_water as f64);
        self.count("sweep.prefix_forks", report.prefix_forks as f64);
        self.count("sweep.space_pruned", report.space_pruned.len() as f64);
        let t = report.totals();
        self.count("net.steps", t.iterations as f64);
        self.count("net.factorizations", t.factorizations as f64);
        self.count("net.symbolic_analyses", t.solve.symbolic_analyses as f64);
        self.count("net.numeric_refactors", t.solve.numeric_refactors as f64);
        self.count("net.newton_iters", t.newton_iterations as f64);
        let props = report.monitor_names.len() as f64;
        if props > 0.0 {
            // Every probe sample feeds every property's automaton.
            self.count("monitor.samples", t.probe_samples as f64 * props);
            for s in report.monitor_summary() {
                self.count("monitor.pass", s.pass as f64);
                self.count("monitor.fail", s.fail as f64);
                self.count("monitor.vacuous", s.vacuous as f64);
            }
        }
    }

    /// Total self time recorded, ns.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }
}
