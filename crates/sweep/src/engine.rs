//! The deterministic sharded runner shared by netlist and TDF sweeps,
//! with the bundle-to-results step and the report tail both drivers
//! use.
//!
//! Scenarios are dealt round-robin over workers (item `i` goes to shard
//! `i mod w`) — a pure function of `(scenario count, worker count)`, so
//! the shard layout is reproducible. The coordinator spawns one thread per shard but the
//! last, runs the last shard itself, then joins the others; every shard
//! hands back its items' [`ScenarioResult`]s with its join result.
//! There is nothing to poll while shards compute, and a one-shard batch
//! spawns no thread at all. Results are placed by item index, so the
//! assembled report is identical no matter which thread ran which
//! scenario.

use crate::options::SweepOptions;
use crate::report::{ScenarioResult, SweepReport};
use crate::spec::Scenario;
use crate::SweepError;
use ams_core::ClusterStats;
use ams_exec::ExecStats;
use ams_monitor::{codes as mon_codes, MonitorSpec, Verdict};
use ams_scope::{ScopeTrace, SpanKind, TraceEvent, Tracer};
use std::time::{Duration, Instant};

/// Emits one [`SpanKind::Monitor`] instant per property verdict,
/// timestamped with the witness point's simulated time (the horizon
/// for non-failures); `arg` = property index `<< 8 |` violation-code
/// number (low byte 0 for a pass or vacuous verdict).
pub(crate) fn emit_monitor_instants(tracer: &mut Tracer, verdicts: &[Verdict], t_end: f64) {
    for (i, v) in verdicts.iter().enumerate() {
        let (t, code) = match v {
            Verdict::Fail { code, t, .. } => (*t, mon_codes::code_number(code).unwrap_or(0)),
            _ => (t_end, 0),
        };
        tracer.instant(
            SpanKind::Monitor,
            (t * 1e15) as u64,
            ((i as u64) << 8) | u64::from(code),
        );
    }
}

/// The counters lane `lane` of a bundle reports. Steps, rejected steps,
/// probe samples and Newton iterations are every lane's own (one step
/// advances every lane), so each lane carries them. Factorizations and
/// the linear solver's counts were paid once for the whole bundle, so
/// only lane 0 carries them and [`SweepReport::totals`] counts them
/// once per bundle; the pattern gauges stay on every lane.
fn lane_stats(bundle: &ClusterStats, lane: usize) -> ClusterStats {
    let mut s = *bundle;
    if lane > 0 {
        s.factorizations = 0;
        s.solve.symbolic_analyses = 0;
        s.solve.numeric_refactors = 0;
        s.solve.jacobian_reused = 0;
    }
    s
}

/// A lane bundle's [`ScenarioResult`]s: scenario `l` of `scenarios`
/// takes metric row `l`, verdict list `l` (empty without monitors) and
/// the bundle's counters as lane `l` reports them ([`lane_stats`]).
/// Rows and verdict lists beyond `scenarios` (padding lanes) are
/// dropped.
pub(crate) fn bundle_results(
    scenarios: &[Scenario],
    rows: Vec<Vec<f64>>,
    mut verdicts: Vec<Vec<Verdict>>,
    stats: &ClusterStats,
) -> Vec<ScenarioResult> {
    verdicts.resize_with(scenarios.len(), Vec::new);
    scenarios
        .iter()
        .zip(rows)
        .zip(verdicts)
        .enumerate()
        .map(|(l, ((sc, metrics), verdicts))| ScenarioResult {
            index: sc.index(),
            label: sc.label(),
            metrics,
            stats: lane_stats(stats, l),
            verdicts,
        })
        .collect()
}

/// Outcome of one sharded batch over items `0..n_items`.
#[derive(Debug)]
pub(crate) struct ShardRun {
    /// Each item's scenario results (one per scenario of its lane
    /// bundle), in item order.
    pub bundles: Vec<Vec<ScenarioResult>>,
    /// Worker shards actually used.
    pub shards: usize,
    /// Wall time from dispatch until the coordinator's own shard
    /// finished.
    pub compute_wall: Duration,
    /// Wall time the coordinator then spent waiting for and joining the
    /// other shards.
    pub sync_wall: Duration,
    /// Per-shard trace buffers, in shard order (empty unless tracing).
    pub traces: Vec<Vec<TraceEvent>>,
}

impl ShardRun {
    /// The report tail every sweep driver shares: concatenates the
    /// bundles' [`ScenarioResult`]s in item order, folds them into the
    /// batch [`ExecStats`] (`windows` = scenarios, `barriers` = shards),
    /// and merges the trace — the `coordinator` track first (when it
    /// recorded anything), then one `shard-N` track per shard. Nothing
    /// is pruned and no prefix is shared; drivers override those
    /// fields.
    pub(crate) fn into_report(
        self,
        opts: &SweepOptions,
        metrics: &[&str],
        lanes: usize,
        lint_warnings: usize,
        coordinator: Vec<TraceEvent>,
    ) -> SweepReport {
        let bundles = if lanes > 1 { self.bundles.len() } else { 0 };
        let results: Vec<ScenarioResult> = self.bundles.into_iter().flatten().collect();
        let mut exec = ExecStats {
            windows: results.len() as u64,
            barriers: self.shards as u64,
            compute_wall: self.compute_wall,
            sync_wall: self.sync_wall,
            lint_warnings,
            ..ExecStats::default()
        };
        for r in &results {
            exec.clusters.push((r.label.clone(), r.stats));
        }
        let trace = opts.trace.then(|| {
            let mut t = ScopeTrace::new();
            if !coordinator.is_empty() {
                t.add_track("coordinator", "scenarios", coordinator);
            }
            for (s, events) in self.traces.into_iter().enumerate() {
                if !events.is_empty() {
                    t.add_track(format!("shard-{s}"), "scenarios", events);
                }
            }
            t
        });
        SweepReport {
            metric_names: metrics.iter().map(|m| (*m).to_string()).collect(),
            monitor_names: opts.monitors().map(MonitorSpec::names).unwrap_or_default(),
            scenarios: results,
            exec,
            trace,
            lanes,
            bundles,
            space_pruned: Vec::new(),
            prefix_forks: 0,
            prefix_steps: 0,
        }
    }
}

/// What one shard hands back: its `(item, results)` list or the error
/// that stopped it, and its trace buffer.
type ShardOut = (
    Result<Vec<(usize, Vec<ScenarioResult>)>, SweepError>,
    Vec<TraceEvent>,
);

/// Runs `run_one` for every item in `0..n_items`, sharded over at most
/// `workers` threads, the calling thread included.
///
/// `build_state` is invoked **on the coordinator**, once per shard in
/// shard order, with the shard's item list — the place to pay per-worker
/// setup (cluster elaboration, solver construction) deterministically.
/// `run_one` then executes each of the shard's items (ascending) with
/// the shard's own [`Tracer`] (enabled iff `tracing`) and returns the
/// item's scenario results; whatever the closure records lands
/// in [`ShardRun::traces`] under the shard's slot. Every shard but the
/// last runs on a scoped thread; the last runs on the calling thread,
/// so a one-shard batch spawns nothing.
///
/// The first failing item (lowest item index wins, so the error is
/// deterministic too) aborts the batch with
/// [`SweepError::Scenario`]-style context attached by the caller. A
/// panic in any shard propagates to the caller.
pub(crate) fn run_sharded<S, B, R>(
    n_items: usize,
    workers: usize,
    tracing: bool,
    mut build_state: B,
    run_one: R,
) -> Result<ShardRun, SweepError>
where
    S: Send,
    B: FnMut(usize, &[usize]) -> Result<S, SweepError>,
    R: Fn(&mut S, usize, &mut Tracer) -> Result<Vec<ScenarioResult>, SweepError> + Sync,
{
    if n_items == 0 {
        return Ok(ShardRun {
            bundles: Vec::new(),
            shards: 0,
            compute_wall: Duration::ZERO,
            sync_wall: Duration::ZERO,
            traces: Vec::new(),
        });
    }

    let shards_wanted = workers.max(1).min(n_items);
    let shard_items: Vec<Vec<usize>> = (0..shards_wanted)
        .map(|s| (s..n_items).step_by(shards_wanted).collect())
        .collect();
    let shards = shard_items.len();

    // Per-shard setup on the coordinator, in shard order.
    let mut states = Vec::with_capacity(shards);
    for (slot, items) in shard_items.iter().enumerate() {
        states.push(build_state(slot, items)?);
    }

    let run_shard = |items: &[usize], mut state: S| -> ShardOut {
        let mut tracer = if tracing { Tracer::on() } else { Tracer::off() };
        let mut done = Vec::with_capacity(items.len());
        let mut result = Ok(());
        for &item in items {
            match run_one(&mut state, item, &mut tracer) {
                Ok(results) => done.push((item, results)),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        (result.map(|()| done), tracer.take_events())
    };

    let t0 = Instant::now();
    let mut compute_wall = Duration::ZERO;
    let mut sync_wall = Duration::ZERO;
    let outs: Vec<ShardOut> = std::thread::scope(|scope| {
        let run_shard = &run_shard;
        let mut jobs = shard_items.iter().zip(states);
        let (mine, others) = (jobs.next_back(), jobs);
        let handles: Vec<_> = others
            .map(|(items, state)| scope.spawn(move || run_shard(items, state)))
            .collect();
        let (items, state) = mine.expect("a non-empty batch has a shard");
        let own = run_shard(items, state);
        compute_wall = t0.elapsed();
        let t1 = Instant::now();
        // Joined in spawn order and the coordinator's shard appended
        // last, so traces come back in shard order and the merge never
        // depends on timing.
        let mut outs: Vec<ShardOut> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        outs.push(own);
        sync_wall = t1.elapsed();
        outs
    });

    let mut bundles = vec![Vec::new(); n_items];
    let mut traces = Vec::with_capacity(shards);
    let mut first_err: Option<(usize, SweepError)> = None;
    for (result, events) in outs {
        traces.push(events);
        match result {
            Ok(done) => {
                for (item, results) in done {
                    bundles[item] = results;
                }
            }
            Err(e) => {
                // Keep the error of the lowest failing item so the
                // reported failure does not depend on shard scheduling.
                let item = match &e {
                    SweepError::Scenario { index, .. } => *index,
                    _ => usize::MAX,
                };
                if first_err.as_ref().is_none_or(|(i, _)| item < *i) {
                    first_err = Some((item, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }

    Ok(ShardRun {
        bundles,
        shards,
        compute_wall,
        sync_wall,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Item `item` as a one-scenario bundle with the given metrics.
    fn result(item: usize, metrics: Vec<f64>) -> Vec<ScenarioResult> {
        vec![ScenarioResult {
            index: item,
            label: format!("#{item}"),
            metrics,
            stats: ClusterStats {
                iterations: item as u64,
                ..Default::default()
            },
            verdicts: Vec::new(),
        }]
    }

    fn double_and_count(workers: usize) -> ShardRun {
        run_sharded(
            10,
            workers,
            false,
            |_slot, _items| Ok(0u64),
            |state: &mut u64, item, _tracer: &mut Tracer| {
                *state += 1;
                Ok(result(item, vec![item as f64 * 2.0, item as f64 + 0.5]))
            },
        )
        .unwrap()
    }

    #[test]
    fn rows_are_keyed_by_item_not_by_schedule() {
        for workers in [1, 3, 8] {
            let run = double_and_count(workers);
            for (i, bundle) in run.bundles.iter().enumerate() {
                let r = &bundle[0];
                assert_eq!(r.index, i, "workers={workers}");
                assert_eq!(r.metrics, [i as f64 * 2.0, i as f64 + 0.5]);
                assert_eq!(r.stats.iterations, i as u64);
            }
            assert!(run.shards <= workers.max(1));
        }
    }

    /// The items `run_one` saw on the thread that called `run_sharded`.
    fn items_run_by_caller(n_items: usize, workers: usize) -> Vec<usize> {
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        run_sharded(
            n_items,
            workers,
            false,
            |_, _| Ok(()),
            |_: &mut (), item, _tracer: &mut Tracer| {
                if std::thread::current().id() == caller {
                    seen.lock().unwrap().push(item);
                }
                Ok(result(item, vec![item as f64]))
            },
        )
        .unwrap();
        seen.into_inner().unwrap()
    }

    #[test]
    fn one_worker_runs_every_item_on_the_calling_thread() {
        assert_eq!(items_run_by_caller(7, 1), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn the_caller_runs_exactly_the_last_shard() {
        let last: Vec<usize> = (2..10).step_by(3).collect();
        assert!(!last.is_empty() && last.len() < 10);
        assert_eq!(items_run_by_caller(10, 3), last);
    }

    #[test]
    fn a_panic_in_any_shard_reaches_the_caller() {
        // Item 0 runs on a spawned shard, the last shard's first item on
        // the caller.
        let last: Vec<usize> = (2..6).step_by(3).collect();
        for bad in [0, last[0]] {
            let caught = std::panic::catch_unwind(|| {
                run_sharded(
                    6,
                    3,
                    false,
                    |_, _| Ok(()),
                    |_: &mut (), item, _tracer: &mut Tracer| {
                        assert_ne!(item, bad, "deliberate shard panic");
                        Ok(result(item, vec![0.0]))
                    },
                )
            });
            assert!(caught.is_err(), "the panic on item {bad} was swallowed");
        }
    }

    #[test]
    fn worker_error_reports_the_lowest_failing_item() {
        let err = run_sharded(
            8,
            4,
            false,
            |_, _| Ok(()),
            |_state: &mut (), item, _tracer: &mut Tracer| {
                if item >= 3 {
                    Err(SweepError::scenario(item, "boom"))
                } else {
                    Ok(result(item, vec![0.0]))
                }
            },
        )
        .unwrap_err();
        match err {
            SweepError::Scenario { index, .. } => assert_eq!(index, 3),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn build_failure_aborts_before_spawning() {
        let err = run_sharded(
            4,
            2,
            false,
            |slot, _| {
                if slot == 1 {
                    Err(SweepError::invalid("bad slot"))
                } else {
                    Ok(())
                }
            },
            |_: &mut (), item, _tracer: &mut Tracer| Ok(result(item, vec![0.0])),
        )
        .unwrap_err();
        assert!(matches!(err, SweepError::Invalid(_)));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let run = run_sharded(
            0,
            4,
            false,
            |_, _| Ok(()),
            |_: &mut (), item, _tracer: &mut Tracer| Ok(result(item, vec![0.0; 3])),
        )
        .unwrap();
        assert!(run.bundles.is_empty());
        assert_eq!(run.shards, 0);
    }

    #[test]
    fn tracing_records_every_item_on_its_shard_track() {
        use ams_scope::SpanKind;

        let run = run_sharded(
            6,
            2,
            true,
            |_, _| Ok(()),
            |_: &mut (), item, tracer: &mut Tracer| {
                let idx = item as u64;
                tracer.begin_with(SpanKind::Scenario, idx, idx);
                tracer.end_with(SpanKind::Scenario, idx + 1, idx);
                Ok(result(item, vec![item as f64]))
            },
        )
        .unwrap();

        assert_eq!(run.shards, 2);
        assert_eq!(run.traces.len(), 2);
        // Every item produced one begin/end span pair in its shard's
        // buffer; the union covers all six scenario indices.
        let mut seen: Vec<u64> = run
            .traces
            .iter()
            .flatten()
            .filter(|e| e.phase == ams_scope::Phase::Begin)
            .map(|e| e.arg)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }
}
