//! The deterministic sharded runner shared by netlist and TDF sweeps.
//!
//! Scenarios are split over workers by [`ams_exec::partition`]'s
//! longest-processing-time heuristic with uniform costs — a pure
//! function of `(scenario count, worker count)`, so the shard layout is
//! reproducible. Each worker streams its metric values back through an
//! `ams-exec` SPSC ring while the coordinator drains all rings live;
//! solver counters travel with the worker's join result. Because every
//! result is keyed by scenario index, the assembled rows are identical
//! no matter which worker ran which scenario or in what order the rings
//! drained.

use crate::report::{ScenarioResult, SweepReport};
use crate::SweepError;
use ams_core::ClusterStats;
use ams_exec::{partition, ring, ExecHook, ExecStats, RingConsumer, RingMonitor, RingProducer};
use ams_kernel::SimTime;
use ams_scope::{ScopeTrace, TraceEvent, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result-ring capacity per worker. Streaming is keyed, not windowed,
/// so capacity only bounds batching; `push_spin` waits out a full ring.
const RING_CAPACITY: usize = 256;

/// Builds one [`ExecHook`] per worker shard of a sweep. The factory is
/// invoked **on the coordinator**, once per shard in shard order (the
/// shard slot is the argument), before any worker thread spawns — so
/// hook construction is deterministic even for factories with side
/// effects. Each hook then observes its shard's items as windows
/// (`on_window` per item, in the item domain: item `k` is the window
/// `[k fs, k+1 fs)`), one `on_barrier` when the shard drains, and one
/// `on_finish` with the assembled batch statistics.
pub type HookFactory = Arc<dyn Fn(usize) -> Box<dyn ExecHook + Send> + Send + Sync>;

/// Outcome of one sharded batch over items `0..n_items`.
pub(crate) struct ShardRun {
    // `hooks` holds trait objects, so Debug is manual (below).
    /// Metric rows, one per item, in item order.
    pub metrics: Vec<Vec<f64>>,
    /// Solver counters, one per item.
    pub stats: Vec<ClusterStats>,
    /// Worker shards actually used.
    pub shards: usize,
    /// Peak occupancy across the result rings.
    pub ring_high_water: usize,
    /// Wall time from first dispatch to last worker exit.
    pub compute_wall: Duration,
    /// Wall time the coordinator spent in the final drain + join.
    pub sync_wall: Duration,
    /// Per-shard trace buffers, in shard order (empty unless tracing).
    pub traces: Vec<Vec<TraceEvent>>,
    /// Per-shard hooks handed back by the workers, in shard order, ready
    /// for the caller's `on_finish` dispatch.
    pub hooks: Vec<Box<dyn ExecHook + Send>>,
}

impl ShardRun {
    /// The report tail every sweep driver shares: folds `scenarios`
    /// into the batch [`ExecStats`] (`windows` = scenarios, `barriers`
    /// = shards), fires each shard hook's `on_finish` exactly once on
    /// the coordinator after the aggregate exists, and merges the trace
    /// — the `coordinator` track first (when it recorded anything),
    /// then one `shard-N` track per shard. The report is scalar-shaped
    /// (one lane, no bundles, nothing pruned, no prefix); drivers
    /// override those fields.
    pub(crate) fn into_report(
        mut self,
        metrics: &[&str],
        monitor_names: Vec<String>,
        scenarios: Vec<ScenarioResult>,
        lint_warnings: usize,
        coordinator: Vec<TraceEvent>,
        tracing: bool,
    ) -> SweepReport {
        let mut exec = ExecStats {
            windows: scenarios.len() as u64,
            barriers: self.shards as u64,
            ring_high_water: self.ring_high_water,
            compute_wall: self.compute_wall,
            sync_wall: self.sync_wall,
            lint_warnings,
            ..ExecStats::default()
        };
        for r in &scenarios {
            exec.clusters.push((r.label.clone(), r.stats));
        }
        for h in &mut self.hooks {
            h.on_finish(&exec);
        }
        let trace = tracing.then(|| {
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
            monitor_names,
            scenarios,
            exec,
            trace,
            lanes: 1,
            bundles: 0,
            space_pruned: Vec::new(),
            prefix_forks: 0,
            prefix_steps: 0,
        }
    }
}

impl std::fmt::Debug for ShardRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRun")
            .field("items", &self.metrics.len())
            .field("shards", &self.shards)
            .field("ring_high_water", &self.ring_high_water)
            .field(
                "traced_events",
                &self.traces.iter().map(Vec::len).sum::<usize>(),
            )
            .field("hooks", &self.hooks.len())
            .finish_non_exhaustive()
    }
}

/// Runs `run_one` for every item in `0..n_items`, sharded over at most
/// `workers` threads.
///
/// `build_state` is invoked **on the coordinator**, once per shard in
/// shard order, with the shard's item list — the place to pay per-worker
/// setup (cluster elaboration, solver construction) deterministically.
/// `run_one` then executes on the worker for each of the shard's items
/// (ascending) with the shard's [`Tracer`] (enabled iff `tracing`) and
/// returns the item's metric values and counters; whatever the closure
/// records lands in [`ShardRun::traces`] under the shard's slot.
///
/// When a [`HookFactory`] is given, one hook is built per shard (on the
/// coordinator, in shard order) and observes the shard's items as
/// windows; the hooks come back in [`ShardRun::hooks`] so the caller can
/// fire `on_finish` with the assembled statistics.
///
/// The first failing item (lowest item index wins, so the error is
/// deterministic too) aborts the batch with
/// [`SweepError::Scenario`]-style context attached by the caller.
pub(crate) fn run_sharded<S, B, R>(
    n_items: usize,
    n_metrics: usize,
    workers: usize,
    tracing: bool,
    hooks: Option<&HookFactory>,
    mut build_state: B,
    run_one: R,
) -> Result<ShardRun, SweepError>
where
    S: Send,
    B: FnMut(usize, &[usize]) -> Result<S, SweepError>,
    R: Fn(&mut S, usize, &mut Tracer) -> Result<(Vec<f64>, ClusterStats), SweepError> + Sync,
{
    let mut metrics = vec![vec![f64::NAN; n_metrics]; n_items];
    let mut stats = vec![ClusterStats::default(); n_items];
    if n_items == 0 {
        return Ok(ShardRun {
            metrics,
            stats,
            shards: 0,
            ring_high_water: 0,
            compute_wall: Duration::ZERO,
            sync_wall: Duration::ZERO,
            traces: Vec::new(),
            hooks: Vec::new(),
        });
    }

    let shards_wanted = workers.max(1).min(n_items);
    let part = partition(&vec![1; n_items], &[], shards_wanted);
    let shard_items: Vec<Vec<usize>> = (0..shards_wanted)
        .map(|w| part.nodes_of(w))
        .filter(|items| !items.is_empty())
        .collect();
    let shards = shard_items.len();

    // Per-shard setup on the coordinator, in shard order.
    let mut states = Vec::with_capacity(shards);
    for (slot, items) in shard_items.iter().enumerate() {
        states.push(build_state(slot, items)?);
    }

    // Per-shard hooks, likewise built in deterministic shard order.
    let shard_hooks: Vec<Option<Box<dyn ExecHook + Send>>> =
        (0..shards).map(|s| hooks.map(|f| f(s))).collect();

    let mut producers: Vec<RingProducer> = Vec::with_capacity(shards);
    let mut consumers: Vec<RingConsumer> = Vec::with_capacity(shards);
    let mut monitors: Vec<RingMonitor> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (p, c) = ring(RING_CAPACITY);
        monitors.push(p.monitor());
        producers.push(p);
        consumers.push(c);
    }

    let finished = AtomicUsize::new(0);
    let run_one = &run_one;
    let finished_ref = &finished;
    let t0 = Instant::now();
    let mut compute_wall = Duration::ZERO;
    let mut sync_wall = Duration::ZERO;

    type ShardOut = (
        Result<Vec<(usize, ClusterStats)>, SweepError>,
        Vec<TraceEvent>,
        Option<Box<dyn ExecHook + Send>>,
    );
    type Joined = (
        Vec<Vec<(usize, ClusterStats)>>,
        Vec<Vec<TraceEvent>>,
        Vec<Box<dyn ExecHook + Send>>,
    );
    let outcome: Result<Joined, SweepError> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards);
        for (((items, mut state), mut producer), mut hook) in shard_items
            .iter()
            .zip(states)
            .zip(producers)
            .zip(shard_hooks)
        {
            handles.push(scope.spawn(move || -> ShardOut {
                let mut tracer = if tracing { Tracer::on() } else { Tracer::off() };
                let mut local: Vec<(usize, ClusterStats)> = Vec::with_capacity(items.len());
                let mut failure: Option<SweepError> = None;
                for &item in items {
                    if let Some(h) = &mut hook {
                        h.on_window(
                            SimTime::from_fs(item as u64),
                            SimTime::from_fs(item as u64 + 1),
                        );
                    }
                    match run_one(&mut state, item, &mut tracer) {
                        Ok((values, st)) => {
                            debug_assert_eq!(values.len(), n_metrics);
                            for (pos, v) in values.into_iter().enumerate() {
                                // Key each sample by (item, metric):
                                // the timestamp channel carries the
                                // slot, the payload the value. The key
                                // is u64 end-to-end — computing it in
                                // usize would overflow on 32-bit
                                // targets before the cast.
                                let key = item as u64 * n_metrics as u64 + pos as u64;
                                producer.push_spin(SimTime::from_fs(key), v);
                            }
                            local.push((item, st));
                        }
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
                if let Some(h) = &mut hook {
                    let last = items.last().copied().unwrap_or(0) as u64;
                    h.on_barrier(SimTime::from_fs(last + 1));
                }
                finished_ref.fetch_add(1, Ordering::Release);
                let result = match failure {
                    None => Ok(local),
                    Some(e) => Err(e),
                };
                (result, tracer.take_events(), hook)
            }));
        }

        // Live drain: keep the rings shallow while workers run.
        while finished.load(Ordering::Acquire) < shards {
            let mut drained = false;
            for c in &mut consumers {
                while let Some((key, v)) = c.try_pop() {
                    // Split the u64 key before narrowing: `as usize`
                    // on the raw key truncates on 32-bit targets.
                    let (key, n) = (key.as_fs(), n_metrics.max(1) as u64);
                    metrics[(key / n) as usize][(key % n) as usize] = v;
                    drained = true;
                }
            }
            if !drained {
                std::thread::yield_now();
            }
        }
        compute_wall = t0.elapsed();

        // Final drain after the last worker exited, then join.
        let t1 = Instant::now();
        for c in &mut consumers {
            while let Some((key, v)) = c.try_pop() {
                let (key, n) = (key.as_fs(), n_metrics.max(1) as u64);
                metrics[(key / n) as usize][(key % n) as usize] = v;
            }
        }
        let mut all = Vec::with_capacity(shards);
        let mut traces = Vec::with_capacity(shards);
        let mut out_hooks = Vec::with_capacity(shards);
        let mut first_err: Option<(usize, SweepError)> = None;
        for h in handles {
            match h.join() {
                Ok((result, events, hook)) => {
                    // Traces and hooks come back in shard order
                    // because the handles were spawned in shard
                    // order — the merge never depends on timing.
                    traces.push(events);
                    if let Some(hk) = hook {
                        out_hooks.push(hk);
                    }
                    match result {
                        Ok(local) => all.push(local),
                        Err(e) => {
                            // Keep the error of the lowest failing
                            // item so the reported failure does not
                            // depend on shard scheduling.
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
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        sync_wall = t1.elapsed();
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok((all, traces, out_hooks)),
        }
    });

    let (per_shard, traces, out_hooks) = outcome?;
    for (item, st) in per_shard.into_iter().flatten() {
        stats[item] = st;
    }
    let ring_high_water = monitors
        .iter()
        .map(RingMonitor::high_water)
        .max()
        .unwrap_or(0);

    Ok(ShardRun {
        metrics,
        stats,
        shards,
        ring_high_water,
        compute_wall,
        sync_wall,
        traces,
        hooks: out_hooks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double_and_count(workers: usize) -> ShardRun {
        run_sharded(
            10,
            2,
            workers,
            false,
            None,
            |_slot, _items| Ok(0u64),
            |state: &mut u64, item, _tracer: &mut Tracer| {
                *state += 1;
                Ok((
                    vec![item as f64 * 2.0, item as f64 + 0.5],
                    ClusterStats {
                        iterations: item as u64,
                        ..Default::default()
                    },
                ))
            },
        )
        .unwrap()
    }

    #[test]
    fn rows_are_keyed_by_item_not_by_schedule() {
        for workers in [1, 3, 8] {
            let run = double_and_count(workers);
            for (i, row) in run.metrics.iter().enumerate() {
                assert_eq!(row[0], i as f64 * 2.0, "workers={workers}");
                assert_eq!(row[1], i as f64 + 0.5);
            }
            for (i, st) in run.stats.iter().enumerate() {
                assert_eq!(st.iterations, i as u64);
            }
            assert!(run.shards <= workers.max(1));
        }
    }

    #[test]
    fn worker_error_reports_the_lowest_failing_item() {
        let err = run_sharded(
            8,
            1,
            4,
            false,
            None,
            |_, _| Ok(()),
            |_state: &mut (), item, _tracer: &mut Tracer| {
                if item >= 3 {
                    Err(SweepError::scenario(item, "boom"))
                } else {
                    Ok((vec![0.0], ClusterStats::default()))
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
            1,
            2,
            false,
            None,
            |slot, _| {
                if slot == 1 {
                    Err(SweepError::invalid("bad slot"))
                } else {
                    Ok(())
                }
            },
            |_: &mut (), _, _tracer: &mut Tracer| Ok((vec![0.0], ClusterStats::default())),
        )
        .unwrap_err();
        assert!(matches!(err, SweepError::Invalid(_)));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let run = run_sharded(
            0,
            3,
            4,
            false,
            None,
            |_, _| Ok(()),
            |_: &mut (), _, _tracer: &mut Tracer| Ok((vec![0.0; 3], ClusterStats::default())),
        )
        .unwrap();
        assert!(run.metrics.is_empty());
        assert_eq!(run.shards, 0);
    }

    #[test]
    fn tracing_and_hooks_observe_every_item_per_shard() {
        use ams_exec::CountingHook;
        use ams_scope::SpanKind;
        use std::sync::Mutex;

        let handles: Arc<Mutex<Vec<Arc<Mutex<CountingHook>>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = handles.clone();
        let factory: HookFactory = Arc::new(move |_slot| {
            let h = Arc::new(Mutex::new(CountingHook::default()));
            sink.lock().unwrap().push(h.clone());
            Box::new(h)
        });

        let run = run_sharded(
            6,
            1,
            2,
            true,
            Some(&factory),
            |_, _| Ok(()),
            |_: &mut (), item, tracer: &mut Tracer| {
                let idx = item as u64;
                tracer.begin_with(SpanKind::Scenario, idx, idx);
                tracer.end_with(SpanKind::Scenario, idx + 1, idx);
                Ok((vec![item as f64], ClusterStats::default()))
            },
        )
        .unwrap();

        assert_eq!(run.shards, 2);
        assert_eq!(run.traces.len(), 2);
        assert_eq!(run.hooks.len(), 2);
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
        // One hook per shard, built in shard order; windows sum to the
        // item count, one barrier each, no finish (the caller owns it).
        let handles = handles.lock().unwrap();
        assert_eq!(handles.len(), 2);
        let windows: u64 = handles.iter().map(|h| h.lock().unwrap().windows).sum();
        assert_eq!(windows, 6);
        for h in handles.iter() {
            let h = h.lock().unwrap();
            assert_eq!(h.barriers, 1);
            assert_eq!(h.finishes, 0);
        }
    }
}
