//! In-process benchmark of the SystemC-AMS reproduction.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the library through its public API in one process, as a
//! closed loop with one caller. After set-up it repeats the workload's
//! op for `S` seconds, checks every op's output, and prints one JSON
//! object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `NOTES.md` for the workloads and why each number is taken the way it
//! is.

mod f1;
mod layers;
mod mc;
mod rng;
mod serve;
mod stats;
mod sys;

use layers::Layers;
use stats::{quantile, Ratio};
use std::time::Instant;

/// One workload: an op the harness repeats and times, and a check of
/// its output that runs outside the timed region.
pub trait Workload {
    type Out;
    /// Times one fresh cold set-up, in seconds, for workloads whose
    /// set-up is cheap enough to repeat after every op; `None` for those
    /// that measure it only before the timed phase.
    fn cold_setup(&mut self) -> Option<Result<f64, String>> {
        None
    }
    /// Runs one op. `layers` records spans when the op is traced.
    fn op(&mut self, layers: &mut Layers) -> Result<Self::Out, String>;
    /// Checks one op's output and folds what the program exported
    /// during it into `layers`.
    fn check(&mut self, out: Self::Out, layers: &mut Layers) -> Result<(), String>;
}

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["mc_scalar", "mc_lanes8_newton", "serve_churn", "f1_adsl"];
/// Checked ops run before timing starts, so caches and lazy state
/// are warm.
const WARMUP_OPS: usize = 3;
/// Fresh cold set-ups timed after each op, reported as one mean.
const SETUP_BATCH: usize = 8;
/// The gated statistic for op and set-up times. On a host whose speed
/// switches between two modes for seconds at a time, this quantile
/// repeated across runs where the median and p10 did not (NOTES.md).
const LOW_QUANTILE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = a.next() {
        let v = a
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        let bad = |_| format!("bad value {v:?} for {flag}\n{usage}");
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(v.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}\n{usage}")),
        }
    }
    let workload = workload.ok_or(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or(usage)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or(usage)?,
        seconds,
        trace: trace.ok_or(usage)?,
    })
}

/// Everything one run measured.
struct Measured {
    setup_s: Vec<f64>,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    layers: Layers,
    attempted: u64,
    failed: u64,
    cpu_per_wall: f64,
    /// VmHWM after set-up and the warm-up ops.
    peak_rss_mb: Option<f64>,
}

/// Runs, times and checks one op; `record` keeps its time.
fn one_op<W: Workload>(w: &mut W, layers: &mut Layers, m: &mut Measured, record: bool) {
    let t = Instant::now();
    let out = w.op(layers);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    m.attempted += 1;
    match out.and_then(|o| w.check(o, layers)) {
        Ok(()) if record && layers.on() => m.traced_ms.push(ms),
        Ok(()) if record => m.untraced_ms.push(ms),
        Ok(()) => {}
        Err(e) => {
            m.failed += 1;
            if m.failed <= 3 {
                eprintln!("perfbench: op failed: {e}");
            }
        }
    }
}

/// One set-up sample taken between ops, or `None` for a workload that
/// times set-up only before the run. Set-ups spread over the run see the
/// same host conditions as the ops, not just the first milliseconds. The
/// first set-up after an op refills the CPU caches the op evicted and
/// runs 4-5x slower, swinging with the host's memory latency; it runs
/// but is not timed. The sample is the mean of the batch after it.
fn setup_batch<W: Workload>(w: &mut W) -> Result<Option<f64>, String> {
    if w.cold_setup().transpose()?.is_none() {
        return Ok(None);
    }
    let mut total = 0.0;
    for _ in 0..SETUP_BATCH {
        total += w.cold_setup().ok_or("set-up stopped mid-batch")??;
    }
    Ok(Some(total / SETUP_BATCH as f64))
}

/// Runs `w` for `args.seconds` after a short warm-up. With tracing,
/// ops alternate between traced and untraced, so both sample sets see
/// the same host conditions.
fn measure<W: Workload>(mut w: W, setup_s: Vec<f64>, args: &Args) -> Result<Measured, String> {
    let mut m = Measured {
        setup_s,
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        layers: Layers::new(true),
        attempted: 0,
        failed: 0,
        cpu_per_wall: 0.0,
        peak_rss_mb: None,
    };
    let mut off = Layers::new(false);
    // Warm-up ops are checked but not timed; what traced ones record is
    // dropped with `warm`.
    let mut warm = Layers::new(true);
    for i in 0..WARMUP_OPS {
        let layers = if args.trace && i % 2 == 1 {
            &mut warm
        } else {
            &mut off
        };
        one_op(&mut w, layers, &mut m, false);
    }
    // Read here, after a fixed amount of work: the service keeps every
    // finished job, so a reading at the end would grow with throughput.
    m.peak_rss_mb = sys::peak_rss_mb();

    let mut on = Layers::new(true);
    let cpu0 = sys::cpu_time();
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < args.seconds {
        let layers = if args.trace && i % 2 == 1 {
            &mut on
        } else {
            &mut off
        };
        one_op(&mut w, layers, &mut m, true);
        if let Some(s) = setup_batch(&mut w)? {
            m.setup_s.push(s);
        }
        i += 1;
    }
    m.cpu_per_wall = (sys::cpu_time() - cpu0).as_secs_f64() / t0.elapsed().as_secs_f64();
    m.layers = on;
    Ok(m)
}

fn q(samples: &[f64], p: f64) -> f64 {
    quantile(samples, p).map_or(0.0, |q| q.value)
}

/// Span names the per-layer table reports; self time under any other
/// name is summed into `bench.other_spans_ms`.
const REPORTED_SPANS: [&str; 19] = [
    "mna.assemble",
    "mna.factor",
    "mna.solve",
    "lint.circuit",
    "lint.space",
    "sweep.scenario",
    "sweep.transport",
    "sweep.sync",
    "sweep.merge",
    "checkpoint",
    "serve.submit",
    "serve.poll",
    "serve.result",
    "serve.client",
    "core.build",
    "core.elaborate",
    "core.run",
    "tdf.iteration",
    "wave.analyze",
];

/// The `--trace 1` table: per-op layer self times and counters over the
/// traced ops, and the latency distributions of jobs, requests and
/// scenarios.
fn per_layer(m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    let l = &m.layers;
    let n = m.traced_ms.len().max(1) as f64;
    let ms = |k: &str| l.self_ns.get(k).copied().unwrap_or(0) as f64 / 1e6 / n;
    let side_ms = |k: &str| l.side_ns.get(k).copied().unwrap_or(0) as f64 / 1e6 / n;
    let total = |k: &str| l.counts.get(k).copied().unwrap_or(0.0);
    let per_op = |k: &str| total(k) / n;
    let dist = |k: &str, p: f64| l.samples.get(k).map_or(0.0, |s| q(s, p));
    let count = |k: &str| l.samples.get(k).map_or(0, Vec::len) as f64;

    let traced_wall_ms: f64 = m.traced_ms.iter().sum();
    let attributed_ms = l.attributed_ns() as f64 / 1e6;
    let unattributed = Ratio {
        num: 100.0 * (traced_wall_ms - attributed_ms),
        base: traced_wall_ms,
    };
    let other_ms = l
        .self_ns
        .iter()
        .filter(|(k, _)| !REPORTED_SPANS.contains(k))
        .map(|(_, v)| *v)
        .sum::<u64>() as f64
        / 1e6
        / n;
    let untraced = q(&m.untraced_ms, LOW_QUANTILE);
    let overhead = Ratio {
        num: 100.0 * (q(&m.traced_ms, LOW_QUANTILE) - untraced),
        base: untraced,
    };
    let newton = Ratio {
        num: total("net.newton_iters"),
        base: total("net.steps"),
    };
    let hits = total("serve.cache.hits");
    let hit_ratio = Ratio {
        num: hits,
        base: hits + total("serve.cache.misses"),
    };
    vec![
        ("net.assemble_ms", ms("mna.assemble"), "ms"),
        ("net.factor_ms", ms("mna.factor"), "ms"),
        ("net.solve_ms", ms("mna.solve"), "ms"),
        ("net.steps", per_op("net.steps"), "count"),
        ("net.factorizations", per_op("net.factorizations"), "count"),
        (
            "net.symbolic_analyses",
            per_op("net.symbolic_analyses"),
            "count",
        ),
        (
            "net.numeric_refactors",
            per_op("net.numeric_refactors"),
            "count",
        ),
        ("net.newton_iters_per_step", newton.value(), "ratio"),
        (
            "lint.circuit_ms",
            ms("lint.circuit") + side_ms("lint.circuit"),
            "ms",
        ),
        ("lint.space_ms", ms("lint.space"), "ms"),
        ("lint.runs", per_op("lint.runs"), "count"),
        ("sweep.scenario_self_ms", ms("sweep.scenario"), "ms"),
        ("sweep.scenario_ms_p50", dist("sweep.scenario", 0.5), "ms"),
        (
            "sweep.compute_wall_ms",
            per_op("sweep.compute_wall_ns") / 1e6,
            "ms",
        ),
        ("sweep.sync_wall_ms", ms("sweep.sync"), "ms"),
        ("sweep.transport_ms", ms("sweep.transport"), "ms"),
        ("sweep.merge_ms", ms("sweep.merge"), "ms"),
        (
            "sweep.ring_high_water",
            l.maxima
                .get("sweep.ring_high_water")
                .copied()
                .unwrap_or(0.0),
            "count",
        ),
        ("sweep.prefix_ms", ms("checkpoint"), "ms"),
        ("sweep.prefix_forks", per_op("sweep.prefix_forks"), "count"),
        ("sweep.space_pruned", per_op("sweep.space_pruned"), "count"),
        ("sweep.cpu_per_wall", m.cpu_per_wall, "ratio"),
        ("monitor.samples", per_op("monitor.samples"), "count"),
        ("monitor.pass", per_op("monitor.pass"), "count"),
        ("monitor.fail", per_op("monitor.fail"), "count"),
        ("monitor.vacuous", per_op("monitor.vacuous"), "count"),
        ("serve.submit_ms", ms("serve.submit"), "ms"),
        ("serve.poll_ms", ms("serve.poll"), "ms"),
        ("serve.result_ms", ms("serve.result"), "ms"),
        ("serve.client_ms", ms("serve.client"), "ms"),
        (
            "serve.request_ms_p50_submit",
            dist("serve.request.submit", 0.5),
            "ms",
        ),
        (
            "serve.request_ms_p50_poll",
            dist("serve.request.poll", 0.5),
            "ms",
        ),
        (
            "serve.request_ms_p50_result",
            dist("serve.request.result", 0.5),
            "ms",
        ),
        ("serve.job_ms_p50_warm", dist("serve.job.warm", 0.5), "ms"),
        ("serve.job_ms_p99_warm", dist("serve.job.warm", 0.99), "ms"),
        ("serve.jobs_warm", count("serve.job.warm"), "count"),
        ("serve.job_ms_p50_cold", dist("serve.job.cold", 0.5), "ms"),
        ("serve.job_ms_p99_cold", dist("serve.job.cold", 0.99), "ms"),
        ("serve.jobs_cold", count("serve.job.cold"), "count"),
        ("serve.cache.hit_ratio", hit_ratio.value(), "ratio"),
        ("serve.cache.hits", per_op("serve.cache.hits"), "count"),
        ("serve.cache.misses", per_op("serve.cache.misses"), "count"),
        (
            "serve.cache.evictions",
            per_op("serve.cache.evictions"),
            "count",
        ),
        (
            "serve.lu.symbolic_analyses",
            per_op("serve.lu.symbolic_analyses"),
            "count",
        ),
        ("core.build_ms", ms("core.build"), "ms"),
        ("core.elaborate_ms", ms("core.elaborate"), "ms"),
        ("core.run_ms", ms("core.run"), "ms"),
        ("tdf.iteration_ms", ms("tdf.iteration"), "ms"),
        ("wave.analyze_ms", ms("wave.analyze"), "ms"),
        (
            "kernel.delta_cycles",
            per_op("kernel.delta_cycles"),
            "count",
        ),
        ("kernel.activations", per_op("kernel.activations"), "count"),
        ("tdf.iterations", per_op("tdf.iterations"), "count"),
        ("scope.trace_overhead_pct", overhead.value(), "pct"),
        ("bench.op_ms_p50", q(&m.untraced_ms, 0.5), "ms"),
        ("bench.op_ms_p99", q(&m.untraced_ms, 0.99), "ms"),
        ("bench.op_samples", m.untraced_ms.len() as f64, "count"),
        ("bench.traced_op_samples", m.traced_ms.len() as f64, "count"),
        ("bench.other_spans_ms", other_ms, "ms"),
        ("bench.unattributed_pct", unattributed.value(), "pct"),
    ]
}

/// The `--trace 0` table.
fn end_to_end(m: &Measured) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let rss = m
        .peak_rss_mb
        .ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(vec![
        ("setup_s", q(&m.setup_s, LOW_QUANTILE), "s"),
        ("op_ms_p05", q(&m.untraced_ms, LOW_QUANTILE), "ms"),
        ("peak_rss_mb", rss, "MB"),
    ])
}

fn render(m: &Measured, metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = m.failed == 0 && m.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        body.join(", ")
    ))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let (seed, started) = (args.seed, Instant::now());
    let m = match args.workload.as_str() {
        "mc_scalar" => measure(mc::McScalar::setup(seed)?, Vec::new(), &args)?,
        "mc_lanes8_newton" => measure(mc::McLanes::setup(seed)?, Vec::new(), &args)?,
        "serve_churn" => {
            // A cold service start costs a second: seven before timing.
            let (w, s) = serve::ServeChurn::setup(seed, 7)?;
            measure(w, s, &args)?
        }
        "f1_adsl" => measure(f1::F1::setup(seed)?, Vec::new(), &args)?,
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    eprintln!(
        "perfbench {} seed {seed}: {} ops ({} failed), p05 {:.3} ms, p50 {:.3} ms, \
         set-up p05 {:.3} ms p50 {:.3} ms over {}, {:.1} s in all",
        args.workload,
        m.attempted,
        m.failed,
        q(&m.untraced_ms, LOW_QUANTILE),
        q(&m.untraced_ms, 0.5),
        q(&m.setup_s, LOW_QUANTILE) * 1e3,
        q(&m.setup_s, 0.5) * 1e3,
        m.setup_s.len(),
        started.elapsed().as_secs_f64()
    );
    if args.trace {
        render(&m, &per_layer(&m))
    } else {
        render(&m, &end_to_end(&m)?)
    }
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
