//! E16 — cost of the `ams-monitor` runtime-verification layer.
//!
//! Monitors attach at the sweep layer: after every accepted solver
//! step the probed node samples are fed through the per-property
//! automata. Each automaton is O(1) state and O(1) work per sample
//! (DESIGN.md §6j), and an *unmonitored* sweep pays only an emptiness
//! branch per step — the acceptance bar from EXPERIMENTS.md E16 is
//! that the unmonitored path stays within 2 % of the pre-monitor
//! baseline (E10/E13 numbers for the same workload).
//!
//! * `monitor/parse` — compiling the 5-property demo spec. One-time,
//!   per job; amortised over every scenario of a sweep.
//! * `monitor/feed` — one sample through a 5-property bank: the raw
//!   per-sample hook cost when monitoring is *enabled*.
//! * `monitor/feed_fmask` — one sample through the streaming-Goertzel
//!   frequency-mask automaton, the most expensive property kind (one
//!   real rotation per sample, no FFT buffer).
//! * `e16/sweep_off` / `e16/sweep_on` — the monte_carlo_filter
//!   workload (16-corner Monte-Carlo, 4-stage pulse-driven RC ladder,
//!   sparse backend, 1000 trapezoidal steps per scenario) without and
//!   with the 5-property bank attached. EXPERIMENTS.md quotes the
//!   off/on ratio and compares *off* against the pre-monitor baseline.
//!
//! A one-shot wall-clock comparison is printed before the criterion
//! groups run, so `cargo bench --bench e16_monitor_overhead` shows the
//! headline overhead percentage without waiting for full sampling.

use ams_monitor::{MonitorBank, MonitorSpec};
use ams_net::{
    Circuit, ElementId, IntegrationMethod, NodeId, ScenarioProbe, SolverBackend, Waveform,
};
use ams_sweep::{NetlistSweep, SweepReport, SweepSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const SCENARIOS: usize = 16;
const WORKERS: usize = 1;

/// The 4-stage RC ladder driven by a 0 → 1 V pulse (τ = 1 µs per
/// stage). A DC source would start the transient at the settled
/// operating point; the pulse keeps the settle/rise properties real.
fn ladder() -> (Circuit, Vec<ElementId>, Vec<ElementId>, NodeId) {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.voltage_source_wave(
        "V",
        prev,
        Circuit::GROUND,
        Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 1e-6,
            fall: 1e-6,
            width: 1.0,
            period: 0.0,
        },
    )
    .unwrap();
    let mut resistors = Vec::new();
    let mut caps = Vec::new();
    for i in 0..4 {
        let node = ckt.node(format!("n{i}"));
        resistors.push(ckt.resistor(format!("R{i}"), prev, node, 1e3).unwrap());
        caps.push(
            ckt.capacitor(format!("C{i}"), node, Circuit::GROUND, 1e-9)
                .unwrap(),
        );
        prev = node;
    }
    (ckt, resistors, caps, prev)
}

/// Same 5-property mix as the determinism suite: two always-pass, one
/// vacuous, one armed-or-not, one that splits the tolerance box.
fn five_properties() -> MonitorSpec {
    MonitorSpec::parse(
        "env:envelope(lo=-0.1,hi=1.25)@n3;\
         fin:finite()@n3;\
         late:settle(lo=0.9,hi=1.1,by=1.0)@n3;\
         rise:rise(lo=0.1,hi=0.9,within=2.0e-5)@n3;\
         tight:settle(lo=0.95,hi=1.05,by=3.2e-5)@n3",
    )
    .unwrap()
}

fn sweep(monitored: bool) -> SweepReport {
    let (ckt, resistors, caps, out) = ladder();
    let spec =
        SweepSpec::monte_carlo(&[("dr", -0.2, 0.2), ("dc", -0.2, 0.2)], SCENARIOS, 0x30A7).unwrap();
    let mut sweep = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
        .backend(SolverBackend::Sparse)
        .fixed_step(5e-5, 5e-8);
    if monitored {
        sweep = sweep.monitors(five_properties());
    }
    sweep
        .run(
            &spec,
            WORKERS,
            &["v_out"],
            |c, sc| {
                for r in &resistors {
                    c.set_resistance(*r, 1e3 * (1.0 + sc.value("dr")))?;
                }
                for cap in &caps {
                    c.set_capacitance(*cap, 1e-9 * (1.0 + sc.value("dc")))?;
                }
                Ok(())
            },
            |tr: &dyn ScenarioProbe, m| m[0] = tr.voltage(out),
        )
        .unwrap()
}

fn bench_monitor_overhead(c: &mut Criterion) {
    // Headline number once, outside criterion sampling: three
    // alternating off/on pairs, best-of to damp warmup noise.
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t = std::time::Instant::now();
        black_box(sweep(false));
        best_off = best_off.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        black_box(sweep(true));
        best_on = best_on.min(t.elapsed().as_secs_f64());
    }
    let report = sweep(true);
    println!(
        "e16: {SCENARIOS}-scenario sweep off {:.1} ms | on (5 props) {:.1} ms | \
         enabled overhead {:+.1}% | yield {}/{}",
        best_off * 1e3,
        best_on * 1e3,
        (best_on / best_off - 1.0) * 100.0,
        report.passing_scenarios(),
        report.scenarios.len(),
    );

    // Spec compilation: one-time, per job.
    let text = five_properties().render();
    c.bench_function("monitor/parse", |b| {
        b.iter(|| MonitorSpec::parse(black_box(&text)).unwrap())
    });

    // Raw per-sample hook cost with monitoring enabled. Time must be
    // monotonic for the deadline automata, so a counter drives it.
    let spec = five_properties();
    let mut bank = MonitorBank::new(&spec);
    let mut i = 0u64;
    c.bench_function("monitor/feed", |b| {
        b.iter(|| {
            i += 1;
            bank.feed(0, i as f64 * 1e-9, black_box(0.97));
        })
    });

    // The most expensive automaton: streaming Goertzel (fmask).
    let spec = MonitorSpec::parse("h:fmask(f=1e3,max=0.2)@x").unwrap();
    let mut bank = MonitorBank::new(&spec);
    let mut i = 0u64;
    c.bench_function("monitor/feed_fmask", |b| {
        b.iter(|| {
            i += 1;
            let t = i as f64 * 1e-6;
            bank.feed(0, t, black_box((t * 6.28e3).sin() * 0.05));
        })
    });

    // The sweep pair EXPERIMENTS.md quotes.
    let mut group = c.benchmark_group("e16_monitor_overhead");
    group.sample_size(10);
    group.bench_function("sweep_off", |b| b.iter(|| sweep(false)));
    group.bench_function("sweep_on", |b| b.iter(|| sweep(true)));
    group.finish();
}

criterion_group!(benches, bench_monitor_overhead);
criterion_main!(benches);
