//! E8 — parallel co-simulation scaling (`AmsSimulator::with_workers`).
//!
//! The paper motivates statically scheduled dataflow clusters with
//! simulation efficiency: a cluster meets the DE kernel only through
//! its converter ports. A cluster without converter ports needs no
//! synchronization at all, so `AmsSimulator::with_workers(n)` runs such
//! clusters beside the kernel on up to `n` threads, while clusters with
//! converter ports stay on the kernel.
//!
//! Measured: the run phase (`run_until`, after elaboration) of N
//! ADSL-style clusters (source → tanh line driver → embedded MNA line
//! network → anti-alias biquad → Σ∆ modulator → CIC decimator → FIR),
//! with `with_workers` at 1/2/4/8 workers (one worker is the serial
//! run, every cluster on the calling thread), in two series:
//!
//! * `free` — all 8 clusters free-running;
//! * `mixed` — 4 clusters send their output to a kernel signal
//!   (converter-bound) and 4 are free.
//!
//! A correctness gate first asserts that every worker count reproduces
//! the probe waveforms of standalone cluster runs bit for bit, in both
//! series.
//!
//! Note: speedup tracks the physical core count; on a single-core
//! machine every configuration degenerates to ~1×.

use ams_blocks::{CicDecimator, FirFilter, LtiFilter, SigmaDelta2, SineSource, TanhAmp};
use ams_core::{AmsSimulator, CtModule, NetlistCtSolver, TdfGraph, TdfProbe};
use ams_kernel::{Signal, SimTime};
use ams_net::{Circuit, IntegrationMethod, Waveform};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

const CLUSTERS: usize = 8;

/// One ADSL-style subscriber-line cluster; `i` detunes the tone so every
/// cluster computes a distinct waveform. With `de`, the digital output
/// also goes to that kernel signal, which binds the cluster to the
/// kernel.
fn build_graph(i: usize, de: Option<Signal<f64>>) -> (TdfGraph, TdfProbe) {
    let mut g = TdfGraph::new(format!("slic{i}"));
    let tone = g.signal("tone");
    let driven = g.signal("driven");
    let line_out = g.signal("line_out");
    let anti_alias = g.signal("anti_alias");
    let bitstream = g.signal("bitstream");
    let decimated = g.signal("decimated");
    let digital = g.signal("digital");
    let probe = g.probe(digital);

    let fs = SimTime::from_us(1);
    let freq = 4_000.0 + 500.0 * i as f64;
    g.add_module("tone", SineSource::new(tone.writer(), freq, 0.1, Some(fs)));
    g.add_module(
        "hv",
        TanhAmp::new(tone.reader(), driven.writer(), 4.0, 12.0),
    );

    let mut ckt = Circuit::new();
    let drive = ckt.node("drive");
    let line = ckt.node("line");
    let sub = ckt.node("sub");
    let input = ckt.external_input();
    ckt.voltage_source_wave("Vd", drive, Circuit::GROUND, Waveform::External(input))
        .unwrap();
    ckt.resistor("Rp", drive, line, 50.0).unwrap();
    ckt.capacitor("Cl", line, Circuit::GROUND, 20e-9).unwrap();
    ckt.resistor("Rl", line, sub, 130.0).unwrap();
    ckt.resistor("Rs", sub, Circuit::GROUND, 600.0).unwrap();
    ckt.capacitor("Cs", sub, Circuit::GROUND, 10e-9).unwrap();
    let solver =
        NetlistCtSolver::new(&ckt, IntegrationMethod::Trapezoidal, vec![input], vec![sub]).unwrap();
    g.add_module(
        "line",
        CtModule::new(
            "line",
            Box::new(solver),
            vec![driven.reader()],
            vec![line_out.writer()],
            None,
        ),
    );
    g.add_module(
        "aa",
        LtiFilter::biquad_low_pass(
            line_out.reader(),
            anti_alias.writer(),
            20_000.0,
            0.707,
            None,
        )
        .unwrap(),
    );
    g.add_module(
        "sd",
        SigmaDelta2::new(anti_alias.reader(), bitstream.writer()),
    );
    g.add_module(
        "cic",
        CicDecimator::new(bitstream.reader(), decimated.writer(), 16, 2),
    );
    g.add_module(
        "fir",
        FirFilter::lowpass_design(decimated.reader(), digital.writer(), 63, 0.16),
    );
    if let Some(de) = de {
        g.to_de("out", digital, de);
    }
    (g, probe)
}

/// The E8 model, elaborated: `CLUSTERS` clusters, the first `bound` of
/// them converter-bound.
fn build(workers: usize, bound: usize) -> (AmsSimulator, Vec<TdfProbe>) {
    let mut sim = AmsSimulator::with_workers(workers);
    let mut probes = Vec::new();
    for i in 0..CLUSTERS {
        let de = (i < bound).then(|| sim.kernel_mut().signal(format!("out{i}"), 0.0f64));
        let (g, p) = build_graph(i, de);
        sim.add_cluster(g).unwrap();
        probes.push(p);
    }
    (sim, probes)
}

/// Runs a built model for `ms` simulated milliseconds and returns its
/// probe waveforms.
fn run((mut sim, probes): (AmsSimulator, Vec<TdfProbe>), ms: u64) -> Vec<Vec<(f64, f64)>> {
    sim.run_until(SimTime::from_ms(ms)).unwrap();
    probes.iter().map(|p| p.samples()).collect()
}

/// The gate's reference, which does not go through `AmsSimulator`: each
/// cluster elaborated on its own and run standalone for every iteration
/// that starts at or before `ms` (a converter port only copies the
/// output out, so bound clusters compute the same waveform).
fn standalone(ms: u64) -> Vec<Vec<(f64, f64)>> {
    (0..CLUSTERS)
        .map(|i| {
            let (g, p) = build_graph(i, None);
            let mut c = g.elaborate().unwrap();
            c.run_standalone(SimTime::from_ms(ms) / c.period() + 1)
                .unwrap();
            p.samples()
        })
        .collect()
}

/// Simulated horizon of the timed runs.
const MS: u64 = 5;

fn bench(c: &mut Criterion) {
    let reference = standalone(2);
    for (series, bound) in [("free", 0), ("mixed", CLUSTERS / 2)] {
        // Correctness gate: every worker count is bit-identical to the
        // standalone runs.
        for workers in [1, 2, 4, 8] {
            assert_eq!(
                reference,
                run(build(workers, bound), 2),
                "{series} probes diverged from standalone runs at {workers} workers"
            );
        }

        println!(
            "\n=== E8 {series}: {CLUSTERS} ADSL-style clusters, {bound} bound, {MS} ms, \
             run phase, {} CPUs ===",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        );
        let mut group = c.benchmark_group(format!("e8_parallel_scaling/{series}"));
        group.sample_size(21);
        for workers in [1, 2, 4, 8] {
            group.bench_function(BenchmarkId::new("workers", workers), |b| {
                b.iter_batched(
                    || build(workers, bound),
                    |m| run(m, MS),
                    BatchSize::PerIteration,
                )
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
