//! E1 — DE↔SDF synchronization overhead.
//!
//! Paper claim (§2/§4[2], §3-O6): scheduling continuous/dataflow blocks
//! as statically scheduled clusters avoids "needless executions of these
//! blocks due to the SystemC simulation kernel"; SDF↔CT coupling with a
//! fixed step is "the most natural and easy way".
//!
//! Measured: 10⁵ samples through a gain chain (a) as one TDF cluster,
//! bound to the kernel by a TDF→DE converter, vs (b) as per-block DE
//! processes chained through kernel signals, at chain depths 1, 8, 16
//! and 32. A single-rate cluster has a period of one sample, so its plan
//! is runs of one firing and it pays the DE synchronization every
//! sample. The 16:1 decimating rows end the depth-8 chain in an
//! averaging decimator: the cluster period becomes 16 samples, each
//! module before the decimator fires as one run of 16, and the kernel
//! meets the cluster once per 16 samples. Every row reports kernel
//! activations and wall time (median and quartiles over interleaved
//! rounds, so host load drifts hit every configuration alike).

use ams_blocks::{Decimator, Gain, SineSource};
use ams_core::{AmsSimulator, TdfGraph};
use ams_kernel::{Kernel, SimTime};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

const SAMPLES: u64 = 100_000;
const DEPTHS: [usize; 4] = [1, 8, 16, 32];
/// Chain depth of the decimating rows.
const DECIMATING_DEPTH: usize = 8;
const DECIMATION: u64 = 16;
/// Timed runs per configuration, one per round.
const ROUNDS: usize = 11;

/// One E1 configuration: a gain chain of `depth` blocks, optionally
/// ended by a 16:1 averaging decimator.
#[derive(Clone, Copy)]
enum Config {
    Tdf { depth: usize, decimate: bool },
    De { depth: usize, decimate: bool },
}

impl Config {
    fn label(self) -> String {
        let (kind, depth, decimate) = match self {
            Config::Tdf { depth, decimate } => ("tdf-cluster", depth, decimate),
            Config::De { depth, decimate } => ("de-processes", depth, decimate),
        };
        let shape = if decimate {
            format!("{depth} + 16:1")
        } else {
            depth.to_string()
        };
        format!("{kind:<13} depth {shape:<8}")
    }

    /// Runs the configuration once; returns the kernel activations.
    fn run(self) -> u64 {
        match self {
            Config::Tdf { depth, decimate } => run_tdf(depth, decimate),
            Config::De { depth, decimate } => run_de(depth, decimate),
        }
    }
}

fn run_tdf(depth: usize, decimate: bool) -> u64 {
    let mut sim = AmsSimulator::new();
    let out_de = sim.kernel_mut().signal("out", 0.0f64);
    let mut g = TdfGraph::new("chain");
    let mut last = g.signal("s0");
    g.add_module(
        "src",
        SineSource::new(last.writer(), 1000.0, 1.0, Some(SimTime::from_us(1))),
    );
    for i in 0..depth {
        let next = g.signal(format!("s{}", i + 1));
        g.add_module(
            format!("g{i}"),
            Gain::new(last.reader(), next.writer(), 1.0001),
        );
        last = next;
    }
    if decimate {
        let slow = g.signal("slow");
        g.add_module(
            "dec",
            Decimator::averaging(last.reader(), slow.writer(), DECIMATION),
        );
        last = slow;
    }
    g.to_de("out", last, out_de);
    sim.add_cluster(g).unwrap();
    sim.run_until(SimTime::from_us(SAMPLES)).unwrap();
    sim.kernel().stats().activations
}

fn run_de(depth: usize, decimate: bool) -> u64 {
    let mut k = Kernel::new();
    let mut chain = vec![k.signal("a0", 0.0f64)];
    for i in 0..depth {
        chain.push(k.signal(format!("a{}", i + 1), 0.0f64));
    }
    k.add_process("src", {
        let a = chain[0];
        move |ctx| {
            let t = ctx.now().to_seconds();
            ctx.write(a, (2.0 * std::f64::consts::PI * 1000.0 * t).sin());
            ctx.next_trigger_in(SimTime::from_us(1));
        }
    });
    for i in 0..depth {
        let (src, dst) = (chain[i], chain[i + 1]);
        let p = k.add_process(format!("g{i}"), move |ctx| {
            let v = ctx.read(src);
            ctx.write(dst, 1.0001 * v);
        });
        k.make_sensitive(p, k.signal_event(src));
    }
    if decimate {
        // Averages every 16 samples of the chain's end into `out`.
        let (src, out) = (chain[depth], k.signal("out", 0.0f64));
        let (mut sum, mut n) = (0.0, 0);
        let p = k.add_process("dec", move |ctx| {
            sum += ctx.read(src);
            n += 1;
            if n == DECIMATION {
                ctx.write(out, sum / DECIMATION as f64);
                (sum, n) = (0.0, 0);
            }
        });
        k.make_sensitive(p, k.signal_event(src));
    }
    k.run_until(SimTime::from_us(SAMPLES)).unwrap();
    k.stats().activations
}

/// Median and quartiles of a sample, in milliseconds.
fn quartiles_ms(mut secs: Vec<f64>) -> (f64, f64, f64) {
    secs.sort_by(f64::total_cmp);
    let at = |q: f64| 1e3 * secs[((secs.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.25), at(0.75))
}

/// The table is the whole report: its interleaved rounds replace
/// Criterion's per-function sampling.
fn bench(_c: &mut Criterion) {
    let mut configs = Vec::new();
    for depth in DEPTHS {
        configs.push(Config::Tdf {
            depth,
            decimate: false,
        });
        configs.push(Config::De {
            depth,
            decimate: false,
        });
    }
    configs.push(Config::Tdf {
        depth: DECIMATING_DEPTH,
        decimate: true,
    });
    configs.push(Config::De {
        depth: DECIMATING_DEPTH,
        decimate: true,
    });
    // One untimed run per configuration warms caches and records the
    // activation counts (the paper's "needless executions" metric).
    let activations: Vec<u64> = configs.iter().map(|c| c.run()).collect();
    let mut wall: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); configs.len()];
    for _ in 0..ROUNDS {
        for (cfg, times) in configs.iter().zip(&mut wall) {
            let t0 = Instant::now();
            criterion::black_box(cfg.run());
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    println!("\n=== E1: {SAMPLES} samples, {ROUNDS} interleaved rounds ===");
    println!(
        "{:<32} {:>11} {:>11} {:>13} {:>17}",
        "configuration", "activations", "per sample", "wall (median)", "(q1–q3)"
    );
    for ((cfg, act), times) in configs.iter().zip(&activations).zip(wall) {
        let (med, q1, q3) = quartiles_ms(times);
        println!(
            "{:<32} {act:>11} {:>11.3} {med:>10.1} ms {:>17}",
            cfg.label(),
            *act as f64 / SAMPLES as f64,
            format!("({q1:.1}–{q3:.1} ms)")
        );
    }
    println!();
}

criterion_group!(benches, bench);
criterion_main!(benches);
