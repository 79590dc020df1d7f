//! E9 — cost of the pre-elaboration static analysis (`ams-lint`).
//!
//! The lint gate runs on every `add_cluster` and `NetlistCtSolver::new`,
//! so it must be cheap relative to the work it fronts. Measured on the
//! paper's Figure 1 front end (the `f1_adsl` model: tone → HV driver →
//! MNA subscriber line → anti-alias biquad → Σ∆ → CIC → FIR):
//!
//! * `lint/f1_tdf_graph` — `TdfGraph::lint` on the full 7-module chain
//!   (setup pass, balance equations, SCC, port audit).
//! * `lint/f1_netlist` — `lint_circuit` on the subscriber line
//!   (reachability, V-loop union-find, structural rank).
//! * `elaborate/f1_tdf_graph` — full `TdfGraph::elaborate` (schedule,
//!   FIFO allocation, timestep propagation), graph rebuilt per
//!   iteration via `iter_batched`.
//! * `elaborate/f1_netlist` — `TransientSolver::new` + first step (DC
//!   operating point, symbolic analysis, first factorization —
//!   construction alone is lazy).
//!
//! EXPERIMENTS.md quotes the lint/elaborate ratio from this bench.

use ams_blocks::{CicDecimator, FirFilter, LtiFilter, SigmaDelta2, SineSource, TanhAmp};
use ams_core::{CtModule, NetlistCtSolver, TdfGraph};
use ams_kernel::SimTime;
use ams_net::{Circuit, IntegrationMethod, TransientSolver, Waveform};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

/// The Figure 1 subscriber-line network (same topology as `f1_adsl`).
fn f1_line() -> (Circuit, ams_net::InputId, ams_net::NodeId) {
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
    (ckt, input, sub)
}

/// The full Figure 1 TDF front end, as in the `f1_adsl` bench.
fn f1_graph() -> TdfGraph {
    let mut g = TdfGraph::new("slic");
    let tone = g.signal("tone");
    let driven = g.signal("driven");
    let line_out = g.signal("line_out");
    let anti_alias = g.signal("anti_alias");
    let bitstream = g.signal("bitstream");
    let decimated = g.signal("decimated");
    let digital = g.signal("digital");
    let _probe = g.probe(digital);

    let fs = SimTime::from_us(1);
    g.add_module(
        "tone",
        SineSource::new(tone.writer(), 5_000.0, 0.1, Some(fs)),
    );
    g.add_module(
        "hv",
        TanhAmp::new(tone.reader(), driven.writer(), 4.0, 12.0),
    );
    let (ckt, input, sub) = f1_line();
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
    g
}

fn bench_lint_overhead(c: &mut Criterion) {
    let (ckt, _, _) = f1_line();
    let mut g = f1_graph();

    c.bench_function("lint/f1_tdf_graph", |b| b.iter(|| g.lint()));
    c.bench_function("lint/f1_netlist", |b| {
        b.iter(|| ams_lint::lint_circuit("f1", &ckt))
    });
    c.bench_function("elaborate/f1_tdf_graph", |b| {
        b.iter_batched(f1_graph, |g| g.elaborate().unwrap(), BatchSize::SmallInput)
    });
    c.bench_function("elaborate/f1_netlist", |b| {
        b.iter(|| {
            let mut s = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
            s.step(1e-6).unwrap();
            s
        })
    });
}

criterion_group!(benches, bench_lint_overhead);
criterion_main!(benches);
