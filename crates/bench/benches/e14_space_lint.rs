//! E14 — cost of the sweep-space abstract interpretation (`ams-lint::space`).
//!
//! The space pass fronts whole batches (`NetlistSweep::space`) and
//! every `ams-serve` submission, so its cost must vanish against the
//! sweep it gates (E10/E13 measure that sweep at tens of
//! milliseconds). Measured on the monte_carlo_filter workload's
//! 4-stage RC ladder:
//!
//! * `space/prove_safe` — `lint_space` over the example's real ±12 %
//!   tolerance box: every check proves safe (the common, whole-batch
//!   admission cost).
//! * `space/refute_doomed` — `lint_space` over a box whose corner
//!   drives the resistances negative: bisection isolates a witness
//!   sub-box (the rejection path, paid before any transient).
//! * `space/classify_point` — the concrete per-scenario classifier the
//!   sweep gate uses to prune exactly the doomed scenarios.
//!
//! And on the ladders `ams-serve` proves at submit (E12's job and
//! perfbench's `serve_churn`): 100 Ω / 1 nF sections behind a source,
//! one relative ±5 % bind on `R0`, `h` = 10 ns:
//!
//! * `space/serve_ladder_192` — the 192-stage warm ladder (194
//!   unknowns);
//! * `space/serve_ladder_128`, `space/serve_ladder_175` — the ends of
//!   `serve_churn`'s cold ladder sizes.
//!
//! And on a controlled-source circuit:
//!
//! * `space/vcvs_buffer` — a gain-2 VCVS whose output is its own
//!   control input, loaded by 1 kΩ ∥ 1 nF with both bound ±5 %, `h` =
//!   1 µs: SPC002 proves it regular.
//!
//! EXPERIMENTS.md quotes the proof-vs-sweep ratio from this bench and
//! the E10 sweep numbers.

use ams_lint::{classify_point, lint_space, ParamRange, SpaceBind, SpaceSpec, SpaceTarget};
use ams_net::Circuit;
use criterion::{criterion_group, criterion_main, Criterion};

const STAGES: usize = 4;
const R_NOM: f64 = 1.6e3;
const C_NOM: f64 = 10e-9;

/// The monte_carlo_filter ladder: step source → 4 RC sections.
fn ladder() -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.voltage_source("V", prev, Circuit::GROUND, 1.0).unwrap();
    for i in 0..STAGES {
        let node = ckt.node(format!("n{i}"));
        ckt.resistor(format!("R{i}"), prev, node, R_NOM).unwrap();
        ckt.capacitor(format!("C{i}"), node, Circuit::GROUND, C_NOM)
            .unwrap();
        prev = node;
    }
    ckt
}

fn spec(dr: (f64, f64), dc: (f64, f64)) -> SpaceSpec {
    let mut binds = Vec::new();
    for i in 0..STAGES {
        binds.push(SpaceBind {
            param: "dr".into(),
            element: format!("R{i}"),
            target: SpaceTarget::Resistance,
            relative: true,
            nominal: R_NOM,
        });
        binds.push(SpaceBind {
            param: "dc".into(),
            element: format!("C{i}"),
            target: SpaceTarget::Capacitance,
            relative: true,
            nominal: C_NOM,
        });
    }
    SpaceSpec::new(
        vec![
            ParamRange::new("dr", dr.0, dr.1),
            ParamRange::new("dc", dc.0, dc.1),
        ],
        binds,
    )
    .requested_h(1e-6)
}

/// The service's ladder job as its space pass sees it.
fn serve_ladder(stages: usize) -> (Circuit, SpaceSpec) {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("n0");
    ckt.voltage_source("Vin", prev, Circuit::GROUND, 1.0)
        .unwrap();
    for k in 0..stages {
        let next = ckt.node(format!("n{}", k + 1));
        ckt.resistor(format!("R{k}"), prev, next, 100.0).unwrap();
        ckt.capacitor(format!("C{k}"), next, Circuit::GROUND, 1e-9)
            .unwrap();
        prev = next;
    }
    let spec = SpaceSpec::new(
        vec![ParamRange::new("dr", -0.05, 0.05)],
        vec![SpaceBind {
            param: "dr".into(),
            element: "R0".into(),
            target: SpaceTarget::Resistance,
            relative: true,
            nominal: 100.0,
        }],
    )
    .requested_h(10e-9);
    (ckt, spec)
}

/// The gain-2 VCVS buffer: its branch row reads `−V(out) = 0`.
fn vcvs_buffer() -> (Circuit, SpaceSpec) {
    let mut ckt = Circuit::new();
    let out = ckt.node("out");
    ckt.vcvs("E1", out, Circuit::GROUND, out, Circuit::GROUND, 2.0)
        .unwrap();
    ckt.resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
    ckt.capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
    let bind = |param: &str, element: &str, target, nominal| SpaceBind {
        param: param.into(),
        element: element.into(),
        target,
        relative: true,
        nominal,
    };
    let spec = SpaceSpec::new(
        vec![
            ParamRange::new("dr", -0.05, 0.05),
            ParamRange::new("dc", -0.05, 0.05),
        ],
        vec![
            bind("dr", "R1", SpaceTarget::Resistance, 1e3),
            bind("dc", "C1", SpaceTarget::Capacitance, 1e-9),
        ],
    )
    .requested_h(1e-6);
    (ckt, spec)
}

fn bench_space_lint(c: &mut Criterion) {
    let ckt = ladder();
    let safe = spec((-0.12, 0.12), (-0.12, 0.12));
    let doomed = spec((-1.5, 0.12), (-0.12, 0.12));
    let names = ["dr".to_string(), "dc".to_string()];

    c.bench_function("space/prove_safe", |b| {
        b.iter(|| lint_space("e14", &ckt, &safe))
    });
    c.bench_function("space/refute_doomed", |b| {
        b.iter(|| lint_space("e14", &ckt, &doomed))
    });
    c.bench_function("space/classify_point", |b| {
        b.iter(|| classify_point(&ckt, &doomed, &names, &[-1.2, 0.0]))
    });
    for stages in [128, 175, 192] {
        let (ckt, spec) = serve_ladder(stages);
        c.bench_function(format!("space/serve_ladder_{stages}"), |b| {
            b.iter(|| lint_space("e14", &ckt, &spec))
        });
    }
    let (ckt, spec) = vcvs_buffer();
    assert_eq!(
        lint_space("e14", &ckt, &spec).verdict(ams_lint::codes::SPC002),
        Some(&ams_lint::Verdict::ProvedSafe)
    );
    c.bench_function("space/vcvs_buffer", |b| {
        b.iter(|| lint_space("e14", &ckt, &spec))
    });
}

criterion_group!(benches, bench_space_lint);
criterion_main!(benches);
