//! Soundness of the sweep-space interval pass (proptest).
//!
//! The abstract interpreter in `ams-lint::space` makes two kinds of
//! claim about a whole parameter box, and both must be *sound* —
//! over-approximation may only ever cost precision (an `Unknown`
//! verdict), never correctness:
//!
//! * **ProvedSafe** means every concrete point in the box passes; we
//!   sample the corners and the midpoint and check them against the
//!   concrete classifier, the concrete lint pass, and an actual DC
//!   factorization.
//! * **ProvedViolated** carries a witness box that must contain a
//!   concrete failing point; we sample the witness and require the
//!   concrete classifier to refute at least one sample.
//!
//! Both claims are checked on an RC circuit and on circuits with one
//! controlled source (VCVS, VCCS, CCCS, CCVS) or switch of random gain
//! or resistance.

use proptest::prelude::*;
use systemc_ams::lint::{
    classify_point, codes, lint_circuit, lint_space, LintPolicy, ParamRange, SpaceBind, SpaceSpec,
    SpaceTarget, Verdict,
};
use systemc_ams::net::Circuit;

const R_NOM: f64 = 1.0e3;
const C_NOM: f64 = 1.0e-9;

/// DC source → R → C to ground: the smallest circuit on which both the
/// domain check (SPC001) and the nonsingularity check (SPC002) bite.
fn rc(dr: f64, dc: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.voltage_source("V", inp, Circuit::GROUND, 1.0).unwrap();
    ckt.resistor("R", inp, out, R_NOM * (1.0 + dr)).unwrap();
    ckt.capacitor("C", out, Circuit::GROUND, C_NOM * (1.0 + dc))
        .unwrap();
    ckt
}

fn spec(dr: (f64, f64), dc: (f64, f64)) -> SpaceSpec {
    SpaceSpec::new(
        vec![
            ParamRange::new("dr", dr.0, dr.1),
            ParamRange::new("dc", dc.0, dc.1),
        ],
        vec![
            SpaceBind {
                param: "dr".into(),
                element: "R".into(),
                target: SpaceTarget::Resistance,
                relative: true,
                nominal: R_NOM,
            },
            SpaceBind {
                param: "dc".into(),
                element: "C".into(),
                target: SpaceTarget::Capacitance,
                relative: true,
                nominal: C_NOM,
            },
        ],
    )
}

/// `rc` with a second node `b` (1 kΩ to `out`, 1 kΩ to ground) and one
/// controlled element of `kind`: a VCVS, VCCS, CCCS, CCVS or switch.
/// `u` in `[-1, 1)` sets its gain or resistance. With `pick == 0` the
/// VCVS and CCCS take the one gain that makes the matrix singular at
/// every point.
fn controlled(kind: usize, pick: usize, u: f64, dr: f64, dc: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let gnd = Circuit::GROUND;
    let inp = ckt.node("in");
    let out = ckt.node("out");
    let b = ckt.node("b");
    let v = ckt.voltage_source("V", inp, gnd, 1.0).unwrap();
    ckt.resistor("R", inp, out, R_NOM * (1.0 + dr)).unwrap();
    ckt.capacitor("C", out, gnd, C_NOM * (1.0 + dc)).unwrap();
    ckt.resistor("R4", out, b, 1e3).unwrap();
    ckt.resistor("R3", b, gnd, 1e3).unwrap();
    let gain = |singular: f64, scale: f64| if pick == 0 { singular } else { scale * u };
    match kind {
        // Branch row (1 − gain)·V(b) = 0: singular at gain 1.
        0 => ckt.vcvs("E", b, gnd, b, gnd, gain(1.0, 3.0)),
        1 => ckt.vccs("G", b, gnd, b, gnd, 3e-3 * u),
        // The source's current column reads (1 + gain): singular at −1.
        2 => ckt.cccs("F", inp, gnd, v, gain(-1.0, 3.0)),
        3 => ckt.ccvs("H", b, gnd, v, 3e3 * u),
        _ => {
            let r_on = 10f64.powf(1.5 + 1.5 * u);
            let r_off = r_on * 10f64.powf(0.1 + 3.0 * (u + 1.0));
            ckt.switch("S", b, gnd, r_on, r_off, pick == 1)
        }
    }
    .unwrap();
    ckt
}

/// The 2-D corners plus the midpoint of a (dr, dc) box.
fn samples(dr: (f64, f64), dc: (f64, f64)) -> [(f64, f64); 5] {
    [
        (dr.0, dc.0),
        (dr.0, dc.1),
        (dr.1, dc.0),
        (dr.1, dc.1),
        (0.5 * (dr.0 + dr.1), 0.5 * (dc.0 + dc.1)),
    ]
}

proptest! {
    /// Soundness over random boxes straddling the physical-domain
    /// boundary (relative deviations below −1 drive R or C negative).
    #[test]
    fn space_verdicts_are_sound(
        a in -1.8f64..1.0, b in -1.8f64..1.0,
        c in -1.8f64..1.0, d in -1.8f64..1.0,
    ) {
        let dr = (a.min(b), a.max(b));
        let dc = (c.min(d), c.max(d));
        let template = rc(0.0, 0.0);
        let sspec = spec(dr, dc);
        let sr = lint_space("soundness", &template, &sspec);
        let names = ["dr".to_string(), "dc".to_string()];

        // Claim 1: a clean report (every error-severity check proved
        // safe) admits every sampled concrete point.
        if LintPolicy::default().denied(&sr.report).is_empty()
            && sr.verdicts.iter().all(|v| v.verdict == Verdict::ProvedSafe)
        {
            for (pr, pc) in samples(dr, dc) {
                prop_assert_eq!(
                    classify_point(&template, &sspec, &names, &[pr, pc]),
                    None,
                    "ProvedSafe box has a failing point ({}, {})", pr, pc
                );
                let concrete = rc(pr, pc);
                let lr = lint_circuit("corner", &concrete);
                prop_assert_eq!(
                    lr.error_count(), 0,
                    "ProvedSafe corner fails concrete lint: {}", lr.render()
                );
                prop_assert!(
                    concrete.dc_operating_point().is_ok(),
                    "ProvedSafe corner fails to factor at ({}, {})", pr, pc
                );
            }
        }

        // Claim 2: a domain violation's witness box contains a point
        // the concrete classifier also rejects.
        if let Some(Verdict::ProvedViolated(witness)) = sr.verdict(codes::SPC001) {
            let wr = witness.interval("dr").expect("dr axis");
            let wc = witness.interval("dc").expect("dc axis");
            let refuted = samples((wr.lo, wr.hi), (wc.lo, wc.hi))
                .iter()
                .any(|&(pr, pc)| {
                    classify_point(&template, &sspec, &names, &[pr, pc]).is_some()
                });
            prop_assert!(
                refuted,
                "SPC001 witness {} contains no concretely failing sample", witness
            );
        }
    }
}

proptest! {
    /// Soundness on circuits with one controlled source or switch, at
    /// DC and at a step. Boxes mostly stay in the physical domain, so
    /// SPC002 runs; where it proves a DC box safe, every sampled corner
    /// also factors.
    #[test]
    fn controlled_source_and_switch_verdicts_are_sound(
        kind in 0usize..5, pick in 0usize..3, u in -1.0f64..1.0,
        a in -0.9f64..0.9, b in -0.9f64..0.9,
        c in -0.9f64..0.9, d in -0.9f64..0.9,
        step in 0usize..2,
    ) {
        let dr = (a.min(b), a.max(b));
        let dc = (c.min(d), c.max(d));
        let template = controlled(kind, pick, u, 0.0, 0.0);
        let mut sspec = spec(dr, dc);
        sspec.requested_h = [None, Some(1e-6)][step];
        let sr = lint_space("soundness", &template, &sspec);
        let names = ["dr".to_string(), "dc".to_string()];

        if LintPolicy::default().denied(&sr.report).is_empty()
            && sr.verdicts.iter().all(|v| v.verdict == Verdict::ProvedSafe)
        {
            for (pr, pc) in samples(dr, dc) {
                prop_assert_eq!(
                    classify_point(&template, &sspec, &names, &[pr, pc]),
                    None,
                    "ProvedSafe box has a failing point ({}, {})", pr, pc
                );
                let concrete = controlled(kind, pick, u, pr, pc);
                let lr = lint_circuit("corner", &concrete);
                prop_assert_eq!(
                    lr.error_count(), 0,
                    "ProvedSafe corner fails concrete lint: {}", lr.render()
                );
                if sspec.requested_h.is_none() {
                    prop_assert!(
                        concrete.dc_operating_point().is_ok(),
                        "ProvedSafe corner fails to factor at ({}, {})", pr, pc
                    );
                }
            }
        }

        if let Some(Verdict::ProvedViolated(witness)) = sr.verdict(codes::SPC002) {
            let wr = witness.interval("dr").expect("dr axis");
            let wc = witness.interval("dc").expect("dc axis");
            let refuted = samples((wr.lo, wr.hi), (wc.lo, wc.hi))
                .iter()
                .any(|&(pr, pc)| {
                    classify_point(&template, &sspec, &names, &[pr, pc]) == Some(codes::SPC002)
                });
            prop_assert!(
                refuted,
                "SPC002 witness {} contains no point the classifier refutes", witness
            );
        }
    }
}
