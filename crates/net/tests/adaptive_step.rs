//! Regression tests for the adaptive-step controller.
//!
//! Two bugs shipped in the original `run_adaptive`:
//!
//! 1. the final step applied `.max(min_step)` *after* clamping to the
//!    remaining span, so when `t_end - time < min_step` the last step
//!    overshot `t_end` and probes observed samples past the horizon;
//! 2. the growth factor `(0.8 / err).min(3.0)` used an order-blind
//!    exponent of −1, over-reacting to the error estimate and causing
//!    needless rejections on stiff workloads.
//!
//! A third shipped in the scalar controller alone: it folded its error
//! estimate with `f64::max`, which drops NaN, so a non-finite solution
//! scored `err = 0`, was accepted and tripled the step.

use ams_net::{
    AdaptiveOptions, Circuit, IntegrationMethod, LaneTransientSolver, NetError, NodeId,
    TransientSolver, Waveform,
};

fn rc_circuit() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
    ckt.resistor("R1", a, out, 1e3).unwrap();
    ckt.capacitor_ic("C1", out, Circuit::GROUND, 1e-6, 0.0)
        .unwrap();
    (ckt, out)
}

/// The E3 half-wave rectifier: 50 Hz source → diode → 100 µF ∥ 10 kΩ.
fn rectifier() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    let mid = ckt.node("mid");
    let out = ckt.node("out");
    ckt.voltage_source_wave(
        "V",
        src,
        Circuit::GROUND,
        Waveform::Sine {
            offset: 0.0,
            ampl: 10.0,
            freq: 50.0,
            phase: 0.0,
        },
    )
    .unwrap();
    ckt.resistor("Rs", src, mid, 10.0).unwrap();
    ckt.diode("D", mid, out, 1e-12, 1.0).unwrap();
    ckt.capacitor("C", out, Circuit::GROUND, 100e-6).unwrap();
    ckt.resistor("RL", out, Circuit::GROUND, 10e3).unwrap();
    (ckt, out)
}

/// Bug 1: with `min_step = max_step = 4 µs` and `t_end = 10 µs` the
/// remaining span after two steps (2 µs) is below `min_step`; the
/// pre-fix controller stepped 4 µs anyway and probed `t = 12 µs`.
#[test]
fn adaptive_final_step_never_overshoots_t_end() {
    let (ckt, _out) = rc_circuit();
    let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
    tr.initialize_with_ic().unwrap();
    let t_end = 1.0e-5;
    // Loose tolerances: every 4 µs step on a 1 ms RC is accepted, so
    // the run exercises only the span clamp, not the error controller.
    let opts = AdaptiveOptions {
        rel_tol: 1e-2,
        abs_tol: 1e-3,
        initial_step: 4e-6,
        min_step: 4e-6,
        max_step: 4e-6,
    };
    let mut times = Vec::new();
    tr.run_adaptive(t_end, &opts, |s| times.push(s.time()))
        .unwrap();
    assert!(!times.is_empty());
    for t in &times {
        assert!(*t <= t_end, "probe observed t = {t} past t_end = {t_end}");
    }
    for w in times.windows(2) {
        assert!(w[0] < w[1], "probe times not strictly increasing: {w:?}");
    }
    let last = *times.last().unwrap();
    assert!(
        (last - t_end).abs() < 1e-12,
        "run stopped at {last}, expected {t_end}"
    );
    assert_eq!(tr.time(), last);
}

/// Bug 2: the order-blind growth factor produced 151 rejections (1476
/// accepted steps) on the E3 rectifier at `rel_tol = 1e-4`; the
/// order-aware controller needs 47 (975 steps). Guard against a
/// regression anywhere between the two, with slack for platform noise.
#[test]
fn adaptive_rejections_do_not_regress_on_stiff_rectifier() {
    let (ckt, out) = rectifier();
    let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
    tr.initialize_dc().unwrap();
    tr.run_adaptive(
        0.1,
        &AdaptiveOptions {
            rel_tol: 1e-4,
            abs_tol: 1e-6,
            initial_step: 1e-7,
            max_step: 1e-3,
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    let s = tr.stats();
    assert!(
        s.rejected <= 100,
        "rejection count regressed: {} (order-aware controller: 47, order-blind: 151)",
        s.rejected
    );
    assert!(
        s.steps <= 1200,
        "accepted-step count regressed: {} (order-aware controller: 975)",
        s.steps
    );
    // Accuracy must not degrade: the fine fixed-step reference gives
    // v_out ≈ 9.1316 V at t = 0.1 s.
    assert!(
        (tr.voltage(out) - 9.1316).abs() < 5e-3,
        "v_out = {}",
        tr.voltage(out)
    );
}

/// Backward Euler uses the order-1 exponent (err^(-1/2)) and must still
/// integrate the RC charge curve accurately.
#[test]
fn adaptive_backward_euler_stays_accurate() {
    let (ckt, out) = rc_circuit();
    let mut tr = TransientSolver::new(&ckt, IntegrationMethod::BackwardEuler).unwrap();
    tr.initialize_with_ic().unwrap();
    tr.run_adaptive(
        1e-3,
        &AdaptiveOptions {
            rel_tol: 1e-5,
            abs_tol: 1e-9,
            initial_step: 1e-8,
            max_step: 1e-4,
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    let expected = 1.0 - (-1.0f64).exp();
    assert!(
        (tr.voltage(out) - expected).abs() < 1e-3,
        "{} vs {expected}",
        tr.voltage(out)
    );
    assert!((tr.time() - 1e-3).abs() < 1e-12);
}

/// Bug 3: a NaN-driven RC used to finish `Ok(())` with `v_out = NaN`
/// on the scalar path while the lane path failed. Every width now masks
/// a non-finite lane out; at width one that leaves no live lane, so
/// the run fails, and at width four only the poisoned lane dies.
#[test]
fn adaptive_masks_non_finite_lanes_and_fails_when_none_is_left() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    let inp = ckt.external_input();
    ckt.voltage_source_wave("V1", a, Circuit::GROUND, Waveform::External(inp))
        .unwrap();
    ckt.resistor("R1", a, out, 1e3).unwrap();
    ckt.capacitor_ic("C1", out, Circuit::GROUND, 1e-6, 0.0)
        .unwrap();
    let opts = AdaptiveOptions {
        initial_step: 1e-6,
        ..Default::default()
    };

    let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
    tr.initialize_with_ic().unwrap();
    tr.set_input(inp, f64::NAN);
    let mut accepted = 0;
    let res = tr.run_adaptive(1e-5, &opts, |_| accepted += 1);
    assert!(
        matches!(res, Err(NetError::NoConvergence { .. })),
        "{res:?}"
    );
    assert_eq!(accepted, 0, "no non-finite step may be accepted");

    let circuits = vec![ckt.clone(); 4];
    let mut lanes =
        LaneTransientSolver::<4>::new(&circuits, IntegrationMethod::Trapezoidal).unwrap();
    lanes.initialize_with_ic().unwrap();
    for l in 0..4 {
        lanes.set_input_lane(inp, l, if l == 2 { f64::NAN } else { 1.0 });
    }
    lanes.run_adaptive(1e-3, &opts, |_| {}).unwrap();
    assert_eq!(lanes.active_lanes(), [true, true, false, true]);
    assert!(lanes.voltage_lane(out, 2).is_nan());
    let expected = 1.0 - (-1.0f64).exp();
    for l in [0, 1, 3] {
        let v = lanes.voltage_lane(out, l);
        assert!((v - expected).abs() < 1e-3, "lane {l}: {v} vs {expected}");
    }
}
