//! Qualitative integration tests for the experiment suite (E1–E7 in
//! EXPERIMENTS.md). Each test asserts the *shape* the corresponding
//! Criterion benchmark measures quantitatively: who wins, in which
//! direction, and by roughly what factor.

use systemc_ams::blocks::{ideal_sine_snr_db, PipelinedAdc, SineSource, StageErrors};
use systemc_ams::core::{AmsSimulator, TdfGraph};
use systemc_ams::kernel::{Kernel, SimTime};
use systemc_ams::math::fft::Window;
use systemc_ams::math::implicit::{
    integrate_variable, ImplicitMethod, ImplicitStepper, VariableStepOptions,
};
use systemc_ams::math::ode::{FixedStep, OdeMethod};
use systemc_ams::net::{Circuit, IntegrationMethod, TransientSolver, Waveform};
use systemc_ams::wave::analyze_sine;

/// E1 — dataflow clustering avoids per-sample DE scheduling.
///
/// The same 8-block gain chain processed (a) as one TDF cluster activated
/// once per sample period by the kernel, and (b) as eight DE processes
/// chained through kernel signals. The cluster run needs 2 activations
/// per sample (driver and converter writer); the DE run needs 9 (source
/// and eight blocks) plus delta cycles.
#[test]
fn e1_tdf_cluster_uses_fewer_kernel_activations() {
    const SAMPLES: u64 = 2_000;
    const DEPTH: usize = 8;

    // (a) TDF cluster: kernel cost is 2 activations per sample period
    // (driver + converter writer), independent of the chain depth.
    let mut sim = AmsSimulator::new();
    let out_de = sim.kernel_mut().signal("out", 0.0f64);
    let mut g = TdfGraph::new("chain");
    let mut sigs = vec![g.signal("s0")];
    g.add_module(
        "src",
        SineSource::new(sigs[0].writer(), 1000.0, 1.0, Some(SimTime::from_us(1))),
    );
    for i in 0..DEPTH {
        let next = g.signal(format!("s{}", i + 1));
        g.add_module(
            format!("g{i}"),
            systemc_ams::blocks::Gain::new(sigs[i].reader(), next.writer(), 1.01),
        );
        sigs.push(next);
    }
    g.to_de("out", sigs[DEPTH], out_de);
    sim.add_cluster(g).unwrap();
    sim.run_until(SimTime::from_us(SAMPLES)).unwrap();
    let tdf_activations = sim.kernel().stats().activations;

    // (b) naive: every block is a DE process; kernel cost grows with the
    // chain depth (one activation per block per sample, plus deltas).
    let mut k = Kernel::new();
    let mut chain = vec![k.signal("a0", 0.0f64)];
    for i in 0..DEPTH {
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
    for i in 0..DEPTH {
        let (src, dst) = (chain[i], chain[i + 1]);
        let p = k.add_process(format!("g{i}"), move |ctx| {
            let v = ctx.read(src);
            ctx.write(dst, 1.01 * v);
        });
        k.make_sensitive(p, k.signal_event(src));
    }
    k.run_until(SimTime::from_us(SAMPLES)).unwrap();
    let de_activations = k.stats().activations;

    assert!(
        de_activations > 3 * tdf_activations,
        "DE per-sample processes: {de_activations} activations, TDF cluster: {tdf_activations}"
    );
}

/// E2 — integrator accuracy orders: RK4 ≪ trapezoidal < Euler error at
/// the same step size (on a smooth linear problem).
#[test]
fn e2_integration_error_ordering() {
    let run = |method: OdeMethod| {
        let mut x = vec![1.0];
        let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| dx[0] = -x[0];
        let mut s = FixedStep::new(method, 1e-2);
        s.integrate(&mut f, 0.0, 1.0, &mut x);
        (x[0] - (-1.0f64).exp()).abs()
    };
    let e_euler = run(OdeMethod::Euler);
    let e_heun = run(OdeMethod::Heun);
    let e_rk4 = run(OdeMethod::Rk4);
    assert!(e_euler > 20.0 * e_heun, "{e_euler} vs {e_heun}");
    assert!(e_heun > 100.0 * e_rk4, "{e_heun} vs {e_rk4}");

    // Implicit trapezoidal matches its second-order peer.
    let mut x = vec![1.0];
    let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| dx[0] = -x[0];
    let mut s = ImplicitStepper::new(ImplicitMethod::Trapezoidal, 1e-2);
    s.integrate(&mut f, 0.0, 1.0, &mut x).unwrap();
    let e_trap = (x[0] - (-1.0f64).exp()).abs();
    assert!(e_trap < 2.0 * e_heun, "trap {e_trap} vs heun {e_heun}");
}

/// E3 — stiff systems: the variable-step controller reaches the same
/// accuracy as a fine fixed step with far fewer steps.
#[test]
fn e3_variable_step_wins_on_stiff_system() {
    // Stiff scalar: ẋ = −2000(x − cos t); exact solution ≈ cos t after
    // the 0.5 ms boundary layer.
    let mut stiff = |t: f64, x: &[f64], dx: &mut [f64]| {
        dx[0] = -2000.0 * (x[0] - t.cos()) - t.sin();
    };

    // Fixed-step backward Euler needs small steps for *accuracy*
    // (stability is free): 1e-4 → 20 000 steps over 2 s.
    let mut x_fixed = vec![0.0];
    let mut fixed = ImplicitStepper::new(ImplicitMethod::BackwardEuler, 1e-4);
    let fixed_steps = fixed.integrate(&mut stiff, 0.0, 2.0, &mut x_fixed).unwrap();
    let err_fixed = (x_fixed[0] - 2.0f64.cos()).abs();

    let mut x_var = vec![0.0];
    let stats = integrate_variable(
        &mut stiff,
        0.0,
        2.0,
        &mut x_var,
        &VariableStepOptions {
            rel_tol: 1e-5,
            abs_tol: 1e-8,
            initial_step: 1e-6,
            ..Default::default()
        },
    )
    .unwrap();
    let err_var = (x_var[0] - 2.0f64.cos()).abs();

    assert!(
        err_fixed < 1e-3 && err_var < 1e-3,
        "{err_fixed} / {err_var}"
    );
    assert!(
        stats.accepted * 5 < fixed_steps as usize,
        "variable: {} steps, fixed: {fixed_steps}",
        stats.accepted
    );
}

/// E4 — the frequency-domain model derives from the time-domain netlist:
/// AC analysis matches a transient sine sweep of the same circuit.
#[test]
fn e4_ac_matches_transient_steady_state() {
    let build = || {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let inp = ckt.external_input();
        (ckt, a, out, inp)
    };
    let f0 = 1.0 / (2.0 * std::f64::consts::PI * 1e-3); // RC pole ≈ 159 Hz

    for &freq in &[50.0, 159.0, 500.0] {
        // AC path.
        let (mut ckt, a, out, _inp) = build();
        ckt.voltage_source_ac("V", a, Circuit::GROUND, 0.0, 1.0)
            .unwrap();
        ckt.resistor("R", a, out, 1e3).unwrap();
        ckt.capacitor("C", out, Circuit::GROUND, 1e-6).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let h_ac = ckt.ac_transfer(&op, out, &[freq]).unwrap()[0].abs();

        // Transient path: drive a sine, measure the settled peak.
        let (mut ckt2, a2, out2, _) = build();
        ckt2.voltage_source_wave(
            "V",
            a2,
            Circuit::GROUND,
            Waveform::Sine {
                offset: 0.0,
                ampl: 1.0,
                freq,
                phase: 0.0,
            },
        )
        .unwrap();
        ckt2.resistor("R", a2, out2, 1e3).unwrap();
        ckt2.capacitor("C", out2, Circuit::GROUND, 1e-6).unwrap();
        let mut tr = TransientSolver::new(&ckt2, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_dc().unwrap();
        let settle = 10e-3;
        let t_end = settle + 3.0 / freq;
        let mut peak = 0.0f64;
        tr.run(t_end, 1.0 / freq / 400.0, |s| {
            if s.time() > settle {
                peak = peak.max(s.voltage(out2).abs());
            }
        })
        .unwrap();

        assert!(
            (h_ac - peak).abs() / h_ac < 0.02,
            "f={freq}: AC {h_ac:.4} vs transient {peak:.4} (pole at {f0:.0} Hz)"
        );
    }
}

/// E5 — the dedicated linear path (factor once) does strictly less
/// factorization work than refactoring every step; both give identical
/// results.
#[test]
fn e5_factorization_reuse_is_lossless_and_cheaper() {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("n0");
    ckt.voltage_source_wave(
        "V",
        prev,
        Circuit::GROUND,
        Waveform::Sine {
            offset: 0.0,
            ampl: 1.0,
            freq: 1e3,
            phase: 0.0,
        },
    )
    .unwrap();
    for i in 0..32 {
        let n = ckt.node(format!("n{}", i + 1));
        ckt.resistor(format!("R{i}"), prev, n, 100.0).unwrap();
        ckt.capacitor(format!("C{i}"), n, Circuit::GROUND, 1e-9)
            .unwrap();
        prev = n;
    }
    let last = prev;

    let run = |reuse: bool| {
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.reuse_factorization = reuse;
        tr.initialize_dc().unwrap();
        let mut trace = Vec::new();
        tr.run(200e-6, 1e-6, |s| trace.push(s.voltage(last)))
            .unwrap();
        (tr.stats().factorizations, trace)
    };
    let (fact_reuse, trace_reuse) = run(true);
    let (fact_every, trace_every) = run(false);
    assert!(fact_reuse <= 2, "reuse path factored {fact_reuse} times");
    assert_eq!(fact_every, 200, "naive path factors every step");
    for (a, b) in trace_reuse.iter().zip(&trace_every) {
        assert!((a - b).abs() < 1e-12, "identical trajectories");
    }
}

/// E6 — multi-domain stiffness: the electro-mechanical motor has widely
/// split time constants; trapezoidal at a step resolving only the slow
/// constant stays accurate, explicit integration of the same ODE blows
/// up at that step.
#[test]
fn e6_multidomain_stiffness_requires_implicit() {
    // Motor as an explicit 2-state ODE: di/dt, dω/dt.
    let (r, l, k, j, b) = (1.0, 2e-3, 0.05, 1e-4, 1e-3);
    let v = 10.0;
    let f = move |_t: f64, x: &[f64], dx: &mut [f64]| {
        let (i, w) = (x[0], x[1]);
        dx[0] = (v - r * i - k * w) / l;
        dx[1] = (k * i - b * w) / j;
    };
    let w_expect = k * v / (k * k + r * b);

    // Electrical τ = 2 ms; mechanical τ ≈ 100 ms. Step = 5 ms resolves
    // only the mechanical constant.
    let h = 5e-3;

    // Explicit Euler at h: unstable (h/τ_el = 2.5 > 2).
    let mut f1 = f;
    let mut x = vec![0.0, 0.0];
    let mut euler = FixedStep::new(OdeMethod::Euler, h);
    euler.integrate(&mut f1, 0.0, 1.0, &mut x);
    assert!(
        !x[0].is_finite() || x[0].abs() > 1e3,
        "explicit euler should blow up, got {x:?}"
    );

    // Implicit trapezoidal at the same h: accurate.
    let mut f2 = f;
    let mut x2 = vec![0.0, 0.0];
    let mut trap = ImplicitStepper::new(ImplicitMethod::Trapezoidal, h);
    trap.integrate(&mut f2, 0.0, 1.0, &mut x2).unwrap();
    assert!(
        (x2[1] - w_expect).abs() / w_expect < 0.01,
        "ω = {} vs {w_expect}",
        x2[1]
    );

    // And the conservative-network formulation agrees.
    use systemc_ams::net::Multiphysics;
    let mut ckt = Circuit::new();
    let vcc = ckt.node("vcc");
    let n1 = ckt.node("n1");
    let n2 = ckt.node("n2");
    let shaft = ckt.rot_node("shaft");
    ckt.voltage_source("V", vcc, Circuit::GROUND, v).unwrap();
    ckt.resistor("Ra", vcc, n1, r).unwrap();
    // (armature inductance folded into the sense branch for brevity)
    let sense = ckt.voltage_source("Is", n1, n2, 0.0).unwrap();
    ckt.inertia("J", shaft, j).unwrap();
    ckt.rot_damper("B", shaft, Circuit::rot_ground(), b)
        .unwrap();
    ckt.dc_machine("M", sense, n2, Circuit::GROUND, shaft, k)
        .unwrap();
    let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
    tr.initialize_with_ic().unwrap();
    tr.run(1.0, 1e-3, |_| {}).unwrap();
    assert!(
        (tr.voltage(shaft.0) - w_expect).abs() / w_expect < 0.01,
        "network ω = {}",
        tr.voltage(shaft.0)
    );
}

/// E7 — behavioural ADC accuracy vs the analytic reference: the ideal
/// pipelined converter measures within half a bit of 6.02·N + 1.76, and
/// digital correction recovers the ENOB lost to comparator offsets.
#[test]
fn e7_pipelined_adc_enob_vs_analytic() {
    let run = |errors: &[StageErrors], correction: bool| {
        let mut g = TdfGraph::new("adc");
        let analog = g.signal("analog");
        let code = g.signal("code");
        let probe = g.probe(code);
        let n: u64 = 4096;
        let f_in = 389.0 * 1e6 / n as f64;
        g.add_module(
            "src",
            SineSource::new(analog.writer(), f_in, 0.95, Some(SimTime::from_us(1))),
        );
        g.add_module(
            "adc",
            PipelinedAdc::new(analog.reader(), code.writer(), 9, 1.0)
                .with_errors(errors)
                .with_correction(correction),
        );
        let mut c = g.elaborate().unwrap();
        c.run_standalone(n).unwrap();
        analyze_sine(&probe.values(), 1e6, Window::Blackman)
            .unwrap()
            .enob
    };

    let ideal = vec![StageErrors::default(); 9];
    let enob_ideal = run(&ideal, true);
    assert!(
        (enob_ideal - 10.0).abs() < 0.6,
        "ideal 9-stage ≈ 10 bits (analytic {:.1} dB), measured {enob_ideal:.2}",
        ideal_sine_snr_db(10)
    );

    let offsets = vec![
        StageErrors {
            comparator_offset: 0.1,
            ..Default::default()
        };
        9
    ];
    let with = run(&offsets, true);
    let without = run(&offsets, false);
    assert!(with > 9.0, "correction keeps ENOB high: {with:.2}");
    assert!(
        without < with - 3.0,
        "without correction ≥3 bits lost: {without:.2} vs {with:.2}"
    );
}

/// F1-lite — the ADSL chain's in-band SNR is dominated by the Σ∆
/// modulator and improves with oversampling ratio (the architectural
/// knob the paper's phase-1 toolset is meant to explore).
#[test]
fn f1_sigma_delta_snr_improves_with_osr() {
    let run_osr = |osr: u64| {
        let mut g = TdfGraph::new("sd");
        let x = g.signal("x");
        let bits = g.signal("bits");
        let dec = g.signal("dec");
        let probe = g.probe(dec);
        let fs_mod = 1e6;
        let n_out: u64 = 2048;
        // Keep the tone at 1/512 of the *decimated* rate for coherence.
        let f_tone = fs_mod / osr as f64 / 512.0 * 5.0;
        g.add_module(
            "src",
            SineSource::new(x.writer(), f_tone, 0.5, Some(SimTime::from_us(1))),
        );
        g.add_module(
            "sd",
            systemc_ams::blocks::SigmaDelta2::new(x.reader(), bits.writer()),
        );
        g.add_module(
            "cic",
            systemc_ams::blocks::CicDecimator::new(bits.reader(), dec.writer(), osr, 2),
        );
        let mut c = g.elaborate().unwrap();
        c.run_standalone(n_out).unwrap();
        let v = probe.values();
        analyze_sine(&v[v.len() - 1024..], fs_mod / osr as f64, Window::Blackman)
            .unwrap()
            .snr_db
    };
    let snr_16 = run_osr(16);
    let snr_64 = run_osr(64);
    // 2nd-order shaping: ~15 dB per octave of OSR → 2 octaves ≈ 30 dB;
    // CIC droop and leakage eat some of it. Require a clear win.
    assert!(
        snr_64 > snr_16 + 12.0,
        "OSR 64: {snr_64:.1} dB vs OSR 16: {snr_16:.1} dB"
    );
}
