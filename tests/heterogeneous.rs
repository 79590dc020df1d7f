//! Integration tests: full heterogeneous simulations spanning the DE
//! kernel, TDF clusters, embedded CT solvers and converter ports — the
//! paper's O1 ("suitable for the description and the simulation of
//! heterogeneous systems") exercised end-to-end.

use systemc_ams::blocks::{
    CicDecimator, Comparator, FirFilter, Gain, LtiFilter, Product, SigmaDelta2, SineSource, Sum,
    TanhAmp,
};
use systemc_ams::core::{
    AmsSimulator, CoreError, CtModule, LtiCtSolver, NetlistCtSolver, TdfGraph, TdfIn, TdfIo,
    TdfModule, TdfOut, TdfSetup,
};
use systemc_ams::kernel::SimTime;
use systemc_ams::lti::{Discretization, TransferFunction};
use systemc_ams::net::{Circuit, IntegrationMethod, Waveform};
use systemc_ams::scope::fnv::Fnv;

/// RC step response through the complete stack:
/// DE signal → converter → CT solver in TDF → converter → DE signal.
#[test]
fn de_tdf_ct_roundtrip_rc_step() {
    let mut sim = AmsSimulator::new();
    let stim = sim.kernel_mut().signal("stim", 0.0f64);
    let resp = sim.kernel_mut().signal("resp", 0.0f64);

    let mut g = TdfGraph::new("rc");
    let u = g.from_de("u", stim);
    let y = g.signal("y");
    let tf = TransferFunction::low_pass1(1000.0).unwrap(); // τ = 1 ms
    let solver = LtiCtSolver::from_transfer_function(&tf, Discretization::Zoh).unwrap();
    g.add_module(
        "rc",
        CtModule::new(
            "rc",
            Box::new(solver),
            vec![u.reader()],
            vec![y.writer()],
            Some(SimTime::from_us(10)),
        ),
    );
    g.to_de("y", y, resp);
    sim.add_cluster(g).unwrap();

    // Apply the step at t = 2 ms from the DE side.
    sim.kernel_mut().poke(stim, 0.0);
    sim.run_until(SimTime::from_ms(2)).unwrap();
    assert!(
        sim.kernel().peek(resp).abs() < 1e-9,
        "quiescent before step"
    );
    sim.kernel_mut().poke(stim, 2.0);
    // One time constant after the step.
    sim.run_until(SimTime::from_ms(3)).unwrap();
    let v = sim.kernel().peek(resp);
    let expect = 2.0 * (1.0 - (-1.0f64).exp());
    assert!((v - expect).abs() < 0.01, "v(τ) = {v}, analytic {expect}");
    // Five time constants: settled.
    sim.run_until(SimTime::from_ms(10)).unwrap();
    assert!((sim.kernel().peek(resp) - 2.0).abs() < 2e-3);
}

/// A bang-bang temperature-style control loop: TDF plant (RC), DE
/// comparator-driven control through converters in both directions.
#[test]
fn bang_bang_control_loop_regulates() {
    let mut sim = AmsSimulator::new();
    let heater = sim.kernel_mut().signal("heater", 1.0f64);
    let temp_de = sim.kernel_mut().signal("temp", 0.0f64);

    // DE controller: heater on below 0.45, off above 0.55.
    let h2 = heater;
    let t2 = temp_de;
    let pid = sim.kernel_mut().add_process("thermostat", move |ctx| {
        let t = ctx.read(t2);
        if t > 0.55 {
            ctx.write(h2, 0.0);
        } else if t < 0.45 {
            ctx.write(h2, 1.0);
        }
    });
    let ev = sim.kernel().signal_event(temp_de);
    sim.kernel_mut().make_sensitive(pid, ev);
    sim.kernel_mut().dont_initialize(pid);

    let mut g = TdfGraph::new("plant");
    let u = g.from_de("u", heater);
    let y = g.signal("y");
    let probe = g.probe(y);
    g.add_module(
        "thermal",
        LtiFilter::low_pass1(u.reader(), y.writer(), 50.0, Some(SimTime::from_us(100))).unwrap(),
    );
    g.to_de("temp", y, temp_de);
    sim.add_cluster(g).unwrap();

    sim.run_until(SimTime::from_ms(200)).unwrap();
    // After start-up the plant output must oscillate inside the band.
    let vals = probe.values();
    let tail = &vals[vals.len() / 2..];
    let lo = tail.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(lo > 0.40, "lower excursion {lo}");
    assert!(hi < 0.60, "upper excursion {hi}");
    assert!(hi - lo > 0.05, "limit cycle present ({lo}..{hi})");
}

/// Two clusters at different rates plus a netlist solver: the
/// sine → netlist RC → comparator chain in a 1 µs cluster, a slow monitor
/// in a 1 ms cluster, exchanging values through DE.
#[test]
fn multi_cluster_multi_rate_cosimulation() {
    let mut sim = AmsSimulator::new();
    let cmp_de = sim.kernel_mut().signal("cmp", 0.0f64);
    let duty_de = sim.kernel_mut().signal("duty", 0.0f64);

    // Fast cluster: 500 Hz sine through an RC netlist, compared at 0.
    let mut fast = TdfGraph::new("fast");
    let src = fast.signal("src");
    let filt = fast.signal("filt");
    let dec = fast.signal("dec");
    fast.add_module(
        "sine",
        SineSource::new(src.writer(), 500.0, 1.0, Some(SimTime::from_us(20))),
    );
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    let inp = ckt.external_input();
    ckt.voltage_source_wave("V", a, Circuit::GROUND, Waveform::External(inp))
        .unwrap();
    ckt.resistor("R", a, out, 1e3).unwrap();
    ckt.capacitor("C", out, Circuit::GROUND, 50e-9).unwrap(); // 3.2 kHz pole
    let ns =
        NetlistCtSolver::new(&ckt, IntegrationMethod::Trapezoidal, vec![inp], vec![out]).unwrap();
    fast.add_module(
        "rc",
        CtModule::new(
            "rc",
            Box::new(ns),
            vec![src.reader()],
            vec![filt.writer()],
            None,
        ),
    );
    fast.add_module("cmp", Comparator::new(filt.reader(), dec.writer(), 0.0));
    fast.to_de("cmp", dec, cmp_de);
    sim.add_cluster(fast).unwrap();

    // Slow cluster: averages the comparator decision over 1 ms windows
    // (the duty cycle of a 0-centred sine is 1/2).
    let mut slow = TdfGraph::new("slow");
    let cmp_in = slow.from_de("cmp_in", cmp_de);
    let avg = slow.signal("avg");
    let probe = slow.probe(avg);
    slow.add_module(
        "iir",
        LtiFilter::low_pass1(
            cmp_in.reader(),
            avg.writer(),
            20.0,
            Some(SimTime::from_ms(1)),
        )
        .unwrap(),
    );
    slow.to_de("duty", avg, duty_de);
    sim.add_cluster(slow).unwrap();

    sim.run_until(SimTime::from_ms(400)).unwrap();
    let duty = sim.kernel().peek(duty_de);
    assert!((duty - 0.5).abs() < 0.05, "duty cycle {duty}");
    assert!(probe.len() >= 399, "slow cluster ran every 1 ms");
}

/// AC analysis of a mixed chain (gain + filter + feedback summing node)
/// matches the analytic closed-loop transfer function.
#[test]
fn ac_analysis_of_feedback_chain_matches_analytic() {
    // Loop: e = src − y; y = H(s)·k·e with H = low-pass, k = 10.
    let mut g = TdfGraph::new("loop");
    let src = g.signal("src");
    let err = g.signal("err");
    let drive = g.signal("drive");
    let y = g.signal("y");

    g.add_module(
        "src",
        SineSource::new(src.writer(), 1.0, 0.0, Some(SimTime::from_us(10))).with_ac_magnitude(1.0),
    );
    // err = src − y (y read with a one-sample delay to break the loop).
    struct DelayedSub {
        a: systemc_ams::core::TdfIn,
        b: systemc_ams::core::TdfIn,
        out: systemc_ams::core::TdfOut,
    }
    impl systemc_ams::core::TdfModule for DelayedSub {
        fn setup(&mut self, cfg: &mut systemc_ams::core::TdfSetup) {
            cfg.input(self.a);
            cfg.input_with(self.b, 1, 1);
            cfg.output(self.out);
        }
        fn processing(&mut self, io: &mut systemc_ams::core::TdfIo<'_>) -> Result<(), CoreError> {
            let a = io.read1(self.a);
            let b = io.read1(self.b);
            io.write1(self.out, a - b);
            Ok(())
        }
        fn ac_processing(&mut self, ac: &mut systemc_ams::core::AcIo<'_>) {
            ac.set_gain(self.a, self.out, systemc_ams::math::Complex64::ONE);
            ac.set_gain(self.b, self.out, -systemc_ams::math::Complex64::ONE);
        }
    }
    g.add_module(
        "sub",
        DelayedSub {
            a: src.reader(),
            b: y.reader(),
            out: err.writer(),
        },
    );
    g.add_module("k", Gain::new(err.reader(), drive.writer(), 10.0));
    let f0 = 100.0;
    g.add_module(
        "h",
        LtiFilter::low_pass1(drive.reader(), y.writer(), f0, None).unwrap(),
    );
    let mut c = g.elaborate().unwrap();

    let w0 = 2.0 * std::f64::consts::PI * f0;
    let h = TransferFunction::low_pass1(w0).unwrap();
    let k = TransferFunction::gain(10.0);
    let closed = h.series(&k).feedback(&TransferFunction::gain(1.0));

    let freqs = [10.0, 100.0, 1000.0, 10_000.0];
    let ac = c.ac_analysis(&freqs).unwrap();
    let resp = ac.response(y);
    for (i, &f) in freqs.iter().enumerate() {
        let analytic = closed.freq_response(2.0 * std::f64::consts::PI * f);
        assert!(
            (resp[i] - analytic).abs() < 1e-9,
            "f = {f}: {} vs {}",
            resp[i],
            analytic
        );
    }
}

/// A summing node with weighted inputs behaves identically in time and
/// frequency domains.
#[test]
fn sum_block_time_and_frequency_consistency() {
    let mut g = TdfGraph::new("sum");
    let a = g.signal("a");
    let b = g.signal("b");
    let out = g.signal("out");
    let probe = g.probe(out);
    g.add_module(
        "sa",
        SineSource::new(a.writer(), 100.0, 1.0, Some(SimTime::from_us(100))).with_ac_magnitude(1.0),
    );
    g.add_module("sb", SineSource::new(b.writer(), 100.0, 0.5, None));
    g.add_module(
        "sum",
        Sum::weighted(a.reader(), b.reader(), out.writer(), 2.0, -1.0),
    );
    let mut c = g.elaborate().unwrap();
    c.run_standalone(100).unwrap();
    // Time domain: 2·sin − 0.5·sin = 1.5·sin.
    let peak = probe.values().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    assert!((peak - 1.5).abs() < 0.01, "time-domain peak {peak}");
    // Frequency domain: only `a` carries the AC stimulus → gain 2.
    let ac = c.ac_analysis(&[100.0]).unwrap();
    assert!((ac.response(out)[0].re - 2.0).abs() < 1e-12);
}

/// The paper's consistent-initial-state requirement: a netlist biased at
/// DC starts transient simulation without any start-up glitch.
#[test]
fn quiescent_state_initialization_is_glitch_free() {
    let mut ckt = Circuit::new();
    let vcc = ckt.node("vcc");
    let mid = ckt.node("mid");
    ckt.voltage_source("V", vcc, Circuit::GROUND, 10.0).unwrap();
    ckt.resistor("R1", vcc, mid, 1e3).unwrap();
    ckt.resistor("R2", mid, Circuit::GROUND, 1e3).unwrap();
    ckt.capacitor("C", mid, Circuit::GROUND, 1e-6).unwrap();
    let mut tr =
        systemc_ams::net::TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
    tr.initialize_dc().unwrap();
    // The capacitor is already at the divider voltage: nothing moves.
    let mut max_dev = 0.0f64;
    tr.run(5e-3, 1e-6, |s| {
        max_dev = max_dev.max((s.voltage(mid) - 5.0).abs());
    })
    .unwrap();
    // The DC solution includes the capacitor's gmin stamp (1e-12 S), so
    // the quiescent point differs from the ideal divider by a few nV.
    assert!(max_dev < 1e-6, "glitch of {max_dev} V from the DC state");
}

/// Sliding mean-square power estimator: Figure 1's "DSP algorithm", as
/// the `f1_adsl` benchmark workload builds it.
struct PowerEstimator {
    inp: TdfIn,
    out: TdfOut,
    acc: f64,
}

impl TdfModule for PowerEstimator {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.input(self.inp);
        cfg.output(self.out);
    }
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let x = io.read1(self.inp);
        self.acc = 0.995 * self.acc + 0.005 * x * x;
        io.write1(self.out, self.acc);
        Ok(())
    }
}

/// Figure 1 exactly as the `f1_adsl` benchmark workload builds it (DE
/// AGC, line netlist, biquad, Σ∆, CIC, FIR and power estimator), with a
/// 5 kHz tone run for the workload's 40-ms window. One FNV-1a
/// fingerprint covers the digital probe's `(t, v)` bits, the final DE
/// `power`, the cluster's iteration and firing counts and the kernel's
/// delta-cycle and activation counts, so the cluster runtime cannot
/// change an output bit or a count without failing here.
#[test]
fn f1_adsl_window_bits_and_counts_are_pinned() {
    const TARGET_POWER: f64 = 0.02;
    let mut sim = AmsSimulator::new();
    let power_de = sim.kernel_mut().signal("power", 0.0f64);
    let gain_de = sim.kernel_mut().signal("tx_gain", 1.0f64);
    sim.kernel_mut().add_process("agc", move |ctx| {
        let p = ctx.read(power_de);
        let g = ctx.read(gain_de);
        let adj = if p > 1e-12 {
            (TARGET_POWER / p).powf(0.1).clamp(0.7, 1.3)
        } else {
            1.2
        };
        ctx.write(gain_de, (g * adj).clamp(0.05, 20.0));
        ctx.next_trigger_in(SimTime::from_us(500));
    });

    let fs = SimTime::from_us(1);
    let mut g = TdfGraph::new("slic");
    let tone = g.signal("tone");
    let gain_ctl = g.from_de("gain_ctl", gain_de);
    let scaled = g.signal("scaled");
    let driven = g.signal("driven");
    let line_out = g.signal("line_out");
    let anti_alias = g.signal("anti_alias");
    let bitstream = g.signal("bitstream");
    let decimated = g.signal("decimated");
    let digital = g.signal("digital");
    let power = g.signal("power");
    let probe = g.probe(digital);
    g.add_module(
        "tone",
        SineSource::new(tone.writer(), 5_000.0, 0.5, Some(fs)),
    );
    g.add_module(
        "tx_gain",
        Product::new(tone.reader(), gain_ctl.reader(), scaled.writer()),
    );
    g.add_module(
        "hv_driver",
        TanhAmp::new(scaled.reader(), driven.writer(), 4.0, 12.0),
    );
    // Driver → protection resistor → 600 Ω line with shunt capacitance.
    let mut ckt = Circuit::new();
    let drive = ckt.node("drive");
    let line = ckt.node("line");
    let sub = ckt.node("subscriber");
    let line_in = ckt.external_input();
    ckt.voltage_source_wave("Vdrv", drive, Circuit::GROUND, Waveform::External(line_in))
        .unwrap();
    ckt.resistor("Rprot", drive, line, 50.0).unwrap();
    ckt.capacitor("Cline", line, Circuit::GROUND, 20e-9)
        .unwrap();
    ckt.resistor("Rline", line, sub, 130.0).unwrap();
    ckt.resistor("Rsub", sub, Circuit::GROUND, 600.0).unwrap();
    ckt.capacitor("Csub", sub, Circuit::GROUND, 10e-9).unwrap();
    let solver = NetlistCtSolver::new(
        &ckt,
        IntegrationMethod::Trapezoidal,
        vec![line_in],
        vec![sub],
    )
    .unwrap();
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
        "anti_alias",
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
        "sd_prefi",
        SigmaDelta2::new(anti_alias.reader(), bitstream.writer()),
    );
    g.add_module(
        "cic",
        CicDecimator::new(bitstream.reader(), decimated.writer(), 16, 2),
    );
    g.add_module(
        "chan_fir",
        FirFilter::lowpass_design(decimated.reader(), digital.writer(), 63, 0.16),
    );
    g.add_module(
        "dsp_power",
        PowerEstimator {
            inp: digital.reader(),
            out: power.writer(),
            acc: 0.0,
        },
    );
    g.to_de("power_out", power, power_de);
    let cluster = sim.add_cluster(g).unwrap();
    sim.run_until(SimTime::from_ms(40)).unwrap();

    let samples = probe.samples();
    let stats = cluster.stats();
    let kernel = sim.kernel().stats();
    // `run_until` is horizon-inclusive: one iteration per 16 µs, plus
    // the one at t = 40 ms.
    assert_eq!(samples.len(), 2501);
    assert_eq!(stats.iterations, 2501);
    assert_eq!(
        (kernel.delta_cycles, kernel.activations),
        (5062, 5083),
        "kernel counts"
    );
    let mut h = Fnv::new();
    for (t, v) in samples {
        h.u64(t.to_bits());
        h.u64(v.to_bits());
    }
    h.u64(sim.kernel().peek(power_de).to_bits());
    h.u64(stats.iterations);
    h.u64(stats.firings);
    h.u64(kernel.delta_cycles);
    h.u64(kernel.activations);
    assert_eq!(h.finish(), 0x9755_1f0e_7233_141b);
}
