//! Golden pins for the transient engine, the DC, AC, noise and
//! stamp-pattern analyses, the netlist sweep driver, the TDF sweep
//! executor and the Figure-1 model.
//!
//! Every other determinism test is *relative*: worker counts against
//! each other, prefix forks against runs from zero, served jobs against
//! direct runs. None of them would notice an ulp drift that moved every
//! run the same way. These pins are absolute: each constant is a
//! [`SweepReport::fingerprint`] or an FNV-1a hash of per-step voltage
//! bits (or of a Chrome trace export), recorded once and expected never
//! to change.
//!
//! The diode and NMOS models call the platform `exp` (Figure 1 calls
//! `sin`, `tanh` and `powf`), so the pins are only meaningful where they
//! were recorded: x86_64.

#![cfg(target_arch = "x86_64")]

use std::sync::{Arc, Mutex};
use systemc_ams::blocks::{
    CicDecimator, FirFilter, LtiFilter, Product, SigmaDelta2, SineSource, TanhAmp,
};
use systemc_ams::core::{
    AmsSimulator, Cluster, CoreError, CtModule, NetlistCtSolver, SharedSample, TdfGraph, TdfIn,
    TdfIo, TdfModule, TdfOut, TdfProbe, TdfSetup,
};
use systemc_ams::kernel::SimTime;
use systemc_ams::monitor::MonitorSpec;
use systemc_ams::net::{
    AdaptiveOptions, Circuit, ElementId, InputId, IntegrationMethod, LaneTransientSolver, NetError,
    NodeId, ScenarioProbe, SolverBackend, TransientSolver, Waveform,
};
use systemc_ams::scope::chrome;
use systemc_ams::serve::{
    BindTarget, CircuitSpec, ElementKindSpec, ElementSpec, JobSpec, MetricSpec, ParamBind,
    ProbeKind, SweepDecl, WaveSpec,
};
use systemc_ams::sweep::{
    LaneSweepModel, NetlistSweep, Scenario, SweepModel, SweepReport, SweepSpec, TdfSweep,
};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

struct Ladder {
    ckt: Circuit,
    resistors: Vec<ElementId>,
    caps: Vec<ElementId>,
    source: ElementId,
    out: NodeId,
}

/// `stages` RC sections driven by `wave`, optionally clamped by a diode
/// from the output to ground.
fn ladder(stages: usize, wave: Waveform, clamp: bool) -> Ladder {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    let source = ckt
        .voltage_source_wave("V", prev, Circuit::GROUND, wave)
        .unwrap();
    let mut resistors = Vec::new();
    let mut caps = Vec::new();
    for i in 0..stages {
        let node = ckt.node(format!("n{i}"));
        resistors.push(ckt.resistor(format!("R{i}"), prev, node, 1e3).unwrap());
        caps.push(
            ckt.capacitor(format!("C{i}"), node, Circuit::GROUND, 1e-9)
                .unwrap(),
        );
        prev = node;
    }
    if clamp {
        ckt.diode("D", prev, Circuit::GROUND, 1e-14, 1.0).unwrap();
    }
    Ladder {
        ckt,
        resistors,
        caps,
        source,
        out: prev,
    }
}

fn sine(ampl: f64, freq: f64) -> Waveform {
    Waveform::Sine {
        offset: 0.0,
        ampl,
        freq,
        phase: 0.0,
    }
}

/// Scales every resistor by `1 + dr` and every capacitor by `1 + dc`.
fn apply_rc(lad: &Ladder) -> impl Fn(&mut Circuit, &Scenario) -> Result<(), NetError> + Sync + '_ {
    move |c, sc| {
        for r in &lad.resistors {
            c.set_resistance(*r, 1e3 * (1.0 + sc.value("dr")))?;
        }
        for cap in &lad.caps {
            c.set_capacitance(*cap, 1e-9 * (1.0 + sc.value("dc")))?;
        }
        Ok(())
    }
}

/// Last value and running maximum of the output node.
fn observe(out: NodeId) -> impl Fn(&dyn ScenarioProbe, &mut [f64]) + Sync {
    move |p, m| {
        let v = p.voltage(out);
        m[0] = v;
        m[1] = m[1].max(v);
    }
}

const METRICS: [&str; 2] = ["v_out", "v_peak"];

fn rc_spec(n: usize) -> SweepSpec {
    SweepSpec::monte_carlo(&[("dr", -0.2, 0.2), ("dc", -0.2, 0.2)], n, 0x601D).unwrap()
}

fn fixed_ladder_sweep(method: IntegrationMethod) -> SweepReport {
    let lad = ladder(12, sine(1.0, 2e5), false);
    NetlistSweep::new(lad.ckt.clone(), method)
        .backend(SolverBackend::Sparse)
        .fixed_step(3e-6, 3e-9)
        .lanes(1)
        .run_lanes(&rc_spec(24), 2, &METRICS, apply_rc(&lad), observe(lad.out))
        .unwrap()
}

fn adaptive_opts() -> AdaptiveOptions {
    AdaptiveOptions {
        initial_step: 1e-9,
        ..AdaptiveOptions::default()
    }
}

fn adaptive_sweep(lanes: usize, scenarios: usize) -> SweepReport {
    let lad = ladder(6, sine(1.0, 2e5), false);
    NetlistSweep::new(lad.ckt.clone(), IntegrationMethod::Trapezoidal)
        .backend(SolverBackend::Sparse)
        .adaptive(5e-6, adaptive_opts())
        .lanes(lanes)
        .run_lanes(
            &rc_spec(scenarios),
            2,
            &METRICS,
            apply_rc(&lad),
            observe(lad.out),
        )
        .unwrap()
}

fn newton_sweep(lanes: usize, scenarios: usize) -> SweepReport {
    let lad = ladder(4, sine(2.0, 2e5), true);
    let report = NetlistSweep::new(lad.ckt.clone(), IntegrationMethod::Trapezoidal)
        .backend(SolverBackend::Sparse)
        .fixed_step(4e-6, 4e-9)
        .lanes(lanes)
        .run_lanes(
            &rc_spec(scenarios),
            2,
            &METRICS,
            apply_rc(&lad),
            observe(lad.out),
        )
        .unwrap();
    let t = report.totals();
    assert!(
        t.newton_iterations > t.iterations,
        "the clamp must make steps iterate"
    );
    report
}

fn pulse(v2: f64, delay: f64, h: f64) -> Waveform {
    Waveform::Pulse {
        v1: 0.0,
        v2,
        delay,
        rise: 8.0 * h,
        fall: 8.0 * h,
        width: 1.0,
        period: 0.0,
    }
}

fn monitored_prefix_sweep() -> SweepReport {
    let h = (2.0f64).powi(-20);
    let t0 = 256.0 * h;
    let lad = ladder(4, pulse(1.0, t0, h), false);
    let source = lad.source;
    let spec = SweepSpec::monte_carlo(&[("v2", 0.5, 1.5)], 16, 0x601D).unwrap();
    let monitors = MonitorSpec::parse(
        "bounded:envelope(lo=-0.05,hi=1.6)@n3;\
         settled:settle(lo=0.8,hi=1.0,by=4.5e-4)@n3;\
         fast:rise(lo=0.05,hi=0.5,within=1.2e-4)@n3",
    )
    .unwrap();
    let report = NetlistSweep::new(lad.ckt.clone(), IntegrationMethod::Trapezoidal)
        .backend(SolverBackend::Sparse)
        .fixed_step(512.0 * h, h)
        .monitors(monitors)
        .prefix(t0)
        .lanes(1)
        .run_lanes(
            &spec,
            2,
            &METRICS,
            |c, sc| c.set_source_waveform(source, pulse(sc.value("v2"), t0, h)),
            observe(lad.out),
        )
        .unwrap();
    assert_eq!(report.prefix_forks, 16);
    report
}

#[test]
fn scalar_fixed_step_ladder_fingerprints_are_pinned() {
    assert_eq!(
        fixed_ladder_sweep(IntegrationMethod::Trapezoidal).fingerprint(),
        0x2a32_0c23_bf41_4c42
    );
    assert_eq!(
        fixed_ladder_sweep(IntegrationMethod::BackwardEuler).fingerprint(),
        0x5454_fc0e_a228_8576
    );
}

#[test]
fn scalar_adaptive_fingerprint_is_pinned() {
    assert_eq!(adaptive_sweep(1, 12).fingerprint(), 0x2964_373b_5d60_1d4d);
}

#[test]
fn scalar_newton_fingerprint_is_pinned() {
    assert_eq!(newton_sweep(1, 16).fingerprint(), 0xc538_8302_6949_7aee);
}

#[test]
fn monitored_prefix_fingerprint_is_pinned() {
    let report = monitored_prefix_sweep();
    let s = report.monitor_summary();
    assert!(s.iter().any(|m| m.fail > 0) && s.iter().any(|m| m.pass > 0));
    assert_eq!(report.fingerprint(), 0xe9e8_fd63_70e4_9a38);
}

#[test]
fn lane_newton_fingerprint_is_pinned() {
    let report = newton_sweep(8, 20);
    assert_eq!(report.bundles, 3);
    assert_eq!(report.fingerprint(), 0xfbe8_5e10_758c_b879);
}

#[test]
fn lane_adaptive_fingerprint_is_pinned() {
    let report = adaptive_sweep(4, 10);
    assert_eq!(report.bundles, 3);
    assert_eq!(report.fingerprint(), 0xf109_e222_363b_8242);
}

/// Knobs of [`every_kind_with`]; [`EveryKind::BASE`] is [`every_kind`].
#[derive(Clone, Copy)]
struct EveryKind {
    /// Scale of every resistance.
    r: f64,
    /// Scale of every controlled-source gain.
    gain: f64,
    /// Include the diode and the NMOS.
    nonlinear: bool,
    /// `Vin` is a 1 V DC source of unit AC magnitude instead of a sine,
    /// which biases the diode and turns the NMOS on.
    ac: bool,
    /// Append a source driven by external input 0, with an RC load.
    external: bool,
}

impl EveryKind {
    const BASE: EveryKind = EveryKind {
        r: 1.0,
        gain: 1.0,
        nonlinear: true,
        ac: false,
        external: false,
    };
}

/// An [`every_kind_with`] circuit and the handles the pins drive.
struct EveryKindCkt {
    ckt: Circuit,
    sw: ElementId,
    nodes: Vec<NodeId>,
    /// Every element, in insertion order.
    elems: Vec<ElementId>,
    /// The external input, when [`EveryKind::external`] is set.
    input: Option<InputId>,
}

/// One circuit with every element kind: sources, passives, the four
/// controlled sources, a diode, an NMOS and a switch.
fn every_kind() -> (Circuit, ElementId, Vec<NodeId>) {
    let ek = every_kind_with(EveryKind::BASE);
    (ek.ckt, ek.sw, ek.nodes)
}

fn every_kind_with(k: EveryKind) -> EveryKindCkt {
    let mut ckt = Circuit::new();
    let gnd = Circuit::GROUND;
    let inp = ckt.node("in");
    let a = ckt.node("a");
    let b = ckt.node("b");
    let c = ckt.node("c");
    let d = ckt.node("d");
    let e = ckt.node("e");
    let f = ckt.node("f");
    let g = ckt.node("g");
    let kk = ckt.node("k");
    let vdd = ckt.node("vdd");
    let drain = ckt.node("drain");
    let s = ckt.node("s");
    let r = |ohms: f64| ohms * k.r;
    let mut elems = Vec::new();
    let vin = if k.ac {
        ckt.voltage_source_ac("Vin", inp, gnd, 1.0, 1.0).unwrap()
    } else {
        ckt.voltage_source_wave("Vin", inp, gnd, sine(1.0, 20e3))
            .unwrap()
    };
    elems.push(vin);
    elems.push(ckt.resistor("Ra", inp, a, r(1e3)).unwrap());
    elems.push(ckt.capacitor("Ca", a, gnd, 10e-9).unwrap());
    let l = ckt.inductor("L", a, b, 1e-3).unwrap();
    elems.push(l);
    elems.push(ckt.resistor("Rb", b, gnd, r(500.0)).unwrap());
    elems.push(
        ckt.current_source_wave("I", gnd, c, sine(1e-3, 5e3))
            .unwrap(),
    );
    elems.push(ckt.resistor("Rc", c, gnd, r(2e3)).unwrap());
    elems.push(ckt.vcvs("E", d, gnd, a, gnd, 2.0 * k.gain).unwrap());
    elems.push(ckt.resistor("Rd", d, gnd, r(1e4)).unwrap());
    elems.push(ckt.vccs("G", gnd, e, a, gnd, 1e-3 * k.gain).unwrap());
    elems.push(ckt.resistor("Re", e, gnd, r(1e3)).unwrap());
    elems.push(ckt.cccs("F", gnd, f, vin, 0.5 * k.gain).unwrap());
    elems.push(ckt.resistor("Rf", f, gnd, r(1e3)).unwrap());
    elems.push(ckt.ccvs("H", g, gnd, l, 100.0 * k.gain).unwrap());
    elems.push(ckt.resistor("Rg", g, gnd, r(1e3)).unwrap());
    if k.nonlinear {
        elems.push(ckt.diode("D", d, kk, 1e-14, 1.0).unwrap());
    }
    elems.push(ckt.resistor("Rk", kk, gnd, r(1e3)).unwrap());
    elems.push(ckt.capacitor("Ck", kk, gnd, 1e-9).unwrap());
    elems.push(ckt.voltage_source("Vdd", vdd, gnd, 3.0).unwrap());
    elems.push(ckt.resistor("Rdrain", vdd, drain, r(1e3)).unwrap());
    if k.nonlinear {
        elems.push(ckt.nmos("M", drain, d, gnd, 1e-3, 0.5, 0.01).unwrap());
    }
    elems.push(ckt.resistor("Rs", a, s, r(100.0)).unwrap());
    let sw = ckt.switch("S", s, gnd, 10.0, 1e9, false).unwrap();
    elems.push(sw);
    let mut input = None;
    if k.external {
        let x = ckt.node("x");
        let y = ckt.node("y");
        let id = ckt.external_input();
        input = Some(id);
        elems.push(
            ckt.voltage_source_wave("Vx", x, gnd, Waveform::External(id))
                .unwrap(),
        );
        elems.push(ckt.resistor("Rx", x, y, r(1e3)).unwrap());
        elems.push(ckt.capacitor("Cy", y, gnd, 1e-9).unwrap());
    }
    let nodes = ckt.nodes().collect();
    EveryKindCkt {
        ckt,
        sw,
        nodes,
        elems,
        input,
    }
}

/// Hashes a current readout: its bits, or a marker for an element
/// without a computable current.
fn current_bits(h: &mut Fnv, i: Result<f64, NetError>) {
    h.u64(i.map_or(u64::MAX, f64::to_bits));
}

fn every_kind_hash(method: IntegrationMethod) -> u64 {
    let (ckt, sw, nodes) = every_kind();
    let mut tr = TransientSolver::new(&ckt, method).unwrap();
    tr.initialize_dc().unwrap();
    let mut h = Fnv::new();
    for step in 0..400 {
        if step == 200 {
            tr.set_switch(sw, true).unwrap();
        }
        tr.step(0.25e-6).unwrap();
        h.u64(tr.time().to_bits());
        for &n in &nodes {
            h.u64(tr.voltage(n).to_bits());
        }
    }
    assert!(tr.stats().newton_iterations > tr.stats().steps);
    h.0
}

#[test]
fn direct_run_over_every_element_kind_is_pinned() {
    assert_eq!(
        every_kind_hash(IntegrationMethod::Trapezoidal),
        0xc07f_5222_7905_84b4
    );
    assert_eq!(
        every_kind_hash(IntegrationMethod::BackwardEuler),
        0x32c6_8459_86dd_e1df
    );
}

/// The DC operating point of an [`every_kind_with`] circuit on
/// `backend`: the Newton iteration count, and a hash of every unknown
/// and element current.
fn every_kind_dc_hash(k: EveryKind, backend: SolverBackend) -> (usize, u64) {
    let ek = every_kind_with(k);
    let ext = vec![0.0; ek.ckt.external_input_count()];
    // Every element's initial state: the one switch starts open.
    let switches = vec![false; ek.ckt.element_count()];
    let op = ek
        .ckt
        .dc_operating_point_with_backend(&ext, &switches, backend)
        .unwrap();
    let mut h = Fnv::new();
    for &x in op.unknowns() {
        h.u64(x.to_bits());
    }
    for &e in &ek.elems {
        current_bits(&mut h, op.current(e));
    }
    (op.iterations, h.0)
}

#[test]
fn every_kind_dc_operating_point_is_pinned() {
    let (ckt, _, _) = every_kind();
    let auto = ckt.dc_operating_point().unwrap();
    let dense = every_kind_dc_hash(EveryKind::BASE, SolverBackend::Dense);
    assert_eq!(dense, (2, 0x6bf3_aec5_5758_d17c));
    assert_eq!(auto.iterations, dense.0);
    assert_eq!(
        every_kind_dc_hash(EveryKind::BASE, SolverBackend::Sparse),
        (2, 0x6bf3_aec5_5758_d17c)
    );
    // The AC pins' bias point: the diode conducts and the NMOS is on.
    let biased = EveryKind {
        ac: true,
        ..EveryKind::BASE
    };
    assert_eq!(
        every_kind_dc_hash(biased, SolverBackend::Dense),
        (8, 0x0bb9_7f15_0bfb_434a)
    );
    assert_eq!(
        every_kind_dc_hash(biased, SolverBackend::Sparse),
        (8, 0x73c3_719b_f7c8_ea8b)
    );
}

#[test]
fn every_kind_dc_stamp_pattern_is_pinned() {
    let (ckt, _, _) = every_kind();
    let p = ckt.dc_stamp_pattern();
    let mut h = Fnv::new();
    h.u64(p.n_unknowns() as u64);
    for &(i, j) in p.coords() {
        h.u64(i as u64);
        h.u64(j as u64);
    }
    assert_eq!((p.coords().len(), h.0), (45, 0x3bf4_63f0_3759_c7f9));
}

/// AC and noise analysis points of the pins.
const AC_FREQS: [f64; 3] = [1e2, 1e4, 1e6];

/// AC sweep and noise analysis (output `k`) of [`every_kind`] with a
/// unit AC stimulus on `Vin`, on `backend`.
fn every_kind_ac_noise_hash(backend: SolverBackend) -> (u64, u64) {
    let ek = every_kind_with(EveryKind {
        ac: true,
        ..EveryKind::BASE
    });
    let op = ek.ckt.dc_operating_point().unwrap();
    let mut ac = Fnv::new();
    for sol in ek.ckt.ac_sweep_with(&op, &AC_FREQS, backend).unwrap() {
        ac.u64(sol.omega.to_bits());
        for &n in &ek.nodes {
            let v = sol.voltage(n);
            ac.u64(v.re.to_bits());
            ac.u64(v.im.to_bits());
        }
        for &e in &ek.elems {
            match sol.branch_current(e) {
                Ok(i) => {
                    ac.u64(i.re.to_bits());
                    ac.u64(i.im.to_bits());
                }
                Err(_) => ac.u64(u64::MAX),
            }
        }
    }
    let out = ek.ckt.find_node("k").unwrap();
    let noise = ek
        .ckt
        .noise_analysis_with(&op, out, &AC_FREQS, backend)
        .unwrap();
    let mut nh = Fnv::new();
    for p in &noise.points {
        nh.u64(p.freq_hz.to_bits());
        nh.u64(p.total_psd.to_bits());
        for c in &p.contributions {
            nh.bytes(c.element.as_bytes());
            nh.u64(c.output_psd.to_bits());
        }
    }
    (ac.0, nh.0)
}

#[test]
fn every_kind_ac_and_noise_are_pinned() {
    assert_eq!(
        every_kind_ac_noise_hash(SolverBackend::Dense),
        (0xf89a_2646_44b6_98e8, 0xa7db_9e38_ae7a_9543)
    );
    assert_eq!(
        every_kind_ac_noise_hash(SolverBackend::Sparse),
        (0x8af4_e669_751f_158b, 0x134d_466b_32a3_b9a0)
    );
}

/// [`every_kind`] without its diode and NMOS, plus an externally
/// driven source: the linear fast path (factor once per matrix, replay
/// the right-hand side every step) over every linear kind. Hashes every
/// step's time, node voltages and element currents, then the counters.
fn linear_every_kind_hash(method: IntegrationMethod, backend: SolverBackend) -> u64 {
    let ek = every_kind_with(EveryKind {
        nonlinear: false,
        external: true,
        ..EveryKind::BASE
    });
    let input = ek.input.unwrap();
    let mut tr = TransientSolver::new(&ek.ckt, method).unwrap();
    tr.backend = backend;
    tr.initialize_dc().unwrap();
    let mut h = Fnv::new();
    for step in 0..400 {
        if step == 200 {
            tr.set_switch(ek.sw, true).unwrap();
        }
        tr.set_input(input, (step as f64 * 0.05).sin());
        tr.step(0.25e-6).unwrap();
        h.u64(tr.time().to_bits());
        for &n in &ek.nodes {
            h.u64(tr.voltage(n).to_bits());
        }
        for &e in &ek.elems {
            current_bits(&mut h, tr.current(e));
        }
    }
    let stats = tr.stats();
    assert_eq!(stats.newton_iterations, stats.steps);
    assert!(stats.factorizations <= 3, "{stats:?}");
    h.u64(stats.factorizations);
    h.0
}

#[test]
fn linear_fast_path_over_every_linear_kind_is_pinned() {
    use IntegrationMethod::{BackwardEuler, Trapezoidal};
    assert_eq!(
        linear_every_kind_hash(Trapezoidal, SolverBackend::Dense),
        0x8e1a_3b88_b068_f20a
    );
    assert_eq!(
        linear_every_kind_hash(BackwardEuler, SolverBackend::Dense),
        0x1ecb_8914_b9ad_a0f3
    );
    assert_eq!(
        linear_every_kind_hash(Trapezoidal, SolverBackend::Sparse),
        0xd580_1679_757e_6f1d
    );
    assert_eq!(
        linear_every_kind_hash(BackwardEuler, SolverBackend::Sparse),
        0x531f_5213_4b2f_0f8c
    );
}

/// Resistance and gain scales of the four lane circuits.
const LANE_KNOBS: [(f64, f64); 4] = [(1.0, 1.0), (1.25, 0.8), (0.8, 1.5), (2.0, 0.5)];

#[test]
fn every_kind_at_four_lanes_is_pinned() {
    let lanes: Vec<EveryKindCkt> = LANE_KNOBS
        .iter()
        .map(|&(r, gain)| {
            every_kind_with(EveryKind {
                r,
                gain,
                ..EveryKind::BASE
            })
        })
        .collect();
    let circuits: Vec<Circuit> = lanes.iter().map(|ek| ek.ckt.clone()).collect();
    let ek = &lanes[0];
    let mut tr = LaneTransientSolver::<4>::new(&circuits, IntegrationMethod::Trapezoidal).unwrap();
    tr.initialize_dc().unwrap();
    let mut h = Fnv::new();
    for step in 0..400 {
        if step == 200 {
            tr.set_switch(ek.sw, true).unwrap();
        }
        tr.step(0.25e-6).unwrap();
        h.u64(tr.time().to_bits());
        for l in 0..4 {
            for &n in &ek.nodes {
                h.u64(tr.voltage_lane(n, l).to_bits());
            }
            for &e in &ek.elems {
                current_bits(&mut h, tr.current_lane(e, l));
            }
        }
    }
    assert_eq!(tr.active_lanes(), [true; 4]);
    let stats = tr.stats();
    h.u64(stats.factorizations);
    h.u64(stats.newton_iterations);
    assert_eq!(h.0, 0x03e0_d48d_695d_9560);
}

// ---------- TDF sweep ----------------------------------------------------

/// Schedule iterations per TDF scenario.
const TDF_ITERS: u64 = 256;
/// The iteration at which the scenario amplitude takes over from the
/// unit tone: every scenario shares the trajectory before it, so a
/// prefix fork point below it keeps the prefix contract.
const TDF_START: u64 = 96;
/// Pole of the leaky integrator.
const TDF_LEAK: f64 = 0.75;

/// A sine of 40 samples per period.
fn tone(k: u64) -> f64 {
    (2.0 * std::f64::consts::PI * k as f64 / 40.0).sin()
}

/// The tone's gain at iteration `k`: 1 before [`TDF_START`], `amp` after.
fn gain_at(k: u64, amp: f64) -> f64 {
    if k >= TDF_START {
        amp
    } else {
        1.0
    }
}

/// `y[k] = gain_at(k, amp) · tone(k)`.
struct Tone {
    out: TdfOut,
    amp: SharedSample,
    k: u64,
}

impl TdfModule for Tone {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.output(self.out);
        cfg.set_timestep(SimTime::from_us(1));
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        io.write1(self.out, gain_at(self.k, self.amp.get()) * tone(self.k));
        self.k += 1;
        Ok(())
    }

    fn reset(&mut self) {
        self.k = 0;
    }

    fn save_state(&self, out: &mut Vec<f64>) {
        out.push(self.k as f64);
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.k = state[0] as u64;
    }
}

/// `z[k] = TDF_LEAK · z[k-1] + y[k]`.
struct Leaky {
    inp: TdfIn,
    out: TdfOut,
    acc: f64,
}

impl TdfModule for Leaky {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.input(self.inp);
        cfg.output(self.out);
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        self.acc = TDF_LEAK * self.acc + io.read1(self.inp);
        io.write1(self.out, self.acc);
        Ok(())
    }

    fn reset(&mut self) {
        self.acc = 0.0;
    }

    fn save_state(&self, out: &mut Vec<f64>) {
        out.push(self.acc);
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.acc = state[0];
    }
}

/// Last value and peak magnitude of the integrator output `z`.
struct ToneModel {
    amp: SharedSample,
    z: TdfProbe,
}

impl SweepModel for ToneModel {
    fn apply(&mut self, scenario: &Scenario) {
        self.amp.set(scenario.value("amp"));
    }

    fn metrics(&mut self, _cluster: &Cluster, out: &mut [f64]) {
        let z = self.z.values();
        out[0] = *z.last().expect("the run recorded samples");
        out[1] = z.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    }
}

/// The tone feeding the integrator, on signals `y` and `z`.
fn tone_build(slot: usize) -> (TdfGraph, ToneModel) {
    let mut g = TdfGraph::new(format!("tone{slot}"));
    let y = g.signal("y");
    let z = g.signal("z");
    let probe = g.probe(z);
    let amp = SharedSample::new(1.0);
    g.add_module(
        "tone",
        Tone {
            out: y.writer(),
            amp: amp.clone(),
            k: 0,
        },
    );
    g.add_module(
        "leaky",
        Leaky {
            inp: y.reader(),
            out: z.writer(),
            acc: 0.0,
        },
    );
    (g, ToneModel { amp, z: probe })
}

/// Per-lane amplitude, integrator state and peak, shared by the lane
/// module and its model.
#[derive(Default)]
struct LaneState {
    amp: Vec<f64>,
    acc: Vec<f64>,
    peak: Vec<f64>,
}

/// [`Tone`] and [`Leaky`] for every lane in one firing, with the same
/// arithmetic per lane; lane 0 drives the scalar signal.
struct LaneTone {
    out: TdfOut,
    lanes: Arc<Mutex<LaneState>>,
    k: u64,
}

impl TdfModule for LaneTone {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.output(self.out);
        cfg.set_timestep(SimTime::from_us(1));
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let mut st = self.lanes.lock().unwrap();
        let LaneState { amp, acc, peak } = &mut *st;
        for l in 0..amp.len() {
            acc[l] = TDF_LEAK * acc[l] + gain_at(self.k, amp[l]) * tone(self.k);
            peak[l] = peak[l].max(acc[l].abs());
        }
        io.write1(self.out, acc.first().copied().unwrap_or(0.0));
        self.k += 1;
        Ok(())
    }

    fn reset(&mut self) {
        self.k = 0;
    }
}

struct LaneToneModel {
    lanes: Arc<Mutex<LaneState>>,
}

impl LaneSweepModel for LaneToneModel {
    fn apply(&mut self, scenarios: &[Scenario]) {
        let mut st = self.lanes.lock().unwrap();
        st.amp = scenarios.iter().map(|s| s.value("amp")).collect();
        st.acc = vec![0.0; scenarios.len()];
        st.peak = vec![0.0; scenarios.len()];
    }

    fn metrics(&mut self, _cluster: &Cluster, out: &mut [Vec<f64>]) {
        let st = self.lanes.lock().unwrap();
        for (l, row) in out.iter_mut().enumerate() {
            row[0] = st.acc[l];
            row[1] = st.peak[l];
        }
    }
}

fn lane_tone_build(slot: usize) -> (TdfGraph, LaneToneModel) {
    let mut g = TdfGraph::new(format!("lanes{slot}"));
    let z = g.signal("z");
    // Probed so the lint sees the signal read.
    g.probe(z);
    let lanes = Arc::new(Mutex::new(LaneState::default()));
    g.add_module(
        "lane_tone",
        LaneTone {
            out: z.writer(),
            lanes: lanes.clone(),
            k: 0,
        },
    );
    (g, LaneToneModel { lanes })
}

const TDF_METRICS: [&str; 2] = ["z_last", "z_peak"];

/// Ten scenarios: at lane width 4 the last bundle holds two.
fn tone_spec() -> SweepSpec {
    SweepSpec::monte_carlo(&[("amp", 0.2, 1.5)], 10, 0x7DF0).unwrap()
}

/// Two properties that split the amplitude box (the unit-tone prefix
/// stays inside both) and one that always holds.
fn tone_monitors() -> MonitorSpec {
    MonitorSpec::parse("env:envelope(lo=-4.0,hi=4.0)@z;over:overshoot(max=1.2)@y;fin:finite()@z")
        .unwrap()
}

/// `run` and its prefix fork fingerprint alike: the fork point precedes
/// [`TDF_START`].
const TDF_RUN_PIN: u64 = 0xfa2d_3d5c_6bcc_4e09;

#[test]
fn tdf_run_fingerprint_is_pinned() {
    let report = TdfSweep::new(TDF_ITERS)
        .run(&tone_spec(), 1, &TDF_METRICS, tone_build)
        .unwrap();
    assert_eq!(report.fingerprint(), TDF_RUN_PIN);
}

#[test]
fn tdf_prefix_fingerprint_is_pinned() {
    let report = TdfSweep::new(TDF_ITERS)
        .prefix(64)
        .run(&tone_spec(), 2, &TDF_METRICS, tone_build)
        .unwrap();
    assert_eq!(report.prefix_forks, 10);
    assert_eq!(report.fingerprint(), TDF_RUN_PIN);
}

#[test]
fn tdf_lane_fingerprint_is_pinned() {
    let report = TdfSweep::new(TDF_ITERS)
        .run_lanes(&tone_spec(), 2, &TDF_METRICS, 4, lane_tone_build)
        .unwrap();
    assert_eq!(report.lanes, 4);
    assert_eq!(report.bundles, 3);
    // Each lane repeats the scalar arithmetic: metric values match the
    // scalar run bit for bit (only the bundle-shared counters differ).
    let scalar = TdfSweep::new(TDF_ITERS)
        .run(&tone_spec(), 1, &TDF_METRICS, tone_build)
        .unwrap();
    for m in TDF_METRICS {
        assert_eq!(report.values(m), scalar.values(m), "{m}");
    }
    assert_eq!(report.fingerprint(), 0xd495_2734_5770_0f45);
}

#[test]
fn tdf_monitored_fingerprint_is_pinned() {
    let report = TdfSweep::new(TDF_ITERS)
        .monitors(tone_monitors())
        .run(&tone_spec(), 2, &TDF_METRICS, tone_build)
        .unwrap();
    let s = report.monitor_summary();
    assert!(s[0].pass > 0 && s[0].fail > 0, "{:?}", s[0]);
    assert!(s[1].pass > 0 && s[1].fail > 0, "{:?}", s[1]);
    assert_eq!(s[2].pass, 10, "{:?}", s[2]);
    assert_eq!(report.fingerprint(), 0xdbef_9be8_58a4_3441);
}

#[test]
fn tdf_traced_chrome_export_is_pinned() {
    let report = TdfSweep::new(TDF_ITERS)
        .monitors(tone_monitors())
        .trace(true)
        .run(&tone_spec(), 2, &TDF_METRICS, tone_build)
        .unwrap();
    let export = chrome::export(report.trace.as_ref().expect("trace enabled"));
    let mut h = Fnv::new();
    h.bytes(export.as_bytes());
    assert_eq!(h.0, 0x4b94_7e07_1864_12cd);
}

// ---------- Figure 1 ---------------------------------------------------

/// The Figure-1 AGC's target power.
const F1_TARGET_POWER: f64 = 0.02;

/// Sliding mean-square power estimator (the figure's "DSP algorithm").
struct F1Power {
    inp: TdfIn,
    out: TdfOut,
    acc: f64,
}

impl TdfModule for F1Power {
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

/// Driver → protection resistor → 600 Ω line with shunt capacitance.
fn f1_line() -> (Circuit, InputId, NodeId) {
    let mut ckt = Circuit::new();
    let drive = ckt.node("drive");
    let line = ckt.node("line");
    let sub = ckt.node("subscriber");
    let input = ckt.external_input();
    ckt.voltage_source_wave("Vdrv", drive, Circuit::GROUND, Waveform::External(input))
        .unwrap();
    ckt.resistor("Rprot", drive, line, 50.0).unwrap();
    ckt.capacitor("Cline", line, Circuit::GROUND, 20e-9)
        .unwrap();
    ckt.resistor("Rline", line, sub, 130.0).unwrap();
    ckt.resistor("Rsub", sub, Circuit::GROUND, 600.0).unwrap();
    ckt.capacitor("Csub", sub, Circuit::GROUND, 10e-9).unwrap();
    (ckt, input, sub)
}

/// FNV-1a over the bits of Figure 1's digital output and of the DE
/// `power` signal (every value the AGC read, then the final one), for a
/// `tone_hz` tone run for 10 ms. The model is the benchmark's: DE AGC,
/// line netlist, biquad, Σ∆, CIC, FIR and power estimator.
fn f1_hash(tone_hz: f64) -> u64 {
    let mut sim = AmsSimulator::new();
    let power_de = sim.kernel_mut().signal("power", 0.0f64);
    let gain_de = sim.kernel_mut().signal("tx_gain", 1.0f64);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let agc_seen = seen.clone();
    sim.kernel_mut().add_process("agc", move |ctx| {
        let p = ctx.read(power_de);
        agc_seen.lock().unwrap().push(p);
        let g = ctx.read(gain_de);
        let adj = if p > 1e-12 {
            (F1_TARGET_POWER / p).powf(0.1).clamp(0.7, 1.3)
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
        SineSource::new(tone.writer(), tone_hz, 0.5, Some(fs)),
    );
    g.add_module(
        "tx_gain",
        Product::new(tone.reader(), gain_ctl.reader(), scaled.writer()),
    );
    g.add_module(
        "hv_driver",
        TanhAmp::new(scaled.reader(), driven.writer(), 4.0, 12.0),
    );
    let (ckt, line_in, sub) = f1_line();
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
        F1Power {
            inp: digital.reader(),
            out: power.writer(),
            acc: 0.0,
        },
    );
    g.to_de("power_out", power, power_de);
    sim.add_cluster(g).unwrap();
    sim.run_until(SimTime::from_ms(10)).unwrap();

    let mut h = Fnv::new();
    let values = probe.values();
    // `run_until` is horizon-inclusive: one sample per 16 µs, plus t = 10 ms.
    assert_eq!(values.len(), 626);
    for v in values {
        h.u64(v.to_bits());
    }
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 21);
    for p in seen.iter() {
        h.u64(p.to_bits());
    }
    h.u64(sim.kernel().peek(power_de).to_bits());
    h.0
}

/// Figure 1 at 5 kHz for 10 ms. The embedded line moves at ulp level
/// when its step arithmetic changes; the Σ∆ quantizer absorbs that, so
/// the digital output and the regulated power stay bit-identical.
#[test]
fn f1_digital_output_and_power_are_pinned() {
    assert_eq!(f1_hash(5_000.0), 0x76da_4340_4480_f660);
}

// ---------- served jobs ----------------------------------------------------

/// The E12 and `serve_churn` warm job: a 192-stage RC ladder (385
/// elements, 194 MNA unknowns), one relative bind on the first
/// resistor, four Monte-Carlo scenarios over 200 trapezoidal steps.
fn served_ladder_job() -> JobSpec {
    const STAGES: usize = 192;
    let mut elements = vec![ElementSpec {
        name: "Vin".into(),
        p: "n0".into(),
        n: "0".into(),
        kind: ElementKindSpec::VoltageSource(WaveSpec::Dc(1.0)),
    }];
    for k in 0..STAGES {
        elements.push(ElementSpec {
            name: format!("R{k}"),
            p: format!("n{k}"),
            n: format!("n{}", k + 1),
            kind: ElementKindSpec::Resistor(100.0),
        });
        elements.push(ElementSpec {
            name: format!("C{k}"),
            p: format!("n{}", k + 1),
            n: "0".into(),
            kind: ElementKindSpec::Capacitor(1e-9),
        });
    }
    JobSpec {
        circuit: CircuitSpec { elements },
        binds: vec![ParamBind {
            param: "dr".into(),
            element: "R0".into(),
            target: BindTarget::Resistance,
            relative: true,
        }],
        metrics: vec![MetricSpec {
            name: "v_out".into(),
            node: format!("n{STAGES}"),
            probe: ProbeKind::Last,
        }],
        sweep: SweepDecl::MonteCarlo {
            params: vec![("dr".into(), -0.05, 0.05)],
            n: 4,
            seed: 0xE12,
        },
        monitors: None,
        t_end: 2e-6,
        h: 10e-9,
        trapezoidal: true,
        workers: 2,
    }
}

/// `JobSpec::direct_run(1)` fingerprints of `demo_rc(n)` and
/// `demo_rc_monitored(n)` for one, three, four and nine scenarios: a
/// lone scenario, a short, an exact and a padded lane bundle, whatever
/// width the service packs them at.
const SERVED_DEMO_PINS: [(usize, u64, u64); 4] = [
    (1, 0x1bad_59cb_2c08_3b31, 0x900e_3f2e_84b4_c2c2),
    (3, 0x6a99_7182_3be7_57aa, 0x56d4_0170_2c33_cb1d),
    (4, 0x65f4_b39e_1c2a_87bd, 0x8ba8_bd07_a775_bfec),
    (9, 0xfa51_f60b_8e33_67ad, 0x7ed4_49c6_5364_5147),
];

#[test]
fn served_demo_rc_fingerprints_are_pinned() {
    let got: Vec<(usize, u64, u64)> = SERVED_DEMO_PINS
        .iter()
        .map(|&(n, _, _)| {
            let plain = JobSpec::demo_rc(n, 0x5E7).direct_run(1).unwrap();
            let monitored = JobSpec::demo_rc_monitored(n, 0x5E7).direct_run(1).unwrap();
            assert_eq!(plain.scenarios.len(), n);
            (n, plain.fingerprint(), monitored.fingerprint())
        })
        .collect();
    assert_eq!(got, SERVED_DEMO_PINS, "{got:#x?}");
}

#[test]
fn served_backward_euler_and_ladder_fingerprints_are_pinned() {
    let mut be = JobSpec::demo_rc(12, 0x5E7);
    be.trapezoidal = false;
    assert_eq!(
        be.direct_run(1).unwrap().fingerprint(),
        0x3325_31af_3ddc_0189
    );
    assert_eq!(
        served_ladder_job().direct_run(1).unwrap().fingerprint(),
        0xb389_a49f_1acb_ae9c
    );
}
