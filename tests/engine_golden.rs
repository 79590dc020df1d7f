//! Golden pins for the transient engine, the netlist sweep driver and
//! the TDF sweep executor.
//!
//! Every other determinism test is *relative*: worker counts against
//! each other, prefix forks against runs from zero, served jobs against
//! direct runs. None of them would notice an ulp drift that moved every
//! run the same way. These pins are absolute: each constant is a
//! [`SweepReport::fingerprint`] or an FNV-1a hash of per-step voltage
//! bits (or of a Chrome trace export), recorded once and expected never
//! to change.
//!
//! The diode and NMOS models call the platform `exp`, so the pins are
//! only meaningful where they were recorded: x86_64.

#![cfg(target_arch = "x86_64")]

use std::sync::{Arc, Mutex};
use systemc_ams::core::{
    Cluster, CoreError, SharedSample, TdfGraph, TdfIn, TdfIo, TdfModule, TdfOut, TdfProbe, TdfSetup,
};
use systemc_ams::kernel::SimTime;
use systemc_ams::monitor::MonitorSpec;
use systemc_ams::net::{
    AdaptiveOptions, Circuit, ElementId, IntegrationMethod, NetError, NodeId, ScenarioProbe,
    SolverBackend, TransientSolver, Waveform,
};
use systemc_ams::scope::chrome;
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

/// One circuit with every element kind: sources, passives, the four
/// controlled sources, a diode, an NMOS and a switch.
fn every_kind() -> (Circuit, ElementId, Vec<NodeId>) {
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
    let k = ckt.node("k");
    let vdd = ckt.node("vdd");
    let drain = ckt.node("drain");
    let s = ckt.node("s");
    let vin = ckt
        .voltage_source_wave("Vin", inp, gnd, sine(1.0, 20e3))
        .unwrap();
    ckt.resistor("Ra", inp, a, 1e3).unwrap();
    ckt.capacitor("Ca", a, gnd, 10e-9).unwrap();
    let l = ckt.inductor("L", a, b, 1e-3).unwrap();
    ckt.resistor("Rb", b, gnd, 500.0).unwrap();
    ckt.current_source_wave("I", gnd, c, sine(1e-3, 5e3))
        .unwrap();
    ckt.resistor("Rc", c, gnd, 2e3).unwrap();
    ckt.vcvs("E", d, gnd, a, gnd, 2.0).unwrap();
    ckt.resistor("Rd", d, gnd, 1e4).unwrap();
    ckt.vccs("G", gnd, e, a, gnd, 1e-3).unwrap();
    ckt.resistor("Re", e, gnd, 1e3).unwrap();
    ckt.cccs("F", gnd, f, vin, 0.5).unwrap();
    ckt.resistor("Rf", f, gnd, 1e3).unwrap();
    ckt.ccvs("H", g, gnd, l, 100.0).unwrap();
    ckt.resistor("Rg", g, gnd, 1e3).unwrap();
    ckt.diode("D", d, k, 1e-14, 1.0).unwrap();
    ckt.resistor("Rk", k, gnd, 1e3).unwrap();
    ckt.capacitor("Ck", k, gnd, 1e-9).unwrap();
    ckt.voltage_source("Vdd", vdd, gnd, 3.0).unwrap();
    ckt.resistor("Rdrain", vdd, drain, 1e3).unwrap();
    ckt.nmos("M", drain, d, gnd, 1e-3, 0.5, 0.01).unwrap();
    ckt.resistor("Rs", a, s, 100.0).unwrap();
    let sw = ckt.switch("S", s, gnd, 10.0, 1e9, false).unwrap();
    let nodes = ckt.nodes().collect();
    (ckt, sw, nodes)
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
