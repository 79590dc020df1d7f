//! Golden pins for the transient engine and the netlist sweep driver.
//!
//! Every other determinism test is *relative*: worker counts against
//! each other, prefix forks against runs from zero, served jobs against
//! direct runs. None of them would notice an ulp drift that moved every
//! run the same way. These pins are absolute: each constant is a
//! [`SweepReport::fingerprint`] or an FNV-1a hash of per-step voltage
//! bits, recorded once and expected never to change.
//!
//! The diode and NMOS models call the platform `exp`, so the pins are
//! only meaningful where they were recorded: x86_64.

#![cfg(target_arch = "x86_64")]

use systemc_ams::monitor::MonitorSpec;
use systemc_ams::net::{
    AdaptiveOptions, Circuit, ElementId, IntegrationMethod, NetError, NodeId, ScenarioProbe,
    SolverBackend, TransientSolver, Waveform,
};
use systemc_ams::sweep::{NetlistSweep, Scenario, SweepReport, SweepSpec};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
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
