//! Monitored sweeps must be bit-identical regardless of worker count,
//! prefix forking or suspend points — and lane batching must agree on
//! every verdict.
//!
//! `ams-monitor` verdicts ride the same deterministic transport as
//! metrics (three f64 slots per property appended to each scenario
//! row), so the sweep-level promise extends to them: the same spec
//! produces the same verdict for every `(scenario, property)` pair —
//! pass, vacuous, or a fail with a bit-identical witness point —
//! whether the sweep runs on one worker or many, from `t = 0` or
//! forked off a shared prefix. Lane-batched runs deviate from scalar
//! runs by ~1e-9 in *values* (different instruction stream), so for
//! scalar-vs-lane comparisons only the verdict kinds and codes are
//! required to agree; within the lane engine, worker count must again
//! change nothing.

use systemc_ams::core::{
    Cluster, CoreError, SharedSample, TdfGraph, TdfIo, TdfModule, TdfOut, TdfProbe, TdfSetup,
};
use systemc_ams::kernel::SimTime;
use systemc_ams::monitor::{MonitorBank, MonitorSpec, Property, Verdict};
use systemc_ams::net::{
    Circuit, ElementId, IntegrationMethod, NodeId, ScenarioProbe, SolverBackend,
};
use systemc_ams::sweep::{
    LaneSweepModel, NetlistSweep, Scenario, SweepError, SweepModel, SweepReport, SweepSpec,
    TdfSweep,
};

// ---------- shared fixture ---------------------------------------------------

struct Ladder {
    ckt: Circuit,
    resistors: Vec<ElementId>,
    caps: Vec<ElementId>,
    out: NodeId,
}

/// The usual RC ladder driven by a 0 → 1 V pulse (1 µs edge), per-stage
/// τ = 1 µs, output on the last node `n{n-1}`. A plain DC source would
/// start at the settled operating point; the pulse makes the transient
/// real, so the output genuinely rises 0 → 1 V — rich territory for
/// settle/rise/envelope properties.
fn ladder(n: usize) -> Ladder {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.voltage_source_wave(
        "V",
        prev,
        Circuit::GROUND,
        systemc_ams::net::Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 1e-6,
            fall: 1e-6,
            width: 1.0,
            period: 0.0,
        },
    )
    .unwrap();
    let mut resistors = Vec::new();
    let mut caps = Vec::new();
    for i in 0..n {
        let node = ckt.node(format!("n{i}"));
        resistors.push(ckt.resistor(format!("R{i}"), prev, node, 1e3).unwrap());
        caps.push(
            ckt.capacitor(format!("C{i}"), node, Circuit::GROUND, 1e-9)
                .unwrap(),
        );
        prev = node;
    }
    Ladder {
        ckt,
        resistors,
        caps,
        out: prev,
    }
}

/// Five properties on the ladder output: two that always hold, one
/// vacuous by construction (deadline past `t_end`), one armed-or-not
/// (rise), and one tolerance-dependent (tight settle) so the sweep
/// genuinely mixes pass and fail rows.
fn ladder_monitors() -> MonitorSpec {
    MonitorSpec::parse(
        "env:envelope(lo=-0.1,hi=1.25)@n3;\
         fin:finite()@n3;\
         late:settle(lo=0.9,hi=1.1,by=1.0)@n3;\
         rise:rise(lo=0.1,hi=0.9,within=2.0e-5)@n3;\
         tight:settle(lo=0.95,hi=1.05,by=3.2e-5)@n3",
    )
    .unwrap()
}

fn monitored_sweep(scenarios: usize, workers: usize) -> SweepReport {
    let lad = ladder(4);
    let spec =
        SweepSpec::monte_carlo(&[("dr", -0.2, 0.2), ("dc", -0.2, 0.2)], scenarios, 0x30A7).unwrap();
    let resistors = lad.resistors.clone();
    let caps = lad.caps.clone();
    let out = lad.out;
    NetlistSweep::new(lad.ckt, IntegrationMethod::Trapezoidal)
        .backend(SolverBackend::Sparse)
        .fixed_step(5e-5, 5e-8)
        .monitors(ladder_monitors())
        .run(
            &spec,
            workers,
            &["v_out"],
            move |c, sc| {
                for r in &resistors {
                    c.set_resistance(*r, 1e3 * (1.0 + sc.value("dr")))?;
                }
                for cap in &caps {
                    c.set_capacitance(*cap, 1e-9 * (1.0 + sc.value("dc")))?;
                }
                Ok(())
            },
            |tr: &dyn ScenarioProbe, m| m[0] = tr.voltage(out),
        )
        .unwrap()
}

/// Deep verdict-level comparison: kinds, codes, and (for fails) the
/// exact witness bits — not just the fingerprint.
fn assert_verdicts_identical(a: &SweepReport, b: &SweepReport, what: &str) {
    assert_eq!(a.monitor_names, b.monitor_names, "{what}: property names");
    assert_eq!(a.scenarios.len(), b.scenarios.len(), "{what}: row count");
    for (ra, rb) in a.scenarios.iter().zip(&b.scenarios) {
        assert_eq!(ra.index, rb.index, "{what}: scenario order");
        assert_eq!(
            ra.verdicts, rb.verdicts,
            "{what}: verdicts of #{}",
            ra.index
        );
    }
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}: fingerprint");
}

// ---------- worker invariance (the acceptance sweep) -------------------------

#[test]
fn monitored_256_scenario_sweep_is_worker_invariant() {
    let serial = monitored_sweep(256, 1);
    assert_eq!(serial.monitor_names.len(), 5);
    assert_eq!(serial.scenarios.len(), 256);
    for workers in [2, 4] {
        let parallel = monitored_sweep(256, workers);
        assert_verdicts_identical(&serial, &parallel, &format!("workers={workers}"));
    }

    // The verdict mix is non-trivial: the loose properties pass
    // everywhere, the distant deadline is vacuous everywhere, and the
    // tight settle splits the tolerance box into both camps.
    let summary = serial.monitor_summary();
    assert_eq!(summary[0].pass, 256, "envelope: {:?}", summary[0]);
    assert_eq!(summary[1].pass, 256, "finite: {:?}", summary[1]);
    assert_eq!(summary[2].vacuous, 256, "late settle: {:?}", summary[2]);
    assert_eq!(
        summary[3].pass + summary[3].fail,
        256,
        "rise armed everywhere: {:?}",
        summary[3]
    );
    let tight = &summary[4];
    assert!(
        tight.pass > 0 && tight.fail > 0,
        "tight settle should split the box: {tight:?}"
    );
    // Every fail carries a stable code and an in-run witness point.
    let (_, code, t, v) = tight.first_fail.expect("at least one failing scenario");
    assert_eq!(code, "MON001");
    assert!((3.2e-5..=5e-5).contains(&t), "witness time {t}");
    assert!(v.is_finite());
    // Per-scenario verdicts agree with the rollup: a scenario passes
    // when no property on it failed.
    let expected = serial
        .scenarios
        .iter()
        .filter(|s| !s.verdicts.iter().any(|v| matches!(v, Verdict::Fail { .. })))
        .count();
    let pass_rows = serial.passing_scenarios();
    assert!(pass_rows < 256);
    assert_eq!(pass_rows, expected);
}

// ---------- prefix forking ---------------------------------------------------

/// Pulse whose leading edge sits at `delay`: identical to the DC
/// baseline before it, scenario-dependent after — monitors observe the
/// shared prefix once and every fork inherits that automaton state.
fn pulse(v2: f64, delay: f64, tau: f64) -> systemc_ams::net::Waveform {
    systemc_ams::net::Waveform::Pulse {
        v1: 1.0,
        v2,
        delay,
        rise: 8.0 * tau,
        fall: 8.0 * tau,
        width: 64.0 * tau,
        period: 0.0,
    }
}

fn pulse_rc(delay: f64, tau: f64) -> (Circuit, ElementId, NodeId) {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    let v = ckt.voltage_source("V", inp, Circuit::GROUND, 1.0).unwrap();
    ckt.resistor("R", inp, out, 1e3).unwrap();
    ckt.capacitor("C", out, Circuit::GROUND, 1e-9).unwrap();
    ckt.set_source_waveform(v, pulse(1.0, delay, tau)).unwrap();
    (ckt, v, out)
}

#[test]
fn monitored_prefix_fork_matches_run_from_zero_bit_for_bit() {
    // Power-of-two step and fork point: every partial sum of h is
    // exact, so fixed-step bit-identity is testable with `==`.
    let h = (2.0f64).powi(-20);
    let t0 = 64.0 * h;
    let t_end = 256.0 * h;
    let (ckt, v, out) = pulse_rc(t0, h);
    let values = [0.0, 0.5, 2.0, 4.0, 8.0];
    let spec = SweepSpec::grid(&[("v2", &values)], 3).unwrap();
    // The overshoot/ramp verdicts depend on samples from *both* sides
    // of the fork point: the running peak is armed inside the prefix.
    let monitors = || {
        MonitorSpec::parse(&format!(
            "over:overshoot(max=6.0)@out;\
             ramp:ramp(from=0.0,until={t0},tol=1e-9)@out;\
             fin:finite()@out"
        ))
        .unwrap()
    };
    let apply =
        |c: &mut Circuit, sc: &Scenario| c.set_source_waveform(v, pulse(sc.value("v2"), t0, h));
    let observe = |tr: &dyn ScenarioProbe, m: &mut [f64]| m[0] = tr.voltage(out);
    let plain = NetlistSweep::new(ckt.clone(), IntegrationMethod::Trapezoidal)
        .fixed_step(t_end, h)
        .monitors(monitors())
        .run(&spec, 2, &["v_end"], apply, observe)
        .unwrap();
    assert_eq!(plain.prefix_forks, 0);
    // The verdict mix is not vacuous: v2 = 8 overshoots, v2 = 0 does
    // not, and the shared-prefix ramp window is identical everywhere.
    let summary = plain.monitor_summary();
    assert!(
        summary[0].pass > 0 && summary[0].fail > 0,
        "{:?}",
        summary[0]
    );
    assert_eq!(summary[1].pass, 5, "{:?}", summary[1]);

    for workers in [1, 2, 4] {
        let forked = NetlistSweep::new(ckt.clone(), IntegrationMethod::Trapezoidal)
            .fixed_step(t_end, h)
            .prefix(t0)
            .monitors(monitors())
            .run(&spec, workers, &["v_end"], apply, observe)
            .unwrap();
        assert_eq!(forked.prefix_forks, 5);
        assert_verdicts_identical(&plain, &forked, &format!("prefix workers={workers}"));
    }
}

/// Prefix forking at lane widths above one: the prefix runs once at
/// width 1, and every bundle restores its checkpoint — and clones its
/// fed banks — into each lane. Verdicts and fingerprints must match the
/// same lane sweep from t = 0 at every worker count, padded last
/// bundle included (five scenarios = 4 + 1 and 5 of 8).
#[test]
fn monitored_prefix_fork_at_lane_widths_matches_lane_run_from_zero() {
    let h = (2.0f64).powi(-20);
    let t0 = 64.0 * h;
    let t_end = 256.0 * h;
    let (ckt, v, out) = pulse_rc(t0, h);
    let values = [0.0, 0.5, 2.0, 4.0, 8.0];
    let spec = SweepSpec::grid(&[("v2", &values)], 3).unwrap();
    let monitors = || {
        MonitorSpec::parse(&format!(
            "over:overshoot(max=6.0)@out;\
             ramp:ramp(from=0.0,until={t0},tol=1e-9)@out;\
             fin:finite()@out"
        ))
        .unwrap()
    };
    let apply =
        |c: &mut Circuit, sc: &Scenario| c.set_source_waveform(v, pulse(sc.value("v2"), t0, h));
    let observe = |tr: &dyn ScenarioProbe, m: &mut [f64]| m[0] = tr.voltage(out);
    let sweep = NetlistSweep::new(ckt, IntegrationMethod::Trapezoidal)
        .backend(SolverBackend::Sparse)
        .fixed_step(t_end, h)
        .monitors(monitors());
    for k in [4, 8] {
        let plain = sweep
            .clone()
            .lanes(k)
            .run_lanes(&spec, 1, &["v_end"], apply, observe)
            .unwrap();
        let summary = plain.monitor_summary();
        assert!(
            summary[0].pass > 0 && summary[0].fail > 0,
            "{:?}",
            summary[0]
        );
        for workers in [1, 2, 4] {
            let forked = sweep
                .clone()
                .prefix(t0)
                .lanes(k)
                .run_lanes(&spec, workers, &["v_end"], apply, observe)
                .unwrap();
            assert_eq!(forked.prefix_forks, 5);
            assert_verdicts_identical(
                &plain,
                &forked,
                &format!("prefix lanes={k} workers={workers}"),
            );
        }
    }
}

// ---------- lane batching ----------------------------------------------------

fn lane_sweep(lanes: usize, workers: usize) -> SweepReport {
    let lad = ladder(4);
    let spec = SweepSpec::monte_carlo(&[("dr", -0.2, 0.2), ("dc", -0.2, 0.2)], 24, 0x30A7).unwrap();
    let resistors = lad.resistors.clone();
    let caps = lad.caps.clone();
    let out = lad.out;
    NetlistSweep::new(lad.ckt, IntegrationMethod::Trapezoidal)
        .backend(SolverBackend::Sparse)
        .fixed_step(5e-5, 5e-8)
        .monitors(ladder_monitors())
        .lanes(lanes)
        .run_lanes(
            &spec,
            workers,
            &["v_out"],
            move |c, sc| {
                for r in &resistors {
                    c.set_resistance(*r, 1e3 * (1.0 + sc.value("dr")))?;
                }
                for cap in &caps {
                    c.set_capacitance(*cap, 1e-9 * (1.0 + sc.value("dc")))?;
                }
                Ok(())
            },
            |p: &dyn ScenarioProbe, m| m[0] = p.voltage(out),
        )
        .unwrap()
}

#[test]
fn lane_batched_monitors_agree_with_scalar_verdicts() {
    let scalar = monitored_sweep(24, 1);
    for k in [4, 8] {
        let laned = lane_sweep(k, 1);
        // Within the lane engine: worker count changes nothing.
        for workers in [2, 4] {
            assert_verdicts_identical(
                &laned,
                &lane_sweep(k, workers),
                &format!("lanes={k} workers={workers}"),
            );
        }
        // Against the scalar engine: values drift ~1e-9, so borderline
        // witnesses may differ in the low bits — but verdict *kind* and
        // failure *code* must agree for every (scenario, property).
        assert_eq!(scalar.monitor_names, laned.monitor_names);
        for (a, b) in scalar.scenarios.iter().zip(&laned.scenarios) {
            assert_eq!(a.index, b.index);
            for (j, (va, vb)) in a.verdicts.iter().zip(&b.verdicts).enumerate() {
                assert_eq!(
                    std::mem::discriminant(va),
                    std::mem::discriminant(vb),
                    "lanes={k} scenario {} property {j}: {va:?} vs {vb:?}",
                    a.index
                );
                assert_eq!(
                    va.code(),
                    vb.code(),
                    "lanes={k} scenario {} property {j}",
                    a.index
                );
            }
        }
    }
}

// ---------- TDF sweeps -------------------------------------------------------

/// Iterations per TDF scenario, and the iteration from which the swept
/// gain replaces the unit gain: every scenario shares the trajectory
/// before it, so a prefix fork point below it keeps the prefix contract.
const OSC_ITERS: u64 = 200;
const OSC_START: u64 = 80;

/// `y[k] = g · sin(2π f k Δt)`, f = 10 kHz at Δt = 1 µs, with `g = 1`
/// before [`OSC_START`] and the scenario gain from it on.
struct Osc {
    out: TdfOut,
    gain: SharedSample,
    k: u64,
}

impl TdfModule for Osc {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.output(self.out);
        cfg.set_timestep(SimTime::from_us(1));
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let g = if self.k >= OSC_START {
            self.gain.get()
        } else {
            1.0
        };
        let t = self.k as f64 * 1e-6;
        io.write1(self.out, g * (2.0 * std::f64::consts::PI * 1e4 * t).sin());
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

/// The oscillator's peak magnitude.
struct OscModel {
    gain: SharedSample,
    probe: TdfProbe,
}

impl SweepModel for OscModel {
    fn apply(&mut self, scenario: &Scenario) {
        self.gain.set(scenario.value("gain"));
    }

    fn metrics(&mut self, _cluster: &Cluster, out: &mut [f64]) {
        out[0] = self
            .probe
            .values()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
    }
}

impl LaneSweepModel for OscModel {
    fn apply(&mut self, scenarios: &[Scenario]) {
        self.gain.set(scenarios[0].value("gain"));
    }

    fn metrics(&mut self, cluster: &Cluster, out: &mut [Vec<f64>]) {
        for row in out {
            SweepModel::metrics(self, cluster, row);
        }
    }
}

fn osc_build(slot: usize) -> (TdfGraph, OscModel) {
    let mut g = TdfGraph::new(format!("osc{slot}"));
    let y = g.signal("y");
    let probe = g.probe(y);
    let gain = SharedSample::new(1.0);
    g.add_module(
        "osc",
        Osc {
            out: y.writer(),
            gain: gain.clone(),
            k: 0,
        },
    );
    (g, OscModel { gain, probe })
}

fn osc_monitors() -> MonitorSpec {
    MonitorSpec::parse("env:envelope(lo=-2.0,hi=2.0)@y;fin:finite()@y").unwrap()
}

fn osc_spec() -> SweepSpec {
    SweepSpec::monte_carlo(&[("gain", 0.5, 3.0)], 24, 0x05C1).unwrap()
}

fn monitored_osc_sweep(sweep: TdfSweep, workers: usize) -> SweepReport {
    sweep
        .monitors(osc_monitors())
        .run(&osc_spec(), workers, &["peak"], osc_build)
        .unwrap()
}

#[test]
fn tdf_monitored_sweep_is_worker_invariant() {
    let serial = monitored_osc_sweep(TdfSweep::new(OSC_ITERS), 1);
    let summary = serial.monitor_summary();
    assert!(
        summary[0].pass > 0 && summary[0].fail > 0,
        "the envelope should split the gain box: {:?}",
        summary[0]
    );
    assert_eq!(summary[1].pass, 24, "{:?}", summary[1]);
    let (_, code, t, _) = summary[0].first_fail.expect("a failing scenario");
    assert_eq!(code, "MON005");
    assert!(t >= OSC_START as f64 * 1e-6, "witness time {t}");
    for workers in [2, 4] {
        let parallel = monitored_osc_sweep(TdfSweep::new(OSC_ITERS), workers);
        assert_verdicts_identical(&serial, &parallel, &format!("tdf workers={workers}"));
    }
}

#[test]
fn tdf_monitored_prefix_fork_matches_run_from_zero() {
    let plain = monitored_osc_sweep(TdfSweep::new(OSC_ITERS), 2);
    for workers in [1, 2, 4] {
        let forked = monitored_osc_sweep(TdfSweep::new(OSC_ITERS).prefix(50), workers);
        assert_eq!(forked.prefix_forks, 24);
        assert_verdicts_identical(&plain, &forked, &format!("tdf prefix workers={workers}"));
    }
}

#[test]
fn tdf_monitors_reject_unknown_channels_and_lane_bundles() {
    let unknown = MonitorSpec::parse("env:envelope(lo=-2.0,hi=2.0)@nope").unwrap();
    let err = TdfSweep::new(OSC_ITERS)
        .monitors(unknown)
        .run(&osc_spec(), 2, &["peak"], osc_build)
        .unwrap_err();
    assert!(matches!(err, SweepError::Invalid(_)), "got {err}");

    // Lane bundles share one signal trace, so no lane has a waveform of
    // its own to monitor.
    let err = TdfSweep::new(OSC_ITERS)
        .monitors(osc_monitors())
        .run_lanes(&osc_spec(), 2, &["peak"], 4, osc_build)
        .unwrap_err();
    assert!(matches!(err, SweepError::Invalid(_)), "got {err}");
}

// ---------- edge cases: vacuity and non-finite samples -----------------------

#[test]
fn vacuous_and_nan_edges_are_stable() {
    // A rise property whose arming threshold is never reached stays
    // vacuous — distinguishable from a pass in the report.
    let spec = MonitorSpec::parse(
        "armed:rise(lo=5.0,hi=9.0,within=1e-3)@x;\
         env:envelope(lo=-1.0,hi=1.0,from=2.0,until=3.0)@x",
    )
    .unwrap();
    let mut bank = MonitorBank::new(&spec);
    assert_eq!(bank.channels(), ["x".to_string()]);
    for i in 0..100 {
        let t = i as f64 * 1e-4;
        bank.feed(0, t, (t * 1e4).sin());
    }
    let verdicts = bank.finish();
    assert_eq!(verdicts, vec![Verdict::Vacuous, Verdict::Vacuous]);

    // A NaN sample fails *any* property with MON009, witness at the
    // first bad sample — here an envelope that was otherwise passing.
    let spec = MonitorSpec::parse("env:envelope(lo=-2.0,hi=2.0)@x;fin:finite()@x").unwrap();
    let mut bank = MonitorBank::new(&spec);
    bank.feed(0, 0.0, 1.0);
    bank.feed(0, 1e-6, f64::NAN);
    bank.feed(0, 2e-6, 1.0);
    for v in bank.finish() {
        match v {
            Verdict::Fail { code, t, value } => {
                assert_eq!(code, "MON009");
                assert_eq!(t, 1e-6);
                assert!(value.is_nan());
            }
            other => panic!("expected MON009 fail, got {other:?}"),
        }
    }

    // The encoded transport preserves all three cases — including the
    // NaN witness value — bit-for-bit.
    for v in [
        Verdict::Pass,
        Verdict::Vacuous,
        Verdict::Fail {
            code: "MON009",
            t: 1e-6,
            value: f64::NAN,
        },
    ] {
        let back = Verdict::decode(&v.encode());
        match (&v, &back) {
            (
                Verdict::Fail { code, t, value },
                Verdict::Fail {
                    code: c2,
                    t: t2,
                    value: v2,
                },
            ) => {
                assert_eq!(code, c2);
                assert_eq!(t.to_bits(), t2.to_bits());
                assert_eq!(value.to_bits(), v2.to_bits());
            }
            _ => assert_eq!(v, back),
        }
    }

    // Disabled monitors stay out of the report: no names, no verdicts.
    let report = {
        let lad = ladder(2);
        let spec = SweepSpec::grid(&[("dr", &[0.0, 0.1])], 0).unwrap();
        let resistors = lad.resistors.clone();
        let out = lad.out;
        NetlistSweep::new(lad.ckt, IntegrationMethod::Trapezoidal)
            .fixed_step(1e-6, 1e-9)
            .run(
                &spec,
                1,
                &["v"],
                move |c, sc| {
                    for r in &resistors {
                        c.set_resistance(*r, 1e3 * (1.0 + sc.value("dr")))?;
                    }
                    Ok(())
                },
                |tr: &dyn ScenarioProbe, m| m[0] = tr.voltage(out),
            )
            .unwrap()
    };
    assert!(report.monitor_names.is_empty());
    assert!(report.scenarios.iter().all(|s| s.verdicts.is_empty()));
    assert!(report.monitor_summary().is_empty());
}

// ---------- property smoke: every kind compiles and runs ---------------------

#[test]
fn every_property_kind_round_trips_the_grammar() {
    let text = "a:settle(lo=0.0,hi=1.0,by=1e-3)@x;\
                b:overshoot(max=1.5)@x;\
                c:undershoot(min=-0.5)@x;\
                d:ramp(from=0.0,until=1e-3,tol=1e-6)@x;\
                e:envelope(lo=-1.0,hi=1.0,from=0.0,until=1e-3)@x;\
                f:rise(lo=0.1,hi=0.9,within=1e-4)@x;\
                g:ripple(after=1e-3,max=0.1)@x;\
                h:fmask(f=50.0,max=0.2)@x;\
                i:finite()@x";
    let spec = MonitorSpec::parse(text).unwrap();
    assert_eq!(spec.len(), 9);
    let again = MonitorSpec::parse(&spec.render()).unwrap();
    assert_eq!(spec, again);
    // Each property kind carries its registered code.
    let codes: Vec<_> = spec.props.iter().map(|p| p.property.code()).collect();
    assert_eq!(
        codes,
        vec![
            "MON001", "MON002", "MON003", "MON004", "MON005", "MON006", "MON007", "MON008",
            "MON009"
        ]
    );
    // And the registry knows every one of them.
    for c in codes {
        assert!(
            systemc_ams::monitor::codes::registry()
                .iter()
                .any(|(code, _, _)| *code == c),
            "{c} missing from registry"
        );
    }
    let _ = Property::Finite; // the enum is part of the public API
}
