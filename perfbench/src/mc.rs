//! The two Monte-Carlo sweep workloads over the `monte_carlo_filter`
//! 4-stage RC ladder.
//!
//! * `mc_scalar` — the default library path: scalar engine, shared
//!   prefix to half the horizon, sweep-space pruning and three monitors.
//! * `mc_lanes8_newton` — a diode clamp on the output makes every step
//!   Newton-iterate; 1024 scenarios run eight to a lane bundle.
//!
//! Both ops lint the template themselves and hand the sweep a
//! `pre_linted` topology, so the lint gate is a call the benchmark can
//! time. Every sweep runs with `workers = 1`: with the coordinator that
//! polls the shard's ring, that is two busy threads.

use crate::layers::Layers;
use crate::{rng, Workload};
use std::hint::black_box;
use std::time::Instant;
use systemc_ams::lint::{
    lint_circuit, lint_space, LintLevel, LintPolicy, ParamRange, SpaceBind, SpaceSpec, SpaceTarget,
};
use systemc_ams::monitor::MonitorSpec;
use systemc_ams::net::{
    Circuit, ElementId, IntegrationMethod, LaneTransientSolver, NetError, NodeId, ScenarioProbe,
    SolverBackend, TransientSolver, Waveform,
};
use systemc_ams::sweep::{NetlistSweep, Scenario, SweepReport, SweepSpec};

const STAGES: usize = 4;
const R_NOM: f64 = 1.6e3;
const C_NOM: f64 = 10e-9;
/// Output load of the scalar ladder; its tolerance range reaches below
/// −100 %, so the space proof has scenarios to prune.
const RL_NOM: f64 = 100e3;
/// Power-of-two step: every partial sum of `H` is exact, so the prefix
/// fork at a step multiple is bit-identical to a run from zero.
const H: f64 = 1.0 / (1u64 << 20) as f64;
const METHOD: IntegrationMethod = IntegrationMethod::Trapezoidal;
const METRICS: [&str; 2] = ["v_settle", "v_peak"];
/// Relative distance allowed between a lane row and its scalar run.
const LANE_TOL: f64 = 1e-9;

struct Ladder {
    ckt: Circuit,
    r: Vec<ElementId>,
    c: Vec<ElementId>,
    load: Option<ElementId>,
    out: NodeId,
}

/// Pulse source → `STAGES` RC sections, optionally loaded by `RL_NOM`
/// and optionally clamped by a diode to ground at the output.
fn ladder(delay: f64, load: bool, diode: bool) -> Result<Ladder, NetError> {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.voltage_source_wave(
        "V",
        prev,
        Circuit::GROUND,
        Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay,
            rise: 8.0 * H,
            fall: 8.0 * H,
            width: 1.0,
            period: 0.0,
        },
    )?;
    let (mut r, mut c) = (Vec::new(), Vec::new());
    for i in 0..STAGES {
        let node = ckt.node(format!("n{i}"));
        r.push(ckt.resistor(format!("R{i}"), prev, node, R_NOM)?);
        c.push(ckt.capacitor(format!("C{i}"), node, Circuit::GROUND, C_NOM)?);
        prev = node;
    }
    let load = if load {
        Some(ckt.resistor("RL", prev, Circuit::GROUND, RL_NOM)?)
    } else {
        None
    };
    if diode {
        ckt.diode("D", prev, Circuit::GROUND, 1e-14, 1.0)?;
    }
    Ok(Ladder {
        ckt,
        r,
        c,
        load,
        out: prev,
    })
}

/// Writes a scenario into the template: the correlated per-class draws
/// plus ±2 % per-component mismatch from the scenario's own seed.
fn apply(lad: &Ladder, c: &mut Circuit, sc: &Scenario) -> Result<(), NetError> {
    let mut mm = rng::SplitMix(sc.seed());
    for &r in &lad.r {
        c.set_resistance(r, R_NOM * (1.0 + sc.value("dr") + mm.uniform(-0.02, 0.02)))?;
    }
    for &cap in &lad.c {
        c.set_capacitance(
            cap,
            C_NOM * (1.0 + sc.value("dc") + mm.uniform(-0.02, 0.02)),
        )?;
    }
    if let Some(rl) = lad.load {
        c.set_resistance(rl, RL_NOM * (1.0 + sc.value("dl")))?;
    }
    Ok(())
}

fn observe(out: NodeId, tr: &dyn ScenarioProbe, m: &mut [f64]) {
    let v = tr.voltage(out);
    m[0] = v;
    if m[1].is_nan() || v > m[1] {
        m[1] = v;
    }
}

fn lint_gate(name: &str, ckt: &Circuit, layers: &mut Layers) -> Result<(), String> {
    let report = layers.time("lint.circuit", || lint_circuit(name, ckt));
    layers.count("lint.runs", 1.0);
    if LintPolicy::default().denied(&report).is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{name}: template failed the lint gate:\n{}",
            report.render()
        ))
    }
}

fn run_sweep(sweep: &NetlistSweep, spec: &SweepSpec, lad: &Ladder) -> Result<SweepReport, String> {
    sweep
        .run_lanes(
            spec,
            1,
            &METRICS,
            |c, sc| apply(lad, c, sc),
            |tr, m| observe(lad.out, tr, m),
        )
        .map_err(|e| e.to_string())
}

/// One fresh cold set-up of a ladder sweep, in seconds: template build,
/// lint gate, optional space proof, and the first sparse symbolic LU.
fn cold_setup(
    name: &str,
    build: impl Fn() -> Result<Ladder, NetError>,
    space: Option<&SpaceSpec>,
    lanes: bool,
) -> Result<f64, String> {
    let t = Instant::now();
    let lad = build().map_err(|e| e.to_string())?;
    lint_gate(name, &lad.ckt, &mut Layers::new(false))?;
    if let Some(s) = space {
        black_box(lint_space(name, &lad.ckt, s));
    }
    let factored = if lanes {
        let lane_ckts = vec![lad.ckt.clone(); 8];
        let mut tr =
            LaneTransientSolver::<8>::new(&lane_ckts, METHOD).map_err(|e| e.to_string())?;
        tr.backend = SolverBackend::Sparse;
        tr.initialize_dc().map_err(|e| e.to_string())?;
        tr.step(H).map_err(|e| e.to_string())?;
        tr.symbolic_factor().is_some()
    } else {
        let mut tr = TransientSolver::new(&lad.ckt, METHOD).map_err(|e| e.to_string())?;
        tr.backend = SolverBackend::Sparse;
        tr.initialize_dc().map_err(|e| e.to_string())?;
        tr.step(H).map_err(|e| e.to_string())?;
        tr.symbolic_factor().is_some()
    };
    if !factored {
        return Err(format!("{name}: set-up produced no symbolic factor"));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Result of one sweep op: the report and the sweep call's wall time
/// (traced ops only).
pub struct SweepOut {
    report: SweepReport,
    wall_ns: u64,
}

/// `mc_scalar`: 256 scenarios, scalar engine, prefix at half the
/// horizon, space pruning and three monitors.
pub struct McScalar {
    lad: Ladder,
    spec: SweepSpec,
    space: SpaceSpec,
    /// Untraced and traced variants of the same sweep.
    sweeps: [NetlistSweep; 2],
    reference: SweepReport,
}

const SCALAR_SCENARIOS: usize = 256;
const SCALAR_STEPS: u64 = 1024;
/// The pulse edge and fork point: half the horizon.
const SCALAR_T0: f64 = (SCALAR_STEPS / 2) as f64 * H;

/// Passive envelope (always holds), a gain band the heavily loaded
/// corners miss, and a rise time the slow corners miss or never arm.
const SCALAR_MONITORS: &str = "bounded:envelope(lo=-0.05,hi=1.05)@n3;\
     settled:settle(lo=0.8,hi=1.0,by=9.0e-4)@n3;\
     fast:rise(lo=0.05,hi=0.5,within=1.2e-4)@n3";

impl McScalar {
    pub fn setup(seed: u64) -> Result<McScalar, String> {
        let t_end = SCALAR_STEPS as f64 * H;
        let space = scalar_space();
        let lad = ladder(SCALAR_T0, true, false).map_err(|e| e.to_string())?;
        let spec = SweepSpec::monte_carlo(
            &[("dr", -0.1, 0.1), ("dc", -0.1, 0.1), ("dl", -1.08, 1.0)],
            SCALAR_SCENARIOS,
            rng::derive(seed, 1),
        )
        .map_err(|e| e.to_string())?;
        let monitors = MonitorSpec::parse(SCALAR_MONITORS).map_err(|e| e.to_string())?;
        // SPC006 warns about lane bundles; this sweep is scalar.
        let mut policy = LintPolicy::default();
        policy.set_code("SPC006", LintLevel::Allow);
        let base = NetlistSweep::new(lad.ckt.clone(), METHOD)
            .lint_policy(policy)
            .backend(SolverBackend::Sparse)
            .fixed_step(t_end, H)
            .context("mc_scalar")
            .pre_linted(true)
            .lanes(1)
            .space(space.clone())
            .monitors(monitors);
        // The reference integrates every scenario from t = 0; the
        // measured op forks them from the shared prefix.
        let reference = run_sweep(&base, &spec, &lad)?;
        let forked = base.prefix(SCALAR_T0);
        let w = McScalar {
            sweeps: [forked.clone().trace(false), forked.trace(true)],
            lad,
            spec,
            space,
            reference,
        };
        let r = &w.reference;
        if r.space_pruned.is_empty() || r.space_pruned.len() >= SCALAR_SCENARIOS / 4 {
            return Err(format!(
                "mc_scalar: {} scenarios pruned; the load range should doom a few",
                r.space_pruned.len()
            ));
        }
        let s = r.monitor_summary();
        if s.iter().all(|m| m.fail == 0) || s.iter().all(|m| m.pass == 0) {
            return Err("mc_scalar: monitors should both pass and fail".into());
        }
        Ok(w)
    }
}

fn scalar_space() -> SpaceSpec {
    let mut binds = Vec::new();
    for i in 0..STAGES {
        for (param, element, target, nominal) in [
            ("dr", format!("R{i}"), SpaceTarget::Resistance, R_NOM),
            ("dc", format!("C{i}"), SpaceTarget::Capacitance, C_NOM),
        ] {
            binds.push(SpaceBind {
                param: param.into(),
                element,
                target,
                relative: true,
                nominal,
            });
        }
    }
    binds.push(SpaceBind {
        param: "dl".into(),
        element: "RL".into(),
        target: SpaceTarget::Resistance,
        relative: true,
        nominal: RL_NOM,
    });
    // The proof covers the per-component mismatch on top of the draws.
    let ranges = vec![
        ParamRange::new("dr", -0.12, 0.12),
        ParamRange::new("dc", -0.12, 0.12),
        ParamRange::new("dl", -1.08, 1.0),
    ];
    SpaceSpec::new(ranges, binds).requested_h(H)
}

impl Workload for McScalar {
    type Out = SweepOut;

    fn cold_setup(&mut self) -> Option<Result<f64, String>> {
        let build = || ladder(SCALAR_T0, true, false);
        Some(cold_setup("mc_scalar", build, Some(&self.space), false))
    }

    fn op(&mut self, layers: &mut Layers) -> Result<SweepOut, String> {
        lint_gate("mc_scalar", &self.lad.ckt, layers)?;
        let sweep = &self.sweeps[usize::from(layers.on())];
        let (report, wall_ns) = layers.wall(|| run_sweep(sweep, &self.spec, &self.lad));
        Ok(SweepOut {
            report: report?,
            wall_ns,
        })
    }

    fn check(&mut self, out: SweepOut, layers: &mut Layers) -> Result<(), String> {
        let (r, want) = (&out.report, &self.reference);
        if r.fingerprint() != want.fingerprint() {
            return Err(format!(
                "mc_scalar: forked fingerprint {:016x} != run-from-zero {:016x}",
                r.fingerprint(),
                want.fingerprint()
            ));
        }
        let survivors = SCALAR_SCENARIOS - want.space_pruned.len();
        if r.space_pruned != want.space_pruned || r.scenarios.len() != survivors {
            return Err("mc_scalar: pruned set differs from the reference".into());
        }
        if r.prefix_forks != survivors as u64 {
            return Err(format!(
                "mc_scalar: {} forks for {survivors} scenarios",
                r.prefix_forks
            ));
        }
        let counts = |rep: &SweepReport| -> Vec<(usize, usize, usize)> {
            rep.monitor_summary()
                .iter()
                .map(|s| (s.pass, s.fail, s.vacuous))
                .collect()
        };
        let (got, exp) = (counts(r), counts(want));
        if got != exp || got.iter().any(|(p, f, v)| p + f + v != survivors) {
            return Err(format!(
                "mc_scalar: verdict counts {got:?}, expected {exp:?}"
            ));
        }
        layers.sweep(out.wall_ns, r);
        Ok(())
    }
}

/// `mc_lanes8_newton`: 1024 diode-clamped scenarios at lane width 8.
pub struct McLanes {
    lad: Ladder,
    spec: SweepSpec,
    sweeps: [NetlistSweep; 2],
    /// The first lane run, for fingerprint equality.
    reference: SweepReport,
    /// The same scenarios on the scalar engine, for the 1e-9 check.
    scalar: SweepReport,
}

const LANE_SCENARIOS: usize = 1024;
const LANE_STEPS: u64 = 256;
/// The lane sweep's step: 4·H, still a power of two.
const LANE_H: f64 = 4.0 * H;

impl McLanes {
    pub fn setup(seed: u64) -> Result<McLanes, String> {
        let lad = ladder(0.0, false, true).map_err(|e| e.to_string())?;
        let spec = SweepSpec::monte_carlo(
            &[("dr", -0.1, 0.1), ("dc", -0.1, 0.1)],
            LANE_SCENARIOS,
            rng::derive(seed, 2),
        )
        .map_err(|e| e.to_string())?;
        let base = NetlistSweep::new(lad.ckt.clone(), METHOD)
            .backend(SolverBackend::Sparse)
            .fixed_step(LANE_STEPS as f64 * LANE_H, LANE_H)
            .context("mc_lanes8_newton")
            .pre_linted(true);
        let scalar = run_sweep(&base.clone().lanes(1), &spec, &lad)?;
        let lanes = base.lanes(8);
        let reference = run_sweep(&lanes, &spec, &lad)?;
        let t = scalar.totals();
        if t.newton_iterations <= t.iterations {
            return Err("mc_lanes8_newton: the diode clamp should make steps iterate".into());
        }
        Ok(McLanes {
            sweeps: [lanes.clone().trace(false), lanes.trace(true)],
            lad,
            spec,
            reference,
            scalar,
        })
    }
}

impl Workload for McLanes {
    type Out = SweepOut;

    fn cold_setup(&mut self) -> Option<Result<f64, String>> {
        let build = || ladder(0.0, false, true);
        Some(cold_setup("mc_lanes8_newton", build, None, true))
    }

    fn op(&mut self, layers: &mut Layers) -> Result<SweepOut, String> {
        lint_gate("mc_lanes8_newton", &self.lad.ckt, layers)?;
        let sweep = &self.sweeps[usize::from(layers.on())];
        let (report, wall_ns) = layers.wall(|| run_sweep(sweep, &self.spec, &self.lad));
        Ok(SweepOut {
            report: report?,
            wall_ns,
        })
    }

    fn check(&mut self, out: SweepOut, layers: &mut Layers) -> Result<(), String> {
        let r = &out.report;
        if r.fingerprint() != self.reference.fingerprint() {
            return Err("mc_lanes8_newton: lane fingerprint changed between ops".into());
        }
        if r.scenarios.len() != LANE_SCENARIOS || r.lanes != 8 {
            return Err(format!(
                "mc_lanes8_newton: {} rows at width {}",
                r.scenarios.len(),
                r.lanes
            ));
        }
        for (lane, scalar) in r.scenarios.iter().zip(&self.scalar.scenarios) {
            for (a, b) in lane.metrics.iter().zip(&scalar.metrics) {
                let tol = LANE_TOL * a.abs().max(b.abs()).max(1e-12);
                // False for a NaN on either side, so NaN rows fail.
                let close = (a - b).abs() <= tol;
                if !close {
                    return Err(format!(
                        "mc_lanes8_newton: scenario {} lane {a} vs scalar {b}",
                        lane.index
                    ));
                }
            }
        }
        layers.sweep(out.wall_ns, r);
        Ok(())
    }
}
