//! A sweep must be bit-identical regardless of worker count.
//!
//! `ams-sweep` promises that the same spec (same base seed, same
//! scenario list) produces the same [`SweepReport`] — metric bits,
//! scenario order and solver counters — whether it runs on one worker
//! or many. Scenario seeds are derived from `(base_seed, index)` alone,
//! shards are dealt to workers round-robin, and the shared symbolic
//! factor always comes from scenario 0 on the coordinator, so no run
//! order or thread interleaving can leak into the results. This is the sweep-level mirror of
//! `parallel_determinism.rs`. A linear fixed-step sweep is also
//! bit-identical across lane widths: every bundle pivots like the
//! scalar run over scenario 0 (the `lane` properties below).

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use systemc_ams::core::{
    Cluster, CoreError, SharedSample, TdfGraph, TdfIo, TdfModule, TdfProbe, TdfSetup,
};
use systemc_ams::kernel::SimTime;
use systemc_ams::net::{
    Circuit, ElementId, IntegrationMethod, NetError, NodeId, ScenarioProbe, SolverBackend,
    SymbolicFactor, Waveform,
};
use systemc_ams::sweep::{
    NetlistSweep, Scenario, SweepError, SweepModel, SweepReport, SweepSpec, TdfSweep,
};

// ---------- netlist sweep ----------------------------------------------------

struct Ladder {
    ckt: Circuit,
    resistors: Vec<ElementId>,
    caps: Vec<ElementId>,
    out: NodeId,
}

fn ladder(n: usize) -> Ladder {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.voltage_source("V", prev, Circuit::GROUND, 1.0).unwrap();
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

fn netlist_sweep(workers: usize) -> SweepReport {
    let lad = ladder(12);
    let spec = SweepSpec::monte_carlo(&[("dr", -0.2, 0.2), ("dc", -0.2, 0.2)], 24, 0xDE7).unwrap();
    let resistors = lad.resistors.clone();
    let caps = lad.caps.clone();
    let out = lad.out;
    NetlistSweep::new(lad.ckt, IntegrationMethod::Trapezoidal)
        .backend(SolverBackend::Sparse)
        .fixed_step(3e-6, 3e-9)
        .run(
            &spec,
            workers,
            &["v_out", "v_peak"],
            move |c, sc| {
                for r in &resistors {
                    c.set_resistance(*r, 1e3 * (1.0 + sc.value("dr")))?;
                }
                for cap in &caps {
                    c.set_capacitance(*cap, 1e-9 * (1.0 + sc.value("dc")))?;
                }
                Ok(())
            },
            |tr, m| {
                let v = tr.voltage(out);
                m[0] = v;
                m[1] = m[1].max(v); // NaN-seeded: first max() adopts v
            },
        )
        .unwrap()
}

/// Deep bit-level comparison, not just the fingerprint: metric bits,
/// indices and every deterministic counter.
fn assert_reports_identical(a: &SweepReport, b: &SweepReport, what: &str) {
    assert_eq!(a.metric_names, b.metric_names, "{what}: metric names");
    assert_eq!(a.scenarios.len(), b.scenarios.len(), "{what}: row count");
    for (ra, rb) in a.scenarios.iter().zip(&b.scenarios) {
        assert_eq!(ra.index, rb.index, "{what}: scenario order");
        assert_eq!(ra.label, rb.label, "{what}: labels");
        let bits_a: Vec<u64> = ra.metrics.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = rb.metrics.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "{what}: metric bits of #{}", ra.index);
        assert_eq!(
            ra.stats.iterations, rb.stats.iterations,
            "{what}: steps of #{}",
            ra.index
        );
        assert_eq!(
            ra.stats.solve.symbolic_analyses, rb.stats.solve.symbolic_analyses,
            "{what}: symbolic analyses of #{}",
            ra.index
        );
        assert_eq!(
            ra.stats.solve.numeric_refactors, rb.stats.solve.numeric_refactors,
            "{what}: numeric refactors of #{}",
            ra.index
        );
    }
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}: fingerprint");
}

/// Same ladder sweep as [`netlist_sweep`], but lane-batched: 24
/// scenarios packed 8 to a bundle (the last bundle padded). Bundle
/// composition depends only on the scenario order and lane width, and
/// bundle 0's lane factor seeds every shard, so worker count must not
/// change a single bit.
fn lane_netlist_sweep(workers: usize) -> SweepReport {
    let lad = ladder(12);
    let spec = SweepSpec::monte_carlo(&[("dr", -0.2, 0.2), ("dc", -0.2, 0.2)], 24, 0xDE7).unwrap();
    let resistors = lad.resistors.clone();
    let caps = lad.caps.clone();
    let out = lad.out;
    NetlistSweep::new(lad.ckt, IntegrationMethod::Trapezoidal)
        .backend(SolverBackend::Sparse)
        .fixed_step(3e-6, 3e-9)
        .lanes(8)
        .run_lanes(
            &spec,
            workers,
            &["v_out", "v_peak"],
            move |c, sc| {
                for r in &resistors {
                    c.set_resistance(*r, 1e3 * (1.0 + sc.value("dr")))?;
                }
                for cap in &caps {
                    c.set_capacitance(*cap, 1e-9 * (1.0 + sc.value("dc")))?;
                }
                Ok(())
            },
            |p: &dyn ScenarioProbe, m| {
                let v = p.voltage(out);
                m[0] = v;
                m[1] = m[1].max(v); // NaN-seeded: first max() adopts v
            },
        )
        .unwrap()
}

#[test]
fn lane_netlist_sweep_is_bit_identical_across_worker_counts() {
    let serial = lane_netlist_sweep(1);
    assert_eq!(serial.lanes, 8);
    assert_eq!(serial.bundles, 3);
    for workers in [2, 4] {
        let parallel = lane_netlist_sweep(workers);
        assert_reports_identical(&serial, &parallel, &format!("lanes=8 workers={workers}"));
    }
    // Lane metrics track the scalar sweep's to ~1e-9 relative — same
    // scenarios, same integrator, bundled instruction stream.
    let scalar = netlist_sweep(1);
    for (a, b) in scalar.scenarios.iter().zip(&serial.scenarios) {
        assert_eq!(a.index, b.index);
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + x.abs()),
                "scenario {}: scalar {x} vs lane {y}",
                a.index
            );
        }
    }
    // One symbolic analysis for the whole batch, shared from bundle 0.
    assert_eq!(
        serial
            .scenarios
            .iter()
            .step_by(8) // one representative per bundle (stats are shared)
            .map(|r| r.stats.solve.symbolic_analyses)
            .sum::<u64>(),
        1
    );
}

#[test]
fn netlist_sweep_is_bit_identical_across_worker_counts() {
    let serial = netlist_sweep(1);
    for workers in [2, 4] {
        let parallel = netlist_sweep(workers);
        assert_reports_identical(&serial, &parallel, &format!("workers={workers}"));
    }
    // The amortization holds in every configuration: exactly one
    // symbolic analysis per batch.
    assert_eq!(serial.totals().solve.symbolic_analyses, 1);
    assert!(serial.totals().solve.numeric_refactors >= 23);
}

#[test]
fn different_seeds_change_the_fingerprint() {
    let lad = ladder(4);
    let out = lad.out;
    let resistors = lad.resistors.clone();
    let run = |seed: u64| {
        let spec = SweepSpec::monte_carlo(&[("dr", -0.2, 0.2)], 8, seed).unwrap();
        NetlistSweep::new(lad.ckt.clone(), IntegrationMethod::Trapezoidal)
            .fixed_step(1e-6, 2e-9)
            .run(
                &spec,
                2,
                &["v_out"],
                |c, sc| {
                    for r in &resistors {
                        c.set_resistance(*r, 1e3 * (1.0 + sc.value("dr")))?;
                    }
                    Ok(())
                },
                |tr, m| m[0] = tr.voltage(out),
            )
            .unwrap()
    };
    assert_eq!(run(11).fingerprint(), run(11).fingerprint());
    assert_ne!(run(11).fingerprint(), run(12).fingerprint());
}

// ---------- lane parity over random linear netlists ---------------------------

/// SplitMix64: the whole random netlist is a function of one seed, so a
/// failing proptest case is reproduced by its seed alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `[lo, hi)`.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo * (hi / lo).powf(self.unit())
    }
}

#[derive(Clone, Copy)]
enum Swept {
    R,
    L,
    C,
}

/// A random linear netlist over the service's element set: a resistor
/// tree to ground (so every node has a DC path), then resistors,
/// capacitors, inductors and DC/sine/pulse voltage and current sources
/// at random, with each passive either fixed or scaled by one of two
/// Monte-Carlo parameters.
struct RandomNet {
    ckt: Circuit,
    binds: Vec<(ElementId, Swept, f64, &'static str)>,
    probe: NodeId,
    method: IntegrationMethod,
    spec: SweepSpec,
}

fn random_wave(rng: &mut SplitMix, amp: f64) -> Waveform {
    match rng.below(3) {
        0 => Waveform::Dc(amp),
        1 => Waveform::Sine {
            offset: 0.1 * amp,
            ampl: amp,
            freq: rng.log_uniform(1e5, 2e6),
            phase: rng.unit(),
        },
        _ => Waveform::Pulse {
            v1: 0.0,
            v2: amp,
            delay: 2e-7 * rng.unit(),
            rise: 2e-8,
            fall: 2e-8,
            width: 5e-7,
            period: if rng.below(2) == 0 { 0.0 } else { 1.5e-6 },
        },
    }
}

fn random_net(seed: u64) -> RandomNet {
    let mut rng = SplitMix(seed);
    let mut ckt = Circuit::new();
    let nodes: Vec<NodeId> = (0..2 + rng.below(5))
        .map(|i| ckt.node(format!("n{i}")))
        .collect();
    let params = ["p0", "p1"];
    let mut binds = Vec::new();
    let mut bind = |rng: &mut SplitMix, id, kind, nominal| {
        if rng.below(3) != 0 {
            binds.push((id, kind, nominal, params[rng.below(2)]));
        }
    };
    for (i, &node) in nodes.iter().enumerate() {
        let to = match rng.below(i + 1) {
            0 => Circuit::GROUND,
            k => nodes[k - 1],
        };
        let r = rng.log_uniform(50.0, 5e3);
        let id = ckt.resistor(format!("Rt{i}"), node, to, r).unwrap();
        bind(&mut rng, id, Swept::R, r);
    }
    let pick = |rng: &mut SplitMix| match rng.below(nodes.len() + 1) {
        0 => Circuit::GROUND,
        k => nodes[k - 1],
    };
    for e in 0..1 + rng.below(7) {
        let (p, n) = (pick(&mut rng), pick(&mut rng));
        if p == n {
            continue;
        }
        let name = format!("X{e}");
        match rng.below(5) {
            0 => {
                let r = rng.log_uniform(50.0, 5e3);
                let id = ckt.resistor(name, p, n, r).unwrap();
                bind(&mut rng, id, Swept::R, r);
            }
            1 => {
                let c = rng.log_uniform(1e-11, 1e-8);
                let id = ckt.capacitor(name, p, n, c).unwrap();
                bind(&mut rng, id, Swept::C, c);
            }
            2 => {
                let l = rng.log_uniform(1e-6, 1e-3);
                let id = ckt.inductor(name, p, n, l).unwrap();
                bind(&mut rng, id, Swept::L, l);
            }
            3 => {
                let amp = 0.5 + rng.unit();
                let w = random_wave(&mut rng, amp);
                ckt.voltage_source_wave(name, p, n, w).unwrap();
            }
            _ => {
                let amp = 1e-3 * (0.5 + rng.unit());
                let w = random_wave(&mut rng, amp);
                ckt.current_source_wave(name, p, n, w).unwrap();
            }
        }
    }
    let probe = nodes[rng.below(nodes.len())];
    let method = if rng.below(2) == 0 {
        IntegrationMethod::BackwardEuler
    } else {
        IntegrationMethod::Trapezoidal
    };
    let spec = SweepSpec::monte_carlo(
        &[("p0", -0.3, 0.3), ("p1", -0.3, 0.3)],
        2 + rng.below(8),
        rng.next(),
    )
    .unwrap();
    RandomNet {
        ckt,
        binds,
        probe,
        method,
        spec,
    }
}

/// Runs `net`'s sweep at lane width `lanes` on the sparse backend,
/// optionally seeded with `hint`, and hands scenario 0's exported
/// analysis to `sink`.
fn random_net_sweep(
    net: &RandomNet,
    lanes: usize,
    workers: usize,
    hint: Option<&SymbolicFactor>,
    sink: Option<systemc_ams::sweep::FactorSink>,
) -> Result<SweepReport, SweepError> {
    let mut sweep = NetlistSweep::new(net.ckt.clone(), net.method)
        .backend(SolverBackend::Sparse)
        .fixed_step(1.5e-6, 1e-8)
        .lanes(lanes);
    if let Some(h) = hint {
        sweep = sweep.symbolic_hint(h.clone());
    }
    if let Some(s) = sink {
        sweep = sweep.factor_sink(s);
    }
    let probe = net.probe;
    sweep.run_lanes(
        &net.spec,
        workers,
        &["v_last", "v_max"],
        |c: &mut Circuit, sc: &Scenario| -> Result<(), NetError> {
            for &(id, kind, nominal, param) in &net.binds {
                let v = nominal * (1.0 + sc.value(param));
                match kind {
                    Swept::R => c.set_resistance(id, v)?,
                    Swept::L => c.set_inductance(id, v)?,
                    Swept::C => c.set_capacitance(id, v)?,
                }
            }
            Ok(())
        },
        move |p: &dyn ScenarioProbe, m| {
            let v = p.voltage(probe);
            m[0] = v;
            m[1] = m[1].max(v);
        },
    )
}

/// Checks that `seed`'s netlist fingerprints identically at lane widths
/// 4 and 1, without and with a symbolic hint. `Ok(false)` when the
/// netlist is not a valid case (the scalar sweep rejects it).
fn lane_parity_case(seed: u64) -> Result<bool, String> {
    let net = random_net(seed);
    let sink: systemc_ams::sweep::FactorSink = Arc::new(Mutex::new(None));
    let Ok(scalar) = random_net_sweep(&net, 1, 1, None, Some(sink.clone())) else {
        return Ok(false);
    };
    let lane = random_net_sweep(&net, 4, 2, None, None).map_err(|e| e.to_string())?;
    if lane.fingerprint() != scalar.fingerprint() {
        return Err(format!("seed {seed:#x}: width 4 differs from width 1"));
    }
    let hint = sink.lock().unwrap().take().expect("scalar run exports");
    let hinted_scalar =
        random_net_sweep(&net, 1, 1, Some(&hint), None).map_err(|e| e.to_string())?;
    let hinted_lane = random_net_sweep(&net, 4, 2, Some(&hint), None).map_err(|e| e.to_string())?;
    if hinted_lane.fingerprint() != hinted_scalar.fingerprint() {
        return Err(format!(
            "seed {seed:#x}: hinted width 4 differs from width 1"
        ));
    }
    Ok(true)
}

proptest! {
    /// A width-4 sweep replays the width-1 sweep's pivots and
    /// operations, so it fingerprints identically — with or without a
    /// caller-supplied symbolic analysis.
    #[test]
    fn lane_width_four_fingerprints_like_width_one(seed in 0u64..u64::MAX) {
        let valid = lane_parity_case(seed).map_err(TestCaseError::fail)?;
        prop_assume!(valid);
    }
}

/// A netlist (five scenarios, backward Euler, two inductors, a current
/// source) on which analysing the whole bundle, pivoting on the largest
/// magnitude over all lanes, picked other pivots than the scalar run,
/// and the width-4 sweep drifted from width 1 in the last ulp.
#[test]
fn lane_parity_holds_on_a_recorded_pivot_counterexample() {
    assert_eq!(lane_parity_case(0x172), Ok(true));
}

// ---------- TDF sweep --------------------------------------------------------

/// A leaky integrator driven by seeded per-scenario noise: exercises
/// both the parameter channel (leak via [`SharedSample`]) and the
/// stimulus-variant channel (the scenario PRNG).
struct NoisyIntegrator {
    out: systemc_ams::core::TdfOut,
    leak: SharedSample,
    noise: Vec<f64>,
    k: usize,
    acc: f64,
}

impl TdfModule for NoisyIntegrator {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.output(self.out);
        cfg.set_timestep(SimTime::from_us(1));
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let x = self.noise[self.k % self.noise.len()];
        self.k += 1;
        self.acc = self.acc * self.leak.get() + x;
        io.write1(self.out, self.acc);
        Ok(())
    }

    fn reset(&mut self) {
        self.k = 0;
        self.acc = 0.0;
    }
}

struct NoiseModel {
    leak: SharedSample,
    noise: std::sync::Arc<std::sync::Mutex<Vec<f64>>>,
    probe: TdfProbe,
}

impl SweepModel for NoiseModel {
    fn apply(&mut self, sc: &Scenario) {
        use rand::prelude::*;
        self.leak.set(sc.value("leak"));
        let mut rng = sc.rng();
        let mut noise = self.noise.lock().unwrap();
        noise.clear();
        noise.extend((0..64).map(|_| rng.gen_range(-1.0..1.0)));
    }

    fn metrics(&mut self, _cluster: &Cluster, out: &mut [f64]) {
        let vals = self.probe.values();
        out[0] = *vals.last().unwrap();
        out[1] = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    }
}

/// The noise buffer is shared between the module (reader) and the model
/// (writer); `apply` refills it before each scenario's run.
struct SharedNoise(std::sync::Arc<std::sync::Mutex<Vec<f64>>>);

fn tdf_sweep(workers: usize) -> SweepReport {
    let spec = SweepSpec::monte_carlo(&[("leak", 0.5, 0.99)], 16, 0x7DF).unwrap();
    TdfSweep::new(128)
        .run(&spec, workers, &["last", "peak"], |slot| {
            let mut g = TdfGraph::new(format!("noisy{slot}"));
            let s = g.signal("y");
            let probe = g.probe(s);
            let leak = SharedSample::new(0.9);
            let noise = std::sync::Arc::new(std::sync::Mutex::new(vec![0.0]));
            g.add_module(
                "integ",
                NoisyModule {
                    inner: NoisyIntegrator {
                        out: s.writer(),
                        leak: leak.clone(),
                        noise: Vec::new(),
                        k: 0,
                        acc: 0.0,
                    },
                    shared: SharedNoise(noise.clone()),
                },
            );
            (g, NoiseModel { leak, noise, probe })
        })
        .unwrap()
}

/// Wraps the integrator so each firing reads the current shared noise
/// buffer (refilled by `NoiseModel::apply` between scenarios).
struct NoisyModule {
    inner: NoisyIntegrator,
    shared: SharedNoise,
}

impl TdfModule for NoisyModule {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        self.inner.setup(cfg);
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        if self.inner.k == 0 {
            self.inner.noise = self.shared.0.lock().unwrap().clone();
        }
        self.inner.processing(io)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[test]
fn tdf_sweep_is_bit_identical_across_worker_counts() {
    let serial = tdf_sweep(1);
    for workers in [2, 4] {
        let parallel = tdf_sweep(workers);
        assert_reports_identical(&serial, &parallel, &format!("workers={workers}"));
    }
    // Clusters were elaborated per worker but reset per scenario: every
    // scenario ran the full 128 iterations from a clean slate.
    for r in &serial.scenarios {
        assert_eq!(r.stats.iterations, 128);
    }
}
