//! `f1_adsl`: the paper's Figure-1 subscriber-line interface, built
//! fresh and run for a fixed simulated window on every op.
//!
//! This is the workload where the DE kernel, the TDF cluster, the SDF
//! multirate chain and the block library do most of the work; the
//! embedded line network has five nodes. It predicts "no change" for
//! sweep, lane and service optimisations.

use crate::layers::Layers;
use crate::{rng, Workload};
use std::time::Instant;
use systemc_ams::blocks::{
    CicDecimator, FirFilter, LtiFilter, Product, SigmaDelta2, SineSource, TanhAmp,
};
use systemc_ams::core::{
    AmsSimulator, CoreError, CtModule, NetlistCtSolver, TdfGraph, TdfIn, TdfIo, TdfModule, TdfOut,
    TdfProbe, TdfSetup,
};
use systemc_ams::kernel::{KernelStats, Signal, SimTime};
use systemc_ams::lint::lint_circuit;
use systemc_ams::math::fft::Window;
use systemc_ams::net::{Circuit, InputId, IntegrationMethod, NetError, NodeId, Waveform};
use systemc_ams::scope::ScopeTrace;
use systemc_ams::wave::{analyze_sine, largest_pow2_len, SineMetrics};

/// Simulated window per op: the AGC settles in the first half, the
/// second half is analysed.
const WINDOW_MS: u64 = 40;
const DIGITAL_RATE: f64 = 62_500.0;
const TARGET_POWER: f64 = 0.02;
/// The in-band SNR the Figure-1 chain must deliver.
const MIN_SNR_DB: f64 = 40.0;

/// Sliding mean-square power estimator (the figure's "DSP algorithm").
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

/// Driver → protection resistor → 600 Ω line with shunt capacitance.
fn subscriber_line() -> Result<(Circuit, InputId, NodeId), NetError> {
    let mut ckt = Circuit::new();
    let drive = ckt.node("drive");
    let line = ckt.node("line");
    let sub = ckt.node("subscriber");
    let input = ckt.external_input();
    ckt.voltage_source_wave("Vdrv", drive, Circuit::GROUND, Waveform::External(input))?;
    ckt.resistor("Rprot", drive, line, 50.0)?;
    ckt.capacitor("Cline", line, Circuit::GROUND, 20e-9)?;
    ckt.resistor("Rline", line, sub, 130.0)?;
    ckt.resistor("Rsub", sub, Circuit::GROUND, 600.0)?;
    ckt.capacitor("Csub", sub, Circuit::GROUND, 10e-9)?;
    Ok((ckt, input, sub))
}

/// A fresh Figure-1 model: DE controller plus the unelaborated TDF
/// graph and the probe on the digital output.
struct Model {
    sim: AmsSimulator,
    graph: TdfGraph,
    line: Circuit,
    digital: TdfProbe,
    power: Signal<f64>,
}

fn build(tone_hz: f64) -> Result<Model, String> {
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
    let (ckt, line_in, sub_node) = subscriber_line().map_err(|e| e.to_string())?;
    let solver = NetlistCtSolver::new(
        &ckt,
        IntegrationMethod::Trapezoidal,
        vec![line_in],
        vec![sub_node],
    )
    .map_err(|e| e.to_string())?;
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
        .map_err(|e| e.to_string())?,
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
    Ok(Model {
        sim,
        graph: g,
        line: ckt,
        digital: probe,
        power: power_de,
    })
}

/// What one op computed: the tone analysis and the regulated power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F1Result {
    metrics: SineMetrics,
    power_final: f64,
}

/// What the program recorded during one traced `run_until`.
pub struct F1Trace {
    trace: ScopeTrace,
    run_wall_ns: u64,
    kernel: KernelStats,
    tdf_iterations: u64,
}

/// One op's result, plus its recordings when traced.
pub struct F1Out {
    result: F1Result,
    traced: Option<F1Trace>,
}

/// Builds, elaborates and runs one fresh model, then analyses its
/// digital output.
fn simulate(tone_hz: f64, layers: &mut Layers) -> Result<F1Out, String> {
    let mut m = layers.time("core.build", || build(tone_hz))?;
    if layers.on() {
        // add_cluster and NetlistCtSolver::new run these gates inside;
        // the traced op repeats them outside so they can be timed.
        layers.time("lint.circuit", || {
            m.graph.lint();
            lint_circuit("subscriber_line", &m.line)
        });
        layers.count("lint.runs", 1.0);
        m.sim.set_tracing(true);
    }
    let Model {
        mut sim,
        graph,
        digital,
        power,
        ..
    } = m;
    let cluster = layers
        .time("core.elaborate", || sim.add_cluster(graph))
        .map_err(|e| e.to_string())?;
    let (run, run_wall_ns) = layers.wall(|| sim.run_until(SimTime::from_ms(WINDOW_MS)));
    run.map_err(|e| e.to_string())?;
    let traced = layers.on().then(|| F1Trace {
        trace: sim.take_trace(),
        run_wall_ns,
        kernel: sim.kernel().stats(),
        tdf_iterations: cluster.iterations(),
    });
    let metrics = layers.time("wave.analyze", || {
        let all = digital.values();
        let settled = &all[all.len() / 2..];
        let n = largest_pow2_len(settled.len());
        analyze_sine(
            &settled[settled.len() - n..],
            DIGITAL_RATE,
            Window::Blackman,
        )
    });
    Ok(F1Out {
        result: F1Result {
            metrics: metrics.map_err(|e| e.to_string())?,
            power_final: sim.kernel().peek(power),
        },
        traced,
    })
}

pub struct F1 {
    tone_hz: f64,
    reference: F1Result,
}

impl F1 {
    pub fn setup(seed: u64) -> Result<F1, String> {
        let tone_hz = 4_500.0 + 1_000.0 * rng::SplitMix(rng::derive(seed, 4)).uniform(0.0, 1.0);
        let reference = simulate(tone_hz, &mut Layers::new(false))?.result;
        let w = F1 { tone_hz, reference };
        w.physics(&reference)?;
        Ok(w)
    }

    /// The figure's claims: the tone comes back, above 40 dB SNR, with
    /// ENOB consistent with SINAD, and the AGC regulates the power.
    fn physics(&self, o: &F1Result) -> Result<(), String> {
        let m = &o.metrics;
        let enob = (m.sinad_db - 1.76) / 6.02;
        if (m.fundamental_hz - self.tone_hz).abs() > 200.0
            || m.snr_db <= MIN_SNR_DB
            || (m.enob - enob).abs() > 1e-9
            || (o.power_final - TARGET_POWER).abs() / TARGET_POWER >= 0.25
        {
            return Err(format!(
                "f1_adsl: tone {:.0} Hz for {:.0} Hz, SNR {:.1} dB, ENOB {:.2}, power {:.4}",
                m.fundamental_hz, self.tone_hz, m.snr_db, m.enob, o.power_final
            ));
        }
        Ok(())
    }
}

impl Workload for F1 {
    type Out = F1Out;

    /// Cold set-up is elaboration: build the model and add the cluster.
    fn cold_setup(&mut self) -> Option<Result<f64, String>> {
        let t = Instant::now();
        let elaborate = build(self.tone_hz).and_then(|mut m| {
            m.sim
                .add_cluster(m.graph)
                .map(|_| ())
                .map_err(|e| e.to_string())
        });
        Some(elaborate.map(|()| t.elapsed().as_secs_f64()))
    }

    fn op(&mut self, layers: &mut Layers) -> Result<F1Out, String> {
        simulate(self.tone_hz, layers)
    }

    fn check(&mut self, out: F1Out, layers: &mut Layers) -> Result<(), String> {
        // A fresh model from the same inputs must repeat bit for bit.
        if out.result != self.reference {
            return Err(format!(
                "f1_adsl: op produced {:?}, reference {:?}",
                out.result, self.reference
            ));
        }
        self.physics(&out.result)?;
        if let Some(t) = out.traced {
            layers.nested("core.run", t.run_wall_ns, &t.trace);
            layers.count("kernel.delta_cycles", t.kernel.delta_cycles as f64);
            layers.count("kernel.activations", t.kernel.activations as f64);
            layers.count("tdf.iterations", t.tdf_iterations as f64);
        }
        Ok(())
    }
}
