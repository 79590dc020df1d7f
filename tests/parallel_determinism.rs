//! Co-simulation must give the same bits at every worker count.
//!
//! [`AmsSimulator::with_workers`] runs the clusters without converter
//! bindings beside the DE kernel on up to `n` threads. For the same
//! model, probe waveforms, DE signal traces, failures and the Chrome
//! trace export must equal the one-worker run, sample for sample, bit
//! for bit — regardless of worker count or scheduling jitter.

use std::cell::RefCell;
use std::rc::Rc;

use systemc_ams::blocks::{FirFilter, SineSource};
use systemc_ams::core::{
    AmsSimulator, CoreError, TdfGraph, TdfIo, TdfModule, TdfOut, TdfProbe, TdfSetup,
};
use systemc_ams::kernel::{Kernel, KernelError, Signal, SimTime};
use systemc_ams::scope::chrome;

/// A self-timed oscillator with internal state, so scheduling mistakes
/// (skipped or duplicated firings) corrupt the waveform.
struct StatefulOsc {
    out: TdfOut,
    k: u64,
    freq: f64,
}

impl TdfModule for StatefulOsc {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.output(self.out);
        cfg.set_timestep(SimTime::from_us(1));
    }
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let phase = self.k as f64 * self.freq;
        io.write1(self.out, phase.sin() + 0.25 * (3.0 * phase).cos());
        self.k += 1;
        Ok(())
    }
}

/// An independent (no DE bindings) filtered-oscillator cluster.
fn free_cluster(i: usize) -> (TdfGraph, TdfProbe) {
    let mut g = TdfGraph::new(format!("free{i}"));
    let raw = g.signal("raw");
    let flt = g.signal("flt");
    let probe = g.probe(flt);
    g.add_module(
        "osc",
        StatefulOsc {
            out: raw.writer(),
            k: 0,
            freq: 0.01 * (i + 1) as f64,
        },
    );
    g.add_module(
        "ma",
        FirFilter::moving_average(raw.reader(), flt.writer(), 4),
    );
    (g, probe)
}

/// A DE-coupled cluster: reads a kernel signal, filters, writes back.
fn bound_cluster(i: usize, input: Signal<f64>, output: Signal<f64>) -> (TdfGraph, TdfProbe) {
    let mut g = TdfGraph::new(format!("bound{i}"));
    let u = g.from_de("u", input);
    let y = g.signal("y");
    let probe = g.probe(y);
    g.add_module("ma", FirFilter::moving_average(u.reader(), y.writer(), 3));
    let s = g.signal("s");
    // Pins the cluster period at 5 µs via the source timestep.
    g.add_module(
        "pacer",
        SineSource::new(s.writer(), 1000.0, 0.0, Some(SimTime::from_us(5))),
    );
    g.to_de("y", y, output);
    (g, probe)
}

/// Registers a DE-side stimulus (square wave) and a change-triggered
/// trace recorder on `kernel`; returns the stimulus/response signals and
/// the recorded `(time_fs, value)` trace.
#[allow(clippy::type_complexity)]
fn de_side(kernel: &mut Kernel) -> (Signal<f64>, Signal<f64>, Rc<RefCell<Vec<(u64, f64)>>>) {
    let stim = kernel.signal("stim", 0.0f64);
    let resp = kernel.signal("resp", 0.0f64);
    let pid = kernel.add_process("square", move |ctx| {
        let v = ctx.read(stim);
        ctx.write(stim, if v > 0.5 { 0.0 } else { 1.0 });
        ctx.next_trigger_in(SimTime::from_us(7));
    });
    let _ = pid;
    let trace = Rc::new(RefCell::new(Vec::new()));
    let t2 = trace.clone();
    let watcher = kernel.add_process("watch", move |ctx| {
        t2.borrow_mut().push((ctx.now().as_fs(), ctx.read(resp)));
    });
    let ev = kernel.signal_event(resp);
    kernel.make_sensitive(watcher, ev);
    kernel.dont_initialize(watcher);
    (stim, resp, trace)
}

const HORIZON: SimTime = SimTime::from_us(500);

#[allow(clippy::type_complexity)]
fn run_parallel(workers: usize) -> (Vec<Vec<(f64, f64)>>, Vec<(u64, f64)>) {
    let mut sim = AmsSimulator::with_workers(workers);
    let (stim, resp, trace) = de_side(sim.kernel_mut());
    let mut probes = Vec::new();
    for i in 0..4 {
        let (g, p) = free_cluster(i);
        sim.add_cluster(g).expect("elaborates");
        probes.push(p);
    }
    let (g, p) = bound_cluster(0, stim, resp);
    sim.add_cluster(g).expect("elaborates");
    probes.push(p);
    sim.run_until(HORIZON).expect("parallel run");
    let samples = probes.iter().map(|p| p.samples()).collect();
    let trace = trace.borrow().clone();
    (samples, trace)
}

/// The one-worker run, where every cluster runs on the calling thread,
/// is the serial reference for the 2- and 4-worker runs.
#[test]
fn parallel_matches_serial_bit_for_bit() {
    let (serial_probes, serial_trace) = run_parallel(1);
    for workers in [2, 4] {
        let (par_probes, par_trace) = run_parallel(workers);
        assert_eq!(
            serial_probes.len(),
            par_probes.len(),
            "probe count ({workers} workers)"
        );
        for (i, (s, p)) in serial_probes.iter().zip(&par_probes).enumerate() {
            assert!(!s.is_empty(), "serial probe {i} recorded nothing");
            assert_eq!(s, p, "probe {i} diverged with {workers} workers");
        }
        assert!(!serial_trace.is_empty(), "DE trace recorded nothing");
        assert_eq!(
            serial_trace, par_trace,
            "DE response trace diverged with {workers} workers"
        );
    }
}

/// The reference the runner does not share: each free cluster elaborated
/// on its own and run standalone for every iteration that starts at or
/// before the horizon.
fn standalone_free_probes() -> Vec<Vec<(f64, f64)>> {
    (0..4)
        .map(|i| {
            let (g, p) = free_cluster(i);
            let mut c = g.elaborate().expect("elaborates");
            c.run_standalone(HORIZON / c.period() + 1)
                .expect("standalone run");
            p.samples()
        })
        .collect()
}

#[test]
fn free_clusters_match_standalone_runs_at_every_worker_count() {
    let reference = standalone_free_probes();
    for s in &reference {
        assert_eq!(s.len(), 501, "one sample per µs, both ends included");
        assert_eq!(s[0].0, 0.0);
        assert!((s[500].0 - HORIZON.to_seconds()).abs() < 1e-15);
    }
    for workers in [1, 2, 4] {
        let (probes, _) = run_parallel(workers);
        assert_eq!(
            &probes[..4],
            &reference[..],
            "free probes diverged from standalone runs with {workers} workers"
        );
    }
}

/// Fails at its fourth firing, after three clean iterations.
struct FailAfterThree {
    out: TdfOut,
    left: u32,
}

impl TdfModule for FailAfterThree {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.output(self.out);
        cfg.set_timestep(SimTime::from_us(1));
    }
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        if self.left == 0 {
            return Err(CoreError::solver("fail", "injected failure"));
        }
        self.left -= 1;
        io.write1(self.out, 0.0);
        Ok(())
    }
}

#[test]
fn a_failing_free_cluster_stops_alone_at_every_worker_count() {
    let mut reference: Option<Vec<Vec<(f64, f64)>>> = None;
    for workers in [1, 2, 4] {
        let mut sim = AmsSimulator::with_workers(workers);
        let mut probes = Vec::new();
        let mut failing = None;
        for i in 0..4 {
            if i == 1 {
                let mut g = TdfGraph::new("failing");
                let s = g.signal("s");
                g.add_module(
                    "f",
                    FailAfterThree {
                        out: s.writer(),
                        left: 3,
                    },
                );
                failing = Some(sim.add_cluster(g).expect("elaborates"));
            } else {
                let (g, p) = free_cluster(i);
                sim.add_cluster(g).expect("elaborates");
                probes.push(p);
            }
        }
        let failing = failing.expect("registered");
        let err = sim.run_until(HORIZON).unwrap_err();
        assert!(
            matches!(err, CoreError::Solver { .. }),
            "{err} ({workers} workers)"
        );
        sim.run_until(HORIZON + HORIZON)
            .expect("the error was reported once");
        assert_eq!(failing.iterations(), 3, "{workers} workers");
        let samples: Vec<Vec<(f64, f64)>> = probes.iter().map(|p| p.samples()).collect();
        assert!(samples.iter().all(|s| s.len() == 1001));
        match &reference {
            None => reference = Some(samples),
            Some(r) => assert_eq!(r, &samples, "probes diverged with {workers} workers"),
        }
    }
}

#[test]
fn a_kernel_error_leaves_free_clusters_running_to_the_horizon() {
    let reference = standalone_free_probes();
    for workers in [1, 2, 4] {
        let mut sim = AmsSimulator::with_workers(workers);
        let kernel = sim.kernel_mut();
        kernel.set_delta_limit(50);
        // Starts a zero-delay oscillation at 100 µs.
        let s = kernel.signal("osc", false);
        let toggle = kernel.add_process("toggle", move |ctx| {
            if ctx.now() == SimTime::ZERO {
                ctx.next_trigger_in(SimTime::from_us(100));
            } else {
                let v = ctx.read(s);
                ctx.write(s, !v);
            }
        });
        let ev = kernel.signal_event(s);
        kernel.make_sensitive(toggle, ev);
        let mut probes = Vec::new();
        for i in 0..4 {
            let (g, p) = free_cluster(i);
            sim.add_cluster(g).expect("elaborates");
            probes.push(p);
        }
        let err = sim.run_until(HORIZON).unwrap_err();
        assert!(
            matches!(err, CoreError::Kernel(KernelError::DeltaOverflow { .. })),
            "{err} ({workers} workers)"
        );
        assert_eq!(sim.now(), SimTime::from_us(100), "{workers} workers");
        let samples: Vec<Vec<(f64, f64)>> = probes.iter().map(|p| p.samples()).collect();
        assert_eq!(samples, reference, "{workers} workers");
    }
}

/// Three free clusters and one bound cluster, traced.
fn traced_export(workers: usize) -> String {
    let mut sim = AmsSimulator::with_workers(workers);
    sim.set_tracing(true);
    let (stim, resp, _) = de_side(sim.kernel_mut());
    for i in 0..3 {
        let (g, _) = free_cluster(i);
        sim.add_cluster(g).expect("elaborates");
    }
    let (g, _) = bound_cluster(0, stim, resp);
    sim.add_cluster(g).expect("elaborates");
    sim.run_until(HORIZON).expect("traced run");
    chrome::export(&sim.take_trace())
}

#[test]
fn traced_export_is_byte_identical_at_every_worker_count() {
    let reference = traced_export(1);
    for name in [
        "kernel",
        "free0",
        "free2",
        "bound0",
        "tdf.iteration",
        "de.delta",
    ] {
        assert!(reference.contains(name), "{name} missing from the export");
    }
    for workers in [2, 4] {
        assert!(
            traced_export(workers) == reference,
            "the Chrome export changed with {workers} workers"
        );
    }
}
