//! Parallel execution must be observationally identical to serial.
//!
//! The `ams-exec` engine promises bit-identical results: for the same
//! model, probe waveforms and DE signal traces from [`ParallelSim`] must
//! equal those from the serial [`AmsSimulator`], sample for sample, bit
//! for bit — regardless of worker count or scheduling jitter.

use std::cell::RefCell;
use std::rc::Rc;

use systemc_ams::blocks::{FirFilter, SineSource};
use systemc_ams::core::{AmsSimulator, CoreError, TdfGraph, TdfIo, TdfModule, TdfProbe, TdfSetup};
use systemc_ams::exec::ParallelSim;
use systemc_ams::kernel::{Kernel, Signal, SimTime};

/// A self-timed oscillator with internal state, so scheduling mistakes
/// (skipped/duplicated firings, stale resets) corrupt the waveform.
struct StatefulOsc {
    out: systemc_ams::core::TdfOut,
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
    fn reset(&mut self) {
        self.k = 0;
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
fn run_serial() -> (Vec<Vec<(f64, f64)>>, Vec<(u64, f64)>) {
    let mut sim = AmsSimulator::new();
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
    sim.run_until(HORIZON).expect("serial run");
    let samples = probes.iter().map(|p| p.samples()).collect();
    let trace = trace.borrow().clone();
    (samples, trace)
}

#[allow(clippy::type_complexity)]
fn run_parallel(workers: usize) -> (Vec<Vec<(f64, f64)>>, Vec<(u64, f64)>) {
    let mut sim = ParallelSim::new(workers);
    let (stim, resp, trace) = de_side(sim.kernel_mut());
    let mut probes = Vec::new();
    for i in 0..4 {
        let (g, p) = free_cluster(i);
        sim.add_graph(g);
        probes.push(p);
    }
    let (g, p) = bound_cluster(0, stim, resp);
    sim.add_graph(g);
    probes.push(p);
    sim.run_until(HORIZON).expect("parallel run");
    let samples = probes.iter().map(|p| p.samples()).collect();
    let trace = trace.borrow().clone();
    (samples, trace)
}

#[test]
fn parallel_matches_serial_bit_for_bit() {
    let (serial_probes, serial_trace) = run_serial();
    for workers in [1, 2, 4] {
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

#[test]
fn independent_clusters_spread_across_workers() {
    let mut sim = ParallelSim::new(4);
    for i in 0..4 {
        let (g, _) = free_cluster(i);
        sim.add_graph(g);
    }
    sim.elaborate().expect("elaborates");
    let part = sim.partition().expect("partitioned");
    assert_eq!(part.components.len(), 4);
    assert_eq!(part.busy_workers(), 4);
}

/// A piped two-cluster chain must equal the same chain fused into one
/// serial cluster: the SPSC ring delivers sample k of the producer as
/// pull k of the consumer, which is exactly a direct signal connection.
#[test]
fn pipe_matches_direct_connection() {
    const T: SimTime = SimTime::from_us(200);

    // Serial reference: source → moving average inside one graph.
    let mut sim = AmsSimulator::new();
    let mut g = TdfGraph::new("direct");
    let s = g.signal("s");
    let out = g.signal("out");
    let reference = g.probe(out);
    g.add_module(
        "src",
        SineSource::new(s.writer(), 500.0, 1.0, Some(SimTime::from_us(1))),
    );
    g.add_module("ma", FirFilter::moving_average(s.reader(), out.writer(), 2));
    sim.add_cluster(g).expect("elaborates");
    sim.run_until(T).expect("serial run");

    // Piped: producer and consumer are separate clusters linked by a ring.
    let mut sim = ParallelSim::new(2);
    let mut ga = TdfGraph::new("prod");
    let sa = ga.signal("s");
    ga.add_module(
        "src",
        SineSource::new(sa.writer(), 500.0, 1.0, Some(SimTime::from_us(1))),
    );
    let mut gb = TdfGraph::new("cons");
    let out = gb.signal("out");
    let piped = gb.probe(out);
    // Pins the consumer's period; the pipe input has no intrinsic rate.
    let pace = gb.signal("pace");
    gb.add_module(
        "pace",
        SineSource::new(pace.writer(), 1.0, 0.0, Some(SimTime::from_us(1))),
    );
    let a = sim.add_graph(ga);
    let b = sim.add_graph(gb);
    // Capacity must cover the whole horizon: free-running clusters get
    // one window for the entire run.
    let inp = sim.pipe("link", a, sa, b, 256);
    sim.graph_mut(b).add_module(
        "ma",
        FirFilter::moving_average(inp.reader(), out.writer(), 2),
    );
    sim.run_until(T).expect("piped run");

    assert_eq!(
        reference.samples(),
        piped.samples(),
        "piped chain diverged from the fused serial cluster"
    );
    let part = sim.partition().expect("partitioned");
    assert_eq!(
        part.components,
        vec![vec![0, 1]],
        "pipe must fuse components"
    );
    assert!(sim.stats().ring_high_water > 0, "ring saw traffic");
}

#[test]
fn reset_reruns_identically() {
    let mut sim = ParallelSim::new(2);
    let mut probes = Vec::new();
    for i in 0..3 {
        let (g, p) = free_cluster(i);
        sim.add_graph(g);
        probes.push(p);
    }
    sim.run_until(SimTime::from_us(100)).expect("first run");
    let first: Vec<Vec<(f64, f64)>> = probes.iter().map(|p| p.samples()).collect();
    assert!(first.iter().all(|s| !s.is_empty()));

    sim.reset().expect("reset");
    assert_eq!(sim.now(), SimTime::ZERO);
    assert!(probes.iter().all(|p| p.is_empty()), "reset clears probes");

    sim.run_until(SimTime::from_us(100)).expect("second run");
    let second: Vec<Vec<(f64, f64)>> = probes.iter().map(|p| p.samples()).collect();
    assert_eq!(first, second, "re-run after reset must reproduce exactly");

    let stats = sim.stats();
    assert!(stats.windows > 0);
    assert_eq!(stats.clusters.len(), 3);
    assert!(stats.totals().iterations > 0);
}
