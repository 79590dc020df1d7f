//! Pins the allocation-free TDF cluster iteration: once a cluster is
//! warm (signal buffers grown, solver factors cached), an iteration
//! makes no heap allocation, run standalone and driven by the DE kernel
//! through converter ports.
//!
//! A counting global allocator counts per thread, so the harness's
//! parallel tests do not see each other's allocations.

use ams_core::{
    AmsSimulator, CoreError, CtModule, LtiCtSolver, NetlistCtSolver, TdfGraph, TdfIn, TdfInit,
    TdfIo, TdfModule, TdfOut, TdfSetup,
};
use ams_kernel::{Signal, SimTime};
use ams_lti::{Discretization, TransferFunction};
use ams_net::{Circuit, IntegrationMethod, Waveform};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const WARM_UP: u64 = 20;
const MEASURED: u64 = 500;

/// A sine of 64 samples per period at 1 µs, scaled by an optional gain
/// input.
struct Source {
    gain: Option<TdfIn>,
    out: TdfOut,
    k: u64,
}

impl TdfModule for Source {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        if let Some(gain) = self.gain {
            cfg.input(gain);
        }
        cfg.output(self.out);
        cfg.set_timestep(SimTime::from_us(1));
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let gain = self.gain.map_or(1.0, |g| io.read1(g));
        let phase = 2.0 * std::f64::consts::PI * self.k as f64 / 64.0;
        io.write1(self.out, gain * phase.sin());
        self.k += 1;
        Ok(())
    }
}

/// 4:1 decimator that adds half of a delay-1 feedback input:
/// `y = mean(x[4n..4n+4]) + fb[n-1] / 2`.
struct Decimate {
    inp: TdfIn,
    fb: TdfIn,
    out: TdfOut,
}

impl TdfModule for Decimate {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.input_with(self.inp, 4, 0);
        cfg.input_with(self.fb, 1, 1);
        cfg.output(self.out);
    }

    fn initialize(&mut self, init: &mut TdfInit<'_>) -> Result<(), CoreError> {
        init.set_initial(self.fb, 0, 0.25);
        Ok(())
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let mean = (0..4).map(|k| io.read(self.inp, k)).sum::<f64>() / 4.0;
        let y = mean + 0.5 * io.read1(self.fb);
        io.write1(self.out, y);
        Ok(())
    }
}

/// Closes the feedback loop: `fb = 0.9 · y`.
struct Feedback {
    inp: TdfIn,
    out: TdfOut,
}

impl TdfModule for Feedback {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.input(self.inp);
        cfg.output(self.out);
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let y = io.read1(self.inp);
        io.write1(self.out, 0.9 * y);
        Ok(())
    }
}

/// An RC line (τ = 10 µs) whose source is driven from TDF.
fn rc_line() -> NetlistCtSolver {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    let inp = ckt.external_input();
    ckt.voltage_source_wave("V", a, Circuit::GROUND, Waveform::External(inp))
        .unwrap();
    ckt.resistor("R", a, out, 1e3).unwrap();
    ckt.capacitor("C", out, Circuit::GROUND, 10e-9).unwrap();
    NetlistCtSolver::new(&ckt, IntegrationMethod::Trapezoidal, vec![inp], vec![out]).unwrap()
}

/// A 20 kHz biquad low-pass.
fn low_pass() -> LtiCtSolver {
    let w0 = 2.0 * std::f64::consts::PI * 20e3;
    let tf = TransferFunction::low_pass2(w0, 0.707).unwrap();
    LtiCtSolver::from_transfer_function(&tf, Discretization::Bilinear).unwrap()
}

/// The probe-free chain: source → RC line (netlist) → low-pass (LTI) →
/// 4:1 decimator with a delay-1 feedback loop. With `de = (gain, out)`
/// the source's gain comes from the kernel signal `gain` and the
/// decimated output goes to the kernel signal `out`.
fn chain(de: Option<(Signal<f64>, Signal<f64>)>) -> TdfGraph {
    let mut g = TdfGraph::new("chain");
    let gain = de.map(|(gain, _)| g.from_de("gain", gain));
    let u = g.signal("u");
    let v = g.signal("v");
    let w = g.signal("w");
    let y = g.signal("y");
    let fb = g.signal("fb");
    g.add_module(
        "src",
        Source {
            gain: gain.map(|s| s.reader()),
            out: u.writer(),
            k: 0,
        },
    );
    g.add_module(
        "line",
        CtModule::new(
            "line",
            Box::new(rc_line()),
            vec![u.reader()],
            vec![v.writer()],
            None,
        ),
    );
    g.add_module(
        "filter",
        CtModule::new(
            "filter",
            Box::new(low_pass()),
            vec![v.reader()],
            vec![w.writer()],
            None,
        ),
    );
    g.add_module(
        "decimate",
        Decimate {
            inp: w.reader(),
            fb: fb.reader(),
            out: y.writer(),
        },
    );
    g.add_module(
        "feedback",
        Feedback {
            inp: y.reader(),
            out: fb.writer(),
        },
    );
    if let Some((_, out)) = de {
        g.to_de("out", y, out);
    }
    g
}

#[test]
fn standalone_iteration_does_not_allocate() {
    let mut c = chain(None).elaborate().unwrap();
    assert_eq!(c.period(), SimTime::from_us(4));
    c.run_standalone(WARM_UP).unwrap();
    let n = allocations_in(|| c.run_standalone(MEASURED).unwrap());
    assert_eq!(n, 0, "{n} allocations in {MEASURED} standalone iterations");
    assert_eq!(c.stats().factorizations, 1);
}

#[test]
fn kernel_driven_iteration_does_not_allocate() {
    let mut sim = AmsSimulator::new();
    let gain = sim.kernel_mut().signal("gain", 1.0f64);
    let out = sim.kernel_mut().signal("out", 0.0f64);
    // A DE controller that reacts to every converted sample.
    let ctl = sim.kernel_mut().add_process("ctl", move |ctx| {
        let y = ctx.read(out);
        ctx.write(gain, 1.0 + 0.1 * y.tanh());
    });
    let changed = sim.kernel().signal_event(out);
    sim.kernel_mut().make_sensitive(ctl, changed);
    let cluster = sim.add_cluster(chain(Some((gain, out)))).unwrap();
    let period = cluster.period();
    sim.run_until(period * WARM_UP).unwrap();
    let n = allocations_in(|| sim.run_until(period * (WARM_UP + MEASURED)).unwrap());
    assert_eq!(
        n, 0,
        "{n} allocations in {MEASURED} kernel-driven iterations"
    );
    // `run_until` is horizon-inclusive.
    assert_eq!(cluster.iterations(), WARM_UP + MEASURED + 1);
    assert!(sim.kernel().stats().activations > 3 * (WARM_UP + MEASURED));
}
