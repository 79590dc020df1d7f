//! Pins the allocation-free transient step: once an engine is warm
//! (system built, pattern recorded, factors cached), an accepted step
//! makes no heap allocation, on the linear fast path and on the Newton
//! path, at one lane and at eight.
//!
//! A counting global allocator counts per thread, so the harness's
//! parallel tests do not see each other's allocations.

use ams_monitor::{MonitorBank, MonitorSpec};
use ams_net::{
    Circuit, IntegrationMethod, LaneTransientSolver, NodeId, SolverBackend, TransientSolver,
    Waveform,
};
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

/// A power-of-two step, so every step of `run` has exactly this size.
const H: f64 = 1.0 / 1_048_576.0;
const WARM_UP: usize = 20;
const MEASURED: usize = 100;

/// Four RC sections and a load behind a sine source (6 unknowns), with
/// an optional diode clamp on the output that puts every step on the
/// Newton path. `r` is the series resistance of every section.
fn ladder(r: f64, clamp: bool) -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    let sine = Waveform::Sine {
        offset: 0.0,
        ampl: 2.0,
        freq: 1e4,
        phase: 0.0,
    };
    ckt.voltage_source_wave("V", prev, Circuit::GROUND, sine)
        .unwrap();
    for i in 0..4 {
        let node = ckt.node(format!("n{i}"));
        ckt.resistor(format!("R{i}"), prev, node, r).unwrap();
        ckt.capacitor(format!("C{i}"), node, Circuit::GROUND, 1e-9)
            .unwrap();
        prev = node;
    }
    ckt.resistor("Rload", prev, Circuit::GROUND, 10e3).unwrap();
    if clamp {
        ckt.diode("D", prev, Circuit::GROUND, 1e-14, 1.0).unwrap();
    }
    (ckt, prev)
}

fn scalar_engine(clamp: bool, backend: SolverBackend) -> TransientSolver {
    let (ckt, _) = ladder(1e3, clamp);
    let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
    tr.backend = backend;
    tr
}

/// Warms `step` up, then counts the allocations of the next steps.
fn allocations_per_measured_steps(mut step: impl FnMut()) -> u64 {
    for _ in 0..WARM_UP {
        step();
    }
    allocations_in(|| {
        for _ in 0..MEASURED {
            step();
        }
    })
}

#[test]
fn sparse_linear_step_does_not_allocate() {
    let mut tr = scalar_engine(false, SolverBackend::Sparse);
    let n = allocations_per_measured_steps(|| tr.step(H).unwrap());
    assert_eq!(n, 0, "{n} allocations in {MEASURED} sparse linear steps");
    assert_eq!(tr.stats().factorizations, 1);
}

#[test]
fn dense_linear_step_does_not_allocate() {
    let mut tr = scalar_engine(false, SolverBackend::Dense);
    let n = allocations_per_measured_steps(|| tr.step(H).unwrap());
    assert_eq!(n, 0, "{n} allocations in {MEASURED} dense linear steps");
    assert_eq!(tr.stats().factorizations, 1);
}

#[test]
fn monitored_run_does_not_allocate_per_step() {
    let (ckt, out) = ladder(1e3, false);
    let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
    tr.backend = SolverBackend::Sparse;
    let spec = MonitorSpec::parse("bounded:envelope(lo=-2.5,hi=2.5)@out").unwrap();
    tr.attach_monitors(MonitorBank::new(&spec), &[out]);
    tr.run(WARM_UP as f64 * H, H, |_| {}).unwrap();
    let t_end = (WARM_UP + MEASURED) as f64 * H;
    let n = allocations_in(|| tr.run(t_end, H, |_| {}).unwrap());
    assert_eq!(
        n, 0,
        "{n} allocations in a monitored run of {MEASURED} steps"
    );
    assert_eq!(tr.stats().steps, (WARM_UP + MEASURED) as u64);
    assert_eq!(
        tr.monitor_bank().unwrap().samples(),
        (WARM_UP + MEASURED) as u64
    );
}

#[test]
fn scalar_newton_step_does_not_allocate() {
    let mut tr = scalar_engine(true, SolverBackend::Sparse);
    let n = allocations_per_measured_steps(|| tr.step(H).unwrap());
    assert_eq!(n, 0, "{n} allocations in {MEASURED} scalar Newton steps");
    assert!(tr.stats().newton_iterations > (WARM_UP + MEASURED) as u64);
}

#[test]
fn lane_newton_step_does_not_allocate() {
    let circuits: Vec<Circuit> = (0..8)
        .map(|l| ladder(1e3 * (1.0 + 0.05 * l as f64), true).0)
        .collect();
    let mut tr = LaneTransientSolver::<8>::new(&circuits, IntegrationMethod::Trapezoidal).unwrap();
    tr.backend = SolverBackend::Sparse;
    let n = allocations_per_measured_steps(|| tr.step(H).unwrap());
    assert_eq!(n, 0, "{n} allocations in {MEASURED} 8-lane Newton steps");
    assert!(tr.active_lanes().iter().all(|&live| live));
}
