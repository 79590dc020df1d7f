//! Pins the memory of the sweep-space proof: `lint_space` proves a long
//! RC ladder nonsingular (SPC002) with a peak live heap linear in the
//! unknown count. A dense evaluation, with two n×n interval matrices,
//! cannot stay under the bound.
//!
//! A counting global allocator tracks live and peak bytes per thread,
//! so the harness's other threads do not disturb the reading.

use ams_lint::{codes, lint_space, ParamRange, SpaceBind, SpaceSpec, SpaceTarget, Verdict};
use ams_net::Circuit;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are const-initialised thread-local `Cell`s and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most bytes `f` held live on this thread at once, beyond what was
/// live when it started.
fn peak_live_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

const STAGES: usize = 300;
/// Unknowns of the ladder: every stage node, the source node and the
/// source's branch current.
const UNKNOWNS: usize = STAGES + 2;
/// The bound: 2 KiB per unknown, about 0.6 MB here. One n×n matrix of
/// intervals alone is 16·n² bytes, about 1.46 MB.
const BYTES_PER_UNKNOWN: usize = 2048;

#[test]
fn spc002_proof_of_a_long_ladder_holds_linear_memory() {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("n0");
    ckt.voltage_source("Vin", prev, Circuit::GROUND, 1.0)
        .unwrap();
    for k in 0..STAGES {
        let next = ckt.node(format!("n{}", k + 1));
        ckt.resistor(format!("R{k}"), prev, next, 100.0).unwrap();
        ckt.capacitor(format!("C{k}"), next, Circuit::GROUND, 1e-9)
            .unwrap();
        prev = next;
    }
    let spec = SpaceSpec::new(
        vec![ParamRange::new("dr", -0.05, 0.05)],
        vec![SpaceBind {
            param: "dr".into(),
            element: "R0".into(),
            target: SpaceTarget::Resistance,
            relative: true,
            nominal: 100.0,
        }],
    )
    .requested_h(10e-9);

    let (rep, peak) = peak_live_in(|| lint_space("space_alloc", &ckt, &spec));
    assert_eq!(
        rep.verdict(codes::SPC002),
        Some(&Verdict::ProvedSafe),
        "{}",
        rep.render()
    );
    let bound = BYTES_PER_UNKNOWN * UNKNOWNS;
    assert!(
        peak <= bound,
        "lint_space held {peak} bytes live at its peak; the linear bound is {bound}"
    );
}
