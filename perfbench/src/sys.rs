//! Process-level readings: peak resident memory and CPU time.

use std::time::Duration;

/// Peak resident set size of this process in MiB (`VmHWM` in
/// `/proc/self/status`), or `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals followed by
/// fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time this process has used so far, summed over
/// all its threads.
pub fn cpu_time() -> Duration {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout
    // of this target; getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&ru.utime) + us(&ru.stime))
}
