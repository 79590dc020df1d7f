//! Minimal SIGTERM/SIGINT latching without a libc crate.
//!
//! The build environment is sealed, so there is no `libc` or
//! `signal-hook` to lean on. Instead the module declares the one libc
//! symbol it needs — `signal(2)` — in an `extern "C"` block; the
//! symbol resolves against the C library std already links. The
//! handler does the only thing an async-signal-safe handler may do
//! here: store to a static atomic, which the daemon's accept loop
//! polls between accepts.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

static STOP: AtomicBool = AtomicBool::new(false);

extern "C" {
    /// `signal(2)` from the platform C library (already linked by
    /// std). Returns the previous handler, `SIG_ERR` on failure.
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: a single relaxed atomic store.
    STOP.store(true, Ordering::Relaxed);
}

/// Installs SIGTERM and SIGINT handlers that latch the process-global
/// stop flag, and returns that flag for [`crate::daemon::serve`] to
/// poll. Idempotent.
pub fn install_stop_flag() -> &'static AtomicBool {
    // SAFETY: `signal` is the C library's documented interface for
    // installing a handler, and `on_signal` is an `extern "C"` fn that
    // only performs an atomic store — async-signal-safe by POSIX.
    let handler = on_signal as extern "C" fn(i32);
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
    }
    &STOP
}
