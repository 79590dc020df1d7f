//! Thread-safe converter-port primitives.
//!
//! A cluster's converter ports ([`crate::TdfGraph::from_de`] /
//! [`crate::TdfGraph::to_de`]) reach the DE kernel through the two
//! types here. They are `Send + Sync`, so a cluster stays `Send` and
//! [`crate::AmsSimulator`] can run clusters without converter ports on
//! worker threads:
//!
//! * [`SharedSample`] — an atomic, lock-free `f64` cell (the DE→TDF
//!   latch: the synchronization layer stores the kernel signal's value,
//!   the cluster samples it at activation);
//! * [`SampleQueue`] — a mutex-guarded queue of `(time, value)` samples
//!   (the TDF→DE direction: the cluster enqueues each sample with its
//!   exact time, a kernel process replays them).

use ams_kernel::SimTime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A lock-free shared `f64` cell (bit-cast through `AtomicU64`).
///
/// Clones share storage. Reads and writes are single atomic operations —
/// a reader never observes a torn value.
#[derive(Debug, Clone, Default)]
pub struct SharedSample {
    bits: Arc<AtomicU64>,
}

impl SharedSample {
    /// Creates a cell holding `value`.
    pub fn new(value: f64) -> Self {
        SharedSample {
            bits: Arc::new(AtomicU64::new(value.to_bits())),
        }
    }

    /// Reads the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Replaces the value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Release);
    }
}

/// A shared queue of timestamped samples crossing the TDF→DE boundary.
pub type SampleQueue = Arc<Mutex<VecDeque<(SimTime, f64)>>>;

/// Creates an empty [`SampleQueue`].
pub fn sample_queue() -> SampleQueue {
    Arc::new(Mutex::new(VecDeque::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_sample_roundtrip() {
        let cell = SharedSample::new(1.5);
        assert_eq!(cell.get(), 1.5);
        cell.set(-2.25);
        assert_eq!(cell.get(), -2.25);
        let clone = cell.clone();
        clone.set(7.0);
        assert_eq!(cell.get(), 7.0);
    }

    #[test]
    fn shared_sample_is_exact_across_threads() {
        let cell = SharedSample::new(0.0);
        let writer = cell.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..10_000 {
                writer.set(i as f64);
            }
        });
        // Any observed value must be one that was actually written.
        for _ in 0..10_000 {
            let v = cell.get();
            assert_eq!(v, v.trunc());
            assert!((0.0..10_000.0).contains(&v));
        }
        handle.join().unwrap();
    }
}
