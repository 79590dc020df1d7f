//! Wait-free single-producer single-consumer sample FIFOs.
//!
//! Converter streams that cross an execution boundary — a worker thread
//! feeding the coordinator, or one cluster feeding another inside a
//! partition — move timestamped samples through these rings instead of a
//! mutex-protected queue. The implementation is plain safe Rust: each
//! slot is a pair of `AtomicU64`s (femtosecond timestamp, `f64` bit
//! pattern) and the head/tail indices publish slots with release stores
//! and consume them with acquire loads, which is the entire SPSC
//! protocol. Capacity is rounded up to a power of two so the index
//! arithmetic is a mask.
//!
//! The producer half implements [`SampleSink`] and the consumer half
//! [`SampleSource`], so the two ends plug directly into
//! [`TdfGraph::to_sink`](ams_core::TdfGraph::to_sink) and
//! [`TdfGraph::from_source`](ams_core::TdfGraph::from_source).

use ams_core::{SampleSink, SampleSource};
use ams_kernel::SimTime;
// Under `--features loom` the ring is built on the loom model-checked
// atomics so its push/pop protocol can be exhaustively interleaved; see
// `tests/loom_spsc.rs`.
#[cfg(feature = "loom")]
use loom::sync::{
    atomic::{AtomicU64, AtomicUsize, Ordering},
    Arc,
};
#[cfg(not(feature = "loom"))]
use std::sync::{
    atomic::{AtomicU64, AtomicUsize, Ordering},
    Arc,
};

struct RingShared {
    times: Vec<AtomicU64>,
    values: Vec<AtomicU64>,
    /// Next slot the consumer will read. Only the consumer stores it.
    head: AtomicUsize,
    /// Next slot the producer will write. Only the producer stores it.
    tail: AtomicUsize,
    /// Highest occupancy ever observed by the producer.
    high_water: AtomicUsize,
    mask: usize,
}

/// Producer half of an SPSC sample ring. Not clonable: exactly one
/// producer exists per ring.
pub struct RingProducer {
    shared: Arc<RingShared>,
}

/// Consumer half of an SPSC sample ring. Pops samples in FIFO order;
/// as a [`SampleSource`] it zero-order-holds the last popped value when
/// the ring is momentarily empty.
pub struct RingConsumer {
    shared: Arc<RingShared>,
    last: f64,
}

/// Creates a ring with room for `capacity` samples (rounded up to a
/// power of two, minimum 2). Size it for one synchronization window's
/// worth of production: the consumer only drains between barriers.
///
/// # Panics
///
/// Panics on a zero capacity.
pub fn ring(capacity: usize) -> (RingProducer, RingConsumer) {
    assert!(capacity > 0, "spsc ring capacity must be non-zero");
    let cap = capacity.next_power_of_two().max(2);
    let shared = Arc::new(RingShared {
        times: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        values: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        high_water: AtomicUsize::new(0),
        mask: cap - 1,
    });
    (
        RingProducer {
            shared: shared.clone(),
        },
        RingConsumer { shared, last: 0.0 },
    )
}

impl RingShared {
    fn capacity(&self) -> usize {
        self.mask + 1
    }
}

/// Read-only observer of a ring's occupancy, detached from both halves —
/// the instrumentation layer holds these after the producer and consumer
/// have moved into their clusters.
#[derive(Clone)]
pub struct RingMonitor {
    shared: Arc<RingShared>,
}

impl RingMonitor {
    /// Samples currently in flight (approximate under concurrency).
    pub fn len(&self) -> usize {
        let s = &self.shared;
        s.tail
            .load(Ordering::Acquire)
            .wrapping_sub(s.head.load(Ordering::Acquire))
    }

    /// `true` when no samples are in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest occupancy ever reached.
    pub fn high_water(&self) -> usize {
        self.shared.high_water.load(Ordering::Relaxed)
    }
}

impl RingProducer {
    /// Attempts to enqueue a sample; fails (returning it back) when the
    /// ring is full.
    pub fn try_push(&mut self, t: SimTime, value: f64) -> Result<(), (SimTime, f64)> {
        let s = &self.shared;
        let tail = s.tail.load(Ordering::Relaxed);
        let head = s.head.load(Ordering::Acquire);
        let occupancy = tail.wrapping_sub(head);
        if occupancy == s.capacity() {
            return Err((t, value));
        }
        let slot = tail & s.mask;
        s.times[slot].store(t.as_fs(), Ordering::Relaxed);
        s.values[slot].store(value.to_bits(), Ordering::Relaxed);
        // Publish the slot: everything stored above happens-before any
        // consumer that acquires this tail value.
        s.tail.store(tail.wrapping_add(1), Ordering::Release);
        let occ = occupancy + 1;
        if occ > s.high_water.load(Ordering::Relaxed) {
            s.high_water.store(occ, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Samples currently in flight (approximate under concurrency).
    pub fn len(&self) -> usize {
        let s = &self.shared;
        s.tail
            .load(Ordering::Relaxed)
            .wrapping_sub(s.head.load(Ordering::Acquire))
    }

    /// `true` when no samples are in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Highest occupancy ever reached.
    pub fn high_water(&self) -> usize {
        self.shared.high_water.load(Ordering::Relaxed)
    }

    /// A detached occupancy observer for this ring.
    pub fn monitor(&self) -> RingMonitor {
        RingMonitor {
            shared: self.shared.clone(),
        }
    }
}

impl SampleSink for RingProducer {
    /// Pushes a sample, panicking if the ring stays full: the consumer
    /// drains only at synchronization barriers, so a full ring means the
    /// capacity is too small for one window — failing loudly beats
    /// deadlocking the worker.
    fn push(&mut self, t: SimTime, value: f64) {
        if self.try_push(t, value).is_err() {
            panic!(
                "spsc ring overflow: capacity {} cannot hold one synchronization \
                 window of samples; create the ring with a larger capacity",
                self.capacity()
            );
        }
    }
}

impl RingConsumer {
    /// Dequeues the oldest sample, if any.
    pub fn try_pop(&mut self) -> Option<(SimTime, f64)> {
        let s = &self.shared;
        let head = s.head.load(Ordering::Relaxed);
        let tail = s.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = head & s.mask;
        let t = SimTime::from_fs(s.times[slot].load(Ordering::Relaxed));
        let v = f64::from_bits(s.values[slot].load(Ordering::Relaxed));
        // Release the slot back to the producer.
        s.head.store(head.wrapping_add(1), Ordering::Release);
        self.last = v;
        Some((t, v))
    }

    /// Samples currently in flight (approximate under concurrency).
    pub fn len(&self) -> usize {
        let s = &self.shared;
        s.tail
            .load(Ordering::Acquire)
            .wrapping_sub(s.head.load(Ordering::Relaxed))
    }

    /// `true` when no samples are in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest occupancy ever reached.
    pub fn high_water(&self) -> usize {
        self.shared.high_water.load(Ordering::Relaxed)
    }
}

impl SampleSource for RingConsumer {
    /// Pops the next sample value; when the ring is momentarily empty the
    /// last value is held (zero-order hold), mirroring DE converter-port
    /// sampling semantics.
    fn pull(&mut self) -> f64 {
        match self.try_pop() {
            Some((_, v)) => v,
            None => self.last,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_emptiness() {
        let (mut tx, mut rx) = ring(4);
        assert!(rx.try_pop().is_none());
        tx.push(SimTime::from_ns(1), 1.0);
        tx.push(SimTime::from_ns(2), 2.0);
        assert_eq!(rx.try_pop(), Some((SimTime::from_ns(1), 1.0)));
        assert_eq!(rx.try_pop(), Some((SimTime::from_ns(2), 2.0)));
        assert!(rx.try_pop().is_none());
    }

    #[test]
    fn full_ring_rejects_then_accepts() {
        let (mut tx, mut rx) = ring(2);
        assert!(tx.try_push(SimTime::ZERO, 0.0).is_ok());
        assert!(tx.try_push(SimTime::ZERO, 1.0).is_ok());
        assert_eq!(tx.try_push(SimTime::ZERO, 2.0), Err((SimTime::ZERO, 2.0)));
        assert_eq!(rx.try_pop(), Some((SimTime::ZERO, 0.0)));
        assert!(tx.try_push(SimTime::ZERO, 2.0).is_ok());
        assert_eq!(tx.high_water(), 2);
    }

    #[test]
    fn wrap_around_preserves_order() {
        let (mut tx, mut rx) = ring(4);
        // Drive the indices far past the capacity to exercise wrapping.
        for i in 0..1000u64 {
            tx.push(SimTime::from_fs(i), i as f64);
            tx.push(SimTime::from_fs(i), i as f64 + 0.5);
            assert_eq!(rx.try_pop(), Some((SimTime::from_fs(i), i as f64)));
            assert_eq!(rx.try_pop(), Some((SimTime::from_fs(i), i as f64 + 0.5)));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn zero_order_hold_on_empty() {
        let (mut tx, mut rx) = ring(4);
        assert_eq!(rx.pull(), 0.0);
        tx.push(SimTime::from_ns(1), 3.25);
        assert_eq!(rx.pull(), 3.25);
        assert_eq!(rx.pull(), 3.25); // held
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = ring(5);
        assert_eq!(tx.capacity(), 8);
    }

    #[test]
    fn threaded_stress_preserves_every_sample() {
        let (mut tx, mut rx) = ring(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut item = (SimTime::from_fs(i), i as f64);
                loop {
                    match tx.try_push(item.0, item.1) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            tx.high_water()
        });
        let mut next = 0u64;
        while next < N {
            match rx.try_pop() {
                Some((t, v)) => {
                    assert_eq!(t, SimTime::from_fs(next));
                    assert_eq!(v, next as f64);
                    next += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        let hw = producer.join().expect("producer panicked");
        assert!(hw <= 64);
        assert!(rx.is_empty());
    }
}
