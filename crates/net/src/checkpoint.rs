//! Serializable transient-solver snapshots for copy-on-write forking.
//!
//! A [`Checkpoint`] freezes everything a
//! [`TransientSolver`](crate::TransientSolver) needs to continue a run
//! bit-identically:
//! the MNA solution vector, simulation time, per-element companion
//! history, switch states, external inputs, the backward-Euler damping
//! counter, the accumulated step counters and the adaptive controller's
//! current step proposal. It deliberately does **not** capture:
//!
//! * the factored system matrix — forked solvers refactor on their
//!   first step (adopt a [`SymbolicFactor`](crate::SymbolicFactor) to
//!   make that a numeric refactor), which only perturbs
//!   fingerprint-excluded *policy* counters;
//! * the linear-solver `SolveStats` — policy counters by the same
//!   argument;
//! * the circuit itself — a checkpoint restores into any solver over a
//!   **value-variant of the same topology** (same unknown/element/
//!   input/switch counts); restoring asserts the dimensions match.
//!
//! The wire format ([`Checkpoint::to_bytes`]) is a versioned
//! little-endian binary layout with no external dependencies, so
//! checkpoints can be held in byte-budgeted caches (`ams-serve`'s
//! topology cache) or shipped across processes.

use crate::NetError;
use crate::TransientStats;

/// Magic + version tag leading every serialized checkpoint.
const MAGIC: &[u8; 8] = b"AMSCKP01";

/// A frozen transient-solver state: the fork point of prefix-shared
/// sweeps and the suspend point of restartable service jobs.
///
/// Produced by the scalar engine's
/// [`checkpoint`](crate::Transient::checkpoint), consumed by
/// [`restore_checkpoint`](crate::Transient::restore_checkpoint) on an
/// engine of any lane width (a `K`-lane engine receives it in every
/// lane). Cloning is cheap
/// relative to a solve (a few `Vec<f64>` clones) — the copy-on-write
/// idiom is "clone the checkpoint, restore into a fresh solver per
/// fork".
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// MNA solution vector (node voltages + branch currents).
    pub(crate) x: Vec<f64>,
    /// Simulation time in seconds.
    pub(crate) time: f64,
    /// External source input values.
    pub(crate) ext: Vec<f64>,
    /// Switch states, one per circuit element slot.
    pub(crate) switches: Vec<bool>,
    /// Per-element companion history `(v, i)`.
    pub(crate) state: Vec<(f64, f64)>,
    /// Steps still forced to backward Euler.
    pub(crate) force_be: u32,
    /// Accumulated step counters at the fork point. `solve` is *not*
    /// serialized (policy counters, excluded from report fingerprints).
    pub(crate) stats: TransientStats,
    /// The adaptive controller's next step proposal, when the solver
    /// was checkpointed mid-adaptive-run.
    pub(crate) adaptive_h: Option<f64>,
    /// Whether the solver had computed its initial condition.
    pub(crate) initialized: bool,
}

impl Checkpoint {
    /// Simulation time of the fork point, in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of MNA unknowns captured (restore requires an identical
    /// layout).
    pub fn dim(&self) -> usize {
        self.x.len()
    }

    /// Step counters at the fork point (restored into the fork so a
    /// continued run accumulates to run-from-zero totals).
    pub fn stats(&self) -> TransientStats {
        self.stats
    }

    /// Estimated resident size in bytes — the currency of byte-budgeted
    /// checkpoint caches, not an exact allocation count.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Checkpoint>()
            + self.x.len() * 8
            + self.ext.len() * 8
            + self.switches.len()
            + self.state.len() * 16
    }

    /// Serializes to the versioned little-endian wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.approx_bytes() + 64);
        out.extend_from_slice(MAGIC);
        let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        let push_f64 = |out: &mut Vec<u8>, v: f64| out.extend_from_slice(&v.to_le_bytes());
        push_u64(&mut out, self.x.len() as u64);
        push_u64(&mut out, self.ext.len() as u64);
        push_u64(&mut out, self.switches.len() as u64);
        push_u64(&mut out, self.state.len() as u64);
        push_f64(&mut out, self.time);
        out.extend_from_slice(&self.force_be.to_le_bytes());
        out.push(u8::from(self.initialized));
        match self.adaptive_h {
            Some(h) => {
                out.push(1);
                push_f64(&mut out, h);
            }
            None => {
                out.push(0);
                push_f64(&mut out, 0.0);
            }
        }
        push_u64(&mut out, self.stats.steps);
        push_u64(&mut out, self.stats.rejected);
        push_u64(&mut out, self.stats.newton_iterations);
        push_u64(&mut out, self.stats.factorizations);
        for &v in &self.x {
            push_f64(&mut out, v);
        }
        for &v in &self.ext {
            push_f64(&mut out, v);
        }
        for &(v, i) in &self.state {
            push_f64(&mut out, v);
            push_f64(&mut out, i);
        }
        for &s in &self.switches {
            out.push(u8::from(s));
        }
        out
    }

    /// Deserializes a checkpoint produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidValue`] on a bad magic/version tag or a
    /// truncated buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, NetError> {
        let bad = |reason: &str| NetError::InvalidValue {
            element: "checkpoint".to_string(),
            reason: reason.to_string(),
        };
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.take(8).ok_or_else(|| bad("truncated header"))? != MAGIC {
            return Err(bad("bad magic/version tag"));
        }
        let n_x = cur.u64().ok_or_else(|| bad("truncated header"))? as usize;
        let n_ext = cur.u64().ok_or_else(|| bad("truncated header"))? as usize;
        let n_sw = cur.u64().ok_or_else(|| bad("truncated header"))? as usize;
        let n_state = cur.u64().ok_or_else(|| bad("truncated header"))? as usize;
        let time = cur.f64().ok_or_else(|| bad("truncated header"))?;
        let force_be = cur.u32().ok_or_else(|| bad("truncated header"))?;
        let initialized = cur.u8().ok_or_else(|| bad("truncated header"))? != 0;
        let has_h = cur.u8().ok_or_else(|| bad("truncated header"))? != 0;
        let h = cur.f64().ok_or_else(|| bad("truncated header"))?;
        let stats = TransientStats {
            steps: cur.u64().ok_or_else(|| bad("truncated stats"))?,
            rejected: cur.u64().ok_or_else(|| bad("truncated stats"))?,
            newton_iterations: cur.u64().ok_or_else(|| bad("truncated stats"))?,
            factorizations: cur.u64().ok_or_else(|| bad("truncated stats"))?,
            ..Default::default()
        };
        // Validate the declared lengths against the remaining payload
        // BEFORE allocating: a hostile length field must produce an
        // error, not an out-of-memory abort.
        let need = n_x
            .checked_mul(8)
            .and_then(|a| n_ext.checked_mul(8).and_then(|b| a.checked_add(b)))
            .and_then(|a| n_state.checked_mul(16).and_then(|b| a.checked_add(b)))
            .and_then(|a| a.checked_add(n_sw))
            .ok_or_else(|| bad("length overflow"))?;
        if bytes.len() - cur.pos != need {
            return Err(bad("payload length mismatch"));
        }
        let mut x = Vec::with_capacity(n_x);
        for _ in 0..n_x {
            x.push(cur.f64().ok_or_else(|| bad("truncated solution vector"))?);
        }
        let mut ext = Vec::with_capacity(n_ext);
        for _ in 0..n_ext {
            ext.push(cur.f64().ok_or_else(|| bad("truncated inputs"))?);
        }
        let mut state = Vec::with_capacity(n_state);
        for _ in 0..n_state {
            let v = cur.f64().ok_or_else(|| bad("truncated element state"))?;
            let i = cur.f64().ok_or_else(|| bad("truncated element state"))?;
            state.push((v, i));
        }
        let mut switches = Vec::with_capacity(n_sw);
        for _ in 0..n_sw {
            switches.push(cur.u8().ok_or_else(|| bad("truncated switches"))? != 0);
        }
        Ok(Checkpoint {
            x,
            time,
            ext,
            switches,
            state,
            force_be,
            stats,
            adaptive_h: has_h.then_some(h),
            initialized,
        })
    }
}

/// Minimal byte-slice reader for [`Checkpoint::from_bytes`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            x: vec![1.5, -2.25, 0.0],
            time: 3.5e-6,
            ext: vec![0.75],
            switches: vec![true, false],
            state: vec![(0.5, -0.125), (0.0, 0.0)],
            force_be: 1,
            stats: TransientStats {
                steps: 42,
                rejected: 3,
                newton_iterations: 42,
                factorizations: 2,
                ..Default::default()
            },
            adaptive_h: Some(1e-9),
            initialized: true,
        }
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let cp = sample();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
        // And bit-stable: serializing the round-tripped checkpoint
        // reproduces the same bytes.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn none_adaptive_h_round_trips() {
        let mut cp = sample();
        cp.adaptive_h = None;
        let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(back.adaptive_h, None);
        assert_eq!(cp, back);
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicked() {
        assert!(Checkpoint::from_bytes(b"").is_err());
        assert!(Checkpoint::from_bytes(b"WRONGMAG").is_err());
        let mut bytes = sample().to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Checkpoint::from_bytes(&bytes).is_err());
        // A length field pointing past the buffer must error, not
        // allocate or slice out of bounds.
        let mut huge = sample().to_bytes();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Checkpoint::from_bytes(&huge).is_err());
    }

    #[test]
    fn approx_bytes_tracks_payload() {
        let cp = sample();
        assert!(cp.approx_bytes() >= 3 * 8 + 8 + 2 + 2 * 16);
    }
}
