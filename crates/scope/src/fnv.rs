//! FNV-1a, the one hash behind every report, job and topology
//! fingerprint in the workspace: small, stable across platforms and
//! releases, and dependency-free.

/// A 64-bit FNV-1a hasher. It hashes exactly the bytes it is given, so
/// a caller that hashes variable-length fields back to back writes
/// their lengths itself.
///
/// ```
/// use ams_scope::fnv::Fnv;
/// let mut h = Fnv::new();
/// h.bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Hashes the eight little-endian bytes of `v`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything hashed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}
