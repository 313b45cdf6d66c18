//! The workspace's one FNV-1a implementation.
//!
//! Every persistent digest — database/index/WAL frame checksums, database
//! and cache-key fingerprints, the arena's structural self-fingerprints,
//! the server's cache-shard pick — folds through this hasher, so the
//! constants and the byte order are defined exactly once. The digests are
//! part of the on-disk formats: changing anything here invalidates every
//! saved artifact.

/// Streaming FNV-1a 64-bit hasher (checksums and fingerprints) —
/// deterministic across platforms.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The standard FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Continues from a digest an earlier [`Fnv64::finish`] returned (the
    /// FNV-1a state *is* its digest), so one fingerprint can extend
    /// another.
    #[inline]
    pub fn resume(digest: u64) -> Self {
        Fnv64(digest)
    }

    /// Absorbs raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_u64_is_the_little_endian_byte_fold_and_resume_continues_it() {
        let mut a = Fnv64::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv64::new();
        b.write(&[8, 7, 6, 5]);
        let mut b = Fnv64::resume(b.finish());
        b.write(&[4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}
