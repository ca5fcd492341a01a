//! Stable content hashing for the stage cache.
//!
//! The cache is *content-addressed*: a stage result is filed under a
//! 128-bit key derived from the canonical bytes of everything that
//! determines it — the stage tag, the canonicalized input, the seed and
//! the size limit. The hash must therefore be a pure function
//! of those bytes, stable across processes, platforms and releases
//! (unlike `std`'s `DefaultHasher`, whose output is explicitly
//! unspecified). Two independent FNV-1a lanes with distinct offset
//! bases give a cheap, dependency-free 128-bit digest; at the cache
//! sizes this daemon bounds itself to (hundreds to thousands of
//! entries), accidental collisions are out of reach.

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Standard FNV-1a 64-bit offset basis (lane 0).
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;

/// Second-lane offset basis: the standard basis folded through one
/// round with a fixed tweak byte, so the lanes never start equal.
const FNV_OFFSET_B: u64 = (FNV_OFFSET_A ^ 0xa5).wrapping_mul(FNV_PRIME);

/// One-shot FNV-1a 64 over a byte slice (lane 0 only).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET_A;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A 128-bit content key, ordered so it can index a `BTreeMap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key(pub [u64; 2]);

impl Key {
    /// Hex rendering (32 lowercase digits) for stats dumps and logs.
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Incremental two-lane FNV-1a hasher producing a [`Key`].
///
/// Field framing: every variable-length field is written through
/// [`StableHasher::write_bytes`], which prefixes the length, so
/// `("ab", "c")` and `("a", "bc")` never collide structurally.
#[derive(Debug, Clone)]
pub struct StableHasher {
    lanes: [u64; 2],
}

impl StableHasher {
    /// A fresh hasher with both lane bases.
    pub fn new() -> Self {
        StableHasher {
            lanes: [FNV_OFFSET_A, FNV_OFFSET_B],
        }
    }

    fn mix(&mut self, b: u8) {
        for lane in &mut self.lanes {
            *lane = (*lane ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one raw byte (no framing).
    pub fn write_u8(&mut self, v: u8) {
        self.mix(v);
    }

    /// Absorbs a `u32` as 4 big-endian bytes.
    pub fn write_u32(&mut self, v: u32) {
        for b in v.to_be_bytes() {
            self.mix(b);
        }
    }

    /// Absorbs a `u64` as 8 big-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_be_bytes() {
            self.mix(b);
        }
    }

    /// Absorbs a length-prefixed byte string.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for &b in bytes {
            self.mix(b);
        }
    }

    /// Finalizes into a 128-bit [`Key`].
    pub fn finish(&self) -> Key {
        Key(self.lanes)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn lanes_are_independent_and_stable() {
        let mut h = StableHasher::new();
        h.write_bytes(b"stage:map");
        h.write_u64(42);
        let k1 = h.finish();
        let mut h2 = StableHasher::new();
        h2.write_bytes(b"stage:map");
        h2.write_u64(42);
        assert_eq!(k1, h2.finish(), "same input, same key");
        assert_ne!(k1.0[0], k1.0[1], "lanes diverge");
        let mut h3 = StableHasher::new();
        h3.write_bytes(b"stage:map");
        h3.write_u64(43);
        assert_ne!(k1, h3.finish(), "seed perturbs the key");
    }

    #[test]
    fn length_prefix_prevents_field_concatenation_collisions() {
        let mut a = StableHasher::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = StableHasher::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn key_renders_as_32_hex_digits() {
        let k = Key([0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210]);
        assert_eq!(k.to_hex(), "0123456789abcdeffedcba9876543210");
        assert_eq!(format!("{k}"), k.to_hex());
        assert_eq!(k.to_hex().len(), 32);
    }
}
