//! A fast, deterministic hasher for simulator-internal maps.
//!
//! The simulators key hash maps by dense integer ids (`RequestId`, batch
//! ids). `std`'s default SipHash is DoS-resistant but an order of
//! magnitude slower than needed for trusted, simulator-generated keys,
//! and its per-process random seed would make iteration order differ
//! between runs if anything ever iterated a map. [`FxHasher`] is the
//! rustc-style multiply-rotate hash: one `wrapping_mul` per word, fully
//! deterministic, and plenty mixed for sequential ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher (the rustc `FxHash` construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// 2^64 / φ — the canonical Fibonacci-hashing multiplier.
const SEED: u64 = 0x517C_C1B7_2722_0A95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `HashMap` with the deterministic fast hasher.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hashers() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn sequential_ids_spread() {
        // Low bits (the table index) must differ for adjacent keys.
        let h = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        let mut low = std::collections::HashSet::new();
        for i in 0..1024u64 {
            low.insert(h(i) & 0xFFF);
        }
        assert!(
            low.len() > 700,
            "only {} distinct low-bit patterns",
            low.len()
        );
    }

    #[test]
    fn map_behaves() {
        let mut m: FastHashMap<u64, u64> = FastHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&40), Some(&80));
        assert_eq!(m.len(), 100);
    }
}
