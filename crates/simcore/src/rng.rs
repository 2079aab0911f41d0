//! Deterministic random number generation.
//!
//! Simulations must be reproducible from a single seed even when components
//! are added, removed, or reordered. [`SimRng`] is a small, fast
//! SplitMix64-based generator that supports *stream splitting*: deriving an
//! independent child generator from a parent seed and a label, so each
//! simulation component owns its own stream and never perturbs another's.

/// SplitMix64 step: advances the state and returns the next 64-bit output.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, splittable pseudo-random generator.
///
/// Internally this is xoshiro256++ seeded via SplitMix64, the construction
/// recommended by the xoshiro authors.
///
/// # Examples
///
/// ```
/// use distserve_simcore::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64_raw(), b.next_u64_raw());
///
/// // Children with different labels produce independent streams.
/// let mut c1 = SimRng::seed(42).split("arrivals");
/// let mut c2 = SimRng::seed(42).split("lengths");
/// assert_ne!(c1.next_u64_raw(), c2.next_u64_raw());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator identified by `label`.
    ///
    /// The child's stream depends only on the parent's *seed state at the
    /// time of the split* and the label, so splitting is itself
    /// deterministic and order-independent for distinct labels.
    #[must_use]
    pub fn split(&self, label: &str) -> SimRng {
        // FNV-1a over the label, folded into the parent state.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mixed = self.s[0] ^ self.s[1].rotate_left(17) ^ h;
        SimRng::seed(mixed)
    }

    /// Derives an independent child generator identified by an index.
    #[must_use]
    pub fn split_index(&self, index: u64) -> SimRng {
        let mixed =
            self.s[0] ^ self.s[2].rotate_left(29) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed(mixed)
    }

    /// Returns the next `u64` from the stream (xoshiro256++).
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform sample in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // Use the top 53 bits; dividing by 2^53 yields [0, 1).
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform sample in `(0, 1]`, safe as a log argument.
    #[inline]
    pub fn uniform_open(&mut self) -> f64 {
        1.0 - self.uniform()
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is undefined");
        loop {
            let x = self.next_u64_raw();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only retry when `low` falls below the
            // threshold that would bias the result.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..100)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let parent = SimRng::seed(99);
        let mut c1 = parent.split("alpha");
        let mut c1_again = parent.split("alpha");
        let mut c2 = parent.split("beta");
        assert_eq!(c1.next_u64_raw(), c1_again.next_u64_raw());
        assert_ne!(c1.next_u64_raw(), c2.next_u64_raw());
    }

    #[test]
    fn split_index_distinct() {
        let parent = SimRng::seed(5);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let mut child = parent.split_index(i);
            assert!(seen.insert(child.next_u64_raw()));
        }
    }

    #[test]
    fn uniform_in_range_and_roughly_uniform() {
        let mut rng = SimRng::seed(123);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn uniform_open_never_zero() {
        let mut rng = SimRng::seed(321);
        for _ in 0..100_000 {
            assert!(rng.uniform_open() > 0.0);
        }
    }

    #[test]
    fn below_is_unbiased_ish() {
        let mut rng = SimRng::seed(77);
        let mut counts = [0u32; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.below(7) as usize] += 1;
        }
        let expected = n / 7;
        for &c in &counts {
            let dev = (f64::from(c) - f64::from(expected)).abs() / f64::from(expected);
            assert!(dev < 0.05, "bucket deviates {dev}");
        }
    }
}
