//! Xoshiro256++ — Blackman & Vigna's general-purpose 64-bit generator.
//!
//! This is the workhorse sequential generator for trials: 256 bits of state,
//! period 2^256 − 1, passes BigCrush. Seeded from a single `u64` through
//! SplitMix64, as the authors recommend.

use rand::{RngCore, SeedableRng};

use super::splitmix::{fill_bytes_via_u64, SplitMix64};

/// Xoshiro256++ pseudo-random generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

#[inline(always)]
const fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Xoshiro256pp {
    /// Seed from a single `u64` by expanding through SplitMix64.
    pub fn seed(seed: u64) -> Self {
        let mut sm = SplitMix64::seed(seed);
        let s = [sm.next(), sm.next(), sm.next(), sm.next()];
        Self { s }
    }

    /// Construct directly from a 256-bit state.
    ///
    /// The all-zero state is invalid (fixed point); it is replaced by a
    /// SplitMix64-expanded fallback.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return Self::seed(0);
        }
        Self { s }
    }

    /// Produce the next 64-bit output.
    #[allow(clippy::should_implement_trait)] // domain convention: RNGs have `next`
    #[inline]
    pub fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = rotl(s[0].wrapping_add(s[3]), 23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        result
    }
}

impl RngCore for Xoshiro256pp {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256pp {
    type Seed = [u8; 32];
    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Self::from_state(s)
    }
    fn seed_from_u64(state: u64) -> Self {
        Self::seed(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values for state [1, 2, 3, 4], matching the upstream C
    /// reference implementation (and the `rand_xoshiro` crate's test vector).
    #[test]
    fn reference_vector() {
        let mut rng = Xoshiro256pp::from_state([1, 2, 3, 4]);
        let expected: [u64; 9] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
        ];
        for e in expected {
            assert_eq!(rng.next(), e);
        }
    }

    #[test]
    fn zero_state_is_replaced() {
        let mut rng = Xoshiro256pp::from_state([0; 4]);
        // Must not be the degenerate all-zero generator.
        let a = rng.next();
        let b = rng.next();
        assert!(a != 0 || b != 0);
    }

    #[test]
    fn seed_expansion_is_deterministic() {
        let mut a = Xoshiro256pp::seed(1729);
        let mut b = Xoshiro256pp::seed(1729);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn moments_look_uniform() {
        let mut rng = Xoshiro256pp::seed(2024);
        let n = 200_000;
        let mut mean = 0.0f64;
        for _ in 0..n {
            mean += super::super::gen_f64(&mut rng);
        }
        mean /= n as f64;
        assert!((mean - 0.5).abs() < 5e-3, "mean {mean}");
    }
}
