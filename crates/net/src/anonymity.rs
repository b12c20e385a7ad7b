//! Keyed permutations of `[0, n)`, which pick the scenario's seeded
//! crash and Byzantine subsets ([`crate::scenario`]): the first `count`
//! images of a permutation are a uniform `count`-subset.
//!
//! Each permutation is a 4-round balanced Feistel network on the smallest
//! even-width binary domain covering `n`, with cycle-walking to stay
//! inside `[0, n)`, so it costs `O(1)` memory at any `n`.
//! [`FeistelPerm::new`] folds the key into the four round streams once,
//! so a cipher round costs one counter fold ([`CounterStream::word`]).
//!
//! The paper's processes are anonymous: each has a private numbering of
//! the others. A simulation needs no cipher for that. A process draws a
//! uniform local index, and any fixed bijection maps it to a uniform
//! global id, so drawing the global id directly has the same law. The
//! message engine does exactly that.

use stabcon_util::rng::{CounterKey, CounterStream};

const ROUNDS: usize = 4;

/// A keyed permutation over `[0, n)` (4-round Feistel + cycle walking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeistelPerm {
    n: u64,
    /// Round `r`'s stream, `CounterKey::new(key).stream(r)`: the round
    /// function `rounds[r].word(half)` equals `hash3(key, r, half)`.
    rounds: [CounterStream; ROUNDS],
    /// Bits per half-domain; total domain is `2^(2·half_bits) ≥ n`.
    half_bits: u32,
}

impl FeistelPerm {
    /// Permutation over `[0, n)` keyed by `key`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > 2^62`.
    pub fn new(n: u64, key: u64) -> Self {
        assert!(n > 0, "FeistelPerm: empty domain");
        assert!(n <= 1 << 62, "FeistelPerm: domain too large");
        // Smallest even bit-width covering n.
        let bits = (64 - (n - 1).leading_zeros()).max(2);
        let bits = bits + (bits & 1); // round up to even
        let key = CounterKey::new(key);
        Self {
            n,
            rounds: std::array::from_fn(|r| key.stream(r as u64)),
            half_bits: bits / 2,
        }
    }

    /// Domain size.
    #[inline]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the domain is empty (never true).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// One pass of the cipher over the even-width domain; the image may
    /// leave `[0, n)`.
    #[inline]
    fn encrypt_once(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = x >> self.half_bits;
        let mut right = x & mask;
        for round in &self.rounds {
            let next_right = (left ^ round.word(right)) & mask;
            left = right;
            right = next_right;
        }
        (left << self.half_bits) | right
    }

    /// Apply the permutation: local index → global index.
    ///
    /// # Panics
    /// Debug-panics if `local ≥ n`.
    #[inline]
    pub fn apply(&self, local: u64) -> u64 {
        debug_assert!(local < self.n);
        // Cycle walking: iterate the cipher until the image lands in [0, n).
        // The expected number of steps is domain/n < 4.
        let mut x = self.encrypt_once(local);
        while x >= self.n {
            x = self.encrypt_once(x);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bijection(n: u64, key: u64) {
        let perm = FeistelPerm::new(n, key);
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let img = perm.apply(i);
            assert!(img < n, "image out of range");
            assert!(!seen[img as usize], "collision at {img} (n={n}, key={key})");
            seen[img as usize] = true;
        }
    }

    #[test]
    fn bijective_small_domains() {
        for n in 1..=64u64 {
            assert_bijection(n, 0xDEAD_BEEF ^ n);
        }
    }

    #[test]
    fn bijective_awkward_sizes() {
        for &n in &[65u64, 100, 127, 128, 129, 1000, 4096, 5000] {
            assert_bijection(n, 42);
        }
    }

    #[test]
    fn different_keys_differ() {
        let n = 1000;
        let a = FeistelPerm::new(n, 1);
        let b = FeistelPerm::new(n, 2);
        let same = (0..n).filter(|&i| a.apply(i) == b.apply(i)).count();
        // Random permutations agree on ~1 point on average.
        assert!(
            same < 20,
            "permutations too similar: {same} fixed agreements"
        );
    }

    #[test]
    fn deterministic() {
        let p = FeistelPerm::new(777, 99);
        let first: Vec<u64> = (0..777).map(|i| p.apply(i)).collect();
        let second: Vec<u64> = (0..777).map(|i| p.apply(i)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn images_look_uniformly_spread() {
        // The mean image of 0..n under a random permutation is (n-1)/2.
        let n = 10_000u64;
        let p = FeistelPerm::new(n, 7);
        let sample_mean: f64 = (0..200).map(|i| p.apply(i) as f64).sum::<f64>() / 200.0;
        let expect = (n - 1) as f64 / 2.0;
        // se of mean of 200 uniform draws over [0,n): n/sqrt(12*200) ≈ 204.
        assert!(
            (sample_mean - expect).abs() < 5.0 * 204.0,
            "mean {sample_mean} vs {expect}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_domain_panics() {
        FeistelPerm::new(0, 1);
    }
}
