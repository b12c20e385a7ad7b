//! Deterministic pseudo-random number generators.
//!
//! The paper's median rule consumes `2n` independent uniform indices per
//! round. The experiment harness additionally runs thousands of independent
//! trials, often in parallel. Reproducibility requirements drive the design:
//!
//! * every trial derives its generator from `(master_seed, trial_id)`;
//! * the parallel dense engine derives the two choices of ball `i` in round
//!   `t` from `(seed, t, i)` via a stateless [`CounterStream`]: one hashed
//!   64-bit word whose two 32-bit halves become the two indices through
//!   [`lemire_candidate32`] (falling back to [`gen_index32`] on the rare
//!   rejection), so results are **bit-identical regardless of the number of
//!   worker threads**;
//! * sequential code uses [`Xoshiro256pp`], seeded through [`SplitMix64`] as
//!   recommended by the xoshiro authors.
//!
//! All generators implement [`rand::RngCore`] + [`rand::SeedableRng`] so the
//! rest of the workspace can stay generic over `R: rand::Rng`.

mod counter;
mod splitmix;
mod xoshiro;

pub use counter::{hash3, mix64, CounterKey, CounterRng, CounterStream};
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256pp;

use rand::RngCore;

/// One Lemire multiply-shift candidate for a uniform index in `[0, n)`:
/// returns `(index, low)` where `index = ⌊word·n / 2⁶⁴⌋` and `low` is the
/// bottom word of the 128-bit product.
///
/// The candidate is final unless `low < 2⁶⁴ mod n` (the rejection zone);
/// since `2⁶⁴ mod n < n`, the cheap conservative test `low < n` proves a
/// draw needs **no** rejection handling. [`gen_index`] is built on this
/// primitive.
#[inline(always)]
const fn lemire_candidate(word: u64, n: u64) -> (u64, u64) {
    let m = (word as u128) * (n as u128);
    ((m >> 64) as u64, m as u64)
}

/// Draw a uniform index in `[0, n)` using Lemire's multiply-shift method
/// with rejection (unbiased).
///
/// The sequential draws of the workspace (initial states, adversaries, the
/// message engine, the network layer) use it; the dense engine draws from
/// 32-bit halves instead ([`gen_index32`]).
///
/// # Panics
/// Panics in debug builds if `n == 0`.
#[inline]
pub fn gen_index<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0, "gen_index: empty range");
    let (mut idx, mut low) = lemire_candidate(rng.next_u64(), n);
    if low < n {
        // Rejection zone: 2^64 mod n values at the bottom must be rejected
        // to keep the draw exactly uniform.
        let threshold = n.wrapping_neg() % n;
        while low < threshold {
            (idx, low) = lemire_candidate(rng.next_u64(), n);
        }
    }
    idx
}

/// One 32-bit Lemire multiply-shift candidate for a uniform index in
/// `[0, n)`, `1 ≤ n ≤ 2³²`: returns `(index, low)` where
/// `index = ⌊half·n / 2³²⌋` and `low` is the bottom 32 bits of the 64-bit
/// product.
///
/// The candidate is final unless `low <` [`lemire_zone32`]`(n)`. The dense
/// engine's resolve loop tests that exact bound, and [`gen_index32`] is
/// built on the same formula, so the fast loop and its scalar fallback
/// agree by construction.
#[inline(always)]
pub const fn lemire_candidate32(half: u32, n: u64) -> (u32, u32) {
    let m = half as u64 * n;
    ((m >> 32) as u32, m as u32)
}

/// The rejection zone of [`lemire_candidate32`]: `2³² mod n`. It is 0 for
/// every power of two, so such populations never reject.
///
/// # Panics
/// Panics if `n == 0`.
#[inline(always)]
pub const fn lemire_zone32(n: u64) -> u32 {
    ((1u64 << 32) % n) as u32
}

/// Draw a uniform index in `[0, n)`, `1 ≤ n ≤ 2³²`, from a sequence of
/// uniform 32-bit halves (Lemire's multiply-shift with exact rejection):
/// each rejected half is replaced by the next one, so the draw consumes
/// one half unless the candidate falls in the rejection zone.
///
/// # Panics
/// Panics if `n ∉ [1, 2³²]` or the sequence runs out.
pub fn gen_index32(halves: &mut impl Iterator<Item = u32>, n: u64) -> u32 {
    assert!((1..=1u64 << 32).contains(&n), "gen_index32: n = {n}");
    let zone = lemire_zone32(n);
    loop {
        let (idx, low) = lemire_candidate32(halves.next().expect("half sequence ended"), n);
        if low >= zone {
            return idx;
        }
    }
}

/// Map one uniform 64-bit word to a uniform `f64` in `[0, 1)` with 53
/// random mantissa bits (the standard `(x >> 11) · 2⁻⁵³` construction).
///
/// [`gen_f64`] is this applied to the generator's next word.
#[inline(always)]
const fn unit_f64_from_word(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draw a uniform `f64` in `[0, 1)` with 53 random mantissa bits.
#[inline]
pub fn gen_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    unit_f64_from_word(rng.next_u64())
}

/// Derive an independent child seed for a given trial / stream id.
///
/// The derivation is a strong 64-bit hash of `(master, stream)`; children
/// with different stream ids behave as statistically independent seeds.
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    hash3(master, 0x5eed_5eed_5eed_5eed, stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_index_in_range_and_covers() {
        let mut rng = Xoshiro256pp::seed(7);
        let n = 13u64;
        let mut seen = [0u32; 13];
        for _ in 0..20_000 {
            let v = gen_index(&mut rng, n);
            assert!(v < n);
            seen[v as usize] += 1;
        }
        for (i, &c) in seen.iter().enumerate() {
            assert!(c > 0, "value {i} never drawn");
            // Expected ~1538 per cell; allow wide slack.
            assert!((c as i64 - 1538).abs() < 500, "cell {i} count {c}");
        }
    }

    #[test]
    fn gen_index_n_one() {
        let mut rng = Xoshiro256pp::seed(1);
        for _ in 0..100 {
            assert_eq!(gen_index(&mut rng, 1), 0);
        }
    }

    #[test]
    fn gen_index_handles_huge_n() {
        let mut rng = Xoshiro256pp::seed(3);
        let n = u64::MAX - 5;
        for _ in 0..1000 {
            assert!(gen_index(&mut rng, n) < n);
        }
    }

    #[test]
    fn lemire_candidate_matches_gen_index_when_accepting() {
        // Whenever the candidate's low word proves no rejection can happen
        // (`low ≥ n`), gen_index must return exactly that candidate.
        let mut rng = Xoshiro256pp::seed(21);
        for &n in &[13u64, 1 << 20, (1 << 40) + 7] {
            for _ in 0..200 {
                let w = rng.next_u64();
                let (idx, low) = lemire_candidate(w, n);
                if low >= n {
                    struct One(u64, bool);
                    impl RngCore for One {
                        fn next_u32(&mut self) -> u32 {
                            (self.next_u64() >> 32) as u32
                        }
                        fn next_u64(&mut self) -> u64 {
                            assert!(!self.1, "gen_index drew a second word");
                            self.1 = true;
                            self.0
                        }
                        fn fill_bytes(&mut self, _: &mut [u8]) {
                            unimplemented!()
                        }
                        fn try_fill_bytes(&mut self, _: &mut [u8]) -> Result<(), rand::Error> {
                            unimplemented!()
                        }
                    }
                    assert_eq!(gen_index(&mut One(w, false), n), idx);
                }
            }
        }
    }

    #[test]
    fn gen_index32_n_one_takes_one_half() {
        let mut halves = [u32::MAX, 0, 7].into_iter();
        for _ in 0..3 {
            assert_eq!(gen_index32(&mut halves, 1), 0);
        }
        assert_eq!(halves.next(), None);
    }

    #[test]
    fn gen_index32_full_range_is_the_identity() {
        // n = 2³²: the zone is empty and every half is its own index.
        let n = 1u64 << 32;
        assert_eq!(lemire_zone32(n), 0);
        for h in [0u32, 1, 0x8000_0000, u32::MAX] {
            assert_eq!(gen_index32(&mut std::iter::once(h), n), h);
        }
    }

    #[test]
    fn gen_index32_is_exactly_uniform_at_three() {
        // 2³² mod 3 = 1, so only the half 0 rejects (its low word is 0).
        // Index i's preimage is the halves h with i·2³² ≤ 3h < (i+1)·2³²;
        // their low words 3h − i·2³² step by 3 from a start in [0, 3), so
        // only a preimage's first half can fall in the zone [0, 1). Count
        // each preimage's accepted halves exactly: all three must be
        // ⌊2³²/3⌋. Then a crafted sequence that opens in the zone must move
        // on to its next half.
        let n = 3u64;
        assert_eq!(lemire_zone32(n), 1);
        let first_half = |i: u64| (i << 32).div_ceil(n);
        for i in 0..n {
            let (lo, hi) = (first_half(i), first_half(i + 1) - 1);
            let rejected = lemire_candidate32(lo as u32, n).1 < 1;
            assert_eq!(lemire_candidate32(hi as u32, n).0 as u64, i);
            assert!(lo == 0 || lemire_candidate32(lo as u32 - 1, n).0 as u64 == i - 1);
            let accepted = hi - lo + 1 - u64::from(rejected);
            assert_eq!(accepted, (1u64 << 32) / n, "index {i}");
        }
        let mut halves = [0u32, 0, u32::MAX, 5].into_iter();
        assert_eq!(gen_index32(&mut halves, n), 2);
        assert_eq!(halves.next(), Some(5));
    }

    #[test]
    fn unit_f64_from_word_matches_gen_f64() {
        let mut a = Xoshiro256pp::seed(33);
        let mut b = Xoshiro256pp::seed(33);
        for _ in 0..1000 {
            let w = a.next_u64();
            assert!(gen_f64(&mut b).to_bits() == unit_f64_from_word(w).to_bits());
        }
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut rng = Xoshiro256pp::seed(11);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let u = gen_f64(&mut rng);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn derive_seed_distinct_streams() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic.
        assert_eq!(a, derive_seed(42, 0));
    }
}
