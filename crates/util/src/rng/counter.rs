//! Counter-based (stateless) random number generation.
//!
//! The parallel dense engine must produce **identical** simulations no matter
//! how work is divided across threads. Stateful generators cannot do that:
//! the k-th draw depends on how many draws happened before it on the same
//! thread. A counter-based generator instead computes the random word for
//! logical coordinates `(seed, stream, counter)` directly, as a strong hash.
//!
//! We use a SplitMix64-style construction: each input word is folded in with
//! a distinct odd multiplier and the avalanche finalizer `mix64` (from
//! MurmurHash3/SplitMix64) is applied between foldings. This is exactly the
//! structure of SplitMix64 itself (counter × golden-gamma → finalizer), which
//! is known to pass statistical test batteries, extended to three inputs.
//!
//! The dense engine reads a cheaper family from the same folds: the *word
//! sequence* of a keyed stream ([`CounterStream::seq_word`]), whose first
//! word is the stream fold itself and whose later words are single-`mix64`
//! SplitMix64 outputs. A uniform median-rule ball takes both of its samples
//! from the two 32-bit halves of that first word ([`CounterStream::halves`]),
//! so it pays one `mix64` per round past the hoisted seed fold.

use rand::{RngCore, SeedableRng};

use super::splitmix::{fill_bytes_via_u64, GOLDEN_GAMMA};

/// The 64-bit avalanche finalizer used by SplitMix64 (variant of
/// MurmurHash3's finalizer with constants by David Stafford, mix 13).
#[inline(always)]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distinct odd constant for folding the stream id (Weyl constant of the
/// PCG-DXSM family).
const STREAM_MULT: u64 = 0xDA94_2042_E4DD_58B5;

/// Hash three 64-bit words into one uniformly mixed 64-bit word.
///
/// `hash3(seed, stream, counter)` is the random word at logical coordinates
/// `(stream, counter)` of the generator family keyed by `seed`. Changing any
/// single input bit flips each output bit with probability ≈ 1/2.
#[inline(always)]
pub const fn hash3(seed: u64, stream: u64, counter: u64) -> u64 {
    CounterKey::new(seed).stream(stream).word(counter)
}

/// The seed fold of [`hash3`], hoisted: `mix64(seed ^ GOLDEN_GAMMA)`.
///
/// The dense engine's hot loop derives one stream per ball per round from
/// the same seed; precomputing this fold once per chunk removes one `mix64`
/// from every per-ball stream setup. `CounterKey::new(s).stream(t).word(k)`
/// is bit-identical to `hash3(s, t, k)` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterKey(u64);

impl CounterKey {
    /// Fold the seed.
    #[inline(always)]
    pub const fn new(seed: u64) -> Self {
        Self(mix64(seed ^ GOLDEN_GAMMA))
    }

    /// Fold a stream id on top of the seed key.
    #[inline(always)]
    pub const fn stream(self, stream: u64) -> CounterStream {
        CounterStream(mix64(self.0 ^ stream.wrapping_mul(STREAM_MULT)))
    }
}

/// A fully keyed stream: only the counter fold remains per word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterStream(u64);

impl CounterStream {
    /// Random word at `counter` (two `mix64` rounds; bit-compatible with
    /// [`hash3`]).
    #[inline(always)]
    pub const fn word(self, counter: u64) -> u64 {
        mix64(mix64(self.0 ^ counter.wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Random word at `counter` with a single `mix64` round — exactly
    /// SplitMix64's `counter`-th output for the stream's key, so the same
    /// statistical pedigree at half the hashing cost. **Not** the same
    /// stream as [`CounterStream::word`]; engines that use it must treat it
    /// as a distinct stream family.
    #[inline(always)]
    pub const fn word_fast(self, counter: u64) -> u64 {
        mix64(self.0.wrapping_add(counter.wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Word `c` of the stream's *word sequence*, the dense engine's
    /// per-ball randomness: `w₀` is the keyed stream word itself (already a
    /// full `mix64` output, so it costs nothing past the stream fold) and
    /// `w_c` for `c ≥ 1` is [`CounterStream::word_fast`]`(c)`. Every word is
    /// a SplitMix64-style output.
    #[inline(always)]
    pub const fn seq_word(self, c: u64) -> u64 {
        if c == 0 {
            self.0
        } else {
            self.word_fast(c)
        }
    }

    /// The 32-bit halves of the word sequence `w₀, w₁, …`, low half of
    /// each word first: half `i` is half `i mod 2` of word `⌊i/2⌋`. The
    /// dense engine's uniform draws read this sequence, two per word.
    pub fn halves(self) -> impl Iterator<Item = u32> {
        (0u64..).map(move |i| (self.seq_word(i / 2) >> (32 * (i & 1))) as u32)
    }
}

/// A counter-based generator: `next_u64` returns `hash3(seed, stream, k)` for
/// k = 0, 1, 2, ….
///
/// Two `CounterRng`s with the same `(seed, stream)` produce the same
/// sequence; distinct streams are statistically independent. Cheap to
/// construct (the seed and stream folds are done once, so each word costs
/// only the counter fold), so the parallel engine creates one per logical
/// work item. Callers deriving many streams from one seed hoist the seed
/// fold themselves with [`CounterKey`] and read each [`CounterStream`]
/// directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRng {
    stream: CounterStream,
    counter: u64,
}

impl CounterRng {
    /// Generator for the given key and stream, starting at counter 0.
    #[inline]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self::at(seed, stream, 0)
    }

    /// Generator starting at an arbitrary counter offset.
    #[inline]
    pub fn at(seed: u64, stream: u64, counter: u64) -> Self {
        Self {
            stream: CounterKey::new(seed).stream(stream),
            counter,
        }
    }

    /// The current counter (number of words consumed since construction at
    /// counter 0).
    #[inline]
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Random word at explicit coordinates without touching any state.
    #[inline]
    pub fn word(seed: u64, stream: u64, counter: u64) -> u64 {
        hash3(seed, stream, counter)
    }
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let w = self.stream.word(self.counter);
        self.counter = self.counter.wrapping_add(1);
        w
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for CounterRng {
    type Seed = [u8; 16];
    fn from_seed(seed: Self::Seed) -> Self {
        let k = u64::from_le_bytes(seed[0..8].try_into().expect("8 bytes"));
        let s = u64::from_le_bytes(seed[8..16].try_into().expect("8 bytes"));
        Self::new(k, s)
    }
    fn seed_from_u64(state: u64) -> Self {
        Self::new(state, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hoisted_key_matches_hash3() {
        let key = CounterKey::new(0xDEAD_BEEF);
        for stream in [0u64, 1, 77, u64::MAX] {
            let s = key.stream(stream);
            for counter in [0u64, 1, 1000, u64::MAX - 1] {
                assert_eq!(s.word(counter), hash3(0xDEAD_BEEF, stream, counter));
            }
        }
    }

    #[test]
    fn halves_split_the_word_sequence_low_first() {
        let s = CounterKey::new(42).stream(9);
        assert_eq!(s.seq_word(0), s.0);
        let halves: Vec<u32> = s.halves().take(8).collect();
        for c in 0..4u64 {
            let w = s.seq_word(c);
            if c > 0 {
                assert_eq!(w, s.word_fast(c));
            }
            assert_eq!(halves[2 * c as usize], w as u32);
            assert_eq!(halves[2 * c as usize + 1], (w >> 32) as u32);
        }
    }

    #[test]
    fn stateless_equals_stateful() {
        let mut rng = CounterRng::new(7, 3);
        for k in 0..100 {
            assert_eq!(rng.next_u64(), CounterRng::word(7, 3, k));
        }
    }

    #[test]
    fn at_offset_resumes_mid_stream() {
        let mut a = CounterRng::new(11, 2);
        for _ in 0..50 {
            a.next_u64();
        }
        let mut b = CounterRng::at(11, 2, 50);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_distinct() {
        let mut a = CounterRng::new(9, 0);
        let mut b = CounterRng::new(9, 1);
        let mut collisions = 0;
        for _ in 0..1000 {
            if a.next_u64() == b.next_u64() {
                collisions += 1;
            }
        }
        assert_eq!(collisions, 0);
    }

    #[test]
    fn avalanche_single_bit_counter() {
        // Flipping one counter bit should flip roughly half the output bits.
        let mut total = 0u32;
        let pairs = 512;
        for k in 0..pairs {
            let a = hash3(1, 2, k);
            let b = hash3(1, 2, k ^ 1);
            total += (a ^ b).count_ones();
        }
        let avg = total as f64 / pairs as f64;
        assert!((avg - 32.0).abs() < 2.0, "avalanche avg {avg}");
    }

    #[test]
    fn uniformity_chi_square() {
        // 256 buckets over the top byte; χ² with 255 dof should be ≈ 255.
        let mut counts = [0u32; 256];
        let n = 256_000u64;
        for k in 0..n {
            counts[(hash3(42, 7, k) >> 56) as usize] += 1;
        }
        let expect = n as f64 / 256.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        // 255 dof: mean 255, sd ≈ 22.6; 5 sigma ≈ 368.
        assert!(chi2 < 370.0, "chi2 {chi2}");
    }

    #[test]
    fn mix64_is_bijective_spot_check() {
        // mix64 is invertible; spot-check no collisions in a small set.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }
}
