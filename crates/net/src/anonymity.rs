//! Anonymous private numbering via format-preserving permutations.
//!
//! The paper's network is anonymous: "no unique process IDs are known, but
//! rather each process has its own, private numbering of the other
//! processes". Materializing `n` permutations of `[n]` would cost `O(n²)`
//! memory, so each process instead owns a keyed **Feistel permutation** over
//! `[0, n)`: a 4-round balanced Feistel network on the smallest even-width
//! binary domain covering `n`, with cycle-walking to stay inside `[0, n)`.
//!
//! Because π is a bijection, drawing a uniform *local* index and mapping it
//! through π yields a uniform *global* process — exactly the sampling the
//! median rule needs — while the simulation faithfully represents "private
//! numbering" semantics (two processes' numberings are unrelated).
//!
//! A permutation hoists its key schedule: [`FeistelPerm::new`] folds the
//! key into the four round streams once, so a cipher round costs one
//! counter fold ([`CounterStream::word`]) rather than a full
//! [`hash3`](stabcon_util::rng::hash3). Cycle walking costs domain/n cipher
//! passes on average: 1 when `n` is a power of four, 2 at `n = 512`
//! (domain 1024), and below 4 always. [`apply_lanes`] maps a whole round of
//! draws at once: one cipher pass over every lane, then a walk over only
//! the lanes that left `[0, n)`.

use stabcon_util::rng::{CounterKey, CounterStream};

use crate::ProcessId;

const ROUNDS: usize = 4;

/// Lanes [`apply_lanes`] ciphers together: enough independent multiply
/// chains to hide their latency (and to fill vector registers).
const BATCH: usize = 16;

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

    /// One pass of the cipher over the even-width domain for `W` lanes at
    /// once, lane `j` keyed by the round streams `keys[·][j]`; an image may
    /// leave `[0, n)`. The only place the Feistel rounds are written.
    #[inline(always)]
    fn encrypt_once<const W: usize>(
        keys: &[[CounterStream; W]; ROUNDS],
        half_bits: u32,
        xs: &mut [u64; W],
    ) {
        let mask = (1u64 << half_bits) - 1;
        let mut left = xs.map(|x| x >> half_bits);
        let mut right = xs.map(|x| x & mask);
        for round in keys {
            for j in 0..W {
                let next_right = (left[j] ^ round[j].word(right[j])) & mask;
                left[j] = right[j];
                right[j] = next_right;
            }
        }
        for j in 0..W {
            xs[j] = (left[j] << half_bits) | right[j];
        }
    }

    /// Apply the permutation: local index → global index.
    ///
    /// # Panics
    /// Debug-panics if `local ≥ n`.
    #[inline]
    pub fn apply(&self, local: u64) -> u64 {
        debug_assert!(local < self.n);
        let keys = self.rounds.map(|stream| [stream]);
        // Cycle walking: iterate the cipher until the image lands in [0, n).
        let mut x = [local];
        Self::encrypt_once(&keys, self.half_bits, &mut x);
        while x[0] >= self.n {
            Self::encrypt_once(&keys, self.half_bits, &mut x);
        }
        x[0]
    }
}

/// Map a round of local indices through per-process permutations in place:
/// lane `l` belongs to process `l / k` and ends holding
/// `perms[l / k].apply(lanes[l])`.
///
/// One cipher pass runs over every lane; the lanes whose image left
/// `[0, n)` are then compacted into `pending` (a parked buffer of
/// `(lane, process)` pairs, left empty on return) and walk on together
/// until none is left.
///
/// # Panics
/// Panics if `lanes.len() != perms.len() · k`, there are `2³²` lanes or
/// more, or the permutations' domain exceeds the process-id range;
/// debug-panics if the permutations disagree on `n` or a lane is not a
/// local index.
pub fn apply_lanes(
    perms: &[FeistelPerm],
    k: usize,
    lanes: &mut [ProcessId],
    pending: &mut Vec<(u32, u32)>,
) {
    assert_eq!(lanes.len(), perms.len() * k, "lanes shape mismatch");
    assert!(
        lanes.len() <= u32::MAX as usize,
        "apply_lanes: too many lanes"
    );
    let Some(first) = perms.first() else {
        return;
    };
    let n = first.n;
    // Images below the even-width domain fit a process id.
    assert!(
        2 * first.half_bits <= ProcessId::BITS,
        "apply_lanes: domain exceeds the process-id range"
    );
    debug_assert!(perms
        .iter()
        .all(|p| p.n == n && p.half_bits == first.half_bits));
    debug_assert!(lanes.iter().all(|&x| (x as u64) < n));
    let every_lane =
        (0..perms.len() as u32).flat_map(|i| (0..k as u32).map(move |j| (i * k as u32 + j, i)));
    cipher_pass(perms, lanes, every_lane);
    pending.clear();
    pending.extend(
        (0..lanes.len() as u32)
            .filter(|&l| lanes[l as usize] as u64 >= n)
            .map(|l| (l, l / k as u32)),
    );
    while !pending.is_empty() {
        cipher_pass(perms, lanes, pending.iter().copied());
        pending.retain(|&(l, _)| lanes[l as usize] as u64 >= n);
    }
}

/// Cipher each `(lane, process)` of `work` once under its process's
/// permutation, [`BATCH`] lanes at a time. The lanes of a short last batch
/// past its length recompute stale inputs and are not stored.
fn cipher_pass(
    perms: &[FeistelPerm],
    lanes: &mut [ProcessId],
    mut work: impl Iterator<Item = (u32, u32)>,
) {
    let half_bits = perms[0].half_bits;
    let mut keys = [[perms[0].rounds[0]; BATCH]; ROUNDS];
    let mut xs = [0u64; BATCH];
    let mut at = [0usize; BATCH];
    loop {
        let mut len = 0;
        for (lane, process) in work.by_ref().take(BATCH) {
            at[len] = lane as usize;
            xs[len] = lanes[lane as usize] as u64;
            for (slot, stream) in keys.iter_mut().zip(&perms[process as usize].rounds) {
                slot[len] = *stream;
            }
            len += 1;
        }
        if len == 0 {
            return;
        }
        FeistelPerm::encrypt_once(&keys, half_bits, &mut xs);
        for (&lane, &x) in at.iter().zip(&xs).take(len) {
            lanes[lane] = x as ProcessId;
        }
        if len < BATCH {
            return;
        }
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
