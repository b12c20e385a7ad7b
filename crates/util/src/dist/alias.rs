//! Vose's alias method: O(m) build, O(1) categorical sampling.

/// Reusable scratch buffers for (re)building alias tables without
/// allocating: the scaled weights, the resulting `prob`/`alias` columns,
/// and the small/large worklists of Vose's algorithm. One scratch serves
/// any number of rebuilds of any size.
#[derive(Debug, Clone, Default)]
pub struct AliasScratch {
    scaled: Vec<f64>,
    prob: Vec<f64>,
    alias: Vec<usize>,
    small: Vec<usize>,
    large: Vec<usize>,
}

/// Vose's O(m) alias construction into `scratch.prob` / `scratch.alias`.
///
/// This is the **single** build routine behind [`PackedAlias::new`] and
/// [`PackedAlias::rebuild_from`], so a table rebuilt through a dirty
/// scratch is bit-identical to a freshly constructed one by construction.
///
/// # Panics
/// Panics if `weights` is empty, contains a negative/NaN entry, or sums to
/// zero.
fn vose_build(weights: &[f64], scratch: &mut AliasScratch) {
    let m = weights.len();
    assert!(m > 0, "alias table: empty weights");
    let mut total = 0.0f64;
    for &w in weights {
        assert!(w >= 0.0 && w.is_finite(), "alias table: bad weight {w}");
        total += w;
    }
    assert!(total > 0.0, "alias table: zero total weight");

    let first_positive = weights
        .iter()
        .position(|&w| w > 0.0)
        .expect("positive total implies positive entry");

    let AliasScratch {
        scaled,
        prob,
        alias,
        small,
        large,
    } = scratch;
    scaled.clear();
    scaled.extend(weights.iter().map(|&w| w * m as f64 / total));
    prob.clear();
    prob.resize(m, 0.0);
    alias.clear();
    alias.resize(m, first_positive);
    small.clear();
    large.clear();
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        prob[s] = scaled[s];
        alias[s] = l;
        scaled[l] += scaled[s] - 1.0;
        if scaled[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Leftovers hold (numerically) exactly unit mass — accept directly.
    // A zero-weight entry can only be left over through floating-point
    // residue; keep it unreachable rather than rounding it up.
    for &i in large.iter().chain(small.iter()) {
        prob[i] = if weights[i] > 0.0 { 1.0 } else { 0.0 };
    }
}

/// Alias table packed for single-word sampling: one `u64` entry per
/// category holding the 32-bit-quantized acceptance probability and the
/// alias index, consumed by [`PackedAlias::sample_word`] with **one** random
/// word (the high 32 bits pick the column, the low 32 bits decide
/// acceptance — independent bits of one uniform word).
///
/// Quantization makes draws off by at most `2⁻³²` per category relative to
/// the exact weights (the column pick adds another ≤ `m·2⁻³²`); the
/// simulation engines accept this in exchange for halving the random words
/// and the hash work on their hottest path.
#[derive(Debug, Clone, Default)]
pub struct PackedAlias {
    /// `(accept_u32 << 32) | alias_index`.
    entries: Vec<u64>,
}

impl PackedAlias {
    /// Build from non-negative weights (need not be normalized).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/NaN entry, or sums
    /// to zero.
    pub fn new(weights: &[f64]) -> Self {
        let mut this = Self::default();
        this.rebuild_from(weights, &mut AliasScratch::default());
        this
    }

    /// Rebuild this table in place from new weights, reusing both the
    /// entry buffer and the caller's [`AliasScratch`]: at steady state
    /// (weights of at most the previously seen length) the rebuild
    /// allocates nothing. The result is **bit-identical** to
    /// `PackedAlias::new(weights)` — both run the same Vose construction
    /// and packing — so callers may hot-swap a per-round `new` for a
    /// parked rebuild without changing a single draw.
    ///
    /// # Panics
    /// Same contract as [`PackedAlias::new`].
    pub fn rebuild_from(&mut self, weights: &[f64], scratch: &mut AliasScratch) {
        vose_build(weights, scratch);
        self.entries.clear();
        self.entries
            .extend(
                scratch
                    .prob
                    .iter()
                    .zip(&scratch.alias)
                    .enumerate()
                    .map(|(i, (&p, &a))| {
                        // Full columns alias to themselves so the saturated
                        // acceptance test can never redirect them.
                        let (accept, alias) = if p >= 1.0 {
                            (u32::MAX, i)
                        } else {
                            ((p * 4294967296.0) as u32, a)
                        };
                        ((accept as u64) << 32) | alias as u64
                    }),
            );
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (only true for a [`Default`] table that
    /// has never been rebuilt; sampling an empty table panics).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Draw one category from a single uniform 64-bit word.
    #[inline(always)]
    pub fn sample_word(&self, word: u64) -> usize {
        let idx = (((word >> 32) * self.entries.len() as u64) >> 32) as usize;
        let e = self.entries[idx];
        if (word as u32 as u64) < (e >> 32) {
            idx
        } else {
            (e & 0xFFFF_FFFF) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use rand::RngCore;

    /// Probability mass `vose_build`'s `prob`/`alias` columns give each
    /// category: a column is drawn with chance `1/m`, keeps its own index
    /// with `prob[j]` and otherwise yields `alias[j]`.
    fn implied_mass(weights: &[f64]) -> Vec<f64> {
        let mut scratch = AliasScratch::default();
        vose_build(weights, &mut scratch);
        let m = weights.len() as f64;
        let mut mass = vec![0.0; weights.len()];
        for (j, (&p, &a)) in scratch.prob.iter().zip(&scratch.alias).enumerate() {
            mass[j] += p / m;
            mass[a] += (1.0 - p) / m;
        }
        mass
    }

    #[test]
    fn frequencies_match_weights() {
        let shapes: Vec<Vec<f64>> = vec![
            vec![1.0, 3.0, 6.0],
            (0..64).map(|i| (i % 7) as f64 + 0.25).collect(),
            (0..1000).map(|i| 1.0 / (i + 1) as f64).collect(),
        ];
        for weights in &shapes {
            let total: f64 = weights.iter().sum();
            for (i, (&w, got)) in weights.iter().zip(implied_mass(weights)).enumerate() {
                let expect = w / total;
                assert!(
                    (got - expect).abs() < 1e-12,
                    "m = {}, cat {i}: {got} vs {expect}",
                    weights.len()
                );
            }
        }
    }

    #[test]
    fn zero_weight_never_sampled() {
        // Every third weight is zero; the harmonic tail leaves
        // floating-point residue in the worklists.
        let weights: Vec<f64> = (0..999)
            .map(|i| {
                if i % 3 == 1 {
                    0.0
                } else {
                    1.0 / (i + 1) as f64
                }
            })
            .collect();
        for (i, mass) in implied_mass(&weights).into_iter().enumerate() {
            if weights[i] == 0.0 {
                assert_eq!(mass, 0.0, "zero-weight category {i} has mass");
            }
        }
        let table = PackedAlias::new(&weights);
        let mut rng = Xoshiro256pp::seed(2);
        for _ in 0..20_000 {
            let idx = table.sample_word(rng.next_u64());
            assert!(weights[idx] > 0.0, "sampled zero-weight category {idx}");
        }
    }

    #[test]
    fn single_category() {
        let mut scratch = AliasScratch::default();
        vose_build(&[42.0], &mut scratch);
        assert_eq!(scratch.prob, vec![1.0]);
        assert_eq!(scratch.alias, vec![0]);
        let table = PackedAlias::new(&[42.0]);
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
        let mut rng = Xoshiro256pp::seed(3);
        for _ in 0..100 {
            assert_eq!(table.sample_word(rng.next_u64()), 0);
        }
    }

    #[test]
    fn uniform_weights() {
        let table = PackedAlias::new(&[2.0; 64]);
        let mut rng = Xoshiro256pp::seed(4);
        let mut seen = [false; 64];
        for _ in 0..20_000 {
            seen[table.sample_word(rng.next_u64())] = true;
        }
        assert!(seen.iter().all(|&s| s), "some category never sampled");
    }

    #[test]
    #[should_panic]
    fn rejects_zero_total() {
        PackedAlias::new(&[0.0, 0.0]);
    }

    #[test]
    fn packed_frequencies_match_weights() {
        let weights = [1.0, 3.0, 6.0];
        let table = PackedAlias::new(&weights);
        let mut rng = Xoshiro256pp::seed(8);
        let trials = 200_000;
        let mut counts = [0u64; 3];
        for _ in 0..trials {
            counts[table.sample_word(rng.next_u64())] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let freq = counts[i] as f64 / trials as f64;
            let expect = w / 10.0;
            assert!((freq - expect).abs() < 0.01, "cat {i}: {freq} vs {expect}");
        }
    }

    #[test]
    fn packed_zero_weight_never_sampled() {
        let table = PackedAlias::new(&[0.0, 5.0, 0.0, 1.0]);
        let mut rng = Xoshiro256pp::seed(9);
        for _ in 0..20_000 {
            let idx = table.sample_word(rng.next_u64());
            assert!(idx == 1 || idx == 3, "sampled zero-weight category {idx}");
        }
    }

    #[test]
    fn packed_single_category() {
        let table = PackedAlias::new(&[7.0]);
        assert_eq!(table.len(), 1);
        for w in [0u64, 1, u64::MAX, 0xDEAD_BEEF_0000_0001] {
            assert_eq!(table.sample_word(w), 0);
        }
    }

    #[test]
    fn dirty_rebuild_is_bit_identical_to_fresh() {
        // A reused table + scratch, dirtied by builds of various shapes
        // (longer, shorter, zero-weight entries), must end bit-identical to
        // a fresh construction for the same weights.
        let shapes: Vec<Vec<f64>> = vec![
            vec![1.0; 300],
            vec![0.0, 5.0, 0.0, 1.0],
            (0..64).map(|i| (i % 7) as f64 + 0.25).collect(),
            vec![42.0],
            (0..1000).map(|i| 1.0 / (i + 1) as f64).collect(),
        ];
        let mut reused = PackedAlias::default();
        let mut scratch = AliasScratch::default();
        for weights in shapes.iter().chain(shapes.iter().rev()) {
            reused.rebuild_from(weights, &mut scratch);
            let fresh = PackedAlias::new(weights);
            assert_eq!(
                reused.entries,
                fresh.entries,
                "dirty rebuild diverged for m = {}",
                weights.len()
            );
        }
    }

    #[test]
    fn default_packed_alias_is_empty() {
        let table = PackedAlias::default();
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
    }
}
