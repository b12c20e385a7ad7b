//! The histogram engine: `O(m)` binomial draws per round, independent of `n`.
//!
//! Index the bins `0..m` in value order and let `C(c)` be the integer load
//! at or below bin `c` (`C(−1) = 0`, `C(m−1) = n`), `F = C/n` and
//! `G(c) = 1 − F(c−1)`, the mass at or above `c`. Under the median rule a
//! ball in bin `b`
//!
//! * moves down iff both samples lie below `b` (`P = F(b−1)²`), and then
//!   lands at the higher sample: `c < b` with `P = F(c)² − F(c−1)²`;
//! * moves up iff both samples lie above `b` (`P = (1 − F(b))²`), and then
//!   lands at the lower sample: `c > b` with `P = G(c)² − G(c+1)²`;
//! * stays otherwise.
//!
//! Where a mover lands does not depend on `b`, so all movers of one
//! direction pool. A round splits each bin three ways (down, up, stay) with
//! two binomials, then sweeps each pool across the bins: a pooled ball that
//! has passed every bin short of `c` lands there with probability
//! `1 − (1 − r)² = r(2 − r)`, where `r = k_c / (n − C(c−1))` going up and
//! `r = k_c / C(c)` going down. A round draws about `4m` binomials, and
//! every probability is a ratio of integer counts in `[0, 1]` — populations
//! of 2^52 balls simulate as fast as 2^10.

use rand::RngCore;
use stabcon_util::dist::Binomial;

use crate::histogram::Histogram;

/// Reusable per-round buffers for [`step_in_place`] (the new loads, and each
/// bin's down-movers between the split and the down sweep). One of these
/// lives in a [`crate::workspace::TrialWorkspace`], so the adaptive engine's
/// aggregated phase allocates nothing per round.
#[derive(Debug, Clone, Default)]
pub struct StepScratch {
    new_loads: Vec<u64>,
    down: Vec<u64>,
}

/// Advance the median rule one round on aggregated loads, in place. At
/// consensus (`m == 1`) this is a no-op that consumes no randomness.
pub fn step_in_place<R: RngCore + ?Sized>(hist: &mut Histogram, rng: &mut R, ws: &mut StepScratch) {
    if hist.support_size() == 1 {
        return;
    }
    let n = hist.n();
    let mut draw = |balls: u64, p: f64| Binomial::new(balls, p).sample(rng);
    ws.new_loads.clear();
    ws.down.clear();
    // Split every bin and sweep the up-movers upward. `below` is C(c−1).
    let (mut below, mut pool) = (0u64, 0u64);
    for &(_, k) in hist.bins() {
        let above = n - below - k;
        let down = draw(k, (below as f64 / n as f64).powi(2));
        // P(up | not down) = (n − C(c))² / ((n − C(c−1)) · (n + C(c−1))).
        let up_if_not_down =
            (above as f64 / (n - below) as f64) * (above as f64 / (n + below) as f64);
        let up = draw(k - down, up_if_not_down);
        let r = k as f64 / (n - below) as f64;
        let landed = draw(pool, r * (2.0 - r));
        pool = pool - landed + up;
        ws.new_loads.push(k - down - up + landed);
        ws.down.push(down);
        below += k;
    }
    // Sweep the down-movers downward. `below` is now C(c).
    let mut pool = 0u64;
    for ((&(_, k), load), &down) in hist
        .bins()
        .iter()
        .zip(&mut ws.new_loads)
        .zip(&ws.down)
        .rev()
    {
        let r = k as f64 / below as f64;
        let landed = draw(pool, r * (2.0 - r));
        pool = pool - landed + down;
        *load += landed;
        below -= k;
    }
    hist.set_loads(&ws.new_loads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use stabcon_util::rng::Xoshiro256pp;
    use std::collections::BTreeMap;

    /// Where one ball of bin `b` lands, written from the per-ball law of the
    /// module docs (not from the pooled sweep).
    fn destination_law(loads: &[u64], b: usize) -> Vec<f64> {
        let n: u64 = loads.iter().sum();
        let f = |c: isize| -> f64 {
            let at_or_below: u64 = loads.iter().take((c + 1).max(0) as usize).sum();
            at_or_below as f64 / n as f64
        };
        let g = |c: isize| 1.0 - f(c - 1);
        (0..loads.len() as isize)
            .map(|c| match c.cmp(&(b as isize)) {
                std::cmp::Ordering::Less => f(c).powi(2) - f(c - 1).powi(2),
                std::cmp::Ordering::Equal => 1.0 - f(c - 1).powi(2) - (1.0 - f(c)).powi(2),
                std::cmp::Ordering::Greater => g(c).powi(2) - g(c + 1).powi(2),
            })
            .collect()
    }

    /// Every way to put `k` balls into `probs.len()` bins, with its
    /// multinomial probability.
    fn multinomial_outcomes(k: u64, probs: &[f64]) -> Vec<(Vec<u64>, f64)> {
        let Some((&p, rest)) = probs.split_first() else {
            return vec![(Vec::new(), if k == 0 { 1.0 } else { 0.0 })];
        };
        let mut out = Vec::new();
        let mut choose = 1.0;
        for x in 0..=k {
            for (mut tail, q) in multinomial_outcomes(k - x, rest) {
                tail.insert(0, x);
                out.push((tail, choose * p.powi(x as i32) * q));
            }
            choose *= (k - x) as f64 / (x + 1) as f64;
        }
        out
    }

    /// The exact law of the next loads: each bin's balls land
    /// independently by [`destination_law`].
    fn exact_next_law(loads: &[u64]) -> BTreeMap<Vec<u64>, f64> {
        let mut law = BTreeMap::from([(vec![0; loads.len()], 1.0)]);
        for (b, &k) in loads.iter().enumerate() {
            let outcomes = multinomial_outcomes(k, &destination_law(loads, b));
            let mut next = BTreeMap::new();
            for (state, p) in &law {
                for (moved, q) in &outcomes {
                    let sum: Vec<u64> = state.iter().zip(moved).map(|(a, b)| a + b).collect();
                    *next.entry(sum).or_insert(0.0) += p * q;
                }
            }
            law = next;
        }
        law
    }

    #[test]
    fn one_step_law_matches_exact_enumeration() {
        // Gapped values: the step reads bin order, never the values. The
        // empirical total variation of N rounds has mean at most
        // ½ Σ √(p(1 − p)/N) and moves by at most 1/N per round, so it
        // exceeds that plus √(ln(1/α)/2N) with probability below α = 10⁻⁹.
        const N: usize = 100_000;
        let cases: [&[(Value, u64)]; 3] = [
            &[(0, 3), (7, 5)],
            &[(1, 2), (4, 3), (10, 4)],
            &[(0, 2), (3, 1), (8, 3), (20, 2)],
        ];
        for (i, pairs) in cases.into_iter().enumerate() {
            let start = Histogram::new(pairs);
            let loads: Vec<u64> = pairs.iter().map(|&(_, c)| c).collect();
            let exact = exact_next_law(&loads);
            let mut seen: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
            let mut rng = Xoshiro256pp::seed(0x5EED + i as u64);
            let mut ws = StepScratch::default();
            for _ in 0..N {
                let mut h = start.clone();
                step_in_place(&mut h, &mut rng, &mut ws);
                let next: Vec<u64> = pairs.iter().map(|&(v, _)| h.load(v)).collect();
                *seen.entry(next).or_insert(0) += 1;
            }
            let mut tv = 0.0;
            for (state, &p) in &exact {
                let p_hat = seen.get(state).map_or(0, |&c| c) as f64 / N as f64;
                tv += (p_hat - p).abs() / 2.0;
            }
            for state in seen.keys() {
                assert!(
                    exact.contains_key(state),
                    "m = {}: unreachable {state:?}",
                    loads.len()
                );
            }
            let mean_bound: f64 = exact
                .values()
                .map(|&p| (p * (1.0 - p) / N as f64).sqrt())
                .sum::<f64>()
                / 2.0;
            let bound = mean_bound + ((1e9f64).ln() / (2.0 * N as f64)).sqrt();
            assert!(tv <= bound, "m = {}: TV {tv:.4} > {bound:.4}", loads.len());
        }
    }

    #[test]
    fn skewed_tail_steps_without_cancellation() {
        // One bin of 2^51 balls under 399 tiny ones: F(c) is within 2⁻⁴⁰
        // of 1 over the whole tail, where F(c)² − F(c−1)² cancels. The
        // sweep's ratios come from integer counts, so no binomial sees a
        // probability outside [0, 1] (it would panic), the population is
        // conserved and the bins stay sorted.
        let mut pairs: Vec<(Value, u64)> = vec![(0, 1 << 51)];
        pairs.extend((1..400u32).map(|v| (v, 1 + (v as u64 % 3))));
        let mut h = Histogram::new(&pairs);
        let n = h.n();
        let mut rng = Xoshiro256pp::seed(6);
        let mut ws = StepScratch::default();
        for _ in 0..64 {
            step_in_place(&mut h, &mut rng, &mut ws);
            assert_eq!(h.bins().iter().map(|&(_, c)| c).sum::<u64>(), n);
            assert!(h.bins().windows(2).all(|w| w[0].0 < w[1].0));
            assert!(h.bins().iter().all(|&(_, c)| c > 0));
        }
    }

    #[test]
    fn step_preserves_population_and_support() {
        let mut rng = Xoshiro256pp::seed(1);
        let mut h = Histogram::new(&[(3, 1000), (7, 2000), (11, 500), (20, 1500)]);
        let mut ws = StepScratch::default();
        let n = h.n();
        let values: Vec<Value> = h.bins().iter().map(|&(v, _)| v).collect();
        for _ in 0..20 {
            step_in_place(&mut h, &mut rng, &mut ws);
            assert_eq!(h.n(), n, "population must be conserved");
            for &(v, _) in h.bins() {
                assert!(values.contains(&v), "value {v} invented");
            }
        }
    }

    #[test]
    fn dirty_scratch_is_bit_identical_to_fresh() {
        // Same RNG stream, same draws, whatever the scratch last held —
        // including the no-RNG consensus no-op.
        let mut a_rng = Xoshiro256pp::seed(9);
        let mut b_rng = Xoshiro256pp::seed(9);
        let mut a = Histogram::new(&[(2, 700), (5, 100), (8, 1), (9, 199)]);
        let mut b = a.clone();
        let mut ws = StepScratch::default();
        for _ in 0..64 {
            step_in_place(&mut a, &mut a_rng, &mut StepScratch::default());
            step_in_place(&mut b, &mut b_rng, &mut ws);
            assert_eq!(a, b);
            assert_eq!(a_rng.next_u64(), b_rng.next_u64(), "streams diverged");
        }
    }

    #[test]
    fn consensus_is_absorbing() {
        let mut rng = Xoshiro256pp::seed(2);
        let mut h = Histogram::new(&[(9, 12345)]);
        let before = h.clone();
        step_in_place(&mut h, &mut rng, &mut StepScratch::default());
        assert_eq!(h, before);
        assert_eq!(rng.next_u64(), Xoshiro256pp::seed(2).next_u64());
    }

    #[test]
    fn two_bins_converge() {
        let mut rng = Xoshiro256pp::seed(3);
        let mut h = Histogram::new(&[(0, 2048), (1, 2048)]);
        let mut ws = StepScratch::default();
        let mut rounds = 0u64;
        while h.support_size() > 1 && rounds < 500 {
            step_in_place(&mut h, &mut rng, &mut ws);
            rounds += 1;
        }
        assert_eq!(h.support_size(), 1, "no consensus after {rounds} rounds");
        assert!(rounds < 200, "suspiciously slow: {rounds}");
    }

    #[test]
    fn huge_population_converges() {
        // 2^40 balls in three bins — impossible densely, trivial here.
        let mut rng = Xoshiro256pp::seed(4);
        let big = 1u64 << 40;
        let mut h = Histogram::new(&[(1, big), (2, big), (3, big)]);
        let mut ws = StepScratch::default();
        let mut rounds = 0u64;
        while h.support_size() > 1 && rounds < 2000 {
            step_in_place(&mut h, &mut rng, &mut ws);
            rounds += 1;
        }
        assert_eq!(h.support_size(), 1);
        assert_eq!(h.n(), 3 * big);
    }

    #[test]
    fn median_bin_attracts() {
        // One step from a symmetric 3-bin config must, in expectation, grow
        // the middle bin; check the empirical mean over repeats.
        let mut rng = Xoshiro256pp::seed(5);
        let start = Histogram::new(&[(0, 300), (1, 400), (2, 300)]);
        let mut ws = StepScratch::default();
        let mut mid_sum = 0u64;
        let reps = 300;
        for _ in 0..reps {
            let mut next = start.clone();
            step_in_place(&mut next, &mut rng, &mut ws);
            mid_sum += next.load(1);
        }
        let mean_mid = mid_sum as f64 / reps as f64;
        assert!(
            mean_mid > 420.0,
            "median bin should grow from 400: got {mean_mid}"
        );
    }
}
