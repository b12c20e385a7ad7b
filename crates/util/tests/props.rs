//! Property-based tests for the substrate crate.

use proptest::prelude::*;
use rand::RngCore;
use stabcon_util::dist::{
    binomial_cdf, binomial_pmf, ln_binomial_coeff, ln_factorial, Binomial, PackedAlias,
};
use stabcon_util::rng::{derive_seed, gen_f64, gen_index, CounterRng, SplitMix64, Xoshiro256pp};
use stabcon_util::stats::quantile;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // --- RNG ---------------------------------------------------------------

    #[test]
    fn gen_index_always_in_range(seed in any::<u64>(), n in 1u64..u64::MAX) {
        let mut rng = Xoshiro256pp::seed(seed);
        for _ in 0..32 {
            prop_assert!(gen_index(&mut rng, n) < n);
        }
    }

    #[test]
    fn gen_f64_in_unit_interval(seed in any::<u64>()) {
        let mut rng = SplitMix64::seed(seed);
        for _ in 0..64 {
            let u = gen_f64(&mut rng);
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn counter_rng_is_stateless_hash(seed in any::<u64>(), stream in any::<u64>(), k in 0u64..1000) {
        let mut rng = CounterRng::at(seed, stream, k);
        let direct = CounterRng::word(seed, stream, k);
        prop_assert_eq!(rng.next_u64(), direct);
    }

    #[test]
    fn derive_seed_is_injective_on_streams(master in any::<u64>(), a in 0u64..10_000, b in 0u64..10_000) {
        if a != b {
            prop_assert_ne!(derive_seed(master, a), derive_seed(master, b));
        }
    }

    // --- distributions -------------------------------------------------------

    #[test]
    fn binomial_sample_in_support(seed in any::<u64>(), n in 0u64..100_000, p in 0.0f64..=1.0) {
        let mut rng = Xoshiro256pp::seed(seed);
        let x = Binomial::new(n, p).sample(&mut rng);
        prop_assert!(x <= n);
    }

    #[test]
    fn binomial_pmf_is_probability(n in 0u64..200, p in 0.0f64..=1.0, k in 0u64..220) {
        let q = binomial_pmf(n, p, k);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&q));
    }

    #[test]
    fn binomial_cdf_monotone(n in 1u64..100, p in 0.01f64..0.99, k in 0u64..100) {
        let k = k.min(n.saturating_sub(1));
        prop_assert!(binomial_cdf(n, p, k) <= binomial_cdf(n, p, k + 1) + 1e-12);
    }

    #[test]
    fn ln_factorial_is_superadditive(a in 0u64..5000, b in 0u64..5000) {
        // ln((a+b)!) ≥ ln(a!) + ln(b!)  (C(a+b, a) ≥ 1)
        prop_assert!(ln_factorial(a + b) + 1e-9 >= ln_factorial(a) + ln_factorial(b));
    }

    #[test]
    fn ln_binomial_symmetry(n in 0u64..2000, k in 0u64..2000) {
        if k <= n {
            let a = ln_binomial_coeff(n, k);
            let b = ln_binomial_coeff(n, n - k);
            prop_assert!((a - b).abs() < 1e-7, "C({},{}) asymmetric: {} vs {}", n, k, a, b);
        }
    }

    #[test]
    fn alias_table_samples_support_only(seed in any::<u64>(),
                                        w in prop::collection::vec(0.0f64..10.0, 1..20)) {
        prop_assume!(w.iter().sum::<f64>() > 1e-9);
        let table = PackedAlias::new(&w);
        let mut rng = Xoshiro256pp::seed(seed);
        for _ in 0..64 {
            let idx = table.sample_word(rng.next_u64());
            prop_assert!(idx < w.len());
            prop_assert!(w[idx] > 0.0, "sampled zero-weight category {}", idx);
        }
    }

    // --- statistics ----------------------------------------------------------

    #[test]
    fn quantile_is_monotone_in_q(xs in prop::collection::vec(-1e5f64..1e5, 1..100),
                                 q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&xs, lo) <= quantile(&xs, hi) + 1e-9);
    }

    #[test]
    fn quantile_bounded_by_extremes(xs in prop::collection::vec(-1e5f64..1e5, 1..100),
                                    q in 0.0f64..=1.0) {
        let v = quantile(&xs, q);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }
}

/// Statistical (fixed-seed) check: BINV and BTRS agree where their domains
/// meet — sample means from both regimes straddle the true mean.
#[test]
fn binomial_regime_boundary_consistency() {
    // np just below and above 10 with the same n: different code paths.
    let n = 1000u64;
    let mut rng = Xoshiro256pp::seed(777);
    for &p in &[0.009f64, 0.011] {
        let d = Binomial::new(n, p);
        let trials = 30_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            sum += d.sample(&mut rng);
        }
        let mean = sum as f64 / trials as f64;
        let se = (d.variance() / trials as f64).sqrt();
        assert!(
            (mean - d.mean()).abs() < 6.0 * se,
            "p = {p}: mean {mean} vs {}",
            d.mean()
        );
    }
}
