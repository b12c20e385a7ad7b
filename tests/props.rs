//! Cross-crate property-based tests (proptest).
//!
//! These pin the algebraic facts the paper's proofs rest on, on random
//! inputs: the median-rule kernel (Lemma 17's commutation), budget and
//! validity enforcement, engine determinism, and distribution-law
//! consistency between the dense and histogram engines.

use proptest::prelude::*;
use stabcon::core::adversary::{Adversary, Corruptor, RandomCorruptor};
use stabcon::core::engine::adaptive::LoadCounts;
use stabcon::core::engine::{dense, hist};
use stabcon::core::histogram::Histogram;
use stabcon::core::protocol::MedianRule;
use stabcon::prelude::*;
use stabcon::util::rng::Xoshiro256pp;

fn small_values() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..16, 2..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- median algebra ----------------------------------------------------

    #[test]
    fn median3_is_permutation_invariant(a in 0u32..1000, b in 0u32..1000, c in 0u32..1000) {
        let m = median3(a, b, c);
        prop_assert_eq!(m, median3(a, c, b));
        prop_assert_eq!(m, median3(b, a, c));
        prop_assert_eq!(m, median3(b, c, a));
        prop_assert_eq!(m, median3(c, a, b));
        prop_assert_eq!(m, median3(c, b, a));
    }

    #[test]
    fn median3_returns_one_of_its_inputs(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        let m = median3(a, b, c);
        prop_assert!(m == a || m == b || m == c);
    }

    #[test]
    fn median3_is_between_min_and_max(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        let m = median3(a, b, c);
        prop_assert!(m >= a.min(b).min(c));
        prop_assert!(m <= a.max(b).max(c));
    }

    #[test]
    fn median3_commutes_with_monotone_maps(a in 0u32..500, b in 0u32..500, c in 0u32..500, div in 1u32..7, cap in 0u32..500) {
        // The Lemma 17 kernel, for two monotone map families.
        let f = |v: u32| v / div;
        prop_assert_eq!(median3(f(a), f(b), f(c)), f(median3(a, b, c)));
        let g = |v: u32| v.min(cap);
        prop_assert_eq!(median3(g(a), g(b), g(c)), g(median3(a, b, c)));
    }

    #[test]
    fn median3_is_monotone_in_each_argument(a in 0u32..100, b in 0u32..100, c in 0u32..100, bump in 1u32..50) {
        prop_assert!(median3(a + bump, b, c) >= median3(a, b, c));
        prop_assert!(median3(a, b + bump, c) >= median3(a, b, c));
        prop_assert!(median3(a, b, c + bump) >= median3(a, b, c));
    }

    // --- engines -----------------------------------------------------------

    #[test]
    fn dense_engine_seq_equals_par(values in small_values(), seed in any::<u64>(), round in 0u64..8) {
        let mut seq = vec![0u32; values.len()];
        let mut par = vec![0u32; values.len()];
        dense::step_seq(&values, &mut seq, &MedianRule, seed, round);
        dense::step_par(4, &values, &mut par, &MedianRule, seed, round);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn dense_engine_never_invents_values(values in small_values(), seed in any::<u64>()) {
        let mut new = vec![0u32; values.len()];
        dense::step_seq(&values, &mut new, &MedianRule, seed, 0);
        for v in &new {
            prop_assert!(values.contains(v), "value {} invented", v);
        }
    }

    #[test]
    fn hist_step_preserves_population(loads in prop::collection::vec(1u64..10_000, 1..12), seed in any::<u64>()) {
        let pairs: Vec<(u32, u64)> = loads.iter().enumerate().map(|(v, &c)| (v as u32, c)).collect();
        let mut h = Histogram::new(&pairs);
        let n: u64 = loads.iter().sum();
        let mut rng = Xoshiro256pp::seed(seed);
        hist::step_in_place(&mut h, &mut rng, &mut hist::StepScratch::default());
        prop_assert_eq!(h.bins().iter().map(|&(_, c)| c).sum::<u64>(), n);
    }

    // --- adversary enforcement ----------------------------------------------

    #[test]
    fn corruptor_never_exceeds_budget(values in small_values(), budget in 0u64..20, seed in any::<u64>()) {
        let set = ValueSet::from_values(&values);
        let mut state = values.clone();
        let mut rng = Xoshiro256pp::seed(seed);
        let mut adv = RandomCorruptor;
        {
            let mut loads = LoadCounts::default();
            loads.rebuild(&mut state, &mut Vec::new(), false);
            let (mut touched, mut draws) = (Vec::new(), Vec::new());
            let mut c = Corruptor::new(&mut loads, &set, budget, &mut draws)
                .with_processes(&mut state, &mut touched);
            adv.corrupt(0, &mut c, &mut rng);
        }
        let changed = state.iter().zip(&values).filter(|(a, b)| a != b).count() as u64;
        prop_assert!(changed <= budget, "changed {} > budget {}", changed, budget);
        for v in &state {
            prop_assert!(set.contains(*v));
        }
    }

    // --- protocols ----------------------------------------------------------

    #[test]
    fn protocols_respect_declared_sample_counts(own in 0u32..100, s in prop::collection::vec(0u32..100, 8)) {
        for spec in [ProtocolSpec::Median, ProtocolSpec::Min, ProtocolSpec::Max,
                     ProtocolSpec::Mean, ProtocolSpec::Majority, ProtocolSpec::Voter,
                     ProtocolSpec::KMedian(5)] {
            let p = spec.build();
            let k = p.samples();
            let out = p.combine(own, &s[..k]);
            if p.validity_preserving() {
                prop_assert!(out == own || s[..k].contains(&out),
                    "{} invented {} from own={} samples={:?}", p.name(), out, own, &s[..k]);
            }
        }
    }

    #[test]
    fn run_results_are_seed_deterministic(seed in any::<u64>()) {
        let spec = SimSpec::new(128).init(InitialCondition::UniformRandom { m: 4 });
        let a = spec.run_seeded(seed);
        let b = spec.run_seeded(seed);
        prop_assert_eq!(a.consensus_round, b.consensus_round);
        prop_assert_eq!(a.winner, b.winner);
    }
}

// --- one-step law agreement (statistical, fixed seeds; not proptest) --------

#[test]
fn dense_and_histogram_one_step_means_agree() {
    // From a fixed 3-bin config, the expected next loads per the median
    // rule's per-ball law must match dense-engine empirical means. With
    // load CDF F over bins 0 < 1 < 2, a ball in bin b lands at c < b with
    // probability F(c)² − F(c−1)², at c > b with G(c)² − G(c+1)² where
    // G(c) = 1 − F(c−1), and stays otherwise.
    let n = 3000usize;
    let loads = [1000u64, 1200, 800];
    let f = |c: usize| loads[..c].iter().sum::<u64>() as f64 / n as f64;
    let (f0, f1) = (f(1), f(2));
    let law = [
        [
            1.0 - (1.0 - f0).powi(2),
            (1.0 - f0).powi(2) - (1.0 - f1).powi(2),
            (1.0 - f1).powi(2),
        ],
        [
            f0 * f0,
            1.0 - f0 * f0 - (1.0 - f1).powi(2),
            (1.0 - f1).powi(2),
        ],
        [f0 * f0, f1 * f1 - f0 * f0, 1.0 - f1 * f1],
    ];
    // Expected load of bin c next round = Σ_b load_b · law_b[c].
    let mut expected = [0.0f64; 3];
    for (b, &load) in loads.iter().enumerate() {
        for (c, e) in expected.iter_mut().enumerate() {
            *e += load as f64 * law[b][c];
        }
    }
    // Dense empirical means.
    let mut old = Vec::with_capacity(n);
    for (v, &c) in loads.iter().enumerate() {
        old.extend(std::iter::repeat_n(v as u32, c as usize));
    }
    let trials = 300u64;
    let mut sums = [0.0f64; 3];
    let mut new = vec![0u32; n];
    for t in 0..trials {
        dense::step_seq(&old, &mut new, &MedianRule, 0xABCD + t, 0);
        for &v in &new {
            sums[v as usize] += 1.0;
        }
    }
    for c in 0..3 {
        let mean = sums[c] / trials as f64;
        // Per-trial sd of a bin load is ≤ √(n·p(1−p)) ≤ ~27; se over 300
        // trials ≈ 1.6. Allow 6σ plus slack for law-vs-sample coupling.
        assert!(
            (mean - expected[c]).abs() < 12.0,
            "bin {c}: dense mean {mean:.1} vs histogram expectation {:.1}",
            expected[c]
        );
    }
}
