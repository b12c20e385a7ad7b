//! Properties of the monomorphized dense hot path and the adaptive engine.
//!
//! Five contracts:
//!
//! 1. monomorphized (static-dispatch) and `dyn Protocol` dense rounds are
//!    **bit-identical** — the generic step must not change a single draw;
//! 2. sequential and parallel dense rounds stay bit-identical for any
//!    thread count, on both the plain and the load-sampled path;
//! 3. the adaptive engine is statistically exact: its consensus-round
//!    distribution agrees with pure dense (KS-style check over ≥200 seeded
//!    trials);
//! 4. an adversary that names processes keeps the adaptive engine dense,
//!    and the random one hands off like a load-only strategy;
//! 5. the handoff round depends on the loads alone: up to it an adaptive
//!    trial is the dense trial, at any thread count.

use proptest::prelude::*;
use stabcon_core::adversary::AdversarySpec;
use stabcon_core::engine::{adaptive, dense, EngineSpec};
use stabcon_core::histogram::Histogram;
use stabcon_core::init::InitialCondition;
use stabcon_core::protocol::{KMedianRule, MedianRule, Protocol, VoterRule};
use stabcon_core::runner::SimSpec;
use stabcon_core::value::Value;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- (a) monomorphized ≡ dyn --------------------------------------------

    #[test]
    fn mono_equals_dyn_median(values in prop::collection::vec(0u32..32, 64..2000),
                              seed in any::<u64>(), round in 0u64..4) {
        let mut mono = vec![0 as Value; values.len()];
        dense::step_seq(&values, &mut mono, &MedianRule, seed, round);
        let mut dynamic = vec![0 as Value; values.len()];
        let protocol: &dyn Protocol = &MedianRule;
        dense::step_seq(&values, &mut dynamic, protocol, seed, round);
        prop_assert_eq!(&mono, &dynamic);
    }

    #[test]
    fn mono_equals_dyn_all_sample_counts(values in prop::collection::vec(0u32..9, 64..500),
                                         k in 1usize..6, seed in any::<u64>()) {
        let rule = KMedianRule::new(k);
        let mut mono = vec![0 as Value; values.len()];
        dense::step_seq(&values, &mut mono, &rule, seed, 0);
        let mut dynamic = vec![0 as Value; values.len()];
        let protocol: &dyn Protocol = &rule;
        dense::step_seq(&values, &mut dynamic, protocol, seed, 0);
        prop_assert_eq!(&mono, &dynamic);
    }

    // --- (b) seq ≡ par across thread counts ---------------------------------

    #[test]
    fn seq_equals_par_all_threads(values in prop::collection::vec(0u32..64, 4096..8192),
                                  seed in any::<u64>(), round in 0u64..4) {
        let mut seq = vec![0 as Value; values.len()];
        dense::step_seq(&values, &mut seq, &MedianRule, seed, round);
        for threads in [2usize, 3, 4, 8] {
            let mut par = vec![0 as Value; values.len()];
            dense::step_par(threads, &values, &mut par, &MedianRule, seed, round);
            prop_assert_eq!(&seq, &par, "threads = {}", threads);
        }
    }

    #[test]
    fn seq_equals_par_sampled_path(values in prop::collection::vec(0u32..16, 4096..8192),
                                   seed in any::<u64>()) {
        let bins = Histogram::new(
            &values.iter().map(|&v| (v, 1u64)).collect::<Vec<_>>(),
        );
        // Aggregate duplicate values into loads.
        let mut sampler = dense::LoadSampler::new();
        sampler.rebuild(bins.bins().iter().copied(), values.len() as u64);
        let mut seq = vec![0 as Value; values.len()];
        dense::step_seq_sampled(&values, &mut seq, &MedianRule, seed, 1, &sampler);
        for threads in [2usize, 4, 8] {
            let mut par = vec![0 as Value; values.len()];
            dense::step_par_sampled(threads, &values, &mut par, &MedianRule, seed, 1, &sampler);
            prop_assert_eq!(&seq, &par, "threads = {}", threads);
        }
    }

    #[test]
    fn seq_equals_par_voter(values in prop::collection::vec(0u32..8, 4096..6000),
                            seed in any::<u64>()) {
        let mut seq = vec![0 as Value; values.len()];
        dense::step_seq(&values, &mut seq, &VoterRule, seed, 0);
        let mut par = vec![0 as Value; values.len()];
        dense::step_par(4, &values, &mut par, &VoterRule, seed, 0);
        prop_assert_eq!(&seq, &par);
    }
}

/// Runner-level seq/par bit-identity with the load-sampled path active
/// (population at the sampling floor, two bins → sampled from round one).
#[test]
fn runner_seq_equals_par_with_sampling_active() {
    let n = dense::SAMPLED_N_MIN;
    let base = SimSpec::new(n)
        .init(InitialCondition::TwoBins { left: n / 2 })
        .max_rounds(4000);
    let seq = base.clone().engine(EngineSpec::DenseSeq).run_seeded(5);
    let par = base
        .clone()
        .engine(EngineSpec::DensePar { threads: 4 })
        .run_seeded(5);
    assert_eq!(seq.consensus_round, par.consensus_round);
    assert_eq!(seq.winner, par.winner);
    assert_eq!(seq.final_disagreement, par.final_disagreement);
    assert!(seq.consensus_round.is_some(), "{seq:?}");
}

/// Two-sample Kolmogorov–Smirnov statistic over integer samples.
fn ks_statistic(a: &[u64], b: &[u64]) -> f64 {
    let mut xs: Vec<u64> = a.iter().chain(b).copied().collect();
    xs.sort_unstable();
    xs.dedup();
    let mut worst = 0.0f64;
    for &x in &xs {
        let fa = a.iter().filter(|&&v| v <= x).count() as f64 / a.len() as f64;
        let fb = b.iter().filter(|&&v| v <= x).count() as f64 / b.len() as f64;
        worst = worst.max((fa - fb).abs());
    }
    worst
}

/// (c) Adaptive vs pure dense: consensus-round distributions agree.
///
/// 256 seeded trials per engine and start. On TwoBins the trajectories
/// diverge sample-wise at the handoff (different RNG stream). An
/// `MBinsEqual { m: 16 }` start is already within the handoff support, so
/// the adaptive engine hands off at round 0 and the comparison pits the
/// dense engine's word-sequence stream against the independent histogram
/// chain for the whole run. The comparison is distributional: the
/// two-sample KS statistic must stay below the α ≈ 0.001 critical value
/// `1.95·√(2/256) ≈ 0.172` (slack to 0.18).
#[test]
fn adaptive_consensus_round_distribution_matches_dense() {
    let n = 2048usize;
    let trials = 256u64;
    for init in [
        InitialCondition::TwoBins { left: n / 2 },
        InitialCondition::MBinsEqual { m: 16 },
    ] {
        let base = SimSpec::new(n).init(init.clone()).max_rounds(2000);
        let dense_spec = base.clone().engine(EngineSpec::DenseSeq);
        let adaptive_spec = base.clone().engine(EngineSpec::Adaptive {
            threads: 1,
            handoff_support: 64,
        });
        let mut dense_rounds = Vec::with_capacity(trials as usize);
        let mut adaptive_rounds = Vec::with_capacity(trials as usize);
        for seed in 0..trials {
            let d = dense_spec.run_seeded(seed);
            let a = adaptive_spec.run_seeded(seed);
            dense_rounds.push(d.consensus_round.expect("dense trial must converge"));
            adaptive_rounds.push(a.consensus_round.expect("adaptive trial must converge"));
            assert!(a.winner_valid);
            assert_eq!(a.final_support, 1);
            assert_eq!(a.final_disagreement, 0);
        }
        let ks = ks_statistic(&dense_rounds, &adaptive_rounds);
        assert!(
            ks < 0.18,
            "{init:?}: KS distance {ks} between dense and adaptive consensus rounds"
        );
    }
}

/// With a floor of 1 bin the handoff threshold is `n / BALLS_PER_BIN`
/// (25 at n = 1,024), so an all-distinct trial starts dense and hands off
/// mid-trial. Up to and including the handoff round the adaptive trial is
/// the dense one, ball for ball: the same rounds on the same word stream.
/// After it the histogram draws its own stream, so only the law agrees.
#[test]
fn adaptive_with_tiny_threshold_behaves_like_dense() {
    let n = 1024usize;
    let base = SimSpec::new(n)
        .init(InitialCondition::AllDistinct)
        .max_rounds(4000)
        .record_trajectory(true);
    let dense = base.clone().engine(EngineSpec::DenseSeq).run_seeded(3);
    let adaptive = base
        .clone()
        .engine(EngineSpec::Adaptive {
            threads: 1,
            handoff_support: 1,
        })
        .run_seeded(3);
    let threshold = adaptive::handoff_threshold(1, n);
    assert_eq!(threshold, n / adaptive::BALLS_PER_BIN);
    let dense_traj = dense.trajectory.expect("recorded");
    let adaptive_traj = adaptive.trajectory.expect("recorded");
    let handoff = dense_traj
        .iter()
        .position(|o| o.support <= threshold)
        .expect("the dense trial narrows to the threshold");
    assert!(handoff > 0, "an all-distinct start is above the threshold");
    assert_eq!(dense_traj[..=handoff], adaptive_traj[..=handoff]);
    assert!(adaptive.consensus_round.is_some());
    assert!(adaptive.winner_valid);
}

/// The random adversary has a load-level form, so the adaptive engine
/// hands off under it: up to and including the handoff round an
/// all-distinct trial is the dense one, adversary draws included, and it
/// runs aggregated after.
#[test]
fn random_adversary_trial_is_dense_up_to_its_handoff() {
    let n = 1024usize;
    let base = SimSpec::new(n)
        .init(InitialCondition::AllDistinct)
        .adversary(AdversarySpec::Random, 8)
        .max_rounds(300)
        .record_trajectory(true);
    assert!(!AdversarySpec::Random.needs_processes());
    let threshold = adaptive::handoff_threshold(1, n);
    for seed in 0..3 {
        let dense = base.clone().engine(EngineSpec::DenseSeq).run_seeded(seed);
        let adaptive = base
            .clone()
            .engine(EngineSpec::Adaptive {
                threads: 1,
                handoff_support: 1,
            })
            .run_seeded(seed);
        let dense_traj = dense.trajectory.expect("recorded");
        let adaptive_traj = adaptive.trajectory.expect("recorded");
        let handoff = dense_traj
            .iter()
            .position(|o| o.support <= threshold)
            .expect("the dense trial narrows to the threshold");
        assert!(handoff > 0, "an all-distinct start is above the threshold");
        assert_eq!(
            dense_traj[..=handoff],
            adaptive_traj[..=handoff],
            "seed {seed}"
        );
        assert!(adaptive.winner_valid, "seed {seed}");
    }
}

/// The handoff round depends on the loads alone, never on the thread
/// count: at n = 2¹³ the threshold is `n/40 = 204`, above the 64-bin
/// floor, and a whole `Adaptive { threads: 1 }` trial equals the
/// `threads: 2` one (whose dense rounds split), trajectory included.
#[test]
fn adaptive_handoff_does_not_depend_on_threads() {
    let n = 1usize << 13;
    assert_eq!(
        adaptive::handoff_threshold(adaptive::DEFAULT_HANDOFF_SUPPORT, n),
        204
    );
    let spec = |threads| {
        SimSpec::new(n)
            .init(InitialCondition::AllDistinct)
            .record_trajectory(true)
            .engine(EngineSpec::Adaptive {
                threads,
                handoff_support: adaptive::DEFAULT_HANDOFF_SUPPORT,
            })
    };
    for seed in 0..3 {
        let one = spec(1).run_seeded(seed);
        assert!(one.consensus_round.is_some(), "seed {seed} stalled");
        assert_eq!(spec(2).run_seeded(seed), one, "seed {seed}");
    }
}

/// Non-median protocols must not hand off (the histogram law is the median
/// rule's); the adaptive engine still runs them correctly, just densely.
#[test]
fn adaptive_voter_stays_dense_and_converges() {
    let n = 1024usize;
    let base = SimSpec::new(n)
        .init(InitialCondition::TwoBins { left: n / 2 })
        .protocol(stabcon_core::protocol::ProtocolSpec::Voter)
        .max_rounds(60_000);
    let dense = base.clone().engine(EngineSpec::DenseSeq).run_seeded(11);
    let adaptive = base
        .clone()
        .engine(EngineSpec::Adaptive {
            threads: 1,
            handoff_support: 64,
        })
        .run_seeded(11);
    // No handoff possible → trajectories are bit-identical, not just equal
    // in law.
    assert_eq!(dense.consensus_round, adaptive.consensus_round);
    assert_eq!(dense.winner, adaptive.winner);
}

/// Stubborn and reviver adversaries name processes, so the adaptive engine
/// never hands off under them, not even from a start it could run
/// aggregated: a trial equals the dense engine's on the same seed and
/// thread count.
#[test]
fn process_level_adversaries_keep_the_adaptive_engine_dense() {
    let base = SimSpec::new(1024)
        .init(InitialCondition::TwoBins { left: 512 })
        .max_rounds(300);
    for (seed, adversary) in [
        AdversarySpec::Stubborn,
        AdversarySpec::Reviver { revive_at: 3 },
    ]
    .into_iter()
    .enumerate()
    {
        assert!(adversary.needs_processes());
        for threads in [1, 2] {
            let spec = base.clone().adversary(adversary, 8);
            let dense = spec.clone().engine(EngineSpec::DensePar { threads });
            let adaptive = spec.engine(EngineSpec::Adaptive {
                threads,
                handoff_support: 64,
            });
            let seed = seed as u64;
            assert_eq!(
                dense.run_seeded(seed),
                adaptive.run_seeded(seed),
                "{adversary:?}"
            );
        }
    }
}
