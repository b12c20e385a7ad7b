//! End-to-end convergence across all three engines.

use stabcon::core::engine::{EngineSpec, MessageConfig};
use stabcon::prelude::*;

/// The adaptive engine, one thread: a start of at most 64 values runs on
/// the histogram from round 0.
const HISTOGRAM: EngineSpec = EngineSpec::Adaptive {
    threads: 1,
    handoff_support: 64,
};

#[test]
fn all_engines_reach_consensus_on_two_bins() {
    let n = 2048usize;
    let engines = [
        EngineSpec::DenseSeq,
        EngineSpec::DensePar { threads: 4 },
        EngineSpec::Message(MessageConfig::default()),
    ];
    for engine in engines {
        let spec = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 2 })
            .engine(engine);
        let r = spec.run_seeded(101);
        assert!(
            r.consensus_round.is_some(),
            "engine {} failed to converge",
            engine.label()
        );
        assert!(r.winner_valid);
        assert!(r.winner <= 1);
    }
}

#[test]
fn dense_engines_agree_exactly() {
    // Sequential and parallel dense engines must produce identical runs.
    for seed in [1u64, 2, 3] {
        let base = SimSpec::new(4096).init(InitialCondition::UniformRandom { m: 7 });
        let a = base.clone().engine(EngineSpec::DenseSeq).run_seeded(seed);
        let b = base
            .clone()
            .engine(EngineSpec::DensePar { threads: 8 })
            .run_seeded(seed);
        assert_eq!(a.consensus_round, b.consensus_round, "seed {seed}");
        assert_eq!(a.winner, b.winner, "seed {seed}");
        assert_eq!(a.rounds_executed, b.rounds_executed, "seed {seed}");
    }
}

#[test]
fn histogram_engine_matches_dense_statistically() {
    // Same workload, two engines: convergence-time distributions must be
    // close. (They are different samplings of the same Markov chain.)
    let n = 1 << 12;
    let trials = 40u64;
    let dense_spec = SimSpec::new(n).init(InitialCondition::MBinsEqual { m: 4 });
    let mut dense_times = Vec::new();
    for s in 0..trials {
        dense_times.push(
            dense_spec
                .run_seeded(1000 + s)
                .consensus_round
                .expect("dense converges") as f64,
        );
    }
    let hist_spec = dense_spec.clone().engine(HISTOGRAM);
    let mut hist_times = Vec::new();
    for s in 0..trials {
        hist_times.push(
            hist_spec
                .run_seeded(2000 + s)
                .consensus_round
                .expect("hist converges") as f64,
        );
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let dm = mean(&dense_times);
    let hm = mean(&hist_times);
    assert!(
        (dm - hm).abs() < 0.35 * dm.max(hm) + 2.0,
        "dense mean {dm} vs histogram mean {hm} diverge"
    );
}

#[test]
fn worst_case_all_distinct_scales_logarithmically() {
    // Theorem 1 sanity: mean convergence time grows by roughly a constant
    // number of rounds per doubling, not multiplicatively.
    let mut means = Vec::new();
    for n in [512usize, 2048, 8192] {
        let spec = SimSpec::new(n); // all-distinct default
        let mut total = 0.0;
        let trials = 8;
        for s in 0..trials {
            total += spec.run_seeded(s).consensus_round.expect("converges") as f64;
        }
        means.push(total / trials as f64);
    }
    let growth_1 = means[1] - means[0];
    let growth_2 = means[2] - means[1];
    // 16× population growth: each 4× step should add a bounded number of
    // rounds (log-like), not scale the time by anything near 4×.
    assert!(means[2] < 2.0 * means[0], "not logarithmic: {means:?}");
    assert!(
        growth_1.abs() < means[0] && growth_2.abs() < means[0],
        "per-doubling increments too large: {means:?}"
    );
}

#[test]
fn median_rule_validity_is_universal() {
    // Any initial condition, any seed: the winner is an initial value.
    for (i, init) in [
        InitialCondition::AllDistinct,
        InitialCondition::TwoBins { left: 17 },
        InitialCondition::MBinsEqual { m: 6 },
        InitialCondition::UniformRandom { m: 11 },
    ]
    .into_iter()
    .enumerate()
    {
        let spec = SimSpec::new(1024).init(init);
        let r = spec.run_seeded(300 + i as u64);
        assert!(r.winner_valid, "init #{i} produced invalid winner");
    }
}

#[test]
fn huge_population_histogram_run() {
    // 2^44 balls in three equal bins — only possible on the histogram,
    // from loads computed in closed form.
    let r = SimSpec::new(1 << 44)
        .init(InitialCondition::MBinsEqual { m: 3 })
        .engine(HISTOGRAM)
        .run_seeded(5);
    assert!(r.consensus_round.is_some());
    assert!(r.winner < 3);
}

#[test]
fn single_process_is_trivially_consensus() {
    let spec = SimSpec::new(1);
    let r = spec.run_seeded(1);
    assert_eq!(r.consensus_round, Some(0));
    // The stability window (default 8) keeps the run alive a few rounds to
    // confirm persistence, but no longer than the window itself.
    assert!(r.rounds_executed <= 8, "ran {} rounds", r.rounds_executed);
}
