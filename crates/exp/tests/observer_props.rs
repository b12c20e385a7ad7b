//! Observer fold invariance: for EVERY observer, the streamed `run_cell`
//! aggregate — extras channels included — is identical to the materialized
//! fold (run every trial sequentially, capture, push in trial order), at
//! any thread count and chunk size.
//!
//! This is the property the driver ports lean on: every channel is an
//! order-independent integer sketch, so neither scheduling nor chunking can
//! leak into the numbers.

use proptest::prelude::*;
use stabcon_core::adversary::AdversarySpec;
use stabcon_core::init::InitialCondition;
use stabcon_core::runner::SimSpec;
use stabcon_exp::{run_cell, CellAggregate, CellSpec, HitMetric, TrialMetrics, TrialObserver};
use stabcon_par::ThreadPool;
use stabcon_util::rng::derive_seed;

const THREAD_CHOICES: [usize; 3] = [1, 2, 8];
const CHUNK_CHOICES: [u64; 2] = [3, 10];

/// Every observer variant, over a sim shaped so its channels collect real
/// samples (adversarial full-horizon for the stability observer, one-round
/// two-bin for drift, plain sweeps for the rest).
fn cell_for(observer_ix: usize, n: usize, trials: u64, seed: u64) -> CellSpec {
    match observer_ix {
        0 => CellSpec::new(
            SimSpec::new(n).init(InitialCondition::UniformRandom { m: 5 }),
            trials,
            seed,
        ),
        1 => CellSpec::new(
            SimSpec::new(n).init(InitialCondition::UniformRandom { m: 4 }),
            trials,
            seed,
        )
        .observer(TrialObserver::LastUnsettledRound),
        2 => CellSpec::new(
            SimSpec::new(n)
                .init(InitialCondition::TwoBins {
                    left: n / 2 - n / 16,
                })
                .max_rounds(1),
            trials,
            seed,
        )
        .observer(TrialObserver::OneStepDrift),
        _ => {
            let sim = SimSpec::new(n)
                .init(InitialCondition::TwoBins { left: n / 2 })
                .adversary(AdversarySpec::Random, 2)
                .max_rounds(120)
                .full_horizon(true);
            CellSpec::new(sim, trials, seed)
                .metric(HitMetric::AlmostStable)
                .observer(TrialObserver::StabilityExcursions)
        }
    }
}

fn materialized_fold(cell: &CellSpec) -> CellAggregate {
    let mut agg = CellAggregate::new();
    for i in 0..cell.trials {
        let r = cell.sim.run_seeded(derive_seed(cell.seed, i));
        agg.push(&TrialMetrics::capture(&cell.sim, &r, cell.observer));
    }
    agg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_observer_fold_is_thread_and_chunk_invariant(
        observer_ix in 0usize..4,
        seed in 0u64..1_000,
        trials in 1u64..24,
    ) {
        let cell = cell_for(observer_ix, 128, trials, seed);
        let reference = materialized_fold(&cell);
        for threads in THREAD_CHOICES {
            let pool = ThreadPool::new(threads);
            for chunk in CHUNK_CHOICES {
                let streamed = run_cell(&pool, &cell, chunk);
                prop_assert_eq!(
                    &streamed,
                    &reference,
                    "observer {} differs at threads={} chunk={}",
                    cell.observer.label(),
                    threads,
                    chunk
                );
            }
        }
    }
}
