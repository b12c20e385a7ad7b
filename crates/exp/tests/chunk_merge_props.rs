//! Chunk-partial merge exactness: folding a cell's trials into partial
//! [`CellAggregate`]s over an **arbitrary** split and merging the partials
//! — in chunk order or in any permuted order — must be bit-identical to
//! one sequential [`CellAggregate::push`] fold, for every observer. Every
//! channel is an integer sketch, so this holds by arithmetic.
//!
//! This is the algebra the persistent-worker scheduler rests on; the
//! end-to-end version (through `run_cell`, threads, and real chunking)
//! lives in `observer_props.rs`.

use proptest::prelude::*;
use stabcon_core::adversary::AdversarySpec;
use stabcon_core::init::InitialCondition;
use stabcon_core::runner::SimSpec;
use stabcon_exp::{CellAggregate, CellSpec, HitMetric, TrialMetrics, TrialObserver};
use stabcon_util::rng::{derive_seed, SplitMix64};

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
                .max_rounds(3),
            trials,
            seed,
        )
        .observer(TrialObserver::OneStepDrift),
        _ => {
            let sim = SimSpec::new(n)
                .init(InitialCondition::TwoBins { left: n / 2 })
                .adversary(AdversarySpec::Random, 2)
                .max_rounds(60)
                .full_horizon(true);
            CellSpec::new(sim, trials, seed)
                .metric(HitMetric::AlmostStable)
                .observer(TrialObserver::StabilityExcursions)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merge_of_arbitrary_chunk_splits_equals_sequential_fold(
        observer_ix in 0usize..4,
        seed in 0u64..1_000,
        trials in 1u64..28,
        // Chunk boundary pattern: cut after trial i when bit i is set.
        cuts in any::<u32>(),
        // Seed of the permuted merge order.
        order in any::<u64>(),
    ) {
        let cell = cell_for(observer_ix, 128, trials, seed);
        let metrics: Vec<TrialMetrics> = (0..trials)
            .map(|i| {
                let r = cell.sim.run_seeded(derive_seed(cell.seed, i));
                TrialMetrics::capture(&cell.sim, &r, cell.observer)
            })
            .collect();

        let mut sequential = CellAggregate::new();
        for m in &metrics {
            sequential.push(m);
        }

        let mut parts = vec![CellAggregate::new()];
        for (i, m) in metrics.iter().enumerate() {
            parts.last_mut().expect("a partial").push(m);
            if cuts & (1 << (i % 32)) != 0 {
                parts.push(CellAggregate::new());
            }
        }
        let merge_all = |parts: &[CellAggregate]| {
            let mut merged = CellAggregate::new();
            for part in parts {
                merged.merge(part);
            }
            merged
        };
        prop_assert_eq!(
            &merge_all(&parts),
            &sequential,
            "observer {} split {:#034b}",
            cell.observer.label(),
            cuts
        );

        // Fisher–Yates over the partials, keyed by `order`.
        let mut rng = SplitMix64::seed(order);
        for i in (1..parts.len()).rev() {
            parts.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        prop_assert_eq!(
            &merge_all(&parts),
            &sequential,
            "observer {} split {:#034b} order {}",
            cell.observer.label(),
            cuts,
            order
        );
    }
}
