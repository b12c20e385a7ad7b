//! Workspace-reuse bit-identity: a trial run through a **dirty, reused**
//! [`TrialWorkspace`] must produce a [`RunResult`] bit-identical to a fresh
//! allocation, across engines × protocols × trajectory recording — no
//! matter what shape (population size, maintainer kind, engine) the
//! workspace ran before.
//!
//! This is the contract that lets the campaign scheduler hold one
//! workspace per persistent worker and stream arbitrary cells through it.

use proptest::prelude::*;
use stabcon_core::adversary::AdversarySpec;
use stabcon_core::engine::{EngineSpec, MessageConfig, Rejoin, ScenarioSpec};
use stabcon_core::init::InitialCondition;
use stabcon_core::protocol::ProtocolSpec;
use stabcon_core::runner::SimSpec;
use stabcon_core::workspace::TrialWorkspace;

/// Every network fault axis at once: the cached message engine must carry
/// delay rings, fault bitmaps, and in-flight state across checkouts.
fn hostile_scenario() -> ScenarioSpec {
    ScenarioSpec::clean()
        .with_latency(1, 2)
        .with_drop_per_mille(50)
        .with_partition(400, 2, 20)
        .with_churn(8, 3, 18, Rejoin::Adversarial)
        .with_byzantine(4)
}

fn engine(ix: usize) -> EngineSpec {
    match ix {
        0 => EngineSpec::DenseSeq,
        1 => EngineSpec::DensePar { threads: 2 },
        2 => EngineSpec::Adaptive {
            threads: 2,
            handoff_support: 8,
        },
        3 => EngineSpec::Message(MessageConfig::default()),
        _ => EngineSpec::Message(MessageConfig {
            scenario: hostile_scenario(),
            ..MessageConfig::default()
        }),
    }
}

fn protocol(ix: usize) -> ProtocolSpec {
    match ix {
        0 => ProtocolSpec::Median,
        1 => ProtocolSpec::Min,
        2 => ProtocolSpec::Mean, // value-inventing → tree maintainer
        _ => ProtocolSpec::KMedian(5),
    }
}

fn spec(engine_ix: usize, protocol_ix: usize, n: usize, record: bool) -> SimSpec {
    SimSpec::new(n)
        .init(InitialCondition::UniformRandom { m: 6 })
        .protocol(protocol(protocol_ix))
        .engine(engine(engine_ix))
        .max_rounds(200)
        .record_trajectory(record)
}

/// A differently shaped trial that leaves every buffer dirty: different
/// population, two-bin universe, an adversary (touches the corruption
/// path), trajectory on, and — on a different engine — a cached message
/// engine or handoff histogram of the wrong size.
fn dirty(ws: &mut TrialWorkspace, salt: u64) {
    let engines = [
        EngineSpec::Adaptive {
            threads: 1,
            handoff_support: 4,
        },
        EngineSpec::Message(MessageConfig::default()),
        // Leave a *faulted* cached engine behind: live delay rings and
        // fault bitmaps from a different scenario must not leak into the
        // next checkout.
        EngineSpec::Message(MessageConfig {
            scenario: hostile_scenario(),
            ..MessageConfig::default()
        }),
        EngineSpec::DenseSeq,
    ];
    for (i, &e) in engines.iter().enumerate() {
        let sim = SimSpec::new(96 + 32 * i)
            .init(InitialCondition::TwoBins { left: 48 })
            .engine(e)
            .adversary(AdversarySpec::Random, 4)
            .max_rounds(40)
            .record_trajectory(true);
        let r = sim.run_seeded_into(salt ^ i as u64, ws);
        ws.recycle(r);
    }
    // Dirty the open bins too (the mean rule's loads).
    let sim = SimSpec::new(64)
        .init(InitialCondition::AllDistinct)
        .protocol(ProtocolSpec::Mean)
        .max_rounds(20);
    let r = sim.run_seeded_into(salt, ws);
    ws.recycle(r);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dirty_workspace_is_bit_identical_to_fresh(
        engine_ix in 0usize..5,
        protocol_ix in 0usize..4,
        n in 64usize..512,
        record in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let sim = spec(engine_ix, protocol_ix, n, record);
        let fresh = sim.run_seeded(seed);

        let mut ws = TrialWorkspace::new();
        dirty(&mut ws, seed.wrapping_add(1));
        let reused = sim.run_seeded_into(seed, &mut ws);
        prop_assert_eq!(&reused, &fresh, "engine {} protocol {}", engine_ix, protocol_ix);

        // Back-to-back reuse of the *same* shape must also be stable.
        let again = sim.run_seeded_into(seed, &mut ws);
        prop_assert_eq!(&again, &fresh);
    }

    #[test]
    fn adversarial_trials_reuse_cleanly(
        n in 128usize..512,
        seed in any::<u64>(),
    ) {
        let t = (n as f64).sqrt() as u64;
        // The adaptive engine runs the random adversary on the histogram,
        // its draws parked in the workspace.
        for engine in [EngineSpec::DenseSeq, engine(2)] {
            let sim = SimSpec::new(n)
                .init(InitialCondition::TwoBins { left: n / 2 })
                .engine(engine)
                .adversary(AdversarySpec::Random, t)
                .max_rounds(150)
                .full_horizon(true)
                .record_trajectory(true);
            let fresh = sim.run_seeded(seed);
            let mut ws = TrialWorkspace::new();
            dirty(&mut ws, seed ^ 0xD1);
            let reused = sim.run_seeded_into(seed, &mut ws);
            prop_assert_eq!(&reused, &fresh);
        }
    }
}
