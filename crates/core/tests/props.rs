//! Property-based tests for the dynamics core.

use std::sync::Arc;

use proptest::prelude::*;
use rand::RngCore;
use stabcon_core::adversary::{Adversary, AdversarySpec, Corruptor, MedianPusher};
use stabcon_core::engine::adaptive::LoadCounts;
use stabcon_core::engine::{dense, hist, EngineSpec, MessageConfig, Rejoin, ScenarioSpec};
use stabcon_core::histogram::Histogram;
use stabcon_core::init::InitialCondition;
use stabcon_core::protocol::{KMedianRule, MedianRule, ProtocolSpec};
use stabcon_core::runner::SimSpec;
use stabcon_core::value::{Value, ValueSet};
use stabcon_core::workspace::TrialWorkspace;
use stabcon_util::rng::Xoshiro256pp;

/// The loads of a dense `state`: the rank table (relabelling `state`) or,
/// for a value-inventing rule, open bins.
fn rebuilt(state: &mut [Value], validity_preserving: bool) -> LoadCounts {
    let mut loads = LoadCounts::default();
    loads.rebuild(state, &mut Vec::new(), validity_preserving);
    loads
}

/// The loads of a trial on the histogram engine: the bins of `hist`.
fn aggregated(hist: &Histogram) -> LoadCounts {
    let mut loads = LoadCounts::default();
    loads.rebuild_aggregated(hist.bins().iter().copied());
    loads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- observables against a sort-based reference --------------------------

    /// Every production observable path — the rank table, open bins, and
    /// the aggregated histogram — reports the dense
    /// configuration's support, plurality (ties to the smaller value),
    /// lower-median bin and two-bin imbalance, as computed here by sorting.
    #[test]
    fn histogram_and_config_observables_agree(values in prop::collection::vec(0u32..20, 1..200)) {
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut bins: Vec<(Value, u64)> = Vec::new();
        for &v in &sorted {
            match bins.last_mut() {
                Some((last, load)) if *last == v => *load += 1,
                _ => bins.push((v, 1)),
            }
        }
        let plurality = *bins
            .iter()
            .max_by_key(|&&(v, load)| (load, std::cmp::Reverse(v)))
            .expect("nonempty");
        let median = sorted[sorted.len().div_ceil(2) - 1];
        let mut loads: Vec<u64> = bins.iter().map(|&(_, load)| load).collect();
        loads.sort_unstable_by(|a, b| b.cmp(a));
        let imbalance = (loads[0] - loads.get(1).copied().unwrap_or(0)) as f64 / 2.0;

        let balls: Vec<(Value, u64)> = values.iter().map(|&v| (v, 1)).collect();
        let mut observed = vec![("histogram", aggregated(&Histogram::new(&balls)).observe())];
        for (name, ranked) in [("ranked", true), ("open", false)] {
            let mut state = values.clone();
            let counts = rebuilt(&mut state, ranked);
            // The ranked table reports ranks; map them back to values.
            let mut obs = counts.observe();
            obs.plurality_value = counts.value_of(obs.plurality_value);
            obs.median_value = counts.value_of(obs.median_value);
            observed.push((name, obs));
        }
        for (name, obs) in observed {
            prop_assert_eq!(obs.support, bins.len(), "{} support", name);
            prop_assert_eq!((obs.plurality_value, obs.plurality_count), plurality, "{} plurality", name);
            prop_assert_eq!(obs.median_value, median, "{} median", name);
            prop_assert_eq!(obs.imbalance, imbalance, "{} imbalance", name);
        }
    }

    // --- engines -------------------------------------------------------------

    #[test]
    fn k_median_engine_never_invents(values in prop::collection::vec(0u32..9, 4..100),
                                     k in 1usize..6, seed in any::<u64>()) {
        let rule = KMedianRule::new(k);
        let mut new = vec![0u32; values.len()];
        dense::step_seq(&values, &mut new, &rule, seed, 0);
        for v in &new {
            prop_assert!(values.contains(v));
        }
    }

    #[test]
    fn hist_step_keeps_values_sorted_unique(loads in prop::collection::vec(1u64..500, 1..10),
                                            seed in any::<u64>()) {
        let pairs: Vec<(u32, u64)> = loads.iter().enumerate().map(|(v, &c)| (v as u32 * 3, c)).collect();
        let mut next = Histogram::new(&pairs);
        let mut rng = Xoshiro256pp::seed(seed);
        hist::step_in_place(&mut next, &mut rng, &mut hist::StepScratch::default());
        let bins = next.bins();
        for w in bins.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "values must stay sorted/unique");
        }
        for &(_, c) in bins {
            prop_assert!(c > 0, "zero bins must be dropped");
        }
    }

    #[test]
    fn partial_step_changes_subset_of_full(values in prop::collection::vec(0u32..6, 16..128),
                                           seed in any::<u64>()) {
        // α = 0: identity.
        let mut frozen = vec![0u32; values.len()];
        dense::step_partial(1, &values, &mut frozen, &MedianRule, seed, 0, 1e-12);
        let identical = frozen.iter().zip(&values).filter(|(a, b)| a == b).count();
        prop_assert!(identical >= values.len() - 1, "α≈0 must freeze almost surely");
    }

    // --- adversary enforcement -----------------------------------------------

    #[test]
    fn every_adversary_respects_budget_and_set(
        values in prop::collection::vec(0u32..8, 8..120),
        budget in 0u64..16,
        seed in any::<u64>(),
        which in 0usize..5,
    ) {
        let specs = [
            AdversarySpec::Random,
            AdversarySpec::Balancer,
            AdversarySpec::Reviver { revive_at: 2 },
            AdversarySpec::MedianPusher,
            AdversarySpec::Stubborn,
        ];
        let set = ValueSet::from_values(&values);
        let mut adv = specs[which].build();
        let mut rng = Xoshiro256pp::seed(seed);
        let mut state = values.clone();
        let mut loads = rebuilt(&mut state, false);
        let (mut touched, mut draws) = (Vec::new(), Vec::new());
        for round in 0..4u64 {
            let before = state.clone();
            {
                let mut c = Corruptor::new(&mut loads, &set, budget, &mut draws)
                    .with_processes(&mut state, &mut touched);
                adv.corrupt(round, &mut c, &mut rng);
            }
            let changed = state.iter().zip(&before).filter(|(a, b)| a != b).count() as u64;
            prop_assert!(changed <= budget,
                "{:?} changed {} > budget {}", specs[which], changed, budget);
            for v in &state {
                prop_assert!(set.contains(*v), "{:?} wrote {}", specs[which], v);
            }
        }
    }

    #[test]
    fn hist_corruptor_conserves_population(loads in prop::collection::vec(1u64..100, 2..8),
                                           budget in 0u64..50,
                                           from in 0usize..8, to in 0usize..8) {
        let pairs: Vec<(u32, u64)> = loads.iter().enumerate().map(|(v, &c)| (v as u32, c)).collect();
        let set = ValueSet::from_values(&pairs.iter().map(|&(v, _)| v).collect::<Vec<_>>());
        let total: u64 = loads.iter().sum();
        let mut working = aggregated(&Histogram::new(&pairs));
        let moved = Corruptor::new(&mut working, &set, budget, &mut Vec::new())
            .move_balls(from as u32, to as u32, 30);
        prop_assert!(moved <= budget);
        prop_assert_eq!(working.n(), total, "population changed");
        let after: u64 = working.live_bins().map(|(_, c)| c).sum();
        prop_assert_eq!(after, total, "population changed");
    }

    /// Every strategy that runs on loads (`needs_processes()` is false, the
    /// random one included) without a process view over an arbitrary
    /// histogram: the population is conserved, at most `T` balls move, and
    /// every live bin holds an allowed value.
    #[test]
    fn aggregated_strategies_conserve_budget_and_set(
        values in prop::collection::vec(0u32..12, 1..8),
        loads in prop::collection::vec(1u64..60, 8..9),
        extra in prop::collection::vec(0u32..12, 0..4),
        budget in 0u64..40,
        seed in any::<u64>(),
    ) {
        let pairs: Vec<(Value, u64)> = values.into_iter().zip(loads).collect();
        let start = Histogram::new(&pairs);
        let values: Vec<Value> = start.bins().iter().map(|&(v, _)| v).chain(extra).collect();
        let set = ValueSet::from_values(&values);
        let mut rng = Xoshiro256pp::seed(seed);
        let mut draws = Vec::new();
        let specs = [
            AdversarySpec::None,
            AdversarySpec::Random,
            AdversarySpec::Balancer,
            AdversarySpec::Reviver { revive_at: 2 },
            AdversarySpec::MedianPusher,
            AdversarySpec::Stubborn,
        ];
        for spec in specs.into_iter().filter(|s| !s.needs_processes()) {
            let (mut hist, mut adv) = (aggregated(&start), spec.build());
            for round in 0..3u64 {
                let before = hist.clone();
                let mut c = Corruptor::new(&mut hist, &set, budget, &mut draws);
                adv.corrupt(round, &mut c, &mut rng);
                prop_assert!(c.touched() <= budget, "{} round {}", spec.label(), round);
                let total: u64 = hist.live_bins().map(|(_, c)| c).sum();
                prop_assert_eq!(total, start.n(), "{} round {}", spec.label(), round);
                prop_assert_eq!(hist.n(), start.n());
                let moved: u64 = before
                    .live_bins()
                    .map(|(v, c)| c.saturating_sub(hist.count_of(v)))
                    .sum();
                prop_assert!(moved <= budget, "{} moved {} > {}", spec.label(), moved, budget);
                for (v, _) in hist.live_bins() {
                    prop_assert!(set.contains(v), "{} left {} live", spec.label(), v);
                }
            }
        }
    }

    /// A load-only strategy moves each ball at most once per round, so the
    /// budget with a process view (distinct processes) and without one
    /// (balls moved) count the same thing, and both see the same loads.
    #[test]
    fn load_only_strategies_move_each_ball_once(
        values in prop::collection::vec(0u32..6, 2..150),
        budget in 0u64..40,
        seed in any::<u64>(),
        pusher in any::<bool>(),
    ) {
        let spec = if pusher { AdversarySpec::MedianPusher } else { AdversarySpec::Balancer };
        prop_assert!(!spec.needs_processes());
        let mut state = values.clone();
        let mut loads = rebuilt(&mut state, true);
        let mut set = ValueSet::default();
        loads.rebuild_value_set(&mut set);
        let mut hist = aggregated(&Histogram::new(&loads.live_bins().collect::<Vec<_>>()));
        let (mut adv, mut hist_adv) = (spec.build(), spec.build());
        let mut rng = Xoshiro256pp::seed(seed);
        let mut hist_rng = rng.clone();
        let (mut touched, mut draws) = (Vec::new(), Vec::new());
        for round in 0..3u64 {
            let before = state.clone();
            let mut c = Corruptor::new(&mut loads, &set, budget, &mut draws)
                .with_processes(&mut state, &mut touched);
            adv.corrupt(round, &mut c, &mut rng);
            let flips = c.touched();
            let moved = state.iter().zip(&before).filter(|(a, b)| a != b).count() as u64;
            prop_assert_eq!(flips, moved, "{} round {}", spec.label(), round);
            prop_assert!(flips <= budget);
            let mut h = Corruptor::new(&mut hist, &set, budget, &mut draws);
            hist_adv.corrupt(round, &mut h, &mut hist_rng);
            prop_assert_eq!(h.touched(), flips, "{} round {}", spec.label(), round);
            let (hist_bins, bins): (Vec<_>, Vec<_>) = (hist.live_bins().collect(), loads.live_bins().collect());
            prop_assert_eq!(hist_bins, bins, "{} round {}", spec.label(), round);
        }
    }

    // --- runner invariants -----------------------------------------------------

    #[test]
    fn trajectory_support_monotone_without_adversary(seed in any::<u64>(), m in 2u32..8) {
        use stabcon_core::runner::SimSpec;
        let spec = SimSpec::new(256)
            .init(InitialCondition::UniformRandom { m })
            .record_trajectory(true);
        let r = spec.run_seeded(seed);
        let traj = r.trajectory.expect("requested");
        for w in traj.windows(2) {
            prop_assert!(w[1].support <= w[0].support,
                "support grew without adversary: {:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn protocol_combine_total_for_all_sample_counts(own in any::<u32>(),
                                                    samples in prop::collection::vec(any::<u32>(), 8)) {
        // Every protocol must accept exactly its declared arity without
        // panicking, for arbitrary u32 values (no overflow).
        use stabcon_core::protocol::ProtocolSpec;
        for spec in [ProtocolSpec::Median, ProtocolSpec::Min, ProtocolSpec::Max,
                     ProtocolSpec::Mean, ProtocolSpec::Majority, ProtocolSpec::Voter,
                     ProtocolSpec::KMedian(1), ProtocolSpec::KMedian(8)] {
            let p = spec.build();
            let _ = p.combine(own, &samples[..p.samples()]);
        }
    }
}

// --- order isomorphism -------------------------------------------------------

/// A strictly increasing, sparse relabelling of values.
fn sparse(v: Value) -> Value {
    1_000_003 * v + 17
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Validity-preserving rules, engines and adversaries use values only
    /// through order and equality, so a run over the initial state mapped
    /// by a strictly increasing `f` reports the same result up to `f`: the
    /// contract that lets the runner run trials on ranks.
    #[test]
    fn runs_are_equal_up_to_a_strictly_increasing_relabel(
        seed in any::<u64>(),
        bins in prop::collection::vec(0u32..5, 96),
        full_horizon in any::<bool>(),
    ) {
        let n = bins.len();
        // A gap at 2 (the ranked path relabels), values already 0..m (it
        // does not), and the single-value universe {1}.
        let gapped: Vec<Value> = bins.iter().map(|&b| b + u32::from(b >= 2)).collect();
        let inits = [
            (InitialCondition::Custom(Arc::new(gapped.clone())), gapped),
            (InitialCondition::Custom(Arc::new(bins.clone())), bins),
            (InitialCondition::TwoBins { left: 0 }, vec![1; n]),
        ];
        // The hostile scenario of `tests/workspace_props.rs`, with the
        // Byzantine minimum forger and the adversarial rejoin.
        let hostile = ScenarioSpec::clean()
            .with_latency(1, 2)
            .with_drop_per_mille(50)
            .with_partition(400, 2, 20)
            .with_churn(8, 3, 18, Rejoin::Adversarial)
            .with_byzantine(4);
        let engines = [
            EngineSpec::DenseSeq,
            EngineSpec::DensePar { threads: 2 },
            EngineSpec::Adaptive { threads: 1, handoff_support: 3 },
            EngineSpec::Message(MessageConfig { scenario: hostile, ..MessageConfig::default() }),
        ];
        let mut ws = TrialWorkspace::new();
        for (init, values) in &inits {
            let mapped = InitialCondition::Custom(Arc::new(values.iter().map(|&v| sparse(v)).collect()));
            for protocol in [ProtocolSpec::Median, ProtocolSpec::Min, ProtocolSpec::Max,
                             ProtocolSpec::Majority, ProtocolSpec::Voter, ProtocolSpec::KMedian(4)] {
                for engine in engines {
                    for (adversary, budget) in [
                        (AdversarySpec::None, 0),
                        (AdversarySpec::Random, 4),
                        (AdversarySpec::Balancer, 4),
                        (AdversarySpec::MedianPusher, 4),
                        (AdversarySpec::Reviver { revive_at: 5 }, 4),
                        (AdversarySpec::Stubborn, 4),
                    ] {
                        let run = |init: &InitialCondition, ws: &mut TrialWorkspace| {
                            SimSpec::new(n)
                                .init(init.clone())
                                .protocol(protocol)
                                .engine(engine)
                                .adversary(adversary, budget)
                                .max_rounds(40)
                                .full_horizon(full_horizon)
                                .record_trajectory(true)
                                .run_seeded_into(seed, ws)
                        };
                        let mut base = run(init, &mut ws);
                        base.winner = sparse(base.winner);
                        for obs in base.trajectory.iter_mut().flatten() {
                            obs.plurality_value = sparse(obs.plurality_value);
                            obs.median_value = sparse(obs.median_value);
                        }
                        prop_assert_eq!(base, run(&mapped, &mut ws), "{} / {:?} / {} / {}",
                            init.label(), protocol, engine.label(), adversary.label());
                    }
                }
            }
        }
    }
}

// --- bookkeeping that skips work ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The block-compacted, branch-free `apply_step` leaves the same loads
    /// and support as recording every ball's move on its own, over two
    /// rounds through one reused move buffer. In the first round every
    /// ball follows its bin's random map; from a state sorted into runs,
    /// a bin then empties as its run leaves and refills when a later run
    /// arrives, inside a block and across block edges (n = 1023, 1024,
    /// 1025, 3000).
    #[test]
    fn block_compacted_apply_step_equals_per_ball_moves(
        which_n in 0usize..5,
        m in 1u32..=8,
        sorted in any::<bool>(),
        raw in prop::collection::vec(any::<u32>(), 3 * 3000),
        map in prop::collection::vec(0u32..8, 8),
        keep in 0u32..=4,
        bulk in 0u32..=4,
    ) {
        let n = [1, 1023, 1024, 1025, 3000][which_n];
        let m = m.min(n as u32);
        // Every value of 0..m occurs, so the universe is already ranks.
        let old: Vec<Value> = (0..n)
            .map(|i| match (sorted, i < m as usize) {
                (true, _) => (i as u64 * u64::from(m) / n as u64) as Value,
                (false, true) => i as Value,
                (false, false) => raw[i] % m,
            })
            .collect();
        // Per ball: keep its value, follow its bin's map, or jump anywhere.
        let next = |from: &[Value], round: usize, keep: u32, bulk: u32| -> Vec<Value> {
            from.iter()
                .enumerate()
                .map(|(i, &v)| {
                    let r = raw[round * 3000 + i];
                    match r % 4 {
                        c if c < keep => v,
                        c if c < keep + bulk => map[v as usize] % m,
                        _ => (r >> 2) % m,
                    }
                })
                .collect()
        };
        let mut state = old.clone();
        let start = rebuilt(&mut state, true);
        prop_assert_eq!(&state, &old);
        let (mut blocked, mut per_ball) = (start.clone(), start);
        let mut moves = Vec::new();
        let mut from = old;
        for (round, (keep, bulk)) in [(0, 4), (keep, bulk)].into_iter().enumerate() {
            let to = next(&from, round, keep, bulk);
            blocked.apply_step(&from, &to, &mut moves);
            for (&o, &t) in from.iter().zip(&to) {
                per_ball.move_balls(o, t, 1);
            }
            prop_assert_eq!(&blocked, &per_ball, "round {}", round);
            let live = (0..m).filter(|&r| per_ball.count_of(r) > 0).count();
            prop_assert_eq!(blocked.support_size(), live);
            from = to;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Skipping the observables of rounds whose support rules them out of
    /// threshold is invisible: a trial reports the same result with its
    /// trajectory recorded (every round observed) as without. Covers every
    /// adversary at budget 0 and ⌊√n/4⌋, full horizon on and off, the
    /// adaptive handoff, the mean rule's open bins, and a round cap that
    /// ends trials while the support is still wide.
    #[test]
    fn recording_a_trajectory_does_not_change_the_result(
        seed in any::<u64>(),
        n in 64usize..320,
        m in 2u32..12,
    ) {
        let budget = ((n as f64).sqrt() / 4.0).floor() as u64;
        let inits = [
            InitialCondition::AllDistinct,
            InitialCondition::UniformRandom { m },
            InitialCondition::TwoBins { left: n / 2 },
        ];
        let adversaries = [
            AdversarySpec::None,
            AdversarySpec::Random,
            AdversarySpec::Balancer,
            AdversarySpec::MedianPusher,
            AdversarySpec::Reviver { revive_at: 3 },
            AdversarySpec::Stubborn,
        ];
        let mut cases = Vec::new();
        for init in &inits {
            for adversary in adversaries {
                for budget in [0, budget] {
                    for full_horizon in [false, true] {
                        for (engine, max_rounds) in [
                            (EngineSpec::DenseSeq, None),
                            (EngineSpec::DenseSeq, Some(3)),
                            (EngineSpec::Adaptive { threads: 1, handoff_support: 4 }, None),
                        ] {
                            cases.push((init.clone(), ProtocolSpec::Median, adversary, budget,
                                        full_horizon, engine, max_rounds));
                        }
                    }
                }
            }
            cases.push((init.clone(), ProtocolSpec::Mean, AdversarySpec::Random, budget,
                        false, EngineSpec::DenseSeq, None));
            cases.push((init.clone(), ProtocolSpec::Mean, AdversarySpec::None, 0,
                        true, EngineSpec::DenseSeq, Some(3)));
        }
        let mut ws = TrialWorkspace::new();
        for (init, protocol, adversary, budget, full_horizon, engine, max_rounds) in cases {
            let mut spec = SimSpec::new(n)
                .init(init.clone())
                .protocol(protocol)
                .adversary(adversary, budget)
                .engine(engine)
                .full_horizon(full_horizon);
            if let Some(cap) = max_rounds {
                spec = spec.max_rounds(cap);
            }
            let mut recorded = spec.clone().record_trajectory(true).run_seeded_into(seed, &mut ws);
            let traj = recorded.trajectory.take().expect("requested");
            prop_assert_eq!(traj.len() as u64, recorded.rounds_executed + 1);
            let last = traj.last().expect("round 0");
            prop_assert_eq!(recorded.final_support, last.support);
            let plain = spec.run_seeded_into(seed, &mut ws);
            prop_assert_eq!(&recorded, &plain, "{} / {:?} / {} / T = {} / full horizon {} / {} / {:?}",
                init.label(), protocol, adversary.label(), budget, full_horizon,
                engine.label(), max_rounds);
        }
    }
}

/// The median pusher's process-level scan before it moved balls through
/// `move_balls` and learned to stop once no write can land: it kept
/// scanning every ball, writing nothing.
fn median_pusher_full_scan(c: &mut Corruptor<'_>, rng: &mut dyn RngCore) {
    let median = c.lower_median();
    let (lo, hi) = (c.allowed().min(), c.allowed().max());
    let mut p = c.processes().expect("a process view");
    if lo == hi {
        return;
    }
    let mut flip_low = stabcon_util::rng::gen_index(rng, 2) == 0;
    for i in 0..p.n() {
        if p.remaining() == 0 {
            break;
        }
        if p.get(i) == median {
            let target = if flip_low { lo } else { hi };
            if target != median && p.try_set(i, target) {
                flip_low = !flip_low;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The median pusher over `move_balls` flips the same balls, touches
    /// as many and draws the same coins as the full process-level scan,
    /// round after round, on two-bins and all-distinct states.
    #[test]
    fn median_pusher_stops_early_without_changing_a_flip(
        seed in any::<u64>(),
        n in 2usize..200,
        left in 0usize..200,
        budget in 0u64..40,
        two_bins in any::<bool>(),
    ) {
        let mut state: Vec<Value> = if two_bins {
            (0..n).map(|i| u32::from(i >= left.min(n))).collect()
        } else {
            (0..n as Value).collect()
        };
        let mut loads = rebuilt(&mut state, true);
        let mut allowed = ValueSet::default();
        loads.rebuild_value_set(&mut allowed);
        let (mut ref_state, mut ref_loads) = (state.clone(), loads.clone());
        let (mut touched, mut ref_touched, mut draws) = (Vec::new(), Vec::new(), Vec::new());
        let mut rng = Xoshiro256pp::seed(seed);
        let mut ref_rng = rng.clone();
        for round in 0..4 {
            let mut c = Corruptor::new(&mut loads, &allowed, budget, &mut draws)
                .with_processes(&mut state, &mut touched);
            MedianPusher.corrupt(round, &mut c, &mut rng);
            let flips = c.touched();
            let mut r = Corruptor::new(&mut ref_loads, &allowed, budget, &mut draws)
                .with_processes(&mut ref_state, &mut ref_touched);
            median_pusher_full_scan(&mut r, &mut ref_rng);
            prop_assert_eq!(flips, r.touched(), "round {}", round);
            prop_assert_eq!(&state, &ref_state, "round {}", round);
            prop_assert_eq!(&loads, &ref_loads, "round {}", round);
            prop_assert_eq!(rng.next_u64(), ref_rng.next_u64(), "round {}", round);
        }
    }
}
