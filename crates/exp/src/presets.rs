//! Named campaign grids for the `stabcon` CLI.

use stabcon_core::adversary::AdversarySpec;
use stabcon_core::engine::adaptive::DEFAULT_HANDOFF_SUPPORT;
use stabcon_core::engine::{EngineSpec, MessageConfig, Rejoin, ScenarioSpec};
use stabcon_core::protocol::ProtocolSpec;

use crate::campaign::{BudgetSpec, CampaignSpec, InitSpec, Minority};
use crate::observer::TrialObserver;

/// Preset names accepted by [`preset`].
pub const PRESET_NAMES: [&str; 15] = [
    "smoke",
    "figure1-small",
    "figure1",
    "average-case",
    "duel",
    "theorems",
    "robustness-small",
    "hostile-net",
    "threshold",
    "min-rule",
    "mean-rule",
    "asynchrony",
    "stability",
    "drift",
    "doubling",
];

/// Look up a named campaign grid.
///
/// * `smoke` — the [`CampaignSpec::default`] grid (seconds; CI).
/// * `figure1-small` — Figure 1 rows 1–2 at test scale: {two-bins,
///   all-distinct} × {none, balancer, median-pusher, random} adversaries
///   with the canonical `⌊√n/4⌋` budget. On two bins the median pusher
///   moves at most one ball a round, so its rows are nearly
///   adversary-free (see [`AdversarySpec::MedianPusher`]).
/// * `figure1` — the same grid at paper scale (n up to 2¹⁶, 100 trials).
/// * `average-case` — Figure 1 row 3: uniform random starts over
///   `m ∈ 2..=16` bins at n = 2¹⁴, with and without the random adversary
///   at the canonical budget. Odd `m` converges in `O(log m + log log n)`
///   rounds, even `m` needs `Θ(log n)` (Theorem 21).
/// * `duel` — protocol × adversary robustness grid (median vs 3-majority
///   vs voter under balancer/random pressure).
/// * `theorems` — Theorem 2's constant-`m` grid (E4): `m ∈ {2, 3}` equal
///   bins × {balancer, random} adversaries at the canonical budget.
/// * `robustness-small` — the §6 tournament at test scale: five protocols
///   × five adversaries on a uniform 5-value instance.
/// * `hostile-net` — the median rule on the message engine across network
///   faults: clean network, latency, link drops, a healing partition,
///   adversarial churn, and a Byzantine responder minority, with the
///   net-totals observer recording delivery/drop columns.
/// * `threshold` — tightness of the `T ≤ √n` bound (remark after Theorem 2):
///   the balancer on a tied two-bin start with `T = n^α`,
///   `α ∈ {0.25, 0.5, 0.75}`, at n = 2¹⁶…2⁴⁰. The adaptive engine runs
///   these trials aggregated from round 0, so a round costs the same at
///   every n.
/// * `min-rule` — the §1.1 counterexample (E6): median vs minimum rule
///   from a `⌊√n/4⌋` minority under the hide-and-revive adversary, revived
///   at rounds 50…2000, every trial run to the same horizon. The
///   `last_unsettled` column tracks the revival for the min rule only.
/// * `mean-rule` — the §1.2 validity failure (E7): median vs mean rule on
///   values `{0, 10⁶}`; the mean rule settles on a value nobody proposed
///   (`valid%` 0).
/// * `asynchrony` — the §6 α-asynchrony ablation: only a fraction
///   α ∈ {1, 0.5, 0.25} of the balls updates each round, and `mean·α`
///   stays roughly constant.
/// * `stability` — "all but O(T) forever" (E12): tied two bins under the
///   random adversary and the balancer, run 300 rounds past the hit, with
///   the post-hit disagreement and excursion rounds as columns.
/// * `drift` — Lemmas 12/15 (E10): one round from imbalance
///   `Δ₀ = c·√n`, `c ∈ {1, 2, 4}`; `drift_gap1 / drift_gap0` is
///   `E[Δ₁/Δ₀]` and `drift_growth` is `Pr[Δ₁ ≥ (4/3)Δ₀]`.
/// * `doubling` — Lemma 11 (E11): from a `n/3` minority to consensus in
///   `O(log log n)` rounds.
///
/// `figure1-small`, `figure1`, `average-case`, `theorems` and `threshold`
/// run on the adaptive engine: a start of at most `max(64, n/40)` values
/// under no adversary, the balancer, the median pusher or the random
/// adversary runs on the histogram from round 0, and an all-distinct start
/// hands off at about `n/40` bins.
pub fn preset(name: &str) -> Option<CampaignSpec> {
    // The median rule's next state depends only on the loads, so the
    // paper's grids run where a round is cheapest.
    let adaptive = vec![EngineSpec::Adaptive {
        threads: 1,
        handoff_support: DEFAULT_HANDOFF_SUPPORT,
    }];
    let adversary_axis = vec![
        (AdversarySpec::None, BudgetSpec::Zero),
        (AdversarySpec::Balancer, BudgetSpec::SqrtOver4),
        (AdversarySpec::MedianPusher, BudgetSpec::SqrtOver4),
        (AdversarySpec::Random, BudgetSpec::SqrtOver4),
    ];
    match name {
        "smoke" => Some(CampaignSpec::default()),
        "figure1-small" => Some(CampaignSpec {
            name: "figure1-small".into(),
            seed: 0xF161,
            trials: 12,
            ns: vec![256, 512, 1024],
            inits: vec![InitSpec::TwoBinsHalf, InitSpec::AllDistinct],
            adversaries: adversary_axis,
            engines: adaptive.clone(),
            ..CampaignSpec::default()
        }),
        "figure1" => Some(CampaignSpec {
            name: "figure1".into(),
            seed: 0xF162,
            trials: 100,
            ns: (10..=16).map(|e| 1usize << e).collect(),
            inits: vec![InitSpec::TwoBinsHalf, InitSpec::AllDistinct],
            adversaries: adversary_axis,
            engines: adaptive.clone(),
            ..CampaignSpec::default()
        }),
        "average-case" => Some(CampaignSpec {
            name: "average-case".into(),
            seed: 0x9A17,
            trials: 40,
            ns: vec![1 << 14],
            inits: (2..=16).map(InitSpec::UniformRandom).collect(),
            adversaries: vec![
                (AdversarySpec::None, BudgetSpec::Zero),
                (AdversarySpec::Random, BudgetSpec::SqrtOver4),
            ],
            engines: adaptive.clone(),
            ..CampaignSpec::default()
        }),
        "duel" => Some(CampaignSpec {
            name: "duel".into(),
            seed: 0xD0E1,
            trials: 24,
            ns: vec![1024, 4096],
            inits: vec![InitSpec::UniformRandom(8)],
            protocols: vec![
                ProtocolSpec::Median,
                ProtocolSpec::Majority,
                ProtocolSpec::Voter,
            ],
            adversaries: vec![
                (AdversarySpec::None, BudgetSpec::Zero),
                (AdversarySpec::Balancer, BudgetSpec::SqrtOver4),
                (AdversarySpec::Random, BudgetSpec::SqrtOver4),
            ],
            ..CampaignSpec::default()
        }),
        "theorems" => Some(CampaignSpec {
            name: "theorems".into(),
            seed: 0x7E04,
            trials: 16,
            ns: vec![256, 512, 1024],
            inits: vec![InitSpec::MBinsEqual(2), InitSpec::MBinsEqual(3)],
            adversaries: vec![
                (AdversarySpec::Balancer, BudgetSpec::SqrtOver4),
                (AdversarySpec::Random, BudgetSpec::SqrtOver4),
            ],
            engines: adaptive.clone(),
            ..CampaignSpec::default()
        }),
        "robustness-small" => Some(CampaignSpec {
            name: "robustness-small".into(),
            seed: 0x0B57,
            trials: 8,
            ns: vec![256, 512],
            inits: vec![InitSpec::UniformRandom(5)],
            protocols: vec![
                ProtocolSpec::Median,
                ProtocolSpec::KMedian(4),
                ProtocolSpec::Majority,
                ProtocolSpec::Voter,
                ProtocolSpec::Min,
            ],
            adversaries: vec![
                (AdversarySpec::None, BudgetSpec::Zero),
                (AdversarySpec::Random, BudgetSpec::SqrtOver4),
                (AdversarySpec::Balancer, BudgetSpec::SqrtOver4),
                (AdversarySpec::MedianPusher, BudgetSpec::SqrtOver4),
                (AdversarySpec::Stubborn, BudgetSpec::SqrtOver4),
            ],
            max_rounds: Some(1500),
            ..CampaignSpec::default()
        }),
        "hostile-net" => Some(CampaignSpec {
            name: "hostile-net".into(),
            seed: 0x4057,
            trials: 12,
            ns: vec![512, 1024],
            inits: vec![InitSpec::TwoBinsHalf],
            protocols: vec![ProtocolSpec::Median],
            engines: vec![EngineSpec::Message(MessageConfig::default())],
            scenarios: vec![
                ScenarioSpec::clean(),
                ScenarioSpec::clean().with_latency(1, 3),
                ScenarioSpec::clean().with_drop_per_mille(50),
                ScenarioSpec::clean().with_partition(500, 5, 40),
                ScenarioSpec::clean().with_churn(32, 5, 40, Rejoin::Adversarial),
                ScenarioSpec::clean().with_byzantine(16),
            ],
            max_rounds: Some(1200),
            observer: TrialObserver::NetTotals,
            ..CampaignSpec::default()
        }),
        "threshold" => Some(CampaignSpec {
            name: "threshold".into(),
            seed: 0x90_1D,
            trials: 24,
            ns: vec![1 << 16, 1 << 24, 1 << 32, 1 << 40],
            inits: vec![InitSpec::TwoBinsHalf],
            engines: adaptive,
            adversaries: [250, 500, 750]
                .map(|per_mille| (AdversarySpec::Balancer, BudgetSpec::Power { per_mille }))
                .to_vec(),
            max_rounds: Some(400),
            ..CampaignSpec::default()
        }),
        "min-rule" => Some(CampaignSpec {
            name: "min-rule".into(),
            seed: 0xE63E,
            trials: 15,
            ns: vec![2048],
            inits: vec![InitSpec::TwoBinsMinority(Minority::SqrtOver4)],
            protocols: vec![ProtocolSpec::Median, ProtocolSpec::Min],
            adversaries: [50, 200, 800, 2000]
                .map(|revive_at| (AdversarySpec::Reviver { revive_at }, BudgetSpec::SqrtOver4))
                .to_vec(),
            // The latest revival plus 40·⌈log₂ n⌉ rounds to settle after it.
            max_rounds: Some(2440),
            observer: TrialObserver::LastUnsettledRound,
            ..CampaignSpec::default()
        }),
        "mean-rule" => Some(CampaignSpec {
            name: "mean-rule".into(),
            seed: 0xE73A,
            trials: 30,
            ns: vec![4096],
            inits: vec![InitSpec::ZeroOrK(1_000_000)],
            protocols: vec![ProtocolSpec::Median, ProtocolSpec::Mean],
            max_rounds: Some(4000),
            ..CampaignSpec::default()
        }),
        "asynchrony" => Some(CampaignSpec {
            name: "asynchrony".into(),
            seed: 0xA51C,
            trials: 5,
            ns: vec![512],
            inits: vec![InitSpec::TwoBinsHalf],
            update_fractions: vec![1.0, 0.5, 0.25],
            max_rounds: Some(20_000),
            ..CampaignSpec::default()
        }),
        "stability" => Some(CampaignSpec {
            name: "stability".into(),
            seed: 0xE12,
            trials: 5,
            ns: vec![1024],
            inits: vec![InitSpec::TwoBinsHalf],
            adversaries: vec![
                (AdversarySpec::Random, BudgetSpec::SqrtOver4),
                (AdversarySpec::Balancer, BudgetSpec::SqrtOver4),
            ],
            max_rounds: Some(300),
            observer: TrialObserver::StabilityExcursions,
            ..CampaignSpec::default()
        }),
        "drift" => Some(CampaignSpec {
            name: "drift".into(),
            seed: 0xE10,
            trials: 64,
            ns: vec![4096],
            inits: [1, 2, 4]
                .map(|c| InitSpec::TwoBinsMinority(Minority::HalfLessSqrt(c)))
                .to_vec(),
            max_rounds: Some(1),
            observer: TrialObserver::OneStepDrift,
            ..CampaignSpec::default()
        }),
        "doubling" => Some(CampaignSpec {
            name: "doubling".into(),
            seed: 0xE11,
            trials: 6,
            ns: vec![512, 2048, 8192],
            inits: vec![InitSpec::TwoBinsMinority(Minority::Third)],
            max_rounds: Some(10_000),
            ..CampaignSpec::default()
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{chunk_for, run_cell};
    use crate::{sqrt_budget, CellAggregate, HitMetric};
    use stabcon_par::ThreadPool;

    #[test]
    fn preset_fingerprints_are_pinned() {
        // A store records its spec's fingerprint, and `resume` and the
        // fabric refuse a mismatch: a new grid field must not leak into
        // the hash or the labels of an existing preset.
        const PINNED: [(&str, u64); 9] = [
            ("smoke", 0xfb40_b798_6e81_8dd6),
            ("figure1-small", 0x88bb_1e29_2646_c586),
            ("figure1", 0x6c9a_eade_8c32_f889),
            ("average-case", 0x5620_868c_06f9_1548),
            ("duel", 0x117a_44c4_70a5_1700),
            ("theorems", 0x0dd5_6dce_ef47_7937),
            ("robustness-small", 0x82f7_59d1_7005_84e2),
            ("hostile-net", 0x3c1a_ad0e_1b3c_9bf0),
            ("threshold", 0x5db0_3510_8443_757a),
        ];
        for (name, fingerprint) in PINNED {
            let header = preset(name).expect(name).header();
            assert_eq!(header.fingerprint, fingerprint, "{name}");
        }
    }

    /// Every cell of `spec`, run on two threads.
    fn run_grid(spec: &CampaignSpec) -> Vec<CellAggregate> {
        let pool = ThreadPool::new(2);
        spec.expand()
            .iter()
            .map(|cell| run_cell(&pool, cell, chunk_for(cell.trials, pool.threads())))
            .collect()
    }

    #[test]
    fn min_rule_preset_tracks_delay_median_does_not() {
        // The earliest revival only, at n = 256: the min rule settles after
        // the revival, the median rule before it.
        let full = preset("min-rule").expect("preset");
        let spec = CampaignSpec {
            ns: vec![256],
            trials: 3,
            adversaries: full.adversaries[..1].to_vec(),
            ..full
        };
        let AdversarySpec::Reviver { revive_at } = spec.adversaries[0].0 else {
            panic!("min-rule revives");
        };
        let [median, min] = &run_grid(&spec)[..] else {
            panic!("one cell per protocol");
        };
        let last = |agg: &CellAggregate| agg.extras()[0].mean();
        assert!(last(min) >= revive_at as f64, "min: {}", last(min));
        assert!(
            last(median) < revive_at as f64 / 2.0,
            "median: {}",
            last(median)
        );
    }

    #[test]
    fn mean_rule_preset_fails_validity() {
        let spec = CampaignSpec {
            ns: vec![512],
            trials: 4,
            ..preset("mean-rule").expect("preset")
        };
        let [median, mean] = &run_grid(&spec)[..] else {
            panic!("one cell per protocol");
        };
        for agg in [median, mean] {
            assert_eq!(agg.convergence(HitMetric::Consensus).hit_rate(), 1.0);
        }
        assert_eq!(median.validity_rate(), 1.0);
        assert_eq!(mean.validity_rate(), 0.0);
    }

    #[test]
    fn asynchrony_preset_scales_inverse_alpha() {
        let spec = CampaignSpec {
            trials: 6,
            ..preset("asynchrony").expect("preset")
        };
        assert_eq!(spec.update_fractions, [1.0, 0.5, 0.25]);
        let means: Vec<f64> = run_grid(&spec)
            .iter()
            .map(|agg| agg.convergence(HitMetric::Consensus).mean())
            .collect();
        assert!(means[2] > 2.0 * means[0], "α = 0.25 vs α = 1: {means:?}");
    }

    #[test]
    fn drift_preset_exceeds_paper_bound_in_regime() {
        // At Δ₀ = 2√n the mean growth must exceed 1.3 (Lemma 12: 1.5 for
        // the idealized process; finite n shaves it).
        let spec = CampaignSpec {
            trials: 200,
            ..preset("drift").expect("preset")
        };
        let cell = &spec.expand()[1];
        assert_eq!(cell.labels[1].1, "two-bins(n/2-2*sqrt(n))");
        let pool = ThreadPool::new(2);
        let agg = run_cell(&pool, cell, chunk_for(cell.trials, pool.threads()));
        let [gap0, gap1, _] = agg.extras() else {
            panic!("three drift channels");
        };
        assert_eq!(gap0.pairs(), [(2 * 128, 200)], "Δ₀ = 2·√4096");
        let ratio = gap1.mean() / gap0.mean();
        assert!(ratio > 1.3, "E[Δ₁/Δ₀] = {ratio}");
    }

    #[test]
    fn doubling_preset_hits_every_trial() {
        let spec = CampaignSpec {
            ns: vec![512, 2048],
            trials: 5,
            ..preset("doubling").expect("preset")
        };
        for agg in run_grid(&spec) {
            let stats = agg.convergence(HitMetric::Consensus);
            assert_eq!(stats.hit_rate(), 1.0);
            assert!(stats.mean() < 10.0, "Lemma 11 regime: {}", stats.mean());
        }
    }

    #[test]
    fn stability_preset_shows_both_adversaries() {
        // Both adversaries stabilize every trial, and past the hit they
        // never hold more than T balls away from the plurality.
        let spec = CampaignSpec {
            trials: 4,
            ..preset("stability").expect("preset")
        };
        let cells = spec.expand();
        let adversaries: Vec<&str> = cells.iter().map(|c| c.labels[5].1.as_str()).collect();
        assert_eq!(adversaries, ["random", "balancer"]);
        let t = sqrt_budget(spec.ns[0]);
        for (cell, agg) in cells.iter().zip(run_grid(&spec)) {
            let [stable, post, excursions] = agg.extras() else {
                panic!("three stability channels");
            };
            assert_eq!(stable.count(), 4, "{}", adversaries[cell.id as usize]);
            assert!(post.max().is_some_and(|d| d <= t), "{:?}", post.max());
            assert_eq!(excursions.count(), 4);
        }
    }

    #[test]
    fn every_preset_expands() {
        for name in PRESET_NAMES {
            let spec = preset(name).expect(name);
            let cells = spec.expand();
            assert!(!cells.is_empty(), "{name} expands to nothing");
            // Distinct seeds per cell.
            let seeds: std::collections::HashSet<u64> = cells.iter().map(|c| c.seed).collect();
            assert_eq!(seeds.len(), cells.len(), "{name}: colliding cell seeds");
        }
        assert!(preset("nope").is_none());
    }

    #[test]
    fn new_presets_expand_to_the_expected_grids() {
        let theorems = preset("theorems").expect("preset");
        // 3 populations × 2 m-values × 2 adversaries, all adversarial.
        let cells = theorems.expand();
        assert_eq!(cells.len(), 3 * 2 * 2);
        assert!(cells
            .iter()
            .all(|c| c.metric == crate::HitMetric::AlmostStable));

        let average = preset("average-case").expect("preset");
        // One population × 15 values of m × {none, random}.
        assert_eq!(average.expand().len(), 15 * 2);

        let robustness = preset("robustness-small").expect("preset");
        // 2 populations × 5 protocols × 5 adversaries.
        assert_eq!(robustness.expand().len(), 2 * 5 * 5);

        let hostile = preset("hostile-net").expect("preset");
        // 2 populations × 6 scenarios on the single message engine.
        let cells = hostile.expand();
        assert_eq!(cells.len(), 2 * 6);
        assert_eq!(hostile.observer, TrialObserver::NetTotals);
        // ≥ 3 distinct fault axes beyond the clean cell.
        let scen_labels: std::collections::HashSet<&str> = cells
            .iter()
            .map(|c| {
                c.labels
                    .iter()
                    .find(|(k, _)| k == "scenario")
                    .expect("scenario label")
                    .1
                    .as_str()
            })
            .collect();
        assert!(scen_labels.len() >= 4, "{scen_labels:?}");
        assert!(scen_labels.contains("none"));

        // Only a cell below full update carries an `update` label.
        let asynchrony = preset("asynchrony").expect("preset").expand();
        let updates: Vec<Option<&str>> = asynchrony
            .iter()
            .map(|c| {
                let update = c.labels.iter().find(|(k, _)| k == "update");
                update.map(|(_, v)| v.as_str())
            })
            .collect();
        assert_eq!(updates, [None, Some("0.5"), Some("0.25")]);
        // The reviver names its delay; each protocol meets every delay.
        let min_rule = preset("min-rule").expect("preset").expand();
        assert_eq!(min_rule.len(), 2 * 4);
        assert_eq!(min_rule[3].labels[5].1, "reviver(2000)");
    }

    #[test]
    fn figure1_small_matches_the_sweep_scale() {
        let spec = preset("figure1-small").expect("preset");
        assert_eq!(spec.ns, vec![256, 512, 1024]);
        assert_eq!(spec.expand().len(), 3 * 2 * 4);
    }

    /// Hit rates at n = 2²⁰ of the `threshold` preset's cells picked by
    /// index (the cells run α = 0.25, 0.5, 0.75 in that order).
    fn threshold_rates(picked: &[usize]) -> Vec<f64> {
        let spec = CampaignSpec {
            ns: vec![1 << 20],
            trials: 4,
            ..preset("threshold").expect("preset")
        };
        let cells = spec.expand();
        assert_eq!(cells.len(), 3, "one cell per α");
        let pool = ThreadPool::new(2);
        picked
            .iter()
            .map(|&i| {
                run_cell(&pool, &cells[i], 2)
                    .convergence(cells[i].metric)
                    .hit_rate()
            })
            .collect()
    }

    #[test]
    fn threshold_preset_low_alpha_stabilizes() {
        // At n = 2²⁰ the balancer cannot hold the tie with T = n^0.25.
        assert_eq!(threshold_rates(&[0]), [1.0], "α = 0.25");
    }

    #[test]
    fn threshold_preset_high_alpha_stalls() {
        // With T = n^0.5 or n^0.75 no trial stabilizes within the 400 rounds.
        assert_eq!(threshold_rates(&[1, 2]), [0.0, 0.0], "α = 0.5, 0.75");
    }

    #[test]
    fn average_case_parity_gap() {
        // Theorem 21 at reduced scale: with no adversary, an even number of
        // uniform bins leaves the median on a knife edge (Θ(log n)), while an
        // odd number hands the middle bin a head start.
        const N: usize = 1 << 10;
        const MARGIN: f64 = 0.2;
        let spec = CampaignSpec {
            ns: vec![N],
            trials: 16,
            ..preset("average-case").expect("preset")
        };
        let cells = spec.expand();
        let pool = ThreadPool::new(2);
        let (mut odd, mut even) = (Vec::new(), Vec::new());
        // One population: the cells are init-major, one per adversary.
        for (init, cells) in spec.inits.iter().zip(cells.chunks(spec.adversaries.len())) {
            let cell = &cells[0];
            assert_eq!(cell.metric, HitMetric::Consensus, "no-adversary cell first");
            let agg = run_cell(&pool, cell, chunk_for(cell.trials, pool.threads()));
            let mean = agg.convergence(cell.metric).mean();
            match init {
                InitSpec::UniformRandom(m) if m % 2 == 0 => even.push(mean),
                InitSpec::UniformRandom(_) => odd.push(mean),
                other => panic!("unexpected init {other:?}"),
            }
        }
        let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let ratio = avg(&even) / avg(&odd);
        assert!(
            ratio > 1.0 + MARGIN,
            "mean(even m) / mean(odd m) = {ratio:.3} at n = {N}, expected > 1 + {MARGIN} \
             (even {even:?}, odd {odd:?})"
        );
    }
}
