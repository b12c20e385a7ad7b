//! E12: once almost-stable, disagreement stays O(T) under continuous attack.
//!
//! The paper's definition demands more than hitting a good state once — it
//! must *persist*: for every round after `r`, all but `O(T)` processes hold
//! `v`. We run past the hit for a long horizon under each adversary and
//! report the worst disagreement ever seen after stabilization, plus how
//! many post-hit rounds even left the `O(T)` band at all (excursions).
//!
//! Executes through the campaign scheduler with the
//! [`TrialObserver::StabilityExcursions`] observer: each worker reduces its
//! trial's trajectory to three scalars (raw hit round, max post-hit
//! disagreement, excursion-round count) and the full-horizon trajectories
//! never accumulate.

use stabcon_core::adversary::AdversarySpec;
use stabcon_core::init::InitialCondition;
use stabcon_core::runner::SimSpec;
use stabcon_exp::{chunk_for, run_cell, sqrt_budget, CellSpec, HitMetric, TrialObserver};
use stabcon_par::ThreadPool;
use stabcon_util::table::Table;

/// The cell the stability horizon runs per adversary (shared by the driver
/// and its parity test).
fn horizon_cell(
    n: usize,
    adv: AdversarySpec,
    trials: u64,
    horizon: u64,
    t_budget: u64,
    seed: u64,
) -> CellSpec {
    let spec = SimSpec::new(n)
        .init(InitialCondition::TwoBins { left: n / 2 })
        .adversary(adv, t_budget)
        .max_rounds(horizon)
        .full_horizon(true);
    CellSpec::new(spec, trials, seed ^ adv.label().len() as u64)
        .metric(HitMetric::AlmostStable)
        .observer(TrialObserver::StabilityExcursions)
        .label("adversary", adv.label())
}

/// For each adversary, run `horizon_mult·⌈log₂ n⌉` rounds at `T = √n` and
/// report: hit rate, mean hit round, the maximum post-hit disagreement (in
/// units of `T`), and the mean number of post-hit excursion rounds.
pub fn stability_horizon_table(
    n: usize,
    adversaries: &[AdversarySpec],
    trials: u64,
    horizon_mult: u64,
    seed: u64,
    threads: usize,
) -> Table {
    let t_budget = sqrt_budget(n);
    let lg = (n.max(2) as f64).log2().ceil() as u64;
    let horizon = horizon_mult * lg;
    let mut table = Table::new(
        format!("Stability horizon (E12): n = {n}, T = {t_budget}, horizon = {horizon} rounds"),
        &[
            "adversary",
            "stabilized%",
            "mean hit round",
            "max post-hit disagreement",
            "…in units of T",
            "mean excursion rounds",
        ],
    );
    let pool = ThreadPool::new(threads);
    for &adv in adversaries {
        let cell = horizon_cell(n, adv, trials, horizon, t_budget, seed);
        let agg = run_cell(&pool, &cell, chunk_for(cell.trials, pool.threads()));
        let [stable, post, excursions] = agg.extras() else {
            panic!("stable_round, post_disagreement and excursion_rounds channels");
        };
        let hit_rate = stable.count() as f64 / agg.trials() as f64;
        let worst_post = post.max().unwrap_or(0);
        table.push_row(vec![
            adv.label().to_string(),
            format!("{:.0}", hit_rate * 100.0),
            crate::experiment::cell(stable.mean()),
            worst_post.to_string(),
            format!("{:.2}", worst_post as f64 / t_budget as f64),
            crate::experiment::cell(excursions.mean()),
        ]);
    }
    table.push_note("paper: after round r, all but O(T) processes agree — the disagreement column is the measured constant");
    table.push_note(
        "excursion rounds: post-hit rounds whose plurality left more than the O(T) threshold disagreeing",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabcon_exp::{CellAggregate, TrialMetrics};
    use stabcon_util::rng::derive_seed;

    #[test]
    fn horizon_table_bounds_disagreement() {
        let t = stability_horizon_table(
            1024,
            &[AdversarySpec::Random, AdversarySpec::Balancer],
            4,
            30,
            3,
            2,
        );
        assert_eq!(t.len(), 2);
        let text = t.to_text();
        assert!(text.contains("random"), "{text}");
        assert!(text.contains("balancer"), "{text}");
    }

    #[test]
    fn campaign_port_is_numerically_unchanged() {
        // The streamed observer path must equal the materialized fold: run
        // every trial seed by hand, capture with the same observer, fold in
        // trial order, and compare whole aggregates.
        let (n, trials, horizon_mult, seed) = (1024usize, 5u64, 30u64, 3u64);
        let t_budget = sqrt_budget(n);
        let horizon = horizon_mult * (n.max(2) as f64).log2().ceil() as u64;
        for adv in [AdversarySpec::Random, AdversarySpec::Balancer] {
            let cell = horizon_cell(n, adv, trials, horizon, t_budget, seed);
            let mut materialized = CellAggregate::new();
            for i in 0..cell.trials {
                let r = cell.sim.run_seeded(derive_seed(cell.seed, i));
                materialized.push(&TrialMetrics::capture(&cell.sim, &r, cell.observer));
            }
            let pool = ThreadPool::new(4);
            let streamed = run_cell(&pool, &cell, 2);
            assert_eq!(streamed, materialized, "{}", adv.label());
            // And the legacy per-result formulas agree with the channels.
            let results: Vec<_> = (0..cell.trials)
                .map(|i| cell.sim.run_seeded(derive_seed(cell.seed, i)))
                .collect();
            let hits: Vec<_> = results
                .iter()
                .filter(|r| r.almost_stable_round.is_some())
                .collect();
            assert_eq!(streamed.extras()[0].count(), hits.len() as u64);
            let worst = hits
                .iter()
                .filter_map(|r| r.max_disagreement_after_stable)
                .max()
                .unwrap_or(0);
            assert_eq!(streamed.extras()[1].max().unwrap_or(0), worst);
        }
    }
}
