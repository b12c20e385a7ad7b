//! E6/E7: the baselines the paper argues against.
//!
//! * **Minimum rule** (§1.1): a T-bounded adversary erases the minority
//!   value, waits arbitrarily long, then revives one copy — the min rule
//!   re-cascades, so no stable consensus within any time bound. The median
//!   rule shrugs the revival off.
//! * **Mean rule** (§1.2): converges to a *number*, not to one of the
//!   initial values — it fails validity, the defining property of consensus.

use std::sync::Arc;

use stabcon_core::adversary::AdversarySpec;
use stabcon_core::init::InitialCondition;
use stabcon_core::protocol::ProtocolSpec;
use stabcon_core::runner::SimSpec;
use stabcon_exp::{chunk_for, run_cell, sqrt_budget, CellSpec, HitMetric, TrialObserver};
use stabcon_par::ThreadPool;
use stabcon_util::table::{fmt_sig, Table};

/// Mean over trials of the last observed round with more than one value
/// present (requires trajectories; 0 if a run never had support > 1 after
/// round 0 — not expected here). Streamed through a campaign cell: the
/// scalar is extracted worker-side and the trajectories never accumulate.
fn mean_last_unsettled_round(pool: &ThreadPool, spec: &SimSpec, trials: u64, seed: u64) -> f64 {
    let cell =
        CellSpec::new(spec.clone(), trials, seed).observer(TrialObserver::LastUnsettledRound);
    run_cell(pool, &cell, chunk_for(cell.trials, pool.threads())).extras()[0].mean()
}

/// E6: median vs minimum rule under the hide-and-revive adversary.
///
/// For each revive delay `d`, both rules run with full horizon
/// `d + horizon_slack` and we report the mean *last unsettled round* — the
/// round after which the system never again left consensus. For the min rule
/// this tracks `d` (unbounded); for the median rule it stays `O(log n)`.
pub fn min_rule_table(n: usize, delays: &[u64], trials: u64, seed: u64, threads: usize) -> Table {
    let t_budget = sqrt_budget(n);
    let mut table = Table::new(
        format!(
            "Minimum rule counterexample (E6): hide-and-revive adversary, n = {n}, T = {t_budget}"
        ),
        &[
            "revive delay d",
            "median: last unsettled",
            "min: last unsettled",
            "min tracks d?",
        ],
    );
    let pool = ThreadPool::new(threads);
    let horizon_slack = 40 * (n.max(2) as f64).log2().ceil() as u64;
    for &d in delays {
        // Initial state from the paper's story: at most T processes hold the
        // smaller value.
        let init = InitialCondition::TwoBins {
            left: (t_budget as usize).min(n / 4).max(1),
        };
        let base = |p: ProtocolSpec| {
            SimSpec::new(n)
                .init(init.clone())
                .protocol(p)
                .adversary(AdversarySpec::Reviver { revive_at: d }, t_budget)
                .max_rounds(d + horizon_slack)
                .full_horizon(true)
                .record_trajectory(true)
        };
        let median_mean =
            mean_last_unsettled_round(&pool, &base(ProtocolSpec::Median), trials, seed ^ d);
        let min_mean =
            mean_last_unsettled_round(&pool, &base(ProtocolSpec::Min), trials, seed ^ (d << 8));
        table.push_row(vec![
            d.to_string(),
            fmt_sig(median_mean),
            fmt_sig(min_mean),
            if min_mean >= d as f64 {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    table.push_note(
        "min rule: revival at round d forces a fresh cascade, so settlement ≥ d (unbounded)",
    );
    table.push_note("median rule: one revived ball cannot move the median — settles in O(log n) regardless of d");
    table
}

/// E7: validity of median vs mean rule on a two-value instance `{0, K}`.
pub fn mean_rule_table(n: usize, trials: u64, seed: u64, threads: usize) -> Table {
    const K: u32 = 1_000_000;
    let init: Arc<Vec<u32>> = Arc::new((0..n).map(|i| if i % 2 == 0 { 0 } else { K }).collect());
    let mut table = Table::new(
        format!("Mean rule validity failure (E7): values {{0, {K}}}, n = {n}"),
        &[
            "rule",
            "converged%",
            "validity%",
            "mean winner",
            "winner in {0,K}?",
        ],
    );
    let pool = ThreadPool::new(threads);
    for p in [ProtocolSpec::Median, ProtocolSpec::Mean] {
        let spec = SimSpec::new(n)
            .init(InitialCondition::Custom(Arc::clone(&init)))
            .protocol(p)
            .max_rounds(4000);
        let cell = CellSpec::new(spec, trials, seed ^ p.label().len() as u64);
        let agg = run_cell(&pool, &cell, chunk_for(cell.trials, pool.threads()));
        let converged = agg.hits(HitMetric::Consensus).count();
        let all_endpoint = agg
            .winners()
            .pairs()
            .iter()
            .all(|&(v, _)| v == 0 || v == K as u64);
        table.push_row(vec![
            p.label(),
            format!("{:.0}", converged as f64 / agg.trials() as f64 * 100.0),
            format!("{:.0}", agg.validity_rate() * 100.0),
            fmt_sig(agg.winners().mean()),
            if all_endpoint {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    table.push_note("median: winner always one of the initial values (validity)");
    table.push_note("mean: settles near K/2 — a value nobody proposed (the §1.2 objection)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_rule_tracks_delay_median_does_not() {
        let t = min_rule_table(256, &[40], 3, 11, 2);
        assert_eq!(t.len(), 1);
        let text = t.to_text();
        assert!(text.contains("yes"), "min rule should track d:\n{text}");
    }

    #[test]
    fn mean_rule_fails_validity() {
        let t = mean_rule_table(512, 4, 13, 2);
        let text = t.to_text();
        assert!(text.contains("NO"), "mean rule must fail validity:\n{text}");
    }
}
