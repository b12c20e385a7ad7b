//! E10/E11: the two-bin drift lemmas, measured.
//!
//! * Lemma 12/15: from imbalance `Δ_t ≥ c√n` the expected next imbalance is
//!   `≥ (3/2)Δ_t` and `Pr[Δ_{t+1} ≥ (4/3)Δ_t] ≥ 1 − exp(−Θ(Δ_t²/n))`.
//! * Lemma 11: once `Δ ≥ n/3`, the minority bin collapses in `O(log log n)`
//!   further rounds (successive squaring of the minority fraction).
//!
//! Both tables execute through the campaign scheduler: E10 as one-round
//! cells with the [`TrialObserver::OneStepDrift`] observer (the round pair
//! reduced worker-side to integer gaps `2Δ₀`, `2Δ₁` and a growth
//! indicator), E11 as plain consensus-hitting-time sweeps.

use stabcon_core::init::InitialCondition;
use stabcon_core::runner::SimSpec;
use stabcon_exp::scaling::{describe_line, fit_loglog_n};
use stabcon_exp::{chunk_for, run_cell, sweep_stats, CellSpec, HitMetric, TrialObserver};
use stabcon_par::ThreadPool;
use stabcon_util::table::{fmt_f64, fmt_sig, Table};

/// The one-step cell for a starting minority load (shared by the driver and
/// its parity test): one median-rule round from the two-bin state, with the
/// drift observer reading the recorded round pair.
fn one_step_cell(n: usize, minority: usize, trials: u64, seed: u64) -> CellSpec {
    let sim = SimSpec::new(n)
        .init(InitialCondition::TwoBins { left: minority })
        .max_rounds(1);
    CellSpec::new(sim, trials, seed)
        .observer(TrialObserver::OneStepDrift)
        .label("minority", minority.to_string())
}

/// E10: one-step drift table. For each starting imbalance `Δ₀` (as a
/// fraction of the Lemma-15 scale `√n`), measure `E[Δ₁/Δ₀]` and
/// `Pr[Δ₁ ≥ (4/3)Δ₀]`. `Δ₀` is fixed within a cell, so the ratio's mean is
/// the mean of the `2Δ₁` channel over the `2Δ₀` channel's one value.
pub fn one_step_drift_table(
    n: usize,
    deltas_sqrt: &[f64],
    trials: u64,
    seed: u64,
    threads: usize,
) -> Table {
    let sqrt_n = (n as f64).sqrt();
    let mut table = Table::new(
        format!("One-step drift (E10, Lemmas 12/15) at n = {n}"),
        &[
            "Δ0/√n",
            "Δ0",
            "E[Δ1/Δ0]",
            "Pr[Δ1 ≥ (4/3)Δ0]",
            "paper E-bound",
            "paper P-bound",
        ],
    );
    let pool = ThreadPool::new(threads);
    for &ds in deltas_sqrt {
        let delta0 = (ds * sqrt_n).round() as usize;
        if delta0 == 0 || 2 * delta0 >= n {
            continue;
        }
        let minority = n / 2 - delta0;
        let cell = one_step_cell(n, minority, trials, seed ^ delta0 as u64);
        let agg = run_cell(&pool, &cell, chunk_for(cell.trials, pool.threads()));
        let [gap0, gap1, growth] = agg.extras() else {
            panic!("drift_gap0, drift_gap1 and drift_growth channels");
        };
        let twice_delta0 = gap0.min().expect("a 2Δ0 sample");
        assert_eq!(gap0.max(), Some(twice_delta0), "2Δ0 is fixed within a cell");
        // Lemma 15's qualitative bound: 1 − exp(−Δ²/n) up to constants; we
        // print the Θ-form with constant 1 for orientation.
        let paper_p = 1.0 - (-((delta0 * delta0) as f64) / n as f64).exp();
        table.push_row(vec![
            fmt_f64(ds, 2),
            delta0.to_string(),
            fmt_f64(gap1.mean() / twice_delta0 as f64, 3),
            fmt_f64(growth.mean(), 3),
            "≥ 1.5".into(),
            format!("≈ {}", fmt_sig(paper_p)),
        ]);
    }
    table.push_note("Lemma 12: E[Δ_{t+1}] ≥ (3/2)Δ_t in the c√n ≤ Δ < n/3 regime");
    table.push_note("Lemma 15: Pr[Δ_{t+1} ≥ (4/3)Δ_t] ≥ 1 − exp(−Θ(Δ_t²/n))");
    table
}

/// E11: rounds from `Δ₀ = n/6` (minority n/3) to full consensus, vs
/// `log log n` (Lemma 11's doubling regime).
///
/// Mean/max are over trials that *hit* consensus within the 10 000-round
/// cap; the `hit%` column makes any timed-out trial visible (the paper's
/// regime converges in a handful of rounds, so anything below 100 is a
/// finding in itself).
pub fn doubling_regime_table(ns: &[usize], trials: u64, seed: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "Doubling regime (E11, Lemma 11): Δ0 = n/6 → consensus",
        &["n", "mean rounds", "max rounds", "hit%", "ln ln n"],
    );
    let pool = ThreadPool::new(threads);
    let mut pts = Vec::new();
    for &n in ns {
        let sim = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 3 })
            .max_rounds(10_000);
        let stats = sweep_stats(&pool, &sim, trials, seed ^ n as u64, HitMetric::Consensus);
        let q = stats.rounds.as_ref();
        if stats.mean().is_finite() {
            pts.push((n as f64, stats.mean()));
        }
        table.push_row(vec![
            n.to_string(),
            fmt_f64(stats.mean(), 2),
            fmt_f64(q.map(|q| q.max).unwrap_or(f64::NAN), 0),
            format!("{:.0}", stats.hit_rate() * 100.0),
            fmt_f64((n as f64).ln().ln(), 3),
        ]);
    }
    // Two points always fit a line exactly; a fit needs a third.
    if pts.len() >= 3 {
        let (ns_f, ts): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
        table.push_note(describe_line(&fit_loglog_n(&ns_f, &ts), "ln ln n"));
    }
    table.push_note("paper: O(log log n) from Δ ≥ n/3 (Lemma 11, successive squaring)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabcon_exp::{CellAggregate, TrialMetrics};
    use stabcon_util::rng::derive_seed;

    #[test]
    fn drift_exceeds_paper_bound_in_regime() {
        // At Δ0 = 2√n the measured mean growth must be ≥ 1.3 (paper: 1.5 in
        // expectation for the idealized process; finite-n effects shave it).
        let t = one_step_drift_table(4096, &[2.0], 200, 5, 2);
        let text = t.to_text();
        assert!(t.len() == 1, "{text}");
        // Extract the mean ratio cell and sanity-check it.
        let row = text
            .lines()
            .find(|l| l.trim_start().starts_with("2.00"))
            .expect("row");
        let cells: Vec<&str> = row.split('|').collect();
        let ratio: f64 = cells[2].trim().parse().expect("ratio cell");
        assert!(ratio > 1.3, "drift ratio {ratio} too small:\n{text}");
    }

    #[test]
    fn doubling_regime_is_fast() {
        let t = doubling_regime_table(&[512, 2048], 5, 6, 2);
        assert_eq!(t.len(), 2);
        let text = t.to_text();
        assert!(text.contains("ln ln n"), "{text}");
    }

    #[test]
    fn campaign_port_is_numerically_unchanged() {
        // E10: the streamed observer fold equals the materialized fold, and
        // the channels hold the hand-computed trajectory statistics exactly.
        let (n, trials, seed) = (4096usize, 24u64, 5u64);
        let delta0 = (2.0 * (n as f64).sqrt()).round() as usize; // Δ0 = 2√n
        let minority = n / 2 - delta0;
        let cell = one_step_cell(n, minority, trials, seed);
        let pool = ThreadPool::new(4);
        let streamed = run_cell(&pool, &cell, 3);
        let mut materialized = CellAggregate::new();
        let mut gap1_sum = 0u64;
        let mut growth_hits = 0u64;
        for i in 0..trials {
            let r = cell.sim.run_seeded(derive_seed(cell.seed, i));
            let traj = r.trajectory.as_ref().expect("recorded");
            let (d0, d1) = (traj[0].imbalance, traj[1].imbalance);
            assert_eq!(d0, delta0 as f64);
            gap1_sum += (2.0 * d1) as u64;
            growth_hits += u64::from(d1 >= (4.0 / 3.0) * d0);
            materialized.push(&TrialMetrics::capture(&cell.sim, &r, cell.observer));
        }
        assert_eq!(streamed, materialized);
        let [gap0, gap1, growth] = streamed.extras() else {
            panic!("three drift channels");
        };
        assert_eq!(gap0.pairs(), [(2 * delta0 as u64, trials)]);
        let sum = |c: &stabcon_util::stats::SparseCounts| -> u64 {
            c.pairs().iter().map(|&(v, w)| v * w).sum()
        };
        assert_eq!(gap1.count(), trials);
        assert_eq!(sum(gap1), gap1_sum, "exact integer sum");
        assert_eq!(sum(growth), growth_hits);

        // E11: sweep_stats equals the materialized convergence fold.
        use crate::experiment::{run_trials, ConvergenceStats};
        let sim = SimSpec::new(512)
            .init(InitialCondition::TwoBins { left: 512 / 3 })
            .max_rounds(10_000);
        let legacy =
            ConvergenceStats::from_results(&run_trials(&sim, 6, 0xE11, 3), HitMetric::Consensus);
        let ported = sweep_stats(&pool, &sim, 6, 0xE11, HitMetric::Consensus);
        assert_eq!(legacy.rounds, ported.rounds);
        assert_eq!(legacy.hits, ported.hits);
    }
}
