//! Figure 1 regeneration: the paper's results table, measured (E1–E3).
//!
//! Paper claims (rounds to (almost) stable consensus, w.h.p.):
//!
//! | | with adversary | without adversary |
//! |---|---|---|
//! | worst-case 2 bins | O(log n) | O(log n) |
//! | worst-case m bins | O(log m·log log n + log n) | O(log n) |
//! | average-case m bins | O(log m + log log n) odd m, Θ(log n) even m | same |

use stabcon_core::adversary::AdversarySpec;
use stabcon_core::init::InitialCondition;
use stabcon_core::runner::SimSpec;
use stabcon_exp::sweep_stats;
use stabcon_par::ThreadPool;
use stabcon_util::table::{fmt_sig, Table};

use crate::experiment::{cell, HitMetric};
use crate::scaling::{describe_line, fit_log_m, fit_log_n};

pub use stabcon_exp::campaign::sqrt_budget;

/// Sweep parameters shared by the Figure 1 experiments.
#[derive(Debug, Clone)]
pub struct SweepCfg {
    /// Population sizes.
    pub ns: Vec<usize>,
    /// Trials per point.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for SweepCfg {
    /// The compact test/smoke configuration (also [`SweepCfg::small`]);
    /// `threads` defaults to [`stabcon_par::default_threads`] so callers
    /// override only the axes they care about.
    fn default() -> Self {
        Self {
            ns: vec![256, 512, 1024],
            trials: 12,
            seed: 0xF161,
            threads: stabcon_par::default_threads(),
        }
    }
}

impl SweepCfg {
    /// A compact configuration for tests and smoke runs.
    pub fn small() -> Self {
        Self::default()
    }

    /// The paper-scale configuration used by the benches.
    pub fn paper() -> Self {
        Self {
            ns: vec![
                1 << 10,
                1 << 11,
                1 << 12,
                1 << 13,
                1 << 14,
                1 << 15,
                1 << 16,
            ],
            trials: 100,
            seed: 0xF162,
            ..Self::default()
        }
    }
}

/// E1 — Figure 1 row 1 / Theorem 10: two bins, worst-case split, with and
/// without a √n-bounded balancing adversary.
pub fn two_bins_table(cfg: &SweepCfg) -> Table {
    let mut table = Table::new(
        "Figure 1 row 1 (E1): worst-case 2 bins — rounds to (almost) stable consensus",
        &[
            "n",
            "T",
            "no-adv mean",
            "no-adv p95",
            "no-adv hit%",
            "adv mean",
            "adv p95",
            "adv hit%",
        ],
    );
    let pool = ThreadPool::new(cfg.threads);
    let mut means_no = Vec::new();
    let mut means_adv = Vec::new();
    for &n in &cfg.ns {
        let base = SimSpec::new(n).init(InitialCondition::TwoBins { left: n / 2 });
        let no_adv = sweep_stats(
            &pool,
            &base,
            cfg.trials,
            cfg.seed ^ n as u64,
            HitMetric::Consensus,
        );
        let t = sqrt_budget(n);
        let adv_spec = base.clone().adversary(AdversarySpec::Balancer, t);
        let adv = sweep_stats(
            &pool,
            &adv_spec,
            cfg.trials,
            cfg.seed ^ (n as u64) << 1,
            HitMetric::AlmostStable,
        );
        means_no.push((n as f64, no_adv.mean()));
        means_adv.push((n as f64, adv.mean()));
        table.push_row(vec![
            n.to_string(),
            t.to_string(),
            cell(no_adv.mean()),
            cell(no_adv.p95()),
            format!("{:.0}", no_adv.hit_rate() * 100.0),
            cell(adv.mean()),
            cell(adv.p95()),
            format!("{:.0}", adv.hit_rate() * 100.0),
        ]);
    }
    add_logn_fits(&mut table, &means_no, &means_adv);
    table.push_note("paper: O(log n) in both columns (Thm 10)");
    table
}

/// E2 — Figure 1 row 2 / Theorems 1 & 20: worst-case m bins (all-distinct,
/// m = n), with and without a √n-bounded adversary.
pub fn m_bins_table(cfg: &SweepCfg) -> Table {
    let mut table = Table::new(
        "Figure 1 row 2 (E2): worst-case m bins (all-distinct, m = n)",
        &[
            "n",
            "T",
            "no-adv mean",
            "no-adv p95",
            "rand-adv mean",
            "push-adv mean",
            "push-adv hit%",
        ],
    );
    let pool = ThreadPool::new(cfg.threads);
    let mut means_no = Vec::new();
    let mut means_push = Vec::new();
    for &n in &cfg.ns {
        let base = SimSpec::new(n).init(InitialCondition::AllDistinct);
        let no_adv = sweep_stats(
            &pool,
            &base,
            cfg.trials,
            cfg.seed ^ n as u64,
            HitMetric::Consensus,
        );
        let t = sqrt_budget(n);
        let rand_adv = sweep_stats(
            &pool,
            &base.clone().adversary(AdversarySpec::Random, t),
            cfg.trials,
            cfg.seed ^ (n as u64) << 1,
            HitMetric::AlmostStable,
        );
        let push_adv = sweep_stats(
            &pool,
            &base.clone().adversary(AdversarySpec::MedianPusher, t),
            cfg.trials,
            cfg.seed ^ (n as u64) << 2,
            HitMetric::AlmostStable,
        );
        means_no.push((n as f64, no_adv.mean()));
        means_push.push((n as f64, push_adv.mean()));
        table.push_row(vec![
            n.to_string(),
            t.to_string(),
            cell(no_adv.mean()),
            cell(no_adv.p95()),
            cell(rand_adv.mean()),
            cell(push_adv.mean()),
            format!("{:.0}", push_adv.hit_rate() * 100.0),
        ]);
    }
    add_logn_fits(&mut table, &means_no, &means_push);
    table.push_note(
        "paper: O(log n) without adversary (Thm 1); O(log m·log log n + log n) with (Thm 20)",
    );
    table
}

/// E3 — Figure 1 row 3 / Theorems 4 & 21: average case, uniform random over
/// `m` bins, sweeping `m` over both parities at fixed `n`.
pub fn average_case_table(n: usize, ms: &[u32], trials: u64, seed: u64, threads: usize) -> Table {
    let mut table = Table::new(
        format!("Figure 1 row 3 (E3): average-case m bins at n = {n}"),
        &[
            "m",
            "parity",
            "no-adv mean",
            "no-adv p95",
            "adv mean",
            "adv hit%",
        ],
    );
    let pool = ThreadPool::new(threads);
    let t = sqrt_budget(n);
    let mut odd_pts = Vec::new();
    let mut even_pts = Vec::new();
    for &m in ms {
        let base = SimSpec::new(n).init(InitialCondition::UniformRandom { m });
        let no_adv = sweep_stats(&pool, &base, trials, seed ^ m as u64, HitMetric::Consensus);
        let adv = sweep_stats(
            &pool,
            &base.clone().adversary(AdversarySpec::Random, t),
            trials,
            seed ^ ((m as u64) << 13),
            HitMetric::AlmostStable,
        );
        let parity = if m % 2 == 0 { "even" } else { "odd" };
        if m % 2 == 1 {
            odd_pts.push((m as f64, no_adv.mean()));
        } else {
            even_pts.push((m as f64, no_adv.mean()));
        }
        table.push_row(vec![
            m.to_string(),
            parity.into(),
            cell(no_adv.mean()),
            cell(no_adv.p95()),
            cell(adv.mean()),
            format!("{:.0}", adv.hit_rate() * 100.0),
        ]);
    }
    if odd_pts.len() >= 2 {
        let (ms, ts): (Vec<f64>, Vec<f64>) = odd_pts.iter().copied().unzip();
        table.push_note(format!(
            "odd m:  {}",
            describe_line(&fit_log_m(&ms, &ts), "ln m")
        ));
    }
    if even_pts.len() >= 2 && odd_pts.len() >= 2 {
        let odd_mean: f64 = odd_pts.iter().map(|&(_, t)| t).sum::<f64>() / odd_pts.len() as f64;
        let even_mean: f64 = even_pts.iter().map(|&(_, t)| t).sum::<f64>() / even_pts.len() as f64;
        table.push_note(format!(
            "parity gap: mean(even) / mean(odd) = {} (paper: even m is Θ(log n), odd m is O(log m + log log n))",
            fmt_sig(even_mean / odd_mean)
        ));
    }
    table
}

fn add_logn_fits(table: &mut Table, no_adv: &[(f64, f64)], adv: &[(f64, f64)]) {
    if no_adv.len() >= 2 && no_adv.iter().all(|&(_, t)| t.is_finite()) {
        let (ns, ts): (Vec<f64>, Vec<f64>) = no_adv.iter().copied().unzip();
        table.push_note(format!(
            "no-adv: {}",
            describe_line(&fit_log_n(&ns, &ts), "ln n")
        ));
    }
    let adv_ok: Vec<(f64, f64)> = adv
        .iter()
        .copied()
        .filter(|&(_, t)| t.is_finite())
        .collect();
    if adv_ok.len() >= 2 {
        let (ns, ts): (Vec<f64>, Vec<f64>) = adv_ok.iter().copied().unzip();
        table.push_note(format!(
            "adv:    {}",
            describe_line(&fit_log_n(&ns, &ts), "ln n")
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bins_small_sweep_runs() {
        let cfg = SweepCfg {
            ns: vec![128, 256],
            trials: 5,
            seed: 1,
            ..Default::default()
        };
        let t = two_bins_table(&cfg);
        assert_eq!(t.len(), 2);
        let text = t.to_text();
        assert!(text.contains("128"));
        assert!(text.contains("ln n"), "fit note missing:\n{text}");
    }

    #[test]
    fn m_bins_small_sweep_runs() {
        let cfg = SweepCfg {
            ns: vec![128, 256],
            trials: 4,
            seed: 2,
            ..Default::default()
        };
        let t = m_bins_table(&cfg);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn campaign_port_is_numerically_unchanged() {
        // Acceptance check: routing the figure1 driver through
        // stabcon-exp leaves the numbers identical to the pre-campaign
        // materialized `run_trials` path.
        use crate::experiment::{run_trials, ConvergenceStats};
        let cfg = SweepCfg {
            ns: vec![128, 256],
            trials: 5,
            seed: 77,
            ..Default::default()
        };
        let text = two_bins_table(&cfg).to_text();
        for &n in &cfg.ns {
            let base = SimSpec::new(n).init(InitialCondition::TwoBins { left: n / 2 });
            let legacy = ConvergenceStats::from_results(
                &run_trials(&base, cfg.trials, cfg.seed ^ n as u64, 2),
                HitMetric::Consensus,
            );
            assert!(
                text.contains(&cell(legacy.mean())),
                "n={n}: legacy no-adv mean {} missing from\n{text}",
                cell(legacy.mean())
            );
            let t = sqrt_budget(n);
            let legacy_adv = ConvergenceStats::from_results(
                &run_trials(
                    &base.clone().adversary(AdversarySpec::Balancer, t),
                    cfg.trials,
                    cfg.seed ^ (n as u64) << 1,
                    2,
                ),
                HitMetric::AlmostStable,
            );
            assert!(
                text.contains(&cell(legacy_adv.mean())),
                "n={n}: legacy adv mean {} missing from\n{text}",
                cell(legacy_adv.mean())
            );
        }
    }

    #[test]
    fn average_case_parity_rows() {
        let t = average_case_table(512, &[3, 4, 5, 8], 6, 3, 2);
        assert_eq!(t.len(), 4);
        let text = t.to_text();
        assert!(text.contains("odd"));
        assert!(text.contains("even"));
    }
}
