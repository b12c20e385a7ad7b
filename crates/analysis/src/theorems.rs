//! Theorem 2 (E4): constant number of initial values + √n-bounded
//! adversary ⇒ almost stable consensus in O(log n) rounds.

use stabcon_core::adversary::AdversarySpec;
use stabcon_core::init::InitialCondition;
use stabcon_core::runner::SimSpec;
use stabcon_exp::sweep_stats;
use stabcon_par::ThreadPool;
use stabcon_util::table::Table;

use crate::experiment::{cell, HitMetric};
use crate::scaling::{describe_line, fit_log_n};

/// E4: for each constant `m`, sweep `n` with a √n balancing/random adversary
/// and fit `log n`. Executes through the campaign scheduler
/// ([`stabcon_exp::run_cell`]): per-point trials are sharded on a shared
/// pool and folded streamingly, never materialized.
pub fn constant_m_table(ms: &[u32], ns: &[usize], trials: u64, seed: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "Theorem 2 (E4): constant #values, √n-bounded adversary — rounds to almost stable consensus",
        &["m", "n", "T", "balancer mean", "balancer p95", "random mean", "hit%"],
    );
    let pool = ThreadPool::new(threads);
    for &m in ms {
        let mut pts = Vec::new();
        for &n in ns {
            let t = crate::figure1::sqrt_budget(n);
            let base = SimSpec::new(n).init(InitialCondition::MBinsEqual { m });
            let bal = sweep_stats(
                &pool,
                &base.clone().adversary(AdversarySpec::Balancer, t),
                trials,
                seed ^ (m as u64) << 32 ^ n as u64,
                HitMetric::AlmostStable,
            );
            let rnd = sweep_stats(
                &pool,
                &base.clone().adversary(AdversarySpec::Random, t),
                trials,
                seed ^ (m as u64) << 33 ^ n as u64,
                HitMetric::AlmostStable,
            );
            if bal.mean().is_finite() {
                pts.push((n as f64, bal.mean()));
            }
            table.push_row(vec![
                m.to_string(),
                n.to_string(),
                t.to_string(),
                cell(bal.mean()),
                cell(bal.p95()),
                cell(rnd.mean()),
                format!("{:.0}", bal.hit_rate() * 100.0),
            ]);
        }
        if pts.len() >= 2 {
            let (ns_f, ts): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
            table.push_note(format!(
                "m = {m}: {}",
                describe_line(&fit_log_n(&ns_f, &ts), "ln n")
            ));
        }
    }
    table.push_note("paper: O(log n) for any constant m (Thm 2)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_m_small_run() {
        let t = constant_m_table(&[2, 3], &[128, 256], 4, 5, 2);
        assert_eq!(t.len(), 4);
        assert!(t.to_text().contains("m = 2"));
    }

    #[test]
    fn campaign_port_is_numerically_unchanged() {
        // Acceptance check: the sweep_stats port reproduces the
        // materialized `run_trials` + `from_results` numbers exactly.
        use crate::experiment::{run_trials, ConvergenceStats};
        let (ms, ns, trials, seed) = ([2u32, 3], [128usize, 256], 4u64, 5u64);
        let text = constant_m_table(&ms, &ns, trials, seed, 2).to_text();
        for m in ms {
            for n in ns {
                let t = crate::figure1::sqrt_budget(n);
                let base = SimSpec::new(n).init(InitialCondition::MBinsEqual { m });
                let legacy = ConvergenceStats::from_results(
                    &run_trials(
                        &base.clone().adversary(AdversarySpec::Balancer, t),
                        trials,
                        seed ^ (m as u64) << 32 ^ n as u64,
                        3,
                    ),
                    HitMetric::AlmostStable,
                );
                assert!(
                    text.contains(&cell(legacy.mean())),
                    "m={m} n={n}: materialized balancer mean {} missing from\n{text}",
                    cell(legacy.mean())
                );
            }
        }
    }
}
