//! Parallel trial sweeps and convergence statistics.
//!
//! The metric/summary types moved to `stabcon-exp` (the campaign subsystem
//! owns sweep execution now) and are re-exported here unchanged. Every
//! driver executes through `stabcon_exp::sweep_stats` / `stabcon_exp::
//! run_cell` (streamed per-cell aggregates, trajectory-derived extras via
//! `stabcon_exp::TrialObserver`); [`run_trials`] survives only as the
//! *materialized reference implementation* that the `drift`
//! `campaign_port_is_numerically_unchanged` test, and the tests below,
//! pin the streaming path against — no driver calls it outside tests.

use stabcon_core::runner::{RunResult, SimSpec};
use stabcon_util::rng::derive_seed;

pub use stabcon_exp::metrics::{ConvergenceStats, HitMetric};

/// Run `trials` independent trials of `spec` in parallel, materializing
/// every `RunResult`; trial `i` uses seed `derive_seed(master_seed, i)`, so
/// results are reproducible and thread-count independent (the same
/// derivation the campaign scheduler uses — a materialized sweep and a
/// campaign cell see identical trials).
///
/// **Test fixture.** Production drivers stream through
/// `stabcon_exp::run_cell`; this stays as the independent reference the
/// parity regression tests compare against (and for ad-hoc trajectory
/// spelunking in examples).
pub fn run_trials(spec: &SimSpec, trials: u64, master_seed: u64, threads: usize) -> Vec<RunResult> {
    let seeds: Vec<u64> = (0..trials).map(|i| derive_seed(master_seed, i)).collect();
    stabcon_par::par_map(threads, &seeds, |&s| spec.run_seeded(s))
}

/// Format a possibly-NaN cell.
pub fn cell(x: f64) -> String {
    if x.is_nan() {
        "—".to_string()
    } else {
        stabcon_util::table::fmt_sig(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabcon_core::init::InitialCondition;

    #[test]
    fn trials_are_reproducible_and_thread_independent() {
        let spec = SimSpec::new(256).init(InitialCondition::TwoBins { left: 128 });
        let a = run_trials(&spec, 8, 42, 1);
        let b = run_trials(&spec, 8, 42, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.consensus_round, y.consensus_round);
            assert_eq!(x.winner, y.winner);
        }
    }

    #[test]
    fn stats_aggregate_sanely() {
        let spec = SimSpec::new(256).init(InitialCondition::TwoBins { left: 128 });
        let results = run_trials(&spec, 16, 7, 4);
        let stats = ConvergenceStats::from_results(&results, HitMetric::Consensus);
        assert_eq!(stats.trials, 16);
        assert_eq!(stats.hits, 16, "all two-bin runs must converge");
        assert_eq!(stats.timeouts, 0);
        assert!(stats.validity_rate == 1.0);
        let q = stats.rounds.expect("hits recorded");
        assert!(q.mean > 0.0 && q.mean < 200.0);
        assert!(q.p95 >= q.p50);
    }

    #[test]
    fn materialized_sweep_equals_campaign_cell() {
        // The invariant every driver port relies on: run_trials +
        // from_results is numerically identical to the streaming cell path.
        let spec = SimSpec::new(256).init(InitialCondition::UniformRandom { m: 4 });
        let results = run_trials(&spec, 10, 33, 2);
        let materialized = ConvergenceStats::from_results(&results, HitMetric::Consensus);
        let pool = stabcon_par::ThreadPool::new(2);
        let streamed = stabcon_exp::sweep_stats(&pool, &spec, 10, 33, HitMetric::Consensus);
        assert_eq!(materialized.rounds, streamed.rounds);
        assert_eq!(materialized.hits, streamed.hits);
        assert!(materialized.validity_rate == streamed.validity_rate);
    }

    #[test]
    fn metric_fallback() {
        let spec = SimSpec::new(128).init(InitialCondition::TwoBins { left: 64 });
        let results = run_trials(&spec, 4, 9, 2);
        for r in &results {
            // Without adversary: threshold 0, so almost-stable == consensus.
            assert_eq!(
                HitMetric::AlmostStable.of(r),
                HitMetric::Consensus.of(r).map(|c| {
                    // almost-stable may trail consensus by the window, but
                    // falls back to consensus when missing.
                    r.almost_stable_round.unwrap_or(c)
                })
            );
        }
    }

    #[test]
    fn nan_cells_render_as_dash() {
        assert_eq!(cell(f64::NAN), "—");
        assert_eq!(cell(12.0), "12.0");
    }
}
