//! Per-trial metrics and the convergence summary every sweep reports.
//!
//! Streaming aggregation and materialized sweeps share this one
//! definition.

use stabcon_core::runner::RunResult;
use stabcon_util::stats::Quantiles;

use crate::aggregate::{CellAggregate, TrialMetrics};

/// Which hitting time a sweep aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitMetric {
    /// First round with full consensus (support 1) — the no-adversary
    /// "stable consensus" metric.
    Consensus,
    /// Start of the sustained almost-stable window — the adversarial
    /// metric (falls back to consensus when it was recorded first).
    AlmostStable,
}

impl HitMetric {
    /// Extract the metric from one run.
    pub fn of(&self, r: &RunResult) -> Option<u64> {
        match self {
            HitMetric::Consensus => r.consensus_round,
            HitMetric::AlmostStable => r.almost_stable_round.or(r.consensus_round),
        }
    }

    /// Store / table label.
    pub fn label(&self) -> &'static str {
        match self {
            HitMetric::Consensus => "consensus",
            HitMetric::AlmostStable => "almost-stable",
        }
    }
}

/// Aggregated convergence behaviour of a batch of trials.
#[derive(Debug, Clone)]
pub struct ConvergenceStats {
    /// Total trials.
    pub trials: u64,
    /// Trials that hit the metric within the round budget.
    pub hits: u64,
    /// Trials that exhausted `max_rounds` without hitting.
    pub timeouts: u64,
    /// Quantiles of the hitting time over successful trials (`None` when
    /// no trial hit).
    pub rounds: Option<Quantiles>,
    /// Fraction of trials whose winner was an initial value.
    pub validity_rate: f64,
}

impl ConvergenceStats {
    /// Aggregate a batch under the chosen metric.
    ///
    /// Routed through the same streaming [`CellAggregate`] fold the
    /// campaign scheduler uses, so materialized and streamed sweeps are
    /// bit-identical.
    pub fn from_results(results: &[RunResult], metric: HitMetric) -> Self {
        let mut agg = CellAggregate::new();
        for r in results {
            agg.push(&TrialMetrics::from(r));
        }
        agg.convergence(metric)
    }

    /// Mean hitting time (`NaN` if nothing hit — callers print "—").
    pub fn mean(&self) -> f64 {
        self.rounds.as_ref().map(|q| q.mean).unwrap_or(f64::NAN)
    }

    /// 95th percentile hitting time.
    pub fn p95(&self) -> f64 {
        self.rounds.as_ref().map(|q| q.p95).unwrap_or(f64::NAN)
    }

    /// Fraction of trials that hit.
    pub fn hit_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.hits as f64 / self.trials as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabcon_core::init::InitialCondition;
    use stabcon_core::runner::SimSpec;
    use stabcon_util::rng::derive_seed;

    #[test]
    fn from_results_aggregates_sanely() {
        let spec = SimSpec::new(256).init(InitialCondition::TwoBins { left: 128 });
        let results: Vec<RunResult> = (0..16)
            .map(|i| spec.run_seeded(derive_seed(7, i)))
            .collect();
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
    fn metric_fallback() {
        let spec = SimSpec::new(128).init(InitialCondition::TwoBins { left: 64 });
        for i in 0..4 {
            let r = spec.run_seeded(derive_seed(9, i));
            assert_eq!(
                HitMetric::AlmostStable.of(&r),
                HitMetric::Consensus
                    .of(&r)
                    .map(|c| r.almost_stable_round.unwrap_or(c))
            );
        }
    }

    #[test]
    fn empty_batch_is_safe() {
        let stats = ConvergenceStats::from_results(&[], HitMetric::Consensus);
        assert_eq!(stats.trials, 0);
        assert_eq!(stats.hit_rate(), 0.0);
        assert!(stats.mean().is_nan());
    }
}
