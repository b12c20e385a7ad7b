//! Streaming per-cell aggregation.
//!
//! A campaign cell may run millions of trials; materializing a
//! `Vec<RunResult>` per cell (the pre-campaign pattern) costs memory
//! proportional to the trial count and loses everything on interruption.
//! Instead each trial is reduced to a tiny [`TrialMetrics`] the moment it
//! finishes, and folded into a [`CellAggregate`] built on exact
//! [`SparseCounts`] sketches. Every number a cell keeps is an integer
//! count or an integer sample in one of those sketches, and they merge by
//! integer addition — so an aggregate folded from any split of the trials,
//! merged in any order, is bit-identical to the materialized computation
//! at any thread count and any chunking.
//!
//! Extra metrics beyond the universal hitting-time/winner set come from a
//! [`TrialObserver`] (see [`crate::observer`]): per-trial values are reduced
//! worker-side into [`TrialExtras`] channels and each channel folds here
//! into a [`SparseCounts`] of its own.

use stabcon_core::runner::{RunResult, SimSpec};
use stabcon_core::value::Value;
use stabcon_net::RoundMetrics;
use stabcon_obs::{Counter, Gauge, WorkerSnap};
use stabcon_util::stats::SparseCounts;

use crate::metrics::{ConvergenceStats, HitMetric};
use crate::observer::{TrialExtras, TrialObserver};

/// Everything the aggregator keeps from one trial.
///
/// Network-fault detail is deliberately *not* stored here: a message-engine
/// trial's cumulative [`RoundMetrics`] — `requests`, `delivered`, `dropped`,
/// and the fault-injection fields `link_dropped`, `partition_dropped`,
/// `forged`, and `in_flight` (peak) — rides through two side channels
/// instead. [`TrialObserver::NetTotals`] folds a subset into observer
/// channels for the report, and [`fold_net_totals`] is the single place the
/// full set maps into the telemetry registry's `net_*` counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialMetrics {
    /// First full-consensus round, if reached.
    pub consensus: Option<u64>,
    /// Almost-stable round with consensus fallback (the
    /// [`HitMetric::AlmostStable`] value).
    pub almost: Option<u64>,
    /// The winning value.
    pub winner: Value,
    /// Whether the winner was an initial value.
    pub winner_valid: bool,
    /// Protocol rounds executed.
    pub rounds_executed: u64,
    /// The observer's extra channels (empty for [`TrialObserver::None`]).
    pub extras: TrialExtras,
}

impl TrialMetrics {
    /// Reduce one run result of `spec`, capturing the observer's extra
    /// channels.
    ///
    /// Never panics: a trajectory-needing observer on a run that did not
    /// record a trajectory emits `None` samples, which the sketches skip.
    pub fn capture(spec: &SimSpec, r: &RunResult, observer: TrialObserver) -> Self {
        Self {
            extras: observer.capture(spec, r),
            ..Self::from(r)
        }
    }
}

impl From<&RunResult> for TrialMetrics {
    /// Reduce one run result with no observer channels.
    fn from(r: &RunResult) -> Self {
        Self {
            consensus: r.consensus_round,
            almost: r.almost_stable_round.or(r.consensus_round),
            winner: r.winner,
            winner_valid: r.winner_valid,
            rounds_executed: r.rounds_executed,
            extras: TrialExtras::none(),
        }
    }
}

/// Fold one message-engine trial's cumulative network totals into its
/// chunk's telemetry delta (which the worker then publishes to the
/// registry).
///
/// This is the **single** mapping from [`RoundMetrics`] to the telemetry
/// `net_*` slots — every fault-injection field PR'd into the network layer
/// (`link_dropped`, `partition_dropped`, `forged`, `in_flight`) lands here,
/// so a new `RoundMetrics` field only needs one edit (plus its counter) to
/// reach the telemetry sink. `in_flight` is a per-round peak, so it folds
/// into a max-gauge rather than a counter.
pub fn fold_net_totals(delta: &mut WorkerSnap, totals: &RoundMetrics) {
    delta.add(Counter::NetRequests, totals.requests);
    delta.add(Counter::NetDelivered, totals.delivered);
    delta.add(Counter::NetDropped, totals.dropped);
    delta.add(Counter::NetLinkDropped, totals.link_dropped);
    delta.add(Counter::NetPartitionDropped, totals.partition_dropped);
    delta.add(Counter::NetForged, totals.forged);
    delta.gauge_max(Gauge::NetInFlightPeak, totals.in_flight);
}

/// Streaming aggregate of one campaign cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellAggregate {
    trials: u64,
    valid: u64,
    rounds_total: u64,
    consensus: SparseCounts,
    almost: SparseCounts,
    winners: SparseCounts,
    /// Observer channels, sized lazily from the first trial (every trial
    /// of a cell shares one observer, so the layout is constant).
    extras: Vec<SparseCounts>,
}

impl CellAggregate {
    /// Empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one trial in.
    pub fn push(&mut self, m: &TrialMetrics) {
        self.trials += 1;
        self.valid += m.winner_valid as u64;
        self.rounds_total += m.rounds_executed;
        if let Some(r) = m.consensus {
            self.consensus.push(r);
        }
        if let Some(r) = m.almost {
            self.almost.push(r);
        }
        self.winners.push(m.winner as u64);
        self.size_extras(m.extras.len());
        for (counts, v) in self.extras.iter_mut().zip(m.extras.channels()) {
            if let Some(v) = v {
                counts.push(*v);
            }
        }
    }

    /// Fold another partial aggregate in — typically one chunk's, folded
    /// by a worker. Every field merges by integer addition, so merging
    /// partials in **any** order is bit-identical to pushing the same
    /// trials sequentially.
    pub fn merge(&mut self, o: &CellAggregate) {
        if o.trials == 0 {
            return;
        }
        self.trials += o.trials;
        self.valid += o.valid;
        self.rounds_total += o.rounds_total;
        self.consensus.merge(&o.consensus);
        self.almost.merge(&o.almost);
        self.winners.merge(&o.winners);
        self.size_extras(o.extras.len());
        for (mine, theirs) in self.extras.iter_mut().zip(&o.extras) {
            mine.merge(theirs);
        }
    }

    /// Allocate `channels` empty sketches on first use; afterwards the
    /// count must never change.
    fn size_extras(&mut self, channels: usize) {
        if self.extras.is_empty() {
            self.extras.resize(channels, SparseCounts::new());
        }
        assert_eq!(
            self.extras.len(),
            channels,
            "observer channel count changed mid-cell"
        );
    }

    /// Trials folded so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Trials whose winner was an initial value.
    pub fn valid(&self) -> u64 {
        self.valid
    }

    /// Fraction of trials with a valid winner (0 when empty).
    pub fn validity_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.valid as f64 / self.trials as f64
        }
    }

    /// Total protocol rounds executed across trials.
    pub fn rounds_total(&self) -> u64 {
        self.rounds_total
    }

    /// Hitting-time sketch for the chosen metric.
    pub fn hits(&self, metric: HitMetric) -> &SparseCounts {
        match metric {
            HitMetric::Consensus => &self.consensus,
            HitMetric::AlmostStable => &self.almost,
        }
    }

    /// Winner-value sketch.
    pub fn winners(&self) -> &SparseCounts {
        &self.winners
    }

    /// Observer channel sketches, in the observer's declaration order
    /// (empty when no observer was attached or no trial was folded).
    pub fn extras(&self) -> &[SparseCounts] {
        &self.extras
    }

    /// The classic convergence summary under the chosen metric —
    /// bit-identical to `ConvergenceStats::from_results` on the
    /// materialized batch.
    pub fn convergence(&self, metric: HitMetric) -> ConvergenceStats {
        let counts = self.hits(metric);
        ConvergenceStats {
            trials: self.trials,
            hits: counts.count(),
            timeouts: self.trials - counts.count(),
            rounds: counts.quantiles(),
            validity_rate: self.validity_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabcon_core::init::InitialCondition;
    use stabcon_util::rng::derive_seed;

    fn run_batch(n: usize, trials: u64, seed: u64) -> Vec<RunResult> {
        let spec = SimSpec::new(n).init(InitialCondition::UniformRandom { m: 5 });
        (0..trials)
            .map(|i| spec.run_seeded(derive_seed(seed, i)))
            .collect()
    }

    #[test]
    fn streaming_equals_materialized() {
        let results = run_batch(512, 24, 0xA66);
        let mut agg = CellAggregate::new();
        for r in &results {
            agg.push(&TrialMetrics::from(r));
        }
        for metric in [HitMetric::Consensus, HitMetric::AlmostStable] {
            let streamed = agg.convergence(metric);
            let materialized = ConvergenceStats::from_results(&results, metric);
            assert_eq!(streamed.trials, materialized.trials);
            assert_eq!(streamed.hits, materialized.hits);
            assert_eq!(streamed.rounds, materialized.rounds, "{metric:?}");
            assert!(streamed.validity_rate == materialized.validity_rate);
        }
        assert_eq!(agg.winners().count(), 24);
        assert!(agg.extras().is_empty());
    }

    #[test]
    fn last_unsettled_extraction() {
        let spec = SimSpec::new(128)
            .init(InitialCondition::TwoBins { left: 64 })
            .record_trajectory(true);
        let r = spec.run_seeded(3);
        let m = TrialMetrics::capture(&spec, &r, TrialObserver::LastUnsettledRound);
        let [Some(last)] = m.extras.channels() else {
            panic!("one integer sample expected: {:?}", m.extras);
        };
        // The run reached consensus, so the last unsettled round is the one
        // just before the consensus hit.
        assert_eq!(last + 1, r.consensus_round.expect("converged"));
    }

    #[test]
    fn last_unsettled_without_trajectory_is_a_skipped_sentinel() {
        // This used to panic ("trajectory recording required"); now the
        // trial simply contributes no sample to the sketch.
        let spec = SimSpec::new(64).init(InitialCondition::TwoBins { left: 32 });
        let r = spec.run_seeded(1);
        let m = TrialMetrics::capture(&spec, &r, TrialObserver::LastUnsettledRound);
        assert_eq!(m.extras.channels(), &[None]);
        let mut agg = CellAggregate::new();
        agg.push(&m);
        assert_eq!(agg.trials(), 1);
        assert_eq!(agg.extras().len(), 1, "channel allocated");
        assert!(agg.extras()[0].is_empty(), "sentinel must not be folded");
    }

    #[test]
    fn last_unsettled_on_never_unsettled_run_is_round_zero() {
        // A single-bin start never has support > 1: the metric degrades to
        // round 0 rather than panicking or skewing the sketch.
        let spec = SimSpec::new(64)
            .init(InitialCondition::TwoBins { left: 0 })
            .record_trajectory(true);
        let r = spec.run_seeded(2);
        let m = TrialMetrics::capture(&spec, &r, TrialObserver::LastUnsettledRound);
        assert_eq!(m.extras.channels(), &[Some(0)]);
    }

    #[test]
    fn observer_channels_fold_into_the_aggregate() {
        let n = 2048usize;
        let spec = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 2 - 64 })
            .max_rounds(1)
            .record_trajectory(true);
        let mut agg = CellAggregate::new();
        for i in 0..6 {
            let r = spec.run_seeded(derive_seed(9, i));
            agg.push(&TrialMetrics::capture(
                &spec,
                &r,
                TrialObserver::OneStepDrift,
            ));
        }
        let [gap0, gap1, growth] = agg.extras() else {
            panic!("three drift channels: {agg:?}");
        };
        for channel in [gap0, gap1, growth] {
            assert_eq!(channel.count(), 6, "one sample per one-round trial");
        }
        assert_eq!(
            (gap0.min(), gap0.max()),
            (Some(128), Some(128)),
            "2Δ₀ is fixed"
        );
        assert!(gap1.mean() > 0.0);
        assert!(growth.max() <= Some(1), "an indicator");
    }
}
