//! Streaming per-cell aggregation.
//!
//! A campaign cell may run millions of trials; materializing a
//! `Vec<RunResult>` per cell (the pre-campaign pattern) costs memory
//! proportional to the trial count and loses everything on interruption.
//! Instead each trial is reduced to a tiny [`TrialMetrics`] the moment it
//! finishes, and folded — **in trial order** — into a [`CellAggregate`]
//! built on exact [`SparseCounts`] sketches. Because the sketches are
//! lossless for integer samples and the fold order is the global trial
//! order, the aggregate is bit-identical to the materialized computation
//! for any thread count and any chunking.
//!
//! Extra metrics beyond the universal hitting-time/winner set come from a
//! [`TrialObserver`] (see [`crate::observer`]): per-trial values are reduced
//! worker-side into [`TrialExtras`] channels and folded here — integer
//! channels into [`SparseCounts`], float channels into trial-order
//! [`FloatMoments`].

use stabcon_core::runner::RunResult;
use stabcon_core::value::Value;
use stabcon_net::RoundMetrics;
use stabcon_obs::{Counter, Gauge, WorkerSnap};
use stabcon_util::stats::SparseCounts;

use crate::metrics::{ConvergenceStats, HitMetric};
use crate::observer::{FloatMoments, TrialChannel, TrialExtras, TrialObserver};

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
    /// Reduce one run result, capturing the observer's extra channels.
    ///
    /// Never panics: a trajectory-needing observer on a run that did not
    /// record a trajectory emits no-sample sentinels (which the sketches
    /// skip) instead of the panic this path used to raise.
    pub fn capture(r: &RunResult, observer: TrialObserver) -> Self {
        Self {
            consensus: r.consensus_round,
            almost: r.almost_stable_round.or(r.consensus_round),
            winner: r.winner,
            winner_valid: r.winner_valid,
            rounds_executed: r.rounds_executed,
            extras: observer.capture(r),
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

/// One extra-metric channel's cell-level aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelAggregate {
    /// Exact distribution sketch of an integer channel.
    Int(SparseCounts),
    /// Trial-order moments of a float channel.
    Float(FloatMoments),
}

impl ChannelAggregate {
    fn for_trial_channel(ch: &TrialChannel) -> Self {
        match ch {
            TrialChannel::Int(_) => ChannelAggregate::Int(SparseCounts::new()),
            TrialChannel::Float(_) => ChannelAggregate::Float(FloatMoments::new()),
        }
    }

    fn fold(&mut self, ch: &TrialChannel) {
        match (self, ch) {
            (ChannelAggregate::Int(counts), TrialChannel::Int(v)) => {
                if let Some(v) = v {
                    counts.push(*v);
                }
            }
            (ChannelAggregate::Float(moments), TrialChannel::Float(m)) => {
                moments.merge(m);
            }
            _ => panic!("observer channel kind changed mid-cell"),
        }
    }

    /// Samples folded into this channel.
    pub fn count(&self) -> u64 {
        match self {
            ChannelAggregate::Int(c) => c.count(),
            ChannelAggregate::Float(m) => m.count,
        }
    }

    /// Channel mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        match self {
            ChannelAggregate::Int(c) => c.mean(),
            ChannelAggregate::Float(m) => m.mean(),
        }
    }

    /// Channel maximum (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        match self {
            ChannelAggregate::Int(c) => c.max().map(|v| v as f64),
            ChannelAggregate::Float(m) => (!m.is_empty()).then_some(m.max),
        }
    }

    /// Channel minimum (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        match self {
            ChannelAggregate::Int(c) => c.min().map(|v| v as f64),
            ChannelAggregate::Float(m) => (!m.is_empty()).then_some(m.min),
        }
    }

    /// The integer sketch, if this is an integer channel.
    pub fn as_counts(&self) -> Option<&SparseCounts> {
        match self {
            ChannelAggregate::Int(c) => Some(c),
            ChannelAggregate::Float(_) => None,
        }
    }

    /// The float moments, if this is a float channel.
    pub fn as_moments(&self) -> Option<&FloatMoments> {
        match self {
            ChannelAggregate::Float(m) => Some(m),
            ChannelAggregate::Int(_) => None,
        }
    }
}

/// One chunk's worker-side partial aggregate: everything that merges
/// exactly (counters, [`SparseCounts`] sketches, integer channels) is
/// folded on the worker; float channels — whose f64 sums are sensitive to
/// association — are carried as per-trial rows and folded by
/// [`CellAggregate::merge`] in global trial order. The partial a chunk
/// ships back to the scheduler is therefore compact (no
/// `Vec<TrialMetrics>`) without giving up bit-reproducibility across
/// thread counts and chunk sizes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkAggregate {
    ints: CellAggregate,
    /// Per-trial extras in trial order; empty unless constructed with
    /// `collect_floats` (i.e. the observer declares a float channel).
    float_rows: Vec<TrialExtras>,
    collect_floats: bool,
}

impl ChunkAggregate {
    /// Empty partial. Pass `collect_floats = true` iff the cell's observer
    /// declares a float channel (see
    /// [`crate::observer::TrialObserver::has_float_channels`]).
    pub fn new(collect_floats: bool) -> Self {
        Self::with_capacity(collect_floats, 0)
    }

    /// [`ChunkAggregate::new`] with the float-row buffer sized for
    /// `trials` up front, so a float-observing worker batches its whole
    /// chunk into one allocation instead of growing the row vector trial
    /// by trial. Rows still fold in trial order at the scheduler, so float
    /// aggregates stay bit-identical.
    pub fn with_capacity(collect_floats: bool, trials: usize) -> Self {
        Self {
            ints: CellAggregate::new(),
            float_rows: Vec::with_capacity(if collect_floats { trials } else { 0 }),
            collect_floats,
        }
    }

    /// Fold one trial in (call in trial order within the chunk).
    pub fn push(&mut self, m: &TrialMetrics) {
        self.ints.push_impl(m, self.collect_floats);
        if self.collect_floats {
            self.float_rows.push(m.extras);
        }
    }

    /// Trials folded into this partial.
    pub fn trials(&self) -> u64 {
        self.ints.trials
    }
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
    extras: Vec<ChannelAggregate>,
}

impl CellAggregate {
    /// Empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one trial in. **Call in global trial order** — the scheduler
    /// guarantees this; it is what makes aggregates reproducible across
    /// thread counts.
    pub fn push(&mut self, m: &TrialMetrics) {
        self.push_impl(m, false);
    }

    /// [`CellAggregate::push`] with float channels optionally left unfolded
    /// (the [`ChunkAggregate`] path keeps those per-trial instead).
    fn push_impl(&mut self, m: &TrialMetrics, skip_floats: bool) {
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
        if self.extras.is_empty() && !m.extras.is_empty() {
            self.extras = m
                .extras
                .channels()
                .iter()
                .map(ChannelAggregate::for_trial_channel)
                .collect();
        }
        assert_eq!(
            self.extras.len(),
            m.extras.len(),
            "observer channel count changed mid-cell"
        );
        for (agg, ch) in self.extras.iter_mut().zip(m.extras.channels()) {
            if skip_floats && matches!(ch, TrialChannel::Float(_)) {
                continue;
            }
            agg.fold(ch);
        }
    }

    /// Fold a chunk's partial in. Merging partials **in chunk order** is
    /// bit-identical to pushing the same trials sequentially: the counters
    /// and [`SparseCounts`] sketches merge exactly (integer addition is
    /// associative), and float channels never live in the partial's folded
    /// half — the chunk carries them per trial and this method folds them
    /// here, in global trial order, because f64 addition is not
    /// associative.
    pub fn merge(&mut self, part: &ChunkAggregate) {
        let o = &part.ints;
        if o.trials == 0 {
            return;
        }
        self.trials += o.trials;
        self.valid += o.valid;
        self.rounds_total += o.rounds_total;
        self.consensus.merge(&o.consensus);
        self.almost.merge(&o.almost);
        self.winners.merge(&o.winners);
        if self.extras.is_empty() && !o.extras.is_empty() {
            self.extras = o
                .extras
                .iter()
                .map(|ch| match ch {
                    ChannelAggregate::Int(_) => ChannelAggregate::Int(SparseCounts::new()),
                    ChannelAggregate::Float(_) => ChannelAggregate::Float(FloatMoments::new()),
                })
                .collect();
        }
        assert_eq!(
            self.extras.len(),
            o.extras.len(),
            "observer channel count changed mid-cell"
        );
        for (mine, theirs) in self.extras.iter_mut().zip(&o.extras) {
            match (mine, theirs) {
                (ChannelAggregate::Int(a), ChannelAggregate::Int(b)) => a.merge(b),
                // Non-empty only when the partial was folded without
                // float-row collection; merge order is then the caller's
                // responsibility.
                (ChannelAggregate::Float(a), ChannelAggregate::Float(b)) => a.merge(b),
                _ => panic!("observer channel kind changed mid-cell"),
            }
        }
        for row in &part.float_rows {
            for (agg, ch) in self.extras.iter_mut().zip(row.channels()) {
                if let (ChannelAggregate::Float(moments), TrialChannel::Float(m)) = (agg, ch) {
                    moments.merge(m);
                }
            }
        }
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

    /// Observer channel aggregates, in the observer's declaration order
    /// (empty when no observer was attached or no trial was folded).
    pub fn extras(&self) -> &[ChannelAggregate] {
        &self.extras
    }

    /// Integer sketch of observer channel `i` (`None` if out of range or a
    /// float channel).
    pub fn int_extra(&self, i: usize) -> Option<&SparseCounts> {
        self.extras.get(i).and_then(ChannelAggregate::as_counts)
    }

    /// Float moments of observer channel `i` (`None` if out of range or an
    /// integer channel).
    pub fn float_extra(&self, i: usize) -> Option<&FloatMoments> {
        self.extras.get(i).and_then(ChannelAggregate::as_moments)
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
    use stabcon_core::runner::SimSpec;
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
            agg.push(&TrialMetrics::capture(r, TrialObserver::None));
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
        let m = TrialMetrics::capture(&r, TrialObserver::LastUnsettledRound);
        let [TrialChannel::Int(Some(last))] = m.extras.channels() else {
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
        let r = SimSpec::new(64)
            .init(InitialCondition::TwoBins { left: 32 })
            .run_seeded(1);
        let m = TrialMetrics::capture(&r, TrialObserver::LastUnsettledRound);
        assert_eq!(m.extras.channels(), &[TrialChannel::Int(None)]);
        let mut agg = CellAggregate::new();
        agg.push(&m);
        assert_eq!(agg.trials(), 1);
        let sketch = agg.int_extra(0).expect("channel allocated");
        assert!(sketch.is_empty(), "sentinel must not be folded");
    }

    #[test]
    fn last_unsettled_on_never_unsettled_run_is_round_zero() {
        // A single-bin start never has support > 1: the metric degrades to
        // round 0 rather than panicking or skewing the sketch.
        let r = SimSpec::new(64)
            .init(InitialCondition::TwoBins { left: 0 })
            .record_trajectory(true)
            .run_seeded(2);
        let m = TrialMetrics::capture(&r, TrialObserver::LastUnsettledRound);
        assert_eq!(m.extras.channels(), &[TrialChannel::Int(Some(0))]);
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
            agg.push(&TrialMetrics::capture(&r, TrialObserver::DriftGrowth));
        }
        let ratio = agg.float_extra(0).expect("ratio channel");
        let growth = agg.float_extra(1).expect("growth channel");
        assert_eq!(ratio.count, 6, "one sample per one-round trial");
        assert_eq!(growth.count, 6);
        assert!(ratio.mean() > 0.0);
        assert!((0.0..=1.0).contains(&growth.mean()));
    }
}
