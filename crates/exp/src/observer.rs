//! Trial observers: trajectory-derived extra metrics, folded worker-side.
//!
//! Beyond the hitting times every cell reports, some presets need a few
//! more numbers per trial: the last unsettled round, the first round pair
//! (one-step imbalance growth), post-hit excursion statistics, network
//! totals. A [`TrialObserver`] is the protocol for them:
//!
//! * the observer declares up to [`MAX_CHANNELS`] named channels
//!   ([`TrialObserver::channels`]); every channel is integer-valued, one
//!   sample per trial at most, folded into an exact
//!   [`SparseCounts`](stabcon_util::stats::SparseCounts) sketch;
//! * for every finished trial, [`TrialObserver::capture`] walks the run's
//!   per-round observables ([`RoundObs`]) **inside the worker** and reduces
//!   them to one [`TrialExtras`] — the trajectory is dropped with the
//!   `RunResult`, so a million-trial cell never materializes a million
//!   trajectories;
//! * the sketches merge exactly in any order, so every channel is
//!   bit-identical across thread counts and chunk sizes by arithmetic, not
//!   by fold order.
//!
//! A quantity that is naturally a ratio is emitted as its integer parts:
//! the drift observer's `Δ₀` is fixed within a cell, so `E[Δ₁/Δ₀]` is the
//! mean of the `Δ₁` channel over the (constant) `Δ₀` channel.
//!
//! Observers are enum-dispatched: a cell is a value that crosses threads
//! and gets fingerprinted into the result store, so the observer must be
//! `Copy`, comparable, and nameable — a trait object is none of those.
//! Parameters an observer needs (population, thresholds) come from the
//! cell's [`SimSpec`], never from the observer itself.

use stabcon_core::runner::{RoundObs, RunResult, SimSpec};

/// Maximum channels one observer may declare (keeps [`TrialExtras`] a small
/// fixed-size `Copy` value on the worker → scheduler channel).
pub const MAX_CHANNELS: usize = 5;

/// Everything one trial emits for its observer's channels, as a fixed-size
/// `Copy` value: at most one sample per channel (`None` = no sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrialExtras {
    len: u8,
    vals: [Option<u64>; MAX_CHANNELS],
}

impl TrialExtras {
    /// No channels (the [`TrialObserver::None`] case).
    pub fn none() -> Self {
        Self::default()
    }

    /// Build from a channel slice.
    ///
    /// # Panics
    /// Panics if more than [`MAX_CHANNELS`] channels are given.
    pub fn from_slice(channels: &[Option<u64>]) -> Self {
        assert!(channels.len() <= MAX_CHANNELS, "too many observer channels");
        let mut out = Self::none();
        out.len = channels.len() as u8;
        out.vals[..channels.len()].copy_from_slice(channels);
        out
    }

    /// The populated channels, in declaration order.
    pub fn channels(&self) -> &[Option<u64>] {
        &self.vals[..self.len as usize]
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the observer declared no channels.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A per-trial observer: reduces one finished run (including its per-round
/// trajectory, when recorded) to a fixed set of integer channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrialObserver {
    /// No extra metrics.
    #[default]
    None,
    /// The last round in which more than one value was present (the
    /// minimum-rule counterexample's metric). One channel,
    /// `last_unsettled`. Requires trajectory recording; without it the
    /// trial contributes no sample (see [`TrialObserver::capture`]).
    LastUnsettledRound,
    /// One-step imbalance drift (Lemmas 12/15) from the trajectory's first
    /// round pair, in twice-imbalance units `2Δ` = top load − second load:
    /// `drift_gap0` (`2Δ₀`), `drift_gap1` (`2Δ₁`), and `drift_growth`, the
    /// indicator `3·(2Δ₁) ≥ 4·(2Δ₀)`. A trial with `Δ₀ = 0` emits no
    /// sample. Requires trajectory recording.
    OneStepDrift,
    /// Post-stabilization excursion statistics (E12): the raw
    /// almost-stable hit round (`stable_round`, *no* consensus fallback),
    /// the runner's exact maximum post-hit disagreement
    /// (`post_disagreement`), and the number of post-hit rounds whose
    /// plurality left more than the spec's almost-stability threshold
    /// disagreeing (`excursion_rounds`, trajectory-derived).
    StabilityExcursions,
    /// Message-engine network totals: requests sent, responses delivered,
    /// legs dropped (inbox overflow + link/crash loss), peak in-flight
    /// queue depth, and partition-cut losses, summed over the trial. Five
    /// channels from `RunResult::net_totals` — no trajectory needed;
    /// trials on non-message engines contribute no samples.
    NetTotals,
}

const LAST_UNSETTLED_CHANNELS: [&str; 1] = ["last_unsettled"];
const DRIFT_CHANNELS: [&str; 3] = ["drift_gap0", "drift_gap1", "drift_growth"];
const STABILITY_CHANNELS: [&str; 3] = ["stable_round", "post_disagreement", "excursion_rounds"];
const NET_CHANNELS: [&str; 5] = [
    "net_requests",
    "net_delivered",
    "net_dropped",
    "net_in_flight",
    "net_partitioned",
];

impl TrialObserver {
    /// The names of the channels this observer emits, in order. Each is a
    /// store field stem: the JSONL record uses `extra_<name>_count`,
    /// `extra_<name>_mean`, … (snake_case, stable across releases).
    pub fn channels(&self) -> &'static [&'static str] {
        match self {
            TrialObserver::None => &[],
            TrialObserver::LastUnsettledRound => &LAST_UNSETTLED_CHANNELS,
            TrialObserver::OneStepDrift => &DRIFT_CHANNELS,
            TrialObserver::StabilityExcursions => &STABILITY_CHANNELS,
            TrialObserver::NetTotals => &NET_CHANNELS,
        }
    }

    /// Whether the observer reads per-round observables — when true, the
    /// cell's `SimSpec` must have `record_trajectory(true)` (the campaign
    /// expander and the [`crate::cell::CellSpec::observer`] builder set it).
    pub fn needs_trajectory(&self) -> bool {
        // NetTotals reads the runner-accumulated `net_totals` scalar, not
        // the per-round trajectory.
        !matches!(self, TrialObserver::None | TrialObserver::NetTotals)
    }

    /// Whether the observer reads rounds past the first stable one — when
    /// true, the campaign expander sets `full_horizon(true)`, so every
    /// trial runs to `max_rounds` (a revival late in the run, or an
    /// excursion after the hit, is what these observers measure).
    pub fn needs_full_horizon(&self) -> bool {
        matches!(
            self,
            TrialObserver::LastUnsettledRound | TrialObserver::StabilityExcursions
        )
    }

    /// A stable label, hashed into the campaign fingerprint.
    pub fn label(&self) -> &'static str {
        match self {
            TrialObserver::None => "none",
            TrialObserver::LastUnsettledRound => "last-unsettled",
            TrialObserver::OneStepDrift => "one-step-drift",
            TrialObserver::StabilityExcursions => "excursions",
            TrialObserver::NetTotals => "net-totals",
        }
    }

    /// Reduce one finished run of `spec` to this observer's channels.
    ///
    /// Never panics: a trajectory-needing observer on a run without a
    /// recorded trajectory emits `None` on every trajectory-derived
    /// channel, which the aggregate simply does not fold.
    pub fn capture(&self, spec: &SimSpec, r: &RunResult) -> TrialExtras {
        match self {
            TrialObserver::None => TrialExtras::none(),
            TrialObserver::LastUnsettledRound => {
                let last = r.trajectory.as_ref().map(|t| {
                    t.iter()
                        .filter(|obs| obs.support > 1)
                        .map(|obs| obs.round)
                        .max()
                        .unwrap_or(0)
                });
                TrialExtras::from_slice(&[last])
            }
            TrialObserver::OneStepDrift => {
                let pair = r
                    .trajectory
                    .as_deref()
                    .and_then(|t| t.get(..2))
                    .map(|w| (twice_imbalance(&w[0]), twice_imbalance(&w[1])))
                    .filter(|&(g0, _)| g0 > 0);
                TrialExtras::from_slice(&[
                    pair.map(|(g0, _)| g0),
                    pair.map(|(_, g1)| g1),
                    pair.map(|(g0, g1)| u64::from(3 * g1 >= 4 * g0)),
                ])
            }
            TrialObserver::StabilityExcursions => {
                let n = spec.n_processes() as u64;
                let threshold = spec.disagreement_threshold();
                let hit = r.almost_stable_round;
                let post = hit.and(r.max_disagreement_after_stable);
                let excursions = match (hit, r.trajectory.as_ref()) {
                    (Some(h), Some(t)) => Some(
                        t.iter()
                            .filter(|obs| {
                                obs.round > h && n.saturating_sub(obs.plurality_count) > threshold
                            })
                            .count() as u64,
                    ),
                    _ => None,
                };
                TrialExtras::from_slice(&[hit, post, excursions])
            }
            TrialObserver::NetTotals => {
                let t = r.net_totals;
                TrialExtras::from_slice(&[
                    t.map(|m| m.requests),
                    t.map(|m| m.delivered),
                    t.map(|m| m.dropped + m.link_dropped),
                    t.map(|m| m.in_flight),
                    t.map(|m| m.partition_dropped),
                ])
            }
        }
    }
}

/// `2Δ`: the top load minus the second load (exact — `imbalance` is a
/// half-integer well inside f64's integer range).
fn twice_imbalance(obs: &RoundObs) -> u64 {
    (2.0 * obs.imbalance) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabcon_core::init::InitialCondition;

    #[test]
    fn observer_channel_declarations() {
        assert!(TrialObserver::None.channels().is_empty());
        assert!(!TrialObserver::None.needs_trajectory());
        for obs in [
            TrialObserver::LastUnsettledRound,
            TrialObserver::OneStepDrift,
            TrialObserver::StabilityExcursions,
        ] {
            assert!(obs.needs_trajectory(), "{}", obs.label());
            assert!(!obs.channels().is_empty());
            assert!(obs.channels().len() <= MAX_CHANNELS);
        }
        // NetTotals reads runner scalars, not the trajectory.
        let net = TrialObserver::NetTotals;
        assert!(!net.needs_trajectory());
        // Only the post-stability observers keep trials running.
        assert!(TrialObserver::StabilityExcursions.needs_full_horizon());
        assert!(TrialObserver::LastUnsettledRound.needs_full_horizon());
        assert!(!TrialObserver::OneStepDrift.needs_full_horizon());
        assert!(!net.needs_full_horizon());
        assert_eq!(net.channels().len(), 5);
        // Labels tell the observers apart (they are fingerprinted).
        let labels: std::collections::BTreeSet<_> = [
            TrialObserver::None,
            TrialObserver::LastUnsettledRound,
            TrialObserver::OneStepDrift,
            TrialObserver::StabilityExcursions,
            TrialObserver::NetTotals,
        ]
        .iter()
        .map(TrialObserver::label)
        .collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn net_totals_reads_message_run_metrics() {
        use stabcon_core::engine::{EngineSpec, MessageConfig};
        let n = 256;
        let spec = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 2 })
            .engine(EngineSpec::Message(MessageConfig::default()))
            .max_rounds(5)
            .full_horizon(true);
        let r = spec.run_seeded(7);
        let totals = r.net_totals.expect("message run records net totals");
        let extras = TrialObserver::NetTotals.capture(&spec, &r);
        assert_eq!(
            extras.channels(),
            &[
                Some(totals.requests),
                Some(totals.delivered),
                Some(totals.dropped + totals.link_dropped),
                Some(totals.in_flight),
                Some(totals.partition_dropped),
            ]
        );
        assert!(totals.requests > 0);

        // A dense run has no net totals: every channel is `None` rather
        // than a panic.
        let dense = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 2 })
            .max_rounds(2);
        let r = dense.run_seeded(7);
        for ch in TrialObserver::NetTotals.capture(&dense, &r).channels() {
            assert_eq!(*ch, None);
        }
    }

    #[test]
    fn drift_growth_reads_consecutive_imbalances() {
        let n = 4096;
        let spec = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 2 - 128 })
            .max_rounds(1)
            .record_trajectory(true);
        let r = spec.run_seeded(3);
        let extras = TrialObserver::OneStepDrift.capture(&spec, &r);
        let &[Some(g0), Some(g1), Some(growth)] = extras.channels() else {
            panic!("one step → one sample per channel: {extras:?}");
        };
        assert_eq!(g0, 256, "2Δ₀ = 2·128");
        let traj = r.trajectory.expect("recorded");
        assert_eq!(g1 as f64, 2.0 * traj[1].imbalance);
        assert_eq!(
            growth,
            u64::from(traj[1].imbalance >= (4.0 / 3.0) * traj[0].imbalance)
        );

        // A tied start has Δ₀ = 0: no sample on any channel.
        let tied = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 2 })
            .max_rounds(1)
            .record_trajectory(true);
        let r = tied.run_seeded(3);
        let extras = TrialObserver::OneStepDrift.capture(&tied, &r);
        assert_eq!(extras.channels(), &[None, None, None]);
    }

    #[test]
    fn stability_excursions_without_hit_emits_nothing() {
        // Tied two bins with a generous balancer and a tiny round budget:
        // no almost-stable hit, so every channel is `None`.
        let n = 1024;
        let spec = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 2 })
            .adversary(stabcon_core::adversary::AdversarySpec::Balancer, 512)
            .max_rounds(3)
            .full_horizon(true)
            .record_trajectory(true);
        let r = spec.run_seeded(1);
        assert!(r.almost_stable_round.is_none(), "{r:?}");
        let extras = TrialObserver::StabilityExcursions.capture(&spec, &r);
        for ch in extras.channels() {
            assert_eq!(*ch, None);
        }
    }
}
