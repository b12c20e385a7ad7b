//! Deterministic network-fault injection: latency, link drops, partitions,
//! churn, and Byzantine response forging as a layer under the round executor.
//!
//! [`run_round`](crate::run_round) models the paper's clean synchronous
//! network: every request sent in round `r` is answered (or capped) in round
//! `r`. A [`NetScenario`] routes the same request/response traffic through a
//! hostile network instead:
//!
//! * **latency** — every message leg draws a delivery delay from a seeded
//!   uniform range and sits in an in-flight ring until its round comes up,
//!   so rounds are no longer lossless-synchronous;
//! * **link drops** — each leg is lost with a configured probability,
//!   independent of inbox overflow;
//! * **partitions** — during a scheduled window, messages crossing the cut
//!   are lost; the partition heals at a fixed round;
//! * **churn** — a seeded subset of processes crashes for a scheduled
//!   window: they send nothing, answer nothing, and receive nothing, then
//!   rejoin at their pre-crash value or an adversary-chosen one;
//! * **Byzantine responders** — a seeded subset forges the *value* of every
//!   response it sends (mutation at the message boundary, not a state
//!   write), while behaving correctly as a requester.
//!
//! Every fault decision is keyed by counter-RNG coordinates
//! (`hash3`-style: seed → per-round stream → per-message counter), never by
//! draw order, so a scenario replays bit-identically for any thread count,
//! chunking, or workspace reuse — the same contract the dense engine makes.
//! The **zero-fault scenario routes bit-identically to
//! [`run_round`](crate::run_round)**: no fault consumes randomness unless
//! its knob is enabled, and the router keeps the synchronous executor's
//! delivery order (pinned by tests here and in `stabcon-core`).
//!
//! Two routers share that contract, chosen by `latency_max`. Without
//! latency every leg has delay 0 and is answered in place: nothing is
//! queued, and only an inbox over its cap is laid out for the drop
//! policy. With latency every leg waits in a delay ring. The delivery
//! order both keep — self-answers first; without latency, answers by
//! responder id; with latency, in ring (send) order — is spelled out on
//! [`NetScenario::route_round`], and `tests/queue_router.rs` checks both
//! routers against the first queue router, rings and nested lists
//! throughout.

use rand::RngCore;

use stabcon_util::rng::{CounterKey, CounterStream};

use crate::anonymity::FeistelPerm;
use crate::network::{Responses, RoundConfig, RoundMetrics};
use crate::policy::DropPolicy;
use crate::ProcessId;

/// Partition schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionSpec {
    /// No partition.
    #[default]
    None,
    /// Split the network into `[0, ⌊n·left_per_mille/1000⌋)` and the rest
    /// for rounds `from ≤ r < heal`; messages crossing the cut are lost.
    Split {
        /// Left-group size as a fraction of `n`, in thousandths.
        left_per_mille: u16,
        /// First partitioned round.
        from: u32,
        /// First healed round (exclusive end of the window).
        heal: u32,
    },
}

/// What value a crashed process holds when it rejoins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejoin {
    /// Keep the value held at crash time (crash-recovery with stable
    /// storage).
    PreCrash,
    /// Re-enter at the adversary's choice: the smallest value currently
    /// held by any process, i.e. the choice that keeps a minority value
    /// alive as long as possible against the median rule's drift.
    Adversarial,
}

/// Churn schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChurnSpec {
    /// No churn.
    #[default]
    None,
    /// A seeded pseudo-random subset of `count` processes is down for
    /// rounds `from ≤ r < until`, then rejoins per [`Rejoin`].
    CrashWindow {
        /// Number of crashed processes (clamped to `n`).
        count: u32,
        /// First down round.
        from: u32,
        /// First rejoined round (exclusive end of the window).
        until: u32,
        /// Rejoin value policy.
        rejoin: Rejoin,
    },
}

/// A complete fault-injection configuration. `Copy + Eq` so it can ride in
/// engine configs, key workspace reuse, and label campaign grid cells.
///
/// The default is the **zero-fault** scenario, which routes bit-identically
/// to the plain synchronous executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScenarioSpec {
    /// Minimum per-leg delivery delay in rounds.
    pub latency_min: u16,
    /// Maximum per-leg delivery delay in rounds (0 = synchronous).
    pub latency_max: u16,
    /// Per-leg loss probability in thousandths (0 = lossless links).
    pub drop_per_mille: u16,
    /// Partition schedule.
    pub partition: PartitionSpec,
    /// Churn schedule.
    pub churn: ChurnSpec,
    /// Number of Byzantine responders (0 = none); the subset is seeded.
    pub byzantine: u32,
}

impl ScenarioSpec {
    /// The zero-fault scenario (alias for `Default`).
    pub fn clean() -> Self {
        Self::default()
    }

    /// Set a uniform per-leg delay range `[min, max]` rounds.
    pub fn with_latency(mut self, min: u16, max: u16) -> Self {
        self.latency_min = min;
        self.latency_max = max;
        self
    }

    /// Set the per-leg loss probability in thousandths.
    pub fn with_drop_per_mille(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// Schedule a partition for rounds `from ≤ r < heal`.
    pub fn with_partition(mut self, left_per_mille: u16, from: u32, heal: u32) -> Self {
        self.partition = PartitionSpec::Split {
            left_per_mille,
            from,
            heal,
        };
        self
    }

    /// Schedule a crash window for `count` seeded processes.
    pub fn with_churn(mut self, count: u32, from: u32, until: u32, rejoin: Rejoin) -> Self {
        self.churn = ChurnSpec::CrashWindow {
            count,
            from,
            until,
            rejoin,
        };
        self
    }

    /// Mark `count` seeded processes as Byzantine responders.
    pub fn with_byzantine(mut self, count: u32) -> Self {
        self.byzantine = count;
        self
    }

    /// Whether every fault knob is off (routes identically to
    /// [`run_round`](crate::run_round)).
    pub fn is_zero_fault(&self) -> bool {
        *self == Self::default()
    }

    /// Whether full consensus is an absorbing state under this scenario.
    ///
    /// Drops, partitions, churn, and the min-value Byzantine forger all
    /// relay values *currently held* by some process, so once everyone
    /// agrees every message (and every forgery) carries the consensus
    /// value. Latency breaks that: a response still in flight can deliver
    /// a stale pre-consensus value rounds later, so runners must not treat
    /// support = 1 as final while messages may be queued.
    pub fn consensus_absorbing(&self) -> bool {
        self.latency_max == 0
    }

    /// Compact stable label for campaign tables and grid fingerprints.
    /// The zero-fault scenario is `"none"`.
    pub fn label(&self) -> String {
        if self.is_zero_fault() {
            return "none".into();
        }
        let mut parts: Vec<String> = Vec::new();
        if self.latency_max > 0 {
            parts.push(format!("lat({}-{})", self.latency_min, self.latency_max));
        }
        if self.drop_per_mille > 0 {
            parts.push(format!("drop({}‰)", self.drop_per_mille));
        }
        if let PartitionSpec::Split {
            left_per_mille,
            from,
            heal,
        } = self.partition
        {
            parts.push(format!("part({left_per_mille}‰,{from}..{heal})"));
        }
        if let ChurnSpec::CrashWindow {
            count,
            from,
            until,
            rejoin,
        } = self.churn
        {
            let r = match rejoin {
                Rejoin::PreCrash => "pre",
                Rejoin::Adversarial => "adv",
            };
            parts.push(format!("churn({count},{from}..{until},{r})"));
        }
        if self.byzantine > 0 {
            parts.push(format!("byz({})", self.byzantine));
        }
        parts.join("+")
    }

    /// Validate internal consistency (delay range ordered, windows ordered,
    /// fractions in range).
    ///
    /// # Panics
    /// Panics on an inconsistent spec; called by [`NetScenario::new`].
    pub fn validate(&self) {
        assert!(
            self.latency_min <= self.latency_max,
            "scenario: latency_min {} > latency_max {}",
            self.latency_min,
            self.latency_max
        );
        assert!(
            self.drop_per_mille <= 1000,
            "scenario: drop_per_mille {} > 1000",
            self.drop_per_mille
        );
        if let PartitionSpec::Split {
            left_per_mille,
            from,
            heal,
        } = self.partition
        {
            assert!(
                left_per_mille <= 1000,
                "scenario: left_per_mille {left_per_mille} > 1000"
            );
            assert!(
                from <= heal,
                "scenario: partition from {from} > heal {heal}"
            );
        }
        if let ChurnSpec::CrashWindow { from, until, .. } = self.churn {
            assert!(from <= until, "scenario: churn from {from} > until {until}");
        }
    }
}

/// An in-flight request: `from` asked `to` for its value.
#[derive(Debug, Clone, Copy)]
struct FlightReq {
    from: ProcessId,
    to: ProcessId,
}

/// An in-flight response carrying the answered value.
#[derive(Debug, Clone, Copy)]
struct FlightResp<V> {
    from: ProcessId,
    to: ProcessId,
    value: V,
}

/// Stream ids far outside the per-round leg-stream range (`round·2 + leg`).
const CRASH_PERM_STREAM: u64 = u64::MAX;
const BYZ_PERM_STREAM: u64 = u64::MAX - 2;

/// Request and response leg tags for the per-round fate streams.
const REQ_LEG: u64 = 0;
const RESP_LEG: u64 = 1;

/// Request states in [`NetScenario::route_round`]'s in-place path, beside
/// an arrival rank (or, after capping, a position in the kept inbox).
const SELF: u32 = u32::MAX;
const LOST: u32 = u32::MAX - 1;
/// Arrived at an over-cap target; still waiting for the drop policy.
const PENDING: u32 = u32::MAX - 2;

/// The seeded faults of one trial: the spec, its key, the partition cut,
/// and the crash and Byzantine subsets.
#[derive(Debug, Clone)]
struct Faults {
    spec: ScenarioSpec,
    key: CounterKey,
    /// Partition boundary: processes `< split_at` form the left group.
    split_at: ProcessId,
    crashed: Vec<bool>,
    byzantine: Vec<bool>,
}

impl Faults {
    /// Redraw the seeded fault subsets (crash window + Byzantine set).
    /// Timed as [`stabcon_obs::Phase::Faults`]: with telemetry on, the cost
    /// of per-trial fault draws shows up next to routing in phase profiles.
    fn rebuild(&mut self) {
        let _t = stabcon_obs::phase(stabcon_obs::Phase::Faults);
        let n = self.crashed.len();
        self.crashed.fill(false);
        self.byzantine.fill(false);
        if n == 0 {
            return;
        }
        if let ChurnSpec::CrashWindow { count, .. } = self.spec.churn {
            let perm = FeistelPerm::new(n as u64, self.key.stream(CRASH_PERM_STREAM).word(0));
            for i in 0..(count as u64).min(n as u64) {
                self.crashed[perm.apply(i) as usize] = true;
            }
        }
        if self.spec.byzantine > 0 {
            let perm = FeistelPerm::new(n as u64, self.key.stream(BYZ_PERM_STREAM).word(0));
            for i in 0..(self.spec.byzantine as u64).min(n as u64) {
                self.byzantine[perm.apply(i) as usize] = true;
            }
        }
    }

    /// The faults in force in `round`.
    #[inline]
    fn active(&self, round: u64) -> Active<'_> {
        let down = match self.spec.churn {
            ChurnSpec::CrashWindow { from, until, .. }
                if (from as u64..until as u64).contains(&round) =>
            {
                Some(&self.crashed[..])
            }
            _ => None,
        };
        let cut = match self.spec.partition {
            PartitionSpec::Split { from, heal, .. }
                if (from as u64..heal as u64).contains(&round) =>
            {
                Some(self.split_at)
            }
            _ => None,
        };
        let byzantine = (self.spec.byzantine > 0).then_some(&self.byzantine[..]);
        Active {
            down,
            cut,
            byzantine,
        }
    }

    /// Per-leg fate at counter-RNG coordinates `(stream, idx)`: `None` when
    /// the leg is lost, otherwise the delivery delay in rounds. Consumes no
    /// randomness when both knobs are off (zero-fault bit-compatibility);
    /// the counter is advanced by the caller for every leg regardless, so
    /// one leg's fate never shifts another's coordinates.
    #[inline]
    fn fate(&self, stream: CounterStream, idx: u64) -> Option<usize> {
        if self.spec.drop_per_mille == 0 && self.spec.latency_max == 0 {
            return Some(0);
        }
        let w = stream.word(idx);
        if self.spec.drop_per_mille > 0 {
            let threshold = ((self.spec.drop_per_mille as u64) << 32) / 1000;
            if (w & 0xFFFF_FFFF) < threshold {
                return None;
            }
        }
        // `range` ≤ 2¹⁶, so the 32-bit remainder equals the 64-bit one.
        let range = (self.spec.latency_max - self.spec.latency_min) as u32 + 1;
        Some(self.spec.latency_min as usize + ((w >> 32) as u32 % range) as usize)
    }
}

/// The faults in force in one round, resolved once so that each message
/// pays a load and a compare.
#[derive(Clone, Copy)]
struct Active<'a> {
    /// The crash bitmap, while the crash window is open.
    down: Option<&'a [bool]>,
    /// The partition boundary, while the cut is up.
    cut: Option<ProcessId>,
    /// The Byzantine bitmap, when any responder forges.
    byzantine: Option<&'a [bool]>,
}

impl Active<'_> {
    #[inline]
    fn is_down(&self, p: usize) -> bool {
        self.down.is_some_and(|down| down[p])
    }

    /// Whether a message between `a` and `b` crosses the cut.
    #[inline]
    fn crossing(&self, a: ProcessId, b: ProcessId) -> bool {
        self.cut.is_some_and(|split| (a < split) != (b < split))
    }

    #[inline]
    fn is_byzantine(&self, p: usize) -> bool {
        self.byzantine.is_some_and(|byzantine| byzantine[p])
    }
}

/// Request inboxes, arrival-ordered and back to back: target `t`'s is
/// `slots[start[t]..start[t + 1]]`.
#[derive(Debug, Clone, Default)]
struct Inboxes {
    /// Per target: requests arrived, then requests kept after capping,
    /// then (in the in-place path, with link drops) the target's first
    /// response-leg index.
    load: Vec<u32>,
    start: Vec<u32>,
    slots: Vec<ProcessId>,
    /// The one inbox handed to [`DropPolicy::select`].
    select_buf: Vec<ProcessId>,
}

impl Inboxes {
    /// Lay the inboxes out from the arrival counts in `load`.
    fn lay_out(&mut self) {
        self.start.clear();
        self.start.push(0);
        let mut end = 0;
        for &arrived in &self.load {
            end += arrived;
            self.start.push(end);
        }
        self.slots.resize(end as usize, 0);
    }

    /// Cap every inbox holding more than `cap` requests through the drop
    /// policy, targets in ascending order (the order the policy's
    /// randomness is consumed in). An over-cap target's inbox then starts
    /// with its survivors, and its `load` is their count.
    fn cap<P, R>(&mut self, cap: usize, policy: &mut P, rng: &mut R, metrics: &mut RoundMetrics)
    where
        P: DropPolicy + ?Sized,
        R: RngCore,
    {
        for t in 0..self.load.len() {
            let inbox = &mut self.slots[self.start[t] as usize..self.start[t + 1] as usize];
            if inbox.len() <= cap {
                continue;
            }
            metrics.overloaded += 1;
            self.select_buf.clear();
            self.select_buf.extend_from_slice(inbox);
            policy.select(t as ProcessId, &mut self.select_buf, cap, rng);
            let kept = self.select_buf.len();
            assert!(kept <= cap, "drop policy exceeded the cap");
            metrics.dropped += (inbox.len() - kept) as u64;
            inbox[..kept].copy_from_slice(&self.select_buf);
            self.load[t] = kept as u32;
        }
    }
}

/// One round's inputs, as [`NetScenario::route_round`] receives them.
struct RoundIn<'a, V> {
    round: u64,
    values: &'a [V],
    targets: &'a [ProcessId],
    k: usize,
    cfg: &'a RoundConfig,
    forge: Option<V>,
}

/// Runtime state of one scenario for one population size.
///
/// All buffers (delay rings, inboxes, fault bitmaps) are owned here and
/// reused across rounds *and* trials: [`NetScenario::reset`] re-keys the
/// randomness and clears the queues without allocating, so a
/// workspace-parked engine stays allocation-free on the steady-state path.
#[derive(Debug, Clone)]
pub struct NetScenario<V> {
    faults: Faults,
    /// Delay rings indexed by `deliver_round % horizon`, only when
    /// `latency_max > 0`; each slot is fully drained in its round before
    /// anything with the same residue is enqueued again, so slots never
    /// mix delivery rounds.
    req_ring: Vec<Vec<FlightReq>>,
    resp_ring: Vec<Vec<FlightResp<V>>>,
    inboxes: Inboxes,
    /// Per request, in the `targets` layout (in-place path): its arrival
    /// rank at its target, or [`SELF`], [`LOST`] or [`PENDING`].
    rank: Vec<u32>,
}

impl<V: Copy + Default> NetScenario<V> {
    /// Build scenario state for `n` processes, keyed by `seed`.
    ///
    /// # Panics
    /// Panics if the spec is inconsistent (see [`ScenarioSpec::validate`]).
    pub fn new(n: usize, spec: ScenarioSpec, seed: u64) -> Self {
        spec.validate();
        let horizon = match spec.latency_max {
            0 => 0,
            max => max as usize + 1,
        };
        let split_at = match spec.partition {
            PartitionSpec::Split { left_per_mille, .. } => {
                (n as u64 * left_per_mille as u64 / 1000) as ProcessId
            }
            PartitionSpec::None => 0,
        };
        let mut faults = Faults {
            spec,
            key: CounterKey::new(seed),
            split_at,
            crashed: vec![false; n],
            byzantine: vec![false; n],
        };
        faults.rebuild();
        Self {
            faults,
            req_ring: vec![Vec::new(); horizon],
            resp_ring: vec![Vec::new(); horizon],
            inboxes: Inboxes::default(),
            rank: Vec::new(),
        }
    }

    /// Re-key for a fresh trial with the same `(n, spec)`: clears every
    /// queue and redraws the crash/Byzantine subsets without allocating.
    /// After this the scenario behaves exactly like [`NetScenario::new`]
    /// with `seed`.
    pub fn reset(&mut self, seed: u64) {
        self.faults.key = CounterKey::new(seed);
        for slot in &mut self.req_ring {
            slot.clear();
        }
        for slot in &mut self.resp_ring {
            slot.clear();
        }
        self.faults.rebuild();
    }

    /// The spec this scenario was built from.
    pub fn spec(&self) -> ScenarioSpec {
        self.faults.spec
    }

    /// The population size this scenario was built for.
    pub fn n(&self) -> usize {
        self.faults.crashed.len()
    }

    /// Messages currently queued in the delay rings.
    pub fn in_flight(&self) -> u64 {
        let queued = self.req_ring.iter().map(Vec::len).sum::<usize>()
            + self.resp_ring.iter().map(Vec::len).sum::<usize>();
        queued as u64
    }

    /// Whether process `p` is crashed in `round`.
    pub fn is_down(&self, p: usize, round: u64) -> bool {
        self.faults.active(round).is_down(p)
    }

    /// Whether `p` spends its last down round in `round` and rejoins at an
    /// adversary-chosen value (the engine overrides its state then).
    pub fn adversarial_rejoin(&self, p: usize, round: u64) -> bool {
        match self.faults.spec.churn {
            ChurnSpec::CrashWindow {
                from,
                until,
                rejoin: Rejoin::Adversarial,
                ..
            } => until > from && round + 1 == until as u64 && self.faults.crashed[p],
            _ => false,
        }
    }

    /// Whether the engine must supply a forge value (global minimum) for
    /// this round: Byzantine responders always need one, and an
    /// adversarial rejoin needs one on the rejoin boundary.
    pub fn wants_forge_value(&self, round: u64) -> bool {
        let spec = self.faults.spec;
        if spec.byzantine > 0 {
            return true;
        }
        match spec.churn {
            ChurnSpec::CrashWindow {
                from,
                until,
                rejoin: Rejoin::Adversarial,
                ..
            } => until > from && round + 1 == until as u64,
            _ => false,
        }
    }

    /// Whether process `p` is a Byzantine responder.
    pub fn is_byzantine(&self, p: usize) -> bool {
        self.faults.spec.byzantine > 0 && self.faults.byzantine[p]
    }

    /// Route one round of request/response traffic through the hostile
    /// network. The contract mirrors [`run_round`](crate::run_round) —
    /// same `targets` layout, same drop-policy hook, same response table
    /// — plus:
    ///
    /// * messages with a positive delay park in the delay rings and are
    ///   delivered in the round they come due;
    /// * `forge` is the value Byzantine responders report instead of their
    ///   own (ignored when no responder is Byzantine);
    /// * crashed processes neither send, answer, nor receive.
    ///
    /// Delivery order. A target's inbox holds its requests in arrival
    /// order — due delayed requests in ring (send) order, then this
    /// round's in sender-id order — and the drop policy caps inboxes
    /// target by target in id order. Response leg `j` of target `t`'s
    /// kept inbox draws its fate at index `Σ_{u<t} kept(u) + j`. A
    /// requester's row lists its self-answers first; without latency the
    /// rest follow by responder id, and with latency in the order they
    /// come due, ring (send) order.
    ///
    /// Without latency (`latency_max == 0`) nothing is stored: one pass
    /// over the senders counts arrivals per target, only an over-cap
    /// target gets an inbox, and one pass per requester answers in place.
    /// With latency every leg goes through the delay rings.
    ///
    /// With the zero-fault spec this is bit-identical to
    /// [`run_round`](crate::run_round): same responses, same drop-policy
    /// RNG consumption, same metrics.
    ///
    /// Rounds must be routed in order, from 0 or from a
    /// [`reset`](Self::reset).
    ///
    /// # Panics
    /// Panics if shapes disagree with the scenario's `n` or a target id is
    /// out of range.
    #[allow(clippy::too_many_arguments)]
    pub fn route_round<P, R>(
        &mut self,
        round: u64,
        values: &[V],
        targets: &[ProcessId],
        k: usize,
        cfg: &RoundConfig,
        policy: &mut P,
        rng: &mut R,
        responses: &mut Responses<V>,
        forge: Option<V>,
    ) -> RoundMetrics
    where
        P: DropPolicy + ?Sized,
        R: RngCore,
    {
        let n = values.len();
        assert_eq!(self.n(), n, "scenario built for different n");
        assert_eq!(targets.len(), n * k, "targets shape mismatch");
        let input = RoundIn {
            round,
            values,
            targets,
            k,
            cfg,
            forge,
        };
        if self.faults.spec.latency_max == 0 {
            self.route_in_place(&input, policy, rng, responses)
        } else {
            self.route_through_rings(&input, policy, rng, responses)
        }
    }

    /// [`route_round`](Self::route_round) without latency: every leg has
    /// delay 0, so each request is answered in the round it is sent.
    fn route_in_place<P, R>(
        &mut self,
        input: &RoundIn<'_, V>,
        policy: &mut P,
        rng: &mut R,
        responses: &mut Responses<V>,
    ) -> RoundMetrics
    where
        P: DropPolicy + ?Sized,
        R: RngCore,
    {
        let RoundIn {
            round,
            values,
            targets,
            k,
            cfg,
            forge,
        } = *input;
        let n = values.len();
        let faults = &self.faults;
        let active = faults.active(round);
        let drops = faults.spec.drop_per_mille > 0;
        let inboxes = &mut self.inboxes;
        let rank = &mut self.rank;
        inboxes.load.clear();
        inboxes.load.resize(n, 0);
        rank.resize(n * k, LOST);
        let req_fates = faults.key.stream(round.wrapping_mul(2) + REQ_LEG);
        let resp_fates = faults.key.stream(round.wrapping_mul(2) + RESP_LEG);

        // Senders in id order: each request's fate, and for a delivered
        // one its arrival rank at its target.
        let load = &mut inboxes.load[..];
        let (mut req_idx, mut self_requests, mut cut, mut lost) = (0u64, 0u64, 0u64, 0u64);
        for (i, (window, ranks)) in targets
            .chunks_exact(k)
            .zip(rank.chunks_exact_mut(k))
            .enumerate()
        {
            if active.is_down(i) {
                assert!(
                    window.iter().all(|&t| (t as usize) < n),
                    "target out of range"
                );
                ranks.fill(LOST);
                continue;
            }
            for (&t, r) in window.iter().zip(ranks.iter_mut()) {
                let t_us = t as usize;
                assert!(t_us < n, "target {t} out of range (n = {n})");
                if cfg.self_bypass && t_us == i {
                    *r = SELF;
                    self_requests += 1;
                    continue;
                }
                let idx = req_idx;
                req_idx += 1;
                // Branch-free past the knobs: under a partition, which
                // legs cross is a coin flip.
                let crossed = active.crossing(i as ProcessId, t);
                let dropped = !crossed
                    & ((drops && faults.fate(req_fates, idx).is_none()) | active.is_down(t_us));
                cut += crossed as u64;
                lost += dropped as u64;
                let arrived = !(crossed | dropped);
                let rank = load[t_us];
                load[t_us] = rank + arrived as u32;
                *r = if arrived { rank } else { LOST };
            }
        }
        let mut metrics = RoundMetrics {
            requests: req_idx,
            self_requests,
            partition_dropped: cut,
            link_dropped: lost,
            max_inbox: load.iter().max().map_or(0, |&l| l as usize),
            ..RoundMetrics::default()
        };

        // Only over-cap targets need their inboxes: lay them out from the
        // ranks, cap them, and give each survivor its kept position.
        let cap = cfg.inbox_cap;
        if metrics.max_inbox > cap {
            inboxes.lay_out();
            for (i, (window, ranks)) in targets
                .chunks_exact(k)
                .zip(rank.chunks_exact_mut(k))
                .enumerate()
            {
                for (&t, r) in window.iter().zip(ranks.iter_mut()) {
                    let t = t as usize;
                    if *r < PENDING && inboxes.load[t] as usize > cap {
                        inboxes.slots[(inboxes.start[t] + *r) as usize] = i as ProcessId;
                        *r = PENDING;
                    }
                }
            }
            inboxes.cap(cap, policy, rng, &mut metrics);
            for t in 0..n {
                let start = inboxes.start[t] as usize;
                if inboxes.start[t + 1] as usize - start <= cap {
                    continue;
                }
                let kept = &inboxes.slots[start..start + inboxes.load[t] as usize];
                for (pos, &s) in kept.iter().enumerate() {
                    let row = &mut rank[s as usize * k..(s as usize + 1) * k];
                    let window = &targets[s as usize * k..(s as usize + 1) * k];
                    let w = (0..k)
                        .find(|&w| window[w] == t as ProcessId && row[w] == PENDING)
                        .expect("drop policy kept a request that never arrived");
                    row[w] = pos as u32;
                }
            }
        }

        // With link drops, each target's kept count becomes its first
        // response-leg index.
        if drops {
            let mut next = 0;
            for load in &mut inboxes.load {
                let kept = *load;
                *load = next;
                next += kept;
            }
        }

        // Requesters in id order: self-answers, then each surviving
        // request answered in place, ordered by responder. A response leg
        // retraces its request leg in the same round, so it crosses no cut
        // and reaches a live requester.
        let load = &inboxes.load[..];
        let (mut delivered, mut forged, mut lost) = (0u64, 0u64, 0u64);
        let rows = responses.rows_mut(n, k);
        for (i, ((window, ranks), (row, len))) in targets
            .chunks_exact(k)
            .zip(rank.chunks_exact(k))
            .zip(rows)
            .enumerate()
        {
            let mut filled = 0;
            for _ in ranks.iter().filter(|&&r| r == SELF) {
                row[filled] = (i as ProcessId, values[i]);
                filled += 1;
            }
            // Requests are visited by responder id (for two, one compare
            // picks the order), so the answers come out ordered. Every
            // one is written at `filled`, which only an answered one
            // advances; the row has room, since `filled` never passes the
            // requests visited before it.
            let first = filled;
            let swap = k == 2 && window[1] < window[0];
            for j in 0..k {
                let w = j ^ swap as usize;
                let (t, r) = (window[w], ranks[w]);
                if r == SELF {
                    continue;
                }
                let t_us = t as usize;
                let arrived = r < PENDING;
                let answered = arrived
                    && !(drops
                        && faults
                            .fate(resp_fates, load[t_us].wrapping_add(r) as u64)
                            .is_none());
                let byzantine = active.is_byzantine(t_us);
                row[filled] = match forge {
                    Some(forged) if byzantine => (t, forged),
                    _ => (t, values[t_us]),
                };
                filled += answered as usize;
                forged += (answered && byzantine) as u64;
                lost += (arrived && !answered) as u64;
            }
            if k > 2 {
                // Entries from one responder are equal, so an unstable
                // sort gives the same row.
                row[first..filled].sort_unstable_by_key(|&(from, _)| from);
            }
            *len = filled as u32;
            delivered += (filled - first) as u64;
        }
        metrics.delivered = delivered;
        metrics.forged = forged;
        metrics.link_dropped += lost;
        metrics
    }

    /// [`route_round`](Self::route_round) with latency: every leg goes
    /// through a delay ring, and this round's due requests through
    /// arrival-ordered inboxes.
    fn route_through_rings<P, R>(
        &mut self,
        input: &RoundIn<'_, V>,
        policy: &mut P,
        rng: &mut R,
        responses: &mut Responses<V>,
    ) -> RoundMetrics
    where
        P: DropPolicy + ?Sized,
        R: RngCore,
    {
        let RoundIn {
            round,
            values,
            targets,
            k,
            cfg,
            forge,
        } = *input;
        let n = values.len();
        let faults = &self.faults;
        let active = faults.active(round);
        let mut metrics = RoundMetrics::default();
        // A row takes this round's self-answers plus responses to requests
        // sent over `2·(max − min) + 1` earlier rounds.
        let span = (faults.spec.latency_max - faults.spec.latency_min) as usize;
        responses.reset(n, k * (2 * span + 2));
        let horizon = self.req_ring.len();
        let slot = (round % horizon as u64) as usize;
        let due_slot = |delay: usize| {
            let at = slot + delay;
            if at >= horizon {
                at - horizon
            } else {
                at
            }
        };
        let req_fates = faults.key.stream(round.wrapping_mul(2) + REQ_LEG);
        let resp_fates = faults.key.stream(round.wrapping_mul(2) + RESP_LEG);

        // Send requests (delay 0 lands in this round's slot, which is
        // drained below; longer delays land in future slots).
        let mut req_idx = 0u64;
        for (i, window) in targets.chunks_exact(k).enumerate() {
            if active.is_down(i) {
                continue;
            }
            for &t in window {
                let t_us = t as usize;
                assert!(t_us < n, "target {t} out of range (n = {n})");
                if cfg.self_bypass && t_us == i {
                    responses.push(i, (t, values[t_us]));
                    metrics.self_requests += 1;
                    continue;
                }
                let idx = req_idx;
                req_idx += 1;
                if active.crossing(i as ProcessId, t) {
                    metrics.partition_dropped += 1;
                    continue;
                }
                let Some(delay) = faults.fate(req_fates, idx) else {
                    metrics.link_dropped += 1;
                    continue;
                };
                self.req_ring[due_slot(delay)].push(FlightReq {
                    from: i as ProcessId,
                    to: t,
                });
            }
        }
        metrics.requests = req_idx;

        // Deliver due requests into inboxes in ring order (a crashed
        // target loses the request): count, lay out, fill.
        let mut due_reqs = std::mem::take(&mut self.req_ring[slot]);
        let inboxes = &mut self.inboxes;
        inboxes.load.clear();
        inboxes.load.resize(n, 0);
        for msg in &due_reqs {
            if active.is_down(msg.to as usize) {
                metrics.link_dropped += 1;
            } else {
                inboxes.load[msg.to as usize] += 1;
            }
        }
        metrics.max_inbox = inboxes.load.iter().max().map_or(0, |&l| l as usize);
        inboxes.lay_out();
        inboxes.load.fill(0);
        for msg in &due_reqs {
            let to = msg.to as usize;
            if !active.is_down(to) {
                inboxes.slots[(inboxes.start[to] + inboxes.load[to]) as usize] = msg.from;
                inboxes.load[to] += 1;
            }
        }
        due_reqs.clear();
        self.req_ring[slot] = due_reqs;
        inboxes.cap(cfg.inbox_cap, policy, rng, &mut metrics);

        // Answer surviving requests, responder by responder. A Byzantine
        // responder mutates the value at this message boundary; its own
        // state is untouched.
        let mut resp_idx = 0u64;
        for (t, &held) in values.iter().enumerate() {
            let byzantine = active.is_byzantine(t);
            let value = match forge {
                Some(forged) if byzantine => forged,
                _ => held,
            };
            let start = inboxes.start[t] as usize;
            for &requester in &inboxes.slots[start..start + inboxes.load[t] as usize] {
                let idx = resp_idx;
                resp_idx += 1;
                if active.crossing(t as ProcessId, requester) {
                    metrics.partition_dropped += 1;
                    continue;
                }
                let Some(delay) = faults.fate(resp_fates, idx) else {
                    metrics.link_dropped += 1;
                    continue;
                };
                metrics.forged += byzantine as u64;
                self.resp_ring[due_slot(delay)].push(FlightResp {
                    from: t as ProcessId,
                    to: requester,
                    value,
                });
            }
        }

        // Deliver due responses (ring order; a crashed requester loses
        // the response).
        let mut due_resps = std::mem::take(&mut self.resp_ring[slot]);
        for msg in &due_resps {
            if active.is_down(msg.to as usize) {
                metrics.link_dropped += 1;
                continue;
            }
            responses.push(msg.to as usize, (msg.from, msg.value));
            metrics.delivered += 1;
        }
        due_resps.clear();
        self.resp_ring[slot] = due_resps;

        metrics.in_flight = self.in_flight();
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::run_round;
    use crate::policy::{KeepFirst, RandomDrop};
    use stabcon_util::rng::{hash3, Xoshiro256pp};

    fn uniform_targets(n: usize, k: usize, seed: u64) -> Vec<ProcessId> {
        (0..n * k)
            .map(|i| (hash3(seed, 7, i as u64) % n as u64) as ProcessId)
            .collect()
    }

    #[test]
    fn zero_fault_matches_run_round_bitwise() {
        let n = 128;
        let k = 2;
        let values: Vec<u32> = (0..n as u32).map(|v| v % 5).collect();
        let cfg = RoundConfig {
            inbox_cap: 3,
            self_bypass: true,
        };
        let mut scen: NetScenario<u32> = NetScenario::new(n, ScenarioSpec::clean(), 0xFA17);
        for round in 0..8u64 {
            let targets = uniform_targets(n, k, round);
            // Same policy/rng state on both sides.
            let mut rng_a = Xoshiro256pp::seed(round);
            let mut rng_b = Xoshiro256pp::seed(round);
            let mut resp_a = Responses::new();
            let mut resp_b = Responses::new();
            let ma = run_round(
                &values,
                &targets,
                k,
                &cfg,
                &mut RandomDrop,
                &mut rng_a,
                &mut resp_a,
            );
            let mb = scen.route_round(
                round,
                &values,
                &targets,
                k,
                &cfg,
                &mut RandomDrop,
                &mut rng_b,
                &mut resp_b,
                None,
            );
            assert_eq!(ma, mb, "round {round} metrics diverged");
            assert_eq!(resp_a, resp_b, "round {round} responses diverged");
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "rng streams diverged");
        }
    }

    #[test]
    fn fixed_latency_shifts_delivery_by_d_rounds() {
        let n = 16;
        let spec = ScenarioSpec::clean().with_latency(2, 2);
        let mut scen: NetScenario<u32> = NetScenario::new(n, spec, 1);
        let values: Vec<u32> = vec![7; n];
        let cfg = RoundConfig {
            inbox_cap: 64,
            self_bypass: false,
        };
        let targets: Vec<ProcessId> = (0..n).map(|i| ((i + 1) % n) as ProcessId).collect();
        let mut rng = Xoshiro256pp::seed(2);
        let mut responses = Responses::new();
        // Round 0: requests depart, nothing arrives.
        let m0 = scen.route_round(
            0,
            &values,
            &targets,
            1,
            &cfg,
            &mut KeepFirst,
            &mut rng,
            &mut responses,
            None,
        );
        assert_eq!(m0.requests, n as u64);
        assert_eq!(m0.delivered, 0);
        assert_eq!(m0.in_flight, n as u64);
        // Round 1: still nothing (requests due at round 2).
        let m1 = scen.route_round(
            1,
            &values,
            &targets,
            1,
            &cfg,
            &mut KeepFirst,
            &mut rng,
            &mut responses,
            None,
        );
        assert_eq!(m1.delivered, 0);
        // Round 2: round-0 requests arrive and are answered; the answers
        // themselves take 2 more rounds.
        let m2 = scen.route_round(
            2,
            &values,
            &targets,
            1,
            &cfg,
            &mut KeepFirst,
            &mut rng,
            &mut responses,
            None,
        );
        assert_eq!(m2.delivered, 0);
        // Round 4: round-0 responses land.
        for round in 3..5u64 {
            let m = scen.route_round(
                round,
                &values,
                &targets,
                1,
                &cfg,
                &mut KeepFirst,
                &mut rng,
                &mut responses,
                None,
            );
            if round == 4 {
                assert_eq!(m.delivered, n as u64, "round-0 answers due at round 4");
            } else {
                assert_eq!(m.delivered, 0);
            }
        }
    }

    #[test]
    fn link_drops_scale_with_probability() {
        let n = 512;
        let spec = ScenarioSpec::clean().with_drop_per_mille(250);
        let mut scen: NetScenario<u32> = NetScenario::new(n, spec, 3);
        let values: Vec<u32> = vec![1; n];
        let cfg = RoundConfig {
            inbox_cap: 1024,
            self_bypass: false,
        };
        let targets = uniform_targets(n, 2, 9);
        let mut rng = Xoshiro256pp::seed(4);
        let mut responses = Responses::new();
        let mut sent = 0u64;
        let mut lost = 0u64;
        for round in 0..20u64 {
            let m = scen.route_round(
                round,
                &values,
                &targets,
                2,
                &cfg,
                &mut KeepFirst,
                &mut rng,
                &mut responses,
                None,
            );
            sent += m.requests;
            lost += m.link_dropped;
        }
        // Two legs at 25% each ⇒ ≈ 43.75% of requests lose a leg; the
        // request-leg share alone is 25% of sends. Loose 5σ-ish band.
        let rate = lost as f64 / (sent as f64 * 2.0);
        assert!((0.18..0.32).contains(&rate), "per-leg loss rate {rate}");
    }

    #[test]
    fn partition_blocks_cross_traffic_until_heal() {
        let n = 64;
        let spec = ScenarioSpec::clean().with_partition(500, 0, 3);
        let mut scen: NetScenario<u32> = NetScenario::new(n, spec, 5);
        let values: Vec<u32> = vec![2; n];
        let cfg = RoundConfig {
            inbox_cap: 256,
            self_bypass: false,
        };
        // Everyone asks across the cut: i → (i + n/2) mod n.
        let targets: Vec<ProcessId> = (0..n).map(|i| ((i + n / 2) % n) as ProcessId).collect();
        let mut rng = Xoshiro256pp::seed(6);
        let mut responses = Responses::new();
        for round in 0..5u64 {
            let m = scen.route_round(
                round,
                &values,
                &targets,
                1,
                &cfg,
                &mut KeepFirst,
                &mut rng,
                &mut responses,
                None,
            );
            if round < 3 {
                assert_eq!(m.partition_dropped, n as u64, "round {round}");
                assert_eq!(m.delivered, 0, "round {round}");
            } else {
                assert_eq!(m.partition_dropped, 0, "round {round}");
                assert_eq!(m.delivered, n as u64, "healed round {round}");
            }
        }
    }

    #[test]
    fn crashed_processes_neither_send_nor_answer() {
        let n = 32;
        let spec = ScenarioSpec::clean().with_churn(8, 0, 10, Rejoin::PreCrash);
        let mut scen: NetScenario<u32> = NetScenario::new(n, spec, 7);
        let down: Vec<usize> = (0..n).filter(|&p| scen.is_down(p, 0)).collect();
        assert_eq!(down.len(), 8, "seeded crash set size");
        assert!(!scen.is_down(down[0], 10), "rejoined after the window");

        let values: Vec<u32> = vec![3; n];
        let cfg = RoundConfig {
            inbox_cap: 256,
            self_bypass: false,
        };
        let targets: Vec<ProcessId> = (0..n).map(|i| ((i + 1) % n) as ProcessId).collect();
        let mut rng = Xoshiro256pp::seed(8);
        let mut responses = Responses::new();
        let m = scen.route_round(
            0,
            &values,
            &targets,
            1,
            &cfg,
            &mut KeepFirst,
            &mut rng,
            &mut responses,
            None,
        );
        assert_eq!(m.requests, (n - 8) as u64, "down processes sent nothing");
        for &p in &down {
            assert!(responses.get(p).is_empty(), "down process {p} received");
        }
    }

    #[test]
    fn byzantine_responders_forge_the_supplied_value() {
        let n = 32;
        let spec = ScenarioSpec::clean().with_byzantine(6);
        let mut scen: NetScenario<u32> = NetScenario::new(n, spec, 9);
        assert!(scen.wants_forge_value(0));
        let byz: Vec<usize> = (0..n).filter(|&p| scen.is_byzantine(p)).collect();
        assert_eq!(byz.len(), 6);

        let values: Vec<u32> = vec![5; n];
        let cfg = RoundConfig {
            inbox_cap: 256,
            self_bypass: false,
        };
        let targets: Vec<ProcessId> = (0..n).map(|i| ((i + 1) % n) as ProcessId).collect();
        let mut rng = Xoshiro256pp::seed(10);
        let mut responses = Responses::new();
        let m = scen.route_round(
            0,
            &values,
            &targets,
            1,
            &cfg,
            &mut KeepFirst,
            &mut rng,
            &mut responses,
            Some(99),
        );
        assert_eq!(m.forged, 6, "one forged response per Byzantine responder");
        let forged_seen: u64 = responses
            .iter()
            .flatten()
            .filter(|&&(from, v)| v == 99 && byz.contains(&(from as usize)))
            .count() as u64;
        assert_eq!(forged_seen, 6);
    }

    #[test]
    fn reset_replays_bit_identically() {
        let n = 96;
        let spec = ScenarioSpec::clean()
            .with_latency(0, 3)
            .with_drop_per_mille(100)
            .with_partition(300, 2, 5)
            .with_churn(10, 1, 6, Rejoin::Adversarial)
            .with_byzantine(4);
        let cfg = RoundConfig {
            inbox_cap: 4,
            self_bypass: true,
        };
        let values: Vec<u32> = (0..n as u32).collect();
        let run = |scen: &mut NetScenario<u32>| {
            let mut rng = Xoshiro256pp::seed(11);
            let mut responses = Responses::new();
            let mut log = Vec::new();
            for round in 0..12u64 {
                let targets = uniform_targets(n, 2, round);
                let m = scen.route_round(
                    round,
                    &values,
                    &targets,
                    2,
                    &cfg,
                    &mut RandomDrop,
                    &mut rng,
                    &mut responses,
                    Some(0),
                );
                log.push((m, responses.clone()));
            }
            log
        };
        let mut scen: NetScenario<u32> = NetScenario::new(n, spec, 0xABCD);
        let first = run(&mut scen);
        // Dirty state, then reset with the same seed: identical replay.
        scen.reset(0xABCD);
        assert_eq!(run(&mut scen), first);
        // A different seed gives a different trace.
        scen.reset(0xABCE);
        assert_ne!(run(&mut scen), first);
    }

    #[test]
    fn labels_are_compact_and_distinct() {
        assert_eq!(ScenarioSpec::clean().label(), "none");
        let specs = [
            ScenarioSpec::clean().with_latency(1, 3),
            ScenarioSpec::clean().with_drop_per_mille(50),
            ScenarioSpec::clean().with_partition(500, 5, 40),
            ScenarioSpec::clean().with_churn(32, 5, 40, Rejoin::PreCrash),
            ScenarioSpec::clean().with_churn(32, 5, 40, Rejoin::Adversarial),
            ScenarioSpec::clean().with_byzantine(16),
            ScenarioSpec::clean().with_latency(1, 3).with_byzantine(16),
        ];
        let labels: std::collections::HashSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len(), "{labels:?}");
        for s in &specs {
            assert!(!s.is_zero_fault());
            assert_ne!(s.label(), "none");
        }
    }

    #[test]
    fn consensus_absorbing_only_without_latency() {
        assert!(ScenarioSpec::clean().consensus_absorbing());
        assert!(ScenarioSpec::clean()
            .with_drop_per_mille(500)
            .with_byzantine(8)
            .consensus_absorbing());
        assert!(!ScenarioSpec::clean()
            .with_latency(0, 1)
            .consensus_absorbing());
    }

    #[test]
    #[should_panic]
    fn inverted_latency_range_is_rejected() {
        let _ = NetScenario::<u32>::new(8, ScenarioSpec::clean().with_latency(3, 1), 0);
    }
}
