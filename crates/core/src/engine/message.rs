//! The message-level engine: protocol rounds over the real communication
//! model (`stabcon-net`), including logarithmic inbox caps and drop
//! policies.
//!
//! Where the dense engine *assumes* each ball learns its two samples, this
//! engine actually routes request/response messages: a sample is lost when
//! the target's inbox overflowed and the drop policy discarded the request.
//! [`OnMissing`] decides how the protocol degrades.
//!
//! A process sends its requests to the very processes whose values the
//! dense kernel samples ([`dense::step_seq`]): the same counter streams,
//! drawn by the same batched routine. The paper's processes are anonymous,
//! each with a private numbering of the others, but a fixed bijection maps
//! a uniform local index to a uniform global id, so the numbering does not
//! change the law of any target and the engine models none. With a
//! lossless cap and no faults a message round therefore equals a dense
//! round bit for bit.
//!
//! On top of the clean synchronous executor the engine can route every
//! round through a [`NetScenario`] — seeded latency, link drops,
//! partitions, churn, and Byzantine response forging (see
//! `stabcon_net::scenario`). The zero-fault scenario (the default) is
//! bit-identical to the plain executor; [`MessageEngine::step_reference`]
//! keeps the original path alive as a regression oracle. Both fill one
//! flat [`Responses`] table, a row of `(responder, value)` pairs per
//! process, and the protocol combines the first `k` of each row. Without
//! latency the scenario answers every request in place and stores no
//! message; only latency keeps messages in delay rings between rounds.

use stabcon_net::{
    log_inbox_cap, run_round, DropPolicy, KeepFirst, NetScenario, ProcessId, RandomDrop, Responses,
    RoundConfig, RoundMetrics, ScenarioSpec, StarveSet,
};
use stabcon_util::rng::{hash3, Xoshiro256pp};

use crate::engine::dense;
use crate::protocol::{Protocol, MAX_SAMPLES};
use crate::value::Value;

/// What a process does about a sample that never arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnMissing {
    /// Substitute its own value (conservative: a ball with no information
    /// keeps its opinion).
    KeepOwn,
    /// Substitute the first response that did arrive (aggressive; if nothing
    /// arrived, falls back to its own value).
    Adopt,
}

/// Drop-policy selector (mirrors `stabcon-net` policies, plus parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropSpec {
    /// Uniformly random subset survives.
    Random,
    /// First `cap` requests in arrival order survive.
    KeepFirst,
    /// Adversarial: requests from the first `k` processes are dropped first.
    StarveFirstK {
        /// Number of starved processes.
        k: usize,
    },
}

impl DropSpec {
    /// Table label. Parameterized variants include their parameters so grid
    /// rows stay distinguishable.
    pub fn label(&self) -> String {
        match self {
            DropSpec::Random => "random".into(),
            DropSpec::KeepFirst => "keep-first".into(),
            DropSpec::StarveFirstK { k } => format!("starve({k})"),
        }
    }

    fn build(&self, n: usize) -> Box<dyn DropPolicy + Send> {
        match *self {
            DropSpec::Random => Box::new(RandomDrop),
            DropSpec::KeepFirst => Box::new(KeepFirst),
            DropSpec::StarveFirstK { k } => Box::new(StarveSet::first_k(n, k)),
        }
    }
}

/// Message-engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageConfig {
    /// Inbox cap multiplier: cap = `cap_mult · ⌈log₂ n⌉`.
    pub cap_mult: usize,
    /// Drop policy for overloaded inboxes.
    pub drop: DropSpec,
    /// Missing-sample handling.
    pub on_missing: OnMissing,
    /// Network-fault scenario the round traffic is routed through. The
    /// default ([`ScenarioSpec::clean`]) is bit-identical to the plain
    /// synchronous executor.
    pub scenario: ScenarioSpec,
}

impl Default for MessageConfig {
    fn default() -> Self {
        Self {
            cap_mult: 2,
            drop: DropSpec::Random,
            on_missing: OnMissing::KeepOwn,
            scenario: ScenarioSpec::clean(),
        }
    }
}

/// Stream id keying the network-side randomness (drop selection).
const NET_STREAM: u64 = 0xA11CE5;

/// Stream id keying the scenario's fault randomness (distinct from
/// [`NET_STREAM`] so fault draws never alias drop-policy randomness).
const SCEN_STREAM: u64 = 0x5CE11A;

/// A reusable message-level engine for one population size.
pub struct MessageEngine {
    cfg: MessageConfig,
    round_cfg: RoundConfig,
    policy: Box<dyn DropPolicy + Send>,
    net_rng: Xoshiro256pp,
    scenario: NetScenario<Value>,
    targets: Vec<ProcessId>,
    responses: Responses<Value>,
    totals: RoundMetrics,
}

impl MessageEngine {
    /// Build an engine for `n` processes. `seed` keys the network-side
    /// randomness (drop selection) and the fault scenario; the sample
    /// targets follow the seed each step receives.
    pub fn new(n: usize, cfg: MessageConfig, seed: u64) -> Self {
        Self {
            cfg,
            round_cfg: RoundConfig {
                inbox_cap: log_inbox_cap(n, cfg.cap_mult.max(1)),
                self_bypass: true,
            },
            policy: cfg.drop.build(n),
            net_rng: Xoshiro256pp::seed(hash3(seed, NET_STREAM, 1)),
            scenario: NetScenario::new(n, cfg.scenario, hash3(seed, SCEN_STREAM, 0)),
            targets: Vec::new(),
            responses: Responses::new(),
            totals: RoundMetrics::default(),
        }
    }

    /// The effective inbox cap.
    pub fn inbox_cap(&self) -> usize {
        self.round_cfg.inbox_cap
    }

    /// The population size this engine was built for.
    pub fn n(&self) -> usize {
        self.scenario.n()
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> MessageConfig {
        self.cfg
    }

    /// The fault scenario the engine routes through.
    pub fn scenario(&self) -> &NetScenario<Value> {
        &self.scenario
    }

    /// Re-key the engine for a fresh trial with the same `(n, config)`,
    /// keeping the routing buffers (the response table and the scenario's
    /// delay rings, counts and inboxes): after this the engine behaves exactly like
    /// [`MessageEngine::new`] with `seed` (drop policies carry no
    /// cross-trial state — they are pure functions of `(n, config)` plus
    /// the per-round randomness). No allocation happens on this path.
    pub fn reset(&mut self, seed: u64) {
        self.net_rng = Xoshiro256pp::seed(hash3(seed, NET_STREAM, 1));
        self.scenario.reset(hash3(seed, SCEN_STREAM, 0));
        // Undo a `with_inbox_cap` override so reset ≡ new.
        self.round_cfg.inbox_cap = log_inbox_cap(self.n(), self.cfg.cap_mult.max(1));
        self.totals = RoundMetrics::default();
        self.targets.clear();
    }

    /// Override the inbox cap with an absolute value (stress-testing knob:
    /// the canonical `c·⌈log₂ n⌉` cap sits *above* the maximum inbox load
    /// w.h.p., so drops are rare; sub-logarithmic caps make them bite).
    pub fn with_inbox_cap(mut self, cap: usize) -> Self {
        self.round_cfg.inbox_cap = cap.max(1);
        self
    }

    /// Accumulated delivery metrics over all rounds stepped so far.
    pub fn totals(&self) -> &RoundMetrics {
        &self.totals
    }

    /// Draw this round's sample targets: process `i` sends its `k`
    /// requests to the balls [`dense::step_seq`] samples for ball `i`,
    /// drawn from the stream `(seed, round·n + i)` by the dense kernel's
    /// own batched routine. The layout is identical whether or not a
    /// process is crashed, so fault scenarios never shift the sampling
    /// randomness of live processes.
    fn draw_targets(&mut self, n: usize, k: usize, seed: u64, round: u64) {
        self.targets.resize(n * k, 0);
        dense::sample_indices(seed, round, n as u64, k, &mut self.targets);
    }

    /// Check the buffers against the engine and draw this round's targets;
    /// returns the protocol's sample count `k`.
    fn begin_round(
        &mut self,
        old: &[Value],
        new: &[Value],
        protocol: &dyn Protocol,
        seed: u64,
        round: u64,
    ) -> usize {
        let n = old.len();
        assert_eq!(new.len(), n, "state buffers differ in length");
        assert_eq!(self.n(), n, "engine built for different n");
        let k = protocol.samples();
        assert!(k <= MAX_SAMPLES, "protocol requests too many samples");
        self.draw_targets(n, k, seed, round);
        k
    }

    /// Process `i`'s next value from the responses it received: a missing
    /// sample is filled per [`OnMissing`], then the protocol combines.
    fn combine(&self, protocol: &dyn Protocol, k: usize, i: usize, own: Value) -> Value {
        let got = self.responses.get(i);
        let fallback = match self.cfg.on_missing {
            OnMissing::KeepOwn => own,
            OnMissing::Adopt => got.first().map(|&(_, v)| v).unwrap_or(own),
        };
        let mut samples = [0 as Value; MAX_SAMPLES];
        for (j, sample) in samples.iter_mut().take(k).enumerate() {
            *sample = got.get(j).map(|&(_, v)| v).unwrap_or(fallback);
        }
        protocol.combine(own, &samples[..k])
    }

    /// Advance one round: reads `old`, writes `new`.
    ///
    /// Each process requests the samples the dense engine would draw for
    /// it, and the requests go through the network — with caps, and with
    /// whatever faults the configured [`ScenarioSpec`] injects. With the
    /// zero-fault scenario this is bit-identical to
    /// [`MessageEngine::step_reference`].
    ///
    /// # Panics
    /// Panics if buffer sizes disagree with the engine's `n`.
    pub fn step(
        &mut self,
        old: &[Value],
        new: &mut [Value],
        protocol: &dyn Protocol,
        seed: u64,
        round: u64,
    ) -> RoundMetrics {
        // Phase 1: draw targets.
        let k = self.begin_round(old, new, protocol, seed, round);

        // The adversary's forge value: the smallest value currently held,
        // i.e. the choice that keeps a minority value alive longest against
        // the median rule's drift. Only computed when a Byzantine responder
        // or an adversarial rejoin needs it this round.
        let forge = if self.scenario.wants_forge_value(round) {
            old.iter().min().copied()
        } else {
            None
        };

        // Phase 2: route through the (possibly hostile) network. Timed as
        // one routing phase; the scenario's per-trial fault draws are timed
        // separately (`Phase::Faults`, in `NetScenario::rebuild_fault_sets`).
        let t = stabcon_obs::phase(stabcon_obs::Phase::Route);
        let metrics = self.scenario.route_round(
            round,
            old,
            &self.targets,
            k,
            &self.round_cfg,
            self.policy.as_mut(),
            &mut self.net_rng,
            &mut self.responses,
            forge,
        );
        drop(t);
        self.totals.absorb(&metrics);

        // Phase 3: combine. Crashed processes hold their value (or rejoin
        // at the adversary's choice on the window boundary).
        for (i, slot) in new.iter_mut().enumerate() {
            *slot = if !self.scenario.is_down(i, round) {
                self.combine(protocol, k, i, old[i])
            } else if self.scenario.adversarial_rejoin(i, round) {
                forge.unwrap_or(old[i])
            } else {
                old[i]
            };
        }
        metrics
    }

    /// Advance one round through the plain synchronous executor, ignoring
    /// the configured scenario — the pre-scenario engine, kept as a
    /// lossless oracle: regression tests pin `step` with the zero-fault
    /// scenario bit-identical to this path.
    ///
    /// # Panics
    /// Panics if buffer sizes disagree with the engine's `n`.
    pub fn step_reference(
        &mut self,
        old: &[Value],
        new: &mut [Value],
        protocol: &dyn Protocol,
        seed: u64,
        round: u64,
    ) -> RoundMetrics {
        let k = self.begin_round(old, new, protocol, seed, round);
        let metrics = run_round(
            old,
            &self.targets,
            k,
            &self.round_cfg,
            self.policy.as_mut(),
            &mut self.net_rng,
            &mut self.responses,
        );
        self.totals.absorb(&metrics);
        for (i, slot) in new.iter_mut().enumerate() {
            *slot = self.combine(protocol, k, i, old[i]);
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MedianRule;
    use stabcon_net::Rejoin;

    fn converge(n: usize, cfg: MessageConfig, seed: u64, max_rounds: u64) -> Option<u64> {
        let mut engine = MessageEngine::new(n, cfg, seed);
        let mut state: Vec<Value> = (0..n).map(|i| (i % 2) as Value).collect();
        let mut scratch = vec![0; n];
        for round in 0..max_rounds {
            if state.iter().all(|&v| v == state[0]) {
                return Some(round);
            }
            engine.step(&state, &mut scratch, &MedianRule, seed, round);
            std::mem::swap(&mut state, &mut scratch);
        }
        None
    }

    #[test]
    fn converges_under_random_drops() {
        let cfg = MessageConfig::default();
        let r = converge(2048, cfg, 11, 600).expect("no consensus");
        assert!(r < 400, "took {r} rounds");
    }

    #[test]
    fn converges_with_tight_cap() {
        let cfg = MessageConfig {
            cap_mult: 1,
            drop: DropSpec::Random,
            on_missing: OnMissing::KeepOwn,
            ..MessageConfig::default()
        };
        assert!(converge(1024, cfg, 12, 800).is_some());
    }

    #[test]
    fn converges_under_adversarial_drops() {
        let cfg = MessageConfig {
            cap_mult: 1,
            drop: DropSpec::StarveFirstK { k: 64 },
            on_missing: OnMissing::KeepOwn,
            ..MessageConfig::default()
        };
        assert!(converge(1024, cfg, 13, 800).is_some());
    }

    #[test]
    fn metrics_accumulate() {
        let n = 512;
        let mut engine = MessageEngine::new(n, MessageConfig::default(), 3);
        let state: Vec<Value> = (0..n).map(|i| i as Value).collect();
        let mut scratch = vec![0; n];
        let m1 = engine.step(&state, &mut scratch, &MedianRule, 3, 0);
        assert_eq!(
            m1.requests + m1.self_requests,
            (n * 2) as u64,
            "every ball sends 2 requests"
        );
        let _ = engine.step(&state, &mut scratch, &MedianRule, 3, 1);
        assert!(engine.totals().requests >= m1.requests);
    }

    #[test]
    fn dropped_plus_delivered_is_total() {
        let n = 256;
        let cfg = MessageConfig {
            cap_mult: 1,
            drop: DropSpec::Random,
            on_missing: OnMissing::KeepOwn,
            ..MessageConfig::default()
        };
        let mut engine = MessageEngine::new(n, cfg, 4);
        let state: Vec<Value> = vec![5; n];
        let mut scratch = vec![0; n];
        let m = engine.step(&state, &mut scratch, &MedianRule, 4, 0);
        assert_eq!(m.delivered + m.dropped, m.requests);
    }

    #[test]
    fn consensus_absorbing_even_with_drops() {
        let n = 512;
        let cfg = MessageConfig {
            cap_mult: 1,
            drop: DropSpec::KeepFirst,
            on_missing: OnMissing::KeepOwn,
            ..MessageConfig::default()
        };
        let mut engine = MessageEngine::new(n, cfg, 5);
        let state: Vec<Value> = vec![9; n];
        let mut scratch = vec![0; n];
        engine.step(&state, &mut scratch, &MedianRule, 5, 0);
        assert_eq!(scratch, state);
    }

    #[test]
    fn adopt_policy_also_converges() {
        let cfg = MessageConfig {
            cap_mult: 1,
            drop: DropSpec::Random,
            on_missing: OnMissing::Adopt,
            ..MessageConfig::default()
        };
        assert!(converge(1024, cfg, 14, 800).is_some());
    }

    #[test]
    fn starve_label_includes_k() {
        assert_eq!(DropSpec::StarveFirstK { k: 64 }.label(), "starve(64)");
        assert_ne!(
            DropSpec::StarveFirstK { k: 8 }.label(),
            DropSpec::StarveFirstK { k: 9 }.label()
        );
    }

    #[test]
    fn zero_fault_step_matches_reference_bitwise() {
        // The tentpole's regression anchor: the scenario-routed step with
        // every fault knob off reproduces the pre-scenario engine exactly —
        // states, metrics, and totals — over a multi-round run on a tight
        // cap (so the drop policy consumes net_rng on both sides).
        let n = 512;
        let cfg = MessageConfig {
            cap_mult: 1,
            drop: DropSpec::Random,
            on_missing: OnMissing::KeepOwn,
            ..MessageConfig::default()
        };
        let seed = 0xC0FFEE;
        let mut a = MessageEngine::new(n, cfg, seed).with_inbox_cap(2);
        let mut b = MessageEngine::new(n, cfg, seed).with_inbox_cap(2);
        let init: Vec<Value> = (0..n).map(|i| (i % 7) as Value).collect();
        let (mut sa, mut sb) = (init.clone(), init);
        let mut na = vec![0; n];
        let mut nb = vec![0; n];
        for round in 0..30u64 {
            let ma = a.step(&sa, &mut na, &MedianRule, seed, round);
            let mb = b.step_reference(&sb, &mut nb, &MedianRule, seed, round);
            assert_eq!(ma, mb, "round {round} metrics diverged");
            assert_eq!(na, nb, "round {round} states diverged");
            std::mem::swap(&mut sa, &mut na);
            std::mem::swap(&mut sb, &mut nb);
        }
        assert_eq!(a.totals(), b.totals());
    }

    #[test]
    fn step_rekeys_numberings_on_its_own_seed() {
        // The targets follow the seed `step` receives, not `reset`'s: an
        // engine that stepped under seed `a`, then was reset to `a`, must
        // step under seed `b` exactly like a fresh engine does.
        let n = 300;
        let cfg = MessageConfig {
            cap_mult: 1,
            ..MessageConfig::default()
        };
        let (a, b) = (31, 32);
        let init: Vec<Value> = (0..n).map(|i| (i % 5) as Value).collect();
        let run = |engine: &mut MessageEngine, seed: u64| {
            let mut state = init.clone();
            let mut scratch = vec![0; n];
            for round in 0..6u64 {
                engine.step(&state, &mut scratch, &MedianRule, seed, round);
                std::mem::swap(&mut state, &mut scratch);
            }
            (state, *engine.totals())
        };
        let mut dirty = MessageEngine::new(n, cfg, a);
        let under_a = run(&mut dirty, a);
        dirty.reset(a);
        let under_b = run(&mut dirty, b);
        assert_ne!(under_a, under_b, "the seed must matter");
        assert_eq!(under_b, run(&mut MessageEngine::new(n, cfg, a), b));
    }

    #[test]
    fn converges_under_latency_and_drops() {
        let cfg = MessageConfig {
            scenario: ScenarioSpec::clean()
                .with_latency(0, 2)
                .with_drop_per_mille(100),
            ..MessageConfig::default()
        };
        assert!(converge(1024, cfg, 15, 1200).is_some());
    }

    #[test]
    fn converges_through_partition_heal() {
        let cfg = MessageConfig {
            scenario: ScenarioSpec::clean().with_partition(500, 0, 30),
            ..MessageConfig::default()
        };
        assert!(converge(1024, cfg, 16, 1200).is_some());
    }

    #[test]
    fn adversarial_rejoin_reinjects_minority_value() {
        // Everyone holds 1 except one *crashed* process holding 0: being
        // down, it keeps the minority value alive through the window, so at
        // the rejoin boundary every crashed process must come back holding
        // the adversary's minimum (0), not its pre-crash value (1).
        let n = 64;
        let cfg = MessageConfig {
            scenario: ScenarioSpec::clean().with_churn(8, 0, 3, Rejoin::Adversarial),
            ..MessageConfig::default()
        };
        let seed = 21;
        let mut engine = MessageEngine::new(n, cfg, seed);
        let down: Vec<usize> = (0..n)
            .filter(|&p| engine.scenario().is_down(p, 0))
            .collect();
        assert_eq!(down.len(), 8);
        let mut state: Vec<Value> = vec![1; n];
        state[down[0]] = 0; // the minority value the adversary keeps alive
        let mut scratch = vec![0; n];
        for round in 0..3u64 {
            engine.step(&state, &mut scratch, &MedianRule, seed, round);
            std::mem::swap(&mut state, &mut scratch);
        }
        // Round 2 was the rejoin boundary (until = 3): every crashed
        // process now holds the adversary's minimum.
        for &p in &down {
            assert_eq!(state[p], 0, "process {p} did not rejoin adversarially");
        }
    }

    #[test]
    fn byzantine_minority_still_converges_and_stays_valid() {
        let n = 1024;
        let cfg = MessageConfig {
            scenario: ScenarioSpec::clean().with_byzantine(16),
            ..MessageConfig::default()
        };
        let seed = 22;
        let mut engine = MessageEngine::new(n, cfg, seed);
        let mut state: Vec<Value> = (0..n).map(|i| (i % 2) as Value).collect();
        let mut scratch = vec![0; n];
        for round in 0..1200u64 {
            if state.iter().all(|&v| v == state[0]) {
                break;
            }
            engine.step(&state, &mut scratch, &MedianRule, seed, round);
            std::mem::swap(&mut state, &mut scratch);
            // Validity: forged values are minima of currently-held values,
            // so the state stays within the initial value range.
            assert!(state.iter().all(|&v| v <= 1), "validity violated");
        }
        assert!(
            state.iter().all(|&v| v == state[0]),
            "no consensus under Byzantine minority"
        );
        assert!(engine.totals().forged > 0, "no forgery actually happened");
    }

    #[test]
    fn scenario_reset_replays_trial_bit_identically() {
        let n = 256;
        let cfg = MessageConfig {
            cap_mult: 1,
            drop: DropSpec::Random,
            on_missing: OnMissing::KeepOwn,
            scenario: ScenarioSpec::clean()
                .with_latency(0, 2)
                .with_drop_per_mille(150)
                .with_byzantine(4),
        };
        let seed = 23;
        let run = |engine: &mut MessageEngine| {
            let mut state: Vec<Value> = (0..n).map(|i| (i % 3) as Value).collect();
            let mut scratch = vec![0; n];
            for round in 0..40u64 {
                engine.step(&state, &mut scratch, &MedianRule, seed, round);
                std::mem::swap(&mut state, &mut scratch);
            }
            (state, *engine.totals())
        };
        let mut engine = MessageEngine::new(n, cfg, seed);
        let first = run(&mut engine);
        // Dirty engine (delay rings were mid-flight at trial end), then
        // reset: must replay exactly, matching a fresh engine.
        engine.reset(seed);
        assert_eq!(run(&mut engine), first);
        let mut fresh = MessageEngine::new(n, cfg, seed);
        assert_eq!(run(&mut fresh), first);
    }
}
