//! `NetScenario::route_round` against a reference model: the queue router
//! as first written, with delay rings, one request inbox per target and
//! one response list per requester, kept here verbatim in behaviour so any
//! faster router must route every faulted round exactly like it.

use proptest::prelude::*;
use rand::RngCore;
use stabcon_net::{
    ChurnSpec, DropPolicy, FeistelPerm, KeepFirst, NetScenario, PartitionSpec, ProcessId,
    RandomDrop, Rejoin, Responses, RoundConfig, RoundMetrics, ScenarioSpec, StarveSet,
};
use stabcon_util::rng::{gen_index, CounterKey, CounterStream, Xoshiro256pp};

/// The reference queue router: every leg goes through a delay ring, every
/// delivered request through its target's inbox, every response through
/// its requester's list.
struct QueueRouter {
    spec: ScenarioSpec,
    key: CounterKey,
    split_at: ProcessId,
    crashed: Vec<bool>,
    byzantine: Vec<bool>,
    req_ring: Vec<Vec<(ProcessId, ProcessId)>>,
    resp_ring: Vec<Vec<(ProcessId, ProcessId, u32)>>,
    inboxes: Vec<Vec<ProcessId>>,
    in_flight: u64,
}

impl QueueRouter {
    fn new(n: usize, spec: ScenarioSpec, seed: u64) -> Self {
        let key = CounterKey::new(seed);
        let horizon = spec.latency_max as usize + 1;
        let split_at = match spec.partition {
            PartitionSpec::Split { left_per_mille, .. } => {
                (n as u64 * left_per_mille as u64 / 1000) as ProcessId
            }
            PartitionSpec::None => 0,
        };
        let mut crashed = vec![false; n];
        let mut byzantine = vec![false; n];
        if n > 0 {
            if let ChurnSpec::CrashWindow { count, .. } = spec.churn {
                let perm = FeistelPerm::new(n as u64, key.stream(u64::MAX).word(0));
                for i in 0..(count as u64).min(n as u64) {
                    crashed[perm.apply(i) as usize] = true;
                }
            }
            if spec.byzantine > 0 {
                let perm = FeistelPerm::new(n as u64, key.stream(u64::MAX - 2).word(0));
                for i in 0..(spec.byzantine as u64).min(n as u64) {
                    byzantine[perm.apply(i) as usize] = true;
                }
            }
        }
        Self {
            spec,
            key,
            split_at,
            crashed,
            byzantine,
            req_ring: vec![Vec::new(); horizon],
            resp_ring: vec![Vec::new(); horizon],
            inboxes: vec![Vec::new(); n],
            in_flight: 0,
        }
    }

    fn is_down(&self, p: usize, round: u64) -> bool {
        match self.spec.churn {
            ChurnSpec::None => false,
            ChurnSpec::CrashWindow { from, until, .. } => {
                (from as u64..until as u64).contains(&round) && self.crashed[p]
            }
        }
    }

    fn crossing(&self, a: ProcessId, b: ProcessId, round: u64) -> bool {
        match self.spec.partition {
            PartitionSpec::None => false,
            PartitionSpec::Split { from, heal, .. } => {
                (from as u64..heal as u64).contains(&round)
                    && (a < self.split_at) != (b < self.split_at)
            }
        }
    }

    fn fate(&self, stream: CounterStream, idx: u64) -> Option<u64> {
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
        let range = (self.spec.latency_max - self.spec.latency_min) as u64 + 1;
        Some(self.spec.latency_min as u64 + (w >> 32) % range)
    }

    #[allow(clippy::too_many_arguments)]
    fn route_round(
        &mut self,
        round: u64,
        values: &[u32],
        targets: &[ProcessId],
        k: usize,
        cfg: &RoundConfig,
        policy: &mut dyn DropPolicy,
        rng: &mut dyn RngCore,
        forge: Option<u32>,
    ) -> (RoundMetrics, Vec<Vec<(ProcessId, u32)>>) {
        let n = values.len();
        let mut metrics = RoundMetrics::default();
        let mut responses: Vec<Vec<(ProcessId, u32)>> = vec![Vec::new(); n];
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        let horizon = self.req_ring.len() as u64;
        let slot = (round % horizon) as usize;
        let req_fates = self.key.stream(round.wrapping_mul(2));
        let resp_fates = self.key.stream(round.wrapping_mul(2) + 1);

        // Send: self-answers land at once, every other leg in a ring slot.
        let mut req_idx = 0u64;
        for (i, window) in targets.chunks_exact(k).enumerate() {
            if self.is_down(i, round) {
                continue;
            }
            for &t in window {
                if cfg.self_bypass && t as usize == i {
                    responses[i].push((t, values[i]));
                    metrics.self_requests += 1;
                    continue;
                }
                let idx = req_idx;
                req_idx += 1;
                metrics.requests += 1;
                if self.crossing(i as ProcessId, t, round) {
                    metrics.partition_dropped += 1;
                    continue;
                }
                let Some(delay) = self.fate(req_fates, idx) else {
                    metrics.link_dropped += 1;
                    continue;
                };
                self.req_ring[((round + delay) % horizon) as usize].push((i as ProcessId, t));
                self.in_flight += 1;
            }
        }

        // Deliver this round's requests into inboxes, in ring order.
        let due = std::mem::take(&mut self.req_ring[slot]);
        self.in_flight -= due.len() as u64;
        for &(from, to) in &due {
            if self.is_down(to as usize, round) {
                metrics.link_dropped += 1;
                continue;
            }
            self.inboxes[to as usize].push(from);
        }

        // Cap overloaded inboxes, target by target.
        for (t, requesters) in self.inboxes.iter_mut().enumerate() {
            metrics.max_inbox = metrics.max_inbox.max(requesters.len());
            if requesters.len() > cfg.inbox_cap {
                metrics.overloaded += 1;
                let before = requesters.len();
                policy.select(t as ProcessId, requesters, cfg.inbox_cap, rng);
                assert!(requesters.len() <= cfg.inbox_cap);
                metrics.dropped += (before - requesters.len()) as u64;
            }
        }

        // Answer, responder by responder, into the response rings.
        let mut resp_idx = 0u64;
        for (t, &held) in values.iter().enumerate() {
            let byz = self.spec.byzantine > 0 && self.byzantine[t];
            let value = if byz { forge.unwrap_or(held) } else { held };
            for j in 0..self.inboxes[t].len() {
                let requester = self.inboxes[t][j];
                let idx = resp_idx;
                resp_idx += 1;
                if self.crossing(t as ProcessId, requester, round) {
                    metrics.partition_dropped += 1;
                    continue;
                }
                let Some(delay) = self.fate(resp_fates, idx) else {
                    metrics.link_dropped += 1;
                    continue;
                };
                if byz {
                    metrics.forged += 1;
                }
                self.resp_ring[((round + delay) % horizon) as usize].push((
                    t as ProcessId,
                    requester,
                    value,
                ));
                self.in_flight += 1;
            }
        }

        // Deliver this round's responses, in ring order.
        let due = std::mem::take(&mut self.resp_ring[slot]);
        self.in_flight -= due.len() as u64;
        for &(from, to, value) in &due {
            if self.is_down(to as usize, round) {
                metrics.link_dropped += 1;
                continue;
            }
            responses[to as usize].push((from, value));
            metrics.delivered += 1;
        }
        metrics.in_flight = self.in_flight;
        (metrics, responses)
    }
}

/// A random scenario: latency 0–3 (zero half the time, mixed ranges such
/// as 0–2 included), and each of drops, a partition window, churn and
/// Byzantine responders switched on about half the time, with windows
/// inside the rounds a case runs.
fn random_spec(draw: &mut Xoshiro256pp, n: usize) -> ScenarioSpec {
    let mut coin = || draw.next_u64() & 1 == 1;
    let (lat, drop, part, churn, byz) = (coin(), coin(), coin(), coin(), coin());
    let mut spec = ScenarioSpec::clean();
    if lat {
        let max = 1 + gen_index(draw, 3) as u16;
        spec = spec.with_latency(gen_index(draw, max as u64 + 1) as u16, max);
    }
    if drop {
        let per_mille = [1, 50, 300, 1000][gen_index(draw, 4) as usize];
        spec = spec.with_drop_per_mille(per_mille);
    }
    if part {
        let from = gen_index(draw, 8) as u32;
        let heal = from + gen_index(draw, 6) as u32;
        spec = spec.with_partition(gen_index(draw, 1001) as u16, from, heal);
    }
    if churn {
        let count = gen_index(draw, n as u64 + 1) as u32;
        let from = gen_index(draw, 8) as u32;
        let until = from + gen_index(draw, 6) as u32;
        let rejoin = if draw.next_u64() & 1 == 1 {
            Rejoin::Adversarial
        } else {
            Rejoin::PreCrash
        };
        spec = spec.with_churn(count, from, until, rejoin);
    }
    if byz {
        spec = spec.with_byzantine(1 + gen_index(draw, n as u64 / 4 + 1) as u32);
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn route_round_equals_queue_router(
        seed in any::<u64>(),
        n in 1usize..600,
        k in 1usize..=3,
        cap in 1usize..=8,
        which in 0usize..3,
    ) {
        // Same spec, seed, targets, values, drop policy and policy
        // randomness on both sides, over 12 rounds so delayed legs cross
        // rounds and every window opens and closes.
        let mut draw = Xoshiro256pp::seed(seed);
        let spec = random_spec(&mut draw, n);
        let cfg = RoundConfig { inbox_cap: cap, self_bypass: draw.next_u64() & 3 != 0 };
        let policy = || -> Box<dyn DropPolicy> {
            match which {
                0 => Box::new(RandomDrop),
                1 => Box::new(KeepFirst),
                _ => Box::new(StarveSet::first_k(n, n / 3)),
            }
        };
        let (mut pa, mut pb) = (policy(), policy());
        let mut oracle = QueueRouter::new(n, spec, seed);
        let mut scen: NetScenario<u32> = NetScenario::new(n, spec, seed);
        let mut rng_a = Xoshiro256pp::seed(seed ^ 1);
        let mut rng_b = Xoshiro256pp::seed(seed ^ 1);
        let mut resp_b = Responses::new();
        for round in 0..12u64 {
            let targets: Vec<ProcessId> = (0..n * k)
                .map(|_| gen_index(&mut draw, n as u64) as ProcessId)
                .collect();
            let values: Vec<u32> = (0..n).map(|_| gen_index(&mut draw, 1000) as u32).collect();
            let forge = if scen.wants_forge_value(round) {
                values.iter().min().copied()
            } else {
                None
            };
            let (ma, resp_a) = oracle.route_round(
                round, &values, &targets, k, &cfg, pa.as_mut(), &mut rng_a, forge,
            );
            let mb = scen.route_round(
                round, &values, &targets, k, &cfg, pb.as_mut(), &mut rng_b, &mut resp_b, forge,
            );
            prop_assert_eq!(ma, mb, "round {} metrics under {}", round, spec.label());
            prop_assert_eq!(resp_a.len(), resp_b.len());
            for (i, row) in resp_a.iter().enumerate() {
                prop_assert_eq!(row.as_slice(), resp_b.get(i), "round {} process {} under {}", round, i, spec.label());
            }
            prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "round {} rng", round);
        }
    }
}
