//! The synchronous round executor: requests → inbox capping → responses.

use std::fmt;

use rand::RngCore;

use crate::policy::DropPolicy;
use crate::ProcessId;

/// Static per-round network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundConfig {
    /// Maximum number of requests a process answers per round (the paper's
    /// "logarithmic number"). Use [`log_inbox_cap`] for the canonical value.
    pub inbox_cap: usize,
    /// Whether a request to oneself is answered locally without consuming
    /// network capacity (the median rule's self-sample needs no message).
    pub self_bypass: bool,
}

impl RoundConfig {
    /// Canonical config for an `n`-process network: cap `c·⌈log₂ n⌉`,
    /// self-samples bypass the network.
    pub fn logarithmic(n: usize, c: usize) -> Self {
        Self {
            inbox_cap: log_inbox_cap(n, c),
            self_bypass: true,
        }
    }
}

/// The canonical logarithmic inbox cap `max(1, c·⌈log₂ n⌉)`.
pub fn log_inbox_cap(n: usize, c: usize) -> usize {
    let log = usize::BITS - n.max(2).next_power_of_two().leading_zeros() - 1;
    (c * log as usize).max(1)
}

/// Delivery statistics for one round.
///
/// The baseline [`run_round`] path fills the first six fields; the
/// fault-injection fields added with [`crate::scenario::NetScenario`] —
/// `link_dropped`, `partition_dropped`, `forged`, and `in_flight` — are
/// only nonzero under a scenario's routed path. All fields are additive
/// under [`RoundMetrics::absorb`] except `max_inbox` and `in_flight`,
/// which absorb as peaks. Campaign telemetry folds an experiment's totals
/// into its registry in exactly one place,
/// `stabcon_exp::aggregate::fold_net_totals`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundMetrics {
    /// Requests entering the network (excludes self-bypassed ones).
    pub requests: u64,
    /// Requests answered locally (self-samples with `self_bypass`).
    pub self_requests: u64,
    /// Responses delivered.
    pub delivered: u64,
    /// Requests dropped by overloaded inboxes.
    pub dropped: u64,
    /// Largest inbox observed this round.
    pub max_inbox: usize,
    /// Number of processes whose inbox exceeded the cap.
    pub overloaded: u64,
    /// Message legs lost on the link itself (scenario drop rate or a crashed
    /// endpoint), independent of inbox overflow. Always 0 in [`run_round`].
    pub link_dropped: u64,
    /// Message legs lost to an active partition cut. Always 0 in
    /// [`run_round`].
    pub partition_dropped: u64,
    /// Responses whose value was forged by a Byzantine responder. Always 0
    /// in [`run_round`].
    pub forged: u64,
    /// Messages still queued in the scenario's delay rings at the end of the
    /// round. Always 0 in [`run_round`].
    pub in_flight: u64,
}

impl RoundMetrics {
    /// Accumulate another round's metrics (for experiment totals).
    pub fn absorb(&mut self, other: &RoundMetrics) {
        self.requests += other.requests;
        self.self_requests += other.self_requests;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.max_inbox = self.max_inbox.max(other.max_inbox);
        self.overloaded += other.overloaded;
        self.link_dropped += other.link_dropped;
        self.partition_dropped += other.partition_dropped;
        self.forged += other.forged;
        // Peak, not sum: "how deep did the delay queue get".
        self.in_flight = self.in_flight.max(other.in_flight);
    }
}

/// One round's responses for every process, in one flat table.
///
/// Row `i` holds the `(responder, value)` pairs process `i` received this
/// round, in delivery order; [`Responses::get`] returns it as a slice.
/// [`run_round`] and [`NetScenario::route_round`](crate::NetScenario::route_round)
/// size and refill the table each round, so a table reused across rounds
/// and trials allocates only when it must grow.
#[derive(Clone, Default)]
pub struct Responses<V> {
    /// Room per row.
    width: usize,
    /// Filled length of each row.
    counts: Vec<u32>,
    /// Row `i` is `slots[i·width..(i + 1)·width]`.
    slots: Vec<(ProcessId, V)>,
}

impl<V: Copy + Default> Responses<V> {
    /// An empty table; the first round sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows (processes) in the last round.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Process `i`'s responses, in delivery order.
    pub fn get(&self, i: usize) -> &[(ProcessId, V)] {
        let start = i * self.width;
        &self.slots[start..start + self.counts[i] as usize]
    }

    /// Every row, in process order.
    pub fn iter(&self) -> impl Iterator<Item = &[(ProcessId, V)]> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Empty every row and make room for `width` responses in each of `n`.
    pub(crate) fn reset(&mut self, n: usize, width: usize) {
        self.width = width;
        self.counts.clear();
        self.counts.resize(n, 0);
        self.slots.resize(n * width, (0, V::default()));
    }

    /// Append `response` to row `i`.
    ///
    /// # Panics
    /// Panics if the row is full.
    #[inline]
    pub(crate) fn push(&mut self, i: usize, response: (ProcessId, V)) {
        let len = self.counts[i] as usize;
        assert!(len < self.width, "response row {i} is full");
        self.slots[i * self.width + len] = response;
        self.counts[i] += 1;
    }

    /// Size the table for `n` rows of `width` and hand out each row with
    /// its length, for the caller to fill and set.
    pub(crate) fn rows_mut(
        &mut self,
        n: usize,
        width: usize,
    ) -> impl Iterator<Item = (&mut [(ProcessId, V)], &mut u32)> {
        self.width = width;
        self.counts.resize(n, 0);
        self.slots.resize(n * width, (0, V::default()));
        self.slots.chunks_exact_mut(width).zip(&mut self.counts)
    }
}

impl<V: Copy + Default + PartialEq> PartialEq for Responses<V> {
    /// Row by row; room past a row's end does not count.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<V: Copy + Default + fmt::Debug> fmt::Debug for Responses<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Execute one synchronous request/response round.
///
/// * `values[i]` — the value process `i` would report this round;
/// * `targets` — flattened sample targets, `k` consecutive entries per
///   process (`targets.len() == k·n`); entry `targets[i·k + j]` is the j-th
///   process that requester `i` contacts;
/// * `policy` — drop selection for overloaded inboxes;
/// * `responses` row `i` receives `(responder, value)` pairs for every
///   answered request of process `i`: self-answers first, then by
///   responder id.
///
/// Returns per-round delivery metrics.
///
/// # Panics
/// Panics if the shapes disagree (`targets.len() != values.len()·k`) or a
/// target id is out of range.
pub fn run_round<V, P, R>(
    values: &[V],
    targets: &[ProcessId],
    k: usize,
    cfg: &RoundConfig,
    policy: &mut P,
    rng: &mut R,
    responses: &mut Responses<V>,
) -> RoundMetrics
where
    V: Copy + Default,
    P: DropPolicy + ?Sized,
    R: RngCore,
{
    let n = values.len();
    assert_eq!(targets.len(), n * k, "targets shape mismatch");

    let mut metrics = RoundMetrics::default();
    responses.reset(n, k);

    // Phase 1: route requests into inboxes.
    let mut inbox: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
    for (i, window) in targets.chunks_exact(k).enumerate() {
        for &t in window {
            let t_us = t as usize;
            assert!(t_us < n, "target {t} out of range (n = {n})");
            if cfg.self_bypass && t_us == i {
                // Answer locally: deliver own value without network traffic.
                responses.push(i, (t, values[t_us]));
                metrics.self_requests += 1;
            } else {
                inbox[t_us].push(i as ProcessId);
                metrics.requests += 1;
            }
        }
    }

    // Phase 2: cap overloaded inboxes via the drop policy.
    for (t, requesters) in inbox.iter_mut().enumerate() {
        metrics.max_inbox = metrics.max_inbox.max(requesters.len());
        if requesters.len() > cfg.inbox_cap {
            metrics.overloaded += 1;
            let before = requesters.len();
            policy.select(t as ProcessId, requesters, cfg.inbox_cap, rng);
            assert!(
                requesters.len() <= cfg.inbox_cap,
                "drop policy exceeded the cap"
            );
            metrics.dropped += (before - requesters.len()) as u64;
        }
    }

    // Phase 3: deliver responses.
    for (t, requesters) in inbox.iter().enumerate() {
        let value = values[t];
        for &requester in requesters {
            responses.push(requester as usize, (t as ProcessId, value));
            metrics.delivered += 1;
        }
    }

    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{KeepFirst, RandomDrop};
    use stabcon_util::rng::Xoshiro256pp;

    #[test]
    fn log_cap_values() {
        assert_eq!(log_inbox_cap(2, 1), 1);
        assert_eq!(log_inbox_cap(1024, 1), 10);
        assert_eq!(log_inbox_cap(1024, 3), 30);
        assert_eq!(log_inbox_cap(1025, 1), 11); // next power of two is 2048
        assert!(log_inbox_cap(1, 1) >= 1);
    }

    #[test]
    fn all_delivered_when_under_cap() {
        let values: Vec<u32> = vec![10, 20, 30, 40];
        // Everyone asks process 0 and process 1 once: inboxes ≤ 4 ≤ cap.
        let targets: Vec<ProcessId> = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let cfg = RoundConfig {
            inbox_cap: 8,
            self_bypass: true,
        };
        let mut rng = Xoshiro256pp::seed(1);
        let mut responses = Responses::new();
        let m = run_round(
            &values,
            &targets,
            2,
            &cfg,
            &mut KeepFirst,
            &mut rng,
            &mut responses,
        );
        assert_eq!(m.dropped, 0);
        // Process 0's request to 0 and process 1's request to 1 bypass.
        assert_eq!(m.self_requests, 2);
        assert_eq!(m.delivered + m.self_requests, 8);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.len(), 2, "process {i} got {resp:?}");
            assert_eq!(resp[0].1 % 10, 0);
        }
    }

    #[test]
    fn overloaded_inbox_drops_to_cap() {
        let n = 64usize;
        let values: Vec<u32> = (0..n as u32).collect();
        // Everyone sends both requests to process 0.
        let targets: Vec<ProcessId> = vec![0; n * 2];
        let cfg = RoundConfig {
            inbox_cap: 5,
            self_bypass: false,
        };
        let mut rng = Xoshiro256pp::seed(2);
        let mut responses = Responses::new();
        let m = run_round(
            &values,
            &targets,
            2,
            &cfg,
            &mut RandomDrop,
            &mut rng,
            &mut responses,
        );
        assert_eq!(m.requests, (n * 2) as u64);
        assert_eq!(m.delivered, 5);
        assert_eq!(m.dropped, (n * 2 - 5) as u64);
        assert_eq!(m.overloaded, 1);
        assert_eq!(m.max_inbox, n * 2);
        let got: usize = responses.iter().map(|r| r.len()).sum();
        assert_eq!(got, 5);
    }

    #[test]
    fn self_bypass_off_routes_self_requests() {
        let values: Vec<u32> = vec![7, 8];
        let targets: Vec<ProcessId> = vec![0, 0, 1, 1]; // everyone asks self twice
        let cfg = RoundConfig {
            inbox_cap: 10,
            self_bypass: false,
        };
        let mut rng = Xoshiro256pp::seed(3);
        let mut responses = Responses::new();
        let m = run_round(
            &values,
            &targets,
            2,
            &cfg,
            &mut KeepFirst,
            &mut rng,
            &mut responses,
        );
        assert_eq!(m.self_requests, 0);
        assert_eq!(m.requests, 4);
        assert_eq!(responses.get(0), [(0, 7), (0, 7)]);
    }

    #[test]
    fn responses_carry_correct_values() {
        let values: Vec<u32> = vec![100, 200, 300];
        let targets: Vec<ProcessId> = vec![1, 2, 2, 0, 0, 1];
        let cfg = RoundConfig {
            inbox_cap: 10,
            self_bypass: true,
        };
        let mut rng = Xoshiro256pp::seed(4);
        let mut responses = Responses::new();
        run_round(
            &values,
            &targets,
            2,
            &cfg,
            &mut KeepFirst,
            &mut rng,
            &mut responses,
        );
        let mut r0 = responses.get(0).to_vec();
        r0.sort_unstable();
        assert_eq!(r0, vec![(1, 200), (2, 300)]);
    }

    #[test]
    fn metrics_absorb_accumulates() {
        let mut a = RoundMetrics {
            requests: 10,
            self_requests: 1,
            delivered: 8,
            dropped: 2,
            max_inbox: 4,
            overloaded: 1,
            link_dropped: 3,
            partition_dropped: 1,
            forged: 2,
            in_flight: 6,
        };
        let b = RoundMetrics {
            requests: 5,
            self_requests: 0,
            delivered: 5,
            dropped: 0,
            max_inbox: 9,
            overloaded: 0,
            link_dropped: 1,
            partition_dropped: 4,
            forged: 0,
            in_flight: 2,
        };
        a.absorb(&b);
        assert_eq!(a.requests, 15);
        assert_eq!(a.delivered, 13);
        assert_eq!(a.max_inbox, 9);
        assert_eq!(a.link_dropped, 4);
        assert_eq!(a.partition_dropped, 5);
        assert_eq!(a.forged, 2);
        // in_flight tracks the peak queue depth, not a sum.
        assert_eq!(a.in_flight, 6);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let values: Vec<u32> = vec![1, 2];
        let targets: Vec<ProcessId> = vec![0, 1, 0]; // not 2·k
        let cfg = RoundConfig {
            inbox_cap: 1,
            self_bypass: true,
        };
        let mut rng = Xoshiro256pp::seed(5);
        let mut responses = Responses::new();
        run_round(
            &values,
            &targets,
            2,
            &cfg,
            &mut KeepFirst,
            &mut rng,
            &mut responses,
        );
    }
}
