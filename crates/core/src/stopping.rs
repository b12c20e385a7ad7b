//! Consensus and almost-stable-consensus detection.
//!
//! The paper's *almost stable consensus*: there is a round `r` and value `v`
//! such that **at every round after r**, all but `O(T)` processes hold `v`.
//! Empirically we detect: a value `v` whose disagreement stays at or below a
//! threshold for `window` consecutive observations. Stable (full) consensus
//! is the threshold-0 special case.

use crate::value::Value;

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilityConfig {
    /// Maximum disagreement tolerated ("O(T)"; 0 ⇒ require full consensus).
    pub disagreement_threshold: u64,
    /// Consecutive in-threshold observations required to declare stability.
    pub window: u64,
}

/// Online detector fed one observation per round.
#[derive(Debug, Clone)]
pub struct StabilityTracker {
    cfg: StabilityConfig,
    candidate: Option<Value>,
    window_start: u64,
    in_window: u64,
    stable_hit: Option<(u64, Value)>,
    consensus_hit: Option<u64>,
}

impl StabilityTracker {
    /// Fresh tracker.
    pub fn new(cfg: StabilityConfig) -> Self {
        Self {
            cfg,
            candidate: None,
            window_start: 0,
            in_window: 0,
            stable_hit: None,
            consensus_hit: None,
        }
    }

    /// Feed the state observed at `round`: the plurality value, its count,
    /// and the population size. Returns `true` once stability has been
    /// established (keeps returning `true` afterwards).
    pub fn observe(&mut self, round: u64, plurality: Value, count: u64, n: u64) -> bool {
        let disagreement = n - count;
        if disagreement == 0 && self.consensus_hit.is_none() {
            self.consensus_hit = Some(round);
        }
        if self.stable_hit.is_some() {
            return true;
        }
        if disagreement <= self.cfg.disagreement_threshold {
            if self.candidate == Some(plurality) {
                self.in_window += 1;
            } else {
                self.candidate = Some(plurality);
                self.window_start = round;
                self.in_window = 1;
            }
            if self.in_window >= self.cfg.window {
                self.stable_hit = Some((self.window_start, plurality));
                return true;
            }
        } else {
            self.candidate = None;
            self.in_window = 0;
        }
        false
    }

    /// Feed a round whose disagreement is known to exceed the threshold
    /// (for instance from its support alone) without observing it: the same
    /// as [`StabilityTracker::observe`] with any out-of-threshold count.
    /// Such a round cannot be full consensus, so only the window resets.
    pub fn observe_out_of_threshold(&mut self) -> bool {
        if self.stable_hit.is_some() {
            return true;
        }
        self.candidate = None;
        self.in_window = 0;
        false
    }

    /// First round at which the sustained almost-stable window began, with
    /// the winning value.
    pub fn stable_hit(&self) -> Option<(u64, Value)> {
        self.stable_hit
    }

    /// First round with full consensus (support size 1), if seen.
    pub fn consensus_hit(&self) -> Option<u64> {
        self.consensus_hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(thresh: u64, window: u64) -> StabilityConfig {
        StabilityConfig {
            disagreement_threshold: thresh,
            window,
        }
    }

    #[test]
    fn consensus_detected_immediately_with_zero_threshold() {
        let mut t = StabilityTracker::new(cfg(0, 1));
        assert!(t.observe(3, 7, 100, 100));
        assert_eq!(t.stable_hit(), Some((3, 7)));
        assert_eq!(t.consensus_hit(), Some(3));
    }

    #[test]
    fn window_must_be_sustained() {
        let mut t = StabilityTracker::new(cfg(2, 3));
        assert!(!t.observe(0, 5, 99, 100)); // in threshold, window 1
        assert!(!t.observe(1, 5, 98, 100)); // window 2
        assert!(t.observe(2, 5, 99, 100)); // window 3 → stable from round 0
        assert_eq!(t.stable_hit(), Some((0, 5)));
    }

    #[test]
    fn window_resets_on_violation() {
        let mut t = StabilityTracker::new(cfg(2, 2));
        assert!(!t.observe(0, 5, 99, 100));
        assert!(!t.observe(1, 5, 90, 100)); // disagreement 10 > 2: reset
        assert!(!t.observe(2, 5, 99, 100));
        assert!(t.observe(3, 5, 100, 100));
        assert_eq!(t.stable_hit(), Some((2, 5)));
    }

    #[test]
    fn window_resets_on_candidate_change() {
        let mut t = StabilityTracker::new(cfg(5, 2));
        assert!(!t.observe(0, 5, 97, 100));
        assert!(!t.observe(1, 9, 98, 100)); // different plurality: restart
        assert!(t.observe(2, 9, 98, 100));
        assert_eq!(t.stable_hit(), Some((1, 9)));
    }

    #[test]
    fn consensus_recorded_even_with_large_threshold() {
        let mut t = StabilityTracker::new(cfg(50, 100));
        t.observe(0, 1, 100, 100);
        assert_eq!(t.consensus_hit(), Some(0));
        assert_eq!(t.stable_hit(), None, "window not yet complete");
    }

    #[test]
    fn out_of_threshold_round_resets_the_window_like_a_wide_observation() {
        let mut skipped = StabilityTracker::new(cfg(2, 2));
        let mut observed = skipped.clone();
        for t in [&mut skipped, &mut observed] {
            assert!(!t.observe(0, 5, 99, 100));
        }
        assert!(!skipped.observe_out_of_threshold());
        assert!(!observed.observe(1, 5, 90, 100));
        for t in [&mut skipped, &mut observed] {
            assert!(!t.observe(2, 5, 99, 100));
            assert!(t.observe(3, 5, 100, 100));
            assert_eq!(t.stable_hit(), Some((2, 5)));
            assert_eq!(t.consensus_hit(), Some(3));
        }
        assert!(skipped.observe_out_of_threshold(), "stays true after a hit");
    }

    #[test]
    fn stays_true_after_hit() {
        let mut t = StabilityTracker::new(cfg(0, 1));
        assert!(t.observe(0, 2, 10, 10));
        // Later violations do not un-declare the recorded hit.
        assert!(t.observe(1, 2, 3, 10));
        assert_eq!(t.stable_hit(), Some((0, 2)));
    }
}
