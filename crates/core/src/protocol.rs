//! Update rules: the median rule and every baseline the paper discusses.
//!
//! A [`Protocol`] answers two questions: how many peers does a ball sample
//! per round, and how does it combine its own value with the sampled ones.
//! Samples are uniform over **all** processes including the sampler itself
//! (§1.2: "picks two processes j and k uniformly and independently at
//! random among all processes (including itself)").
//!
//! | rule | samples | combine | paper role |
//! |------|---------|---------|------------|
//! | [`MedianRule`] | 2 | `median(own, a, b)` | the contribution (§1.2) |
//! | [`MinRule`] | 1 | `min(own, a)` | §1.1 counterexample baseline |
//! | [`MaxRule`] | 1 | `max(own, a)` | symmetric baseline |
//! | [`MeanRule`] | 2 | rounded mean | §1.2 comparison (\[17\]) — violates validity |
//! | [`MajorityRule`] | 2 | adopt if `a == b` | 3-majority dynamics; equals median on 2 values |
//! | [`VoterRule`] | 1 | adopt `a` | single-choice baseline |
//! | [`KMedianRule`] | k | median of own + k samples | "power of k choices" ablation |

use crate::value::{median3, median_small, Value};

/// Maximum samples per round any protocol may request (scratch buffers in
/// the engines are sized to this).
pub const MAX_SAMPLES: usize = 8;

/// An anonymous gossip update rule.
pub trait Protocol: Send + Sync {
    /// Number of uniform peer samples consumed per ball per round.
    fn samples(&self) -> usize;

    /// Combine the ball's own value with the sampled values
    /// (`sampled.len() == self.samples()`).
    fn combine(&self, own: Value, sampled: &[Value]) -> Value;

    /// Short identifier for tables.
    fn name(&self) -> &'static str;

    /// Whether the rule can only ever output values it has seen
    /// (validity-preserving). The mean rule is the one `false` here.
    fn validity_preserving(&self) -> bool {
        true
    }
}

/// The paper's median rule: `v ← median(v, v_j, v_k)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MedianRule;

impl Protocol for MedianRule {
    fn samples(&self) -> usize {
        2
    }
    #[inline]
    fn combine(&self, own: Value, sampled: &[Value]) -> Value {
        median3(own, sampled[0], sampled[1])
    }
    fn name(&self) -> &'static str {
        "median"
    }
}

/// The minimum rule: `v ← min(v, v_j)` (§1.1; the adversary's favourite
/// victim).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinRule;

impl Protocol for MinRule {
    fn samples(&self) -> usize {
        1
    }
    #[inline]
    fn combine(&self, own: Value, sampled: &[Value]) -> Value {
        own.min(sampled[0])
    }
    fn name(&self) -> &'static str {
        "min"
    }
}

/// The maximum rule (mirror image of the minimum rule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxRule;

impl Protocol for MaxRule {
    fn samples(&self) -> usize {
        1
    }
    #[inline]
    fn combine(&self, own: Value, sampled: &[Value]) -> Value {
        own.max(sampled[0])
    }
    fn name(&self) -> &'static str {
        "max"
    }
}

/// The mean rule of Dolev et al. \[17\] adapted to two samples: the rounded
/// mean of the three values. Converges towards a single number but **does
/// not solve consensus** — the limit need not be one of the initial values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeanRule;

impl Protocol for MeanRule {
    fn samples(&self) -> usize {
        2
    }
    #[inline]
    fn combine(&self, own: Value, sampled: &[Value]) -> Value {
        // Round-to-nearest of the exact rational mean.
        let sum = own as u64 + sampled[0] as u64 + sampled[1] as u64;
        ((sum + 1) / 3) as Value
    }
    fn name(&self) -> &'static str {
        "mean"
    }
    fn validity_preserving(&self) -> bool {
        false
    }
}

/// 3-majority: adopt the sampled value if both samples agree, else keep your
/// own. Coincides with the median rule when only two values exist; differs
/// on three or more.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MajorityRule;

impl Protocol for MajorityRule {
    fn samples(&self) -> usize {
        2
    }
    #[inline]
    fn combine(&self, own: Value, sampled: &[Value]) -> Value {
        if sampled[0] == sampled[1] {
            sampled[0]
        } else {
            own
        }
    }
    fn name(&self) -> &'static str {
        "3-majority"
    }
}

/// Voter model: adopt a single uniformly sampled value (the deterministic
/// single-choice baseline; Θ(n) expected convergence).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoterRule;

impl Protocol for VoterRule {
    fn samples(&self) -> usize {
        1
    }
    #[inline]
    fn combine(&self, _own: Value, sampled: &[Value]) -> Value {
        sampled[0]
    }
    fn name(&self) -> &'static str {
        "voter"
    }
}

/// k-sample median: median of own value plus `k` samples ("power of k
/// choices" ablation; `k = 2` is the paper's rule).
///
/// Parity caveat: **even `k`** gives an odd multiset and an unbiased median;
/// **odd `k`** gives an even multiset whose lower-middle is biased toward
/// smaller values (`k = 1` degenerates to the minimum rule). Comparisons of
/// the "power of k" should therefore use even `k` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMedianRule {
    k: usize,
}

impl KMedianRule {
    /// Create the k-sample variant.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ MAX_SAMPLES`.
    pub fn new(k: usize) -> Self {
        assert!((1..=MAX_SAMPLES).contains(&k), "KMedianRule: k = {k}");
        Self { k }
    }
}

impl Protocol for KMedianRule {
    fn samples(&self) -> usize {
        self.k
    }
    #[inline]
    fn combine(&self, own: Value, sampled: &[Value]) -> Value {
        let mut buf = [0 as Value; MAX_SAMPLES + 1];
        buf[0] = own;
        buf[1..=self.k].copy_from_slice(&sampled[..self.k]);
        median_small(&mut buf[..=self.k])
    }
    fn name(&self) -> &'static str {
        "k-median"
    }
}

/// Serializable protocol selector for [`crate::runner::SimSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// The paper's median rule.
    Median,
    /// Minimum rule.
    Min,
    /// Maximum rule.
    Max,
    /// Rounded-mean rule.
    Mean,
    /// 3-majority rule.
    Majority,
    /// Voter model.
    Voter,
    /// Median of own + k samples.
    KMedian(usize),
}

impl ProtocolSpec {
    /// Whether this rule is the median rule *in law*: the 2-sample median,
    /// whose destination distribution depends only on bin loads. These are
    /// the specs the adaptive engine may hand off to the histogram engine.
    pub fn is_median_law(&self) -> bool {
        matches!(self, ProtocolSpec::Median | ProtocolSpec::KMedian(2))
    }

    /// Instantiate the protocol object.
    pub fn build(&self) -> Box<dyn Protocol> {
        match *self {
            ProtocolSpec::Median => Box::new(MedianRule),
            ProtocolSpec::Min => Box::new(MinRule),
            ProtocolSpec::Max => Box::new(MaxRule),
            ProtocolSpec::Mean => Box::new(MeanRule),
            ProtocolSpec::Majority => Box::new(MajorityRule),
            ProtocolSpec::Voter => Box::new(VoterRule),
            ProtocolSpec::KMedian(k) => Box::new(KMedianRule::new(k)),
        }
    }

    /// Table label.
    pub fn label(&self) -> String {
        match *self {
            ProtocolSpec::KMedian(k) => format!("median-k{k}"),
            other => other.build().name().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_rule_identities() {
        let p = MedianRule;
        assert_eq!(p.samples(), 2);
        assert_eq!(p.combine(10, &[12, 100]), 12);
        assert_eq!(p.combine(5, &[5, 5]), 5);
        // Median never invents values.
        assert!(p.validity_preserving());
    }

    #[test]
    fn min_max_rules() {
        assert_eq!(MinRule.combine(5, &[3]), 3);
        assert_eq!(MinRule.combine(2, &[3]), 2);
        assert_eq!(MaxRule.combine(5, &[3]), 5);
        assert_eq!(MaxRule.combine(2, &[3]), 3);
    }

    #[test]
    fn mean_rule_rounds_and_invents() {
        let p = MeanRule;
        assert_eq!(p.combine(0, &[0, 3]), 1);
        assert_eq!(p.combine(0, &[0, 2]), 1); // exact 2/3 rounds up to 1
        assert_eq!(p.combine(10, &[10, 10]), 10);
        assert!(!p.validity_preserving());
        // Value 1 from inputs {0, 3}: not an input value.
        assert_eq!(p.combine(0, &[3, 0]), 1);
    }

    #[test]
    fn mean_rule_no_overflow() {
        let p = MeanRule;
        let m = u32::MAX;
        assert_eq!(p.combine(m, &[m, m]), m);
    }

    #[test]
    fn majority_rule() {
        let p = MajorityRule;
        assert_eq!(p.combine(1, &[2, 2]), 2);
        assert_eq!(p.combine(1, &[2, 3]), 1);
        assert_eq!(p.combine(1, &[1, 1]), 1);
    }

    #[test]
    fn majority_equals_median_on_two_values() {
        // With value domain {0, 1}, the two rules agree everywhere.
        for own in [0u32, 1] {
            for a in [0u32, 1] {
                for b in [0u32, 1] {
                    assert_eq!(
                        MajorityRule.combine(own, &[a, b]),
                        MedianRule.combine(own, &[a, b]),
                        "own={own} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn voter_adopts() {
        assert_eq!(VoterRule.combine(9, &[4]), 4);
    }

    #[test]
    fn k_median_matches_median3_at_k2() {
        let p = KMedianRule::new(2);
        for own in 0..4u32 {
            for a in 0..4 {
                for b in 0..4 {
                    assert_eq!(p.combine(own, &[a, b]), MedianRule.combine(own, &[a, b]));
                }
            }
        }
    }

    #[test]
    fn k_median_higher_k() {
        let p = KMedianRule::new(4);
        assert_eq!(p.samples(), 4);
        // own=5, samples 1,2,8,9 → sorted 1,2,5,8,9 → median 5.
        assert_eq!(p.combine(5, &[1, 2, 8, 9]), 5);
        // own=0, samples 7,7,7,1 → sorted 0,1,7,7,7 → median 7.
        assert_eq!(p.combine(0, &[7, 7, 7, 1]), 7);
    }

    #[test]
    #[should_panic]
    fn k_median_rejects_zero() {
        KMedianRule::new(0);
    }

    #[test]
    fn spec_builds_everything() {
        let specs = [
            ProtocolSpec::Median,
            ProtocolSpec::Min,
            ProtocolSpec::Max,
            ProtocolSpec::Mean,
            ProtocolSpec::Majority,
            ProtocolSpec::Voter,
            ProtocolSpec::KMedian(3),
        ];
        for spec in specs {
            let p = spec.build();
            assert!(p.samples() >= 1 && p.samples() <= MAX_SAMPLES);
            assert!(!spec.label().is_empty());
        }
    }
}
