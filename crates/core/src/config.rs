//! Dense balls-into-bins configurations and their observables.
//!
//! A [`Config`] stores the value of every ball. The analysis-side
//! observables mirror the quantities in the paper: support size, plurality
//! (the candidate consensus value), the median ball `m_t` (§2.1), and the
//! two-bin imbalances `Δ_t` and `Ψ_t` (§3).

use std::collections::BTreeMap;

use crate::value::Value;

/// A configuration: the current value of each of the `n` balls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    values: Vec<Value>,
}

impl Config {
    /// Wrap a value vector.
    ///
    /// # Panics
    /// Panics if empty.
    pub fn new(values: Vec<Value>) -> Self {
        assert!(!values.is_empty(), "Config: empty");
        Self { values }
    }

    /// Number of balls.
    #[inline]
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// Read-only view of all ball values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Bin loads, ascending by value.
    pub fn counts(&self) -> Vec<(Value, u64)> {
        let mut map: BTreeMap<Value, u64> = BTreeMap::new();
        for &v in &self.values {
            *map.entry(v).or_insert(0) += 1;
        }
        map.into_iter().collect()
    }

    /// Number of distinct values present.
    pub fn support_size(&self) -> usize {
        self.counts().len()
    }

    /// `Some(v)` iff every ball holds `v` (stable consensus reached).
    pub fn consensus_value(&self) -> Option<Value> {
        let first = self.values[0];
        self.values.iter().all(|&v| v == first).then_some(first)
    }

    /// The most loaded bin `(value, count)`; ties broken toward the smaller
    /// value (deterministic reporting).
    pub fn plurality(&self) -> (Value, u64) {
        self.counts()
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("nonempty config")
    }

    /// Number of balls **not** holding `v`.
    pub fn disagreement_with(&self, v: Value) -> u64 {
        self.values.iter().filter(|&&x| x != v).count() as u64
    }

    /// The paper's median bin `m_t` (§2.1): the value of the ⌈n/2⌉-th
    /// smallest ball, computed in `O(m)` from the counts.
    pub fn median_value(&self) -> Value {
        let n = self.values.len() as u64;
        let target = n.div_ceil(2);
        let mut acc = 0u64;
        for (v, c) in self.counts() {
            acc += c;
            if acc >= target {
                return v;
            }
        }
        unreachable!("counts must cover all balls")
    }

    /// Two-bin imbalance `Δ_t = (Y_t − X_t)/2` where `X, Y` are the smaller/
    /// larger loads of the **two most loaded** bins (exact match to §3 when
    /// only two bins are non-empty; a useful progress measure otherwise).
    pub fn imbalance(&self) -> f64 {
        let mut counts: Vec<u64> = self.counts().into_iter().map(|(_, c)| c).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top = counts.first().copied().unwrap_or(0);
        let second = counts.get(1).copied().unwrap_or(0);
        (top as f64 - second as f64) / 2.0
    }

    /// Labelled two-bin imbalance `Ψ_t = (R_t − L_t)/2` for configurations
    /// with support ≤ 2 (right = larger value). `None` if support > 2.
    pub fn labelled_imbalance(&self) -> Option<f64> {
        let counts = self.counts();
        match counts.as_slice() {
            [(_, _)] => Some(self.n() as f64 / 2.0),
            [(_, l), (_, r)] => Some((*r as f64 - *l as f64) / 2.0),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_support() {
        let c = Config::new(vec![3, 1, 3, 3, 2, 1]);
        assert_eq!(c.counts(), vec![(1, 2), (2, 1), (3, 3)]);
        assert_eq!(c.support_size(), 3);
        assert_eq!(c.n(), 6);
    }

    #[test]
    fn consensus_detection() {
        assert_eq!(Config::new(vec![4, 4, 4]).consensus_value(), Some(4));
        assert_eq!(Config::new(vec![4, 4, 5]).consensus_value(), None);
        assert_eq!(Config::new(vec![9]).consensus_value(), Some(9));
    }

    #[test]
    fn plurality_and_disagreement() {
        let c = Config::new(vec![1, 2, 2, 3, 2, 1]);
        assert_eq!(c.plurality(), (2, 3));
        assert_eq!(c.disagreement_with(2), 3);
        assert_eq!(c.disagreement_with(7), 6);
    }

    #[test]
    fn plurality_tie_breaks_to_smaller_value() {
        let c = Config::new(vec![5, 5, 9, 9]);
        assert_eq!(c.plurality(), (5, 2));
    }

    #[test]
    fn median_value_odd_even() {
        // 5 balls: median is the 3rd smallest.
        assert_eq!(Config::new(vec![1, 2, 3, 4, 5]).median_value(), 3);
        // 6 balls: ⌈6/2⌉ = 3rd smallest.
        assert_eq!(Config::new(vec![1, 1, 2, 9, 9, 9]).median_value(), 2);
        // Heavily skewed.
        assert_eq!(Config::new(vec![7, 7, 7, 7, 100]).median_value(), 7);
    }

    #[test]
    fn imbalance_two_bins() {
        let c = Config::new(vec![0, 0, 0, 1]); // loads 3 and 1
        assert_eq!(c.imbalance(), 1.0);
        assert_eq!(c.labelled_imbalance(), Some(-1.0)); // right bin smaller
        let d = Config::new(vec![0, 1, 1, 1]);
        assert_eq!(d.labelled_imbalance(), Some(1.0));
    }

    #[test]
    fn imbalance_single_bin() {
        let c = Config::new(vec![2, 2, 2, 2]);
        assert_eq!(c.imbalance(), 2.0); // top=4, second=0
        assert_eq!(c.labelled_imbalance(), Some(2.0));
    }

    #[test]
    fn labelled_imbalance_none_for_many_bins() {
        let c = Config::new(vec![0, 1, 2]);
        assert_eq!(c.labelled_imbalance(), None);
    }
}
