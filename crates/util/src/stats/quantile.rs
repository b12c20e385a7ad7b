//! Quantile estimation (R type-7 linear interpolation, the numpy default).

/// Quantile `q ∈ [0, 1]` of unsorted data, linear interpolation between
/// order statistics.
///
/// # Panics
/// Panics if `xs` is empty or `q ∉ [0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile: q = {q}");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, q)
}

/// Quantile of pre-sorted data (no allocation).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Median shortcut.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The value at 0-based order-statistic index `idx` of the expansion of
/// sorted `(value, weight)` pairs.
fn order_stat(pairs: &[(u64, u64)], idx: u64) -> u64 {
    let mut acc = 0u64;
    for &(v, w) in pairs {
        acc += w;
        if acc > idx {
            return v;
        }
    }
    unreachable!("order_stat index {idx} out of range");
}

/// Quantile of weighted integer samples, given as `(value, count)` pairs
/// sorted by value. **Bit-identical** to sorting the expanded multiset and
/// calling `quantile_sorted` — streaming campaign aggregates rely on this
/// to reproduce materialized sweeps exactly.
///
/// # Panics
/// Panics if the pairs are empty/unsorted, any count is zero, or `q ∉ [0, 1]`.
pub fn quantile_counts(pairs: &[(u64, u64)], q: f64) -> f64 {
    assert!(!pairs.is_empty(), "quantile_counts of empty pairs");
    assert!((0.0..=1.0).contains(&q), "quantile_counts: q = {q}");
    assert!(
        pairs.windows(2).all(|w| w[0].0 < w[1].0),
        "quantile_counts: pairs must be strictly sorted by value"
    );
    assert!(
        pairs.iter().all(|&(_, w)| w > 0),
        "quantile_counts: zero-count pair"
    );
    let n: u64 = pairs.iter().map(|&(_, w)| w).sum();
    if n == 1 {
        return pairs[0].0 as f64;
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as u64;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    let vlo = order_stat(pairs, lo) as f64;
    let vhi = order_stat(pairs, hi) as f64;
    vlo + frac * (vhi - vlo)
}

/// The quantile summary reported by every experiment table: mean, p50, p90,
/// p95, p99, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Sample mean.
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Quantiles {
    /// Compute the summary from unsorted data.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn from(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "Quantiles of empty slice");
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in Quantiles input"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Self {
            mean,
            p50: quantile_sorted(&sorted, 0.50),
            p90: quantile_sorted(&sorted, 0.90),
            p95: quantile_sorted(&sorted, 0.95),
            p99: quantile_sorted(&sorted, 0.99),
            max: *sorted.last().expect("nonempty"),
        }
    }

    /// Compute the summary from weighted integer samples (`(value, count)`
    /// pairs sorted by value), bit-identical to [`Quantiles::from`] on the
    /// expanded multiset: quantiles go through [`quantile_counts`] and the
    /// mean is an exact integer sum.
    ///
    /// # Panics
    /// Panics if the pairs are empty (see [`quantile_counts`]).
    pub fn from_counts(pairs: &[(u64, u64)]) -> Self {
        let n: u64 = pairs.iter().map(|&(_, w)| w).sum();
        assert!(n > 0, "Quantiles::from_counts of empty pairs");
        let sum: f64 = pairs.iter().map(|&(v, w)| v as f64 * w as f64).sum();
        Self {
            mean: sum / n as f64,
            p50: quantile_counts(pairs, 0.50),
            p90: quantile_counts(pairs, 0.90),
            p95: quantile_counts(pairs, 0.95),
            p99: quantile_counts(pairs, 0.99),
            max: pairs.last().expect("nonempty").0 as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
    }

    #[test]
    fn interpolation() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.5) - 5.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.75) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median(&xs), 5.0);
    }

    #[test]
    fn even_length_median() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn singleton() {
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
        let q = Quantiles::from(&[7.0]);
        assert_eq!(q.mean, 7.0);
        assert_eq!(q.max, 7.0);
    }

    #[test]
    fn summary_consistency() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let q = Quantiles::from(&xs);
        assert!((q.mean - 50.5).abs() < 1e-12);
        assert!(q.p50 <= q.p90 && q.p90 <= q.p95 && q.p95 <= q.p99 && q.p99 <= q.max);
        assert_eq!(q.max, 100.0);
    }

    #[test]
    #[should_panic]
    fn empty_panics() {
        quantile(&[], 0.5);
    }

    fn expand(pairs: &[(u64, u64)]) -> Vec<f64> {
        pairs
            .iter()
            .flat_map(|&(v, w)| std::iter::repeat_n(v as f64, w as usize))
            .collect()
    }

    #[test]
    fn counts_match_expanded_sort_exactly() {
        let cases: &[&[(u64, u64)]] = &[
            &[(7, 1)],
            &[(0, 3), (1, 2)],
            &[(3, 1), (10, 4), (11, 1), (40, 2)],
            &[(0, 100), (1, 1)],
            &[(5, 1), (6, 1), (7, 1), (8, 1), (9, 1)],
        ];
        for pairs in cases {
            let xs = expand(pairs);
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let a = quantile(&xs, q);
                let b = quantile_counts(pairs, q);
                assert!(a == b, "{pairs:?} q={q}: {a} != {b}");
            }
            let qa = Quantiles::from(&xs);
            let qb = Quantiles::from_counts(pairs);
            assert_eq!(qa, qb, "{pairs:?}");
        }
    }

    #[test]
    #[should_panic]
    fn counts_unsorted_panics() {
        quantile_counts(&[(3, 1), (1, 1)], 0.5);
    }
}
