//! Random variates built on raw 64-bit generator outputs.
//!
//! * [`Binomial`] — exact binomial sampling: inversion (BINV) for small
//!   `n·p`, Hörmann's transformed rejection with squeeze (BTRS) for large;
//! * [`PackedAlias`] — Vose's alias method, packed for O(1) categorical
//!   draws from one random word;
//! * [`ln_factorial`] / [`ln_binomial_coeff`] / [`binomial_pmf`] /
//!   [`binomial_cdf`] — log-space combinatorics for the acceptance tests and
//!   the probability-bound comparisons in `bounds`.

mod alias;
mod binomial;

pub use alias::{AliasScratch, PackedAlias};
pub use binomial::{binomial_cdf, binomial_pmf, Binomial};

/// `ln(n!)` — exact summation for small `n`, Stirling's series beyond.
///
/// Absolute error below `1e-10` over the full `u64` range.
pub fn ln_factorial(n: u64) -> f64 {
    const TABLE_SIZE: usize = 256;
    // Exact cumulative sums of ln(k) for n < TABLE_SIZE.
    static TABLE: std::sync::OnceLock<[f64; TABLE_SIZE]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0.0f64; TABLE_SIZE];
        for k in 2..TABLE_SIZE {
            t[k] = t[k - 1] + (k as f64).ln();
        }
        t
    });
    if (n as usize) < TABLE_SIZE {
        return table[n as usize];
    }
    // Stirling's series: ln n! = n ln n − n + ½ ln(2πn) + 1/(12n) − 1/(360n³)
    // + 1/(1260n⁵) − …; at n ≥ 256 the truncation error is ≪ 1e-12.
    let x = n as f64;
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + inv / 12.0 - inv * inv2 / 360.0
        + inv * inv2 * inv2 / 1260.0
}

/// `ln C(n, k)`; `-inf` for `k > n`.
pub fn ln_binomial_coeff(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_small_exact() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(2) - 2.0f64.ln()).abs() < 1e-14);
        assert!((ln_factorial(5) - 120.0f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(10) - 3628800.0f64.ln()).abs() < 1e-11);
    }

    #[test]
    fn ln_factorial_continuous_at_table_boundary() {
        // Stirling at 256 must agree with the recurrence from the table.
        let from_table = ln_factorial(255) + 256.0f64.ln();
        assert!((ln_factorial(256) - from_table).abs() < 1e-9);
        let big = ln_factorial(1_000_000);
        let big_next = ln_factorial(1_000_001);
        assert!((big_next - big - 1_000_001.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_binomial_matches_pascal() {
        // C(10, 3) = 120.
        assert!((ln_binomial_coeff(10, 3) - 120.0f64.ln()).abs() < 1e-11);
        assert_eq!(ln_binomial_coeff(5, 9), f64::NEG_INFINITY);
        assert_eq!(ln_binomial_coeff(7, 0), 0.0);
    }
}
