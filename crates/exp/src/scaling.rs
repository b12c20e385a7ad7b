//! Scaling-law fits in the paper's predictors.
//!
//! The reproduction never expects to match absolute constants — the claim
//! under test is always the *functional form*: is the measured time linear
//! in `log n`? The fit here returns `R²` so tables can print
//! goodness-of-fit next to slopes. [`crate::report`] fits `ln n` per
//! series of a campaign store.

use stabcon_util::stats::{fit_line, LineFit};

/// Fit `T = a + b·ln n`.
pub fn fit_log_n(ns: &[f64], times: &[f64]) -> LineFit {
    let xs: Vec<f64> = ns.iter().map(|&n| n.ln()).collect();
    fit_line(&xs, times)
}

/// Pretty "T ≈ a + b·X (R²)" string for table footnotes.
pub fn describe_line(fit: &LineFit, predictor: &str) -> String {
    format!(
        "T ≈ {:.2} + {:.2}·{predictor}   (R² = {:.3})",
        fit.intercept, fit.slope, fit.r2
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_n_fit_recovers_synthetic_law() {
        let ns: Vec<f64> = (8..=20).map(|k| (1u64 << k) as f64).collect();
        let ts: Vec<f64> = ns.iter().map(|n| 3.0 + 2.5 * n.ln()).collect();
        let fit = fit_log_n(&ns, &ts);
        assert!((fit.slope - 2.5).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn describe_is_readable() {
        let ns = [256.0, 1024.0, 4096.0];
        let ts = [10.0, 12.0, 14.0];
        let d = describe_line(&fit_log_n(&ns, &ts), "ln n");
        assert!(d.contains("ln n"));
        assert!(d.contains("R²"));
    }
}
