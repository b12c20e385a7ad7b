//! Least-squares line fits for the scaling laws.
//!
//! The experiment harness regresses measured convergence times against
//! one of the paper's predictors at a time: `log n` or `log log n`.

/// A simple-line fit `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Intercept `a`.
    pub intercept: f64,
    /// Slope `b`.
    pub slope: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Standard error of the slope.
    pub slope_se: f64,
}

/// Fit `y = a + b·x` by least squares.
///
/// # Panics
/// Panics if fewer than 2 points or if all `x` are identical.
pub fn fit_line(xs: &[f64], ys: &[f64]) -> LineFit {
    assert_eq!(xs.len(), ys.len(), "fit_line: length mismatch");
    assert!(xs.len() >= 2, "fit_line: need at least 2 points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    assert!(sxx > 0.0, "fit_line: degenerate x values");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (intercept + slope * x);
            e * e
        })
        .sum();
    let r2 = if syy > 0.0 { 1.0 - ss_res / syy } else { 1.0 };
    let dof = (xs.len() as f64 - 2.0).max(1.0);
    let slope_se = (ss_res / dof / sxx).sqrt();
    LineFit {
        intercept,
        slope,
        r2,
        slope_se,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let fit = fit_line(&xs, &ys);
        assert!((fit.intercept - 3.0).abs() < 1e-10);
        assert!((fit.slope - 2.0).abs() < 1e-10);
        assert!((fit.r2 - 1.0).abs() < 1e-10);
        assert!(fit.slope_se < 1e-9);
    }

    #[test]
    fn noisy_line_recovers_slope() {
        // Deterministic "noise" with zero mean.
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 + 0.5 * x + if i % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let fit = fit_line(&xs, &ys);
        assert!((fit.slope - 0.5).abs() < 0.01, "slope {}", fit.slope);
        assert!(fit.r2 > 0.99);
    }

    #[test]
    #[should_panic]
    fn degenerate_x_panics() {
        fit_line(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]);
    }
}
