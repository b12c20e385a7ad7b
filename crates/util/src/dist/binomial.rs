//! Exact binomial sampling and log-space pmf/cdf.

use rand::RngCore;

use super::ln_factorial;
use crate::rng::gen_f64;

/// Threshold on `n·min(p, 1-p)` below which inversion (BINV) is used and at
/// or above which transformed rejection (BTRS) takes over.
const BINV_THRESHOLD: f64 = 10.0;

/// The binomial distribution `Bin(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Create `Bin(n, p)`.
    ///
    /// # Panics
    /// Panics if `p ∉ [0, 1]` or `p` is NaN.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "Binomial: p = {p} outside [0, 1]");
        Self { n, p }
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// `E[X] = n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// `Var[X] = n·p·(1-p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Draw one sample.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        let (n, p) = (self.n, self.p);
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // Work with q = min(p, 1-p) and mirror the result if needed.
        let flipped = p > 0.5;
        let q = if flipped { 1.0 - p } else { p };
        let x = if n as f64 * q < BINV_THRESHOLD {
            sample_binv(rng, n, q)
        } else {
            sample_btrs(rng, n, q)
        };
        if flipped {
            n - x
        } else {
            x
        }
    }
}

/// BINV: sequential inversion of the cdf. Requires `n·p` small so the loop
/// terminates quickly; `p ≤ 0.5` so `(1-p)^n` cannot underflow.
fn sample_binv<R: RngCore + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let q = 1.0 - p;
    let s = p / q;
    let a = (n + 1) as f64 * s;
    // q^n in log space: `powi` takes an i32 exponent, and this path runs
    // with n up to 2^52 (tiny landing probabilities in the histogram
    // engine's sweeps). n·p < 10 bounds the result below by e^-10-ish,
    // so the exp never underflows.
    let r0 = (n as f64 * q.ln()).exp();
    loop {
        let mut r = r0;
        let mut u = gen_f64(rng);
        let mut x = 0u64;
        let mut ok = true;
        while u > r {
            u -= r;
            x += 1;
            if x > n {
                // Floating-point leakage past the support; redraw.
                ok = false;
                break;
            }
            r *= a / x as f64 - s;
        }
        if ok {
            return x;
        }
    }
}

/// BTRS: Hörmann's transformed rejection with squeeze (1993). Valid for
/// `p ≤ 0.5` and `n·p ≥ 10`.
fn sample_btrs<R: RngCore + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    let spq = (nf * p * q).sqrt();

    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    let u_rv_r = 0.86 * v_r;

    let alpha = (2.83 + 5.1 / b) * spq;
    let lpq = (p / q).ln();
    let m = ((nf + 1.0) * p).floor();
    let h = ln_factorial(m as u64) + ln_factorial(n - m as u64);

    loop {
        let mut v = gen_f64(rng);
        if v <= u_rv_r {
            // Fast acceptance region (no logarithms).
            let u = v / v_r - 0.43;
            let k = ((2.0 * a / (0.5 - u.abs()) + b) * u + c).floor();
            return k as u64;
        }
        let u;
        if v >= v_r {
            u = gen_f64(rng) - 0.5;
        } else {
            let w = v / v_r - 0.93;
            u = 0.5f64.copysign(w) - w;
            v = gen_f64(rng) * v_r;
        }
        let us = 0.5 - u.abs();
        if us < 1e-12 {
            continue;
        }
        let kf = ((2.0 * a / us + b) * u + c).floor();
        if kf < 0.0 || kf > nf {
            continue;
        }
        let k = kf as u64;
        let log_accept = h - ln_factorial(k) - ln_factorial(n - k) + (kf - m) * lpq;
        let lhs = (v * alpha / (a / (us * us) + b)).ln();
        if lhs <= log_accept {
            return k;
        }
    }
}

/// `P(Bin(n, p) = k)`.
pub fn binomial_pmf(n: u64, p: f64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln_pmf =
        super::ln_binomial_coeff(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln_pmf.exp()
}

/// `P(Bin(n, p) ≤ k)` by direct summation (exact to f64 accumulation).
pub fn binomial_cdf(n: u64, p: f64, k: u64) -> f64 {
    if k >= n {
        return 1.0;
    }
    let mut acc = 0.0;
    for i in 0..=k {
        acc += binomial_pmf(n, p, i);
    }
    acc.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn edge_cases() {
        let mut rng = Xoshiro256pp::seed(1);
        assert_eq!(Binomial::new(0, 0.5).sample(&mut rng), 0);
        assert_eq!(Binomial::new(100, 0.0).sample(&mut rng), 0);
        assert_eq!(Binomial::new(100, 1.0).sample(&mut rng), 100);
    }

    #[test]
    fn support_bounds_hold() {
        let mut rng = Xoshiro256pp::seed(2);
        for &(n, p) in &[(5u64, 0.3f64), (1000, 0.5), (1000, 0.001), (50, 0.97)] {
            for _ in 0..2000 {
                assert!(Binomial::new(n, p).sample(&mut rng) <= n);
            }
        }
    }

    #[test]
    fn binv_mean_and_variance() {
        // np = 5 → BINV path.
        let d = Binomial::new(1000, 0.005);
        let mut rng = Xoshiro256pp::seed(3);
        let trials = 50_000;
        let mut sum = 0u64;
        let mut sum2 = 0f64;
        for _ in 0..trials {
            let x = d.sample(&mut rng);
            sum += x;
            sum2 += (x * x) as f64;
        }
        let mean = sum as f64 / trials as f64;
        let var = sum2 / trials as f64 - mean * mean;
        assert!((mean - d.mean()).abs() < 4.0 * (d.variance() / trials as f64).sqrt());
        assert!(
            (var - d.variance()).abs() < 0.35,
            "var {var} vs {}",
            d.variance()
        );
    }

    #[test]
    fn btrs_mean_and_variance() {
        // np = 300 → BTRS path.
        let d = Binomial::new(1000, 0.3);
        let mut rng = Xoshiro256pp::seed(4);
        let trials = 50_000;
        let mut sum = 0u64;
        let mut sum2 = 0f64;
        for _ in 0..trials {
            let x = d.sample(&mut rng);
            sum += x;
            sum2 += (x * x) as f64;
        }
        let mean = sum as f64 / trials as f64;
        let var = sum2 / trials as f64 - mean * mean;
        assert!(
            (mean - d.mean()).abs() < 5.0 * (d.variance() / trials as f64).sqrt(),
            "mean {mean}"
        );
        assert!((var / d.variance() - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn binv_huge_n_tiny_p() {
        // n far beyond i32::MAX with n·p ≈ 5.5: the histogram engine's
        // small-bin conditional draws at 2^40-ball populations. A clamped
        // q^n exponent made this sample ≈ 0 instead of ≈ 5.5.
        let n = 1u64 << 40;
        let p = 5e-12;
        let d = Binomial::new(n, p);
        let mut rng = Xoshiro256pp::seed(77);
        let trials = 20_000;
        let sum: u64 = (0..trials).map(|_| d.sample(&mut rng)).sum();
        let mean = sum as f64 / trials as f64;
        let se = (d.variance() / trials as f64).sqrt();
        assert!(
            (mean - d.mean()).abs() < 6.0 * se,
            "mean {mean} vs expected {}",
            d.mean()
        );
    }

    #[test]
    fn high_p_mirrors() {
        // p = 0.9 flips to q = 0.1 internally.
        let d = Binomial::new(500, 0.9);
        let mut rng = Xoshiro256pp::seed(5);
        let trials = 30_000;
        let sum: u64 = (0..trials).map(|_| d.sample(&mut rng)).sum();
        let mean = sum as f64 / trials as f64;
        assert!(
            (mean - 450.0).abs() < 5.0 * (d.variance() / trials as f64).sqrt(),
            "mean {mean}"
        );
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(20u64, 0.3f64), (100, 0.77), (1, 0.5), (0, 0.2)] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, p, k)).sum();
            assert!((total - 1.0).abs() < 1e-10, "n={n} p={p}: {total}");
        }
    }

    #[test]
    fn cdf_terminal_values() {
        assert_eq!(binomial_cdf(10, 0.4, 10), 1.0);
        assert_eq!(binomial_cdf(10, 0.4, 99), 1.0);
        assert!((binomial_cdf(10, 0.0, 0) - 1.0).abs() < 1e-12);
        assert!(binomial_cdf(10, 0.4, 0) > 0.0);
    }

    #[test]
    fn empirical_cdf_matches_analytic() {
        // Kolmogorov-style check on the BTRS regime.
        let (n, p) = (200u64, 0.25f64);
        let d = Binomial::new(n, p);
        let mut rng = Xoshiro256pp::seed(6);
        let trials = 40_000usize;
        let mut counts = vec![0u64; n as usize + 1];
        for _ in 0..trials {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        let mut emp = 0.0;
        let mut worst: f64 = 0.0;
        for k in 0..=n {
            emp += counts[k as usize] as f64 / trials as f64;
            worst = worst.max((emp - binomial_cdf(n, p, k)).abs());
        }
        // K-S 99.9% critical value ≈ 1.95/√trials ≈ 0.0098.
        assert!(worst < 0.011, "K-S distance {worst}");
    }
}
