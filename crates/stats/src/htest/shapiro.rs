//! Shapiro–Wilk normality test (Royston 1995, algorithm AS R94).
//!
//! Valid for sample sizes 3 ≤ n ≤ 5000. The W statistic compares the
//! sample's order statistics against the expected order statistics of a
//! normal distribution; Royston's transformation maps W to an
//! approximately standard-normal z from which the p-value follows.

use crate::dist::{normal_cdf, normal_quantile};

/// Result of a Shapiro–Wilk test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapiroWilkResult {
    /// The W statistic in (0, 1]; values near 1 indicate normality.
    pub w: f64,
    /// Upper-tail p-value for the null hypothesis of normality.
    pub p_value: f64,
    /// Sample size.
    pub n: usize,
}

impl ShapiroWilkResult {
    /// Reject normality at significance `alpha`?
    pub fn rejects_normality(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

fn poly(coefs: &[f64], x: f64) -> f64 {
    // coefs[0] + coefs[1] x + coefs[2] x^2 ...
    coefs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

/// Shapiro–Wilk test. Panics if `n < 3`, `n > 5000`, or the sample has
/// zero range.
pub fn shapiro_wilk(xs: &[f64]) -> ShapiroWilkResult {
    let n = xs.len();
    assert!((3..=5000).contains(&n), "Shapiro–Wilk needs 3..=5000 samples");
    let mut x: Vec<f64> = xs.to_vec();
    x.sort_by(|a, b| a.total_cmp(b));
    let range = x[n - 1] - x[0];
    assert!(range > 0.0, "sample has zero range");

    // Expected normal order statistics (Blom approximation).
    let nf = n as f64;
    let mut m: Vec<f64> = (1..=n)
        .map(|i| normal_quantile((i as f64 - 0.375) / (nf + 0.25)))
        .collect();
    let m_sq_sum: f64 = m.iter().map(|v| v * v).sum();

    // Royston's polynomial-corrected weights.
    let u = 1.0 / nf.sqrt();
    let mut a = vec![0.0f64; n];
    let rsqrt_msq = 1.0 / m_sq_sum.sqrt();
    if n > 5 {
        let an = -2.706056 * u.powi(5) + 4.434685 * u.powi(4) - 2.071190 * u.powi(3)
            - 0.147981 * u.powi(2)
            + 0.221157 * u
            + m[n - 1] * rsqrt_msq;
        let an1 = -3.582633 * u.powi(5) + 5.682633 * u.powi(4) - 1.752461 * u.powi(3)
            - 0.293762 * u.powi(2)
            + 0.042981 * u
            + m[n - 2] * rsqrt_msq;
        let phi = (m_sq_sum - 2.0 * m[n - 1] * m[n - 1] - 2.0 * m[n - 2] * m[n - 2])
            / (1.0 - 2.0 * an * an - 2.0 * an1 * an1);
        let phi_sqrt = phi.sqrt();
        for i in 2..n - 2 {
            a[i] = m[i] / phi_sqrt;
        }
        a[n - 1] = an;
        a[n - 2] = an1;
        a[0] = -an;
        a[1] = -an1;
    } else {
        let an = -2.706056 * u.powi(5) + 4.434685 * u.powi(4) - 2.071190 * u.powi(3)
            - 0.147981 * u.powi(2)
            + 0.221157 * u
            + m[n - 1] * rsqrt_msq;
        let phi = (m_sq_sum - 2.0 * m[n - 1] * m[n - 1]) / (1.0 - 2.0 * an * an);
        let phi_sqrt = phi.sqrt();
        for i in 1..n - 1 {
            a[i] = m[i] / phi_sqrt;
        }
        a[n - 1] = an;
        a[0] = -an;
    }
    // m no longer needed; silence the mutation warning.
    m.clear();

    // W statistic.
    let mean = x.iter().sum::<f64>() / nf;
    let ss: f64 = x.iter().map(|v| (v - mean) * (v - mean)).sum();
    let b: f64 = a.iter().zip(&x).map(|(ai, xi)| ai * xi).sum();
    let w = (b * b / ss).min(1.0);

    // P-value via Royston's normalizing transformation.
    let p_value = if n == 3 {
        // Exact for n = 3.
        let pi6 = 1.90985931710274; // 6/pi
        // asin(sqrt(3/4)), i.e. pi/3 to 15 digits but not the bits of
        // `FRAC_PI_3`; switching could move Shapiro-Wilk p-value bits.
        #[allow(clippy::approx_constant)]
        let stqr = 1.04719755119660;
        let p = pi6 * ((w.sqrt()).asin() - stqr);
        p.clamp(0.0, 1.0)
    } else if n <= 11 {
        let gamma = poly(&[-2.273, 0.459], nf);
        let y = -((gamma - (1.0 - w).ln()).ln());
        let mu = poly(&[0.5440, -0.39978, 0.025054, -6.714e-4], nf);
        let sigma = poly(&[1.3822, -0.77857, 0.062767, -0.0020322], nf).exp();
        1.0 - normal_cdf((y - mu) / sigma)
    } else {
        let ln_n = nf.ln();
        let y = (1.0 - w).ln();
        let mu = poly(&[-1.5861, -0.31082, -0.083751, 0.0038915], ln_n);
        let sigma = poly(&[-0.4803, -0.082676, 0.0030302], ln_n).exp();
        1.0 - normal_cdf((y - mu) / sigma)
    };

    ShapiroWilkResult {
        w,
        p_value: p_value.clamp(0.0, 1.0),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::SimRng;

    fn normal_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| (0..12).map(|_| rng.uniform()).sum::<f64>() - 6.0)
            .collect()
    }

    #[test]
    fn accepts_normal_data() {
        for seed in [1, 2, 3] {
            let xs = normal_sample(100, seed);
            let r = shapiro_wilk(&xs);
            assert!(r.w > 0.97, "W {}", r.w);
            assert!(!r.rejects_normality(0.01), "p {}", r.p_value);
        }
    }

    #[test]
    fn rejects_uniform_data() {
        let mut rng = SimRng::new(4);
        let xs: Vec<f64> = (0..500).map(|_| rng.uniform()).collect();
        let r = shapiro_wilk(&xs);
        assert!(r.rejects_normality(0.05), "p {}", r.p_value);
    }

    #[test]
    fn rejects_exponential_data() {
        let mut rng = SimRng::new(5);
        let xs: Vec<f64> = (0..200).map(|_| -(rng.uniform().max(1e-12)).ln()).collect();
        let r = shapiro_wilk(&xs);
        assert!(r.w < 0.95, "W {}", r.w);
        assert!(r.rejects_normality(0.001), "p {}", r.p_value);
    }

    #[test]
    fn rejects_bimodal_data() {
        let mut xs = normal_sample(100, 6);
        xs.extend(normal_sample(100, 7).iter().map(|v| v + 12.0));
        let r = shapiro_wilk(&xs);
        assert!(r.rejects_normality(0.01), "p {}", r.p_value);
    }

    #[test]
    fn small_sample_paths_work() {
        // n = 3 exact branch.
        let r = shapiro_wilk(&[1.0, 2.0, 3.1]);
        assert!(r.w > 0.9);
        assert!(r.p_value > 0.05);
        // n in 4..=11 branch.
        let r = shapiro_wilk(&[1.0, 2.0, 2.5, 3.0, 3.6, 4.0, 5.0]);
        assert!(r.p_value > 0.05, "p {}", r.p_value);
    }

    #[test]
    fn w_close_to_r_reference() {
        // R: shapiro.test(c(148,154,158,160,161,162,166,170,182,195,236))
        // gives W = 0.79, p = 0.0097 (classic Royston example).
        let xs = [
            148.0, 154.0, 158.0, 160.0, 161.0, 162.0, 166.0, 170.0, 182.0, 195.0, 236.0,
        ];
        let r = shapiro_wilk(&xs);
        assert!((r.w - 0.79).abs() < 0.02, "W {}", r.w);
        assert!((r.p_value - 0.0097).abs() < 0.01, "p {}", r.p_value);
    }

    #[test]
    #[should_panic(expected = "zero range")]
    fn rejects_constant_sample() {
        shapiro_wilk(&[2.0; 30]);
    }

    #[test]
    #[should_panic(expected = "3..=5000")]
    fn rejects_tiny_sample() {
        shapiro_wilk(&[1.0, 2.0]);
    }
}
