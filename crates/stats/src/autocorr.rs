//! Autocovariance and autocorrelation.
//!
//! The paper's emulation methodology notes that the Ballani study
//! "reveals no autocovariance information" (Section 2.1) — which is why
//! uniform resampling is the honest choice there — while its own traces
//! *do* show strong sample-to-sample correlation. These helpers quantify
//! that, and feed the Ljung–Box independence test.

use crate::describe::mean;

/// Sample autocovariance at `lag` (biased, 1/n normalization, the
/// standard convention for ACF estimation).
pub fn autocovariance(xs: &[f64], lag: usize) -> f64 {
    let n = xs.len();
    if lag >= n {
        return 0.0;
    }
    let m = mean(xs);
    (0..n - lag)
        .map(|i| (xs[i] - m) * (xs[i + lag] - m))
        .sum::<f64>()
        / n as f64
}

/// Sample autocorrelation at `lag` (`rho_0 = 1`). Returns 0 when the
/// series has zero variance.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    let c0 = autocovariance(xs, 0);
    if c0 == 0.0 {
        return 0.0;
    }
    autocovariance(xs, lag) / c0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_zero_is_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let m = 2.5f64;
        let expected = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / 4.0;
        assert!((autocovariance(&xs, 0) - expected).abs() < 1e-12);
        assert_eq!(autocorrelation(&xs, 0), 1.0);
    }

    #[test]
    fn alternating_series_has_negative_lag1() {
        let xs: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
        assert!(autocorrelation(&xs, 2) > 0.9);
    }

    #[test]
    fn iid_noise_has_near_zero_acf() {
        use netsim::rng::SimRng;
        let mut rng = SimRng::new(9);
        let xs: Vec<f64> = (0..5000).map(|_| rng.uniform()).collect();
        for k in 1..10 {
            assert!(autocorrelation(&xs, k).abs() < 0.05, "lag {k}");
        }
    }

    #[test]
    fn constant_series_is_safe() {
        let xs = [5.0; 20];
        assert_eq!(autocorrelation(&xs, 1), 0.0);
    }

    #[test]
    fn out_of_range_lag_is_zero() {
        assert_eq!(autocovariance(&[1.0, 2.0], 5), 0.0);
    }
}
