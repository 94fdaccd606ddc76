//! Hypothesis tests for the paper's experimental-assumption checks.
//!
//! Finding F5.4: "samples collected should be tested for normality
//! [Shapiro–Wilk], independence [Mann–Whitney], and stationarity
//! [Dickey–Fuller]". This module provides:
//!
//! * [`shapiro::shapiro_wilk`] — normality (Royston's AS R94).
//! * [`mannwhitney::mann_whitney_u`] — two-sample location shift; the
//!   paper's independence check applies it to split halves of a
//!   measurement sequence.
//! * [`adf::adf_test`] — augmented Dickey–Fuller unit-root test for
//!   stationarity.
//! * [`ljungbox::ljung_box`] — portmanteau test of autocorrelation
//!   (a sharper independence check for time series).

pub mod adf;
pub mod ljungbox;
pub mod mannwhitney;
pub mod shapiro;

pub use adf::{adf_test, AdfResult};
pub use ljungbox::{ljung_box, LjungBoxResult};
pub use mannwhitney::{mann_whitney_u, MannWhitneyResult};
pub use shapiro::{shapiro_wilk, ShapiroWilkResult};

/// Outcome of the full F5.4 assumption battery on one sample sequence.
#[derive(Debug, Clone, Copy)]
pub struct AssumptionReport {
    /// Shapiro–Wilk p-value (normality; low = not normal).
    pub normality_p: f64,
    /// Mann–Whitney p-value comparing first and second halves
    /// (low = halves differ — drift / non-independence).
    pub independence_p: f64,
    /// ADF test statistic (more negative = more stationary).
    pub adf_stat: f64,
    /// Is the series stationary at the 5% level?
    pub stationary_5pct: bool,
    /// Ljung–Box p-value at lag 10 (low = autocorrelated).
    pub ljung_box_p: f64,
}

impl AssumptionReport {
    /// Run the full battery. Requires at least 20 observations.
    pub fn run(xs: &[f64]) -> Self {
        assert!(xs.len() >= 20, "assumption battery needs >= 20 samples");
        let half = xs.len() / 2;
        let sw = shapiro_wilk(xs);
        let mw = mann_whitney_u(&xs[..half], &xs[half..]);
        let adf = adf_test(xs, 1);
        let lb = ljung_box(xs, 10);
        AssumptionReport {
            normality_p: sw.p_value,
            independence_p: mw.p_value,
            adf_stat: adf.statistic,
            stationary_5pct: adf.stationary_at(0.05),
            ljung_box_p: lb.p_value,
        }
    }

    /// Do the classic iid-normal analysis assumptions hold at the 5%
    /// level? (The paper's point is that token-bucket-coupled runs fail
    /// this — see Figure 19.)
    pub fn iid_assumptions_hold(&self) -> bool {
        self.independence_p > 0.05 && self.stationary_5pct && self.ljung_box_p > 0.05
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::SimRng;

    #[test]
    fn battery_passes_on_iid_noise() {
        let mut rng = SimRng::new(11);
        let xs: Vec<f64> = (0..200)
            .map(|_| {
                // Sum of uniforms ≈ normal.
                (0..12).map(|_| rng.uniform()).sum::<f64>() - 6.0
            })
            .collect();
        let rep = AssumptionReport::run(&xs);
        assert!(rep.normality_p > 0.01, "normality p {}", rep.normality_p);
        assert!(rep.iid_assumptions_hold(), "{rep:?}");
    }

    #[test]
    fn battery_fails_on_drifting_series() {
        // Monotone drift (the Figure 19 depletion pattern) plus a bit
        // of deterministic jitter so the ADF design is not collinear.
        let xs: Vec<f64> = (0..100)
            .map(|i| 50.0 + i as f64 + ((i * 37) % 11) as f64 * 0.3)
            .collect();
        let rep = AssumptionReport::run(&xs);
        assert!(!rep.iid_assumptions_hold(), "{rep:?}");
        assert!(rep.independence_p < 0.01);
    }

    #[test]
    #[should_panic(expected = ">= 20")]
    fn battery_rejects_tiny_samples() {
        AssumptionReport::run(&[1.0; 5]);
    }
}
