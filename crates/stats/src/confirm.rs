//! CONFIRM analysis (Maricq et al., OSDI'18) — Figure 13 machinery.
//!
//! CONFIRM answers: *how many repetitions does an experiment need before
//! its confidence interval is within a target error bound of the
//! estimate?* The paper runs it on K-Means (Google Cloud) and TPC-DS
//! Q65 (HPCCloud) and finds "it can take 70 repetitions or more to
//! achieve 95% confidence intervals within 1% of the measured median" —
//! far beyond the 3–10 repetitions common in the literature (Figure 1b).
//!
//! [`confirm_curve`] computes the estimate + CI for every prefix of the
//! measurement sequence (exactly how CONFIRM plots convergence);
//! [`repetitions_needed`] reports the first prefix length after which
//! the CI stays within the bound.

use crate::ci::{quantile_ci, QuantileCi};

/// One point of a CONFIRM convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfirmPoint {
    /// Number of repetitions used (prefix length).
    pub n: usize,
    /// Quantile estimate from the first `n` repetitions.
    pub estimate: f64,
    /// CI at this prefix, if computable.
    pub ci: Option<QuantileCi>,
}

impl ConfirmPoint {
    /// Is the CI within `err_frac` (e.g. 0.01 for 1%) of the estimate?
    pub fn within(&self, err_frac: f64) -> bool {
        self.ci
            .map(|ci| ci.relative_error() <= err_frac)
            .unwrap_or(false)
    }
}

/// Convergence curve: estimate + CI of the `p`-quantile for every
/// prefix `1..=samples.len()` of the measurement sequence.
pub fn confirm_curve(samples: &[f64], p: f64, conf: f64) -> Vec<ConfirmPoint> {
    (1..=samples.len())
        .map(|n| {
            let prefix = &samples[..n];
            let ci = quantile_ci(prefix, p, conf);
            let estimate = ci
                .map(|c| c.estimate)
                .unwrap_or_else(|| crate::describe::quantile(prefix, p));
            ConfirmPoint { n, estimate, ci }
        })
        .collect()
}

/// First number of repetitions after which the CI is within `err_frac`
/// of the estimate **and stays there** for every larger prefix of the
/// provided sequence. `None` if never achieved within the data.
///
/// Requiring stability (not just first crossing) is what makes the
/// analysis robust to the non-iid behaviour of Figure 19, where CIs
/// *widen* again as token-bucket budgets deplete.
pub fn repetitions_needed(samples: &[f64], p: f64, conf: f64, err_frac: f64) -> Option<usize> {
    let curve = confirm_curve(samples, p, conf);
    let mut candidate: Option<usize> = None;
    for pt in &curve {
        if pt.within(err_frac) {
            candidate.get_or_insert(pt.n);
        } else {
            candidate = None;
        }
    }
    candidate
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::SimRng;

    fn noisy_samples(n: usize, noise: f64, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| 100.0 * (1.0 + noise * (rng.uniform() - 0.5)))
            .collect()
    }

    #[test]
    fn curve_has_one_point_per_prefix() {
        let xs = noisy_samples(40, 0.1, 1);
        let curve = confirm_curve(&xs, 0.5, 0.95);
        assert_eq!(curve.len(), 40);
        assert_eq!(curve[0].n, 1);
        assert_eq!(curve[39].n, 40);
        // Small prefixes have no CI.
        assert!(curve[2].ci.is_none());
        assert!(curve[39].ci.is_some());
    }

    #[test]
    fn low_noise_converges_quickly_high_noise_slowly() {
        let quiet = noisy_samples(200, 0.02, 2);
        let loud = noisy_samples(200, 0.40, 2);
        let n_quiet = repetitions_needed(&quiet, 0.5, 0.95, 0.01).unwrap();
        let n_loud = repetitions_needed(&loud, 0.5, 0.95, 0.01);
        // 2% noise: 1% CI achievable quickly; 40% noise: much later or
        // never within 200 reps.
        assert!(n_quiet < 100, "quiet {n_quiet}");
        if let Some(n) = n_loud {
            assert!(n > n_quiet, "loud {n} quiet {n_quiet}");
        }
    }

    #[test]
    fn paper_scale_finding_seventy_reps() {
        // With ~10% spread (K-Means on Google Cloud scale), a 1% error
        // bound takes dozens of repetitions — the paper reports 70+.
        let xs = noisy_samples(300, 0.10, 7);
        let n = repetitions_needed(&xs, 0.5, 0.95, 0.01).unwrap();
        assert!(n > 20, "needed only {n}");
    }

    #[test]
    fn stability_requirement_rejects_transient_convergence() {
        // Construct a sequence that converges, then degrades (like the
        // budget-depletion effect of Figure 19).
        let mut xs = noisy_samples(60, 0.01, 3);
        xs.extend((0..60).map(|i| 100.0 + i as f64 * 2.0)); // drift
        let n = repetitions_needed(&xs, 0.5, 0.95, 0.01);
        // The drift destroys the bound at large n, so no stable point.
        assert!(n.is_none(), "got {n:?}");
    }

    #[test]
    fn within_handles_missing_ci() {
        let pt = ConfirmPoint {
            n: 3,
            estimate: 10.0,
            ci: None,
        };
        assert!(!pt.within(0.5));
    }
}
