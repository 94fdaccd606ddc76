//! Percentile bootstrap confidence intervals.
//!
//! A complement to the order-statistic CIs of [`crate::ci`]: works for
//! *any* statistic (means, trimmed means, coefficients of variation,
//! slowdown ratios), at the price of resampling cost and an explicit
//! seed. The bench harness puts its median CIs on repeated timings
//! through it.
//!
//! ## Parallel resampling
//!
//! Replicate `r` draws from its own RNG stream,
//! `SimRng::new(derive_seed(seed, r))` — not from one sequential
//! stream — so replicates are independent of execution order and the
//! resample loop shards across [`exec`] workers with **bit-identical**
//! CIs at any worker count. Each worker reuses a single scratch buffer
//! across all replicates it runs (no per-replicate allocation).

use netsim::rng::{derive_seed, SimRng};

/// A bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Statistic computed on the original sample.
    pub estimate: f64,
    /// Lower percentile bound.
    pub lower: f64,
    /// Upper percentile bound.
    pub upper: f64,
    /// Nominal confidence level.
    pub confidence: f64,
    /// Number of resamples drawn.
    pub resamples: usize,
}

/// Percentile bootstrap CI for `statistic` over `samples`.
///
/// * `resamples` — number of bootstrap replicates (1000+ recommended).
/// * `conf` — confidence level, e.g. 0.95.
/// * `seed` — RNG seed (deterministic output).
/// * `jobs` — worker count ([`exec::current_jobs`] is the usual
///   choice); the CI is bit-identical at any `jobs` (see the module
///   docs).
pub fn bootstrap_ci<F>(
    samples: &[f64],
    statistic: F,
    resamples: usize,
    conf: f64,
    seed: u64,
    jobs: usize,
) -> BootstrapCi
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    assert!(!samples.is_empty(), "bootstrap of empty sample");
    assert!(resamples >= 2, "need at least two resamples");
    assert!(conf > 0.0 && conf < 1.0, "confidence must be in (0, 1)");
    let n = samples.len();
    let mut replicates = exec::par_map_with(
        jobs,
        resamples,
        // One scratch resample buffer per worker, reused across every
        // replicate that worker runs.
        |_worker| vec![0.0f64; n],
        |buf, r| {
            let mut rng = SimRng::new(derive_seed(seed, r as u64));
            for slot in buf.iter_mut() {
                *slot = samples[rng.index(n)];
            }
            statistic(buf)
        },
    );
    replicates.sort_by(|a, b| a.total_cmp(b));
    let alpha = 1.0 - conf;
    let lower = crate::describe::quantile_sorted(&replicates, alpha / 2.0);
    let upper = crate::describe::quantile_sorted(&replicates, 1.0 - alpha / 2.0);
    BootstrapCi {
        estimate: statistic(samples),
        lower,
        upper,
        confidence: conf,
        resamples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::{mean, median};

    fn uniform_samples(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| rng.uniform() * 100.0).collect()
    }

    #[test]
    fn mean_ci_brackets_true_mean() {
        let xs = uniform_samples(500, 1);
        let ci = bootstrap_ci(&xs, mean, 1000, 0.95, 42, exec::current_jobs());
        assert!(ci.lower <= ci.estimate && ci.estimate <= ci.upper);
        // True mean 50; CI of a 500-sample mean should be tight-ish.
        assert!(ci.contains_value(50.0), "{ci:?}");
        assert!(ci.upper - ci.lower < 12.0);
    }

    #[test]
    fn median_ci_works_too() {
        let xs = uniform_samples(300, 2);
        let ci = bootstrap_ci(&xs, median, 800, 0.95, 7, exec::current_jobs());
        assert!(ci.lower <= ci.upper);
        assert!(ci.contains_value(ci.estimate));
    }

    #[test]
    fn deterministic_given_seed() {
        let xs = uniform_samples(50, 3);
        let a = bootstrap_ci(&xs, mean, 500, 0.95, 9, exec::current_jobs());
        let b = bootstrap_ci(&xs, mean, 500, 0.95, 9, exec::current_jobs());
        assert_eq!(a, b);
        let c = bootstrap_ci(&xs, mean, 500, 0.95, 10, exec::current_jobs());
        assert_ne!(a.lower, c.lower);
    }

    #[test]
    fn wider_confidence_wider_interval() {
        let xs = uniform_samples(100, 4);
        let w90 = {
            let ci = bootstrap_ci(&xs, mean, 2000, 0.90, 5, exec::current_jobs());
            ci.upper - ci.lower
        };
        let w99 = {
            let ci = bootstrap_ci(&xs, mean, 2000, 0.99, 5, exec::current_jobs());
            ci.upper - ci.lower
        };
        assert!(w99 > w90);
    }

    impl BootstrapCi {
        fn contains_value(&self, v: f64) -> bool {
            v >= self.lower && v <= self.upper
        }
    }

    #[test]
    fn bootstrap_ci_is_bit_identical_at_any_worker_count() {
        let xs = uniform_samples(300, 8);
        let one = bootstrap_ci(&xs, mean, 1000, 0.95, 11, 1);
        for jobs in [2usize, 8] {
            let wide = bootstrap_ci(&xs, mean, 1000, 0.95, 11, jobs);
            assert_eq!(one.lower.to_bits(), wide.lower.to_bits(), "jobs={jobs}");
            assert_eq!(one.upper.to_bits(), wide.upper.to_bits(), "jobs={jobs}");
            assert_eq!(one.estimate.to_bits(), wide.estimate.to_bits(), "jobs={jobs}");
        }
    }

    #[test]
    fn replicate_streams_are_decoupled_from_resample_count() {
        // Per-replicate derived seeds: the first 500 replicates of a
        // 1000-resample run are the 500-resample run's replicates, so
        // adding repetitions never perturbs existing ones (the same
        // property the campaign layer guarantees for pairs).
        let xs = uniform_samples(80, 9);
        let a = bootstrap_ci(&xs, mean, 500, 0.95, 21, exec::current_jobs());
        let b = bootstrap_ci(&xs, mean, 500, 0.95, 21, exec::current_jobs());
        assert_eq!(a, b);
    }
}
