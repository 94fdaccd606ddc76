//! Percentile bootstrap confidence intervals.
//!
//! A complement to the order-statistic CIs of [`crate::ci`]: works for
//! *any* statistic (means, trimmed means, coefficients of variation,
//! slowdown ratios), at the price of resampling cost and an explicit
//! seed. Used by the reporting layer when the statistic of interest is
//! not a plain quantile.
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

/// Moving-block bootstrap CI for autocorrelated series.
///
/// The plain bootstrap assumes exchangeable (iid) samples — exactly the
/// assumption cloud time series violate (Section 3.1's sample-to-sample
/// correlation; finding F5.4). The moving-block variant resamples
/// contiguous blocks of length `block_len`, preserving the short-range
/// dependence structure inside each block, so the CI widths reflect the
/// *effective* (smaller) sample size of a correlated series.
///
/// A common block-length default is `n^(1/3)`, available via
/// [`default_block_len`]. The other arguments are [`bootstrap_ci`]'s.
pub fn block_bootstrap_ci<F>(
    samples: &[f64],
    statistic: F,
    block_len: usize,
    resamples: usize,
    conf: f64,
    seed: u64,
    jobs: usize,
) -> BootstrapCi
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    assert!(!samples.is_empty(), "bootstrap of empty sample");
    assert!(
        block_len >= 1 && block_len <= samples.len(),
        "block length must fit the sample"
    );
    assert!(resamples >= 2, "need at least two resamples");
    assert!(conf > 0.0 && conf < 1.0, "confidence must be in (0, 1)");
    let n = samples.len();
    let n_starts = n - block_len + 1;
    let blocks_needed = n.div_ceil(block_len);
    let mut replicates = exec::par_map_with(
        jobs,
        resamples,
        |_worker| Vec::with_capacity(blocks_needed * block_len),
        |buf: &mut Vec<f64>, r| {
            let mut rng = SimRng::new(derive_seed(seed, r as u64));
            buf.clear();
            for _ in 0..blocks_needed {
                let start = rng.index(n_starts);
                buf.extend_from_slice(&samples[start..start + block_len]);
            }
            buf.truncate(n);
            statistic(buf)
        },
    );
    replicates.sort_by(|a, b| a.total_cmp(b));
    let alpha = 1.0 - conf;
    BootstrapCi {
        estimate: statistic(samples),
        lower: crate::describe::quantile_sorted(&replicates, alpha / 2.0),
        upper: crate::describe::quantile_sorted(&replicates, 1.0 - alpha / 2.0),
        confidence: conf,
        resamples,
    }
}

/// The `n^(1/3)` block-length rule of thumb (at least 1).
pub fn default_block_len(n: usize) -> usize {
    ((n as f64).powf(1.0 / 3.0).round() as usize).max(1)
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

    /// AR(1) series for block-bootstrap tests.
    fn ar1_series(n: usize, phi: f64, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed);
        let mut xs = vec![0.0f64];
        for _ in 1..n {
            let e: f64 = rng.uniform() - 0.5;
            xs.push(phi * xs.last().unwrap() + e);
        }
        xs.iter().map(|x| 100.0 + x).collect()
    }

    #[test]
    fn block_bootstrap_is_wider_on_correlated_data() {
        // Strongly autocorrelated series: the iid bootstrap underrates
        // the uncertainty of the mean; the block bootstrap does not.
        let xs = ar1_series(400, 0.9, 5);
        let iid = bootstrap_ci(&xs, mean, 1500, 0.95, 1, exec::current_jobs());
        let blocked = block_bootstrap_ci(&xs, mean, 20, 1500, 0.95, 1, exec::current_jobs());
        assert!(
            blocked.upper - blocked.lower > 1.5 * (iid.upper - iid.lower),
            "blocked [{:.3},{:.3}] vs iid [{:.3},{:.3}]",
            blocked.lower,
            blocked.upper,
            iid.lower,
            iid.upper
        );
    }

    #[test]
    fn block_len_one_recovers_iid_behaviour() {
        let xs = ar1_series(200, 0.0, 6);
        let iid = bootstrap_ci(&xs, mean, 1000, 0.95, 2, exec::current_jobs());
        let blocked = block_bootstrap_ci(&xs, mean, 1, 1000, 0.95, 3, exec::current_jobs());
        let w_iid = iid.upper - iid.lower;
        let w_blk = blocked.upper - blocked.lower;
        assert!((w_blk / w_iid - 1.0).abs() < 0.35, "iid {w_iid} blk {w_blk}");
    }

    #[test]
    fn block_bootstrap_brackets_and_is_deterministic() {
        let xs = ar1_series(150, 0.5, 7);
        let block = default_block_len(xs.len());
        let a = block_bootstrap_ci(&xs, median, block, 500, 0.95, 9, exec::current_jobs());
        let b = block_bootstrap_ci(&xs, median, block, 500, 0.95, 9, exec::current_jobs());
        assert_eq!(a, b);
        assert!(a.lower <= a.upper);
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
    fn block_bootstrap_ci_is_bit_identical_at_any_worker_count() {
        let xs = ar1_series(250, 0.7, 12);
        let block = default_block_len(xs.len());
        let one = block_bootstrap_ci(&xs, median, block, 800, 0.95, 13, 1);
        for jobs in [2usize, 8] {
            let wide = block_bootstrap_ci(&xs, median, block, 800, 0.95, 13, jobs);
            assert_eq!(one.lower.to_bits(), wide.lower.to_bits(), "jobs={jobs}");
            assert_eq!(one.upper.to_bits(), wide.upper.to_bits(), "jobs={jobs}");
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

    #[test]
    fn default_block_len_rule() {
        assert_eq!(default_block_len(1), 1);
        assert_eq!(default_block_len(27), 3);
        assert_eq!(default_block_len(1000), 10);
    }
}
