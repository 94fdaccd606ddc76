//! Descriptive statistics matching the paper's reporting style.
//!
//! Finding F2.2 is that most studies "do not report what performance
//! measures are reported (i.e., mean, median) [or] minimal statistical
//! data (i.e., standard deviation, quartiles)". The toolkit here makes
//! that cheap: [`Summary`] carries the full set, and [`BoxSummary`]
//! matches the paper's box-and-whisker plots (1st, 25th, 50th, 75th,
//! 99th percentiles — see Figures 2, 4, 5, 9, 16, 17).

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample variance (n−1 denominator; 0 for fewer than two values).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Coefficient of variation `σ/μ` (Figure 6's right panel), as a
/// fraction. Returns 0 when the mean is 0.
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        0.0
    } else {
        std_dev(xs) / m
    }
}

/// Quantile with linear interpolation between order statistics
/// (Hyndman–Fan type 7, the default of R and NumPy). `p` in `[0, 1]`.
/// Panics on empty input.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(&sorted, p)
}

/// Quantile of an already-sorted slice (ascending).
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let f = h - lo as f64;
        sorted[lo] * (1.0 - f) + sorted[hi] * f
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The paper's box-and-whisker summary: whiskers at the 1st and 99th
/// percentiles, box at the quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxSummary {
    /// 1st percentile (lower whisker).
    pub p1: f64,
    /// 25th percentile (box bottom).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile (box top).
    pub p75: f64,
    /// 99th percentile (upper whisker).
    pub p99: f64,
}

impl BoxSummary {
    /// Compute from raw samples. Panics on empty input.
    pub fn from_samples(xs: &[f64]) -> Self {
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        BoxSummary {
            p1: quantile_sorted(&sorted, 0.01),
            p25: quantile_sorted(&sorted, 0.25),
            p50: quantile_sorted(&sorted, 0.50),
            p75: quantile_sorted(&sorted, 0.75),
            p99: quantile_sorted(&sorted, 0.99),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }

    /// Whisker span (p99 − p1).
    pub fn span(&self) -> f64 {
        self.p99 - self.p1
    }
}

/// Full descriptive summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation (fraction).
    pub cov: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Percentile box.
    pub box_summary: BoxSummary,
}

impl Summary {
    /// Compute from raw samples. Panics on empty input.
    pub fn from_samples(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "summary of empty sample");
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Summary {
            n: xs.len(),
            mean: mean(xs),
            std_dev: std_dev(xs),
            cov: coefficient_of_variation(xs),
            min: sorted[0],
            // detlint:allow(D5, D11) -- guarded: the assert above rejects empty samples, so `last()` is Some on every path a campaign can reach
            max: *sorted.last().unwrap(),
            box_summary: BoxSummary {
                p1: quantile_sorted(&sorted, 0.01),
                p25: quantile_sorted(&sorted, 0.25),
                p50: quantile_sorted(&sorted, 0.50),
                p75: quantile_sorted(&sorted, 0.75),
                p99: quantile_sorted(&sorted, 0.99),
            },
        }
    }

    /// Median shortcut.
    pub fn median(&self) -> f64 {
        self.box_summary.p50
    }
}

/// Empirical CDF: sorted `(value, F(value))` points (Figure 6 left).
pub fn ecdf(xs: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Fixed-width histogram over `[lo, hi]` with `bins` buckets; values
/// outside the range are clamped into the edge buckets. Returns counts.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<u64> {
    assert!(bins > 0 && hi > lo, "histogram needs bins and a positive range");
    let mut counts = vec![0u64; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        let idx = ((x - lo) / width).floor();
        let idx = (idx.max(0.0) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!((coefficient_of_variation(&xs) - std_dev(&xs) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(quantile(&[3.0], 0.75), 3.0);
    }

    #[test]
    fn quantile_matches_numpy_type7() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.75) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_order_invariant() {
        let a = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for p in [0.1, 0.33, 0.5, 0.9] {
            assert_eq!(quantile(&a, p), quantile(&b, p));
        }
    }

    #[test]
    fn box_summary_ordering_invariant() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 7919.0) % 100.0).collect();
        let b = BoxSummary::from_samples(&xs);
        assert!(b.p1 <= b.p25 && b.p25 <= b.p50 && b.p50 <= b.p75 && b.p75 <= b.p99);
        assert!(b.iqr() >= 0.0 && b.span() >= b.iqr());
    }

    #[test]
    fn summary_fields_consistent() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_samples(&xs);
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.median() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn ecdf_properties() {
        let xs = [3.0, 1.0, 2.0];
        let e = ecdf(&xs);
        assert_eq!(e.len(), 3);
        assert_eq!(e[0], (1.0, 1.0 / 3.0));
        assert_eq!(e[2], (3.0, 1.0));
        assert!(e.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn histogram_counts_and_clamping() {
        let xs = [-1.0, 0.5, 1.5, 2.5, 99.0];
        let h = histogram(&xs, 0.0, 3.0, 3);
        assert_eq!(h, vec![2, 1, 2]);
        assert_eq!(h.iter().sum::<u64>(), xs.len() as u64);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        Summary::from_samples(&[]);
    }

    #[test]
    fn total_cmp_sorts_tolerate_nan() {
        // The NaN-unsafe partial_cmp().unwrap() pattern used to panic
        // here; total_cmp must not (NaN sorts last).
        let xs = [3.0, f64::NAN, 1.0];
        let b = BoxSummary::from_samples(&xs);
        assert!(b.p1.is_finite() && b.p1 >= 1.0);
        let e = ecdf(&xs);
        assert_eq!(e[0].0, 1.0);
        assert_eq!(e[1].0, 3.0);
    }
}
