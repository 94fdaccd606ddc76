//! Order statistics for benchmark samples and the per-layer metric sink.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail reading: the highest percentile with at least [`TAIL_BEYOND`]
/// samples above it, with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic at that percentile.
    pub value: f64,
    /// How many samples the tail was taken from.
    pub samples: usize,
}

/// The highest percentile of `xs` that still has [`TAIL_BEYOND`]
/// samples beyond it. With too few samples for any such percentile the
/// value is 0 and `samples` says why.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: 0.0,
            samples: n,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Tail {
        value: v[n - 1 - TAIL_BEYOND],
        samples: n,
    }
}

/// Per-layer metrics gathered by a traced run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    /// Record one metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    /// Record the median and tail of a span's samples as `<name>.p50`,
    /// `<name>.tail` and `<name>.tail_n`.
    pub fn spans(&mut self, name: &str, xs: &[f64]) {
        let t = tail(xs);
        self.put(&format!("{name}.p50"), median(xs));
        self.put(&format!("{name}.tail"), t.value);
        self.put(&format!("{name}.tail_n"), t.samples as f64);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_reports_its_count() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.samples, 1000);
        assert_eq!(t.value, 989.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_of_too_few_samples_is_zero_with_its_count() {
        let t = tail(&[5.0; 10]);
        assert_eq!(
            t,
            Tail {
                value: 0.0,
                samples: 10
            }
        );
        let mut m = Metrics::default();
        m.spans("x_us", &[1.0; 4]);
        assert_eq!(m.get("x_us.tail_n"), Some(4.0));
        assert_eq!(m.get("x_us.p50"), Some(1.0));
    }
}
