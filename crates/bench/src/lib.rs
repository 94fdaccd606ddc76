#![deny(missing_docs)]

//! Shared output helpers for the figure-regeneration benches.
//!
//! Every table and figure in the paper's evaluation has a bench target
//! (`cargo bench -p bench --bench figNN_*`) that recomputes the data
//! behind it on the simulated substrate and prints the same rows or
//! series the paper reports. These helpers keep the output uniform.

pub mod rss;
pub mod timer;

use repro_core::exec::current_jobs;
use repro_core::vstats::describe::BoxSummary;
use repro_core::vstats::{bootstrap_ci, median};

/// Print a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!("\n================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// Print a labelled box summary row (values pre-scaled by the caller).
pub fn box_row(label: &str, b: &BoxSummary, unit: &str) {
    println!(
        "  {label:<14} p1={:>9.2} p25={:>9.2} median={:>9.2} p75={:>9.2} p99={:>9.2} {unit}",
        b.p1, b.p25, b.p50, b.p75, b.p99
    );
}

/// Downsample a series to at most `n` evenly-spaced points, always
/// keeping the first and last sample — figure tails (e.g. a
/// post-depletion plateau) must not be truncated.
pub fn downsample(series: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    if series.len() <= n || n == 0 {
        return series.to_vec();
    }
    let last = series.len() - 1;
    if n == 1 {
        return vec![series[last]];
    }
    (0..n).map(|i| series[i * last / (n - 1)]).collect()
}

/// Render a compact ASCII sparkline of a series' y-values.
pub fn sparkline(ys: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if ys.is_empty() {
        return String::new();
    }
    let min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    ys.iter()
        .map(|&y| {
            let idx = (((y - min) / span) * 7.0).round() as usize;
            GLYPHS[idx.min(7)]
        })
        .collect()
}

/// Print a time series as a sparkline plus summary stats.
pub fn series_row(label: &str, series: &[(f64, f64)], scale: f64, unit: &str) {
    let ys: Vec<f64> = downsample(series, 60).iter().map(|&(_, y)| y * scale).collect();
    let min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "  {label:<14} {}  [{min:.2}..{max:.2}] {unit}",
        sparkline(&ys)
    );
}

/// Check a reproduction property, printing PASS/FAIL; panics on FAIL so
/// `cargo bench` doubles as an end-to-end validation run.
pub fn check(what: &str, ok: bool) {
    println!("  CHECK {}: {what}", if ok { "PASS" } else { "FAIL" });
    assert!(ok, "reproduction check failed: {what}");
}

/// A repeated wall-clock measurement reduced to its median with a 95%
/// percentile-bootstrap CI (2000 resamples, fixed seed) — the bench
/// schema `{median, ci_lo, ci_hi, n, unit}`.
#[derive(Debug, Clone, Copy)]
pub struct MedianCi {
    /// Median of the samples.
    pub median: f64,
    /// Lower CI bound.
    pub ci_lo: f64,
    /// Upper CI bound.
    pub ci_hi: f64,
    /// Sample count.
    pub n: usize,
}

impl MedianCi {
    /// Summarize `samples` (at least one).
    pub fn of(samples: &[f64]) -> MedianCi {
        let seed = 0x6d65_6469_616e;
        let ci = bootstrap_ci(samples, median, 2000, 0.95, seed, current_jobs());
        MedianCi {
            median: ci.estimate,
            ci_lo: ci.lower,
            ci_hi: ci.upper,
            n: samples.len(),
        }
    }

    /// The JSON object for one metric, printed with `digits` decimals.
    pub fn json(&self, unit: &str, digits: usize) -> String {
        format!(
            "{{\"median\": {:.digits$}, \"ci_lo\": {:.digits$}, \"ci_hi\": {:.digits$}, \"n\": {}, \"unit\": \"{unit}\"}}",
            self.median, self.ci_lo, self.ci_hi, self.n
        )
    }
}

/// Format seconds as `mm:ss`.
pub fn mmss(s: f64) -> String {
    format!("{:02}:{:04.1}", (s / 60.0) as u64, s % 60.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_limits_length() {
        let series: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64, i as f64)).collect();
        let d = downsample(&series, 50);
        assert_eq!(d.len(), 50);
        assert_eq!(d[0], (0.0, 0.0));
        let short = downsample(&series[..10], 50);
        assert_eq!(short.len(), 10);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        // Regression: the old stride indexing dropped the final sample,
        // silently truncating figure tails.
        let series: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64, i as f64)).collect();
        for n in [1, 2, 3, 7, 50, 999] {
            let d = downsample(&series, n);
            assert_eq!(*d.last().unwrap(), (999.0, 999.0), "n={n} lost the tail");
            if n > 1 {
                assert_eq!(d[0], (0.0, 0.0), "n={n} lost the head");
            }
            assert_eq!(d.len(), n.min(series.len()));
            // Still monotone (indices non-decreasing, no duplicates from
            // rounding when n << len).
            for w in d.windows(2) {
                assert!(w[1].0 > w[0].0, "n={n} not strictly increasing");
            }
        }
    }

    #[test]
    fn sparkline_spans_glyphs() {
        let s = sparkline(&[0.0, 1.0, 0.5]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.contains('▁') && s.contains('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn median_ci_brackets_the_median() {
        let m = MedianCi::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(m.median, 3.0);
        assert!(m.ci_lo <= m.median && m.median <= m.ci_hi);
        assert_eq!(m.n, 5);
        assert_eq!(
            MedianCi::of(&[2.0]).json("s", 1),
            "{\"median\": 2.0, \"ci_lo\": 2.0, \"ci_hi\": 2.0, \"n\": 1, \"unit\": \"s\"}"
        );
    }

    #[test]
    fn mmss_formats() {
        assert_eq!(mmss(125.0), "02:05.0");
    }

    #[test]
    #[should_panic(expected = "reproduction check failed")]
    fn check_panics_on_fail() {
        check("demo", false);
    }
}
