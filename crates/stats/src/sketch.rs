//! Deterministic online quantile sketches for streaming campaigns.
//!
//! The ROADMAP's million-tenant campaigns cannot retain a trace — or
//! even one `f64` — per tenant: at 10⁶ tenants the retained-sample
//! path of [`describe`](crate::describe) is gigabytes of state. The
//! sampling-methodology literature (see PAPERS.md: *Sampling in Cloud
//! Benchmarking*) says which aggregates survive dropping raw samples:
//! quantiles, dispersion (CoV), extremes, and the gap-aware coverage
//! accounting. [`Sketch`] maintains exactly those in **fixed memory**:
//!
//! * **Streaming moments** — count, sum, sum of squares, min, max —
//!   folded in push order (mean/CoV are order-sensitive in the last
//!   ulp, so the caller's fold order is part of the contract).
//! * **An exact buffer** of the first [`SketchConfig::exact_cap`]
//!   values. While `n <= exact_cap` the sketch *is* the exact path:
//!   [`Sketch::quantile`] sorts the buffer with `total_cmp` and calls
//!   [`describe::quantile_sorted`](crate::describe::quantile_sorted),
//!   so small-N quantiles are **bit-identical** to
//!   [`Summary::from_samples`](crate::describe::Summary::from_samples)
//!   on the same multiset. This is the bit-pinned contract the
//!   `prop_sketch` suite and the verify.sh self-check gate enforce.
//! * **A fixed log-spaced histogram** over `[lo, hi]` with `buckets`
//!   bins (plus underflow/overflow bins). Beyond `exact_cap` the
//!   buffer is dropped and quantiles are interpolated inside the
//!   covering bucket, with relative value error bounded by a small
//!   multiple of [`SketchConfig::rel_error_bound`].
//!
//! ## Determinism and merging
//!
//! Everything in a sketch is a pure fold over its inputs: no clocks,
//! no allocation growth, no randomness. [`Sketch::merge`] is exact for
//! all integer state (counts, histogram, extremes) and sequential for
//! the float sums, so merging pane sketches **in a fixed pane order**
//! — the shard-ordered merge `exec` campaigns already guarantee —
//! yields byte-identical results at any worker count. Quantiles are
//! merge-order *invariant* outright: they depend only on the multiset
//! of pushed values (exact mode) or the bucket counts (histogram
//! mode), never on arrival order.

use crate::describe::quantile_sorted;

/// Shape of a [`Sketch`]: value range, bucket count, exact-mode cap.
///
/// Two sketches can only merge when their configs are identical; the
/// constructors below are the workspace's canonical shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchConfig {
    /// Lower edge of the bucketed range (values `< lo` underflow).
    pub lo: f64,
    /// Upper edge of the bucketed range (values `> hi` overflow).
    pub hi: f64,
    /// Number of log-spaced buckets across `[lo, hi]`.
    pub buckets: usize,
    /// Values retained exactly before switching to histogram mode.
    pub exact_cap: usize,
}

impl SketchConfig {
    /// Canonical shape for bandwidths in bits/s: 1 Mbps .. 1 Tbps in
    /// 2048 log buckets (≈0.68% max relative quantile error), exact to
    /// 1024 samples.
    pub fn bandwidth_bps() -> SketchConfig {
        SketchConfig { lo: 1e6, hi: 1e12, buckets: 2048, exact_cap: 1024 }
    }

    /// Canonical shape for dimensionless ratios (CoV, coverage):
    /// 1e-6 .. 1e2 in 2048 log buckets (≈0.9% max relative error).
    pub fn ratio() -> SketchConfig {
        SketchConfig { lo: 1e-6, hi: 1e2, buckets: 2048, exact_cap: 1024 }
    }

    /// The one-bucket relative width `(hi/lo)^(1/buckets) - 1`: the
    /// scale of the histogram-mode quantile error. The conservative
    /// guarantee checked by the property suite is three times this
    /// (bucket width, plus rank interpolation straddling a boundary).
    pub fn rel_error_bound(&self) -> f64 {
        if self.buckets == 0 || !(self.hi > self.lo) || !(self.lo > 0.0) {
            return f64::INFINITY;
        }
        (self.hi / self.lo).powf(1.0 / self.buckets as f64) - 1.0
    }
}

/// A fixed-memory deterministic quantile + moments sketch. See the
/// module docs for the exact/histogram contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch {
    cfg: SketchConfig,
    n: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    /// Values `< lo` (and non-finite garbage — clamped, not dropped).
    under: u64,
    /// Values `> hi`.
    over: u64,
    counts: Vec<u64>,
    /// First `exact_cap` values in push/merge order; emptied (and
    /// `overflowed` latched) the moment `n` exceeds the cap.
    exact: Vec<f64>,
    overflowed: bool,
}

impl Sketch {
    /// An empty sketch with the given shape.
    pub fn new(cfg: SketchConfig) -> Sketch {
        Sketch {
            cfg,
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            under: 0,
            over: 0,
            counts: vec![0; cfg.buckets],
            exact: Vec::new(),
            overflowed: false,
        }
    }

    /// The sketch's shape.
    pub fn config(&self) -> &SketchConfig {
        &self.cfg
    }

    /// Number of values pushed (or merged in).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Whether quantiles are still served from the exact buffer
    /// (bit-identical to the retained-sample path).
    pub fn is_exact(&self) -> bool {
        !self.overflowed
    }

    /// Smallest pushed value (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest pushed value (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean in push/merge order (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Sample standard deviation (n−1 denominator; 0 below two
    /// values). Computed from the streaming moments, so it matches the
    /// two-pass [`describe::std_dev`](crate::describe::std_dev) to
    /// float precision, not to the bit.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
        var.max(0.0).sqrt()
    }

    /// Coefficient of variation σ/μ (0 when the mean is 0).
    pub fn cov(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Fold one value into the sketch. Non-finite values land in the
    /// underflow/overflow bins, but only NaN is excluded from the
    /// extremes (every comparison with NaN is false); infinities update
    /// min/max and propagate through the streaming moments (mean/CoV
    /// become inf/NaN), exactly as they would a retained-trace mean.
    pub fn push(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.sum_sq += v * v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.bucket(v, 1);
        if !self.overflowed {
            if self.exact.len() < self.cfg.exact_cap {
                self.exact.push(v);
            } else {
                self.overflowed = true;
                self.exact = Vec::new();
            }
        }
    }

    /// Add `c` observations of `v` to the histogram bins.
    fn bucket(&mut self, v: f64, c: u64) {
        if !(v >= self.cfg.lo) {
            // Below range, or NaN (every comparison with NaN is false).
            self.under += c;
        } else if v > self.cfg.hi {
            self.over += c;
        } else {
            let span_ln = (self.cfg.hi / self.cfg.lo).ln();
            let frac = (v / self.cfg.lo).ln() / span_ln;
            let idx = ((frac * self.cfg.buckets as f64) as usize).min(self.cfg.buckets - 1);
            self.counts[idx] += c;
        }
    }

    /// Merge `other` into `self`, preserving `self`-then-`other` order
    /// for the order-sensitive float sums and the exact buffer.
    /// Returns `false` (and leaves `self` untouched) when the configs
    /// differ — merging differently-shaped sketches is a caller bug,
    /// surfaced as a typed condition instead of a panic.
    pub fn merge(&mut self, other: &Sketch) -> bool {
        if self.cfg != other.cfg {
            return false;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.under += other.under;
        self.over += other.over;
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        if self.overflowed || other.overflowed {
            self.overflowed = true;
            self.exact = Vec::new();
        } else if self.exact.len() + other.exact.len() <= self.cfg.exact_cap {
            self.exact.extend_from_slice(&other.exact);
        } else {
            self.overflowed = true;
            self.exact = Vec::new();
        }
        true
    }

    /// Quantile `p ∈ [0, 1]` (Hyndman–Fan type 7 ranks). `None` when
    /// the sketch is empty or `p` is out of range.
    ///
    /// Exact mode (`n <= exact_cap`): bit-identical to
    /// [`describe::quantile`](crate::describe::quantile) over the same
    /// multiset. Histogram mode: geometric interpolation inside the
    /// covering bucket, clamped to `[min, max]`; relative error is
    /// bounded by ≈3× [`SketchConfig::rel_error_bound`] for values
    /// inside `[lo, hi]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.n == 0 || !(0.0..=1.0).contains(&p) {
            return None;
        }
        if !self.overflowed {
            let mut sorted = self.exact.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            return Some(quantile_sorted(&sorted, p));
        }
        // Type-7 target rank over n values.
        let h = p * (self.n - 1) as f64;
        let mut cum = self.under;
        if (h as u64) < self.under || self.under == self.n {
            // The target order statistic fell below the bucketed range;
            // the best fixed-memory answer is the tracked minimum.
            return Some(self.min);
        }
        let span_ln = (self.cfg.hi / self.cfg.lo).ln();
        let b = self.cfg.buckets as f64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 > h {
                // Interpolate geometrically within bucket i.
                let frac_in = ((h - cum as f64) / c as f64).clamp(0.0, 1.0);
                let lo_ln = span_ln * (i as f64 / b);
                let width_ln = span_ln / b;
                let v = self.cfg.lo * (lo_ln + frac_in * width_ln).exp();
                return Some(v.clamp(self.min, self.max));
            }
            cum += c;
        }
        // Target rank landed in the overflow bin.
        Some(self.max)
    }

    /// Serialize the complete sketch state (bit-faithful: floats as
    /// `to_bits`), appending to `out`. [`decode`](Sketch::decode)
    /// round-trips it exactly — the streaming campaign's checkpoint
    /// records rely on this to make resumed runs byte-identical.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.cfg.lo.to_bits().to_le_bytes());
        out.extend_from_slice(&self.cfg.hi.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.cfg.buckets as u32).to_le_bytes());
        out.extend_from_slice(&(self.cfg.exact_cap as u32).to_le_bytes());
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.sum.to_bits().to_le_bytes());
        out.extend_from_slice(&self.sum_sq.to_bits().to_le_bytes());
        out.extend_from_slice(&self.min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.max.to_bits().to_le_bytes());
        out.extend_from_slice(&self.under.to_le_bytes());
        out.extend_from_slice(&self.over.to_le_bytes());
        out.push(self.overflowed as u8);
        out.extend_from_slice(&(self.exact.len() as u32).to_le_bytes());
        for v in &self.exact {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Deserialize a sketch from `bytes` starting at `*at`, advancing
    /// `*at` past it. `None` on truncated or nonsensical input.
    pub fn decode(bytes: &[u8], at: &mut usize) -> Option<Sketch> {
        let lo = f64::from_bits(take_u64(bytes, at)?);
        let hi = f64::from_bits(take_u64(bytes, at)?);
        let buckets = take_u32(bytes, at)? as usize;
        let exact_cap = take_u32(bytes, at)? as usize;
        if buckets == 0 || buckets > 1 << 20 || exact_cap > 1 << 24 {
            return None;
        }
        let n = take_u64(bytes, at)?;
        let sum = f64::from_bits(take_u64(bytes, at)?);
        let sum_sq = f64::from_bits(take_u64(bytes, at)?);
        let min = f64::from_bits(take_u64(bytes, at)?);
        let max = f64::from_bits(take_u64(bytes, at)?);
        let under = take_u64(bytes, at)?;
        let over = take_u64(bytes, at)?;
        let overflowed = match take_u8(bytes, at)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let exact_len = take_u32(bytes, at)? as usize;
        if exact_len > exact_cap {
            return None;
        }
        // Bound the declared lengths against the bytes actually present
        // before reserving: a corrupt header must not drive a ~128 MB
        // transient allocation. (exact_len ≤ 2^24 and buckets ≤ 2^20,
        // so the product cannot overflow.)
        if bytes.len().saturating_sub(*at) < (exact_len + buckets) * 8 {
            return None;
        }
        let mut exact = Vec::with_capacity(exact_len);
        for _ in 0..exact_len {
            exact.push(f64::from_bits(take_u64(bytes, at)?));
        }
        let mut counts = Vec::with_capacity(buckets);
        for _ in 0..buckets {
            counts.push(take_u64(bytes, at)?);
        }
        Some(Sketch {
            cfg: SketchConfig { lo, hi, buckets, exact_cap },
            n,
            sum,
            sum_sq,
            min,
            max,
            under,
            over,
            counts,
            exact,
            overflowed,
        })
    }
}

/// Gap-aware coverage counters for a campaign, or a fold of many, with
/// known holes.
///
/// Dropping lost intervals and summarizing the survivors as if nothing
/// happened silently biases long campaigns (the gaps are rarely
/// independent of the value being measured: stalls eat the *low*
/// samples). These counters carry what a report needs to decide
/// whether the survivors are trustworthy: how many observations were
/// expected, how many arrived, and how many distinct gaps there were.
/// They are integers, so they fold and merge exactly (no floats, no
/// order sensitivity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Observations the campaigns would have produced with no faults.
    pub expected: u64,
    /// Observations that actually arrived.
    pub observed: u64,
    /// Distinct gaps across all folded traces.
    pub gaps: u64,
}

impl Coverage {
    /// Merge another accumulator (exact: integer adds commute).
    pub fn merge(&mut self, other: &Coverage) {
        self.expected += other.expected;
        self.observed += other.observed;
        self.gaps += other.gaps;
    }

    /// Fraction of expected observations that arrived (1.0 when
    /// nothing was expected).
    pub fn coverage(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.observed as f64 / self.expected as f64
        }
    }

    /// Whether any data was lost.
    pub fn is_degraded(&self) -> bool {
        self.observed < self.expected
    }
}

fn take_u8(bytes: &[u8], at: &mut usize) -> Option<u8> {
    let v = *bytes.get(*at)?;
    *at += 1;
    Some(v)
}

fn take_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let s = bytes.get(*at..end)?;
    let mut b = [0u8; 4];
    b.copy_from_slice(s);
    *at = end;
    Some(u32::from_le_bytes(b))
}

fn take_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    let s = bytes.get(*at..end)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    *at = end;
    Some(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::{quantile, Summary};

    fn cfg_small() -> SketchConfig {
        SketchConfig { lo: 1e-3, hi: 1e3, buckets: 512, exact_cap: 64 }
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = Sketch::new(cfg_small());
        assert_eq!(s.n(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.cov(), 0.0);
    }

    #[test]
    fn exact_mode_is_bit_identical_to_describe() {
        let xs: Vec<f64> = (0..50).map(|i| 1.0 + (i as f64 * 13.7) % 90.0).collect();
        let mut s = Sketch::new(cfg_small());
        for &x in &xs {
            s.push(x);
        }
        assert!(s.is_exact());
        let exact = Summary::from_samples(&xs);
        for (p, want) in [
            (0.01, exact.box_summary.p1),
            (0.25, exact.box_summary.p25),
            (0.50, exact.box_summary.p50),
            (0.75, exact.box_summary.p75),
            (0.99, exact.box_summary.p99),
        ] {
            let got = s.quantile(p).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "p={p}");
        }
        assert_eq!(s.min().to_bits(), exact.min.to_bits());
        assert_eq!(s.max().to_bits(), exact.max.to_bits());
        // Mean folded in the same order: bit-identical to the sum path.
        assert_eq!(s.mean().to_bits(), crate::describe::mean(&xs).to_bits());
    }

    #[test]
    fn histogram_mode_bounds_relative_error() {
        let cfg = cfg_small();
        let xs: Vec<f64> = (0..5000)
            .map(|i| 0.01 * (1.0 + (i as f64 * 0.7919) % 400.0))
            .collect();
        let mut s = Sketch::new(cfg);
        for &x in &xs {
            s.push(x);
        }
        assert!(!s.is_exact());
        let bound = 3.0 * cfg.rel_error_bound() + 1e-12;
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let got = s.quantile(p).unwrap();
            let want = quantile(&xs, p);
            let rel = (got - want).abs() / want.abs().max(1e-300);
            assert!(rel <= bound, "p={p}: got {got}, want {want}, rel {rel} > {bound}");
        }
    }

    #[test]
    fn quantiles_are_push_order_invariant() {
        let cfg = cfg_small();
        let xs: Vec<f64> = (0..300).map(|i| 0.5 + (i as f64 * 3.1) % 200.0).collect();
        let mut fwd = Sketch::new(cfg);
        let mut rev = Sketch::new(cfg);
        for &x in &xs {
            fwd.push(x);
        }
        for &x in xs.iter().rev() {
            rev.push(x);
        }
        for p in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(
                fwd.quantile(p).unwrap().to_bits(),
                rev.quantile(p).unwrap().to_bits(),
                "p={p}"
            );
        }
    }

    #[test]
    fn pane_merge_is_deterministic_and_multiset_faithful() {
        let cfg = cfg_small();
        let xs: Vec<f64> = (0..200).map(|i| 0.1 + (i as f64 * 1.37) % 500.0).collect();
        let mut whole = Sketch::new(cfg);
        for &x in &xs {
            whole.push(x);
        }
        // Pane sketches merged in pane order: done twice, the results
        // must be bit-identical (this is the jobs-invariance contract —
        // the pane structure is fixed, only who computes each pane
        // varies). The float sums may differ from the straight serial
        // fold in the last ulp (addition is not associative), but the
        // multiset-derived state (n, counts, extremes, quantiles) is
        // identical to the whole fold.
        let fold_panes = || {
            let mut merged = Sketch::new(cfg);
            for pane in xs.chunks(64) {
                let mut part = Sketch::new(cfg);
                for &x in pane {
                    part.push(x);
                }
                assert!(merged.merge(&part));
            }
            merged
        };
        let a = fold_panes();
        let b = fold_panes();
        assert_eq!(a, b);
        assert_eq!(a.n(), whole.n());
        assert_eq!(a.min().to_bits(), whole.min().to_bits());
        assert_eq!(a.max().to_bits(), whole.max().to_bits());
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(
                a.quantile(p).unwrap().to_bits(),
                whole.quantile(p).unwrap().to_bits(),
                "p={p}"
            );
        }
        assert!((a.mean() - whole.mean()).abs() / whole.mean() < 1e-12);
    }

    #[test]
    fn merge_rejects_config_mismatch() {
        let mut a = Sketch::new(cfg_small());
        let b = Sketch::new(SketchConfig::bandwidth_bps());
        a.push(1.0);
        let before = a.clone();
        assert!(!a.merge(&b));
        assert_eq!(a, before);
    }

    #[test]
    fn exact_overflow_latches_and_drops_buffer() {
        let cfg = SketchConfig { exact_cap: 8, ..cfg_small() };
        let mut s = Sketch::new(cfg);
        for i in 0..9 {
            s.push(1.0 + i as f64);
        }
        assert!(!s.is_exact());
        assert!(s.exact.is_empty(), "buffer freed on overflow");
        // Histogram mode still answers, clamped to the true extremes.
        let q = s.quantile(0.5).unwrap();
        assert!((1.0..=9.0).contains(&q));
    }

    #[test]
    fn out_of_range_values_clamp_to_extremes() {
        let mut s = Sketch::new(SketchConfig { exact_cap: 2, ..cfg_small() });
        for &v in &[1e-9, 0.5, 1.0, 2.0, 1e9] {
            s.push(v);
        }
        assert_eq!(s.under, 1);
        assert_eq!(s.over, 1);
        assert_eq!(s.quantile(0.0).unwrap(), 1e-9);
        assert_eq!(s.quantile(1.0).unwrap(), 1e9);
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        for take in [10usize, 200] {
            let mut s = Sketch::new(cfg_small());
            for i in 0..take {
                s.push(0.01 + (i as f64 * 2.3) % 700.0);
            }
            let mut bytes = Vec::new();
            s.encode_into(&mut bytes);
            let mut at = 0usize;
            let back = Sketch::decode(&bytes, &mut at).unwrap();
            assert_eq!(at, bytes.len());
            assert_eq!(back, s);
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut s = Sketch::new(cfg_small());
        s.push(1.0);
        let mut bytes = Vec::new();
        s.encode_into(&mut bytes);
        for cut in [0, 1, 8, bytes.len() - 1] {
            let mut at = 0usize;
            assert!(Sketch::decode(&bytes[..cut], &mut at).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn coverage_counters_fold_and_merge() {
        let mut a = Coverage { expected: 100, observed: 90, gaps: 3 };
        a.merge(&Coverage { expected: 50, observed: 50, gaps: 0 });
        assert_eq!(a, Coverage { expected: 150, observed: 140, gaps: 3 });
        assert!((a.coverage() - 140.0 / 150.0).abs() < 1e-15);
        assert!(a.is_degraded());
        assert_eq!(Coverage::default().coverage(), 1.0);
        assert!(!Coverage::default().is_degraded());

        // Total loss: nothing of 50 arrived.
        let lost = Coverage { expected: 50, observed: 0, gaps: 1 };
        assert_eq!(lost.coverage(), 0.0);
        assert!(lost.is_degraded());
        // Fewer observed than expected is degraded; all observed is not.
        let short = Coverage { expected: 100, observed: 80, gaps: 3 };
        assert!((short.coverage() - 0.8).abs() < 1e-12);
        assert!(short.is_degraded());
        let full = Coverage { expected: 80, observed: 80, gaps: 0 };
        assert_eq!(full.coverage(), 1.0);
        assert!(!full.is_degraded());
    }

    #[test]
    fn streaming_moments_match_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| 50.0 + ((i * 17) % 97) as f64).collect();
        let mut s = Sketch::new(cfg_small());
        for &x in &xs {
            s.push(x);
        }
        let sd = crate::describe::std_dev(&xs);
        let cov = crate::describe::coefficient_of_variation(&xs);
        assert!((s.std_dev() - sd).abs() / sd < 1e-9);
        assert!((s.cov() - cov).abs() / cov < 1e-9);
    }
}
