//! Property-based tests over the streaming quantile sketch.
//!
//! The sketch backs the million-tenant campaign aggregator, so its
//! contracts are determinism contracts: folding the same multiset
//! through the same pane structure must be bit-identical no matter how
//! the panes were computed, and quantiles must stay within the
//! advertised error of the exact `describe` path.

use proplite::prelude::*;
use vstats::describe::quantile;
use vstats::sketch::{Coverage, Sketch, SketchConfig};

/// Bandwidth-like positive samples within the bandwidth config's range.
fn bw_vec(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    vec_of(1e6f64..1e12, n)
}

/// Fold `xs` pane by pane (`pane` samples each), merging pane accums
/// in pane order — the exact shape the campaign driver uses.
fn pane_fold(xs: &[f64], pane: usize) -> Sketch {
    let mut whole = Sketch::new(SketchConfig::bandwidth_bps());
    for chunk in xs.chunks(pane.max(1)) {
        let mut acc = Sketch::new(SketchConfig::bandwidth_bps());
        for &x in chunk {
            acc.push(x);
        }
        assert!(whole.merge(&acc));
    }
    whole
}

fn encode(s: &Sketch) -> Vec<u8> {
    let mut b = Vec::new();
    s.encode_into(&mut b);
    b
}

prop_cases! {
    #![config(Config::with_cases(48))]

    #[test]
    fn pane_merge_is_bit_deterministic(xs in bw_vec(1..400), pane in 1usize..64) {
        // Two identical pane folds are byte-identical — the property
        // that makes campaign reports diffable across worker counts.
        let a = pane_fold(&xs, pane);
        let b = pane_fold(&xs, pane);
        prop_assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn pane_structure_preserves_the_multiset(xs in bw_vec(1..400), pane in 1usize..64) {
        // Different pane sizes change float-sum rounding (last-ulp) but
        // never the counted multiset: n, min, max, bucket occupancy,
        // and therefore every quantile, are pane-size invariant.
        let serial = pane_fold(&xs, xs.len());
        let paned = pane_fold(&xs, pane);
        prop_assert_eq!(serial.n(), paned.n());
        prop_assert_eq!(serial.min().to_bits(), paned.min().to_bits());
        prop_assert_eq!(serial.max().to_bits(), paned.max().to_bits());
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let qs = serial.quantile(p).unwrap();
            let qp = paned.quantile(p).unwrap();
            prop_assert_eq!(qs.to_bits(), qp.to_bits(), "p={}", p);
        }
        let rel = (serial.mean() - paned.mean()).abs() / serial.mean().abs().max(1e-300);
        prop_assert!(rel < 1e-12, "means drift only in rounding: {}", rel);
    }

    #[test]
    fn small_n_quantiles_are_bit_pinned_to_describe(xs in bw_vec(1..500)) {
        // Below the exact-buffer cap the sketch IS the exact estimator.
        let s = pane_fold(&xs, 37);
        prop_assert!(s.is_exact());
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let want = quantile(&xs, p);
            let got = s.quantile(p).unwrap();
            prop_assert_eq!(got.to_bits(), want.to_bits(), "p={}", p);
        }
    }

    #[test]
    fn overflowed_quantiles_bracket_the_order_statistics(xs in bw_vec(1100..2200)) {
        // Past the cap the histogram takes over. The guarantee is rank-
        // aware: the estimate lands within one log-bucket of the order
        // statistics bracketing the requested rank. (A plain relative-
        // error bound against the interpolated exact quantile does not
        // exist — adjacent samples can be arbitrarily far apart.)
        let s = pane_fold(&xs, 256);
        prop_assert!(!s.is_exact());
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let cushion = 1.0 + 2.0 * s.config().rel_error_bound();
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let h = p * (sorted.len() - 1) as f64;
            let lo_stat = sorted[h.floor() as usize];
            let hi_stat = sorted[(h.floor() as usize + 1).min(sorted.len() - 1)];
            let got = s.quantile(p).unwrap();
            prop_assert!(
                got >= lo_stat / cushion && got <= hi_stat * cushion,
                "p={} got={} bracket=[{}, {}]", p, got, lo_stat, hi_stat
            );
        }
    }

    #[test]
    fn encode_decode_roundtrips(xs in bw_vec(0..1500), pane in 1usize..200) {
        let s = pane_fold(&xs, pane);
        let bytes = encode(&s);
        let mut at = 0;
        let back = Sketch::decode(&bytes, &mut at).expect("decode");
        prop_assert_eq!(at, bytes.len());
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn decode_rejects_every_truncation(xs in bw_vec(0..100)) {
        let s = pane_fold(&xs, 16);
        let bytes = encode(&s);
        for cut in 0..bytes.len() {
            let mut at = 0;
            prop_assert!(Sketch::decode(&bytes[..cut], &mut at).is_none(), "cut={}", cut);
        }
    }

    #[test]
    fn coverage_merge_is_order_free(parts in vec_of((0u64..1000, 0u64..1000, 0u64..50), 0..20)) {
        let mut fwd = Coverage::default();
        let mut rev = Coverage::default();
        for &(e, o, g) in &parts {
            fwd.merge(&Coverage { expected: e, observed: o.min(e), gaps: g });
        }
        for &(e, o, g) in parts.iter().rev() {
            rev.merge(&Coverage { expected: e, observed: o.min(e), gaps: g });
        }
        prop_assert_eq!(fwd, rev);
        prop_assert!(fwd.coverage() >= 0.0 && fwd.coverage() <= 1.0);
    }
}
