//! Property-based tests over the statistics toolkit.

use proplite::prelude::*;
use vstats::bootstrap::bootstrap_ci;
use vstats::describe::{ecdf, histogram, mean, quantile, BoxSummary, Summary};
use vstats::htest::mannwhitney::mann_whitney_u;
use vstats::htest::shapiro::shapiro_wilk;
use vstats::kappa::cohens_kappa;
use vstats::{confirm_curve, quantile_ci};

fn finite_vec(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    vec_of(-1e9f64..1e9, n)
}

prop_cases! {
    #![config(Config::with_cases(64))]

    #[test]
    fn quantile_bounded_and_monotone(xs in finite_vec(1..300)) {
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = quantile(&xs, i as f64 / 20.0);
            prop_assert!(q >= min - 1e-9 && q <= max + 1e-9);
            prop_assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn summary_internal_consistency(xs in finite_vec(2..300)) {
        let s = Summary::from_samples(&xs);
        prop_assert!(s.min <= s.box_summary.p1 + 1e-9);
        prop_assert!(s.box_summary.p99 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std_dev >= 0.0);
        let b = BoxSummary::from_samples(&xs);
        prop_assert_eq!(b, s.box_summary);
    }

    #[test]
    fn ecdf_is_a_cdf(xs in finite_vec(1..200)) {
        let e = ecdf(&xs);
        prop_assert_eq!(e.len(), xs.len());
        prop_assert!((e.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in e.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn histogram_conserves_count(xs in finite_vec(0..200), bins in 1usize..50) {
        let h = histogram(&xs, -1e9, 1e9, bins);
        prop_assert_eq!(h.len(), bins);
        prop_assert_eq!(h.iter().sum::<u64>(), xs.len() as u64);
    }

    #[test]
    fn kappa_bounds_and_identity(labels in vec_of(0u8..4, 2..100)) {
        prop_assert_eq!(cohens_kappa(&labels, &labels), 1.0);
        // Against a shifted copy, kappa stays within [-1, 1].
        let mut other = labels.clone();
        other.rotate_left(1);
        let k = cohens_kappa(&labels, &other);
        prop_assert!((-1.0..=1.0).contains(&k), "kappa {}", k);
    }

    #[test]
    fn mann_whitney_p_valid_and_symmetric(
        a in finite_vec(3..60),
        b in finite_vec(3..60),
    ) {
        let r1 = mann_whitney_u(&a, &b);
        let r2 = mann_whitney_u(&b, &a);
        prop_assert!((0.0..=1.0).contains(&r1.p_value));
        prop_assert!((r1.p_value - r2.p_value).abs() < 1e-9);
        // U1 + U2 = n1 * n2.
        prop_assert!((r1.u + r2.u - (a.len() * b.len()) as f64).abs() < 1e-6);
    }

    #[test]
    fn shapiro_w_in_unit_interval(xs in vec_of(-1e6f64..1e6, 3..500)) {
        // Need a non-degenerate sample.
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assume!(max > min);
        let r = shapiro_wilk(&xs);
        prop_assert!(r.w > 0.0 && r.w <= 1.0, "W {}", r.w);
        prop_assert!((0.0..=1.0).contains(&r.p_value));
    }

    #[test]
    fn bootstrap_brackets_reasonably(xs in finite_vec(5..100), seed in 0u64..100) {
        let ci = bootstrap_ci(&xs, mean, 200, 0.95, seed, exec::current_jobs());
        prop_assert!(ci.lower <= ci.upper);
        // The point estimate need not be inside a percentile CI for
        // pathological data, but for the mean of bounded data it is.
        prop_assert!(ci.lower <= ci.estimate + 1e-6 && ci.estimate <= ci.upper + 1e-6);
    }

    #[test]
    fn quantile_ci_nesting(xs in finite_vec(30..200)) {
        // A 99% CI contains the 90% CI for the same quantile.
        if let (Some(lo), Some(hi)) = (
            quantile_ci(&xs, 0.5, 0.90),
            quantile_ci(&xs, 0.5, 0.99),
        ) {
            prop_assert!(hi.lower <= lo.lower + 1e-9);
            prop_assert!(hi.upper >= lo.upper - 1e-9);
        }
    }

    #[test]
    fn confirm_curve_shape(xs in finite_vec(1..120)) {
        let curve = confirm_curve(&xs, 0.5, 0.95);
        prop_assert_eq!(curve.len(), xs.len());
        for (i, pt) in curve.iter().enumerate() {
            prop_assert_eq!(pt.n, i + 1);
            if let Some(ci) = pt.ci {
                prop_assert!(ci.lower <= pt.estimate && pt.estimate <= ci.upper);
            }
        }
    }
}
