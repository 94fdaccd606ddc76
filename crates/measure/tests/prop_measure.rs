//! Property-based tests over the measurement harness.

use measure::{probe_token_bucket, run_campaign, RestPlanner};
use netsim::faults::FaultConfig;
use netsim::TrafficPattern;
use proplite::prelude::*;

prop_cases! {
    #![config(Config::with_cases(24))]

    /// Campaigns over any profile/pattern/seed produce internally
    /// consistent traces: positive bits, bounded bandwidth, ordered
    /// timestamps, and a summary matching its own samples.
    #[test]
    fn campaign_consistency(
        seed in 0u64..300,
        which in 0usize..3,
        pattern_idx in 0usize..3,
        minutes in 20u64..60,
    ) {
        let profile = match which {
            0 => clouds::ec2::c5_xlarge(),
            1 => clouds::gce::n_core(8),
            _ => clouds::hpccloud::n_core(8),
        };
        let pattern = TrafficPattern::ALL[pattern_idx];
        let res = run_campaign(&profile, pattern, minutes as f64 * 60.0, seed).unwrap();
        prop_assert!(res.total_bits > 0.0);
        prop_assert!(res.summary.max <= 21e9);
        prop_assert!(res.summary.min >= 0.0);
        let ts: Vec<f64> = res.trace.samples.iter().map(|s| s.t).collect();
        prop_assert!(ts.windows(2).all(|w| w[0] < w[1]));
        let bits_sum: f64 = res.trace.samples.iter().map(|s| s.bits).sum();
        prop_assert!((bits_sum - res.total_bits).abs() < 1.0);
    }

    /// Bucket probes, when they succeed, recover parameters consistent
    /// with the profile family: high > low, budget ≈ tte × (high − low).
    #[test]
    fn probe_self_consistency(seed in 0u64..300) {
        let profile = clouds::ec2::c5_xlarge();
        if let Some(est) = probe_token_bucket(&profile, seed, 2000.0) {
            prop_assert!(est.high_bps > est.low_bps);
            let implied = est.time_to_empty_s * (est.high_bps - est.low_bps);
            prop_assert!((implied - est.budget_bits).abs() < 1.0);
            prop_assert!(est.time_to_empty_s > 300.0 && est.time_to_empty_s < 1000.0);
        }
    }

    /// Rest planning is monotone: consuming more requires resting at
    /// least as long, and resting to a higher target never takes less.
    #[test]
    fn rest_planning_monotone(
        budget in 100.0f64..5000.0,
        c1 in 0.0f64..5000.0,
        c2 in 0.0f64..5000.0,
        frac in 0.1f64..1.0,
    ) {
        let p = RestPlanner {
            budget_bits: budget * 1e9,
            refill_bps: 1e9,
            high_bps: 10e9,
        };
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(p.rest_needed_s(hi * 1e9, frac) >= p.rest_needed_s(lo * 1e9, frac));
        prop_assert!(p.rest_needed_s(c1 * 1e9, 1.0) >= p.rest_needed_s(c1 * 1e9, frac));
        prop_assert!(p.rest_needed_s(c1 * 1e9, frac) >= 0.0);
    }

    /// Faulty campaigns are bit-for-bit reproducible from the seed:
    /// same seed → identical surviving trace, gaps, and accounting.
    #[test]
    fn faulty_campaign_is_deterministic(
        seed in 0u64..200,
        which in 0usize..3,
        hours in 2u64..12,
    ) {
        let profile = match which {
            0 => clouds::ec2::c5_xlarge(),
            1 => clouds::gce::n_core(8),
            _ => clouds::hpccloud::n_core(8),
        }
        .with_reference_faults();
        let duration = hours as f64 * 3600.0;
        let a = run_campaign(&profile, TrafficPattern::FullSpeed, duration, seed).unwrap();
        let b = run_campaign(&profile, TrafficPattern::FullSpeed, duration, seed).unwrap();
        prop_assert!(a.trace.samples == b.trace.samples);
        prop_assert!(a.gaps == b.gaps);
        prop_assert!(a.coverage == b.coverage);
        // Accounting invariants: the expected count covers every
        // surviving sample, coverage is a fraction, gaps are ordered
        // and inside the campaign window.
        prop_assert!(a.coverage.expected >= a.coverage.observed);
        prop_assert!(a.coverage.observed == a.trace.samples.len() as u64);
        prop_assert!((0.0..=1.0).contains(&a.coverage()));
        for g in &a.gaps {
            prop_assert!(g.start_s < g.end_s && g.end_s <= duration + 1e-9);
        }
    }

    /// A fault config whose rates are all zero leaves the campaign
    /// byte-identical to the stock no-fault path, whatever the other
    /// knobs say.
    #[test]
    fn zero_rate_faults_are_byte_identical_to_no_faults(
        seed in 0u64..200,
        stall_mean in 0.0f64..300.0,
        degrade_mean in 0.0f64..300.0,
        loss_frac in 0.0f64..1.0,
        minutes in 20u64..90,
    ) {
        let stock = clouds::hpccloud::n_core(8);
        let zeroed = stock.clone().with_faults(FaultConfig {
            stall_mean_s: stall_mean,
            degrade_mean_s: degrade_mean,
            loss_frac,
            ..FaultConfig::NONE
        });
        let duration = minutes as f64 * 60.0;
        let a = run_campaign(&stock, TrafficPattern::TEN_THIRTY, duration, seed).unwrap();
        let b = run_campaign(&zeroed, TrafficPattern::TEN_THIRTY, duration, seed).unwrap();
        prop_assert!(a.trace.samples == b.trace.samples);
        prop_assert!(a.summary == b.summary);
        prop_assert!(b.gaps.is_empty());
        prop_assert!(b.coverage() == 1.0 && !b.is_degraded());
    }

    /// Fingerprints always match themselves and drift symmetrically in
    /// presence/absence of findings.
    #[test]
    fn fingerprint_reflexive(seed in 0u64..100, which in 0usize..3) {
        let profile = match which {
            0 => clouds::ec2::c5_xlarge(),
            1 => clouds::gce::n_core(4),
            _ => clouds::hpccloud::n_core(8),
        };
        let fp = measure::Fingerprint::capture(&profile, seed, false);
        prop_assert!(fp.matches(&fp, 0.01));
        prop_assert!(fp.base_bandwidth_gbps > 0.0);
        prop_assert!(fp.base_rtt_ms > 0.0);
    }
}
