//! End-to-end parallelism invariance: the whole stack — fleet
//! campaigns with faults, pattern sweeps, bootstrap CIs — produces
//! byte-identical results at worker counts 1, 2, and 8.
//!
//! This is the cross-crate companion to the unit/property suites in
//! `crates/exec` (runtime invariants), `crates/measure` (fleet
//! assembly), and `crates/stats` (resample streams).

use cloud_repro::prelude::*;
use measure::{run_all_patterns_jobs, run_fleet, FleetResult, FleetSpec};
use netsim::units::hours;
use netsim::TrafficPattern;
use vstats::{bootstrap_ci_jobs, block_bootstrap_ci_jobs, mean};

/// Serialize every result field down to f64 bit patterns.
fn fingerprint(fleet: &FleetResult) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = write!(
        s,
        "{:x}|{:x}|{:x}|{}|{}",
        fleet.across_pairs.mean.to_bits(),
        fleet.across_pairs.cov.to_bits(),
        fleet.mean_within_pair_cov.to_bits(),
        fleet.failed_pairs.len(),
        fleet.panicked.len()
    );
    for p in &fleet.pairs {
        let _ = write!(s, "|{}:{:x}", p.trace.samples.len(), p.summary.mean.to_bits());
        for g in &p.gaps {
            let _ = write!(s, ";{:x}-{:x}-{}", g.start_s.to_bits(), g.end_s.to_bits(), g.cause.label());
        }
    }
    s
}

#[test]
fn faulty_fleet_is_worker_count_invariant_end_to_end() {
    let mut profile = clouds::hpccloud::n_core(8).with_reference_faults();
    profile.faults.pair_death_rate_per_hour = 0.1;
    let spec = FleetSpec::new(profile, TrafficPattern::FullSpeed, hours(6.0), 6, 42);
    let serial = run_fleet(&spec, 1).expect("fleet survives");
    assert!(serial.is_degraded(), "reference faults over 6 h should cost something");
    for jobs in [2usize, 8] {
        let wide = run_fleet(&spec, jobs).expect("fleet survives");
        assert_eq!(fingerprint(&wide), fingerprint(&serial), "jobs={jobs}");
    }
}

#[test]
fn pattern_sweep_is_worker_count_invariant() {
    let profile = clouds::gce::n_core(8);
    let serial = run_all_patterns_jobs(&profile, hours(3.0), 7, 1).expect("patterns run");
    for jobs in [2usize, 8] {
        let wide = run_all_patterns_jobs(&profile, hours(3.0), 7, jobs).expect("patterns run");
        for (a, b) in wide.iter().zip(serial.iter()) {
            assert_eq!(a.trace.samples, b.trace.samples, "jobs={jobs} pattern={}", a.pattern);
            assert_eq!(a.total_retransmissions, b.total_retransmissions);
        }
    }
}

#[test]
fn bootstrap_cis_are_worker_count_invariant() {
    // Feed the bootstrap real campaign output, not synthetic data.
    let profile = clouds::ec2::c5_xlarge();
    let res = measure::run_campaign(&profile, TrafficPattern::FullSpeed, hours(2.0), 3)
        .expect("campaign runs");
    let xs = res.trace.bandwidths();
    let iid1 = bootstrap_ci_jobs(&xs, mean, 1000, 0.95, 5, 1);
    let blk1 = block_bootstrap_ci_jobs(&xs, mean, 8, 1000, 0.95, 5, 1);
    for jobs in [2usize, 8] {
        let iid = bootstrap_ci_jobs(&xs, mean, 1000, 0.95, 5, jobs);
        let blk = block_bootstrap_ci_jobs(&xs, mean, 8, 1000, 0.95, 5, jobs);
        assert_eq!(iid.lower.to_bits(), iid1.lower.to_bits(), "jobs={jobs}");
        assert_eq!(iid.upper.to_bits(), iid1.upper.to_bits(), "jobs={jobs}");
        assert_eq!(blk.lower.to_bits(), blk1.lower.to_bits(), "jobs={jobs}");
        assert_eq!(blk.upper.to_bits(), blk1.upper.to_bits(), "jobs={jobs}");
    }
}

#[test]
fn exec_is_reachable_through_the_prelude() {
    // The CLI and examples resolve workers through the re-exported
    // crate; nothing should need a direct `exec` dependency.
    assert!(exec::current_jobs() >= 1);
    let doubled = exec::par_map(4, &[1u64, 2, 3], |&x| x * 2);
    assert_eq!(doubled, vec![2, 4, 6]);
}
