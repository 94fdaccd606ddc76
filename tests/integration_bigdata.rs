//! Cross-crate integration: the big-data engine on top of shaped
//! fabrics — budget coupling, stragglers, and repetition policies.

use cloud_repro::prelude::*;
use bigdata::engine::{run_job_traced, EngineConfig};
use bigdata::runner::{durations, run_repetitions, BudgetPolicy};
use bigdata::straggler::detect_stragglers;
use bigdata::workloads::{hibench, tpcds};
use bigdata::Cluster;
use netsim::units::gbps;

#[test]
fn budget_monotonicity_for_network_heavy_workloads() {
    let job = tpcds::query(65);
    let mut means = Vec::new();
    for budget in [5000.0, 100.0, 10.0] {
        let mut cluster = Cluster::ec2_emulated(12, 16, budget);
        let policy = BudgetPolicy::PresetGbit(budget);
        let runs = run_repetitions(&mut cluster, &job, 3, policy, 1, &EngineConfig::default());
        let d = durations(&runs);
        means.push(d.iter().sum::<f64>() / d.len() as f64);
    }
    assert!(means[0] < means[1] && means[1] < means[2], "{means:?}");
    // Slowdown magnitude in the Figure 17 range for q65.
    assert!(means[2] / means[0] > 1.6 && means[2] / means[0] < 5.0);
}

#[test]
fn carry_over_breaks_independence_fresh_vms_restore_it() {
    let job = tpcds::query(65);
    // Carry-over: back-to-back runs on one cluster deplete the budget.
    let mut cluster = Cluster::ec2_emulated(12, 16, 600.0);
    let carry = durations(&run_repetitions(
        &mut cluster,
        &job,
        8,
        BudgetPolicy::CarryOver { rest_s: 5.0 },
        2,
        &EngineConfig::default(),
    ));
    assert!(
        carry.last().unwrap() > &(1.3 * carry[0]),
        "expected drift: {carry:?}"
    );
    // Fresh VMs: no drift.
    let mut cluster = Cluster::ec2_emulated(12, 16, 600.0);
    let fresh = durations(&run_repetitions(
        &mut cluster,
        &job,
        8,
        BudgetPolicy::FreshVms,
        2,
        &EngineConfig::default(),
    ));
    let spread = fresh.iter().cloned().fold(0.0f64, f64::max)
        / fresh.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 1.2, "fresh runs should be stable: {fresh:?}");
}

#[test]
fn drift_is_caught_by_the_assumption_battery() {
    // The F5.4 story end to end: a drifting (carry-over) measurement
    // sequence fails the iid battery; a fresh-VM sequence passes.
    let job = tpcds::query(65).scaled(1.0, 1.2);
    let mut cluster = Cluster::ec2_emulated(12, 16, 2000.0);
    let carry = durations(&run_repetitions(
        &mut cluster,
        &job,
        24,
        BudgetPolicy::CarryOver { rest_s: 5.0 },
        3,
        &EngineConfig::default(),
    ));
    let report = MeasurementReport::new("carry-over q65", &carry);
    assert!(
        !report.assumptions.unwrap().iid_assumptions_hold(),
        "drift undetected: {carry:?}"
    );
}

#[test]
fn skewed_sequences_build_stragglers() {
    let cfg = EngineConfig {
        compute_jitter_sigma: 0.05,
        ..Default::default()
    };
    let mut cluster = Cluster::ec2_emulated(6, 8, 400.0);
    let job = tpcds::query(55).scaled(0.5, 0.5).with_skew(0.8).with_hot_node(2);
    let mut merged: Vec<bigdata::NodeTrace> = (0..6)
        .map(|node| bigdata::NodeTrace {
            node,
            samples: Vec::new(),
        })
        .collect();
    for pass in 0..6 {
        let (_r, traces) = run_job_traced(&mut cluster, &job, pass, &cfg);
        for tr in traces {
            merged[tr.node].samples.extend(tr.samples);
        }
    }
    let report = detect_stragglers(&merged, gbps(2.0));
    assert_eq!(report.stragglers, vec![2], "{:?}", report.throttled_fraction);
}

#[test]
fn hibench_network_ordering_survives_execution() {
    // The profile-level intensity ordering shows up in measured
    // budget sensitivity.
    let sensitivity = |job: &bigdata::JobSpec| {
        let mut fast = Cluster::ec2_emulated(12, 16, 5000.0);
        let f = bigdata::run_job(&mut fast, job, 7).duration_s;
        let mut slow = Cluster::ec2_emulated(12, 16, 10.0);
        let s = bigdata::run_job(&mut slow, job, 7).duration_s;
        s / f
    };
    let ts = sensitivity(&hibench::terasort());
    let km = sensitivity(&hibench::kmeans());
    assert!(ts > 1.2, "terasort sensitivity {ts}");
    assert!(km < 1.1, "kmeans sensitivity {km}");
}

#[test]
fn gce_and_hpccloud_clusters_run_jobs_too() {
    for profile in [clouds::gce::n_core(8), clouds::hpccloud::n_core(8)] {
        let mut cluster = Cluster::from_profile(&profile, 8, 8, 11);
        let job = tpcds::query(3);
        let r = bigdata::run_job(&mut cluster, &job, 11);
        assert!(r.duration_s > 10.0 && r.duration_s < 300.0, "{}", r.duration_s);
        assert!(r.node_tx_bits.iter().sum::<f64>() > 0.0);
    }
}
