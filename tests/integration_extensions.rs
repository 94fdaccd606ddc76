//! Cross-crate integration of the beyond-the-paper extensions: the
//! protocol runner over timeline-allocated VMs, rest planning feeding
//! the repetition driver, cross traffic destabilizing experiments, and
//! the congestion model agreeing with the fluid model's steady state.

use cloud_repro::prelude::*;
use bigdata::engine::EngineConfig;
use bigdata::runner::{durations, run_repetitions, BudgetPolicy};
use bigdata::workloads::tpcds;
use bigdata::Cluster;
use netsim::congestion::{run_reno, RenoConfig};
use netsim::fabric::CrossTraffic;
use netsim::nic::{NicConfig, NicModel};
use netsim::units::{gbit, gbps};
use repro_core::{run_protocol, ProtocolConfig, ProtocolOutcome};

#[test]
fn timeline_fingerprint_protocol_chain() {
    // Allocate a fleet across the policy-change date; the protocol's
    // drift gate separates comparable from incomparable batches.
    let timeline = clouds::PolicyTimeline::c5_xlarge_2018_2019();
    let baseline = measure::Fingerprint::capture(&timeline.profile, 50, false);

    let mut aborted = 0;
    let mut proceeded = 0;
    for seed in 0..12u64 {
        let vm = timeline.allocate(clouds::timeline::AUG_2019 + 5, seed);
        let mut current = baseline.clone();
        current.base_bandwidth_gbps = vm.line_rate_bps / 1e9;
        let res = run_protocol(
            &ProtocolConfig {
                pilot_runs: 5,
                max_runs: 12,
                target_error: 0.10,
                seed,
                ..Default::default()
            },
            Some(&baseline),
            &current,
            |_r, s| 100.0 + (s % 7) as f64,
        );
        match res.outcome {
            ProtocolOutcome::EnvironmentDrift(_) => aborted += 1,
            _ => proceeded += 1,
        }
    }
    // Both populations exist post-change ("though not consistently").
    assert!(aborted >= 2, "aborted {aborted}");
    assert!(proceeded >= 2, "proceeded {proceeded}");
}

#[test]
fn rest_planner_restores_run_independence() {
    // Probe the bucket, plan a rest long enough to repay each run's
    // consumption, and verify the carry-over campaign stays stable.
    let profile = clouds::ec2::c5_xlarge();
    let est = measure::probe_token_bucket(&profile, 60, 2000.0).unwrap();
    let planner = measure::RestPlanner::from_probe(&est);

    let job = tpcds::query(65); // ~173 Gbit/node per run
    let per_node_bits = job.total_shuffle_bits() / 12.0;
    let rest = planner.rest_between_runs_s(per_node_bits, 45.0);
    assert!(rest > 60.0, "planned rest {rest}");

    let mut cluster = Cluster::ec2_emulated(12, 16, 600.0);
    let with_rest = durations(&run_repetitions(
        &mut cluster,
        &job,
        6,
        BudgetPolicy::CarryOver { rest_s: rest },
        1,
        &EngineConfig::default(),
    ));
    let spread = with_rest.iter().cloned().fold(0.0f64, f64::max)
        / with_rest.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 1.25, "rested runs {with_rest:?}");

    // The same campaign with token rests skipped drifts badly.
    let mut cluster = Cluster::ec2_emulated(12, 16, 600.0);
    let no_rest = durations(&run_repetitions(
        &mut cluster,
        &job,
        6,
        BudgetPolicy::CarryOver { rest_s: 5.0 },
        1,
        &EngineConfig::default(),
    ));
    assert!(
        no_rest.last().unwrap() > &(1.3 * no_rest[0]),
        "unrested runs {no_rest:?}"
    );
}

#[test]
fn cross_traffic_widens_experiment_cis() {
    let job = tpcds::query(65);
    let run_with = |noise: bool, rep: u64| {
        let mut c = Cluster::ec2_emulated(6, 8, 5000.0);
        if noise {
            c = c.with_cross_traffic(CrossTraffic::new(1.0, 10e9, gbps(5.0), 40 + rep));
        }
        bigdata::run_job(&mut c, &job, rep).duration_s
    };
    let quiet: Vec<f64> = (0..10).map(|r| run_with(false, r)).collect();
    let noisy: Vec<f64> = (0..10).map(|r| run_with(true, r)).collect();
    let q = MeasurementReport::new("quiet", &quiet);
    let n = MeasurementReport::new("noisy", &noisy);
    assert!(n.summary.cov > q.summary.cov, "noise must add variance");
    assert!(n.summary.mean > q.summary.mean, "noise must slow runs");
    // And the effect is a real distribution shift, not a fluke.
    let d = vstats::effect::cliffs_delta(&noisy, &quiet);
    assert!(d > 0.5, "cliffs delta {d}");
}

#[test]
fn congestion_model_agrees_with_fluid_steady_state() {
    // Same bucket, two models: long-run goodput within 25%.
    let fluid = {
        let mut tb = netsim::shaper::TokenBucket::sigma_rho(gbit(100.0), gbps(1.0), gbps(10.0));
        let mut nic = NicModel::new(NicConfig::ec2_ena(gbps(10.0)), 1);
        let cfg = netsim::tcp::StreamConfig::new(300.0, netsim::TrafficPattern::FullSpeed);
        let res = netsim::tcp::StreamSim::run(&mut tb, &mut nic, &cfg);
        res.bandwidth.total_bits() / 300.0
    };
    let reno = {
        let mut tb = netsim::shaper::TokenBucket::sigma_rho(gbit(100.0), gbps(1.0), gbps(10.0));
        let mut nic = NicModel::new(NicConfig::ec2_ena(gbps(10.0)), 1);
        let res = run_reno(&mut tb, &mut nic, &RenoConfig::default(), 300.0);
        res.mean_goodput_bps()
    };
    let ratio = reno / fluid;
    assert!(ratio > 0.7 && ratio < 1.3, "reno {reno} fluid {fluid}");
}

#[test]
fn oversubscribed_core_slows_all_to_all_shuffles() {
    let job = tpcds::query(65);
    let mut free = Cluster::ec2_emulated(6, 8, 5000.0);
    let fast = bigdata::run_job(&mut free, &job, 2).duration_s;
    let mut tight = Cluster::ec2_emulated(6, 8, 5000.0);
    // Racks of four 10 Gbps hosts behind 4:1 oversubscribed uplinks.
    let oversub = topo::zoo::oversub(6, 4.0).unwrap();
    tight.set_wiring(topo::Wiring::new(oversub, 6, 7, 42).unwrap());
    let slow = bigdata::run_job(&mut tight, &job, 2).duration_s;
    assert!(slow > 1.05 * fast, "fast {fast} slow {slow}");
}
