//! Fault injection end to end: a week-scale campaign that loses data
//! and keeps going, a fleet that loses pairs, a probe that retries, and
//! the speculation experiment that cannot cure a token-bucket
//! straggler.
//!
//! ```sh
//! cargo run --release --example faulty_campaign
//! ```
//!
//! The output is a pure function of the seeds printed below —
//! `scripts/verify.sh` runs this example twice and diffs the output as
//! the deterministic-replay gate.

use bigdata::{run_job_speculative, token_bucket_straggler_cure, Cluster, SpeculationConfig};
use bigdata::workloads::tpcds;
use cloud_repro::prelude::exec;
use measure::{probe_with_retry, run_campaign, run_fleet, FleetSpec, RetryPolicy};
use netsim::faults::{FaultConfig, FaultSchedule};
use netsim::units::{as_gbps, hours};
use netsim::TrafficPattern;

const SEED: u64 = 42;

fn main() {
    println!("== fault injection, end to end (seed {SEED}) ==\n");

    // 1. A 48-hour campaign on HPCCloud with provider-reference faults:
    //    VM stalls, link degradation, loss bursts, probe loss. The
    //    harness censors the affected samples and annotates the gaps
    //    instead of panicking or silently averaging stalls into the
    //    bandwidth statistics.
    let profile = clouds::hpccloud::n_core(8).with_reference_faults();
    let res = run_campaign(&profile, TrafficPattern::FullSpeed, hours(48.0), SEED)
        .expect("faulty campaign still returns data");
    println!("campaign: {} samples survived, {} gaps", res.trace.samples.len(), res.gaps.len());
    println!(
        "  coverage {:.2}%  gapped time {:.0} s  mean {:.3} Gbps",
        res.coverage() * 100.0,
        res.gapped_time_s(),
        as_gbps(res.mean_bandwidth_bps())
    );
    for g in res.gaps.iter().take(5) {
        println!(
            "  gap [{:>8.1}, {:>8.1}) s  cause {}",
            g.start_s,
            g.end_s,
            g.cause.label()
        );
    }
    if res.gaps.len() > 5 {
        println!("  ... and {} more", res.gaps.len() - 5);
    }

    // 2. A fleet of 6 pairs where pairs can die (preemption): dead
    //    pairs yield partial, gap-annotated traces; survivors are
    //    untouched. One attempt per pair: nothing is retried.
    let mut fleet_profile = profile.clone();
    fleet_profile.faults.pair_death_rate_per_hour = 0.1;
    let mut fleet_spec = FleetSpec::new(fleet_profile, TrafficPattern::FullSpeed, hours(12.0), 6, SEED);
    fleet_spec.supervise.max_shard_attempts = 1;
    let fleet = run_fleet(&fleet_spec, exec::current_jobs()).expect("fleet degrades gracefully");
    println!(
        "\nfleet: {}/{} pairs produced data, {} died",
        fleet.pairs.len(),
        6,
        fleet.failed_pairs.len()
    );
    for f in &fleet.failed_pairs {
        println!(
            "  pair {} died at {:.0} s (partial data: {})",
            f.pair, f.death_s, f.partial_data
        );
    }

    // 3. Token-bucket probing with retry: stall-ruined probes back off
    //    and re-instantiate under derived seeds.
    let ec2 = clouds::ec2::c5_xlarge().with_reference_faults();
    match probe_with_retry(&ec2, SEED, 2000.0, RetryPolicy::default()) {
        Ok(out) => {
            println!(
                "\nprobe: {} attempt(s), {:.0} s backoff",
                out.attempts, out.backoff_spent_s
            );
            if let Some(est) = out.estimate {
                println!(
                    "  bucket: {:.0} s to empty, {:.1} -> {:.1} Gbps",
                    est.time_to_empty_s,
                    as_gbps(est.high_bps),
                    as_gbps(est.low_bps)
                );
            }
        }
        Err(e) => println!("\nprobe: gave up ({e})"),
    }

    // 4. TPC-DS Q65 under aggressive VM stalls: tasks on stalled nodes
    //    are killed and retried on surviving nodes; the query finishes.
    let mut cluster = Cluster::ec2_emulated(12, 16, 5000.0);
    let stalls = FaultConfig {
        stall_rate_per_hour: 20.0,
        stall_mean_s: 15.0,
        ..FaultConfig::NONE
    };
    cluster.set_fault_schedule(FaultSchedule::generate(&stalls, 12, hours(1.0), SEED));
    let (job, rep) =
        run_job_speculative(&mut cluster, &tpcds::query(65), SEED, &SpeculationConfig::default());
    println!(
        "\ntpc-ds q65 under stalls: finished in {:.1} s",
        job.duration_s
    );
    println!(
        "  {} tasks, {} attempts, {} killed, {} retried, {} abandoned",
        rep.tasks_total, rep.attempts_launched, rep.tasks_killed, rep.tasks_retried, rep.tasks_abandoned
    );

    // 5. The Figure 18 negative result: speculative execution does not
    //    cure a token-bucket straggler, because the copy's node drains
    //    its own bucket. Only a fresh-budget node would help — and after
    //    a long job there isn't one.
    let cure = token_bucket_straggler_cure(100.0, 5.0, 15.0);
    println!("\nstraggler speculation (100 Gbit left, buckets at 5 Gbit):");
    println!("  no speculation:        {:>6.1} s", cure.straggler_s);
    println!(
        "  copy on drained peer:  {:>6.1} s  (cured: {})",
        cure.speculative_s, cure.cured
    );
    println!(
        "  copy on fresh node:    {:>6.1} s  (would cure: {})",
        cure.fresh_s, cure.fresh_cures
    );
}
