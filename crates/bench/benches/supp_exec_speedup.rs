//! Supplementary: the parallel execution runtime on a Table-3-sized
//! fleet campaign — wall-clock speedup next to unchanged goldens.
//!
//! The determinism contract of `exec` (index-ordered merge, per-task
//! derived seeds) means worker count buys time and nothing else: this
//! bench runs the same week-long fleet at 1, 2, and 4 workers, CHECKs
//! that every result is bit-identical, and reports the speedup and the
//! pool's per-worker counters (tasks run / stolen / busy time).
//!
//! The ≥2x speedup CHECK needs real hardware parallelism and is only
//! enforced when the machine has ≥4 cores; single-core CI still
//! enforces the (stronger) determinism CHECKs.

use bench::{banner, check, mmss};
use repro_core::clouds::hpccloud;
use repro_core::exec;
use repro_core::measure::{run_campaign, run_fleet, FleetResult, FleetSpec};
use repro_core::netsim::units::{days, hours};
use repro_core::netsim::TrafficPattern;
use repro_core::vstats::{bootstrap_ci_jobs, mean};
use std::time::Instant;

const PAIRS: usize = 12;
const SEED: u64 = 2020;

/// FNV-1a over the f64 bit patterns of everything a fleet reports —
/// any single-bit divergence between worker counts lands here.
fn fleet_hash(f: &FleetResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    eat(f.across_pairs.mean.to_bits());
    eat(f.across_pairs.cov.to_bits());
    eat(f.mean_within_pair_cov.to_bits());
    eat(f.failed_pairs.len() as u64);
    eat(f.panicked.len() as u64);
    for p in &f.pairs {
        eat(p.trace.samples.len() as u64);
        eat(p.summary.mean.to_bits());
        eat(p.summary.cov.to_bits());
        eat(p.total_retransmissions);
        for s in &p.trace.samples {
            eat(s.bandwidth_bps.to_bits());
            eat(s.bits.to_bits());
        }
    }
    h
}

fn main() {
    banner(
        "Supp. exec",
        "Work-stealing runtime: fleet speedup with bit-identical goldens",
    );

    let profile = hpccloud::n_core(8).with_reference_faults();
    let duration = days(7.0);
    println!(
        "  workload: {PAIRS} pairs x 1 week, {} {} (reference faults on)",
        profile.provider.name(),
        profile.instance_type
    );

    // One attempt per pair: every pair's plain derived-seed campaign.
    let mut spec = FleetSpec::new(profile, TrafficPattern::FullSpeed, duration, PAIRS, SEED);
    spec.supervise.max_shard_attempts = 1;
    let mut hashes = Vec::new();
    let mut times = Vec::new();
    for jobs in [1usize, 2, 4] {
        let t0 = Instant::now();
        let fleet = run_fleet(&spec, jobs).expect("fleet campaign returns data");
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "  jobs={jobs}: {} wall, {} pairs, across-CoV {:.4}, hash {:016x}",
            mmss(dt),
            fleet.pairs.len(),
            fleet.across_pair_cov(),
            fleet_hash(&fleet)
        );
        hashes.push(fleet_hash(&fleet));
        times.push(dt);
    }
    let speedup = times[0] / times[2];
    println!("  speedup at 4 workers: {speedup:.2}x");

    // Per-worker counters on the same sharding the fleet uses.
    let (results, report) = exec::par_map_indexed_report(4, PAIRS, |i| {
        let pair_seed = repro_core::netsim::rng::derive_seed(SEED, i as u64);
        run_campaign(&profile, TrafficPattern::FullSpeed, hours(24.0), pair_seed)
            .map(|r| r.summary.mean)
    });
    println!("  pool counters (4 workers, {} pair tasks):", results.len());
    for w in &report.workers {
        println!(
            "    worker {}: {} run, {} stolen, {:.0} ms busy",
            w.worker,
            w.tasks_run,
            w.tasks_stolen,
            w.busy.as_secs_f64() * 1e3
        );
    }

    // Bootstrap resampling shards the same way.
    let samples: Vec<f64> = (0..400).map(|i| 9.0 + ((i * 37) % 100) as f64 / 100.0).collect();
    let ci1 = bootstrap_ci_jobs(&samples, mean, 2000, 0.95, SEED, 1);
    let ci4 = bootstrap_ci_jobs(&samples, mean, 2000, 0.95, SEED, 4);

    check(
        "fleet results bit-identical at 1, 2, and 4 workers",
        hashes.iter().all(|&h| h == hashes[0]),
    );
    check(
        "bootstrap CI bit-identical at 1 and 4 workers",
        ci1.lower.to_bits() == ci4.lower.to_bits() && ci1.upper.to_bits() == ci4.upper.to_bits(),
    );
    check(
        "pool accounted every pair task exactly once",
        report.total_tasks() == PAIRS as u64,
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        check(">=2x wall-clock speedup at 4 workers", speedup >= 2.0);
    } else {
        println!(
            "  note: {cores} core(s) available; >=2x speedup CHECK needs >=4 and was skipped"
        );
    }
    println!();
}
