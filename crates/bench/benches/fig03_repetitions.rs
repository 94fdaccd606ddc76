//! Figure 3: how credible are experiments with few repetitions?
//!
//! Emulates the eight Ballani clouds on a 16-machine Spark cluster
//! (bandwidth re-sampled uniformly from each distribution every 5 s for
//! K-Means, 50 s for TPC-DS Q68), runs 50 repetitions as the gold
//! standard, and asks whether 3- and 10-repetition medians (resp. 90th
//! percentiles) fall inside the gold standard's 95% CI.

use bench::{banner, check};
use repro_core::bigdata::engine::{run_job_cfg, EngineConfig};
use repro_core::bigdata::workloads::{hibench, tpcds};
use repro_core::bigdata::Cluster;
use repro_core::clouds::ballani;
use repro_core::netsim::rng::derive_seed;
use repro_core::netsim::shaper::EmpiricalShaper;
use repro_core::netsim::units::gbps;
use repro_core::vstats::ci::quantile_ci;
use repro_core::vstats::describe::quantile;

const NODES: usize = 16;
const REPS: usize = 50;

/// Run `reps` repetitions of `job` on emulated cloud `label`.
fn run_emulated(
    label: char,
    resample_s: f64,
    job: &repro_core::bigdata::JobSpec,
    seed: u64,
) -> Vec<f64> {
    let cfg = EngineConfig {
        shuffle_step_s: 0.5,
        compute_step_s: 2.0,
        trace_interval_s: 5.0,
        compute_jitter_sigma: 0.04,
    };
    (0..REPS)
        .map(|rep| {
            let s = derive_seed(seed ^ label as u64, rep as u64);
            let shapers: Vec<EmpiricalShaper> = (0..NODES)
                .map(|n| ballani::shaper_for(label, resample_s, derive_seed(s, n as u64)))
                .collect();
            let mut cluster = Cluster::from_shapers(shapers, gbps(1.0), 16);
            run_job_cfg(&mut cluster, job, s, &cfg).duration_s
        })
        .collect()
}

fn analyze(
    figure: &str,
    caption: &str,
    job: &repro_core::bigdata::JobSpec,
    resample_s: f64,
    p: f64,
    seed: u64,
) -> (usize, usize) {
    banner(figure, caption);
    println!(
        "  {:<7} {:>9} {:>9} {:>19} {:>8} {:>8}",
        "cloud", "3-run", "10-run", "50-run gold [CI]", "3-run?", "10-run?"
    );
    let mut bad3 = 0;
    let mut bad10 = 0;
    for label in ballani::LABELS {
        let samples = run_emulated(label, resample_s, job, seed);
        let gold_ci = quantile_ci(&samples, p, 0.95).expect("50 reps give a CI");
        let est3 = quantile(&samples[..3], p);
        let est10 = quantile(&samples[..10], p);
        let ok3 = gold_ci.contains(est3);
        let ok10 = gold_ci.contains(est10);
        if !ok3 {
            bad3 += 1;
        }
        if !ok10 {
            bad10 += 1;
        }
        println!(
            "  {:<7} {:>8.1}s {:>8.1}s {:>7.1}s [{:>6.1}, {:>6.1}] {:>8} {:>8}",
            label,
            est3,
            est10,
            gold_ci.estimate,
            gold_ci.lower,
            gold_ci.upper,
            if ok3 { "ok" } else { "X" },
            if ok10 { "ok" } else { "X" }
        );
    }
    println!(
        "  inaccurate estimates: 3-run {bad3}/8 clouds, 10-run {bad10}/8 clouds"
    );
    (bad3, bad10)
}

fn main() {
    let (bad3_a, bad10_a) = analyze(
        "Figure 3a",
        "Medians for HiBench K-Means under clouds A-H (5 s resampling)",
        &hibench::kmeans_emulation(),
        5.0,
        0.5,
        101,
    );
    let (bad3_b, _bad10_b) = analyze(
        "Figure 3b",
        "90th percentile for TPC-DS Q68 under clouds A-H (50 s resampling)",
        &tpcds::q68_emulation(),
        50.0,
        0.9,
        202,
    );

    // Paper: 3-run medians miss the gold CI for 6/8 clouds, 10-run for
    // 3/8; tails are even harder. The simulated counts need not match
    // exactly, but the qualitative finding must hold.
    check(
        "3-repetition estimates are frequently inaccurate (>= 2 clouds)",
        bad3_a + bad3_b >= 2,
    );
    check(
        "more repetitions reduce inaccuracy (10-run <= 3-run misses)",
        bad10_a <= bad3_a,
    );
    check(
        "tail estimation (p90) is at least as hard as the median",
        bad3_b >= 1,
    );
    println!();
}
