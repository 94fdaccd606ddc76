//! Plan an experiment the F5.3/F5.4 way: pilot runs, CONFIRM-based
//! repetition planning per cloud, randomized execution order, and an
//! audit of the final design.
//!
//! ```sh
//! cargo run --release --example plan_experiment
//! ```

use cloud_repro::prelude::*;
use bigdata::engine::{run_job_cfg, EngineConfig};
use bigdata::workloads::hibench;
use bigdata::Cluster;
use measure::ExperimentPlan;

fn pilot(
    profile: &clouds::CloudProfile,
    job: &bigdata::JobSpec,
    reps: usize,
    seed: u64,
) -> Vec<f64> {
    let cfg = EngineConfig {
        compute_jitter_sigma: 0.06,
        ..Default::default()
    };
    (0..reps)
        .map(|rep| {
            let s = netsim::rng::derive_seed(seed, rep as u64);
            let mut cluster = Cluster::from_profile(profile, 12, 16, s);
            run_job_cfg(&mut cluster, job, s, &cfg).duration_s
        })
        .collect()
}

fn main() {
    println!("== how many repetitions does this experiment need? ==\n");

    let pilots = [
        (
            clouds::gce::n_core(8),
            hibench::kmeans_confirm(),
        ),
        (
            clouds::hpccloud::n_core(8),
            bigdata::workloads::tpcds::q65_confirm(),
        ),
    ];
    for (profile, job) in pilots {
        let samples = pilot(&profile, &job, 40, 11);
        println!(
            "pilot of {} on {} {}: median {:.1} s, CoV {:.1}%",
            job.name,
            profile.provider.name(),
            profile.instance_type,
            vstats::median(&samples),
            vstats::coefficient_of_variation(&samples) * 100.0
        );
        for err in [0.05, 0.01] {
            let rec = recommend_repetitions(&samples, 0.5, 0.95, err);
            println!(
                "  target ±{:>2.0}% on the median -> {}",
                err * 100.0,
                match rec.recommended {
                    Some(n) => format!("{n} repetitions (floor {})", rec.minimum_for_ci),
                    None => "cannot say from this pilot".to_string(),
                }
            );
        }
    }

    // Tail quantiles need far more than medians (Figure 3b's lesson).
    println!(
        "\nminimum n for a 95% CI to even exist: median {}, p90 {}, p99 {}",
        vstats::ci::min_samples_for_ci(0.5, 0.95),
        vstats::ci::min_samples_for_ci(0.9, 0.95),
        vstats::ci::min_samples_for_ci(0.99, 0.95),
    );

    // Build the execution schedule: randomized, with rests.
    let plan = ExperimentPlan {
        repetitions: 10,
        randomize_order: true,
        rest_between_s: 120.0,
    };
    let schedule = plan.schedule(3, 77);
    println!(
        "\nrandomized schedule over 3 treatments x 10 reps (first 8 slots):"
    );
    for req in schedule.iter().take(8) {
        println!(
            "  treatment {} rep {} (rest {:>3.0} s before)",
            req.treatment, req.repetition, req.rest_before_s
        );
    }

    // Audit the design before spending money on it.
    let design = ExperimentDesign {
        repetitions: 10,
        minimum_repetitions: vstats::ci::min_samples_for_ci(0.5, 0.95),
        ..Default::default()
    };
    let violations = audit(&design);
    if violations.is_empty() {
        println!("\ndesign audit: compliant with F5.1-F5.5");
    } else {
        for v in violations {
            println!("design audit: {v}");
        }
    }
}
