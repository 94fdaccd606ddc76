//! HiBench application profiles (Figure 16).
//!
//! Figure 16 shows that "the more network-dependent applications
//! (i.e., TS, WC)" suffer a 25–50% runtime impact from the initial
//! token budget, while the others are less sensitive. The profiles
//! below encode that ordering through their shuffle volumes. Stage task
//! counts equal the paper cluster's 192 executor slots (12 nodes ×
//! 16 cores), so each stage is one wave and wall compute ≈ 1.3 × the
//! per-task mean (the max of 192 lognormal task times).
//!
//! | app        | wall compute (s) | shuffle (Gbit) | character            |
//! |------------|------------------|----------------|----------------------|
//! | Terasort   | ~217             | 2800           | shuffle ≈ input size |
//! | WordCount  | ~148             | 2000           | heavy aggregation    |
//! | Sort       | ~77              | 680            | medium               |
//! | Bayes      | ~270             | 220            | mostly compute       |
//! | K-Means    | ~300             | 8 × 22         | iterative, light     |

use crate::job::{JobSpec, StageSpec};
use netsim::units::gbit;

/// Tasks per stage = executor slots of the Table 4 cluster.
pub const SLOTS: usize = 192;

/// Terasort (TS): the most network-intensive HiBench app — the whole
/// dataset crosses the network in the sort shuffle.
pub fn terasort() -> JobSpec {
    JobSpec::new(
        "TS",
        vec![
            StageSpec::new("sample", SLOTS, 8.0, gbit(40.0)),
            StageSpec::new("map", SLOTS, 60.0, gbit(2200.0)),
            StageSpec::new("sort", SLOTS, 70.0, gbit(560.0)),
            StageSpec::new("write", SLOTS, 30.0, 0.0),
        ],
    )
}

/// WordCount (WC): heavy map output, large aggregation shuffle.
pub fn wordcount() -> JobSpec {
    JobSpec::new(
        "WC",
        vec![
            StageSpec::new("map", SLOTS, 45.0, gbit(1700.0)),
            StageSpec::new("reduce", SLOTS, 45.0, gbit(300.0)),
            StageSpec::new("write", SLOTS, 25.0, 0.0),
        ],
    )
}

/// Sort (S): medium shuffle.
pub fn sort() -> JobSpec {
    JobSpec::new(
        "S",
        vec![
            StageSpec::new("map", SLOTS, 20.0, gbit(600.0)),
            StageSpec::new("reduce", SLOTS, 28.0, gbit(80.0)),
            StageSpec::new("write", SLOTS, 12.0, 0.0),
        ],
    )
}

/// Bayes (BS): classifier training, mostly compute.
pub fn bayes() -> JobSpec {
    JobSpec::new(
        "BS",
        vec![
            StageSpec::new("tokenize", SLOTS, 90.0, gbit(160.0)),
            StageSpec::new("train", SLOTS, 95.0, gbit(60.0)),
            StageSpec::new("model", 48, 25.0, 0.0),
        ],
    )
}

/// K-Means (KM): iterative, many small synchronizations.
pub fn kmeans() -> JobSpec {
    let mut stages = vec![StageSpec::new("load", SLOTS, 40.0, gbit(30.0))];
    for i in 0..8 {
        stages.push(StageSpec::new(&format!("iter{i}"), SLOTS, 22.0, gbit(22.0)));
    }
    stages.push(StageSpec::new("assign", SLOTS, 18.0, 0.0));
    JobSpec::new("KM", stages)
}

/// K-Means at the smaller input the paper ran *directly* on Google
/// Cloud for the CONFIRM analysis (Figure 13a, medians near 100 s).
pub fn kmeans_confirm() -> JobSpec {
    let mut stages = vec![StageSpec::new("load", SLOTS, 14.0, gbit(12.0))];
    for i in 0..6 {
        stages.push(StageSpec::new(&format!("iter{i}"), SLOTS, 8.5, gbit(9.0)));
    }
    JobSpec::new("KM-confirm", stages)
}

/// K-Means scaled for the 16-machine Ballani-cloud emulation of
/// Figure 3a, where links are hundreds of Mb/s rather than 10 Gbps:
/// the iteration structure dominates through its synchronization
/// traffic, making the app network-bound at Mb/s speeds.
pub fn kmeans_emulation() -> JobSpec {
    let mut stages = vec![StageSpec::new("load", 256, 25.0, gbit(30.0))];
    for i in 0..8 {
        stages.push(StageSpec::new(&format!("iter{i}"), 256, 10.0, gbit(150.0)));
    }
    JobSpec::new("KM-emu", stages)
}

/// All five apps in Figure 16's x-axis order (BS, KM, S, WC, TS).
pub fn all() -> Vec<JobSpec> {
    vec![bayes(), kmeans(), sort(), wordcount(), terasort()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_intensity_ordering_matches_paper() {
        // TS and WC are the network-dependent ones.
        let i = |j: &JobSpec| j.network_intensity();
        assert!(i(&terasort()) > i(&wordcount()) * 0.9);
        assert!(i(&wordcount()) > i(&sort()));
        assert!(i(&sort()) > i(&bayes()));
        assert!(i(&terasort()) > 4.0 * i(&kmeans()));
    }

    #[test]
    fn nominal_compute_within_figure16_axis() {
        for job in all() {
            let c = job.nominal_compute_s();
            assert!(c > 50.0 && c < 500.0, "{} compute {c}", job.name);
        }
    }

    #[test]
    fn terasort_shuffles_terabyte_scale() {
        // "BigData" size: ~350 GB ≈ 2800 Gbit crosses the network.
        let ts = terasort();
        let bits = ts.total_shuffle_bits();
        assert!(bits > 2.5e12 && bits < 3.5e12, "bits {bits}");
    }

    #[test]
    fn kmeans_is_iterative() {
        let km = kmeans();
        assert!(km.stages.len() >= 9);
        assert_eq!(
            km.stages.iter().filter(|s| s.name.starts_with("iter")).count(),
            8
        );
    }

    #[test]
    fn five_apps() {
        let names: Vec<String> = all().into_iter().map(|j| j.name).collect();
        assert_eq!(names, vec!["BS", "KM", "S", "WC", "TS"]);
    }

    #[test]
    fn confirm_kmeans_is_shorter_than_bigdata_kmeans() {
        assert!(kmeans_confirm().nominal_compute_s() < 0.5 * kmeans().nominal_compute_s());
    }
}
