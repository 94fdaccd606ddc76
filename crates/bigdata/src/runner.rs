//! Repetition drivers — the experiment policies of Sections 4.2 and 5.
//!
//! How repetitions relate to hidden infrastructure state is the paper's
//! core methodological finding: with token buckets, "more repetitions
//! deplete the bucket that the next experiment begins with", breaking
//! the independence assumption of CI analysis (Figure 19). The
//! [`BudgetPolicy`] variants encode the three regimes the paper
//! studies:
//!
//! * [`BudgetPolicy::FreshVms`] — a fresh set of VMs per run (full
//!   nominal budget): the gold-standard independence protocol of F5.4.
//! * [`BudgetPolicy::PresetGbit`] — each run starts from a known,
//!   possibly partial budget (Figures 15–17: budgets 10…5000 Gbit).
//! * [`BudgetPolicy::CarryOver`] — state carries between runs with only
//!   a rest in between: "running many experiments back-to-back in the
//!   same VM instances".

use crate::cluster::Cluster;
use crate::engine::{run_job_cfg, EngineConfig, JobResult};
use crate::job::JobSpec;
use netsim::rng::derive_seed;
use netsim::shaper::TokenBucket;

/// Budget handling between repetitions (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetPolicy {
    /// Reset shapers to their initial (full) budgets before every run.
    FreshVms,
    /// Reset, then set every node's budget to this many Gbit.
    PresetGbit(f64),
    /// Keep all state; rest the cluster this many seconds between runs.
    CarryOver {
        /// Idle time between consecutive runs, seconds.
        rest_s: f64,
    },
}

/// Run `job` `n` times on `cluster` under `policy`. Run `i` uses seed
/// `derive_seed(seed, i)` for its task-time randomness, so sequences
/// are reproducible and runs are statistically independent *except*
/// through shared shaper state — exactly the coupling under study.
/// `cfg` sets the engine's stepping ([`EngineConfig::default`] is the
/// usual choice).
pub fn run_repetitions(
    cluster: &mut Cluster<TokenBucket>,
    job: &JobSpec,
    n: usize,
    policy: BudgetPolicy,
    seed: u64,
    cfg: &EngineConfig,
) -> Vec<JobResult> {
    let mut results = Vec::with_capacity(n);
    for i in 0..n {
        match policy {
            BudgetPolicy::FreshVms => cluster.reset(),
            BudgetPolicy::PresetGbit(g) => {
                cluster.reset();
                cluster.set_all_budgets_gbit(g);
            }
            BudgetPolicy::CarryOver { rest_s } => {
                if i > 0 && rest_s > 0.0 {
                    cluster.rest(rest_s, 1.0);
                }
            }
        }
        results.push(run_job_cfg(cluster, job, derive_seed(seed, i as u64), cfg));
    }
    results
}

/// Durations of a result set, in seconds.
pub fn durations(results: &[JobResult]) -> Vec<f64> {
    results.iter().map(|r| r.duration_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::StageSpec;
    use netsim::units::gbit;

    fn job() -> JobSpec {
        JobSpec::new(
            "j",
            vec![
                StageSpec::new("map", 32, 8.0, gbit(240.0)), // 60 Gbit/node
                StageSpec::new("reduce", 32, 4.0, 0.0),
            ],
        )
    }

    #[test]
    fn fresh_vms_are_statistically_stable() {
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        let cfg = EngineConfig::default();
        let results = run_repetitions(&mut c, &job(), 8, BudgetPolicy::FreshVms, 1, &cfg);
        let d = durations(&results);
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        // All runs near the mean: only task-time noise.
        for x in &d {
            assert!((x - mean).abs() / mean < 0.15, "x {x} mean {mean}");
        }
    }

    #[test]
    fn preset_low_budget_is_slower_than_fresh() {
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        let cfg = EngineConfig::default();
        let fresh = durations(&run_repetitions(&mut c, &job(), 4, BudgetPolicy::FreshVms, 2, &cfg));
        let low = durations(&run_repetitions(
            &mut c,
            &job(),
            4,
            BudgetPolicy::PresetGbit(10.0),
            2,
            &cfg,
        ));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&low) > 1.5 * mean(&fresh), "low {low:?} fresh {fresh:?}");
    }

    #[test]
    fn carry_over_runs_degrade_as_budgets_deplete() {
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        c.set_all_budgets_gbit(200.0);
        let results = run_repetitions(
            &mut c,
            &job(),
            6,
            BudgetPolicy::CarryOver { rest_s: 5.0 },
            3,
            &EngineConfig::default(),
        );
        let d = durations(&results);
        // Each run consumes ~60 Gbit/node; by run 4 budgets are gone
        // and runtimes jump.
        assert!(
            d.last().unwrap() > &(1.5 * d[0]),
            "first {} last {}",
            d[0],
            d.last().unwrap()
        );
        // And the sequence is monotone-ish at the transition.
        assert!(d[5] >= d[1] * 0.9);
    }

    #[test]
    fn carry_over_with_long_rests_recovers() {
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        c.set_all_budgets_gbit(70.0);
        // 60 Gbit/node per run; a 100 s rest refills ~100 Gbit — enough
        // to keep every run fast.
        let results = run_repetitions(
            &mut c,
            &job(),
            5,
            BudgetPolicy::CarryOver { rest_s: 100.0 },
            4,
            &EngineConfig::default(),
        );
        let d = durations(&results);
        let spread = d.iter().cloned().fold(0.0, f64::max) / d.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1.5, "durations {d:?}");
    }

    #[test]
    fn reproducible() {
        let cfg = EngineConfig::default();
        let mut c1 = Cluster::ec2_emulated(4, 8, 1000.0);
        let a = durations(&run_repetitions(&mut c1, &job(), 3, BudgetPolicy::FreshVms, 7, &cfg));
        let mut c2 = Cluster::ec2_emulated(4, 8, 1000.0);
        let b = durations(&run_repetitions(&mut c2, &job(), 3, BudgetPolicy::FreshVms, 7, &cfg));
        assert_eq!(a, b);
    }
}
