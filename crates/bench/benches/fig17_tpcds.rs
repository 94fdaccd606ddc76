//! Figure 17: TPC-DS per-query sensitivity to the token budget —
//! average slowdown vs the 5000 Gbit baseline (a) and overall
//! variability pooled over budgets (b), for all 21 queries.

use bench::{banner, check};
use repro_core::bigdata::engine::EngineConfig;
use repro_core::bigdata::runner::{durations, run_repetitions, BudgetPolicy};
use repro_core::bigdata::workloads::tpcds;
use repro_core::bigdata::Cluster;
use repro_core::vstats::describe::{mean, BoxSummary};
use std::collections::BTreeMap;

const BUDGETS: [f64; 4] = [5000.0, 1000.0, 100.0, 10.0];
const RUNS: usize = 10;

fn main() {
    banner(
        "Figure 17",
        "TPC-DS runtime slowdown per initial budget (a) and variability (b)",
    );
    let cfg = EngineConfig {
        shuffle_step_s: 0.5,
        compute_step_s: 2.0,
        trace_interval_s: 10.0,
        compute_jitter_sigma: 0.05,
    };

    // query -> budget -> mean duration (plus pooled samples).
    let mut means: BTreeMap<u32, BTreeMap<u64, f64>> = BTreeMap::new();
    let mut pooled: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for &q in &tpcds::QUERIES {
        let job = tpcds::query(q);
        for &budget in &BUDGETS {
            let mut cluster = Cluster::ec2_emulated(12, 16, budget);
            let runs = run_repetitions(
                &mut cluster,
                &job,
                RUNS,
                BudgetPolicy::PresetGbit(budget),
                1700 + q as u64 * 17 + budget as u64,
                &cfg,
            );
            let d = durations(&runs);
            means.entry(q).or_default().insert(budget as u64, mean(&d));
            pooled.entry(q).or_default().extend(d);
        }
    }

    println!("  (a) average slowdown vs budget=5000:");
    println!(
        "  {:<6} {:>10} {:>12} {:>12} {:>12}",
        "query", "base[s]", "budget=1000", "budget=100", "budget=10"
    );
    let mut slowdown10: BTreeMap<u32, f64> = BTreeMap::new();
    for &q in &tpcds::QUERIES {
        let m = &means[&q];
        let base = m[&5000];
        println!(
            "  q{:<5} {:>10.1} {:>11.2}x {:>11.2}x {:>11.2}x",
            q,
            base,
            m[&1000] / base,
            m[&100] / base,
            m[&10] / base
        );
        slowdown10.insert(q, m[&10] / base);
    }

    println!("  (b) runtime distribution pooled over budgets [s]:");
    for &q in &tpcds::QUERIES {
        let b = BoxSummary::from_samples(&pooled[&q]);
        println!(
            "  q{:<5} p1={:>6.1} p25={:>6.1} median={:>6.1} p75={:>6.1} p99={:>6.1}",
            q, b.p1, b.p25, b.p50, b.p75, b.p99
        );
    }

    // Checks against the paper's shape.
    check(
        "q65 (network-heavy) slows > 1.6x at budget=10",
        slowdown10[&65] > 1.6,
    );
    check(
        "q82 (network-agnostic) is essentially unaffected (< 1.1x)",
        slowdown10[&82] < 1.10,
    );
    check(
        "larger budgets always lead to (weakly) better performance",
        tpcds::QUERIES.iter().all(|q| {
            let m = &means[q];
            m[&10] >= m[&100] * 0.93 && m[&100] >= m[&1000] * 0.93 && m[&1000] >= m[&5000] * 0.93
        }),
    );
    let sensitive = tpcds::QUERIES
        .iter()
        .filter(|q| slowdown10[q] > 1.10)
        .count();
    check(
        "most queries (>= 60%) are budget-sensitive",
        sensitive as f64 / 21.0 >= 0.60,
    );
    check(
        "some slowdowns are large (max > 2x)",
        slowdown10.values().cloned().fold(0.0f64, f64::max) > 2.0,
    );
    check(
        "runtimes stay within Figure 17b's 0-200 s axis",
        pooled.values().flatten().all(|&d| d < 200.0),
    );
    println!();
}
