//! Figure 16: HiBench under token-bucket budgets {10, 100, 1000, 5000}
//! Gbit — average runtime per budget (left) and per-app variability
//! pooled over budgets (right). "For the more network-intensive
//! applications (i.e., TS, WC), the initial state of the budget can
//! have a 25%-50% impact on performance."

use bench::{banner, box_row, check};
use repro_core::bigdata::engine::EngineConfig;
use repro_core::bigdata::runner::{durations, run_repetitions, BudgetPolicy};
use repro_core::bigdata::workloads::hibench;
use repro_core::bigdata::Cluster;
use repro_core::vstats::describe::{mean, BoxSummary};
use std::collections::BTreeMap;

const BUDGETS: [f64; 4] = [5000.0, 1000.0, 100.0, 10.0];
const RUNS: usize = 10;

fn main() {
    banner(
        "Figure 16",
        "HiBench average runtime per budget (a) and variability (b)",
    );
    let cfg = EngineConfig {
        shuffle_step_s: 0.5,
        compute_step_s: 2.0,
        trace_interval_s: 10.0,
        compute_jitter_sigma: 0.05,
    };

    // app -> budget -> durations
    let mut results: BTreeMap<String, BTreeMap<u64, Vec<f64>>> = BTreeMap::new();
    for job in hibench::all() {
        for &budget in &BUDGETS {
            let mut cluster = Cluster::ec2_emulated(12, 16, budget);
            let runs = run_repetitions(
                &mut cluster,
                &job,
                RUNS,
                BudgetPolicy::PresetGbit(budget),
                1600 + budget as u64,
                &cfg,
            );
            results
                .entry(job.name.clone())
                .or_default()
                .insert(budget as u64, durations(&runs));
        }
    }

    // (a) Average runtime per budget.
    println!("  (a) average runtime [s] per initial budget [Gbit]:");
    println!(
        "  {:<6} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "app", "5000", "1000", "100", "10", "impact"
    );
    let mut impact: BTreeMap<String, f64> = BTreeMap::new();
    for (app, by_budget) in &results {
        let m = |b: u64| mean(&by_budget[&b]);
        let imp = m(10) / m(5000) - 1.0;
        impact.insert(app.clone(), imp);
        println!(
            "  {:<6} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>7.0}%",
            app,
            m(5000),
            m(1000),
            m(100),
            m(10),
            imp * 100.0
        );
    }

    // (b) Variability pooled over budgets (the figure's IQR boxes).
    println!("  (b) runtime distribution pooled over all budgets [s]:");
    for app in ["BS", "KM", "S", "WC", "TS"] {
        let pooled: Vec<f64> = results[app].values().flatten().copied().collect();
        box_row(app, &BoxSummary::from_samples(&pooled), "s");
    }

    // Checks.
    check(
        "TS and WC suffer a 25-60% budget impact",
        impact["TS"] > 0.25 && impact["TS"] < 0.60 && impact["WC"] > 0.25 && impact["WC"] < 0.60,
    );
    check(
        "network-light apps (KM, BS) are far less affected (< 15%)",
        impact["KM"] < 0.15 && impact["BS"] < 0.15,
    );
    check(
        "smaller budgets never speed an app up",
        results.values().all(|by_budget| {
            mean(&by_budget[&10]) >= mean(&by_budget[&5000]) * 0.97
        }),
    );
    let span = |app: &str| {
        let pooled: Vec<f64> = results[app].values().flatten().copied().collect();
        let b = BoxSummary::from_samples(&pooled);
        b.span() / b.p50
    };
    check(
        "pooled variability of TS exceeds KM's (budget-induced spread)",
        span("TS") > 1.5 * span("KM"),
    );
    check(
        "runtimes stay within Figure 16's 0-1000 s axis",
        results
            .values()
            .flat_map(|m| m.values().flatten())
            .all(|&d| d > 0.0 && d < 1000.0),
    );
    println!();
}
