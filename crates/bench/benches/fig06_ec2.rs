//! Figure 6: Amazon EC2 (c5.xlarge) bandwidth by access pattern, as an
//! empirical CDF plus coefficient-of-variation bars — the token-bucket
//! cloud, where *heavier* streams do worse.

use bench::{banner, check};
use repro_core::clouds::ec2;
use repro_core::exec::current_jobs;
use repro_core::measure::campaign::run_all_patterns;
use repro_core::netsim::units::{as_gbps, WEEK};
use repro_core::vstats::describe::ecdf;

fn main() {
    banner(
        "Figure 6",
        "Amazon EC2 c5.xlarge bandwidth by access pattern, one week",
    );
    let profile = ec2::c5_xlarge();
    let results = run_all_patterns(&profile, WEEK, 6, current_jobs()).unwrap();

    // CDF at selected probabilities.
    println!(
        "  {:<12} {:>8} {:>8} {:>8} {:>8} {:>8}   CoV",
        "pattern", "p10", "p25", "p50", "p75", "p90"
    );
    for r in &results {
        let bw = r.trace.bandwidths();
        let cdf = ecdf(&bw);
        let at = |p: f64| {
            let idx = ((cdf.len() as f64 * p) as usize).min(cdf.len() - 1);
            as_gbps(cdf[idx].0)
        };
        println!(
            "  {:<12} {:>7.2}G {:>7.2}G {:>7.2}G {:>7.2}G {:>7.2}G   {:>4.1}%",
            r.pattern,
            at(0.10),
            at(0.25),
            at(0.50),
            at(0.75),
            at(0.90),
            r.summary.cov * 100.0
        );
    }

    let full = results[0].mean_bandwidth_bps();
    let ten = results[1].mean_bandwidth_bps();
    let five = results[2].mean_bandwidth_bps();
    println!(
        "  means: full-speed {:.2} Gbps, 10-30 {:.2} Gbps, 5-30 {:.2} Gbps",
        as_gbps(full),
        as_gbps(ten),
        as_gbps(five)
    );
    println!(
        "  slowdowns vs 5-30: 10-30 {:.1}x, full-speed {:.1}x",
        five / ten,
        five / full
    );

    // Paper: "approximately 3x and 7x slowdowns between 10-30 and 5-30
    // and full-speed"; bandwidth spans ~1 to 10 Gbps.
    check(
        "heavier streams achieve less (full < 10-30 < 5-30)",
        full < ten && ten < five,
    );
    check(
        "full-speed is ~5-9x slower than 5-30",
        five / full > 4.5 && five / full < 9.0,
    );
    check(
        "10-30 is ~1.5-3x slower than 5-30",
        five / ten > 1.4 && five / ten < 3.2,
    );
    check(
        "achieved bandwidth spans ~1..10 Gbps",
        results[0].summary.min < 1.3e9 && results[2].summary.max > 9.0e9,
    );
    println!();
}
