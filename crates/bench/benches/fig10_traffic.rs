//! Figure 10: cumulative traffic per access pattern over one week —
//! on EC2 the token bucket makes all three patterns move *similar*
//! volumes; on GCE full-speed moves orders of magnitude more.

use bench::{banner, check, series_row};
use repro_core::clouds::{ec2, gce};
use repro_core::exec::current_jobs;
use repro_core::measure::campaign::run_all_patterns;
use repro_core::netsim::units::{as_tb, WEEK};

fn main() {
    banner("Figure 10", "Total transferred data per pattern, one week");

    for (name, profile, seed) in [
        ("Amazon EC2", ec2::c5_xlarge(), 10u64),
        ("Google Cloud", gce::n_core(8), 11u64),
    ] {
        println!("  -- {name} --");
        let results = run_all_patterns(&profile, WEEK, seed, current_jobs()).unwrap();
        for r in &results {
            let cum = r.trace.cumulative_traffic();
            series_row(&r.pattern, &cum, 1.0 / 8e12, "TB");
            println!(
                "    {:<12} total {:>8.1} TB",
                r.pattern,
                as_tb(r.total_bits)
            );
        }
        if name == "Amazon EC2" {
            let tb: Vec<f64> = results.iter().map(|r| as_tb(r.total_bits)).collect();
            let max = tb.iter().cloned().fold(0.0f64, f64::max);
            let min = tb.iter().cloned().fold(f64::INFINITY, f64::min);
            check(
                "EC2: all three patterns move roughly equal volume (max/min < 3)",
                max / min < 3.0,
            );
            check(
                "EC2 weekly volume is tens of TB (Figure 10a axis)",
                max > 30.0 && max < 200.0,
            );
        } else {
            let full = as_tb(results[0].total_bits);
            let five = as_tb(results[2].total_bits);
            check(
                "GCE: full-speed moves ~an order of magnitude more than 5-30",
                full / five > 5.0,
            );
            check(
                "GCE weekly full-speed volume is ~1000 TB (Figure 10b axis)",
                full > 700.0 && full < 1500.0,
            );
        }
    }
    println!();
}
