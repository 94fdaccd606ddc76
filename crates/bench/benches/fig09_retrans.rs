//! Figure 9: TCP retransmission analysis across all clouds (left: per
//! cloud; right: Google Cloud per pattern) — negligible on Amazon and
//! HPCCloud, common (~hundreds of thousands per week-long experiment)
//! on Google Cloud.

use bench::{banner, check};
use repro_core::clouds::{ec2, gce, hpccloud};
use repro_core::exec::current_jobs;
use repro_core::measure::campaign::run_all_patterns;
use repro_core::netsim::units::WEEK;

fn main() {
    banner(
        "Figure 9",
        "TCP retransmissions per week-long experiment, all clouds",
    );

    let ec2_res = run_all_patterns(&ec2::c5_xlarge(), WEEK, 9, current_jobs()).unwrap();
    let gce_res = run_all_patterns(&gce::n_core(8), WEEK, 9, current_jobs()).unwrap();
    let hpc_res = run_all_patterns(&hpccloud::n_core(8), WEEK, 9, current_jobs()).unwrap();

    println!("  per-cloud totals (thousand retransmissions, by pattern):");
    println!(
        "  {:<10} {:>12} {:>12} {:>12}",
        "cloud", "full-speed", "10-30", "5-30"
    );
    for (name, res) in [
        ("Amazon", &ec2_res),
        ("Google", &gce_res),
        ("HPCCloud", &hpc_res),
    ] {
        println!(
            "  {:<10} {:>11.1}k {:>11.1}k {:>11.1}k",
            name,
            res[0].total_retransmissions as f64 / 1e3,
            res[1].total_retransmissions as f64 / 1e3,
            res[2].total_retransmissions as f64 / 1e3,
        );
    }

    let gce_full = gce_res[0].total_retransmissions;
    let gce_rate = gce_full as f64
        / (gce_res[0].total_bits / (131_072.0_f64.min(65_536.0) * 8.0));
    println!(
        "  Google full-speed: {:.0}k retransmissions (~{:.3}% of segments)",
        gce_full as f64 / 1e3,
        gce_rate * 100.0
    );

    check(
        "Google Cloud retransmissions reach the hundreds of thousands",
        gce_full > 100_000 && gce_full < 1_000_000,
    );
    check(
        "Amazon retransmissions are negligible by comparison (<2% of Google's)",
        (ec2_res[0].total_retransmissions as f64) < 0.02 * gce_full as f64,
    );
    check(
        "HPCCloud retransmissions are negligible by comparison (<2% of Google's)",
        (hpc_res[0].total_retransmissions as f64) < 0.02 * gce_full as f64,
    );
    check(
        "Google per-pattern ordering follows traffic volume (full > 10-30 > 5-30)",
        gce_res[0].total_retransmissions > gce_res[1].total_retransmissions
            && gce_res[1].total_retransmissions > gce_res[2].total_retransmissions,
    );
    println!();
}
