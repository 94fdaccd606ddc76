//! Figure 5: Google Cloud 8-core bandwidth for full-speed / 10-30 /
//! 5-30 over one week — the cloud where *longer* streams do better.

use bench::{banner, box_row, check, series_row};
use repro_core::clouds::gce;
use repro_core::exec::current_jobs;
use repro_core::measure::{campaign::run_all_patterns, CampaignResult};
use repro_core::netsim::units::{as_gbps, gbps, WEEK};
use repro_core::vstats::describe::BoxSummary;

fn gbps_box(r: &CampaignResult) -> BoxSummary {
    let b = r.summary.box_summary;
    BoxSummary {
        p1: as_gbps(b.p1),
        p25: as_gbps(b.p25),
        p50: as_gbps(b.p50),
        p75: as_gbps(b.p75),
        p99: as_gbps(b.p99),
    }
}

fn main() {
    banner(
        "Figure 5",
        "Google Cloud (8-core) bandwidth by access pattern, one week",
    );
    let profile = gce::n_core(8);
    let results = run_all_patterns(&profile, WEEK, 5, current_jobs()).unwrap();

    for r in &results {
        let series: Vec<(f64, f64)> = r
            .trace
            .samples
            .iter()
            .map(|s| (s.t, s.bandwidth_bps))
            .collect();
        series_row(&r.pattern, &series, 1e-9, "Gbps");
    }
    for r in &results {
        box_row(&r.pattern, &gbps_box(r), "Gbps");
    }

    let full = &results[0];
    let ten = &results[1];
    let five = &results[2];
    println!(
        "  max consecutive swing (5-30): {:.0}%",
        five.trace.max_consecutive_swing() * 100.0
    );

    // Paper: 13–15.8 Gbps overall; full-speed stable and high; 5-30 has
    // a long lower tail; 5-30 swings up to 114% between samples.
    check(
        "bandwidth between ~13 and ~15.8 Gbps (medians)",
        full.summary.box_summary.p50 > gbps(14.5)
            && five.summary.box_summary.p50 > gbps(12.5)
            && full.summary.box_summary.p50 < gbps(16.0),
    );
    check(
        "longer streams achieve better performance (full > 10-30 > 5-30)",
        full.mean_bandwidth_bps() > ten.mean_bandwidth_bps()
            && ten.mean_bandwidth_bps() > five.mean_bandwidth_bps(),
    );
    check(
        "5-30 has the longest lower tail",
        five.summary.box_summary.p1 < ten.summary.box_summary.p1
            && ten.summary.box_summary.p1 <= full.summary.box_summary.p1 * 1.02,
    );
    check(
        "full-speed is the most stable pattern (smallest CoV)",
        full.summary.cov < five.summary.cov,
    );
    println!();
}
