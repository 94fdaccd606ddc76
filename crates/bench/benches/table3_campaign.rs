//! Table 3: the measurement-campaign summary.
//!
//! Runs a representative slice (48 h of simulated time) of each
//! campaign in Table 3, reports whether variability is exhibited, and
//! reconstructs the cost column from on-demand pricing for the paper's
//! stated durations.

use bench::{banner, check};
use repro_core::clouds::{ec2, gce, hpccloud, CloudProfile};
use repro_core::exec::current_jobs;
use repro_core::measure::campaign::run_all_patterns;
use repro_core::netsim::units::{days, WEEK};

struct Row {
    profile: CloudProfile,
    qos_str: &'static str,
    duration_label: &'static str,
    paper_duration_s: f64,
    paper_cost: Option<f64>,
}

fn rows() -> Vec<Row> {
    vec![
        Row { profile: ec2::c5_xlarge(), qos_str: "<= 10", duration_label: "3 weeks", paper_duration_s: 3.0 * WEEK, paper_cost: Some(171.0) },
        Row { profile: ec2::m5_xlarge(), qos_str: "<= 10", duration_label: "3 weeks", paper_duration_s: 3.0 * WEEK, paper_cost: Some(193.0) },
        Row { profile: ec2::c5_9xlarge(), qos_str: "10", duration_label: "1 day", paper_duration_s: days(1.0), paper_cost: Some(73.0) },
        Row { profile: ec2::m4_16xlarge(), qos_str: "20", duration_label: "1 day", paper_duration_s: days(1.0), paper_cost: Some(153.0) },
        Row { profile: gce::n_core(1), qos_str: "2", duration_label: "3 weeks", paper_duration_s: 3.0 * WEEK, paper_cost: Some(34.0) },
        Row { profile: gce::n_core(2), qos_str: "4", duration_label: "3 weeks", paper_duration_s: 3.0 * WEEK, paper_cost: Some(67.0) },
        Row { profile: gce::n_core(4), qos_str: "8", duration_label: "3 weeks", paper_duration_s: 3.0 * WEEK, paper_cost: Some(135.0) },
        Row { profile: gce::n_core(8), qos_str: "16", duration_label: "3 weeks", paper_duration_s: 3.0 * WEEK, paper_cost: Some(269.0) },
        Row { profile: hpccloud::n_core(2), qos_str: "N/A", duration_label: "1 week", paper_duration_s: WEEK, paper_cost: None },
        Row { profile: hpccloud::n_core(4), qos_str: "N/A", duration_label: "1 week", paper_duration_s: WEEK, paper_cost: None },
        Row { profile: hpccloud::n_core(8), qos_str: "N/A", duration_label: "1 week", paper_duration_s: WEEK, paper_cost: None },
    ]
}

fn main() {
    banner(
        "Table 3",
        "Experiment summary for determining performance variability",
    );
    println!(
        "  {:<9} {:<12} {:>6} {:>9} {:>12} {:>9}",
        "Cloud", "Instance", "QoS", "Duration", "Variability", "Cost($)"
    );

    let mut all_variable = true;
    let mut costs_ok = true;
    for (i, row) in rows().iter().enumerate() {
        // A 24 h slice of each of the three patterns is plenty to
        // exhibit (or not) the variability; the paper's "Yes" column
        // covers all patterns of a campaign.
        let patterns =
            run_all_patterns(&row.profile, days(1.0), 1000 + i as u64, current_jobs()).unwrap();
        let variable = patterns.iter().any(|r| r.exhibits_variability());
        let res = &patterns[0];
        all_variable &= variable;
        let cost = row
            .profile
            .price_per_hour_usd
            .map(|p| p * 2.0 * row.paper_duration_s / 3600.0);
        if let (Some(c), Some(pc)) = (cost, row.paper_cost) {
            costs_ok &= (c - pc).abs() / pc < 0.10;
        }
        println!(
            "  {:<9} {:<12} {:>6} {:>9} {:>12} {:>9}",
            res.provider,
            res.instance_type,
            row.qos_str,
            row.duration_label,
            if variable { "Yes" } else { "No" },
            cost.map(|c| format!("{c:.0}")).unwrap_or_else(|| "N/A".into()),
        );
    }

    check("every campaign exhibits variability (Table 3 column)", all_variable);
    check("reconstructed costs match Table 3 within 10%", costs_ok);
    check("eleven campaigns as in Table 3", rows().len() == 11);
    println!();
}
