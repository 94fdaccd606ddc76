//! Argument parsing and name resolution for the `cloud-repro` CLI.
//!
//! Kept in the library so the parsing logic is unit-testable; the
//! binary (`src/bin/cloud-repro.rs`) only wires subcommands to it.

use repro_core::bigdata::{self, workloads};
use repro_core::clouds;
use repro_core::netsim::TrafficPattern;
use repro_core::topo;
use std::collections::BTreeMap;

/// Parse `--key value` / `--flag` pairs into a map.
///
/// A flag followed by another flag (or by nothing) is boolean and maps
/// to `"true"`.
pub fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        if key.is_empty() {
            return Err("empty flag name".to_string());
        }
        if i + 1 >= args.len() || args[i + 1].starts_with("--") {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
        } else {
            flags.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        }
    }
    Ok(flags)
}

/// Reject any flag `cmd` does not read, so a misspelt or retired flag
/// fails loudly instead of being silently ignored. The check is per
/// mode: `campaign` without `--tenants` runs the batch campaign, which
/// reads none of the streaming flags. `--jobs` is global: every
/// subcommand accepts it. An unknown subcommand passes: its caller
/// reports it.
pub fn check_flags(cmd: &str, flags: &BTreeMap<String, String>) -> Result<(), String> {
    let mode = match cmd {
        "campaign" if !flags.contains_key("tenants") => "campaign without --tenants",
        _ => cmd,
    };
    let known = match mode {
        "list" | "survey" | "help" | "--help" | "-h" => "",
        "campaign without --tenants" => "cloud pattern hours seed",
        "campaign" => {
            "cloud pattern hours seed tenants faults placement-seed self-check \
             checkpoint-every topology hosts journal resume kill-after"
        }
        "fleet" => {
            "cloud pattern hours pairs seed max-attempts retry-budget verify-resume \
             checkpoint-every journal resume kill-after"
        }
        "probe" => "cloud probes seed max-seconds",
        "fingerprint" => "cloud seed bucket",
        "run" => "cloud workload reps nodes seed topology placement-seed",
        "plan" => "cloud workload pilot target seed",
        "detlint" => "root json",
        _ => return Ok(()),
    };
    let reads = |key: &str| key == "jobs" || known.split_whitespace().any(|f| f == key);
    match flags.keys().find(|k| !reads(k)) {
        Some(k) => Err(format!("unknown flag --{k} for {mode}")),
        None => Ok(()),
    }
}

/// Resolve a cloud name like `ec2-c5.xlarge`, `gce-8`, `hpc-2`.
pub fn cloud_by_name(name: &str) -> Result<clouds::CloudProfile, String> {
    let profile = match name {
        "ec2-c5.large" => clouds::ec2::c5_large(),
        "ec2-c5.xlarge" => clouds::ec2::c5_xlarge(),
        "ec2-c5.2xlarge" => clouds::ec2::c5_2xlarge(),
        "ec2-c5.4xlarge" => clouds::ec2::c5_4xlarge(),
        "ec2-c5.9xlarge" => clouds::ec2::c5_9xlarge(),
        "ec2-m5.xlarge" => clouds::ec2::m5_xlarge(),
        "ec2-m4.16xlarge" => clouds::ec2::m4_16xlarge(),
        "gce-1" => clouds::gce::n_core(1),
        "gce-2" => clouds::gce::n_core(2),
        "gce-4" => clouds::gce::n_core(4),
        "gce-8" => clouds::gce::n_core(8),
        "hpc-2" => clouds::hpccloud::n_core(2),
        "hpc-4" => clouds::hpccloud::n_core(4),
        "hpc-8" => clouds::hpccloud::n_core(8),
        other => return Err(format!("unknown cloud {other:?}; see `cloud-repro list`")),
    };
    Ok(profile)
}

/// Resolve a workload name: HiBench (`terasort`/`ts` …) or TPC-DS
/// (`q65`, restricted to the Figure 17 subset).
pub fn workload_by_name(name: &str) -> Result<bigdata::JobSpec, String> {
    use workloads::{hibench, tpcds};
    if let Some(q) = name.strip_prefix('q') {
        let q: u32 = q.parse().map_err(|_| format!("bad query {name:?}"))?;
        if !tpcds::QUERIES.contains(&q) {
            return Err(format!(
                "query {q} is outside the Figure 17 subset {:?}",
                tpcds::QUERIES
            ));
        }
        return Ok(tpcds::query(q));
    }
    Ok(match name {
        "terasort" | "ts" => hibench::terasort(),
        "wordcount" | "wc" => hibench::wordcount(),
        "sort" | "s" => hibench::sort(),
        "bayes" | "bs" => hibench::bayes(),
        "kmeans" | "km" => hibench::kmeans(),
        other => return Err(format!("unknown workload {other:?}; see `cloud-repro list`")),
    })
}

/// Resolve a traffic-pattern name.
pub fn pattern_by_name(name: &str) -> Result<TrafficPattern, String> {
    Ok(match name {
        "full-speed" | "full" => TrafficPattern::FullSpeed,
        "10-30" => TrafficPattern::TEN_THIRTY,
        "5-30" => TrafficPattern::FIVE_THIRTY,
        other => {
            return Err(format!(
                "unknown pattern {other:?} (full-speed, 10-30, 5-30)"
            ))
        }
    })
}

/// Resolve a `--topology` name against the topo zoo, sized to hold at
/// least `nodes` hosts: `flat` (the default linkless model —
/// byte-identical to not passing `--topology` at all), `star`,
/// `fattree<k>` (e.g. `fattree4`), `oversub<ratio>` (e.g. `oversub2`).
pub fn topology_by_name(name: &str, nodes: usize) -> Result<topo::Topology, String> {
    topo::zoo::by_name(name, nodes).map_err(|e| e.to_string())
}

/// Fetch a float flag with a default.
pub fn get_f64(flags: &BTreeMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} wants a number, got {v:?}")),
    }
}

/// Fetch an integer flag with a default.
pub fn get_u64(flags: &BTreeMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} wants an integer, got {v:?}")),
    }
}

/// Parse the global `--jobs N` flag: `Some(n)` for a positive integer,
/// `None` when absent (callers fall back to the `REPRO_JOBS`
/// environment variable, then to all cores — see
/// [`exec::resolve_jobs`](repro_core::exec::resolve_jobs)).
///
/// Worker count never changes results (the runtime merges by task
/// index), so this flag trades wall-clock time only.
pub fn get_jobs(flags: &BTreeMap<String, String>) -> Result<Option<usize>, String> {
    match flags.get("jobs") {
        None => Ok(None),
        Some(v) => match repro_core::exec::parse_jobs(v) {
            Some(n) => Ok(Some(n)),
            None => Err(format!("--jobs wants a positive integer, got {v:?}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_key_values_and_booleans() {
        let f = parse_flags(&args(&["--cloud", "gce-8", "--bucket", "--hours", "2"])).unwrap();
        assert_eq!(f["cloud"], "gce-8");
        assert_eq!(f["bucket"], "true");
        assert_eq!(f["hours"], "2");
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn trailing_boolean_flag() {
        let f = parse_flags(&args(&["--bucket"])).unwrap();
        assert_eq!(f["bucket"], "true");
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(parse_flags(&args(&["oops"])).is_err());
        assert!(parse_flags(&args(&["--"])).is_err());
    }

    #[test]
    fn resolves_all_advertised_clouds() {
        for name in [
            "ec2-c5.large",
            "ec2-c5.xlarge",
            "ec2-c5.2xlarge",
            "ec2-c5.4xlarge",
            "ec2-c5.9xlarge",
            "ec2-m5.xlarge",
            "ec2-m4.16xlarge",
            "gce-1",
            "gce-2",
            "gce-4",
            "gce-8",
            "hpc-2",
            "hpc-4",
            "hpc-8",
        ] {
            assert!(cloud_by_name(name).is_ok(), "{name}");
        }
        assert!(cloud_by_name("azure-d4").is_err());
    }

    #[test]
    fn resolves_workloads_and_aliases() {
        assert_eq!(workload_by_name("terasort").unwrap().name, "TS");
        assert_eq!(workload_by_name("ts").unwrap().name, "TS");
        assert_eq!(workload_by_name("q65").unwrap().name, "q65");
        assert!(workload_by_name("q999").is_err());
        assert!(workload_by_name("q12").is_err()); // not in the subset
        assert!(workload_by_name("pi").is_err());
    }

    #[test]
    fn resolves_patterns() {
        assert_eq!(pattern_by_name("full").unwrap().label(), "full-speed");
        assert_eq!(pattern_by_name("10-30").unwrap().label(), "10-30");
        assert!(pattern_by_name("1-1").is_err());
    }

    #[test]
    fn jobs_flag_parses_or_rejects() {
        let f = parse_flags(&args(&["--jobs", "4"])).unwrap();
        assert_eq!(get_jobs(&f).unwrap(), Some(4));
        let absent = parse_flags(&args(&["--seed", "1"])).unwrap();
        assert_eq!(get_jobs(&absent).unwrap(), None);
        for bad in ["0", "-3", "many"] {
            let f = parse_flags(&args(&["--jobs", bad])).unwrap();
            assert!(get_jobs(&f).is_err(), "--jobs {bad} must be rejected");
        }
    }

    #[test]
    fn resolves_topologies() {
        assert!(topology_by_name("flat", 12).unwrap().is_flat());
        assert_eq!(topology_by_name("fattree4", 32).unwrap().hosts().len(), 32);
        assert!(topology_by_name("oversub2", 12).unwrap().hosts().len() >= 12);
        assert!(topology_by_name("star", 4).is_ok());
        assert!(topology_by_name("torus", 4).is_err());
        assert!(topology_by_name("fattree3", 4).is_err());
    }

    #[test]
    fn subcommands_refuse_flags_they_do_not_read() {
        let flags = |line: &str| parse_flags(&args(&line.split(' ').collect::<Vec<_>>())).unwrap();
        assert!(check_flags("run", &flags("--cloud gce-8 --workload q65 --jobs 2")).is_ok());
        assert_eq!(
            check_flags("run", &flags("--cloud gce-8 --fabric-path reference")).unwrap_err(),
            "unknown flag --fabric-path for run"
        );
        assert_eq!(
            check_flags("fleet", &flags("--cloud hpc-8 --pairs 2 --step-budget 10")).unwrap_err(),
            "unknown flag --step-budget for fleet"
        );
        // A flag one subcommand reads is still foreign to another.
        let hosts = flags("--hosts 16");
        assert!(check_flags("campaign", &flags("--tenants 8 --hosts 16")).is_ok());
        assert!(check_flags("run", &hosts).is_err());
        assert!(check_flags("list", &hosts).is_err());
        // `--jobs` is global; unknown subcommands are reported elsewhere.
        assert!(check_flags("survey", &flags("--jobs 4")).is_ok());
        assert!(check_flags("teleport", &hosts).is_ok());
    }

    #[test]
    fn batch_campaign_refuses_the_streaming_flags() {
        let flags = |line: &str| parse_flags(&args(&line.split(' ').collect::<Vec<_>>())).unwrap();
        let batch = "--cloud hpc-8 --pattern 10-30 --hours 0.2 --seed 3 --jobs 2";
        assert!(check_flags("campaign", &flags(batch)).is_ok());
        for extra in [
            "--faults",
            "--journal x.jnl",
            "--resume",
            "--topology star",
            "--hosts 16",
            "--placement-seed 4",
            "--self-check",
            "--checkpoint-every 8",
            "--kill-after 5",
        ] {
            let key = extra.split(' ').next().unwrap();
            assert_eq!(
                check_flags("campaign", &flags(&format!("{batch} {extra}"))).unwrap_err(),
                format!("unknown flag {key} for campaign without --tenants"),
            );
            // The same flag is read once `--tenants` selects streaming.
            let stream = format!("{batch} --tenants 100 {extra}");
            assert!(check_flags("campaign", &flags(&stream)).is_ok(), "{extra}");
        }
    }

    #[test]
    fn typed_getters() {
        let f = parse_flags(&args(&["--hours", "2.5", "--reps", "7", "--bad", "x"])).unwrap();
        assert_eq!(get_f64(&f, "hours", 1.0).unwrap(), 2.5);
        assert_eq!(get_u64(&f, "reps", 1).unwrap(), 7);
        assert_eq!(get_f64(&f, "absent", 9.0).unwrap(), 9.0);
        assert!(get_f64(&f, "bad", 0.0).is_err());
        assert!(get_u64(&f, "hours", 0).is_err()); // 2.5 is not an int
    }
}
