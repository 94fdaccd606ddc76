//! `cloud-repro` — command-line front end for the simulator and the
//! experiment-design toolkit.
//!
//! ```text
//! cloud-repro list
//! cloud-repro campaign  --cloud ec2-c5.xlarge --pattern 5-30 --hours 2
//! cloud-repro fleet     --cloud hpc-8 --pairs 8 --hours 6 --jobs 4
//! cloud-repro probe     --cloud ec2-c5.2xlarge --probes 15
//! cloud-repro fingerprint --cloud ec2-c5.xlarge --bucket
//! cloud-repro run       --cloud gce-8 --workload q65 --reps 10
//! cloud-repro plan      --cloud hpc-8 --workload terasort --pilot 30 --target 0.05
//! cloud-repro survey
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency set minimal.

use cloud_repro::cli::{
    cloud_by_name, fabric_path_by_name, get_f64, get_jobs, get_u64, parse_flags, pattern_by_name,
    topology_by_name, workload_by_name,
};
use cloud_repro::prelude::*;
use netsim::units::hours;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn cmd_list() {
    println!("clouds:");
    println!("  ec2-c5.large ec2-c5.xlarge ec2-c5.2xlarge ec2-c5.4xlarge");
    println!("  ec2-c5.9xlarge ec2-m5.xlarge ec2-m4.16xlarge");
    println!("  gce-1 gce-2 gce-4 gce-8");
    println!("  hpc-2 hpc-4 hpc-8");
    println!("workloads:");
    println!("  terasort wordcount sort bayes kmeans");
    print!("  TPC-DS:");
    for q in bigdata::workloads::tpcds::QUERIES {
        print!(" q{q}");
    }
    println!();
    println!("patterns: full-speed 10-30 5-30");
    print!("topologies:");
    for name in topo::zoo::names() {
        print!(" {name}");
    }
    println!();
}

fn cmd_campaign(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let cloud = cloud_by_name(flags.get("cloud").ok_or("--cloud required")?)?;
    let pattern = pattern_by_name(flags.get("pattern").map(|s| s.as_str()).unwrap_or("full-speed"))?;
    let h = get_f64(flags, "hours", 1.0)?;
    let seed = get_u64(flags, "seed", 1)?;
    if flags.contains_key("tenants") {
        return cmd_campaign_stream(flags, cloud, pattern, h, seed);
    }
    let res = measure::run_campaign(&cloud, pattern, hours(h), seed).map_err(|e| e.to_string())?;
    println!(
        "campaign: {} {} / {} for {h} h (seed {seed})",
        res.provider, res.instance_type, res.pattern
    );
    let report = MeasurementReport::new("bandwidth [bps]", &res.trace.bandwidths());
    print!("{}", report.render());
    println!(
        "total: {:.2} TB moved, {} retransmissions, variability: {}",
        res.total_bits / 8e12,
        res.total_retransmissions,
        res.exhibits_variability()
    );
    if let Some(cost) = res.cost_usd {
        println!("cost of the pair: ${cost:.2}");
    }
    Ok(())
}

/// Streaming campaign: shard `--tenants N` seed-derived pairs into
/// fixed panes, fold each into O(1) sketch state, and print a report
/// whose bytes are invariant to worker count and kill/resume. The
/// deterministic report goes to **stdout**; progress, checkpoints, and
/// resume accounting go to stderr, so `verify.sh` can diff reports
/// across both axes byte-for-byte.
fn cmd_campaign_stream(
    flags: &BTreeMap<String, String>,
    cloud: clouds::CloudProfile,
    pattern: netsim::TrafficPattern,
    h: f64,
    seed: u64,
) -> Result<(), String> {
    let tenants = get_u64(flags, "tenants", 0)?;
    if tenants == 0 {
        return Err("--tenants must be at least 1".into());
    }
    let cloud = if flags.contains_key("faults") { cloud.with_reference_faults() } else { cloud };
    let mut spec = measure::StreamSpec::new(cloud, pattern, hours(h), tenants, seed);
    spec.placement_seed = get_u64(flags, "placement-seed", seed)?;
    spec.self_check = flags.contains_key("self-check");
    spec.checkpoint_every = get_u64(flags, "checkpoint-every", 0)?;
    if let Some(name) = flags.get("topology") {
        let hosts = get_u64(flags, "hosts", 16)? as usize;
        spec.topology = Some(topology_by_name(name, hosts)?);
    }
    let jobs = exec::current_jobs();

    let Some(jpath) = flags.get("journal") else {
        let out = measure::run_fleet_stream(&spec, jobs).map_err(|e| e.to_string())?;
        print!("{}", out.render(&spec));
        return Ok(());
    };

    let resume = flags.contains_key("resume");
    let on_checkpoint = checkpoint_hook(flags, tenants, "tenants")?;
    eprintln!(
        "campaign[journaled]: journal {jpath}, resume={resume}, checkpoint-every={}, \
         {jobs} worker{}",
        spec.cadence(),
        if jobs == 1 { "" } else { "s" }
    );
    let out = measure::run_fleet_stream_journaled(
        &spec,
        std::path::Path::new(jpath),
        resume,
        jobs,
        on_checkpoint,
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "resume: resumed={} skipped={} computed={} verified_pane={} truncated={}B \
         checkpoints={} config={:#018x}",
        out.resume.resumed,
        out.resume.tenants_skipped,
        out.resume.tenants_computed,
        out.resume.verified_pane,
        out.resume.truncated_bytes,
        out.resume.checkpoints_written,
        out.config_fingerprint
    );
    print!("{}", out.summary.render(&spec));
    Ok(())
}

fn cmd_probe(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let cloud = cloud_by_name(flags.get("cloud").ok_or("--cloud required")?)?;
    let n = get_u64(flags, "probes", 15)? as usize;
    let seed = get_u64(flags, "seed", 1)?;
    let max_s = get_f64(flags, "max-seconds", 7000.0)?;
    let probes = measure::probe_instance_type(&cloud, n, seed, max_s);
    if probes.is_empty() {
        println!(
            "{} {}: no token-bucket throttling observed within {max_s} s",
            cloud.provider.name(),
            cloud.instance_type
        );
        return Ok(());
    }
    println!(
        "{} {}: {} of {n} probes saw the drop",
        cloud.provider.name(),
        cloud.instance_type,
        probes.len()
    );
    for (i, p) in probes.iter().enumerate() {
        println!(
            "  probe {i:>2}: time-to-empty {:>6.0} s, {:.2} -> {:.2} Gbps, budget ~{:>6.0} Gbit",
            p.time_to_empty_s,
            p.high_bps / 1e9,
            p.low_bps / 1e9,
            p.budget_bits / 1e9
        );
    }
    let planner = measure::RestPlanner::from_probe(&probes[0]);
    println!(
        "rest planning: full refill takes {:.0} min at the probed refill rate",
        planner.full_refill_s() / 60.0
    );
    Ok(())
}

fn cmd_fingerprint(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let cloud = cloud_by_name(flags.get("cloud").ok_or("--cloud required")?)?;
    let seed = get_u64(flags, "seed", 1)?;
    let with_bucket = flags.contains_key("bucket");
    let fp = measure::Fingerprint::capture(&cloud, seed, with_bucket);
    println!("fingerprint of {} {}:", fp.provider, fp.instance_type);
    println!("  base bandwidth : {:.2} Gbps", fp.base_bandwidth_gbps);
    println!("  base RTT       : {:.3} ms", fp.base_rtt_ms);
    println!("  loaded RTT     : {:.3} ms", fp.loaded_rtt_ms);
    match fp.token_bucket {
        Some(b) => println!(
            "  token bucket   : empties in {:.0} s, {:.1} -> {:.1} Gbps",
            b.time_to_empty_s, b.high_gbps, b.low_gbps
        ),
        None => println!(
            "  token bucket   : {}",
            if with_bucket { "none detected" } else { "not probed (--bucket to enable)" }
        ),
    }
    Ok(())
}

/// The crash-test hook of every journaled subcommand: log each durable
/// checkpoint to stderr and, with `--kill-after N`, die at the first
/// one covering at least `N` of the `total` pairs or tenants — as
/// abruptly as a SIGKILL would: no unwinding, no flushing, mid-campaign.
fn checkpoint_hook(
    flags: &BTreeMap<String, String>,
    total: u64,
    unit: &'static str,
) -> Result<impl FnMut(u64), String> {
    let kill_after = get_u64(flags, "kill-after", 0)?;
    Ok(move |n: u64| {
        eprintln!("  checkpointed {n}/{total} {unit}");
        if kill_after > 0 && n >= kill_after {
            eprintln!("  --kill-after {kill_after}: aborting now");
            std::process::abort();
        }
    })
}

/// Fleet campaign: `--pairs N` VM pairs under supervision budgets. With
/// `--journal PATH` every settled shard is journaled and `--resume`
/// picks an interrupted campaign back up. The deterministic report goes
/// to **stdout** and is the same with or without a journal; everything
/// that may differ between runs (worker count, progress, resume
/// accounting) goes to stderr, so `verify.sh` can diff reports across
/// worker counts, journaling and kill/resume byte-for-byte.
fn cmd_fleet(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let cloud = cloud_by_name(flags.get("cloud").ok_or("--cloud required")?)?;
    let pattern = pattern_by_name(flags.get("pattern").map(|s| s.as_str()).unwrap_or("full-speed"))?;
    let h = get_f64(flags, "hours", 1.0)?;
    let n_pairs = get_u64(flags, "pairs", 6)? as usize;
    let seed = get_u64(flags, "seed", 1)?;
    let mut spec = measure::FleetSpec::new(cloud, pattern, hours(h), n_pairs, seed);
    spec.supervise = measure::SupervisePolicy {
        max_shard_attempts: get_u64(flags, "max-attempts", 3)? as u32,
        retry_budget: get_u64(flags, "retry-budget", 8)? as u32,
        shard_step_budget: get_u64(flags, "step-budget", 0)?,
    };
    spec.verify_sample = get_u64(flags, "verify-resume", 2)? as usize;
    spec.checkpoint_every = get_u64(flags, "checkpoint-every", 1)? as usize;
    let jobs = exec::current_jobs();
    let fleet = match flags.get("journal") {
        None => measure::run_fleet(&spec, jobs).map_err(|e| e.to_string())?,
        Some(jpath) => {
            let resume = flags.contains_key("resume");
            eprintln!(
                "fleet[journaled]: journal {jpath}, resume={resume}, verify-resume={}, \
                 {jobs} worker{}",
                spec.verify_sample,
                if jobs == 1 { "" } else { "s" }
            );
            let on_checkpoint = checkpoint_hook(flags, n_pairs as u64, "pairs")?;
            let out = measure::run_fleet_journaled(
                &spec,
                std::path::Path::new(jpath),
                resume,
                jobs,
                on_checkpoint,
            )
            .map_err(|e| e.to_string())?;
            eprintln!(
                "resume: resumed={} skipped={} verified={} computed={} truncated={}B",
                out.resume.resumed,
                out.resume.skipped,
                out.resume.verified,
                out.resume.computed,
                out.resume.truncated_bytes
            );
            out.fleet
        }
    };
    print!("{}", render_fleet(&spec, h, &fleet));
    Ok(())
}

/// The fleet report: a pure function of the spec and the fleet, so it
/// is byte-identical across worker counts, journaling and kill/resume.
fn render_fleet(spec: &measure::FleetSpec, h: f64, fleet: &measure::FleetResult) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "fleet campaign: {} pairs of {} {} / {} for {h} h (seed {}, config {:#018x})",
        spec.n_pairs,
        spec.profile.provider.name(),
        spec.profile.instance_type,
        spec.pattern.label(),
        spec.seed,
        spec.config_fingerprint()
    );
    for (i, p) in fleet.pairs.iter().enumerate() {
        let _ = writeln!(
            s,
            "  pair {i:>2}: mean {:>6.2} Gbps  CoV {:>6.3}  coverage {:>5.1}%",
            p.mean_bandwidth_bps() / 1e9,
            p.summary.cov,
            p.coverage() * 100.0
        );
    }
    for f in &fleet.failed_pairs {
        let _ = writeln!(
            s,
            "  pair {:>2}: died at {:.0} s (partial data: {})",
            f.pair, f.death_s, f.partial_data
        );
    }
    for p in &fleet.panicked {
        let _ = writeln!(s, "  pair {:>2}: worker task panicked (contained): {}", p.task, p.payload);
    }
    let supervision = &fleet.supervision;
    for shard in &supervision.budget_denied {
        let _ = writeln!(s, "  pair {shard:>2}: denied by step budget (no attempt ran)");
    }
    let _ = writeln!(
        s,
        "across-pair CoV {:.4} (spatial), mean within-pair CoV {:.4} (temporal){}",
        fleet.across_pair_cov(),
        fleet.mean_within_pair_cov,
        if fleet.is_degraded() { "  [DEGRADED]" } else { "" }
    );
    if !fleet.pairs.is_empty() {
        let means: Vec<f64> = fleet.pairs.iter().map(|p| p.mean_bandwidth_bps()).collect();
        let report = MeasurementReport::new("pair mean bandwidth [bps]", &means)
            .with_coverage(fleet.coverage().coverage())
            .with_exhaustion(ExhaustionNote {
                retries_used: supervision.retries_used,
                retry_budget: supervision.retry_budget,
                retry_exhausted: supervision.retry_exhausted,
                budget_denied_shards: supervision.budget_denied.len(),
            });
        s.push_str(&report.render());
    }
    s
}

fn cmd_run(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let cloud = cloud_by_name(flags.get("cloud").ok_or("--cloud required")?)?;
    let job = workload_by_name(flags.get("workload").ok_or("--workload required")?)?;
    let reps = get_u64(flags, "reps", 10)? as usize;
    let nodes = get_u64(flags, "nodes", 12)? as usize;
    let seed = get_u64(flags, "seed", 1)?;
    // A/B escape hatch: run the reference loops instead of the event
    // engine. The two are bit-identical; output must not change. The
    // flag wins over `FABRIC_SLOW_PATH`.
    let path = match flags.get("fabric-path") {
        Some(name) => fabric_path_by_name(name)?,
        None => netsim::StepPath::from_env(),
    };
    // A flat topology is byte-identical to passing no `--topology` at
    // all (the flat-equivalence contract, DESIGN.md §12); verify.sh
    // diffs the two invocations, so flat must not mark the header.
    let placement_seed = get_u64(flags, "placement-seed", seed)?;
    let topology = match flags.get("topology") {
        Some(name) => Some(topology_by_name(name, nodes)?),
        None => None,
    };
    println!(
        "running {} x{reps} on {nodes}x {} {} (fresh VMs per run){}{}",
        job.name,
        cloud.provider.name(),
        cloud.instance_type,
        match path {
            netsim::StepPath::Event => "",
            netsim::StepPath::Reference => " [reference fabric path]",
        },
        match &topology {
            Some(t) if !t.is_flat() => format!(" [topology {}]", t.name()),
            _ => String::new(),
        }
    );
    let fleet = measure::run_placement_fleet(
        &cloud,
        &job,
        nodes,
        16,
        reps,
        seed,
        topology.as_ref(),
        placement_seed,
        path,
    )
    .map_err(|e| e.to_string())?;
    let report = MeasurementReport::new(&format!("{} runtime [s]", job.name), &fleet.durations_s)
        .with_fabric_perf(fleet.fabric_perf);
    print!("{}", report.render());
    Ok(())
}

fn cmd_plan(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let cloud = cloud_by_name(flags.get("cloud").ok_or("--cloud required")?)?;
    let job = workload_by_name(flags.get("workload").ok_or("--workload required")?)?;
    let pilot = get_u64(flags, "pilot", 20)? as usize;
    let target = get_f64(flags, "target", 0.05)?;
    let seed = get_u64(flags, "seed", 1)?;
    println!(
        "pilot: {} x{pilot} on {} {}",
        job.name,
        cloud.provider.name(),
        cloud.instance_type
    );
    let samples: Vec<f64> = (0..pilot)
        .map(|rep| {
            let s = netsim::rng::derive_seed(seed, rep as u64);
            let mut cluster = bigdata::Cluster::from_profile(&cloud, 12, 16, s);
            bigdata::run_job(&mut cluster, &job, s).duration_s
        })
        .collect();
    let rec = recommend_repetitions(&samples, 0.5, 0.95, target);
    println!(
        "pilot median {:.1} s; CI error {}",
        vstats::median(&samples),
        rec.pilot_error
            .map(|e| format!("{:.1}%", e * 100.0))
            .unwrap_or_else(|| "n/a".into())
    );
    match rec.recommended {
        Some(n) => println!(
            "-> run at least {n} repetitions for a ±{:.0}% median CI (hard floor {})",
            target * 100.0,
            rec.minimum_for_ci
        ),
        None => println!("-> pilot too small; gather more than {} runs", rec.minimum_for_ci),
    }
    Ok(())
}

/// `cloud-repro detlint [--root DIR] [--json]` — run the determinism &
/// hermeticity linter (token, dataflow, and call-graph rules) over the
/// workspace. Returns `Ok(true)` when the gate is clean (no deny-tier
/// findings).
fn cmd_detlint(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    let root = std::path::Path::new(flags.get("root").map(|s| s.as_str()).unwrap_or("."));
    let findings = detlint::lint_workspace(root).map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        print!("{}", detlint::render_json_lines(&findings));
    } else {
        print!("{}", detlint::render_human(&findings));
    }
    Ok(detlint::tally(&findings).deny == 0)
}

fn cmd_survey() {
    let res = survey::run_survey(&survey::generate());
    println!(
        "survey: {} articles -> {} keyword matches -> {} cloud papers ({} citations)",
        res.total, res.keyword_filtered, res.cloud_selected, res.citations
    );
    println!(
        "reporting: avg/median {:.1}%, variability {:.1}%, poorly specified {:.1}%",
        res.fig1a.pct_avg_or_median, res.fig1a.pct_variability, res.fig1a.pct_poorly_specified
    );
    print!("repetitions histogram:");
    for (r, c) in &res.fig1b {
        print!(" {r}x{c}");
    }
    println!();
    println!(
        "kappa: avg/median {:.2}, variability {:.2}, poor-spec {:.2}",
        res.kappa_avg_median, res.kappa_variability, res.kappa_poor_spec
    );
}

fn usage() {
    println!("cloud-repro — NSDI'20 cloud-variability reproduction toolkit");
    println!();
    println!("subcommands:");
    println!("  list                               clouds, workloads, patterns");
    println!("  campaign --cloud C [--pattern P] [--hours H] [--seed S]");
    println!("        [--tenants N]   streaming campaign: N seed-derived tenant pairs folded");
    println!("        into O(1) sketch state; report bytes invariant to worker count;");
    println!("        [--faults] reference faults; [--topology T] [--hosts N]");
    println!("        [--placement-seed S] per-tenant path ceilings; [--self-check] cross-");
    println!("        check sketch vs exact quantiles; [--journal PATH] [--resume]");
    println!("        [--checkpoint-every K] crash-safe checkpoints every K tenants");
    println!("  fleet --cloud C [--pairs N] [--pattern P] [--hours H] [--seed S]");
    println!("        [--max-attempts N] [--retry-budget N] [--step-budget STEPS] bound");
    println!("        repairs; [--journal PATH] [--resume] [--verify-resume N] crash-safe");
    println!("        campaign: journal every settled shard, resume after a crash, re-verify");
    println!("        N journaled shards bit-for-bit; [--checkpoint-every K] group-commit one");
    println!("        journal write per K shards; same report with or without a journal");
    println!("  (campaign --journal, fleet --journal) [--kill-after N]   crash-test hook:");
    println!("        abort at the first checkpoint covering >= N tenants or pairs");
    println!("  probe --cloud C [--probes N] [--max-seconds T]");
    println!("  fingerprint --cloud C [--bucket]");
    println!("  run --cloud C --workload W [--reps N] [--nodes N] [--fabric-path event|reference]");
    println!("      [--topology T] [--placement-seed S]   place nodes on a datacenter");
    println!("      topology with ECMP spreading; re-placed per repetition");
    println!("  plan --cloud C --workload W [--pilot N] [--target FRAC]");
    println!("  survey");
    println!("  detlint [--root DIR] [--json]   lint against the determinism contract");
    println!();
    println!("global flags:");
    println!("  --jobs N    parallel workers (default: REPRO_JOBS env, then all");
    println!("              cores); results are bit-identical at any worker count");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match get_jobs(&flags) {
        Ok(jobs) => exec::set_global_jobs(jobs),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = match cmd.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "campaign" => cmd_campaign(&flags),
        "fleet" => cmd_fleet(&flags),
        "probe" => cmd_probe(&flags),
        "fingerprint" => cmd_fingerprint(&flags),
        "run" => cmd_run(&flags),
        "plan" => cmd_plan(&flags),
        "survey" => {
            cmd_survey();
            Ok(())
        }
        // detlint has its own exit-code contract (1 = deny findings,
        // 2 = I/O error) and must not print usage on a red gate.
        "detlint" => {
            return match cmd_detlint(&flags) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            };
        }
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}
