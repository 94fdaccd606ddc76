//! Supplementary: million-tenant scale — streaming campaign aggregation
//! with memory bounded in the tenant count.
//!
//! The streaming driver shards seed-derived tenants into fixed panes
//! and folds each pane into O(1) sketch state, so a 100 000-tenant
//! campaign must not hold more memory than a 10 000-tenant one. This
//! bench times the 10k campaign (tenants/sec), proves worker-count
//! invariance of the report fingerprint, cross-checks the quantile
//! sketch against the exact estimator at 10k tenants, verifies the
//! topology ceilings bind, and then runs 100k tenants to confirm the
//! peak resident set stays flat. Finally it reruns 10k and 100k
//! tenants journaled, checkpointing every pane: the fingerprints must
//! equal the plain ones, the peak resident set must pass the same
//! flatness rule, and the 100k journaled wall may exceed the plain one
//! by at most 15% — judged on the median ratio over alternating
//! plain/journaled pairs, since one pair of single-shot walls is a coin
//! flip at this margin. Results land in `BENCH_scale.json`.

use bench::{banner, check, rss, MedianCi};
use repro_core::measure::stream::{
    run_fleet_stream, run_fleet_stream_journaled, StreamSpec, StreamSummary, PANE_TENANTS,
};
use repro_core::netsim::units::hours;
use repro_core::netsim::TrafficPattern;
use repro_core::topo::zoo;
use std::path::Path;
use std::time::Instant;

const SEED: u64 = 2020;
const JOBS: usize = 4;

fn spec(tenants: u64) -> StreamSpec {
    StreamSpec::new(
        repro_core::clouds::hpccloud::n_core(8).with_reference_faults(),
        TrafficPattern::FullSpeed,
        hours(0.05),
        tenants,
        SEED,
    )
}

/// Largest median journaled-over-plain wall ratio at 100k tenants
/// (the ROADMAP's journal overhead gate).
const MAX_JOURNAL_OVERHEAD: f64 = 1.15;

/// Plain/journaled 100k pairs behind the overhead gate. Even pairs run
/// plain first, odd pairs journaled first, so a drifting host speed
/// falls alike on both sides; an even count balances the two orders.
const OVERHEAD_PAIRS: usize = 6;

/// Wall seconds of a plain 100k campaign.
fn plain_100k_wall() -> f64 {
    let t0 = Instant::now();
    run_fleet_stream(&spec(100_000), JOBS).expect("100k campaign");
    t0.elapsed().as_secs_f64()
}

/// Run `tenants` tenants journaled, checkpointing every pane, into a
/// fresh temp journal; returns the summary and the wall seconds.
fn journaled(tenants: u64) -> (StreamSummary, f64) {
    let mut s = spec(tenants);
    s.checkpoint_every = PANE_TENANTS;
    let name = format!("supp_scale_{}_{tenants}.jnl", std::process::id());
    let path = std::env::temp_dir().join(name);
    let _ = std::fs::remove_file(&path);
    let t0 = Instant::now();
    let out =
        run_fleet_stream_journaled(&s, &path, false, JOBS, |_| ()).expect("journaled campaign");
    let wall = t0.elapsed().as_secs_f64();
    std::fs::remove_file(&path).expect("remove scratch journal");
    (out.summary, wall)
}

fn main() {
    banner(
        "Supp. scale",
        "Streaming campaign: O(1)-per-tenant aggregation at 10k-100k tenants",
    );
    println!("  workload: hpc-8 + reference faults, full-speed, {:.0} s per tenant", hours(0.05));

    // Timed 10k-tenant run with the sketch-vs-exact self-check active.
    let mut s10k = spec(10_000);
    s10k.self_check = true;
    let t0 = Instant::now();
    let ten_k = run_fleet_stream(&s10k, JOBS).expect("10k campaign");
    let wall_10k = t0.elapsed().as_secs_f64();
    let tenants_per_sec = 10_000.0 / wall_10k;
    let mem_10k = rss::sample();
    println!(
        "  10k tenants: {:.2} s wall ({tenants_per_sec:.0} tenants/s, jobs={JOBS}), fingerprint {:#018x}",
        wall_10k, ten_k.fingerprint
    );
    println!("  10k memory:  {}", rss::footer(mem_10k));

    // Worker-count invariance: the serial fold must produce the exact
    // same report bytes.
    let plain = spec(10_000);
    let serial = run_fleet_stream(&plain, 1).expect("10k serial");
    let four = run_fleet_stream(&plain, JOBS).expect("10k jobs=4");
    let jobs_invariant =
        serial.fingerprint == four.fingerprint && serial.render(&plain) == four.render(&plain);
    println!(
        "  jobs goldens: jobs=1 {:#018x}, jobs={JOBS} {:#018x}",
        serial.fingerprint, four.fingerprint
    );

    // Sketch fidelity at 10k tenants (past the exact buffer, so the
    // log-histogram path answers).
    let self_check = ten_k.self_check().expect("self-check was enabled");
    println!(
        "  sketch vs exact: max quantile rel err {:.3e} (bound {:.3e}, exact_path={})",
        self_check.max_rel_err, self_check.bound, self_check.exact_path
    );

    // Topology ceilings must bind: a 16-host star shares uplinks.
    let flat2k = spec(2_000);
    let mut star2k = spec(2_000);
    star2k.topology = Some(zoo::star(16).expect("star"));
    let flat_out = run_fleet_stream(&flat2k, JOBS).expect("2k flat");
    let star_out = run_fleet_stream(&star2k, JOBS).expect("2k star");
    let topology_binds = flat_out.fingerprint != star_out.fingerprint
        && star_out.mean_bps.mean() < flat_out.mean_bps.mean();
    println!(
        "  topology: flat mean {:.3e} bps, star mean {:.3e} bps",
        flat_out.mean_bps.mean(),
        star_out.mean_bps.mean()
    );

    // The scale claim: 10x the tenants, flat peak resident set. The
    // peak is a high-water mark, so it can only grow; "flat" means the
    // 100k run adds at most a small constant on top of the 10k peak.
    let t0 = Instant::now();
    let hundred_k = run_fleet_stream(&spec(100_000), JOBS).expect("100k campaign");
    let wall_100k = t0.elapsed().as_secs_f64();
    let mem_100k = rss::sample();
    println!(
        "  100k tenants: {:.2} s wall ({:.0} tenants/s), fingerprint {:#018x}",
        wall_100k,
        100_000.0 / wall_100k,
        hundred_k.fingerprint
    );
    println!("  100k memory: {}", rss::footer(mem_100k));
    let flat_vs_10k = |m: Option<rss::MemUsage>| match (mem_10k, m) {
        (Some(a), Some(b)) => b.peak_mib() <= a.peak_mib() * 1.25 + 64.0,
        // Off-Linux there is nothing to measure; the structural
        // guarantee (no O(N) buffers) is covered by the code itself.
        _ => true,
    };
    let rss_flat = flat_vs_10k(mem_100k);

    // Journaled rows: same campaigns, a durable checkpoint per pane.
    let (ten_k_jnl, wall_10k_jnl) = journaled(10_000);
    let mem_10k_jnl = rss::sample();
    let (hundred_k_jnl, wall_100k_jnl) = journaled(100_000);
    let mem_100k_jnl = rss::sample();
    // Pair 0 is the plain and journaled 100k runs above (plain first).
    let mut ratios = vec![wall_100k_jnl / wall_100k];
    for k in 1..OVERHEAD_PAIRS {
        let (plain, jnl) = if k % 2 == 0 {
            let plain = plain_100k_wall();
            (plain, journaled(100_000).1)
        } else {
            let jnl = journaled(100_000).1;
            (plain_100k_wall(), jnl)
        };
        ratios.push(jnl / plain);
    }
    let journal_overhead = MedianCi::of(&ratios);
    println!(
        "  journaled:    10k {:.2} s, 100k {:.2} s wall, fingerprints {:#018x} / {:#018x}",
        wall_10k_jnl, wall_100k_jnl, ten_k_jnl.fingerprint, hundred_k_jnl.fingerprint
    );
    println!(
        "  journal overhead at 100k: median {:.3}x plain (95% CI {:.3}-{:.3}, {} alternating pairs)",
        journal_overhead.median, journal_overhead.ci_lo, journal_overhead.ci_hi, journal_overhead.n
    );
    println!("  journaled memory: {}", rss::footer(mem_100k_jnl));
    let journaled_matches_plain = ten_k_jnl.fingerprint == four.fingerprint
        && hundred_k_jnl.fingerprint == hundred_k.fingerprint;
    let rss_flat_journaled = flat_vs_10k(mem_100k_jnl);
    let mib =
        |m: Option<rss::MemUsage>| m.map_or("null".to_string(), |m| format!("{:.1}", m.peak_mib()));

    let json = format!(
        "{{\n  \"bench\": \"supp_scale\",\n  \"workload\": \"hpc8_reference_faults_fullspeed_180s\",\n  \"jobs\": {JOBS},\n  \"wall_s_10k\": {wall_10k:.4},\n  \"tenants_per_sec_10k\": {tenants_per_sec:.1},\n  \"wall_s_100k\": {wall_100k:.4},\n  \"tenants_per_sec_100k\": {:.1},\n  \"peak_rss_mib_10k\": {},\n  \"peak_rss_mib_100k\": {},\n  \"rss_flat_10k_to_100k\": {rss_flat},\n  \"fingerprint_10k\": \"{:#018x}\",\n  \"fingerprint_100k\": \"{:#018x}\",\n  \"jobs_invariant\": {jobs_invariant},\n  \"sketch_max_rel_err\": {:.6e},\n  \"sketch_err_bound\": {:.6e},\n  \"topology_binds\": {topology_binds},\n  \"wall_s_10k_journaled\": {wall_10k_jnl:.4},\n  \"wall_s_100k_journaled\": {wall_100k_jnl:.4},\n  \"journal_overhead_100k\": {},\n  \"peak_rss_mib_10k_journaled\": {},\n  \"peak_rss_mib_100k_journaled\": {},\n  \"journaled_matches_plain\": {journaled_matches_plain}\n}}\n",
        100_000.0 / wall_100k,
        mib(mem_10k),
        mib(mem_100k),
        ten_k.fingerprint,
        hundred_k.fingerprint,
        self_check.max_rel_err,
        self_check.bound,
        journal_overhead.json("ratio", 3),
        mib(mem_10k_jnl),
        mib(mem_100k_jnl),
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json");
    std::fs::write(&out, &json).expect("write BENCH_scale.json");
    println!("  wrote {}", out.display());

    check("report fingerprint invariant across jobs=1/4", jobs_invariant);
    check("self-checked and plain 10k runs agree", ten_k.fingerprint == four.fingerprint);
    check("every tenant accounted for at 100k", {
        let t = &hundred_k;
        t.tenants_done == 100_000 && t.alive + t.partial + t.dead + t.panicked == 100_000
    });
    check("sketch quantiles within bound at 10k tenants", self_check.pass);
    check("topology ceilings bind on a 16-host star", topology_binds);
    check("peak RSS flat from 10k to 100k tenants", rss_flat);
    check("journaled fingerprints equal the plain ones", journaled_matches_plain);
    check("journaled peak RSS flat at 100k tenants", rss_flat_journaled);
    check(
        "journaled 100k wall within 1.15x of plain (median of alternating pairs)",
        journal_overhead.median <= MAX_JOURNAL_OVERHEAD,
    );
    println!();
}
