//! Supplementary: the fabric stepping engine on a fig19-style
//! depletion campaign — wall-clock speedup next to unchanged goldens.
//!
//! Two engines step the same fabric: the reference loops
//! (`StepPath::Reference`, the test oracle) and the event-driven engine
//! (`StepPath::Event`: closed-form next-event horizons jump the fabric
//! between token-bucket crossings, fault transitions, and flow
//! completions on struct-of-arrays state over an allocation-free,
//! signature-cached rate allocation; a single `step` is a one-step
//! window). The two are
//! contractually bit-identical. This bench runs the same 600
//! s-of-simulated-time depletion campaign through each engine, CHECKs
//! the golden trace hashes match exactly (and stay invariant across
//! REPRO_JOBS=1/4 on the event engine), reports the wall times and the
//! speedup as medians over repeated runs with bootstrap CIs next to the
//! cache/event counters, and emits machine-readable `BENCH_fabric.json`
//! so future PRs can track the perf trajectory.

use bench::timer::bench;
use bench::{banner, check, mmss, rss, MedianCi};
use repro_core::bigdata::engine::{run_job_cfg, EngineConfig};
use repro_core::bigdata::workloads::tpcds;
use repro_core::bigdata::Cluster;
use repro_core::exec;
use repro_core::netsim::fabric::{Fabric, FabricPerf, FlowSpec, StepPath};
use repro_core::netsim::rng::derive_seed;
use repro_core::netsim::shaper::{Shaper, TokenBucket};
use std::path::Path;
use std::time::Instant;

const NODES: usize = 12;
const SEED: u64 = 2020;
/// Simulated horizon per campaign: the paper's ~600 s time-to-empty
/// scale (Figure 19's back-to-back repetitions in the same VMs).
const HORIZON_S: f64 = 600.0;

fn cfg() -> EngineConfig {
    EngineConfig {
        shuffle_step_s: 0.5,
        compute_step_s: 2.0,
        trace_interval_s: 10.0,
        compute_jitter_sigma: 0.05,
    }
}

/// One fig19-style campaign: Query 65 repetitions back-to-back in the
/// same (depleting) cluster with brief rests, until 600 s of simulated
/// time have elapsed. Returns (golden hash, reps, fabric perf).
fn depletion_campaign(path: StepPath, seed: u64) -> (u64, u64, FabricPerf) {
    let cfg = cfg();
    let job = tpcds::query(65);
    let mut cluster = Cluster::ec2_emulated(NODES, 16, 1000.0);
    cluster.fabric_mut().force_path(path);

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    let mut reps = 0u64;
    while cluster.fabric().now() < HORIZON_S {
        let r = run_job_cfg(&mut cluster, &job, derive_seed(seed, reps), &cfg);
        eat(r.duration_s.to_bits());
        eat(r.started_at_s.to_bits());
        for &tx in &r.node_tx_bits {
            eat(tx.to_bits());
        }
        cluster.rest(5.0, 1.0);
        reps += 1;
    }
    eat(cluster.fabric().now().to_bits());
    for v in 0..NODES {
        eat(cluster.fabric().node_total_tx_bits(v).to_bits());
        if let Some(b) = cluster.fabric().node_shaper(v).token_budget_bits() {
            eat(b.to_bits());
        }
    }
    (h, reps, cluster.fabric().perf())
}

fn main() {
    banner(
        "Supp. fabric",
        "Stepping engines: fig19-scale speedup with bit-identical goldens",
    );
    println!(
        "  workload: {NODES}-node EC2-emulated cluster, Q65 back-to-back, {} of simulated time",
        mmss(HORIZON_S)
    );

    // The two engines run the identical campaign in alternating pairs
    // (after one untimed warm-up each), so slow drift on a shared
    // machine hits both alike. Each wall and each pair's speedup is
    // reported as a median with a bootstrap CI; the reference counters
    // tell us what the event engine gets to skip.
    const TIMING_PAIRS: usize = 15;
    let timed = |path: StepPath| {
        let t0 = Instant::now();
        let r = depletion_campaign(path, SEED);
        (r, t0.elapsed().as_secs_f64())
    };
    let ((hash_ref, reps_ref, perf_ref), _) = timed(StepPath::Reference);
    let ((hash_event, reps_event, perf_event), _) = timed(StepPath::Event);
    let (mut walls_ref, mut walls_event, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TIMING_PAIRS {
        let (_, r) = timed(StepPath::Reference);
        let (_, e) = timed(StepPath::Event);
        walls_ref.push(r);
        walls_event.push(e);
        speedups.push(r / e);
    }
    let (t_ref, t_event, speedup) = (
        MedianCi::of(&walls_ref),
        MedianCi::of(&walls_event),
        MedianCi::of(&speedups),
    );
    println!(
        "  reference: {:.2} ms wall (median of {TIMING_PAIRS}, 95% CI {:.2}..{:.2}), {reps_ref} reps, {} steps, {} vec allocs, hash {hash_ref:016x}",
        t_ref.median * 1e3,
        t_ref.ci_lo * 1e3,
        t_ref.ci_hi * 1e3,
        perf_ref.steps,
        perf_ref.ref_vec_allocs
    );

    let hit_rate = perf_event.cache_hit_rate();
    println!(
        "  event:     {:.3} ms wall (median of {TIMING_PAIRS}, 95% CI {:.3}..{:.3}), {reps_event} reps, {} steps, {} jumps covering {} steps ({:.1} steps/jump), {} recomputes / {} cache hits ({:.1}% hit), hash {hash_event:016x}",
        t_event.median * 1e3,
        t_event.ci_lo * 1e3,
        t_event.ci_hi * 1e3,
        perf_event.steps,
        perf_event.event_jumps,
        perf_event.event_steps,
        perf_event.event_steps as f64 / perf_event.event_jumps.max(1) as f64,
        perf_event.rate_recomputes,
        perf_event.rate_cache_hits,
        hit_rate * 100.0
    );

    let steps_per_sec_event = perf_event.steps as f64 / t_event.median;
    println!(
        "  speedup: event {:.2}x (median of {TIMING_PAIRS} pairs, 95% CI {:.2}..{:.2})   event engine: {steps_per_sec_event:.0} fabric steps/s",
        speedup.median, speedup.ci_lo, speedup.ci_hi
    );

    // REPRO_JOBS invariance through the event engine: shard 8 campaign
    // seeds across 1 and 4 workers and compare the combined goldens.
    let fleet = |jobs: usize| -> u64 {
        let seeds: Vec<u64> = (0..8).collect();
        let hashes = exec::par_map(jobs, &seeds, |&s| {
            depletion_campaign(StepPath::Event, derive_seed(SEED, s)).0
        });
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in hashes {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    };
    let fleet_1 = fleet(1);
    let fleet_4 = fleet(4);
    println!("  fleet goldens: jobs=1 {fleet_1:016x}, jobs=4 {fleet_4:016x}");

    // Micro-kernels: a steady-state cache-hit single step (a one-step
    // window) and an event-kernel step vs a forced reference step on
    // an identical 132-flow fabric.
    let mk_loaded = |path: StepPath| {
        let mut f = Fabric::new();
        for _ in 0..NODES {
            f.add_node(TokenBucket::sigma_rho(5e12, 1e9, 10e9), 10e9);
        }
        f.force_path(path);
        for s in 0..NODES {
            for d in 0..NODES {
                if s != d {
                    f.start_flow(FlowSpec::new(s, d, 1e18));
                }
            }
        }
        f.step(0.1); // settle the scratch buffers / first allocation
        f
    };
    let mut general = mk_loaded(StepPath::Event);
    let micro_general = bench("step (general, cache hit)", || {
        general.step(0.1);
    });
    let mut refr = mk_loaded(StepPath::Reference);
    let micro_ref = bench("step (reference)", || {
        refr.step(0.1);
    });
    // The kernel is only reachable through `advance`; 64 steps per call
    // amortizes the one general (cache-refresh) step per window.
    let mut ev = mk_loaded(StepPath::Event);
    let mut done = Vec::new();
    let micro_event = bench("advance x64 (event kernel)", || {
        ev.advance(0.1, 64, &mut done);
        done.clear();
    });
    let micro_event_step_ns = micro_event.median_ns / 64.0;
    println!(
        "  micro step speedup: general {:.2}x, event {:.2}x ({:.0} ns/step in-kernel)",
        micro_ref.median_ns / micro_general.median_ns,
        micro_ref.median_ns / micro_event_step_ns,
        micro_event_step_ns,
    );

    // Machine-readable perf trajectory.
    let goldens_ok = hash_event == hash_ref;
    let json = format!(
        "{{\n  \"bench\": \"supp_fabric_speedup\",\n  \"workload\": \"fig19_depletion_600s_q65\",\n  \"speedup\": {},\n  \"wall_s_reference\": {},\n  \"wall_s_event\": {},\n  \"steps_per_sec_event\": {steps_per_sec_event:.1},\n  \"fabric_steps\": {},\n  \"rate_recomputes\": {},\n  \"rate_cache_hits\": {},\n  \"cache_hit_rate\": {hit_rate:.4},\n  \"event_jumps\": {},\n  \"event_steps\": {},\n  \"allocations_avoided\": {},\n  \"micro_step_general_ns\": {:.1},\n  \"micro_step_event_ns\": {:.1},\n  \"micro_step_reference_ns\": {:.1},\n  \"golden_hash\": \"{hash_event:016x}\",\n  \"goldens_match_reference\": {},\n  \"jobs_invariant\": {}\n}}\n",
        speedup.json("x", 3),
        t_ref.json("s", 5),
        t_event.json("s", 6),
        perf_event.steps,
        perf_event.rate_recomputes,
        perf_event.rate_cache_hits,
        perf_event.event_jumps,
        perf_event.event_steps,
        perf_ref.ref_vec_allocs,
        micro_general.median_ns,
        micro_event_step_ns,
        micro_ref.median_ns,
        goldens_ok,
        fleet_1 == fleet_4,
    );
    println!("  memory:    {}", rss::footer(rss::sample()));
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fabric.json");
    std::fs::write(&out, &json).expect("write BENCH_fabric.json");
    println!("  wrote {}", out.display());

    check(
        "golden trace hashes identical across the event and reference engines",
        goldens_ok && reps_event == reps_ref,
    );
    check(
        "event-engine goldens invariant across REPRO_JOBS=1/4",
        fleet_1 == fleet_4,
    );
    check(
        "rate cache engages on the depletion campaign (>90% hits)",
        hit_rate > 0.9,
    );
    check(
        ">=10x wall-clock speedup on the event engine (600 s campaign, median pair)",
        speedup.median >= 10.0,
    );
    println!();
}
