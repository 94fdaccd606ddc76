//! Supplementary: topology-aware fabric — a fat-tree incast campaign
//! with per-link max-min water-filling and ECMP path spreading.
//!
//! A 32-host `fattree4` hosts repeated incast rounds: every host sends
//! a randomly-sized flow to one sink, the fabric steps until the fan-in
//! drains, and the golden hash folds every completion horizon and
//! per-node byte counter. The campaign runs through both stepping
//! engines (event, reference) on both the fat-tree and the flat
//! topology; the runs must agree bit-for-bit per topology, and a
//! sharded fleet of eight campaigns must hash identically on
//! REPRO_JOBS=1 and 4. Wall-clock numbers (steps/sec, the
//! `Wiring::new` build time of a 64-endpoint `fattree8` and a 1024-host
//! `fattree16`, and the per-flow cost of batch-routing a 64-node
//! terasort's shuffles on `fattree8` as a median with a bootstrap CI) and the
//! per-link water-filling cache hit rate land in machine-readable
//! `BENCH_topo.json` so future PRs can track the trajectory.

use bench::{banner, check, rss, MedianCi};
use repro_core::exec;
use repro_core::netsim::fabric::{Fabric, FabricPerf, FlowSpec, LinkRoute, StepPath};
use repro_core::netsim::rng::{derive_seed, SimRng};
use repro_core::netsim::shaper::StaticShaper;
use repro_core::topo::{zoo, Wiring};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const HOSTS: usize = 32;
const ROUNDS: usize = 24;
const DT: f64 = 0.01;
const SEED: u64 = 2020;
/// `Wiring::new` builds timed per topology; the median is reported.
const WIRING_BUILDS: usize = 5;
/// Timed passes over a terasort job's routes (after one warm-up pass).
const ROUTE_REPEATS: usize = 21;

/// One incast campaign on a named zoo topology: `ROUNDS` fan-ins, each
/// fully drained before the next starts. Returns (golden hash, perf).
fn incast_campaign(topo_name: &str, path: StepPath, seed: u64) -> (u64, FabricPerf) {
    let topo = zoo::by_name(topo_name, HOSTS).expect("zoo topology");
    let wiring =
        Wiring::new(topo, HOSTS, seed, derive_seed(seed, 0x17)).expect("topology holds 32 hosts");
    let mut fab = Fabric::new();
    for _ in 0..HOSTS {
        // Generous NICs: on the fat-tree the 10 Gbps access links (and
        // the shared uplinks) are the binding constraints; on flat the
        // 40 Gbps ingress cap at the sink is.
        fab.add_node(StaticShaper::new(40e9), 40e9);
    }
    fab.force_path(path);
    wiring.install(&mut fab);

    let mut rng = SimRng::new(derive_seed(seed, 1));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for _round in 0..ROUNDS {
        let sink = rng.index(HOSTS);
        let fan_in = (0..HOSTS)
            .filter(|&src| src != sink)
            .map(|src| FlowSpec::new(src, sink, 1e8 * (1 + rng.index(8)) as f64));
        wiring.start_flows(&mut fab, fan_in);
        while fab.active_flows() > 0 {
            fab.step(DT);
        }
        eat(fab.now().to_bits());
        eat(fab.node_total_tx_bits(sink).to_bits());
    }
    for v in 0..HOSTS {
        eat(fab.node_total_tx_bits(v).to_bits());
    }
    (h, fab.perf())
}

/// Median wall time of [`WIRING_BUILDS`] `Wiring::new` calls placing
/// `endpoints` fabric nodes on the named zoo topology.
fn wiring_new_s(topo_name: &str, endpoints: usize) -> f64 {
    let topo = zoo::by_name(topo_name, endpoints).expect("zoo topology");
    let mut times: Vec<f64> = (0..WIRING_BUILDS)
        .map(|_| {
            let t = topo.clone();
            let t0 = Instant::now();
            let wiring =
                Wiring::new(t, endpoints, SEED, SEED).expect("topology holds the endpoints");
            let wall = t0.elapsed().as_secs_f64();
            drop(wiring);
            wall
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[WIRING_BUILDS / 2]
}

/// Per-flow cost of the batch routing path (`Wiring::route_flows`,
/// what shuffle admission runs), one sample per pass, on a 64-endpoint
/// `fattree8`: each pass routes the three all-to-all shuffles of one
/// terasort job (3 × 4032 flows), each as one batch in the engine's
/// src-major start order, labelled by flow id.
fn route_ns_per_flow() -> Vec<f64> {
    const NODES: usize = 64;
    let topo = zoo::by_name("fattree8", NODES).expect("zoo topology");
    let wiring = Wiring::new(topo, NODES, SEED, SEED).expect("topology holds the endpoints");
    let specs: Vec<FlowSpec> = (0..NODES)
        .flat_map(|src| (0..NODES).filter(move |&d| d != src).map(move |d| (src, d)))
        .map(|(src, dst)| FlowSpec::new(src, dst, 1e9))
        .collect();
    let mut routes = vec![LinkRoute::EMPTY; specs.len()];
    let mut pass = || {
        let mut label = 0u64;
        for _shuffle in 0..3 {
            wiring.route_flows(&specs, label, &mut routes);
            black_box(&routes);
            label += specs.len() as u64;
        }
        label
    };
    pass();
    (0..ROUTE_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let flows = pass();
            t0.elapsed().as_secs_f64() * 1e9 / flows as f64
        })
        .collect()
}

fn main() {
    banner(
        "Supp. topo",
        "Fat-tree incast: per-link water-filling with bit-identical goldens",
    );
    println!(
        "  workload: {HOSTS}-host fattree4, {ROUNDS} incast rounds, ECMP spreading, dt={DT} s"
    );

    // Each engine runs the identical campaign several times; the best
    // run is the least-noisy estimate of its cost on this machine.
    const TIMING_RUNS: usize = 3;
    let time_path = |topo_name: &str, path: StepPath| {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..TIMING_RUNS {
            let t0 = Instant::now();
            let r = incast_campaign(topo_name, path, SEED);
            best = best.min(t0.elapsed().as_secs_f64());
            out = Some(r);
        }
        let (hash, perf) = out.expect("at least one timing run");
        (hash, perf, best)
    };

    let (tree_ref, perf_ref, t_ref) = time_path("fattree4", StepPath::Reference);
    println!(
        "  reference: {:.1} ms wall (best of {TIMING_RUNS}), {} steps, hash {tree_ref:016x}",
        t_ref * 1e3,
        perf_ref.steps
    );
    let (tree_event, perf_event, t_event) = time_path("fattree4", StepPath::Event);
    let steps_per_sec_event = perf_event.steps as f64 / t_event;
    let link_hit = perf_event.link_cache_hit_rate();
    println!(
        "  event:     {:.1} ms wall (best of {TIMING_RUNS}), {} steps ({steps_per_sec_event:.0} steps/s), link cache {}/{} ({:.1}% hit), hash {tree_event:016x}",
        t_event * 1e3,
        perf_event.steps,
        perf_event.link_cache_hits,
        perf_event.link_recomputes + perf_event.link_cache_hits,
        link_hit * 100.0
    );

    // Flat topology through both engines: the flat-equivalence contract
    // says topology-aware plumbing must leave the linkless model
    // untouched, whichever engine steps it.
    let (flat_event, flat_perf, _) = time_path("flat", StepPath::Event);
    let (flat_ref, ..) = time_path("flat", StepPath::Reference);
    println!("  flat:      hashes event {flat_event:016x} / reference {flat_ref:016x}");

    // REPRO_JOBS invariance: shard 8 campaign seeds across 1 and 4
    // workers and compare the combined goldens.
    let fleet = |jobs: usize| -> u64 {
        let seeds: Vec<u64> = (0..8).collect();
        let hashes = exec::par_map(jobs, &seeds, |&s| {
            incast_campaign("fattree4", StepPath::Event, derive_seed(SEED, s)).0
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

    // ECMP wiring build cost: one BFS per host, counts not paths.
    let wiring_ft8 = wiring_new_s("fattree8", 64);
    let wiring_ft16 = wiring_new_s("fattree16", 1024);
    println!(
        "  wiring:    Wiring::new fattree8@64 {:.2} ms, fattree16@1024 {:.1} ms (median of {WIRING_BUILDS})",
        wiring_ft8 * 1e3,
        wiring_ft16 * 1e3
    );
    let route_ns = MedianCi::of(&route_ns_per_flow());
    println!(
        "  routing:   fattree8@64 terasort shuffles {:.1} ns/flow (median of {}, 95% CI {:.1}..{:.1})",
        route_ns.median, route_ns.n, route_ns.ci_lo, route_ns.ci_hi
    );
    println!("  memory:    {}", rss::footer(rss::sample()));

    // Machine-readable perf trajectory.
    let tree_ok = tree_event == tree_ref;
    let flat_ok = flat_event == flat_ref;
    let json = format!(
        "{{\n  \"bench\": \"supp_topo_incast\",\n  \"workload\": \"fattree4_32host_incast_{ROUNDS}rounds\",\n  \"wall_s_reference\": {t_ref:.4},\n  \"wall_s_event\": {t_event:.4},\n  \"steps_per_sec_event\": {steps_per_sec_event:.1},\n  \"fabric_steps\": {},\n  \"link_recomputes\": {},\n  \"link_cache_hits\": {},\n  \"link_cache_hit_rate\": {link_hit:.4},\n  \"wiring_new_s_fattree8_64\": {wiring_ft8:.6},\n  \"wiring_new_s_fattree16_1024\": {wiring_ft16:.6},\n  \"route_ns_per_flow_fattree8_64\": {},\n  \"golden_hash_fattree\": \"{tree_event:016x}\",\n  \"golden_hash_flat\": \"{flat_event:016x}\",\n  \"goldens_match_reference\": {},\n  \"jobs_invariant\": {}\n}}\n",
        perf_event.steps,
        perf_event.link_recomputes,
        perf_event.link_cache_hits,
        route_ns.json("ns", 1),
        tree_ok && flat_ok,
        fleet_1 == fleet_4,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_topo.json");
    std::fs::write(&out, &json).expect("write BENCH_topo.json");
    println!("  wrote {}", out.display());

    check(
        "golden hashes identical across event and reference on fattree4",
        tree_ok,
    );
    check(
        "golden hashes identical across both engines on the flat topology",
        flat_ok,
    );
    check(
        "fat-tree and flat campaigns diverge (the topology is load-bearing)",
        tree_event != flat_event,
    );
    check(
        "fleet goldens invariant across REPRO_JOBS=1/4",
        fleet_1 == fleet_4,
    );
    check(
        "per-link water-filling cache engages on the incast (>50% hits)",
        link_hit > 0.5,
    );
    check(
        "flat campaigns never touch the per-link allocator",
        flat_perf.link_recomputes == 0 && flat_perf.link_cache_hits == 0,
    );
    println!();
}
