//! Property suite for the topology subsystem (DESIGN.md §12).
//!
//! Six contracts, each driven with randomized inputs:
//!
//! * the fabric's per-link max-min water-filling is **bit-identical**
//!   between the event engine and the reference loops on arbitrary
//!   routed problems;
//! * ECMP routing is a pure function of `(topology, seed)`: rebuilt
//!   routers replay the same paths and per-label choices, and every
//!   choice stays within the equal-cost shortest-path set;
//! * the router's counted-DAG unranking reproduces a plain BFS + DFS
//!   enumeration of the shortest paths path-for-path — order and cap
//!   included — on fat trees, oversubscribed trees, stars and layered
//!   graphs with parallel links, dead ends and more than
//!   [`MAX_ECMP_PATHS`] paths per pair, each also with its node ids
//!   permuted;
//! * admitting a burst of flows as one batch ([`Wiring::start_flows`])
//!   is bitwise the same as admitting them one at a time through the
//!   router's single-flow [`Wiring::route_for`];
//! * a fabric wired with a **flat** topology is bitwise
//!   indistinguishable from a plain fabric under a random flow script
//!   (the flat-equivalence contract);
//! * the hand-rolled cluster JSON round-trips: `parse(serialize(t))`
//!   reproduces every node kind and link bit-for-bit, and serializing
//!   again is byte-stable.

use netsim::fabric::{Fabric, FlowId, FlowSpec, StepPath};
use netsim::rng::{derive_seed, SimRng};
use netsim::shaper::StaticShaper;
use netsim::LinkRoute;
use proplite::prelude::*;
use topo::{
    from_cluster_json, to_cluster_json, EcmpRouter, NodeKind, Topology, TopologyBuilder, Wiring,
    MAX_ECMP_PATHS,
};

/// A random routed fabric problem: mixed finite/infinite node egress,
/// node ingress and directed link capacities, an optional core cap,
/// and a flow script with per-flow rate caps and random routes of up to
/// four links. Returns the event-engine fabric, its reference twin and
/// the script's random stream.
fn random_routed_pair(seed: u64) -> (Fabric<StaticShaper>, Fabric<StaticShaper>, SimRng) {
    let mut rng = SimRng::new(seed);
    let n_nodes = 2 + rng.index(6);
    let n_links = rng.index(5);
    let cap = |rng: &mut SimRng| {
        if rng.chance(0.2) {
            f64::INFINITY
        } else {
            rng.uniform_in(1e8, 2e10)
        }
    };
    let egress: Vec<f64> = (0..n_nodes).map(|_| cap(&mut rng)).collect();
    let ingress: Vec<f64> = (0..n_nodes).map(|_| cap(&mut rng)).collect();
    let links: Vec<f64> = (0..2 * n_links).map(|_| cap(&mut rng)).collect();
    let core = if rng.chance(0.4) {
        Some(rng.uniform_in(1e9, 5e10))
    } else {
        None
    };
    let build = |path: StepPath| {
        let mut f = Fabric::new();
        for (&eg, &ing) in egress.iter().zip(&ingress) {
            f.add_node(StaticShaper::new(eg), ing);
        }
        f.set_link_caps(links.clone());
        if let Some(c) = core {
            f.set_core_capacity(c);
        }
        f.force_path(path);
        f
    };
    (build(StepPath::Event), build(StepPath::Reference), rng)
}

/// Assert the event fabric and its reference twin agree bitwise on the
/// clock, every node's tx totals, and every flow's rate and remainder.
fn assert_twins_bit_equal(
    event: &Fabric<StaticShaper>,
    reference: &Fabric<StaticShaper>,
    flows: &[FlowId],
    ctx: &str,
) {
    assert_eq!(
        event.now().to_bits(),
        reference.now().to_bits(),
        "clock diverged ({ctx})"
    );
    for v in 0..event.node_count() {
        assert_eq!(
            event.node_total_tx_bits(v).to_bits(),
            reference.node_total_tx_bits(v).to_bits(),
            "node {v} total tx ({ctx})"
        );
        assert_eq!(
            event.node_last_tx_bits(v).to_bits(),
            reference.node_last_tx_bits(v).to_bits(),
            "node {v} last tx ({ctx})"
        );
    }
    for &id in flows {
        assert_eq!(
            event.flow_last_rate(id).map(f64::to_bits),
            reference.flow_last_rate(id).map(f64::to_bits),
            "flow {id:?} last rate ({ctx})"
        );
        assert_eq!(
            event.flow_remaining_bits(id).map(f64::to_bits),
            reference.flow_remaining_bits(id).map(f64::to_bits),
            "flow {id:?} remaining ({ctx})"
        );
    }
}

/// A random multi-tier topology from the zoo, varied in family and
/// size by `seed`.
fn random_tiered_topology(seed: u64) -> Topology {
    let mut rng = SimRng::new(seed);
    match rng.index(3) {
        0 => topo::zoo::fattree_with([4, 6, 8][rng.index(3)], 1 + rng.index(3)).unwrap(),
        1 => topo::zoo::oversub(4 + rng.index(13), [2.0, 4.0][rng.index(2)]).unwrap(),
        _ => topo::zoo::star(2 + rng.index(8)).unwrap(),
    }
}

/// A two-pod layered graph outside the zoo's shapes: racks of hosts
/// under ToRs, every ToR wired to every aggregation switch of its pod
/// and every aggregation switch to every spine, each with 1–3 parallel
/// links, plus dead-end switch chains hanging off random switches.
/// Links are declared in shuffled order so link ids carry no structure.
/// Inter-pod pairs range from one shortest path to thousands.
fn layered_topology(seed: u64) -> Topology {
    let mut rng = SimRng::new(seed);
    let mut b = TopologyBuilder::new("layered");
    let mut links: Vec<(usize, usize)> = Vec::new();
    let spines = b.nodes(NodeKind::Spine, 1 + rng.index(3));
    let mut switches = spines.clone();
    for _pod in 0..2 {
        let aggs = b.nodes(NodeKind::Fabric, 1 + rng.index(3));
        for &agg in &aggs {
            for &spine in &spines {
                links.extend(std::iter::repeat_n((agg, spine), 1 + rng.index(3)));
            }
        }
        for _rack in 0..1 + rng.index(2) {
            let tor = b.node(NodeKind::Tor);
            for &agg in &aggs {
                links.extend(std::iter::repeat_n((tor, agg), 1 + rng.index(3)));
            }
            for host in b.nodes(NodeKind::Host, 1 + rng.index(3)) {
                links.push((host, tor));
            }
            switches.push(tor);
        }
        switches.extend(aggs);
    }
    for _ in 0..1 + rng.index(3) {
        let mut at = switches[rng.index(switches.len())];
        for _ in 0..1 + rng.index(2) {
            let next = b.node(NodeKind::Fabric);
            links.push((at, next));
            at = next;
        }
    }
    rng.shuffle(&mut links);
    for (x, y) in links {
        b.link(x, y, 1e9, 1e-6).unwrap();
    }
    b.build().unwrap()
}

/// `t` with its node ids randomly permuted, links declared in the same
/// order — the same graph as an imported cluster file might number it.
/// Sorted adjacency then interleaves a node's closer and farther
/// neighbors, so the neighbors one hop closer to a host no longer form
/// one contiguous block.
fn relabeled(t: &Topology, seed: u64) -> Topology {
    let mut id: Vec<usize> = (0..t.node_count()).collect();
    SimRng::new(seed ^ 0x2e1a).shuffle(&mut id);
    let mut b = TopologyBuilder::new(t.name());
    for (v, &to) in id.iter().enumerate() {
        b.node_with_id(to, t.kind(v));
    }
    for l in t.links() {
        b.link(id[l.a], id[l.b], l.bandwidth_bps, l.delay_s).unwrap();
    }
    b.build().unwrap()
}

/// A random routed topology: a zoo shape, or (one time in three) a
/// layered graph, with its node ids permuted half of the time.
fn random_ecmp_topology(seed: u64) -> Topology {
    let mut rng = SimRng::new(seed ^ 0x1a7e);
    let t = if rng.chance(1.0 / 3.0) {
        layered_topology(seed)
    } else {
        random_tiered_topology(seed)
    };
    if rng.chance(0.5) {
        relabeled(&t, seed)
    } else {
        t
    }
}

/// The reference enumeration: BFS hop distances from `src`, then a DFS
/// over the shortest-path DAG (`dist[w] == dist[v] + 1` edges) in
/// sorted-adjacency order, keeping the first `limit` paths as directed
/// link slots. The router's unranking must reproduce it exactly.
fn oracle_paths(t: &Topology, src: usize, dst: usize, limit: usize) -> Vec<LinkRoute> {
    let mut dist = vec![usize::MAX; t.node_count()];
    dist[src] = 0;
    let mut queue = vec![src];
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &(w, _) in t.neighbors(v) {
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                queue.push(w);
            }
        }
    }
    fn dfs(
        t: &Topology,
        dist: &[usize],
        v: usize,
        dst: usize,
        limit: usize,
        hops: &mut Vec<u32>,
        found: &mut Vec<LinkRoute>,
    ) {
        if found.len() >= limit {
            return;
        }
        if v == dst {
            found.push(LinkRoute::new(hops));
            return;
        }
        for &(w, link) in t.neighbors(v) {
            if dist[w] == dist[v] + 1 {
                hops.push(t.directed_slot(link, v));
                dfs(t, dist, w, dst, limit, hops, found);
                hops.pop();
            }
        }
    }
    let mut found = Vec::new();
    dfs(t, &dist, src, dst, limit, &mut Vec::new(), &mut found);
    found
}

/// Every route a 64-node terasort job takes on `fattree8` (seed 2020):
/// three all-to-all shuffles in the engine's src-major start order,
/// labelled by flow id `0..12096`, folded into one FNV-1a digest. Any
/// change in path choice, however small, moves the digest.
#[test]
fn fattree8_shuffle_routes_are_pinned() {
    const NODES: usize = 64;
    const SHUFFLES: u64 = 3;
    let w = Wiring::new(
        topo::zoo::by_name("fattree8", NODES).unwrap(),
        NODES,
        2020,
        2020,
    )
    .unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    let mut label = 0u64;
    for _ in 0..SHUFFLES {
        for src in 0..NODES {
            for dst in (0..NODES).filter(|&d| d != src) {
                let route = w.route_for(src, dst, label);
                eat(route.links().len() as u64);
                for &slot in route.links() {
                    eat(u64::from(slot));
                }
                label += 1;
            }
        }
    }
    assert_eq!(label, 12_096);
    assert_eq!(
        h, 0x28e2_2156_1dd9_30cd,
        "fattree8 shuffle route digest {h:#018x}"
    );
}

/// Pairs the router does not route — a switch at either end, a host to
/// itself, any pair on a flat topology — resolve to the empty route
/// with no paths.
#[test]
fn unrouted_pairs_resolve_to_the_empty_route() {
    let t = topo::zoo::by_name("fattree8", 64).unwrap();
    let r = EcmpRouter::new(&t, 2020).unwrap();
    let hosts = t.hosts();
    let switches: Vec<usize> = (0..t.node_count())
        .filter(|&v| t.kind(v) != NodeKind::Host)
        .collect();
    assert!(!switches.is_empty());
    for &s in &switches {
        for &h in [hosts[0], hosts[hosts.len() - 1]].iter() {
            assert_eq!(r.route(s, h, 7), LinkRoute::EMPTY, "switch {s} -> host {h}");
            assert_eq!(r.route(h, s, 7), LinkRoute::EMPTY, "host {h} -> switch {s}");
            assert_eq!(r.path_count(s, h), 0);
            assert_eq!(r.path_count(h, s), 0);
        }
    }
    for &h in &hosts {
        assert_eq!(r.route(h, h, 3), LinkRoute::EMPTY, "self pair {h}");
        assert_eq!(r.path_count(h, h), 0);
        assert!(r.paths(h, h).is_empty());
    }
    let flat = topo::zoo::flat(8);
    let r = EcmpRouter::new(&flat, 2020).unwrap();
    for s in 0..8 {
        for d in 0..8 {
            assert_eq!(r.route(s, d, 1), LinkRoute::EMPTY, "flat {s} -> {d}");
            assert_eq!(r.path_count(s, d), 0);
        }
    }
}

#[test]
fn layered_graphs_exceed_the_path_cap() {
    // The generator must reach past the cap, or the oracle property
    // below never exercises count saturation.
    let saturated = (0..64u64).any(|seed| {
        let t = layered_topology(seed);
        let hosts = t.hosts();
        let (src, dst) = (hosts[0], hosts[hosts.len() - 1]);
        oracle_paths(&t, src, dst, usize::MAX).len() > MAX_ECMP_PATHS
            && EcmpRouter::new(&t, 1).unwrap().path_count(src, dst) == MAX_ECMP_PATHS
    });
    assert!(
        saturated,
        "no layered graph has more than MAX_ECMP_PATHS paths"
    );
}

/// Two fabrics with the same random static shapers and ingress caps,
/// both with `w`'s link capacities installed.
fn wired_twins(w: &Wiring, rng: &mut SimRng) -> (Fabric<StaticShaper>, Fabric<StaticShaper>) {
    let caps: Vec<(f64, f64)> = (0..w.endpoints())
        .map(|_| (rng.uniform_in(1e9, 2e10), rng.uniform_in(1e9, 2e10)))
        .collect();
    let build = || {
        let mut f = Fabric::new();
        for &(eg, ing) in &caps {
            f.add_node(StaticShaper::new(eg), ing);
        }
        w.install(&mut f);
        f
    };
    (build(), build())
}

/// A batch whose middle flow is a loopback is rejected like a single
/// loopback flow.
#[test]
#[should_panic(expected = "loopback flows bypass the network")]
fn batch_admission_rejects_a_loopback_inside_the_batch() {
    let w = Wiring::identity(topo::zoo::fattree(4).unwrap(), 8, 1).unwrap();
    let (mut f, _) = wired_twins(&w, &mut SimRng::new(1));
    let specs = [
        FlowSpec::new(0, 5, 1e9),
        FlowSpec::new(3, 3, 1e9),
        FlowSpec::new(5, 0, 1e9),
    ];
    w.start_flows(&mut f, specs);
}

/// A batch whose router names an uninstalled link slot for one flow is
/// rejected like a single misrouted flow.
#[test]
#[should_panic(expected = "route names an uninstalled link slot")]
fn batch_admission_rejects_a_bad_slot_inside_the_batch() {
    let w = Wiring::identity(topo::zoo::fattree(4).unwrap(), 8, 1).unwrap();
    let (mut f, _) = wired_twins(&w, &mut SimRng::new(1));
    let slots = f.link_count() as u32;
    let specs = (1..8).map(|d| FlowSpec::new(0, d, 1e9));
    f.start_flows(specs, |first, specs, routes| {
        for (i, (r, s)) in routes.iter_mut().zip(specs).enumerate() {
            *r = w.route_for(s.src, s.dst, first + i as u64);
        }
        routes[3] = LinkRoute::new(&[0, slots]);
    });
}

prop_cases! {
    #![config(Config::with_cases(48))]

    /// Batch admission: a random flow script on a random routed
    /// topology, each burst admitted as one `Wiring::start_flows` batch
    /// on one fabric and flow by flow (`route_for` keyed by the next id,
    /// then `start_flow_routed`) on its twin, keeps the twins bitwise
    /// equal: ids, completions, every flow's remaining bits and last
    /// rate, and the fabric counters. Bursts range from one flow to
    /// several draw chunks, src-major all-to-alls included.
    #[test]
    fn batch_admission_matches_one_by_one(seed in 0u64..1_000_000) {
        let t = random_ecmp_topology(seed);
        let mut rng = SimRng::new(seed ^ 0xba7c);
        let n = 2 + rng.index(t.hosts().len().min(16) - 1);
        let w = Wiring::new(t, n, seed, seed ^ 0x5eed).unwrap();
        let (mut batched, mut single) = wired_twins(&w, &mut rng);
        let dt = 0.01 * (1 + rng.index(10)) as f64;
        let mut flows: Vec<FlowId> = Vec::new();
        for epoch in 0..16 {
            let specs: Vec<FlowSpec> = if rng.chance(0.3) {
                let bits = rng.uniform_in(1e6, 1e9);
                (0..n)
                    .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
                    .map(|(s, d)| FlowSpec::new(s, d, bits))
                    .collect()
            } else {
                let len = if rng.chance(0.2) { 1 + rng.index(600) } else { 1 + rng.index(8) };
                (0..len)
                    .map(|_| {
                        let src = rng.index(n);
                        let dst = (src + 1 + rng.index(n - 1)) % n;
                        let mut spec = FlowSpec::new(src, dst, rng.uniform_in(1e6, 1e9));
                        if rng.chance(0.2) {
                            spec.max_rate_bps = rng.uniform_in(1e8, 5e9);
                        }
                        spec
                    })
                    .collect()
            };
            let span = w.start_flows(&mut batched, specs.iter().copied());
            for (spec, id) in specs.iter().zip(span.iter()) {
                let route = w.route_for(spec.src, spec.dst, single.next_flow_id_hint());
                prop_assert_eq!(single.start_flow_routed(*spec, route), id, "flow ids diverged");
                flows.push(id);
            }
            prop_assert_eq!(span.len(), specs.len(), "batch size");
            let budget = 1 + rng.index(200) as u64;
            let (mut done_b, mut done_s) = (Vec::new(), Vec::new());
            let tb = batched.advance(dt, budget, &mut done_b);
            let ts = single.advance(dt, budget, &mut done_s);
            prop_assert_eq!(tb, ts, "steps taken diverged at epoch {}", epoch);
            prop_assert_eq!(done_b, done_s, "completions diverged at epoch {}", epoch);
            assert_twins_bit_equal(&batched, &single, &flows, &format!("epoch {epoch}"));
            prop_assert_eq!(batched.perf(), single.perf(), "counters diverged at epoch {}", epoch);
        }
    }

    /// Routed water-filling: the event engine and the reference loops
    /// stay bitwise equal on random routed problems under flow churn
    /// (bursts of equal-size flows included), after every `advance`.
    #[test]
    fn routed_fabric_matches_the_reference_bitwise(seed in 0u64..1_000_000) {
        let (mut event, mut reference, mut rng) = random_routed_pair(seed);
        let n_nodes = event.node_count();
        let n_slots = event.link_count();
        let dt = 0.01 * (1 + rng.index(20)) as f64;
        let mut flows: Vec<FlowId> = Vec::new();
        for epoch in 0..24 {
            if rng.chance(0.6) || event.active_flows() == 0 {
                for _ in 0..1 + rng.index(3) {
                    let src = rng.index(n_nodes);
                    let dst = (src + 1 + rng.index(n_nodes - 1)) % n_nodes;
                    let mut spec = FlowSpec::new(src, dst, rng.uniform_in(1e7, 5e9));
                    if rng.chance(0.3) {
                        spec.max_rate_bps = rng.uniform_in(1e8, 5e9);
                    }
                    let hops = if n_slots == 0 { 0 } else { rng.index(5) };
                    let slots: Vec<u32> = (0..hops).map(|_| rng.index(n_slots) as u32).collect();
                    let route = LinkRoute::new(&slots);
                    let a = event.start_flow_routed(spec, route);
                    let b = reference.start_flow_routed(spec, route);
                    prop_assert_eq!(a, b, "flow ids diverged");
                    flows.push(a);
                }
            }
            // Now and then a src-major burst of 32-256 equal-size flows,
            // one shared route per source: many complete in the same
            // window between survivors, and each retirement must
            // release exactly its own links' active counts.
            if rng.chance(0.1) {
                let count = 32 + rng.index(225);
                let bits = rng.uniform_in(1e6, 1e8);
                let routes: Vec<LinkRoute> = (0..n_nodes)
                    .map(|_| {
                        let hops = if n_slots == 0 { 0 } else { 1 + rng.index(4) };
                        let slots: Vec<u32> =
                            (0..hops).map(|_| rng.index(n_slots) as u32).collect();
                        LinkRoute::new(&slots)
                    })
                    .collect();
                for i in 0..count {
                    let src = i * n_nodes / count;
                    let dst = (src + 1 + i % (n_nodes - 1)) % n_nodes;
                    let spec = FlowSpec::new(src, dst, bits);
                    let a = event.start_flow_routed(spec, routes[src]);
                    let b = reference.start_flow_routed(spec, routes[src]);
                    prop_assert_eq!(a, b, "flow ids diverged");
                    flows.push(a);
                }
            }
            let budget = 1 + rng.index(64) as u64;
            let (mut done_e, mut done_r) = (Vec::new(), Vec::new());
            let te = event.advance(dt, budget, &mut done_e);
            let tr = reference.advance(dt, budget, &mut done_r);
            prop_assert_eq!(te, tr, "steps taken diverged at epoch {}", epoch);
            prop_assert_eq!(done_e, done_r, "completions diverged at epoch {}", epoch);
            assert_twins_bit_equal(&event, &reference, &flows, &format!("epoch {epoch}"));
        }
        let (mut done_e, mut done_r) = (Vec::new(), Vec::new());
        let te = event.advance(dt, 5_000, &mut done_e);
        let tr = reference.advance(dt, 5_000, &mut done_r);
        prop_assert_eq!(te, tr, "drain steps diverged");
        prop_assert_eq!(done_e, done_r, "drain completions diverged");
        assert_twins_bit_equal(&event, &reference, &flows, "drain");
    }

    /// ECMP: a rebuilt router replays identical paths and identical
    /// per-label choices, and every routed choice is in the path set.
    #[test]
    fn ecmp_routing_replays_under_the_same_seed(
        seed in 0u64..1_000_000,
        ecmp_seed in 0u64..10_000,
    ) {
        let t = random_tiered_topology(seed);
        let a = EcmpRouter::new(&t, ecmp_seed).unwrap();
        let b = EcmpRouter::new(&t, ecmp_seed).unwrap();
        let hosts = t.hosts();
        let mut rng = SimRng::new(seed ^ 0xec3b);
        for _ in 0..32 {
            let src = hosts[rng.index(hosts.len())];
            let dst = hosts[rng.index(hosts.len())];
            if src == dst {
                continue;
            }
            let set = a.paths(src, dst);
            prop_assert_eq!(&set, &b.paths(src, dst), "path sets diverged");
            let label = rng.next_u64();
            let ra = a.route(src, dst, label);
            prop_assert_eq!(ra, b.route(src, dst, label), "route choice diverged");
            prop_assert!(set.contains(&ra), "choice left the equal-cost set");
        }
    }

    /// ECMP unranking: the path set is the DFS oracle's list, and a
    /// flow's route is the oracle's entry at the seeded draw.
    #[test]
    fn ecmp_unranking_matches_the_dfs_oracle(
        seed in 0u64..1_000_000,
        ecmp_seed in 0u64..10_000,
    ) {
        let t = random_ecmp_topology(seed);
        let router = EcmpRouter::new(&t, ecmp_seed).unwrap();
        let hosts = t.hosts();
        let mut rng = SimRng::new(seed ^ 0x0dfc);
        for _ in 0..24 {
            let src = hosts[rng.index(hosts.len())];
            let dst = hosts[rng.index(hosts.len())];
            if src == dst {
                continue;
            }
            let want = oracle_paths(&t, src, dst, MAX_ECMP_PATHS);
            prop_assert_eq!(router.paths(src, dst), want.clone(), "{} -> {} path list", src, dst);
            prop_assert_eq!(router.path_count(src, dst), want.len(), "{} -> {} count", src, dst);
            let label = rng.next_u64();
            let pair = ((src as u64) << 32) | dst as u64;
            let k = SimRng::new(derive_seed(derive_seed(ecmp_seed, pair), label)).index(want.len());
            prop_assert_eq!(router.route(src, dst, label), want[k], "{} -> {} route", src, dst);
        }
    }

    /// Flat-equivalence: a fabric wired with the flat topology runs a
    /// random flow script bitwise identically to a plain fabric.
    #[test]
    fn flat_wiring_is_bitwise_invisible(
        seed in 0u64..1_000_000,
        n_nodes in 2usize..8,
        dt_ms in 50u64..500,
    ) {
        let build = || {
            let mut f = Fabric::new();
            for v in 0..n_nodes {
                f.add_node(StaticShaper::new(5e9 + v as f64 * 1e9), 10e9);
            }
            f
        };
        let mut plain = build();
        let mut wired = build();
        let wiring = Wiring::identity(topo::zoo::flat(n_nodes), n_nodes, seed).unwrap();
        wiring.install(&mut wired);

        let dt = dt_ms as f64 / 1000.0;
        let mut rng = SimRng::new(seed ^ 0xf1a7);
        let mut flows: Vec<FlowId> = Vec::new();
        for _ in 0..60 {
            if rng.chance(0.5) {
                let src = rng.index(n_nodes);
                let dst = (src + 1 + rng.index(n_nodes - 1)) % n_nodes;
                let spec = FlowSpec::new(src, dst, rng.uniform_in(5e8, 2e10));
                let a = plain.start_flow(spec);
                let b = wiring.start_flow(&mut wired, spec);
                prop_assert_eq!(a, b, "flow ids diverged");
                flows.push(a);
            }
            prop_assert_eq!(plain.step(dt), wired.step(dt), "completions diverged");
            prop_assert_eq!(
                plain.now().to_bits(),
                wired.now().to_bits(),
                "clock diverged"
            );
            for v in 0..n_nodes {
                prop_assert_eq!(
                    plain.node_total_tx_bits(v).to_bits(),
                    wired.node_total_tx_bits(v).to_bits(),
                    "node tx diverged"
                );
            }
            for &id in &flows {
                prop_assert_eq!(
                    plain.flow_last_rate(id).map(f64::to_bits),
                    wired.flow_last_rate(id).map(f64::to_bits),
                    "flow rate diverged"
                );
            }
        }
        let perf = wired.perf();
        prop_assert_eq!(perf.link_recomputes, 0, "flat fabric ran the link allocator");
        prop_assert_eq!(perf.link_cache_hits, 0, "flat fabric hit the link cache");
    }

    /// JSON round-trip: parse(serialize(t)) reproduces the structure
    /// bit-for-bit and re-serializes byte-identically.
    #[test]
    fn cluster_json_round_trips(seed in 0u64..1_000_000) {
        let t = random_tiered_topology(seed);
        let json = to_cluster_json(&t).unwrap();
        let back = from_cluster_json(&json).unwrap();
        prop_assert_eq!(t.node_count(), back.node_count(), "node count changed");
        for v in 0..t.node_count() {
            prop_assert_eq!(t.kind(v), back.kind(v), "node {} kind changed", v);
        }
        // Serialization groups links by schema section (host2tor,
        // tor2fab, fab2spine), so the round-trip canonicalizes link
        // *order*; the link multiset must survive bit-for-bit.
        let canon = |t: &Topology| {
            let mut ls: Vec<(usize, usize, u64, u64)> = t
                .links()
                .iter()
                .map(|l| {
                    let (a, b) = (l.a.min(l.b), l.a.max(l.b));
                    (a, b, l.bandwidth_bps.to_bits(), l.delay_s.to_bits())
                })
                .collect();
            ls.sort_unstable();
            ls
        };
        prop_assert_eq!(canon(&t), canon(&back), "link multiset changed");
        prop_assert_eq!(
            to_cluster_json(&back).unwrap(),
            json,
            "second serialization not byte-stable"
        );
    }
}
