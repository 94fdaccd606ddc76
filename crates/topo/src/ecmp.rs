//! Deterministic ECMP path resolution over a counted shortest-path DAG.
//!
//! The equal-cost shortest paths between two hosts are ordered by a
//! depth-first walk from the source in sorted-adjacency order (neighbor
//! id, then link id), so parallel links are distinct paths. Nothing is
//! enumerated up front: [`EcmpRouter::new`] runs one BFS per host and
//! keeps, for every node, its hop distance to that host, the number of
//! shortest paths from it to that host (capped at [`MAX_ECMP_PATHS`]),
//! the adjacency offset of its first neighbor one hop closer to that
//! host and, when those closer neighbors form one contiguous block of
//! equal counts, that count as a stride — `hosts × nodes × 4` bytes,
//! plus one CSR copy of the adjacency whose entries carry their
//! directed link slot. A route is the `k`-th path in that order,
//! unranked on demand by walking the DAG and skipping whole subtrees by
//! their counts: a stride hop skips `⌊k / stride⌋` subtrees at once, and
//! any other hop scans from the first-closer offset, so a route costs
//! O(hops) plus the closer neighbors the scans skip.
//!
//! A shuffle routes as one batch ([`EcmpRouter::route_batch`]): a first
//! pass draws every flow's path index, a second unranks the routes
//! straight into the caller's route column.
//!
//! Real switches hash the five-tuple; here the "five-tuple" is
//! `(src, dst, flow_label)` folded through the simulator's
//! [`derive_seed`] stream, so path spreading replays exactly under seed
//! replay and never consults global state.

use crate::model::{TopoError, Topology};
use netsim::rng::derive_seed;
use netsim::{LinkRoute, SimRng, MAX_ROUTE_LINKS};

/// Cap on the equal-cost paths a flow is spread over per host pair. A
/// `k`-ary fat tree has `(k/2)²` inter-pod shortest paths — 64 covers
/// `k = 16` (1024 hosts); beyond the cap a flow draws among the first
/// 64 paths in sorted-adjacency DFS order, which is itself
/// deterministic. The cap bounds only the draw: the router stores
/// counts, not paths, so its memory never grows with the path count.
pub const MAX_ECMP_PATHS: usize = 64;

/// [`MAX_ECMP_PATHS`] as a per-node count entry (sums of two capped
/// counts stay below `u8::MAX`).
const COUNT_CAP: u8 = MAX_ECMP_PATHS as u8;

/// Stored distance of a node the BFS never reached (or reached further
/// out than any route can go).
const FAR: u8 = u8::MAX;

/// `row_of` entry of a node that is not a host.
const NO_ROW: u32 = u32::MAX;

/// `QUOTIENT[c][k] == k / c` for every stride `c ≤ MAX_ECMP_PATHS` and
/// path index `k < MAX_ECMP_PATHS`: a stride hop reads its quotient
/// instead of paying a hardware divide on the route's dependent chain.
static QUOTIENT: [[u8; MAX_ECMP_PATHS]; MAX_ECMP_PATHS + 1] = {
    let mut t = [[0u8; MAX_ECMP_PATHS]; MAX_ECMP_PATHS + 1];
    let mut c = 1;
    while c <= MAX_ECMP_PATHS {
        let mut k = 0;
        while k < MAX_ECMP_PATHS {
            t[c][k] = (k / c) as u8;
            k += 1;
        }
        c += 1;
    }
    t
};

/// Flows a batch draws before unranking them: [`EcmpRouter::route_batch`]
/// alternates its two passes over chunks this long, so its draw
/// scratch is a fixed stack array, never a heap buffer.
const DRAW_CHUNK: usize = 256;

/// One flow's pass-one result: its destination's table row, its source
/// host and its path index, or `row == NO_ROW` for an unrouted pair.
#[derive(Debug, Clone, Copy)]
struct Draw {
    row: u32,
    src: u32,
    k: u32,
}

impl Draw {
    const UNROUTED: Draw = Draw {
        row: NO_ROW,
        src: 0,
        k: 0,
    };
}

/// One node's entry in one host's table row.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Hops from the node to the row's host ([`FAR`] if unreached).
    dist: u8,
    /// Shortest paths from the node to the row's host, capped at
    /// [`MAX_ECMP_PATHS`].
    count: u8,
    /// Offset into the node's adjacency of its first neighbor one hop
    /// closer to the row's host, saturated at `u8::MAX`: every neighbor
    /// before it is farther away, so a scan may start there (or at any
    /// earlier offset) without changing which neighbor it picks.
    first: u8,
    /// The capped count `c` every closer neighbor shares when they are
    /// exactly the `m` adjacency entries from `first` on (and `first`
    /// is not saturated); 0 otherwise. A scan over such a block skips
    /// `⌊k / c⌋` whole subtrees of `c` paths each, and `k < count ≤ m·c`
    /// keeps the pick inside the block, so the hop is entry
    /// `first + ⌊k / c⌋` and `k` drops to `k mod c`.
    stride: u8,
}

/// What one BFS learns about a node's neighbors one hop closer to the
/// BFS source (its parents), one level edge at a time: enough to set
/// the node's `first` and `stride` without scanning its adjacency.
#[derive(Debug, Clone, Copy)]
struct Parents {
    /// Parent entries seen (each parallel link is an entry of its own).
    n: u32,
    /// Lowest and highest adjacency offsets of those entries.
    lo: u32,
    hi: u32,
    /// The capped count every parent entry shares, or 0 once two differ
    /// (a reached node's count is at least 1).
    c: u8,
}

/// One CSR adjacency entry: a neighbor and the directed capacity slot
/// for crossing the link to it.
#[derive(Debug, Clone, Copy)]
struct Hop {
    to: u32,
    slot: u32,
}

/// The counted shortest-path DAG towards every host, plus the seeded
/// hash that spreads flows across each pair's paths.
#[derive(Debug, Clone)]
pub struct EcmpRouter {
    seed: u64,
    topo: Topology,
    /// `row_of[v]`: host `v`'s table row (hosts in ascending id order),
    /// or [`NO_ROW`] for a switch. Empty on a flat topology.
    row_of: Vec<u32>,
    /// CSR offsets: node `v`'s neighbors are
    /// `adj[adj_start[v]..adj_start[v + 1]]`.
    adj_start: Vec<u32>,
    /// Every node's neighbors in the topology's sorted order.
    adj: Vec<Hop>,
    /// `cells[row * nodes + v]`: node `v` relative to host row `row`.
    cells: Vec<Cell>,
}

impl EcmpRouter {
    /// Count the equal-cost shortest paths between every ordered pair
    /// of hosts in `topo`. Flat (linkless) topologies yield a router
    /// whose every route is [`LinkRoute::EMPTY`]; a tiered topology
    /// with a disconnected host pair is an error, as is a shortest path
    /// longer than [`MAX_ROUTE_LINKS`] hops.
    pub fn new(topo: &Topology, seed: u64) -> Result<Self, TopoError> {
        let mut router = EcmpRouter {
            seed,
            topo: topo.clone(),
            row_of: Vec::new(),
            adj_start: Vec::new(),
            adj: Vec::new(),
            cells: Vec::new(),
        };
        if topo.is_flat() {
            return Ok(router);
        }
        let hosts = topo.hosts();
        let n = topo.node_count();
        router.row_of = vec![NO_ROW; n];
        for (row, &h) in hosts.iter().enumerate() {
            router.row_of[h] = row as u32;
        }
        router.adj_start.reserve(n + 1);
        router.adj_start.push(0);
        // back[e]: where adjacency entry e's link sits in its
        // neighbor's list (always present: links are undirected).
        let mut back: Vec<u32> = Vec::new();
        for v in 0..n {
            for &(w, link) in topo.neighbors(v) {
                router.adj.push(Hop {
                    to: w as u32,
                    slot: topo.directed_slot(link, v),
                });
                let at = topo.neighbors(w).binary_search(&(v, link));
                back.push(at.unwrap_or_else(|i| i) as u32);
            }
            router.adj_start.push(router.adj.len() as u32);
        }
        let empty = Cell {
            dist: FAR,
            count: 0,
            first: 0,
            stride: 0,
        };
        router.cells = vec![empty; hosts.len() * n];
        let mut hops = vec![usize::MAX; n];
        let mut count = vec![0u8; n];
        let none = Parents {
            n: 0,
            lo: u32::MAX,
            hi: 0,
            c: 0,
        };
        let mut parents = vec![none; n];
        let mut queue: Vec<usize> = Vec::with_capacity(n);
        for (row, &src) in hosts.iter().enumerate() {
            // BFS hop distances from src; path counts accumulate along
            // the level edges in pop order, so a node's count is final
            // before any node one hop further out reads it.
            hops.fill(usize::MAX);
            count.fill(0);
            parents.fill(none);
            hops[src] = 0;
            count[src] = 1;
            queue.clear();
            queue.push(src);
            let mut head = 0;
            while head < queue.len() {
                let v = queue[head];
                head += 1;
                let edges = router.adj_start[v] as usize..router.adj_start[v + 1] as usize;
                for (hop, &at) in router.adj[edges.clone()].iter().zip(&back[edges]) {
                    let w = hop.to as usize;
                    if hops[w] == usize::MAX {
                        hops[w] = hops[v] + 1;
                        queue.push(w);
                    }
                    if hops[w] == hops[v] + 1 {
                        // min(Σ min(aᵢ, cap), cap) == min(Σ aᵢ, cap):
                        // capping every partial sum keeps the count exact.
                        count[w] = (count[w] + count[v]).min(COUNT_CAP);
                        let p = &mut parents[w];
                        p.c = if p.n == 0 || p.c == count[v] { count[v] } else { 0 };
                        p.n += 1;
                        p.lo = p.lo.min(at);
                        p.hi = p.hi.max(at);
                    }
                }
            }
            for &dst in &hosts {
                if dst == src {
                    continue;
                }
                if hops[dst] == usize::MAX {
                    return Err(TopoError::Schema(format!(
                        "hosts {src} and {dst} are disconnected"
                    )));
                }
                if hops[dst] > MAX_ROUTE_LINKS {
                    return Err(TopoError::Schema(format!(
                        "shortest path {src} -> {dst} crosses {} links, max {MAX_ROUTE_LINKS}",
                        hops[dst]
                    )));
                }
            }
            let cells = &mut router.cells[row * n..(row + 1) * n];
            for (v, cell) in cells.iter_mut().enumerate() {
                // The parents are one contiguous block iff their
                // offsets span exactly as many entries as there are.
                let p = parents[v];
                let (first, block) = match p.n {
                    0 => (0, false),
                    n => (p.lo, p.hi - p.lo + 1 == n),
                };
                let stride = if block && first < u32::from(u8::MAX) {
                    p.c
                } else {
                    0
                };
                *cell = Cell {
                    dist: u8::try_from(hops[v]).unwrap_or(FAR),
                    count: count[v],
                    first: u8::try_from(first).unwrap_or(u8::MAX),
                    stride,
                };
            }
        }
        Ok(router)
    }

    /// `dst`'s table row and the pair's capped path count, when
    /// `src → dst` is a routed host pair.
    fn pair(&self, src: usize, dst: usize) -> Option<(usize, usize)> {
        if src == dst || *self.row_of.get(src)? == NO_ROW {
            return None;
        }
        let row = *self.row_of.get(dst)?;
        if row == NO_ROW {
            return None;
        }
        let row = row as usize;
        let n = usize::from(self.cells[row * self.row_of.len() + src].count);
        Some((row, n))
    }

    /// How many equal-cost paths `src → dst` spreads over: the number
    /// of shortest paths, capped at [`MAX_ECMP_PATHS`]. Zero only on a
    /// flat topology (or `src == dst`).
    pub fn path_count(&self, src: usize, dst: usize) -> usize {
        self.pair(src, dst).map_or(0, |(_, n)| n)
    }

    /// The `k`-th shortest `src → dst` path in sorted-adjacency DFS
    /// order (`k < path_count`): at each node, step to the first
    /// neighbor one hop closer to `dst` whose path count exceeds `k`,
    /// less the counts of the closer neighbors skipped. A stride hop
    /// reads that neighbor off directly (see [`Cell::stride`]); any
    /// other hop scans from the node's first-closer offset — the
    /// neighbors before it are all farther out — so the walk is the
    /// full scan's, hop for hop.
    fn unrank(&self, row: usize, src: usize, mut k: usize) -> LinkRoute {
        let n = self.row_of.len();
        let cells = &self.cells[row * n..(row + 1) * n];
        let len = usize::from(cells[src].dist);
        let mut slots = [0u32; MAX_ROUTE_LINKS];
        let mut v = src;
        for (hop, slot) in slots[..len].iter_mut().enumerate() {
            let cell = cells[v];
            let start = self.adj_start[v] as usize + usize::from(cell.first);
            let next = if cell.stride != 0 {
                let c = usize::from(cell.stride);
                let q = usize::from(QUOTIENT[c][k]);
                k -= q * c;
                self.adj[start + q]
            } else {
                let left = (len - hop - 1) as u8;
                let end = self.adj_start[v + 1] as usize;
                let mut pick = self.adj[start];
                for h in &self.adj[start..end] {
                    let c = cells[h.to as usize];
                    if c.dist != left {
                        continue;
                    }
                    let c = usize::from(c.count);
                    if k < c {
                        pick = *h;
                        break;
                    }
                    k -= c;
                }
                pick
            };
            *slot = next.slot;
            v = next.to as usize;
        }
        debug_assert_eq!(cells[v].dist, 0, "unranking left the shortest-path DAG");
        LinkRoute::new(&slots[..len])
    }

    /// The seeded path index of the flow labelled `flow_label` among the
    /// `n` paths of `src → dst`.
    fn draw(&self, src: usize, dst: usize, n: usize, flow_label: u64) -> usize {
        match n {
            1 => 0,
            n => {
                let pair = ((src as u64) << 32) | dst as u64;
                let mut rng = SimRng::new(derive_seed(derive_seed(self.seed, pair), flow_label));
                rng.index(n)
            }
        }
    }

    /// The equal-cost path set for `src → dst`, in DFS order. Empty
    /// only on a flat topology (or `src == dst`). Built on demand —
    /// for tests and diagnostics; routing never materializes it.
    pub fn paths(&self, src: usize, dst: usize) -> Vec<LinkRoute> {
        match self.pair(src, dst) {
            Some((row, n)) => (0..n).map(|k| self.unrank(row, src, k)).collect(),
            None => Vec::new(),
        }
    }

    /// Pick the path a flow with the given label takes: entry
    /// `index(path_count)` of [`paths`](Self::paths) under the pair's
    /// seeded stream. The label is the fabric's flow id (see
    /// `Fabric::next_flow_id_hint`) so the choice is a pure function of
    /// `(seed, src, dst, label)` — independent of arrival interleaving
    /// across shards.
    pub fn route(&self, src: usize, dst: usize, flow_label: u64) -> LinkRoute {
        match self.pair(src, dst) {
            Some((row, n)) => self.unrank(row, src, self.draw(src, dst, n, flow_label)),
            None => LinkRoute::EMPTY,
        }
    }

    /// Route a batch of flows labelled `first_label` onward: `out[i]`
    /// becomes `route(src, dst, first_label + i)` for `(src, dst) =
    /// pair_of(i)`. Two passes per chunk of 256 flows: the
    /// first resolves each pair's row and path count and draws its
    /// index — independent hashing work the CPU overlaps across flows —
    /// and the second unranks each route into `out`.
    pub fn route_batch(
        &self,
        pair_of: impl Fn(usize) -> (usize, usize),
        first_label: u64,
        out: &mut [LinkRoute],
    ) {
        let mut draws = [Draw::UNROUTED; DRAW_CHUNK];
        for (c, chunk) in out.chunks_mut(DRAW_CHUNK).enumerate() {
            let base = c * DRAW_CHUNK;
            let draws = &mut draws[..chunk.len()];
            for (j, d) in draws.iter_mut().enumerate() {
                let (src, dst) = pair_of(base + j);
                *d = match self.pair(src, dst) {
                    Some((row, n)) => Draw {
                        row: row as u32,
                        src: src as u32,
                        k: self.draw(src, dst, n, first_label + (base + j) as u64) as u32,
                    },
                    None => Draw::UNROUTED,
                };
            }
            for (route, d) in chunk.iter_mut().zip(draws.iter()) {
                *route = if d.row == NO_ROW {
                    LinkRoute::EMPTY
                } else {
                    self.unrank(d.row as usize, d.src as usize, d.k as usize)
                };
            }
        }
    }

    /// The hash seed this router spreads with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The topology this router routes over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NodeKind, TopologyBuilder};
    use crate::zoo;

    /// `(stride, scan)`: how many cells a route can step through — a
    /// reached node other than the row's host — unrank by stride and
    /// how many by scan.
    fn stride_census(r: &EcmpRouter) -> (usize, usize) {
        let routed = r.cells.iter().filter(|c| c.dist != 0 && c.dist != FAR);
        routed.fold((0, 0), |(stride, scan), c| {
            if c.stride != 0 {
                (stride + 1, scan)
            } else {
                (stride, scan + 1)
            }
        })
    }

    #[test]
    fn zoo_shapes_unrank_every_hop_by_stride() {
        for (name, hosts) in [
            ("fattree4", 16),
            ("fattree8", 128),
            ("oversub4", 32),
            ("star", 16),
        ] {
            let r = EcmpRouter::new(&zoo::by_name(name, hosts).unwrap(), 5).unwrap();
            let (stride, scan) = stride_census(&r);
            assert!(stride > 0, "{name}: no routed cells");
            assert_eq!(scan, 0, "{name}: {scan} scan cells beside {stride} stride cells");
        }
    }

    #[test]
    fn unequal_parallel_links_fall_back_to_the_scan() {
        // h0 - t0 = {a, b} = t1 - h1, where a reaches t1 over one link
        // and b over two parallel ones: t0's closer neighbors toward h1
        // carry counts 1 and 2, so t0 scans, and the scan's order is
        // a's path, then b's two.
        let mut b = TopologyBuilder::new("uneven");
        let [h0, h1] = [b.node(NodeKind::Host), b.node(NodeKind::Host)];
        let [t0, t1] = [b.node(NodeKind::Tor), b.node(NodeKind::Tor)];
        let [fa, fb] = [b.node(NodeKind::Fabric), b.node(NodeKind::Fabric)];
        for (x, y) in [(h0, t0), (h1, t1), (t0, fa), (t0, fb), (fa, t1), (fb, t1), (fb, t1)] {
            b.link(x, y, 1e9, 1e-6).unwrap();
        }
        let t = b.build().unwrap();
        let r = EcmpRouter::new(&t, 1).unwrap();
        let (stride, scan) = stride_census(&r);
        assert!(scan > 0 && stride > 0, "stride {stride}, scan {scan}");
        let paths = r.paths(h0, h1);
        assert_eq!(paths.len(), 3);
        let mid: Vec<u32> = paths.iter().map(|p| p.links()[1]).collect();
        let slot = |link: usize| t.directed_slot(link, t0);
        assert_eq!(mid, vec![slot(2), slot(3), slot(3)], "t0's hop: a, then b twice");
    }

    #[test]
    fn star_has_one_two_hop_path_per_pair() {
        let t = zoo::star(4).unwrap();
        let r = EcmpRouter::new(&t, 1).unwrap();
        for s in 0..4 {
            for d in 0..4 {
                if s == d {
                    continue;
                }
                let set = r.paths(s, d);
                assert_eq!(set.len(), 1);
                assert_eq!(set[0].links().len(), 2, "host-tor, tor-host");
            }
        }
    }

    #[test]
    fn fattree_interpod_pairs_have_quadratic_path_spread() {
        let t = zoo::fattree(4).unwrap();
        let r = EcmpRouter::new(&t, 7).unwrap();
        let hosts = t.hosts();
        // First host of pod 0 and first host of pod 1: (k/2)^2 = 4
        // spine paths, 6 links each.
        let (a, b) = (hosts[0], hosts[4]);
        let set = r.paths(a, b);
        assert_eq!(set.len(), 4);
        assert_eq!(r.path_count(a, b), 4);
        for p in &set {
            assert_eq!(p.links().len(), 6);
        }
        // Same-rack pair: single 2-hop path through the shared ToR.
        let set = r.paths(hosts[0], hosts[1]);
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].links().len(), 2);
    }

    #[test]
    fn route_choice_is_a_pure_function_of_seed_and_label() {
        let t = zoo::fattree(4).unwrap();
        let r1 = EcmpRouter::new(&t, 42).unwrap();
        let r2 = EcmpRouter::new(&t, 42).unwrap();
        let hosts = t.hosts();
        let (a, b) = (hosts[0], hosts[12]);
        for label in 0..64u64 {
            assert_eq!(r1.route(a, b, label), r2.route(a, b, label));
        }
        // A different seed respreads at least one of 64 flows.
        let r3 = EcmpRouter::new(&t, 43).unwrap();
        assert!((0..64u64).any(|l| r1.route(a, b, l) != r3.route(a, b, l)));
        // And the spread actually uses more than one path.
        let first = r1.route(a, b, 0);
        assert!((1..64u64).any(|l| r1.route(a, b, l) != first));
    }

    #[test]
    fn flat_routes_are_empty() {
        let t = zoo::flat(4);
        let r = EcmpRouter::new(&t, 9).unwrap();
        assert!(r.route(0, 3, 5).is_empty());
        assert!(r.paths(0, 3).is_empty());
        assert_eq!(r.path_count(0, 3), 0);
    }

    #[test]
    fn first_closer_offsets_saturate_past_255_neighbors() {
        // The ToR of a 300-host star lists host d at adjacency offset d,
        // so every offset from 255 up saturates; the scan from 255 must
        // still reach the destination. Link i joins host i (the `a`
        // end) to the ToR.
        let t = zoo::star(300).unwrap();
        let r = EcmpRouter::new(&t, 3).unwrap();
        for (s, d) in [(0, 299), (299, 0), (5, 280), (280, 255), (254, 256)] {
            let want = LinkRoute::new(&[2 * s as u32, 2 * d as u32 + 1]);
            assert_eq!(r.route(s, d, 11), want, "{s} -> {d}");
        }
    }

    #[test]
    fn switches_and_self_pairs_are_unrouted() {
        let t = zoo::star(3).unwrap();
        let r = EcmpRouter::new(&t, 1).unwrap();
        // Node 3 is the star's ToR.
        assert!(r.route(3, 0, 1).is_empty());
        assert!(r.route(0, 3, 1).is_empty());
        assert!(r.route(1, 1, 1).is_empty());
        assert_eq!(r.path_count(1, 1), 0);
    }
}
