//! The named topology zoo: `flat`, `star`, `fattree(k)`, and
//! `oversub(ratio)` — the shapes the paper's variability mechanisms
//! live on — plus [`by_name`] so campaigns can select one from the
//! command line.

use crate::model::{NodeKind, TopoError, Topology, TopologyBuilder};

/// Default host access-link bandwidth, bits/s (the paper's 10 Gbps
/// instances).
pub const HOST_BPS: f64 = 10e9;
/// Default switch-to-switch bandwidth, bits/s (TINY_CLUSTER's 40 Gbps
/// fabric links).
pub const FABRIC_BPS: f64 = 40e9;
/// Default per-hop propagation delay, seconds (1 µs, TINY_CLUSTER's
/// 1000 ns).
pub const HOP_DELAY_S: f64 = 1e-6;

/// The flat topology: `n` hosts, no links at all. Installing it on a
/// fabric is a no-op — the flat-equivalence contract (DESIGN.md §12)
/// guarantees bit-identical behaviour to a fabric that never saw a
/// topology.
pub fn flat(n_hosts: usize) -> Topology {
    let mut b = TopologyBuilder::new("flat");
    b.nodes(NodeKind::Host, n_hosts);
    // A linkless builder cannot fail.
    match b.build() {
        Ok(t) => t,
        Err(_) => Topology::empty_named("flat"),
    }
}

/// A single-switch star: every host hangs off one ToR at [`HOST_BPS`].
/// The simplest topology where incast is visible: `n-1` senders share
/// one receiver's access link.
pub fn star(n_hosts: usize) -> Result<Topology, TopoError> {
    let mut b = TopologyBuilder::new("star");
    let hosts = b.nodes(NodeKind::Host, n_hosts);
    let tor = b.node(NodeKind::Tor);
    for h in hosts {
        b.link(h, tor, HOST_BPS, HOP_DELAY_S)?;
    }
    b.build()
}

/// A `k`-ary fat tree with the canonical `k/2` hosts per rack:
/// `k` pods of `k/2` ToRs and `k/2` fabric switches, `(k/2)²` spines,
/// `k³/4` hosts. Host links at [`HOST_BPS`], switch links at
/// [`FABRIC_BPS`]. `k` must be even and ≥ 2.
pub fn fattree(k: usize) -> Result<Topology, TopoError> {
    fattree_with(k, k / 2)
}

/// A `k`-ary fat tree with `hosts_per_tor` hosts per rack (the
/// canonical tree uses `k/2`; more oversubscribes the rack uplinks —
/// `fattree_with(4, 4)` is the 32-host incast campaign shape).
pub fn fattree_with(k: usize, hosts_per_tor: usize) -> Result<Topology, TopoError> {
    if k < 2 || k % 2 != 0 {
        return Err(TopoError::Zoo(format!("fat-tree k must be even and >= 2, got {k}")));
    }
    if hosts_per_tor == 0 {
        return Err(TopoError::Zoo("fat-tree needs at least one host per rack".into()));
    }
    let half = k / 2;
    let mut b = TopologyBuilder::new(&format!("fattree{k}"));
    // Spines first (plane-major), then per pod: fabrics, then per rack
    // tor + hosts — ids are dense in declaration order.
    let spines: Vec<Vec<usize>> = (0..half)
        .map(|_| b.nodes(NodeKind::Spine, half))
        .collect();
    for _pod in 0..k {
        let fabs = b.nodes(NodeKind::Fabric, half);
        // Fabric `f` of every pod uplinks to every spine of plane `f`.
        for (f, &fab) in fabs.iter().enumerate() {
            for &sp in &spines[f] {
                b.link(fab, sp, FABRIC_BPS, HOP_DELAY_S)?;
            }
        }
        for _rack in 0..half {
            let tor = b.node(NodeKind::Tor);
            for &fab in &fabs {
                b.link(tor, fab, FABRIC_BPS, HOP_DELAY_S)?;
            }
            let hosts = b.nodes(NodeKind::Host, hosts_per_tor);
            for h in hosts {
                b.link(h, tor, HOST_BPS, HOP_DELAY_S)?;
            }
        }
    }
    b.build()
}

/// A two-tier leaf–spine with rack uplinks oversubscribed by `ratio`:
/// racks of 4 hosts at [`HOST_BPS`], each ToR one uplink to a single
/// spine at `4 × HOST_BPS / ratio`. `ratio = 1` is full bisection;
/// the paper's clouds run 2:1 and worse.
pub fn oversub(n_hosts: usize, ratio: f64) -> Result<Topology, TopoError> {
    if !(ratio.is_finite() && ratio >= 1.0) {
        return Err(TopoError::Zoo(format!("oversubscription ratio must be >= 1, got {ratio}")));
    }
    const HOSTS_PER_TOR: usize = 4;
    let racks = n_hosts.div_ceil(HOSTS_PER_TOR).max(1);
    let uplink = HOSTS_PER_TOR as f64 * HOST_BPS / ratio;
    let mut b = TopologyBuilder::new(&format!("oversub{ratio}"));
    // The shared aggregation switch is a Fabric node: two-tier
    // leaf-spine has no spine tier.
    let agg = b.node(NodeKind::Fabric);
    for _ in 0..racks {
        let tor = b.node(NodeKind::Tor);
        b.link(tor, agg, uplink, HOP_DELAY_S)?;
        let hosts = b.nodes(NodeKind::Host, HOSTS_PER_TOR);
        for h in hosts {
            b.link(h, tor, HOST_BPS, HOP_DELAY_S)?;
        }
    }
    b.build()
}

/// Resolve a zoo name to a topology with **at least** `n_hosts` hosts.
///
/// Names: `flat`, `star`, `fattree<k>` (e.g. `fattree4`; racks grow
/// past the canonical `k/2` hosts when `n_hosts` needs them), and
/// `oversub<ratio>` (e.g. `oversub2`, `oversub4`).
pub fn by_name(name: &str, n_hosts: usize) -> Result<Topology, TopoError> {
    if name == "flat" {
        return Ok(flat(n_hosts));
    }
    if name == "star" {
        return star(n_hosts);
    }
    if let Some(k) = name.strip_prefix("fattree") {
        let k: usize = k
            .parse()
            .map_err(|_| TopoError::Zoo(format!("bad fat-tree arity in {name:?}")))?;
        if k < 2 || k % 2 != 0 {
            return Err(TopoError::Zoo(format!("fat-tree k must be even and >= 2, got {k}")));
        }
        let racks = k * (k / 2);
        let hosts_per_tor = (k / 2).max(n_hosts.div_ceil(racks));
        return fattree_with(k, hosts_per_tor);
    }
    if let Some(r) = name.strip_prefix("oversub") {
        let ratio: f64 = r
            .parse()
            .map_err(|_| TopoError::Zoo(format!("bad oversubscription ratio in {name:?}")))?;
        return oversub(n_hosts, ratio);
    }
    Err(TopoError::Zoo(format!(
        "{name:?} (known: flat, star, fattree<k>, oversub<ratio>)"
    )))
}

/// The zoo names `by_name` understands, for `--help` text and `list`
/// subcommands.
pub fn names() -> &'static [&'static str] {
    &["flat", "star", "fattree<k>", "oversub<ratio>"]
}

impl Topology {
    pub(crate) fn empty_named(name: &str) -> Topology {
        match TopologyBuilder::new(name).build() {
            Ok(t) => t,
            // detlint:allow(D5) -- an empty builder has nothing to validate, build cannot fail
            Err(_) => unreachable!("empty topology build failed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_linkless() {
        let t = flat(8);
        assert!(t.is_flat());
        assert_eq!(t.hosts().len(), 8);
        assert!(t.directed_caps().is_empty());
    }

    #[test]
    fn fattree4_has_the_canonical_shape() {
        let t = fattree(4).unwrap();
        // 4 spines, 4 pods x (2 fabs + 2 tors + 4 hosts), 16 hosts.
        assert_eq!(t.hosts().len(), 16);
        assert_eq!(t.node_count(), 4 + 4 * (2 + 2 + 4));
        // Links: 8 fab-spine... per pod: 2*2 fab2spine + 2*2 tor2fab +
        // 4 host2tor = 12; 48 total.
        assert_eq!(t.link_count(), 48);
        // Every host has exactly one uplink.
        for h in t.hosts() {
            assert_eq!(t.neighbors(h).len(), 1);
            assert_eq!(t.kind(t.neighbors(h)[0].0), NodeKind::Tor);
        }
    }

    #[test]
    fn by_name_grows_racks_to_fit() {
        let t = by_name("fattree4", 32).unwrap();
        assert_eq!(t.hosts().len(), 32, "8 racks x 4 hosts");
        let t = by_name("fattree4", 10).unwrap();
        assert_eq!(t.hosts().len(), 16, "canonical floor");
        assert!(by_name("fattree3", 8).is_err());
        assert!(by_name("nonsense", 8).is_err());
    }

    #[test]
    fn oversub_uplink_is_divided_by_the_ratio() {
        let t = oversub(8, 2.0).unwrap();
        // First declared link of each rack is the uplink.
        let up = t
            .links()
            .iter()
            .find(|l| t.kind(l.a) == NodeKind::Tor || t.kind(l.b) == NodeKind::Tor)
            .unwrap();
        assert_eq!(up.bandwidth_bps, 4.0 * HOST_BPS / 2.0);
        assert_eq!(t.hosts().len(), 8);
    }
}
