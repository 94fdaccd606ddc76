//! Wiring a topology onto a `netsim` fabric: seed-deterministic
//! placement of fabric endpoints onto topology hosts, capacity
//! installation, and routed flow admission.
//!
//! The **flat-equivalence contract** (DESIGN.md §12) lives here: a
//! flat (linkless) topology makes [`Wiring::install`] a no-op and
//! every route [`LinkRoute::EMPTY`], so a campaign run through a flat
//! wiring is *byte-identical* to one that never heard of topologies.

use crate::ecmp::EcmpRouter;
use crate::model::{TopoError, Topology};
use netsim::fabric::Fabric;
use netsim::rng::derive_seed;
use netsim::shaper::Shaper;
use netsim::{FlowId, FlowRange, FlowSpec, LinkRoute, SimRng};
use std::sync::Arc;

/// Stable label mixing the placement seed away from other consumers of
/// the same campaign seed (ASCII `"placemnt"`).
const PLACEMENT_LABEL: u64 = 0x706c_6163_656d_6e74;

/// A topology bound to a fabric's endpoint space: which host each
/// fabric node occupies, and how its flows are routed and spread. The
/// router (which owns the topology) is shared, so clones and reseats
/// copy only the placement.
#[derive(Debug, Clone)]
pub struct Wiring {
    router: Arc<EcmpRouter>,
    placement: Vec<usize>,
}

impl Wiring {
    /// Place `n_endpoints` fabric nodes onto `topo`'s hosts — a
    /// Fisher–Yates shuffle of the host list under `placement_seed`,
    /// truncated to `n_endpoints` — and count the ECMP paths hashed
    /// under `ecmp_seed`. Errors if the topology has fewer hosts than
    /// endpoints.
    pub fn new(
        topo: Topology,
        n_endpoints: usize,
        ecmp_seed: u64,
        placement_seed: u64,
    ) -> Result<Wiring, TopoError> {
        let mut hosts = topo.hosts();
        if hosts.len() < n_endpoints {
            return Err(TopoError::Schema(format!(
                "topology {:?} has {} hosts, campaign needs {n_endpoints}",
                topo.name(),
                hosts.len()
            )));
        }
        let mut rng = SimRng::new(derive_seed(placement_seed, PLACEMENT_LABEL));
        rng.shuffle(&mut hosts);
        hosts.truncate(n_endpoints);
        Ok(Wiring {
            router: Arc::new(EcmpRouter::new(&topo, ecmp_seed)?),
            placement: hosts,
        })
    }

    /// This wiring with a fresh placement shuffle under
    /// `placement_seed`, sharing the ECMP router — placement fleets
    /// reshuffle per repetition at the cost of one host shuffle.
    /// `reseat(s)` equals `Wiring::new(topo, n, ecmp_seed, s)`
    /// placement-for-placement.
    pub fn reseat(&self, placement_seed: u64) -> Wiring {
        let mut hosts = self.topology().hosts();
        let mut rng = SimRng::new(derive_seed(placement_seed, PLACEMENT_LABEL));
        rng.shuffle(&mut hosts);
        hosts.truncate(self.placement.len());
        Wiring {
            router: Arc::clone(&self.router),
            placement: hosts,
        }
    }

    /// Install the topology's directed link capacities on the fabric.
    /// A flat topology installs nothing at all — the fabric stays
    /// bitwise the flat fabric (no capacity vector, no epoch bump, no
    /// perf counters).
    pub fn install<S: Shaper>(&self, fabric: &mut Fabric<S>) {
        if self.is_flat() {
            return;
        }
        fabric.set_link_caps(self.topology().directed_caps());
    }

    /// Admit a batch of flows through the wiring in one
    /// [`Fabric::start_flows`] call: resolve each flow's endpoint
    /// hosts, spread it over the ECMP set keyed by the flow id the
    /// fabric assigns it, and write its route straight into the flow
    /// table. On a flat topology every route is empty, so this is
    /// exactly the unrouted `fabric.start_flows`.
    pub fn start_flows<S: Shaper>(
        &self,
        fabric: &mut Fabric<S>,
        specs: impl IntoIterator<Item = FlowSpec>,
    ) -> FlowRange {
        fabric.start_flows(specs, |first, specs, routes| {
            self.route_flows(specs, first, routes)
        })
    }

    /// The routes a batch of flows labelled `first_label` onward would
    /// take, written into `routes` (one per spec): entry `i` is
    /// `route_for(specs[i].src, specs[i].dst, first_label + i)`,
    /// computed in [`EcmpRouter::route_batch`]'s two passes.
    pub fn route_flows(&self, specs: &[FlowSpec], first_label: u64, routes: &mut [LinkRoute]) {
        let p = &self.placement;
        self.router
            .route_batch(|i| (p[specs[i].src], p[specs[i].dst]), first_label, routes);
    }

    /// Admit one flow through the wiring: [`Wiring::start_flows`] with
    /// a batch of one.
    pub fn start_flow<S: Shaper>(&self, fabric: &mut Fabric<S>, spec: FlowSpec) -> FlowId {
        self.start_flows(fabric, [spec]).start()
    }

    /// The route a flow between fabric endpoints would take with the
    /// given flow label (without starting it).
    pub fn route_for(&self, src: usize, dst: usize, flow_label: u64) -> LinkRoute {
        self.router
            .route(self.placement[src], self.placement[dst], flow_label)
    }

    /// The topology host a fabric endpoint is placed on.
    pub fn host_of(&self, endpoint: usize) -> usize {
        self.placement[endpoint]
    }

    /// Endpoint count this wiring was built for.
    pub fn endpoints(&self) -> usize {
        self.placement.len()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        self.router.topology()
    }

    /// Whether this wiring constrains nothing (flat contract active).
    pub fn is_flat(&self) -> bool {
        self.topology().is_flat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NodeKind;
    use crate::zoo;
    use netsim::shaper::StaticShaper;
    use netsim::units::gbps;

    fn fabric(n: usize) -> Fabric<StaticShaper> {
        let mut f = Fabric::new();
        for _ in 0..n {
            f.add_node(StaticShaper::new(gbps(100.0)), f64::INFINITY);
        }
        f
    }

    #[test]
    fn placement_is_seeded_and_injective() {
        let w1 = Wiring::new(zoo::fattree(4).unwrap(), 8, 1, 77).unwrap();
        let w2 = Wiring::new(zoo::fattree(4).unwrap(), 8, 1, 77).unwrap();
        let w3 = Wiring::new(zoo::fattree(4).unwrap(), 8, 1, 78).unwrap();
        let p1: Vec<usize> = (0..8).map(|e| w1.host_of(e)).collect();
        let p2: Vec<usize> = (0..8).map(|e| w2.host_of(e)).collect();
        let p3: Vec<usize> = (0..8).map(|e| w3.host_of(e)).collect();
        assert_eq!(p1, p2, "same seed, same placement");
        assert_ne!(p1, p3, "different seed respreads");
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "no two endpoints share a host");
        // reseat(s) is exactly Wiring::new(.., s)'s placement.
        let reseated: Vec<usize> = (0..8).map(|e| w1.reseat(78).host_of(e)).collect();
        assert_eq!(reseated, p3);
    }

    #[test]
    fn flat_wiring_is_a_no_op_on_the_fabric() {
        let w = Wiring::new(zoo::flat(4), 4, 1, 2).unwrap();
        let mut fab = fabric(4);
        w.install(&mut fab);
        assert_eq!(fab.link_count(), 0);
        let id = w.start_flow(&mut fab, FlowSpec::new(0, 1, 1e12));
        fab.step(0.01);
        assert!(fab.flow_last_rate(id).unwrap() > 0.0);
        let perf = fab.perf();
        assert_eq!(perf.link_recomputes + perf.link_cache_hits, 0);
    }

    #[test]
    fn routed_incast_is_bottlenecked_by_the_access_link() {
        // 4 endpoints on a 4-host star, so any placement uses every
        // host: 3 senders into endpoint 0 share its single 10 Gbps host
        // link even though shapers allow 100 Gbps.
        let w = Wiring::new(zoo::star(4).unwrap(), 4, 1, 2).unwrap();
        let mut fab = fabric(4);
        w.install(&mut fab);
        let ids: Vec<FlowId> = (1..4)
            .map(|s| w.start_flow(&mut fab, FlowSpec::new(s, 0, 1e12)))
            .collect();
        fab.step(0.01);
        for id in ids {
            let r = fab.flow_last_rate(id).unwrap();
            assert!(
                (r - zoo::HOST_BPS / 3.0).abs() < 1.0,
                "rate {r}, want fair third of the access link"
            );
        }
    }

    #[test]
    fn too_small_a_topology_is_rejected() {
        assert!(Wiring::new(zoo::star(4).unwrap(), 8, 1, 2).is_err());
    }

    #[test]
    fn fattree16_wires_1024_hosts_with_valid_six_hop_routes() {
        let w = Wiring::new(zoo::by_name("fattree16", 1024).unwrap(), 1024, 3, 5).unwrap();
        let t = w.topology();
        // A host's pod is named by the first fabric switch above its ToR.
        let pod_of = |h: usize| {
            let tor = t.neighbors(h)[0].0;
            t.neighbors(tor)
                .iter()
                .find(|&&(v, _)| t.kind(v) == NodeKind::Fabric)
                .unwrap()
                .0
        };
        let hosts = t.hosts();
        let (a, b) = (hosts[0], hosts[hosts.len() - 1]);
        assert_ne!(pod_of(a), pod_of(b));
        assert_eq!(w.router.path_count(a, b), 64, "(k/2)^2 spine paths");

        let mut rng = SimRng::new(11);
        let mut checked = 0;
        while checked < 200 {
            let (src, dst) = (rng.index(1024), rng.index(1024));
            let (hs, hd) = (w.host_of(src), w.host_of(dst));
            if pod_of(hs) == pod_of(hd) {
                continue;
            }
            let route = w.route_for(src, dst, rng.next_u64());
            assert_eq!(route.links().len(), 6, "inter-pod route {hs} -> {hd}");
            let mut at = hs;
            for &slot in route.links() {
                let l = t.link(slot as usize / 2);
                let (from, to) = if slot % 2 == 0 {
                    (l.a, l.b)
                } else {
                    (l.b, l.a)
                };
                assert_eq!(from, at, "hop does not start where the last ended");
                at = to;
            }
            assert_eq!(at, hd, "route does not end at the destination host");
            checked += 1;
        }
    }
}
