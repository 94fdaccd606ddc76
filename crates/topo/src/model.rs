//! The topology model: typed nodes, undirected capacity links, and a
//! builder that freezes them into an adjacency structure with a
//! deterministic, sorted iteration order.

/// What a topology node is. The tiers mirror the paper's datacenter
/// model (and parsimon-eval's cluster schema): hosts at the leaves,
/// top-of-rack switches above them, pod-local fabric (aggregation)
/// switches, and the spine planes on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeKind {
    /// A server: the only kind a fabric node may be placed on.
    Host,
    /// Top-of-rack switch.
    Tor,
    /// Pod-local fabric (aggregation) switch.
    Fabric,
    /// Spine switch (one per plane position).
    Spine,
}

impl NodeKind {
    /// Stable label used by the JSON schema and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            NodeKind::Host => "Host",
            NodeKind::Tor => "Tor",
            NodeKind::Fabric => "Fabric",
            NodeKind::Spine => "Spine",
        }
    }
}

/// One undirected physical link. Each link owns two directed capacity
/// slots in the fabric's installed cap vector: `2*i` carries `a → b`
/// traffic, `2*i + 1` carries `b → a`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One endpoint (node id).
    pub a: usize,
    /// The other endpoint (node id).
    pub b: usize,
    /// Capacity of each direction, bits/s.
    pub bandwidth_bps: f64,
    /// Propagation delay, seconds (metadata; the rate allocator is
    /// bandwidth-only, delays feed latency models and the JSON schema).
    pub delay_s: f64,
}

/// An immutable multi-tier topology: typed nodes, undirected links,
/// and adjacency in deterministic sorted order (one neighbor list per
/// node, indexed by the dense node id, each sorted by neighbor id then
/// link id — no iteration ever depends on insertion order).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    kinds: Vec<NodeKind>,
    links: Vec<Link>,
    adj: Vec<Vec<(usize, usize)>>,
}

impl Topology {
    /// The zoo name (or the name given to the builder).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count (all kinds).
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of node `v`.
    pub fn kind(&self, v: usize) -> NodeKind {
        self.kinds[v]
    }

    /// Host node ids, ascending.
    pub fn hosts(&self) -> Vec<usize> {
        (0..self.kinds.len())
            .filter(|&v| self.kinds[v] == NodeKind::Host)
            .collect()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The `i`-th undirected link.
    pub fn link(&self, i: usize) -> &Link {
        &self.links[i]
    }

    /// All links, in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbors of `v` as `(neighbor, link id)`, sorted by neighbor
    /// id then link id.
    pub fn neighbors(&self, v: usize) -> &[(usize, usize)] {
        &self.adj[v]
    }

    /// The directed capacity slot for crossing link `i` *out of* node
    /// `from` (`2*i` for the `a → b` direction, `2*i + 1` for `b → a`).
    pub fn directed_slot(&self, i: usize, from: usize) -> u32 {
        let l = &self.links[i];
        debug_assert!(from == l.a || from == l.b, "slot from a non-endpoint");
        if from == l.a {
            (2 * i) as u32
        } else {
            (2 * i + 1) as u32
        }
    }

    /// The directed capacity vector to install on a fabric: two slots
    /// per undirected link, both at the link's bandwidth. Empty for a
    /// linkless (flat) topology — installing it is a no-op by design.
    pub fn directed_caps(&self) -> Vec<f64> {
        let mut caps = Vec::with_capacity(2 * self.links.len());
        for l in &self.links {
            caps.push(l.bandwidth_bps);
            caps.push(l.bandwidth_bps);
        }
        caps
    }

    /// Whether this topology constrains nothing beyond the endpoints
    /// (no links at all — the flat model).
    pub fn is_flat(&self) -> bool {
        self.links.is_empty()
    }
}

/// Errors a topology construction or parse can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoError {
    /// A link referenced a node id that was never declared.
    UnknownNode(usize),
    /// A link connected a node to itself.
    SelfLink(usize),
    /// A link bandwidth or delay was not a positive finite number.
    BadLink(String),
    /// The JSON text failed to parse (position, message).
    Json(usize, String),
    /// The JSON parsed but did not match the cluster schema.
    Schema(String),
    /// A zoo name was not recognized or its parameters are invalid.
    Zoo(String),
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopoError::UnknownNode(v) => write!(f, "link references unknown node {v}"),
            TopoError::SelfLink(v) => write!(f, "self-link at node {v}"),
            TopoError::BadLink(msg) => write!(f, "bad link: {msg}"),
            TopoError::Json(pos, msg) => write!(f, "json error at byte {pos}: {msg}"),
            TopoError::Schema(msg) => write!(f, "cluster schema error: {msg}"),
            TopoError::Zoo(msg) => write!(f, "unknown topology: {msg}"),
        }
    }
}

impl std::error::Error for TopoError {}

/// Incremental topology construction. Node ids are handed out densely
/// in declaration order; `build` freezes the adjacency in sorted order.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    kinds: Vec<NodeKind>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Start a topology with the given zoo name.
    pub fn new(name: &str) -> Self {
        TopologyBuilder {
            name: name.to_string(),
            kinds: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Declare one node; returns its id.
    pub fn node(&mut self, kind: NodeKind) -> usize {
        self.kinds.push(kind);
        self.kinds.len() - 1
    }

    /// Declare `n` nodes of one kind; returns their ids, ascending.
    pub fn nodes(&mut self, kind: NodeKind, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.node(kind)).collect()
    }

    /// Declare a node with an explicit id (the JSON parser's path:
    /// cluster files name their ids). Gaps are an error at `build`.
    pub fn node_with_id(&mut self, id: usize, kind: NodeKind) {
        if id >= self.kinds.len() {
            // Fill the gap with Hosts; `build` verifies every slot was
            // explicitly declared via the `declared` bitmap the JSON
            // parser keeps, so this default never survives a valid file.
            self.kinds.resize(id + 1, NodeKind::Host);
        }
        self.kinds[id] = kind;
    }

    /// Connect `a` and `b` with an undirected link; returns the link id.
    pub fn link(
        &mut self,
        a: usize,
        b: usize,
        bandwidth_bps: f64,
        delay_s: f64,
    ) -> Result<usize, TopoError> {
        if a == b {
            return Err(TopoError::SelfLink(a));
        }
        if !(bandwidth_bps.is_finite() && bandwidth_bps > 0.0) {
            return Err(TopoError::BadLink(format!(
                "bandwidth must be positive and finite, got {bandwidth_bps}"
            )));
        }
        if !(delay_s.is_finite() && delay_s >= 0.0) {
            return Err(TopoError::BadLink(format!(
                "delay must be non-negative and finite, got {delay_s}"
            )));
        }
        self.links.push(Link {
            a,
            b,
            bandwidth_bps,
            delay_s,
        });
        Ok(self.links.len() - 1)
    }

    /// Freeze into an immutable [`Topology`]; validates link endpoints
    /// and sorts every adjacency list.
    pub fn build(self) -> Result<Topology, TopoError> {
        let n = self.kinds.len();
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (i, l) in self.links.iter().enumerate() {
            if l.a >= n {
                return Err(TopoError::UnknownNode(l.a));
            }
            if l.b >= n {
                return Err(TopoError::UnknownNode(l.b));
            }
            adj[l.a].push((l.b, i));
            adj[l.b].push((l.a, i));
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        Ok(Topology {
            name: self.name,
            kinds: self.kinds,
            links: self.links,
            adj,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids_and_sorted_adjacency() {
        let mut b = TopologyBuilder::new("t");
        let h0 = b.node(NodeKind::Host);
        let h1 = b.node(NodeKind::Host);
        let t = b.node(NodeKind::Tor);
        b.link(t, h1, 1e9, 1e-6).unwrap();
        b.link(t, h0, 1e9, 1e-6).unwrap();
        let topo = b.build().unwrap();
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.hosts(), vec![h0, h1]);
        // Sorted by neighbor id even though declared in reverse.
        assert_eq!(topo.neighbors(t), &[(h0, 1), (h1, 0)]);
        assert_eq!(topo.directed_slot(0, t), 0);
        assert_eq!(topo.directed_slot(0, h1), 1);
        assert_eq!(topo.directed_caps().len(), 4);
    }

    #[test]
    fn bad_links_are_rejected() {
        let mut b = TopologyBuilder::new("t");
        let h = b.node(NodeKind::Host);
        assert_eq!(b.link(h, h, 1e9, 0.0), Err(TopoError::SelfLink(h)));
        assert!(matches!(b.link(h, 1, 0.0, 0.0), Err(TopoError::BadLink(_))));
        b.link(h, 7, 1e9, 0.0).unwrap();
        assert_eq!(b.build().unwrap_err(), TopoError::UnknownNode(7));
    }
}
