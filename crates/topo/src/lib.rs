#![deny(missing_docs)]

//! # topo — multi-tier datacenter topology for the cloud-repro fabric
//!
//! The paper's variability mechanisms (token buckets, contention
//! noise, QoS) act on *endpoints*; this crate adds the other half of
//! a datacenter: the network in between. It models multi-tier
//! Clos/fat-tree topologies, resolves deterministic ECMP paths, and
//! feeds per-link capacities into `netsim`'s max-min water-filling so
//! that incast and placement variance — the effects the paper measures
//! on real clouds — emerge from structure rather than being injected
//! as noise.
//!
//! * [`model`] — typed nodes ([`NodeKind`]), undirected capacity
//!   links, and an immutable [`Topology`] with deterministic sorted
//!   adjacency, built via [`TopologyBuilder`].
//! * [`zoo`] — named shapes: `flat` (the linkless model every
//!   campaign used before this crate), `star`, `fattree<k>`,
//!   `oversub<ratio>`; resolve with [`zoo::by_name`].
//! * [`json`] — a hand-rolled parser/serializer for the
//!   parsimon-style cluster schema (`fab2spine` / `planes` / `pods`),
//!   no serde: the workspace builds hermetically.
//! * [`ecmp`] — equal-cost shortest paths per host pair as a counted
//!   shortest-path DAG, unranked on demand in sorted-adjacency DFS
//!   order; flows spread by a seed-derived hash ([`EcmpRouter`]).
//! * [`wiring`] — [`Wiring`] binds a topology to a fabric: seeded
//!   host placement, capacity installation, routed admission.
//!
//! ## The flat-equivalence contract
//!
//! `flat` is not "a cheap topology" — it is *the absence of one*, and
//! the contract (DESIGN.md §12) is bitwise: a campaign run through a
//! flat [`Wiring`] produces byte-identical artifacts to the same
//! campaign run with no topology code in the loop, under both fabric
//! stepping engines and any shard count. `verify.sh` gates on it.
//!
//! ## Example
//!
//! ```
//! use topo::{zoo, Wiring};
//! use netsim::shaper::StaticShaper;
//! use netsim::{Fabric, FlowSpec};
//! use netsim::units::gbps;
//!
//! // Eight endpoints placed on a 4-ary fat tree, seeded placement.
//! let t = zoo::by_name("fattree4", 8).unwrap();
//! let w = Wiring::new(t, 8, /*ecmp*/ 7, /*placement*/ 42).unwrap();
//! let mut fab: Fabric<StaticShaper> = Fabric::new();
//! for _ in 0..8 {
//!     fab.add_node(StaticShaper::new(gbps(100.0)), f64::INFINITY);
//! }
//! w.install(&mut fab);
//! // Incast: everyone sends to endpoint 0; its 10 Gbps access link
//! // is the bottleneck, not the 100 Gbps shapers.
//! for src in 1..8 {
//!     w.start_flow(&mut fab, FlowSpec::new(src, 0, 1e9));
//! }
//! fab.step(0.01);
//! assert!((fab.node_last_tx_bits(1) / 0.01 - gbps(10.0) / 7.0).abs() < 1.0);
//! ```

pub mod ecmp;
pub mod json;
pub mod model;
pub mod wiring;
pub mod zoo;

pub use ecmp::{EcmpRouter, MAX_ECMP_PATHS};
pub use json::{from_cluster_json, to_cluster_json};
pub use model::{Link, NodeKind, TopoError, Topology, TopologyBuilder};
pub use wiring::Wiring;
