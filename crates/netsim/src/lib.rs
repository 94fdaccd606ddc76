#![deny(missing_docs)]

//! # netsim — deterministic cloud-network simulator
//!
//! This crate is the network substrate for reproducing *"Is Big Data
//! Performance Reproducible in Modern Cloud Networks?"* (Uta et al.,
//! NSDI 2020). The paper measures real clouds (Amazon EC2, Google Cloud,
//! a private HPCCloud) and then *emulates* the mechanisms it uncovers
//! (token-bucket traffic shaping, per-core QoS, virtual-NIC segmentation)
//! to study their effect on big-data workloads. Since the real clouds are
//! not available here, this crate implements those mechanisms directly:
//!
//! * [`shaper`] — pluggable egress shapers: [`shaper::TokenBucket`]
//!   (EC2-style budget/high/low-rate policy), [`shaper::PerCoreQos`]
//!   (GCE-style per-core bandwidth guarantee with burst ramp-up),
//!   [`shaper::NoiseShaper`] (HPCCloud-style contention noise),
//!   [`shaper::EmpiricalShaper`] (resampling from a quantile-defined
//!   bandwidth distribution, used for the Ballani A–H emulation), and
//!   [`shaper::StaticShaper`] / [`shaper::MinShaper`] for composition.
//! * [`nic`] — a virtual-NIC packet model: MTU/TSO segmentation, a
//!   device-driver queue, per-packet RTT, and loss/retransmission.
//! * [`tcp`] — an iperf-like TCP stream model that drives a shaper+NIC
//!   pair under a traffic [`pattern`] and produces measurement traces.
//! * [`fabric`] — a multi-node fluid-flow fabric with max-min fair
//!   bandwidth sharing, used by the `bigdata` crate to run simulated
//!   Spark jobs whose shuffles interact with per-node token buckets.
//! * [`faults`] — a seed-deterministic fault layer (VM stalls, link
//!   degradation, loss bursts) that threads into the fabric and into
//!   single-endpoint campaigns via [`faults::FaultInjector`].
//!
//! The simulator is **fully deterministic**: all randomness flows from
//! explicit seeds through [`rng::SimRng`], and there is no global state
//! or wall-clock dependency (the smoltcp idiom: the caller owns time).
//!
//! ## Example
//!
//! ```
//! use netsim::shaper::{Shaper, TokenBucket};
//! use netsim::units::gbps;
//!
//! // A c5.xlarge-style bucket: 5000 Gbit budget, 10 Gbps high rate,
//! // 1 Gbps low rate, 1 Gbit/s refill.
//! let mut tb = TokenBucket::new(5e12, 5e12, gbps(10.0), gbps(1.0), gbps(1.0));
//! // Drive it at full speed for one second of simulated time.
//! let allowed = tb.transmit(0.0, 1.0, f64::INFINITY);
//! assert!((allowed - gbps(10.0)).abs() < 1e-3);
//! ```

pub mod congestion;
pub mod cpu;
pub mod events;
pub mod fabric;
pub mod faults;
pub mod nic;
pub mod pattern;
pub mod rng;
pub mod shaper;
pub mod tcp;
pub mod trace;
pub mod units;

pub use fabric::{
    EventCause, Fabric, FabricPerf, FlowId, FlowRange, FlowSpec, LinkRoute, NextEvent, NodeId,
    StepPath, MAX_ROUTE_LINKS,
};
pub use faults::{FaultConfig, FaultEpisode, FaultInjector, FaultKind, FaultSchedule};
pub use nic::{NicModel, PacketOutcome};
pub use pattern::TrafficPattern;
pub use rng::SimRng;
pub use shaper::Shaper;
pub use tcp::{StreamConfig, StreamSim};
pub use trace::{BandwidthTrace, BwSample, RttTrace};
