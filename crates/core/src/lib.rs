#![deny(missing_docs)]

//! # repro-core — reproducible cloud experimentation
//!
//! The top-level crate of the reproduction of *"Is Big Data Performance
//! Reproducible in Modern Cloud Networks?"* (Uta et al., NSDI 2020).
//! It packages the paper's *actionable* contribution — the protocols of
//! Section 5 for running cloud experiments whose conclusions hold —
//! as a library, on top of the simulation substrates:
//!
//! * [`planning`] — how many repetitions does this experiment need?
//!   (CONFIRM-based, with 1/√n extrapolation from pilot runs.)
//! * [`guidelines`] — findings F5.1–F5.5 as auditable checks over an
//!   experiment design.
//! * [`report`] — statistical reporting the way the paper says results
//!   should be reported: medians *and* nonparametric CIs *and*
//!   variability *and* the iid-assumption battery.
//!
//! The substrate crates are re-exported so downstream users need a
//! single dependency:
//!
//! * [`exec`] — the deterministic parallel execution runtime
//!   (parallel campaigns and bootstrap, bit-identical at any worker
//!   count);
//! * [`netsim`] — shapers, NICs, fabrics (the network simulator);
//! * [`clouds`] — EC2 / GCE / HPCCloud / Ballani profiles;
//! * [`vstats`] — CIs, CONFIRM, hypothesis tests;
//! * [`bigdata`] — the Spark-like workload simulator;
//! * [`measure`] — campaigns, probes, fingerprints;
//! * [`survey`] — the Section 2 literature survey pipeline.
//!
//! ## Quickstart
//!
//! ```
//! use repro_core::planning::recommend_repetitions;
//!
//! // Pilot measurements of some cloud benchmark:
//! let pilot: Vec<f64> = (0..30).map(|i| 100.0 + (i % 7) as f64).collect();
//! let rec = recommend_repetitions(&pilot, 0.5, 0.95, 0.01);
//! assert!(rec.recommended.unwrap_or(usize::MAX) >= 6);
//! ```

pub use bigdata;
pub use clouds;
pub use exec;
pub use measure;
pub use netsim;
pub use survey;
pub use topo;
pub use vstats;

pub mod guidelines;
pub mod planning;
pub mod protocol;
pub mod report;

pub use guidelines::{audit, ExperimentDesign, Finding, Violation};
pub use planning::{recommend_repetitions, Recommendation};
pub use protocol::{run_protocol, ProtocolConfig, ProtocolOutcome, ProtocolResult};
pub use report::{ExhaustionNote, MeasurementReport, MIN_PUBLISHABLE_COVERAGE};
