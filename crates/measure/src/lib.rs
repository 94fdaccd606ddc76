#![deny(missing_docs)]

//! # measure — the cloud-network measurement harness
//!
//! Simulated counterpart of the paper's data-collection tooling (iperf
//! streams, tcpdump RTT analysis, token-bucket probing, and the
//! experimentation protocols of Section 5):
//!
//! * [`campaign`] — week-scale bandwidth campaigns per cloud and
//!   traffic pattern, producing the 10-second summaries behind
//!   Figures 4–6, 9, 10 and Table 3.
//! * [`latency`] — per-segment RTT collection (Figures 7, 8) and the
//!   `write()`-size sweep of Figure 12.
//! * [`probe`] — black-box identification of token-bucket parameters
//!   (Figure 11): time-to-empty, high and low rates, budget estimate.
//! * [`fingerprint`] — performance fingerprints (finding F5.2): capture
//!   baseline network behaviour, serialize it alongside results, and
//!   detect provider policy drift before new experiments.
//! * [`experiment`] — a generic repetition runner implementing the
//!   paper's protocol recommendations: repetitions, randomized
//!   ordering, rests, fresh environments.
//! * [`error`] — typed failure modes ([`MeasureError`]): week-scale
//!   campaigns lose probes and VMs, and the harness degrades gracefully
//!   (gap-annotated traces, partial fleet results, probe retry with
//!   exponential backoff) instead of panicking.
//! * [`placement`] — placement fleets: big-data repetitions re-placed
//!   on a datacenter topology per run, exposing rack- and
//!   uplink-induced variance that flat endpoint shaping cannot show.
//! * [`resume`] — pair fleets, one [`FleetSpec`] and two drivers over
//!   one supervised settle loop: [`run_fleet`] keeps every pair in
//!   memory, and [`run_fleet_journaled`] also writes every settled
//!   shard to a [`journal`] write-ahead log that a SIGKILLed campaign
//!   resumes from (with bit-for-bit re-verification of a journaled
//!   sample). Both return the same bits; supervision bounds each shard
//!   by a simulated-step budget and the campaign by a retry budget.
//! * [`stream`] — million-tenant campaigns folded into fixed-size
//!   sketch state, with the same two-driver shape: [`run_fleet_stream`]
//!   and [`run_fleet_stream_journaled`].
//!
//! Both journaled drivers report each durable checkpoint to a callback
//! with the pairs or tenants it covers; the CLI's one crash-test flag,
//! `--kill-after N`, aborts the process at the first checkpoint that
//! covers at least `N`.

pub mod campaign;
pub mod error;
pub mod experiment;
pub mod fingerprint;
pub mod latency;
pub mod pcap;
pub mod placement;
pub mod probe;
pub mod rest;
pub mod resume;
pub mod stream;
mod wire;

pub use campaign::{
    run_all_patterns, run_all_patterns_jobs, run_campaign, CampaignResult, FleetResult, GapCause,
    PairFailure, TraceGap,
};
pub use error::MeasureError;
pub use experiment::{ExperimentPlan, ExperimentReport};
pub use fingerprint::{DriftFinding, Fingerprint};
pub use placement::{run_placement_fleet, PlacementFleetResult};
pub use probe::{
    probe_instance_type, probe_token_bucket, probe_with_retry, BucketEstimate, ProbeOutcome,
    RetryPolicy,
};
pub use rest::RestPlanner;
pub use resume::{
    run_fleet, run_fleet_journaled, FleetSpec, JournaledFleet, ResumeStats, SupervisePolicy,
    SupervisionStats,
};
pub use stream::{
    run_fleet_stream, run_fleet_stream_journaled, JournaledStream, SelfCheckReport,
    StreamResumeStats, StreamSpec, StreamSummary,
};
