#![deny(missing_docs)]

//! # bigdata — a Spark-like workload simulator over shaped networks
//!
//! The paper runs Apache Spark 2.4 (HiBench and TPC-DS) on a 12-node
//! cluster whose network emulates Amazon EC2's token-bucket policy
//! (Table 4). This crate substitutes a deterministic Spark-like engine:
//!
//! * [`cluster`] — a simulated cluster: one `netsim` fabric node per
//!   worker, each with its own egress shaper (e.g. its VM's token
//!   bucket) and a fixed executor-core count. `Cluster::advance` is
//!   its one stepping entry.
//! * [`job`] — jobs as DAGs of stages; each stage has a task count,
//!   per-task compute-time distribution, and an all-to-all shuffle
//!   volume (the way Spark stages exchange data).
//! * [`engine`] — the scheduler/executor: waves of tasks per stage,
//!   then a max-min-fair shuffle over the fabric. Because compute
//!   phases advance the same clock as the network, token buckets refill
//!   during compute and deplete during shuffles — reproducing the
//!   coupling that breaks run-to-run independence (Figure 19). Its
//!   stage-phase core (CPU-credit stretch, compute-phase idle, shuffle
//!   admission and the range-counted wait on it) runs the speculative
//!   runner's stages too.
//! * [`workloads`] — calibrated HiBench (K-Means, Terasort, WordCount,
//!   Sort, Bayes) and TPC-DS (21-query subset) profiles.
//! * [`straggler`] — per-node utilization analysis that detects the
//!   token-bucket-induced stragglers of Figure 18.
//! * [`speculate`] — fault tolerance: per-task scheduling with
//!   stall-driven kills, retry, and speculative re-execution — plus the
//!   controlled experiment showing speculation cannot cure a
//!   token-bucket straggler (the copy's node is just as drained).
//! * [`runner`] — repetition drivers implementing the paper's
//!   experiment policies: fresh VMs, preset budgets, or carry-over
//!   state between runs.
//!
//! Everything is deterministic given seeds.

pub mod cluster;
pub mod dag;
pub mod engine;
pub mod job;
pub mod runner;
pub mod speculate;
pub mod straggler;
pub mod workloads;

pub use cluster::Cluster;
pub use dag::{run_dag, DagResult, DagSpec};
pub use engine::{run_job, run_job_traced, JobResult, NodeTrace, StageResult};
pub use job::{JobSpec, StageSpec};
pub use runner::{run_repetitions, BudgetPolicy};
pub use speculate::{
    run_job_speculative, token_bucket_straggler_cure, SpeculationConfig, SpeculationReport,
    StragglerCure,
};
pub use straggler::{detect_stragglers, StragglerReport};
