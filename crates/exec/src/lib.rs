#![deny(missing_docs)]

//! # exec — deterministic parallel execution runtime
//!
//! A std-only parallel runtime for the simulator's embarrassingly
//! parallel hot paths (fleet campaigns, pattern sweeps, bootstrap
//! resampling). The workspace's hermetic-build policy rules out
//! `rayon`; this crate provides the slice of it the simulator needs,
//! built on scoped threads and one scheduler, the ordered pipeline:
//! workers claim runs of contiguous indices from one shared counter,
//! and the caller's thread receives the results in index order.
//!
//! ## The determinism contract
//!
//! Every task is keyed by its **stable index**, and results reach the
//! caller in index order. Combined with the simulator-wide convention
//! that per-task randomness derives from `(seed, task id)` — never from
//! a shared sequential stream — the output of [`par_map`] and friends
//! is **bit-identical at any worker count and under any claim
//! interleaving**. Scheduling decides only *which thread* computes a
//! task, never *what* the task computes.
//!
//! ## Streamed consumption
//!
//! [`par_for_each_ordered`] hands results to a caller-side `sink` one
//! at a time instead of returning them all at the end, so a campaign
//! can fold and checkpoint each result while later tasks still run.
//! The same contract holds for it: the sink sees every index exactly
//! once, in ascending order, at any worker count. Scheduling changes
//! only *when* the sink is called, never *with what* or *in which
//! order*, so a fold over the sink's arguments — and anything it
//! writes — is bit-identical at any `jobs`. Workers run at most
//! `window` results ahead of the sink, which bounds memory at any
//! task count.
//!
//! ## Panic containment
//!
//! A panicking task does not abort the process or poison its worker:
//! each task runs under `catch_unwind`, and a panic becomes a typed
//! [`TaskPanic`] carrying the task index and the stringified payload.
//! [`try_par_map`] surfaces these per task so callers can degrade to
//! partial results; [`par_map`] re-raises the lowest-indexed panic
//! (deterministically, regardless of which worker hit it first).
//!
//! ## Supervision
//!
//! [`RetryAccountant`] caps the retries a supervised campaign may buy
//! across all its tasks. The unit of repair is an attempt; a
//! supervisor asks the accountant for each retry in stable task order,
//! so grants, like results, do not depend on the worker count.
//!
//! ## Worker-count resolution
//!
//! [`current_jobs`] resolves, in order: a process-global override (set
//! by the CLI `--jobs` flag via [`set_global_jobs`]), the `REPRO_JOBS`
//! environment variable, and finally the machine's available
//! parallelism. Because of the determinism contract, this only affects
//! wall-clock time — never results.
//!
//! ```
//! // Bit-identical results at any worker count:
//! let serial = exec::par_map_indexed(1, 100, |i| (i as u64).wrapping_mul(0x9E3779B9));
//! let wide = exec::par_map_indexed(8, 100, |i| (i as u64).wrapping_mul(0x9E3779B9));
//! assert_eq!(serial, wide);
//! ```

mod budget;
mod jobs;
mod ordered;
mod panic;
mod par;

pub use budget::RetryAccountant;
pub use jobs::{current_jobs, parse_jobs, resolve_jobs, set_global_jobs};
pub use ordered::par_for_each_ordered;
pub use panic::TaskPanic;
pub use par::{par_map, par_map_indexed, par_map_with, try_par_map};
