//! Typed errors for the measurement harness.
//!
//! Week-scale campaigns fail in mundane ways — probes are lost, VMs
//! die, traces come back empty — and a harness that panics on any of
//! them loses the surviving six days of data. Every fallible entry
//! point in this crate returns [`MeasureError`] instead.

use std::fmt;

/// Why a measurement operation could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// The campaign produced no bandwidth samples at all (duration too
    /// short for the pattern, or every sample was lost to faults).
    EmptyTrace,
    /// Every probe attempt was ruined by a fault; carries the number of
    /// attempts made before giving up.
    ProbeFailed {
        /// Attempts made (including the first, non-retry one).
        attempts: u32,
    },
    /// Every pair in a fleet campaign died before producing data.
    AllPairsFailed {
        /// Pairs the fleet started with.
        n_pairs: usize,
    },
    /// A worker task panicked inside the parallel runtime. The panic
    /// was contained (the process and the other tasks survive); a fleet
    /// reports this per pair and degrades to partial results, and only
    /// returns this error when *nothing* else survived.
    TaskPanicked {
        /// Stable index of the task (e.g. the fleet pair) that died.
        task: usize,
        /// Stringified panic payload.
        payload: String,
    },
    /// The journal was written under a different campaign configuration
    /// (profile, pattern, duration, seed, or supervision policy);
    /// resuming would silently mix incompatible results, so the resume
    /// fails loudly instead.
    ResumeConfigMismatch {
        /// Fingerprint of the configuration being resumed.
        expected: u64,
        /// Fingerprint stored in the journal header.
        found: u64,
    },
    /// A re-verified journaled shard no longer reproduces bit-for-bit:
    /// either the journal is corrupt past what its checksums can see,
    /// or the code that produced it has changed behaviour. Resuming
    /// would publish results the current code cannot reproduce.
    ResumeDivergence {
        /// The diverging shard.
        shard: u64,
        /// Result fingerprint stored in the journal.
        journaled_fp: u64,
        /// Fingerprint of the freshly recomputed result.
        recomputed_fp: u64,
    },
    /// The journal itself could not be created, opened, or appended.
    JournalFailed {
        /// Human-readable cause (the underlying `journal` error).
        detail: String,
    },
    /// The campaign's topology could not be wired (host shortage, a
    /// disconnected or too-long ECMP host pair). Surfaces before any
    /// tenant simulates.
    TopologyFailed {
        /// Human-readable cause (the underlying `topo` error).
        detail: String,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::EmptyTrace => {
                write!(f, "campaign produced no samples (duration too short for pattern, or all samples lost to faults)")
            }
            MeasureError::ProbeFailed { attempts } => {
                write!(f, "token-bucket probe failed after {attempts} attempts")
            }
            MeasureError::AllPairsFailed { n_pairs } => {
                write!(f, "all {n_pairs} fleet pairs died before producing data")
            }
            MeasureError::TaskPanicked { task, payload } => {
                write!(f, "worker task {task} panicked (contained): {payload}")
            }
            MeasureError::ResumeConfigMismatch { expected, found } => {
                write!(
                    f,
                    "journal belongs to a different campaign config: expected {expected:#018x}, journal has {found:#018x}"
                )
            }
            MeasureError::ResumeDivergence { shard, journaled_fp, recomputed_fp } => {
                write!(
                    f,
                    "resume verification failed: shard {shard} recomputes to {recomputed_fp:#018x} but the journal holds {journaled_fp:#018x}"
                )
            }
            MeasureError::JournalFailed { detail } => {
                write!(f, "journal operation failed: {detail}")
            }
            MeasureError::TopologyFailed { detail } => {
                write!(f, "topology wiring failed: {detail}")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

impl From<journal::JournalError> for MeasureError {
    /// A journal written under another configuration is a resume
    /// mismatch; every other journal failure is reported verbatim.
    fn from(e: journal::JournalError) -> Self {
        match e {
            journal::JournalError::ConfigMismatch { expected, found } => {
                MeasureError::ResumeConfigMismatch { expected, found }
            }
            other => MeasureError::JournalFailed { detail: other.to_string() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(MeasureError::EmptyTrace.to_string().contains("no samples"));
        assert!(MeasureError::ProbeFailed { attempts: 5 }
            .to_string()
            .contains("5 attempts"));
        assert!(MeasureError::AllPairsFailed { n_pairs: 4 }
            .to_string()
            .contains("4 fleet pairs"));
        let p = MeasureError::TaskPanicked { task: 3, payload: "index oob".into() };
        assert!(p.to_string().contains("task 3"));
        assert!(p.to_string().contains("index oob"));
        let m = MeasureError::ResumeConfigMismatch { expected: 1, found: 2 };
        assert!(m.to_string().contains("different campaign config"));
        let d = MeasureError::ResumeDivergence { shard: 4, journaled_fp: 9, recomputed_fp: 10 };
        assert!(d.to_string().contains("shard 4"));
        let j = MeasureError::JournalFailed { detail: "disk full".into() };
        assert!(j.to_string().contains("disk full"));
    }

    #[test]
    fn is_a_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(MeasureError::EmptyTrace);
        assert!(e.source().is_none());
    }
}
