//! Repetition schedules implementing Section 5's protocols.
//!
//! The paper's recommendations for reliable cloud experiments:
//! enough repetitions (F5.3) and randomized experiment order and rests
//! between runs to avoid self-interference (F5.4).
//! [`ExperimentPlan`] encodes the protocol, and
//! [`ExperimentPlan::schedule`] turns it into the global run order
//! that a caller executes.

use netsim::rng::SimRng;

/// An experiment protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentPlan {
    /// Repetitions per treatment.
    pub repetitions: usize,
    /// Shuffle the global run order across treatments (F5.4:
    /// "randomizing experiment order is a useful technique for
    /// avoiding self-interference").
    pub randomize_order: bool,
    /// Simulated rest between consecutive runs, seconds (carried in
    /// each [`RunRequest`] so the caller can advance hidden state).
    pub rest_between_s: f64,
}

impl Default for ExperimentPlan {
    fn default() -> Self {
        ExperimentPlan {
            repetitions: 10,
            randomize_order: true,
            rest_between_s: 60.0,
        }
    }
}

/// One scheduled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRequest {
    /// Treatment index.
    pub treatment: usize,
    /// Repetition index within the treatment.
    pub repetition: usize,
    /// Rest to apply before the run, seconds.
    pub rest_before_s: f64,
}

impl ExperimentPlan {
    /// The global run schedule (treatment, repetition) honoring the
    /// randomization setting. Deterministic in `seed`.
    pub fn schedule(&self, n_treatments: usize, seed: u64) -> Vec<RunRequest> {
        let mut runs: Vec<RunRequest> = (0..n_treatments)
            .flat_map(|t| {
                (0..self.repetitions).map(move |r| RunRequest {
                    treatment: t,
                    repetition: r,
                    rest_before_s: self.rest_between_s,
                })
            })
            .collect();
        if self.randomize_order {
            let mut rng = SimRng::new(seed);
            rng.shuffle(&mut runs);
        }
        if let Some(first) = runs.first_mut() {
            first.rest_before_s = 0.0;
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_covers_all_runs_exactly_once() {
        let plan = ExperimentPlan {
            repetitions: 5,
            randomize_order: true,
            rest_between_s: 30.0,
        };
        let sched = plan.schedule(3, 42);
        assert_eq!(sched.len(), 15);
        let mut seen = std::collections::HashSet::new();
        for r in &sched {
            assert!(seen.insert((r.treatment, r.repetition)));
        }
        assert_eq!(sched[0].rest_before_s, 0.0);
        assert!(sched[1..].iter().all(|r| r.rest_before_s == 30.0));
    }

    #[test]
    fn randomization_interleaves_treatments() {
        let plan = ExperimentPlan {
            repetitions: 10,
            randomize_order: true,
            ..Default::default()
        };
        let sched = plan.schedule(2, 7);
        // Not all treatment-0 runs first.
        let first_half_t0 = sched[..10].iter().filter(|r| r.treatment == 0).count();
        assert!(first_half_t0 > 1 && first_half_t0 < 9, "{first_half_t0}");
    }

    #[test]
    fn unrandomized_schedule_is_sequential() {
        let plan = ExperimentPlan {
            repetitions: 3,
            randomize_order: false,
            ..Default::default()
        };
        let sched = plan.schedule(2, 0);
        let order: Vec<usize> = sched.iter().map(|r| r.treatment).collect();
        assert_eq!(order, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn deterministic_schedule() {
        let plan = ExperimentPlan::default();
        assert_eq!(plan.schedule(4, 9), plan.schedule(4, 9));
        assert_ne!(plan.schedule(4, 9), plan.schedule(4, 10));
    }
}
