//! Rest planning — "'rest' the infrastructure" (finding F5.4).
//!
//! "Because it is hard to tell what performance-relevant state may
//! build up in the hidden parts of the underlying cloud infrastructure,
//! experimenters must ensure that the infrastructure is in as 'neutral'
//! a state as possible at the beginning of every experiment. ... adding
//! delays between experiments run in the same VMs can help. Data used
//! while gathering baseline runs can be used to determine the
//! appropriate length (e.g., seconds or minutes) of these rests."
//!
//! [`RestPlanner`] does exactly that: from a probed [`BucketEstimate`]
//! it computes how long a VM must idle to refill its token budget from
//! empty, and how long a rest between repetitions restores what each
//! run consumed.

use crate::probe::BucketEstimate;

/// Rest-duration planning from a probed token bucket.
#[derive(Debug, Clone, Copy)]
pub struct RestPlanner {
    /// Inferred full budget, bits.
    pub budget_bits: f64,
    /// Inferred refill rate, bits/s (the probed low rate).
    pub refill_bps: f64,
    /// Inferred peak rate, bits/s.
    pub high_bps: f64,
}

impl RestPlanner {
    /// Build a planner from a probe result.
    pub fn from_probe(estimate: &BucketEstimate) -> Self {
        RestPlanner {
            budget_bits: estimate.budget_bits,
            refill_bps: estimate.low_bps,
            high_bps: estimate.high_bps,
        }
    }

    /// Does the bucket constrain experiments at all?
    pub fn has_bucket(&self) -> bool {
        self.budget_bits.is_finite()
    }

    /// Tokens consumed by an experiment that transfers `bits` per node
    /// over `duration_s` (refill credited for the duration).
    pub fn tokens_consumed(&self, bits: f64, duration_s: f64) -> f64 {
        if !self.has_bucket() {
            return 0.0;
        }
        (bits - self.refill_bps * duration_s).max(0.0)
    }

    /// Seconds to refill from empty to full — the worst-case "neutral
    /// state" wait (the paper notes this "takes several minutes" or
    /// more; for c5.xlarge's 5000 Gbit at 1 Gbps it is ~83 minutes,
    /// which is why fresh VMs are often cheaper than rests).
    pub fn full_refill_s(&self) -> f64 {
        if !self.has_bucket() {
            return 0.0;
        }
        self.budget_bits / self.refill_bps
    }

    /// Recommend a between-runs rest for a repetition campaign: enough
    /// idle time that each run starts with its predecessor's
    /// consumption fully restored (the independence condition of
    /// Figure 19's analysis).
    pub fn rest_between_runs_s(&self, bits_per_run: f64, run_duration_s: f64) -> f64 {
        let consumed = self.tokens_consumed(bits_per_run, run_duration_s);
        if !self.has_bucket() || consumed == 0.0 {
            0.0
        } else {
            consumed / self.refill_bps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::probe_token_bucket;

    fn c5_planner() -> RestPlanner {
        let est = probe_token_bucket(&clouds::ec2::c5_xlarge(), 42, 2000.0).unwrap();
        RestPlanner::from_probe(&est)
    }

    #[test]
    fn planner_from_real_probe() {
        let p = c5_planner();
        assert!(p.has_bucket());
        // ~5000 Gbit at ~1 Gbps → ~80-100 minutes to fully refill.
        let refill_min = p.full_refill_s() / 60.0;
        assert!(refill_min > 55.0 && refill_min < 120.0, "{refill_min} min");
    }

    #[test]
    fn rest_between_runs_matches_consumption() {
        let p = c5_planner();
        // A run moving 200 Gbit/node in 60 s consumes ~140 Gbit of
        // tokens; restoring them takes ~140 s at ~1 Gbps.
        let rest = p.rest_between_runs_s(200e9, 60.0);
        assert!(rest > 100.0 && rest < 200.0, "rest {rest}");
        // A light run is fully paid by refill: no rest needed.
        assert_eq!(p.rest_between_runs_s(30e9, 60.0), 0.0);
    }

    #[test]
    fn no_bucket_needs_no_rest() {
        let p = RestPlanner {
            budget_bits: f64::INFINITY,
            refill_bps: f64::INFINITY,
            high_bps: f64::INFINITY,
        };
        assert!(!p.has_bucket());
        assert_eq!(p.rest_between_runs_s(1e15, 1.0), 0.0);
        assert_eq!(p.full_refill_s(), 0.0);
    }

    #[test]
    fn resting_actually_restores_simulated_performance() {
        // End-to-end: rest a real simulated bucket for the planner's
        // worst-case refill and verify the next burst runs at the high
        // rate.
        use netsim::shaper::{Shaper, TokenBucket};
        let p = RestPlanner {
            budget_bits: 100e9,
            refill_bps: 1e9,
            high_bps: 10e9,
        };
        let mut tb = TokenBucket::sigma_rho(100e9, 1e9, 10e9);
        // Burn the whole budget.
        let mut t = 0.0;
        for _ in 0..200 {
            tb.transmit(t, 0.1, f64::INFINITY);
            t += 0.1;
        }
        let steps = (p.full_refill_s() / 0.1).round() as u64;
        tb.rest(t, 0.1, steps);
        t = netsim::shaper::advance_clock(t, 0.1, steps);
        // Next second runs at ~10 Gbps again.
        let granted = tb.transmit(t, 1.0, f64::INFINITY);
        assert!(granted > 9.9e9, "granted {granted}");
    }
}
