//! CPU-credit model for burstable instances (extension).
//!
//! Section 4.2 closes with: "Others have shown that cloud providers use
//! token buckets for other resources such as CPU scheduling [Wang et
//! al.]. This affects cloud-based experimentation, as the state of
//! these token buckets is not directly visible to users, nor are their
//! budgets or refill policies." This module implements that resource:
//! the EC2 t2/t3-style **CPU credit** scheme.
//!
//! * A vCPU earns credits at a fixed rate (`earn_rate` credits/hour);
//!   one credit buys one vCPU-minute at 100% utilization.
//! * While credits remain (or within the baseline), the instance runs
//!   at full speed; once the balance empties, it is throttled to the
//!   **baseline fraction** (e.g. t2.micro: 10%).
//! * Credits accrue while the CPU idles, up to a cap — exactly the
//!   budget/refill/cap structure of the network bucket, so the same
//!   experimental pathologies (runs coupled through hidden state,
//!   budget-dependent runtimes) appear on the compute axis.
//!
//! [`CpuCredits::run`] answers the engine's question directly: "how
//! long does `work` seconds of full-speed computation take, starting
//! from the current credit state?"

/// CPU credit state for one instance.
///
/// ```
/// use netsim::cpu::CpuCredits;
///
/// let mut c = CpuCredits::new(2, 0.3, 10.0, 100.0);
/// // 600 credit-seconds buy ~428 s of full-speed dual-vCPU work;
/// // everything beyond runs at the 30% baseline.
/// let wall = c.run(1000.0);
/// assert!(wall > 1000.0);
/// c.idle(3600.0); // resting earns credits back
/// assert!(c.balance_credits() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CpuCredits {
    /// Number of vCPUs.
    vcpus: f64,
    /// Baseline utilization fraction per vCPU (0, 1].
    baseline: f64,
    /// Current credit balance, in vCPU-seconds of full-speed work
    /// *above baseline*.
    balance_s: f64,
    /// Maximum balance.
    cap_s: f64,
    /// Initial balance (for reset).
    initial_s: f64,
}

impl CpuCredits {
    /// Create a credit state.
    ///
    /// * `vcpus` — vCPU count.
    /// * `baseline` — baseline utilization fraction (t3.large: 0.3).
    /// * `initial_credits` / `cap_credits` — in vCPU-minutes (the AWS
    ///   unit: 1 credit = 1 vCPU-minute at 100%).
    pub fn new(vcpus: u32, baseline: f64, initial_credits: f64, cap_credits: f64) -> Self {
        assert!(vcpus >= 1, "need at least one vCPU");
        assert!(baseline > 0.0 && baseline <= 1.0, "baseline must be in (0, 1]");
        assert!(
            initial_credits >= 0.0 && cap_credits >= initial_credits,
            "credit balance must fit under the cap"
        );
        CpuCredits {
            vcpus: vcpus as f64,
            baseline,
            balance_s: initial_credits * 60.0,
            cap_s: cap_credits * 60.0,
            initial_s: initial_credits * 60.0,
        }
    }

    /// An unlimited (non-burstable) instance: never throttles.
    pub fn unlimited(vcpus: u32) -> Self {
        CpuCredits::new(vcpus, 1.0, 0.0, 0.0)
    }

    /// Current balance in credits (vCPU-minutes).
    pub fn balance_credits(&self) -> f64 {
        self.balance_s / 60.0
    }

    /// Baseline fraction.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Earn rate while running *at* baseline: zero net; while idle, the
    /// baseline allocation accrues as credits (AWS semantics: credits
    /// earned continuously at the baseline rate, spent at the usage
    /// rate; net = baseline − usage).
    fn earn_rate_s_per_s(&self) -> f64 {
        self.vcpus * self.baseline
    }

    /// Advance `dt` seconds of idleness (credits accrue).
    pub fn idle(&mut self, dt: f64) {
        assert!(dt >= 0.0, "time cannot run backwards");
        if self.baseline >= 1.0 {
            return;
        }
        self.balance_s = (self.balance_s + self.earn_rate_s_per_s() * dt).min(self.cap_s);
    }

    /// Execute `work_s` seconds of full-speed CPU work (all vCPUs busy)
    /// and return the wall-clock time it takes from the current state.
    ///
    /// While credits last the work runs at full speed (spending
    /// `vcpus·(1−baseline)` credit-seconds per wall second); once the
    /// balance hits zero the instance drops to the baseline fraction
    /// and the remaining work takes `1/baseline` times longer.
    pub fn run(&mut self, work_s: f64) -> f64 {
        assert!(work_s >= 0.0, "work time must be non-negative");
        if self.baseline >= 1.0 {
            return work_s;
        }
        let spend_rate = self.vcpus * (1.0 - self.baseline); // credit-s per wall-s
        let mut remaining = work_s;
        let mut wall = 0.0;

        if self.balance_s > 0.0 && spend_rate > 0.0 {
            // Wall time until the balance empties at full speed.
            let t_empty = self.balance_s / spend_rate;
            let t_full = remaining.min(t_empty);
            wall += t_full;
            remaining -= t_full;
            self.balance_s = (self.balance_s - t_full * spend_rate).max(0.0);
        }
        if remaining > 0.0 {
            // Throttled: each wall second does `baseline` of work.
            wall += remaining / self.baseline;
        }
        wall
    }

    /// Restore the initial balance (fresh instance).
    pub fn reset(&mut self) {
        self.balance_s = self.initial_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_throttles() {
        let mut c = CpuCredits::unlimited(4);
        assert_eq!(c.run(1000.0), 1000.0);
        c.idle(1000.0);
        assert_eq!(c.run(1000.0), 1000.0);
    }

    #[test]
    fn full_speed_while_credits_last_then_baseline() {
        // 2 vCPU, 30% baseline, 10 credits = 600 credit-seconds.
        let mut c = CpuCredits::new(2, 0.3, 10.0, 100.0);
        // Spend rate = 2·0.7 = 1.4 credit-s per wall-s → empties after
        // ~428.6 s of full-speed work.
        let wall = c.run(1000.0);
        let t_full = 600.0 / 1.4;
        let expected = t_full + (1000.0 - t_full) / 0.3;
        assert!((wall - expected).abs() < 1e-6, "wall {wall} vs {expected}");
        assert!(c.balance_credits() < 1e-9);
    }

    #[test]
    fn short_work_is_unaffected() {
        // A t3.large-style profile: 2 vCPU, 30% baseline, 24-hour
        // credit cap (576 credits), starting with half the cap.
        let mut c = CpuCredits::new(2, 0.30, 288.0, 576.0);
        let wall = c.run(60.0);
        assert!((wall - 60.0).abs() < 1e-9);
        assert!(c.balance_credits() < 288.0);
    }

    #[test]
    fn idle_earns_credits_up_to_cap() {
        let mut c = CpuCredits::new(2, 0.3, 0.0, 10.0);
        // Earn rate = 0.6 credit-s per s → 600 s of idle = 6 credits.
        c.idle(600.0);
        assert!((c.balance_credits() - 6.0).abs() < 1e-9);
        c.idle(1e9);
        assert!((c.balance_credits() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn depleted_instance_runs_at_baseline_exactly() {
        let mut c = CpuCredits::new(1, 0.25, 0.0, 100.0);
        let wall = c.run(25.0);
        assert!((wall - 100.0).abs() < 1e-9);
    }

    #[test]
    fn reset_restores_the_initial_balance() {
        let mut c = CpuCredits::new(2, 0.3, 10.0, 100.0);
        c.run(1000.0);
        assert!(c.balance_credits() < 1e-9);
        c.reset();
        assert!((c.balance_credits() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn consecutive_runs_couple_through_credit_state() {
        // The paper's point, on the CPU axis: back-to-back experiments
        // slow down as hidden credits deplete.
        let mut c = CpuCredits::new(2, 0.3, 30.0, 576.0);
        let mut walls = Vec::new();
        for _ in 0..5 {
            walls.push(c.run(600.0));
            c.idle(60.0);
        }
        assert!(walls[0] < walls[4], "{walls:?}");
        // And resting long enough restores performance.
        c.idle(6.0 * 3600.0);
        let rested = c.run(600.0);
        assert!(rested < walls[4]);
    }
}
