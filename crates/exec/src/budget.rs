//! The campaign-wide retry accountant for supervised task running.
//!
//! A supervisor repairs a failed task by running it again, so the unit
//! of repair is an attempt: each task has a fixed attempt cap, and the
//! accountant caps how many retries the whole campaign may buy before
//! it must settle for partial results. It is a pure counter (no clocks,
//! no threads, no shared state), and the supervisor asks it for each
//! retry *in stable task order*, which keeps grant decisions — and
//! therefore results — independent of worker count.

/// A campaign-wide cap on retries.
///
/// Each retry of any task consumes one grant; once the budget is spent,
/// further requests are refused and the accountant remembers that it
/// refused ([`exhausted`](RetryAccountant::exhausted)), so the final
/// report can say that the campaign *wanted* more repair than it was
/// allowed. Grant order must be a pure function of task indices (ask in
/// stable order, never from racing workers) to keep results
/// worker-count invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryAccountant {
    budget: u32,
    used: u32,
    refused: bool,
}

impl RetryAccountant {
    /// An accountant allowing `budget` retries in total.
    pub fn new(budget: u32) -> RetryAccountant {
        RetryAccountant { budget, used: 0, refused: false }
    }

    /// Request one retry grant. `false` means the budget is spent; the
    /// refusal is recorded.
    pub fn try_grant(&mut self) -> bool {
        match self.used < self.budget {
            true => {
                self.used += 1;
                true
            }
            false => {
                self.refused = true;
                false
            }
        }
    }

    /// Replay `n` grants consumed by a previous (resumed) run. Grants
    /// beyond the budget mark the accountant refused rather than
    /// panicking — a journal written under a larger budget must degrade,
    /// not crash.
    pub fn replay(&mut self, n: u32) {
        let granted = n.min(self.budget - self.used);
        self.used += granted;
        if granted < n {
            self.refused = true;
        }
    }

    /// Retries granted so far.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// The total retry budget.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Retries still grantable.
    pub fn remaining(&self) -> u32 {
        self.budget - self.used
    }

    /// Whether any request has ever been refused — the campaign wanted
    /// more retries than the budget allowed.
    pub fn exhausted(&self) -> bool {
        self.refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_accountant_caps_and_remembers_refusal() {
        let mut a = RetryAccountant::new(2);
        assert!(a.try_grant());
        assert!(a.try_grant());
        assert!(!a.exhausted(), "no refusal yet");
        assert!(!a.try_grant());
        assert!(a.exhausted());
        assert_eq!((a.used(), a.budget(), a.remaining()), (2, 2, 0));
    }

    #[test]
    fn replay_restores_prior_consumption() {
        let mut a = RetryAccountant::new(5);
        a.replay(3);
        assert_eq!(a.used(), 3);
        assert!(!a.exhausted());
        assert!(a.try_grant());
        assert!(a.try_grant());
        assert!(!a.try_grant());
        assert!(a.exhausted());
    }

    #[test]
    fn replay_beyond_budget_degrades_instead_of_panicking() {
        let mut a = RetryAccountant::new(2);
        a.replay(7);
        assert_eq!(a.used(), 2);
        assert!(a.exhausted());
        assert!(!a.try_grant());
    }
}
