//! The EC2-style token-bucket shaper (paper Section 3.3).
//!
//! Operation, per the paper's reverse engineering:
//!
//! * A VM starts with a **budget** of tokens (bits). While tokens
//!   remain, transmission is admitted at the **high rate** (10 Gbps on
//!   c5.xlarge) — the bucket's *peak rate*.
//! * Every transmitted bit consumes a token. Tokens replenish at the
//!   **refill rate** — "approximately 1 Gbit token per second" on
//!   c5.xlarge.
//! * Once the bucket is empty, throughput collapses to the refill rate:
//!   this *is* the paper's **low rate** ("the QoS is limited to a low
//!   rate, e.g., 1 Gbps"), and it explains the paper's observation that
//!   "transmission at the capped rate is sufficient to keep it from
//!   filling back up" — the refill is consumed as it arrives, so the
//!   bucket only recovers while the network rests.
//!
//! This is the classic (σ, ρ, peak) token bucket: burst budget σ,
//! sustained rate ρ (= low rate), peak rate `high`. With the c5.xlarge
//! defaults a full-speed stream empties a 5000 Gbit budget in
//! `5000 / (10 − 1) ≈ 555 s` — matching the ~10 minutes of full-rate
//! transfer the paper observes before throttling (Figure 7) and the
//! time-to-empty boxplots of Figure 11.

use super::Shaper;

/// EC2-style token-bucket traffic shaper. See the module docs.
///
/// ```
/// use netsim::shaper::{Shaper, TokenBucket};
/// use netsim::units::{gbit, gbps};
///
/// // c5.xlarge: 5000 Gbit budget, 10 Gbps peak, 1 Gbps sustained.
/// let mut tb = TokenBucket::sigma_rho(gbit(5000.0), gbps(1.0), gbps(10.0));
/// assert!((tb.time_to_empty_full_speed() - 555.5).abs() < 1.0);
///
/// // A fresh VM bursts at the peak rate...
/// assert_eq!(tb.transmit(0.0, 1.0, f64::INFINITY), gbps(10.0));
/// // ...and an empty bucket sustains only the refill rate.
/// tb.set_budget_bits(0.0);
/// let granted = tb.transmit(1.0, 1.0, f64::INFINITY);
/// assert!((granted - gbps(1.0)).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Maximum token budget in bits.
    capacity_bits: f64,
    /// Token budget a fresh VM starts with, in bits.
    initial_budget_bits: f64,
    /// Peak admission rate while tokens remain, bits/s.
    high_rate_bps: f64,
    /// Token replenishment rate, bits/s. Equals the sustained (low)
    /// throughput once the bucket is empty.
    refill_bps: f64,
    /// Replenishment rate while the VM is fully idle, bits/s. Defaults
    /// to `refill_bps`; some providers refill resting VMs faster.
    idle_refill_bps: f64,
    /// Current token budget in bits.
    budget_bits: f64,
}

impl TokenBucket {
    /// Create a bucket.
    ///
    /// * `initial_budget_bits` — tokens available at t=0 (≤ capacity).
    /// * `capacity_bits` — maximum tokens the bucket can hold.
    /// * `high_rate_bps` — peak rate while tokens remain.
    /// * `low_rate_bps` — sustained rate once empty (= token refill).
    /// * `refill_bps` — kept as an explicit parameter for clarity; the
    ///   throttled steady-state throughput equals this value.
    pub fn new(
        initial_budget_bits: f64,
        capacity_bits: f64,
        high_rate_bps: f64,
        low_rate_bps: f64,
        refill_bps: f64,
    ) -> Self {
        assert!(
            initial_budget_bits >= 0.0 && capacity_bits >= 0.0,
            "budget and capacity must be non-negative"
        );
        assert!(high_rate_bps >= low_rate_bps, "high rate must be >= low rate");
        assert!(
            low_rate_bps >= 0.0 && refill_bps >= 0.0,
            "rates must be non-negative"
        );
        assert!(
            (low_rate_bps - refill_bps).abs() <= 0.5 * low_rate_bps.max(refill_bps).max(1.0),
            "low rate and refill rate describe the same mechanism and must be close"
        );
        TokenBucket {
            capacity_bits,
            initial_budget_bits: initial_budget_bits.min(capacity_bits),
            high_rate_bps,
            refill_bps,
            idle_refill_bps: refill_bps,
            budget_bits: initial_budget_bits.min(capacity_bits),
        }
    }

    /// Simple constructor: (σ, ρ, peak) with capacity = initial budget.
    pub fn sigma_rho(budget_bits: f64, low_rate_bps: f64, high_rate_bps: f64) -> Self {
        TokenBucket::new(
            budget_bits,
            budget_bits,
            high_rate_bps,
            low_rate_bps,
            low_rate_bps,
        )
    }

    /// Set a faster refill rate applied only while the VM is idle.
    pub fn with_idle_refill(mut self, idle_refill_bps: f64) -> Self {
        assert!(idle_refill_bps >= 0.0, "idle refill rate must be non-negative");
        self.idle_refill_bps = idle_refill_bps;
        self
    }

    /// Remaining token budget in bits.
    pub fn budget_bits(&self) -> f64 {
        self.budget_bits
    }

    /// Override the current budget (used to model "the system is left in
    /// an unknown state" — Section 4.2's partially-depleted buckets).
    pub fn set_budget_bits(&mut self, bits: f64) {
        self.budget_bits = bits.clamp(0.0, self.capacity_bits);
    }

    /// The peak (tokens available) rate, bits/s.
    pub fn high_rate_bps(&self) -> f64 {
        self.high_rate_bps
    }

    /// The sustained (bucket empty) rate, bits/s.
    pub fn low_rate_bps(&self) -> f64 {
        self.refill_bps
    }

    /// Token refill rate, bits/s.
    pub fn refill_bps(&self) -> f64 {
        self.refill_bps
    }

    /// Maximum token budget, bits.
    pub fn capacity_bits(&self) -> f64 {
        self.capacity_bits
    }

    /// Predicted seconds of full-speed transfer until the bucket empties
    /// from the *current* budget (infinite if the bucket never drains).
    pub fn time_to_empty_full_speed(&self) -> f64 {
        let drain = self.high_rate_bps - self.refill_bps;
        if drain <= 0.0 {
            f64::INFINITY
        } else {
            self.budget_bits / drain
        }
    }
}

impl Shaper for TokenBucket {
    #[inline]
    fn transmit(&mut self, _now: f64, dt: f64, demand_bits: f64) -> f64 {
        debug_assert!(dt > 0.0);
        let refill = if demand_bits <= 0.0 {
            self.idle_refill_bps
        } else {
            self.refill_bps
        };
        self.budget_bits = (self.budget_bits + refill * dt).min(self.capacity_bits);
        if demand_bits <= 0.0 {
            return 0.0;
        }
        // Every bit spends a token; the peak rate caps the burst.
        let granted = demand_bits
            .min(self.high_rate_bps * dt)
            .min(self.budget_bits);
        self.budget_bits -= granted;
        granted
    }

    #[inline]
    fn rate_hint(&self, _now: f64) -> f64 {
        // "High" while the budget can sustain the peak rate for at least
        // a brief burst; otherwise the sustained (refill) rate.
        if self.budget_bits > self.high_rate_bps * 0.05 {
            self.high_rate_bps
        } else {
            self.refill_bps
        }
    }

    fn reset(&mut self) {
        self.budget_bits = self.initial_budget_bits;
    }

    fn token_budget_bits(&self) -> Option<f64> {
        Some(self.budget_bits)
    }

    fn hint_stable_steps(&self, _now: f64, dt: f64) -> u64 {
        // The hint flips exactly when the budget crosses the burst
        // threshold `high_rate * 0.05` (see `rate_hint`). One transmit
        // moves the budget by at most `max(high, refill, idle) * dt`
        // bits in either direction: a grant removes at most
        // `high_rate * dt` (the peak-rate cap applies before the budget
        // cap) and a refill adds at most `max(refill, idle) * dt` (the
        // capacity cap only shrinks the upward move). So the crossing
        // needs at least `distance / max_move` steps; the fixed-point
        // division is exact on the operands the recurrence actually
        // uses, and the `- 1` guard absorbs accumulated rounding of the
        // real-arithmetic bound.
        if self.high_rate_bps.to_bits() == self.refill_bps.to_bits() {
            // Degenerate bucket: both hint branches return the same
            // bit pattern, so no crossing is ever observable.
            return u64::MAX;
        }
        let max_move = self.high_rate_bps.max(self.refill_bps).max(self.idle_refill_bps) * dt;
        if max_move <= 0.0 {
            return u64::MAX;
        }
        let distance = (self.budget_bits - self.high_rate_bps * 0.05).abs();
        ((distance / max_move).floor() as u64).saturating_sub(1)
    }

    fn hint_stable_steps_busy(&self, now: f64, dt: f64, demand_bits: f64) -> u64 {
        // With a known constant per-step demand the budget recurrence
        // becomes monotone, and the worst-case `max_move` bound of
        // `hint_stable_steps` sharpens to the actual drift direction:
        //
        // * `demand >= refill*dt` — a grant consumes at least the
        //   refill, so the budget is non-increasing. Below the
        //   threshold it is *pinned* in the throttled regime (this is
        //   the depleted fig19 steady state); above, only the downward
        //   crossing at rate ≤ `(high - refill)*dt` per step matters.
        // * `demand < refill*dt` (incl. idle, which refills at the idle
        //   rate) — the grant equals the demand, so the budget rises by
        //   exactly `refill*dt - demand` per step: moving away from the
        //   threshold when above it, toward it at a known rate when
        //   below.
        //
        // Monotonicity is a real-arithmetic argument; in floating point
        // each step may still drift ~1 ulp the "wrong" way, so every
        // branch also bounds the window by `distance / drift` with a
        // per-step drift allowance ~1e3 ulp — astronomically larger
        // than the true rounding error, yet still yielding multi-
        // billion-step windows. The `- 2` guards absorb the rounding of
        // the bound computation itself.
        //
        // One wrinkle both "above" branches must carry: when the budget
        // sits within one refill increment of capacity, the capacity cap
        // truncates the refill, so the first step can drop the budget by
        // up to `refill*dt` more than the steady recurrence would (the
        // refill is swallowed while the grant is not). The truncation
        // has a fixed point — after one capped step the budget is at
        // least `refill*dt` below capacity and the cap never binds again
        // within the regime — so a single `refill_step` of extra
        // distance slack makes the bounds sound.
        if self.high_rate_bps.to_bits() == self.refill_bps.to_bits() {
            return u64::MAX; // both hint branches are the same bits
        }
        if self.refill_bps > self.high_rate_bps || self.capacity_bits < self.refill_bps * dt {
            // Pathological configurations (refill above the peak rate,
            // or a capacity smaller than one refill increment, where
            // the capacity cap can truncate a sub-refill grant) that
            // the monotonicity argument does not cover; fall back to
            // the worst-case bound.
            return self.hint_stable_steps(now, dt);
        }
        let threshold = self.high_rate_bps * 0.05;
        let refill_step = self.refill_bps * dt;
        let drift = (self.budget_bits.abs() + refill_step) * 1e-12 + 1e-9;
        let steps = |distance: f64, per_step: f64| -> u64 {
            ((distance / per_step).floor() as u64).saturating_sub(2)
        };
        if demand_bits > 0.0 && demand_bits >= refill_step {
            if self.budget_bits <= threshold {
                // Pinned below: only FP drift can cross upward.
                steps(threshold - self.budget_bits, drift)
            } else {
                // Falling at ≤ (high-refill)*dt per step, plus the
                // one-time cap-truncation drop of ≤ refill*dt.
                let max_down = (self.high_rate_bps - self.refill_bps) * dt;
                steps(
                    self.budget_bits - threshold - refill_step,
                    max_down.max(drift),
                )
            }
        } else {
            // The grant equals the demand (budget and peak both exceed
            // a sub-refill demand), so the budget trajectory never goes
            // below `min(budget, capacity - demand)` — rising until the
            // cap's fixed point `capacity - demand`, then parked there.
            let served = demand_bits.max(0.0);
            if self.budget_bits > threshold {
                // Above and staying at or above the trajectory floor:
                // only FP drift can cross downward.
                let floor = self.budget_bits.min(self.capacity_bits - served);
                steps(floor - threshold, drift)
            } else {
                let up = if demand_bits <= 0.0 {
                    self.idle_refill_bps * dt
                } else {
                    refill_step - demand_bits
                };
                steps(threshold - self.budget_bits, up + drift)
            }
        }
    }

    fn rest(&mut self, _now: f64, _dt: f64, steps: u64) {
        // Each idle tick performs budget = (budget + idle_refill*dt)
        // .min(capacity) and nothing else. The iteration is monotone
        // with a fixed point (the capacity cap, or immediately when the
        // refill increment is zero), so we run the same scalar update
        // and exit as soon as it stops moving — bitwise identical to
        // the full loop, which would keep producing the same value.
        let x = self.idle_refill_bps * _dt;
        for _ in 0..steps {
            let next = (self.budget_bits + x).min(self.capacity_bits);
            if next == self.budget_bits {
                break;
            }
            self.budget_bits = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{gbit, gbps};

    fn c5_xlarge() -> TokenBucket {
        TokenBucket::sigma_rho(gbit(5000.0), gbps(1.0), gbps(10.0))
    }

    /// Step a bucket at full demand for `secs`, returning total granted bits.
    fn drive(tb: &mut TokenBucket, start: f64, secs: f64, dt: f64) -> f64 {
        let steps = (secs / dt).round() as usize;
        let mut total = 0.0;
        for i in 0..steps {
            total += tb.transmit(start + i as f64 * dt, dt, f64::INFINITY);
        }
        total
    }

    #[test]
    fn full_speed_until_depletion_then_throttled() {
        let mut tb = c5_xlarge();
        // First 100 s: full 10 Gbps.
        let bits = drive(&mut tb, 0.0, 100.0, 0.1);
        assert!((bits - gbps(10.0) * 100.0).abs() / bits < 1e-9);

        // Drain the rest and verify the throttled steady state is the
        // refill rate (~1 Gbps), independent of the step size.
        drive(&mut tb, 100.0, 500.0, 0.1);
        let bits = drive(&mut tb, 600.0, 100.0, 0.1);
        let rate = bits / 100.0;
        assert!(
            (rate - gbps(1.0)).abs() < gbps(0.05),
            "throttled rate {rate}"
        );
        // Same steady state with a very different step.
        let bits = drive(&mut tb, 700.0, 100.0, 0.017);
        let rate = bits / 100.0;
        assert!(
            (rate - gbps(1.0)).abs() < gbps(0.05),
            "throttled rate (fine dt) {rate}"
        );
    }

    #[test]
    fn depletion_time_matches_paper_ten_minutes() {
        let tb = c5_xlarge();
        let tte = tb.time_to_empty_full_speed();
        // ~555 s ≈ "about 10 minutes of continuous transfer".
        assert!((tte - 555.5).abs() < 1.0, "tte {tte}");
        // And the simulated bucket actually depletes then.
        let mut tb = c5_xlarge();
        drive(&mut tb, 0.0, 550.0, 0.1);
        assert!(tb.rate_hint(550.0) == gbps(10.0));
        drive(&mut tb, 550.0, 10.0, 0.1);
        assert!(tb.rate_hint(560.0) == gbps(1.0));
    }

    #[test]
    fn rest_zero_steps_and_zero_dt_are_noops() {
        // `steps == 0` must not move the budget at all, and `dt == 0`
        // must be the bitwise fixed point of the idle recurrence
        // (`budget + 0` then the capacity cap) no matter how many steps
        // the window nominally spans.
        let mut tb = c5_xlarge();
        tb.set_budget_bits(gbit(7.0));
        let before = tb.budget_bits().to_bits();
        tb.rest(0.0, 0.1, 0);
        assert_eq!(tb.budget_bits().to_bits(), before, "zero steps moved the budget");
        // `dt == 0`: the refill increment is exactly 0.0, so the idle
        // recurrence is at its fixed point immediately (`transmit`
        // itself rejects dt == 0, so the closed form is the only code
        // that can see this window shape, when a caller rests a shaper
        // directly).
        tb.rest(0.0, 0.0, 1_000);
        assert_eq!(tb.budget_bits().to_bits(), before, "zero dt moved the budget");
    }

    #[test]
    fn rest_spanning_exactly_one_refill_boundary() {
        // Budget placed so the capacity cap is reached *exactly* at a
        // step boundary (all quantities exact in f64): the closed
        // form's early exit must neither overshoot the cap nor stop a
        // step short, and a window extending past the boundary must sit
        // at the fixed point for the remainder.
        let dt = 0.1;
        let cap = gbit(50.0);
        let refill_step = gbps(1.0) * dt; // 1e8, exact
        let mk = || {
            let mut tb = TokenBucket::sigma_rho(cap, gbps(1.0), gbps(10.0));
            tb.set_budget_bits(cap - 10.0 * refill_step);
            tb
        };
        // Exactly at the boundary: 10 idle steps hit the cap bitwise.
        let mut fast = mk();
        fast.rest(0.0, dt, 10);
        assert_eq!(fast.budget_bits().to_bits(), cap.to_bits());
        // Spanning the boundary: 25 steps, fixed point after 10.
        let (mut fast, mut slow) = (mk(), mk());
        fast.rest(0.0, dt, 25);
        for i in 0..25 {
            slow.transmit(i as f64 * dt, dt, 0.0);
        }
        assert_eq!(fast.budget_bits().to_bits(), slow.budget_bits().to_bits());
        assert_eq!(fast.budget_bits().to_bits(), cap.to_bits());
    }

    #[test]
    fn resting_refills_budget() {
        let mut tb = c5_xlarge();
        tb.set_budget_bits(0.0);
        // Rest 60 s (zero demand steps).
        for i in 0..600 {
            tb.transmit(i as f64 * 0.1, 0.1, 0.0);
        }
        assert!((tb.budget_bits() - gbit(60.0)).abs() < gbit(0.01));
    }

    #[test]
    fn low_rate_traffic_prevents_refill() {
        let mut tb = c5_xlarge();
        tb.set_budget_bits(0.0);
        // Continuous full demand for 100 s: tokens consumed on arrival.
        drive(&mut tb, 0.0, 100.0, 0.1);
        assert!(tb.budget_bits() < gbit(0.2), "budget {}", tb.budget_bits());
    }

    #[test]
    fn duty_cycle_burst_starts_high_then_drops() {
        // Figure 14: with a nearly-empty bucket, each 10 s burst starts
        // at 10 Gbps and collapses to ~1 Gbps once the 30 s of accrued
        // tokens (30 Gbit) are spent, i.e. after ~30/9 ≈ 3.3 s.
        let mut tb = c5_xlarge();
        tb.set_budget_bits(0.0);
        // Rest 30 s.
        for i in 0..300 {
            tb.transmit(i as f64 * 0.1, 0.1, 0.0);
        }
        // Burst 10 s, recording per-second throughput.
        let mut per_second = Vec::new();
        for s in 0..10 {
            let bits = drive(&mut tb, 30.0 + s as f64, 1.0, 0.1);
            per_second.push(bits);
        }
        assert!(per_second[0] > gbps(9.9), "first second {}", per_second[0]);
        assert!(per_second[1] > gbps(9.9));
        assert!(per_second[2] > gbps(9.9)); // depletion during 4th second
        assert!(per_second[4] < gbps(1.5), "fifth second {}", per_second[4]);
        assert!(per_second[9] <= gbps(1.01));
    }

    #[test]
    fn demand_below_low_rate_is_fully_served() {
        let mut tb = c5_xlarge();
        tb.set_budget_bits(0.0);
        let granted = tb.transmit(0.0, 1.0, gbps(0.5));
        assert!((granted - gbps(0.5)).abs() < 1.0);
    }

    #[test]
    fn partial_demand_drains_at_demand_minus_refill() {
        let mut tb = c5_xlarge();
        drive_at(&mut tb, gbps(3.0), 10.0, 0.1);
        // Net drain = (3 − 1) Gbps × 10 s = 20 Gbit, minus the first
        // step's refill which is lost to the capacity cap.
        let expected = gbit(5000.0) - gbit(20.0) - gbit(0.1);
        assert!(
            (tb.budget_bits() - expected).abs() < gbit(0.01),
            "budget {}",
            tb.budget_bits()
        );
    }

    fn drive_at(tb: &mut TokenBucket, rate: f64, secs: f64, dt: f64) {
        let steps = (secs / dt).round() as usize;
        for i in 0..steps {
            tb.transmit(i as f64 * dt, dt, rate * dt);
        }
    }

    #[test]
    fn rate_hint_tracks_bucket_state() {
        let mut tb = c5_xlarge();
        assert_eq!(tb.rate_hint(0.0), gbps(10.0));
        tb.set_budget_bits(0.0);
        assert_eq!(tb.rate_hint(0.0), gbps(1.0));
    }

    #[test]
    fn reset_restores_initial_budget() {
        let mut tb = c5_xlarge();
        drive(&mut tb, 0.0, 1000.0, 0.1);
        assert!(tb.budget_bits() < gbit(5000.0));
        tb.reset();
        assert_eq!(tb.budget_bits(), gbit(5000.0));
    }

    #[test]
    fn budget_never_exceeds_capacity() {
        let mut tb = TokenBucket::new(gbit(10.0), gbit(20.0), gbps(10.0), gbps(5.0), gbps(5.0));
        for i in 0..1000 {
            tb.transmit(i as f64 * 0.1, 0.1, 0.0);
        }
        assert!((tb.budget_bits() - gbit(20.0)).abs() < 1.0);
    }

    #[test]
    fn idle_refill_can_be_faster() {
        let mut tb = c5_xlarge().with_idle_refill(gbps(10.0));
        tb.set_budget_bits(0.0);
        for i in 0..100 {
            tb.transmit(i as f64 * 0.1, 0.1, 0.0);
        }
        assert!((tb.budget_bits() - gbit(100.0)).abs() < gbit(0.01));
    }

    #[test]
    fn throttled_throughput_is_step_size_invariant() {
        for dt in [0.01, 0.1, 1.0] {
            let mut tb = c5_xlarge();
            tb.set_budget_bits(0.0);
            let bits = drive(&mut tb, 0.0, 50.0, dt);
            assert!(
                (bits / 50.0 - gbps(1.0)).abs() < gbps(0.03),
                "dt={dt} rate={}",
                bits / 50.0
            );
        }
    }
}
