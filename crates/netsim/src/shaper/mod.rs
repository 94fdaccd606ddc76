//! Egress traffic shapers — the QoS mechanisms the paper uncovers.
//!
//! Section 3.3 identifies three very different provider policies:
//!
//! * Amazon EC2 uses a **token bucket** per VM: a budget spent at a high
//!   rate (e.g. 10 Gbps), throttled to a low rate (e.g. 1 Gbps) once the
//!   budget empties, replenished at ~1 Gbit of tokens per second
//!   ([`TokenBucket`]).
//! * Google Cloud enforces a **per-core bandwidth QoS** (2 Gbps/core)
//!   that favours long-running flows; short bursts pay a routing ramp-up
//!   through gateways and show a long lower tail ([`PerCoreQos`]).
//! * The private HPCCloud applies **no QoS**; variability comes from
//!   contention with other tenants and is well modelled as correlated
//!   stochastic noise ([`NoiseShaper`]).
//!
//! [`EmpiricalShaper`] replays a quantile-defined bandwidth distribution
//! (the Ballani et al. clouds A–H of Figure 2), re-sampling uniformly at
//! a fixed interval exactly as the paper's emulation methodology does.
//!
//! All shapers implement [`Shaper`], a *fluid* interface: the caller
//! advances simulated time in steps and asks how many bits may be sent.

mod empirical;
mod noise;
mod per_core;
mod token_bucket;

pub use empirical::{EmpiricalShaper, QuantileDist};
pub use noise::{NoiseConfig, NoiseShaper};
pub use per_core::{PerCoreQos, PerCoreQosConfig};
pub use token_bucket::TokenBucket;

/// A fluid egress shaper.
///
/// Implementations are deterministic given their construction seed. Time
/// is owned by the caller: `transmit` must be called with non-decreasing
/// `now` values and strictly positive `dt`; idle periods should still be
/// stepped (with `demand_bits == 0.0`) so that state such as token
/// refill advances.
pub trait Shaper {
    /// Attempt to transmit up to `demand_bits` during `[now, now + dt)`.
    ///
    /// Returns the number of bits actually admitted (`<= demand_bits`).
    fn transmit(&mut self, now: f64, dt: f64, demand_bits: f64) -> f64;

    /// Instantaneous rate ceiling in bits/second at time `now`.
    ///
    /// A planning hint (used e.g. by the max-min fairness solver); it
    /// must not mutate observable state.
    fn rate_hint(&self, now: f64) -> f64;

    /// Restore the initial state — the paper's "fresh set of VMs".
    fn reset(&mut self);

    /// Remaining token budget in bits, for shapers that have one.
    ///
    /// Lets instrumentation (Figures 15 and 18 plot per-node budgets)
    /// observe bucket state through a generic shaper handle. Non-bucket
    /// shapers return `None`.
    fn token_budget_bits(&self) -> Option<f64> {
        None
    }

    /// Advance through `steps` idle ticks of `dt` seconds starting at
    /// `now` — exactly equivalent to calling
    /// `transmit(now + k*dt, dt, 0.0)` for `k in 0..steps`.
    ///
    /// The default is that literal loop. Overrides may replace it with a
    /// closed form or an early exit, but must leave the shaper in the
    /// **bitwise-identical** state the loop would: every observable
    /// (later `transmit` grants, `rate_hint`, `token_budget_bits`) must
    /// match exactly. The equivalence is pinned per shaper by
    /// `netsim/tests/prop_fabric_fast.rs`.
    fn rest(&mut self, now: f64, dt: f64, steps: u64) {
        let mut t = now;
        for _ in 0..steps {
            self.transmit(t, dt, 0.0);
            t += dt;
        }
    }

    /// Closed-form next-event bound: a number of upcoming `transmit`
    /// calls of step `dt` that **cannot** change the bitwise value of
    /// [`Shaper::rate_hint`], no matter what demand each call carries.
    ///
    /// The event-driven fabric engine min-reduces this bound (together
    /// with fault-schedule transitions and the caller's step budget)
    /// into its per-window event horizon: while every node's hint is
    /// provably pinned, the cached max-min allocation is reused without
    /// even re-reading the hints. Returning a smaller value than
    /// possible costs only performance; returning a larger value than
    /// the true crossing distance would be a *correctness* bug, so
    /// conservative closed forms subtract guard slack. The default — no
    /// guarantee at all — is always safe: the engine then re-checks the
    /// hint bit pattern every step, which is exactly what the fast path
    /// does.
    fn hint_stable_steps(&self, now: f64, dt: f64) -> u64 {
        let _ = (now, dt);
        0
    }

    /// [`Shaper::hint_stable_steps`] sharpened with a demand promise:
    /// the bound may additionally assume that every one of those
    /// `transmit` calls carries **exactly** `demand_bits` of demand.
    ///
    /// The event-driven fabric engine can make that promise because the
    /// cached max-min allocation is constant within a window and every
    /// in-window flow demands `rate * dt` (completion crossings bound
    /// the window separately), so per-node demand is a per-step
    /// constant. Knowing the demand turns the token bucket's worst-case
    /// crossing bound into a sharp one: under sustained demand at or
    /// above the refill rate the budget is non-increasing, so a
    /// depleted bucket is *pinned* in its throttled regime instead of
    /// being one idle tick away from re-crossing the hint threshold.
    /// The default ignores the promise and delegates to the
    /// demand-agnostic bound, which is always safe.
    fn hint_stable_steps_busy(&self, now: f64, dt: f64, demand_bits: f64) -> u64 {
        let _ = demand_bits;
        self.hint_stable_steps(now, dt)
    }
}

/// Advance a clock by `steps` ticks of `dt` seconds, one addition per
/// tick — **never** the closed form `now + steps as f64 * dt`, which
/// rounds differently.
///
/// This is the clock idiom of the event engine's idle path, which runs
/// `Fabric::step`'s empty step and the `Fabric::advance` idle jump:
/// batched engines may skip per-step *work*, but the clock value they
/// leave behind must be bitwise identical to the stepped loop's.
pub fn advance_clock(now: f64, dt: f64, steps: u64) -> f64 {
    let mut t = now;
    for _ in 0..steps {
        t += dt;
    }
    t
}

/// Unconditioned constant-rate link (e.g. a physical NIC cap).
#[derive(Debug, Clone, Copy)]
pub struct StaticShaper {
    rate_bps: f64,
}

impl StaticShaper {
    /// A shaper that always admits `rate_bps`.
    pub fn new(rate_bps: f64) -> Self {
        assert!(rate_bps >= 0.0, "rate must be non-negative");
        StaticShaper { rate_bps }
    }
}

impl Shaper for StaticShaper {
    fn transmit(&mut self, _now: f64, dt: f64, demand_bits: f64) -> f64 {
        demand_bits.min(self.rate_bps * dt)
    }

    fn rate_hint(&self, _now: f64) -> f64 {
        self.rate_bps
    }

    fn reset(&mut self) {}

    fn rest(&mut self, _now: f64, _dt: f64, _steps: u64) {
        // Stateless: an idle transmit observes nothing and changes
        // nothing, so any number of them is a no-op.
    }

    fn hint_stable_steps(&self, _now: f64, _dt: f64) -> u64 {
        // The hint is a construction-time constant.
        u64::MAX
    }
}

/// Series composition: traffic must pass both shapers (e.g. a token
/// bucket behind a 10 Gbps physical port). The admitted volume is the
/// minimum of the two; both shapers observe the admitted traffic.
pub struct MinShaper<A, B> {
    a: A,
    b: B,
}

impl<A: Shaper, B: Shaper> MinShaper<A, B> {
    /// Compose two shapers in series.
    pub fn new(a: A, b: B) -> Self {
        MinShaper { a, b }
    }
}

impl<A: Shaper, B: Shaper> Shaper for MinShaper<A, B> {
    fn transmit(&mut self, now: f64, dt: f64, demand_bits: f64) -> f64 {
        // Ask the tighter stage first with the full demand, then pass the
        // admitted volume through the other stage.
        let granted_a = self.a.transmit(now, dt, demand_bits);
        self.b.transmit(now, dt, granted_a)
    }

    fn rate_hint(&self, now: f64) -> f64 {
        self.a.rate_hint(now).min(self.b.rate_hint(now))
    }

    fn reset(&mut self) {
        self.a.reset();
        self.b.reset();
    }

    fn token_budget_bits(&self) -> Option<f64> {
        self.a.token_budget_bits().or_else(|| self.b.token_budget_bits())
    }

    fn rest(&mut self, now: f64, dt: f64, steps: u64) {
        // The loop would call a.transmit(t, dt, 0.0) then
        // b.transmit(t, dt, granted_a) each tick; grants are bounded by
        // demand, so granted_a == 0.0 and both stages see pure idle
        // ticks. Resting each stage independently is therefore exact.
        self.a.rest(now, dt, steps);
        self.b.rest(now, dt, steps);
    }

    fn hint_stable_steps(&self, now: f64, dt: f64) -> u64 {
        // The composed hint is min(a, b): if both operands are bitwise
        // pinned for k steps, so is their minimum.
        self.a
            .hint_stable_steps(now, dt)
            .min(self.b.hint_stable_steps(now, dt))
    }

    fn hint_stable_steps_busy(&self, now: f64, dt: f64, demand_bits: f64) -> u64 {
        // Stage `a` sees the caller's demand verbatim; stage `b` sees
        // whatever `a` admits, which varies per step, so only the
        // demand-agnostic bound is sound for it.
        self.a
            .hint_stable_steps_busy(now, dt, demand_bits)
            .min(self.b.hint_stable_steps(now, dt))
    }
}

impl Shaper for Box<dyn Shaper + Send> {
    fn transmit(&mut self, now: f64, dt: f64, demand_bits: f64) -> f64 {
        (**self).transmit(now, dt, demand_bits)
    }

    fn rate_hint(&self, now: f64) -> f64 {
        (**self).rate_hint(now)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn token_budget_bits(&self) -> Option<f64> {
        (**self).token_budget_bits()
    }

    fn rest(&mut self, now: f64, dt: f64, steps: u64) {
        (**self).rest(now, dt, steps)
    }

    fn hint_stable_steps(&self, now: f64, dt: f64) -> u64 {
        (**self).hint_stable_steps(now, dt)
    }

    fn hint_stable_steps_busy(&self, now: f64, dt: f64, demand_bits: f64) -> u64 {
        (**self).hint_stable_steps_busy(now, dt, demand_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::gbps;

    #[test]
    fn static_shaper_caps_demand() {
        let mut s = StaticShaper::new(gbps(10.0));
        assert_eq!(s.transmit(0.0, 1.0, gbps(4.0)), gbps(4.0));
        assert_eq!(s.transmit(1.0, 1.0, gbps(40.0)), gbps(10.0));
        assert_eq!(s.rate_hint(0.0), gbps(10.0));
    }

    #[test]
    fn min_shaper_takes_tighter_stage() {
        let mut s = MinShaper::new(StaticShaper::new(gbps(10.0)), StaticShaper::new(gbps(4.0)));
        assert_eq!(s.transmit(0.0, 1.0, f64::INFINITY), gbps(4.0));
        assert_eq!(s.rate_hint(0.0), gbps(4.0));
    }

    #[test]
    fn min_shaper_asymmetric_inner_rests() {
        use super::TokenBucket;
        use crate::units::gbit;
        // Two token-bucket stages with different capacities and idle
        // refills: their idle recurrences reach the capacity fixed
        // point after *different* step counts (~5 s vs ~180 s here).
        // Stage-wise rest must match the composed idle loop bitwise —
        // including the early-exiting stage sitting at its cap while
        // the slow stage keeps refilling.
        let mk = || {
            MinShaper::new(
                TokenBucket::sigma_rho(gbit(20.0), gbps(1.0), gbps(10.0))
                    .with_idle_refill(gbps(4.0)),
                TokenBucket::sigma_rho(gbit(90.0), gbps(2.0), gbps(9.0))
                    .with_idle_refill(gbps(0.5)),
            )
        };
        let (mut fast, mut slow) = (mk(), mk());
        for s in [&mut fast, &mut slow] {
            s.transmit(0.0, 2.0, f64::INFINITY); // drain both stages
        }
        // 400 ticks of 0.1 s: stage a caps out early, stage b does not.
        fast.rest(2.0, 0.1, 400);
        let mut t = 2.0;
        for _ in 0..400 {
            slow.transmit(t, 0.1, 0.0);
            t += 0.1;
        }
        // token_budget_bits surfaces stage a; stage b is pinned through
        // the grants it admits over a long follow-up burst.
        assert_eq!(
            fast.token_budget_bits().unwrap().to_bits(),
            slow.token_budget_bits().unwrap().to_bits(),
            "stage-a budget diverged"
        );
        for k in 0..50 {
            let tt = t + k as f64 * 0.1;
            let gf = fast.transmit(tt, 0.1, f64::INFINITY);
            let gs = slow.transmit(tt, 0.1, f64::INFINITY);
            assert_eq!(gf.to_bits(), gs.to_bits(), "burst step {k} diverged");
        }
    }

    #[test]
    fn rest_and_advance_clock_equal_the_idle_loop() {
        // The resting idiom of the fabric's idle jump:
        // `Shaper::rest` plus `advance_clock` leave the shaper and the
        // clock in exactly the state the explicit idle-transmit loop
        // produces, compared bitwise, not within a tolerance.
        use super::TokenBucket;
        let mut fast = TokenBucket::sigma_rho(100e9, 1e9, 10e9);
        let mut slow = fast.clone();
        // Leave both in a mid-depletion state.
        for s in [&mut fast, &mut slow] {
            let mut t = 0.0;
            for _ in 0..70 {
                s.transmit(t, 0.1, f64::INFINITY);
                t += 0.1;
            }
        }
        let now = 7.0;
        let steps = (33.7f64 / 0.1).round() as u64;
        fast.rest(now, 0.1, steps);
        let t_fast = advance_clock(now, 0.1, steps);
        let mut t_slow = now;
        for _ in 0..steps {
            slow.transmit(t_slow, 0.1, 0.0);
            t_slow += 0.1;
        }
        assert_eq!(t_fast.to_bits(), t_slow.to_bits());
        assert_eq!(fast.budget_bits().to_bits(), slow.budget_bits().to_bits());
        // Subsequent traffic is also identical.
        let g_fast = fast.transmit(t_fast, 0.5, f64::INFINITY);
        let g_slow = slow.transmit(t_slow, 0.5, f64::INFINITY);
        assert_eq!(g_fast.to_bits(), g_slow.to_bits());
    }

    #[test]
    fn boxed_shaper_dispatch() {
        let mut s: Box<dyn Shaper + Send> = Box::new(StaticShaper::new(gbps(2.0)));
        assert_eq!(s.transmit(0.0, 0.5, f64::INFINITY), gbps(1.0));
        s.reset();
        assert_eq!(s.rate_hint(0.0), gbps(2.0));
    }
}
