//! The GCE-style per-core bandwidth QoS shaper.
//!
//! Google Cloud "enforces network bandwidth QoS by guaranteeing a
//! per-core amount of bandwidth" (2 Gbps per vCPU at the time of the
//! study). The paper's measurements (Figure 5) show the *opposite* of
//! EC2's pattern dependence: **longer streams achieve higher and more
//! stable bandwidth**, while short bursts (the 5-30 pattern) show a long
//! lower tail. The paper attributes this to Andromeda's virtual-network
//! design, "where idle flows use dedicated gateways for routing through
//! the virtual network": a flow that has been idle must re-establish its
//! fast path, losing throughput at the start of each burst.
//!
//! [`PerCoreQos`] models this as:
//!
//! * a hard ceiling `per_core_bps * cores`;
//! * a small efficiency factor (measured 8-core medians sit near
//!   15.5 Gbps against the advertised 16 Gbps);
//! * a per-burst *ramp-up penalty*: at the start of a burst the flow
//!   loses a random fraction of throughput that decays with burst age
//!   (time constant ~1.5 s). The penalty magnitude is heavy-tailed, so
//!   occasional bursts are much slower — producing the long lower
//!   whisker of the 5-30 box in Figure 5;
//! * correlated background noise (AR(1)) shared by all patterns.

use super::Shaper;
use crate::rng::{Ar1, SimRng};

/// Configuration for [`PerCoreQos`].
#[derive(Debug, Clone)]
pub struct PerCoreQosConfig {
    /// Guaranteed bandwidth per core, bits/s (GCE: 2 Gbps).
    pub per_core_bps: f64,
    /// Number of vCPUs.
    pub cores: u32,
    /// Fraction of the advertised ceiling achievable in steady state
    /// (captures virtualization overhead; measured ≈ 0.97).
    pub efficiency: f64,
    /// Mean fractional throughput lost at burst start (ramp-up penalty).
    pub ramp_penalty_mean: f64,
    /// Ramp-up decay time constant in seconds.
    pub ramp_tau_s: f64,
    /// Stationary std-dev of the multiplicative background noise.
    pub noise_sigma: f64,
    /// Lag-1 autocorrelation of the background noise per step.
    pub noise_phi: f64,
}

impl PerCoreQosConfig {
    /// The paper's measured 8-core GCE instance (advertised 16 Gbps,
    /// observed 13–15.8 Gbps depending on the access pattern).
    pub fn gce(cores: u32) -> Self {
        PerCoreQosConfig {
            per_core_bps: 2e9,
            cores,
            efficiency: 0.97,
            ramp_penalty_mean: 0.10,
            ramp_tau_s: 2.0,
            noise_sigma: 0.008,
            noise_phi: 0.85,
        }
    }
}

/// A ramp loss below this is latched to exactly `0.0` for the rest of
/// the burst: `2^-60`, far below the `2^-54` under which
/// `1.0 - ramp_loss` rounds to `1.0` (DESIGN.md, "Stream hot path:
/// exact shortcuts").
const RAMP_SETTLED: f64 = 1.0 / (1u64 << 60) as f64;

/// GCE-style per-core QoS shaper. See the module docs.
///
/// A burst's ramp loss `burst_penalty * exp(-age / tau)` decays towards
/// zero; once it drops below `2^-60` the shaper latches it to `0.0` and
/// skips the `exp` until the next burst starts. The grants are bitwise
/// those of the unlatched formula, because burst age never decreases
/// under [`Shaper`]'s non-decreasing `now` contract and every later
/// loss stays far below the `2^-54` at which `1.0 - loss == 1.0`.
pub struct PerCoreQos {
    cfg: PerCoreQosConfig,
    rng: SimRng,
    noise: Ar1,
    /// Time the current burst began, or `None` while idle.
    burst_start: Option<f64>,
    /// Sampled ramp penalty for the current burst (fraction in [0, 1)).
    burst_penalty: f64,
    /// Set once the current burst's ramp loss fell below
    /// [`RAMP_SETTLED`]; cleared at burst start and by `reset`.
    ramp_settled: bool,
    /// Construction seed, kept for `reset`.
    seed: u64,
}

impl PerCoreQos {
    /// Create a shaper with the given configuration and seed.
    pub fn new(cfg: PerCoreQosConfig, seed: u64) -> Self {
        debug_assert!(
            cfg.ramp_tau_s > 0.0 && cfg.ramp_penalty_mean >= 0.0,
            "the ramp latch needs a decaying, non-negative ramp loss"
        );
        let mut rng = SimRng::new(seed);
        let noise = Ar1::new(cfg.noise_phi, cfg.noise_sigma, &mut rng);
        PerCoreQos {
            cfg,
            rng,
            noise,
            burst_start: None,
            burst_penalty: 0.0,
            ramp_settled: false,
            seed,
        }
    }

    /// Advertised ceiling: `per_core_bps * cores`.
    #[inline]
    pub fn advertised_bps(&self) -> f64 {
        self.cfg.per_core_bps * self.cfg.cores as f64
    }

    /// Sample a new per-burst ramp penalty: mostly small, occasionally
    /// large (heavy-tailed), clipped below 60%.
    fn sample_penalty(&mut self) -> f64 {
        let base = self.cfg.ramp_penalty_mean;
        // Pareto(x_min = base/2, alpha = 1.6) has mean ≈ 1.33 * base;
        // the heavy tail produces the occasional much-slower burst that
        // forms the long lower whisker of Figure 5's 5-30 box.
        let p = self.rng.pareto(base / 2.0, 1.6);
        p.min(0.8)
    }

    #[inline]
    fn current_multiplier(&mut self, now: f64) -> f64 {
        let ramp_loss = if self.ramp_settled {
            0.0
        } else {
            // detlint:allow(D5, D11) -- invariant: only called while a burst is active, so burst_start is set; violation is a shaper state-machine bug worth a loud abort
            let age = now - self.burst_start.expect("multiplier during idle");
            let r = self.burst_penalty * (-age / self.cfg.ramp_tau_s).exp();
            self.ramp_settled = r < RAMP_SETTLED;
            r
        };
        let noise = self.noise.value();
        ((1.0 - ramp_loss) * (1.0 + noise)).clamp(0.05, 1.0)
    }
}

impl Shaper for PerCoreQos {
    #[inline]
    fn transmit(&mut self, now: f64, dt: f64, demand_bits: f64) -> f64 {
        debug_assert!(dt > 0.0);
        self.noise.step(&mut self.rng);

        if demand_bits <= 0.0 {
            // Idle step: the flow's fast path decays. (Any idle step ends
            // the burst; the paper's patterns rest for 30 s, far longer
            // than Andromeda's flow idle timeout.)
            self.burst_start = None;
            return 0.0;
        }

        if self.burst_start.is_none() {
            self.burst_start = Some(now);
            self.burst_penalty = self.sample_penalty();
            self.ramp_settled = false;
        }

        let ceiling = self.advertised_bps() * self.cfg.efficiency;
        let rate = ceiling * self.current_multiplier(now);
        demand_bits.min(rate * dt)
    }

    #[inline]
    fn rate_hint(&self, _now: f64) -> f64 {
        self.advertised_bps() * self.cfg.efficiency
    }

    fn reset(&mut self) {
        let mut rng = SimRng::new(self.seed);
        self.noise = Ar1::new(self.cfg.noise_phi, self.cfg.noise_sigma, &mut rng);
        self.rng = rng;
        self.burst_start = None;
        self.burst_penalty = 0.0;
        self.ramp_settled = false;
    }

    fn hint_stable_steps(&self, _now: f64, _dt: f64) -> u64 {
        // The hint is `advertised * efficiency` — a construction-time
        // constant. Burst state and noise affect only `transmit` grants,
        // which the event engine still performs step by step (they
        // advance the RNG), never the planning hint.
        u64::MAX
    }

    fn rest(&mut self, _now: f64, _dt: f64, steps: u64) {
        // An idle tick steps the AR(1) noise, clears the burst marker
        // and returns — `now`/`dt` are never read, so the loop reduces
        // to advancing the noise `steps` times. The RNG advance cannot
        // be skipped (bitwise state must match the loop's).
        if steps > 0 {
            self.burst_start = None;
        }
        for _ in 0..steps {
            self.noise.step(&mut self.rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::gbps;

    fn drive_pattern(
        shaper: &mut PerCoreQos,
        on_s: f64,
        off_s: f64,
        total_s: f64,
        dt: f64,
    ) -> Vec<f64> {
        // Returns mean bandwidth of each on-burst.
        let mut burst_means = Vec::new();
        let mut t = 0.0;
        while t < total_s {
            let mut bits = 0.0;
            let mut tt = 0.0;
            while tt < on_s {
                bits += shaper.transmit(t + tt, dt, f64::INFINITY);
                tt += dt;
            }
            burst_means.push(bits / on_s);
            let mut rest = 0.0;
            while rest < off_s {
                shaper.transmit(t + on_s + rest, dt, 0.0);
                rest += dt;
            }
            t += on_s + off_s;
        }
        burst_means
    }

    #[test]
    fn steady_state_near_advertised() {
        let mut s = PerCoreQos::new(PerCoreQosConfig::gce(8), 1);
        // Warm up 30 s, then measure 60 s.
        for i in 0..300 {
            s.transmit(i as f64 * 0.1, 0.1, f64::INFINITY);
        }
        let mut bits = 0.0;
        for i in 300..900 {
            bits += s.transmit(i as f64 * 0.1, 0.1, f64::INFINITY);
        }
        let rate = bits / 60.0;
        assert!(rate > gbps(14.8) && rate < gbps(16.0), "steady rate {rate}");
    }

    #[test]
    fn short_bursts_are_slower_and_more_variable_than_long() {
        let mut s5 = PerCoreQos::new(PerCoreQosConfig::gce(8), 7);
        let five_thirty = drive_pattern(&mut s5, 5.0, 30.0, 3500.0, 0.1);
        let mut sf = PerCoreQos::new(PerCoreQosConfig::gce(8), 7);
        let full: Vec<f64> = {
            // 100 consecutive 10 s windows of a continuous stream.
            let mut means = Vec::new();
            for w in 0..100 {
                let mut bits = 0.0;
                for i in 0..100 {
                    bits += sf.transmit(w as f64 * 10.0 + i as f64 * 0.1, 0.1, f64::INFINITY);
                }
                means.push(bits / 10.0);
            }
            means
        };
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            mean(&five_thirty) < mean(&full),
            "5-30 {} vs full {}",
            mean(&five_thirty),
            mean(&full)
        );
        // The 5-30 pattern has the long lower tail (Figure 5).
        assert!(min(&five_thirty) < min(&full));
        assert!(min(&five_thirty) < gbps(14.0), "tail {}", min(&five_thirty));
    }

    #[test]
    fn bandwidth_stays_in_measured_range() {
        let mut s = PerCoreQos::new(PerCoreQosConfig::gce(8), 3);
        let bursts = drive_pattern(&mut s, 10.0, 30.0, 4000.0, 0.1);
        for b in &bursts {
            assert!(*b > gbps(6.0) && *b < gbps(16.0), "burst {b}");
        }
    }

    #[test]
    fn reset_reproduces_stream() {
        let mut s = PerCoreQos::new(PerCoreQosConfig::gce(4), 11);
        let a = drive_pattern(&mut s, 5.0, 30.0, 350.0, 0.1);
        s.reset();
        let b = drive_pattern(&mut s, 5.0, 30.0, 350.0, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn scales_with_cores() {
        let s1 = PerCoreQos::new(PerCoreQosConfig::gce(1), 0);
        let s8 = PerCoreQos::new(PerCoreQosConfig::gce(8), 0);
        assert_eq!(s1.advertised_bps(), gbps(2.0));
        assert_eq!(s8.advertised_bps(), gbps(16.0));
        assert_eq!(s8.rate_hint(0.0), gbps(16.0) * 0.97);
    }
}
