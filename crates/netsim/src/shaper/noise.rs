//! Contention-noise shaper for clouds without QoS (HPCCloud).
//!
//! The private research cloud in the paper applies no QoS mechanism, so
//! the observed variability comes from tenant contention. Because such
//! systems are "orders of magnitude smaller than public clouds ...
//! there is less statistical multiplexing to smooth out variation"
//! (F3.2): a single noisy neighbour moves the needle. The measured
//! 8-core HPCCloud pair ranges 7.7–10.4 Gbps over a week (Figure 4)
//! with consecutive-sample swings up to 33%.
//!
//! [`NoiseShaper`] models capacity as
//! `capacity * (1 - ar1_noise - contention)` where contention episodes
//! arrive as a Poisson process, steal a heavy-tailed fraction of the
//! link, and last an exponential time — the classic on/off neighbour.

use super::Shaper;
use crate::rng::{Ar1, SimRng};

/// Configuration for [`NoiseShaper`].
#[derive(Debug, Clone)]
pub struct NoiseConfig {
    /// Uncontended link capacity, bits/s.
    pub capacity_bps: f64,
    /// Stationary std-dev of the fast AR(1) noise (fraction of capacity).
    pub ar_sigma: f64,
    /// Per-step lag-1 autocorrelation of the fast noise.
    pub ar_phi: f64,
    /// Mean arrivals of contention episodes per second.
    pub contention_rate_per_s: f64,
    /// Minimum fraction of capacity stolen by an episode.
    pub contention_min_frac: f64,
    /// Pareto shape for episode magnitude (larger = lighter tail).
    pub contention_alpha: f64,
    /// Largest fraction a single episode may steal.
    pub contention_max_frac: f64,
    /// Mean episode duration, seconds.
    pub contention_mean_dur_s: f64,
}

impl NoiseConfig {
    /// The paper's HPCCloud 8-core profile: 10.4 Gbps ceiling, dips to
    /// ~7.7 Gbps under contention.
    pub fn hpccloud() -> Self {
        NoiseConfig {
            capacity_bps: 10.4e9,
            ar_sigma: 0.012,
            ar_phi: 0.9,
            contention_rate_per_s: 1.0 / 1800.0,
            contention_min_frac: 0.04,
            contention_alpha: 2.0,
            contention_max_frac: 0.26,
            contention_mean_dur_s: 400.0,
        }
    }
}

/// A contention episode currently degrading the link.
#[derive(Debug, Clone, Copy)]
struct Episode {
    /// Fraction of capacity stolen.
    magnitude: f64,
    /// Simulated time at which the episode ends.
    ends_at: f64,
}

/// Stochastic-noise shaper for non-QoS clouds. See the module docs.
pub struct NoiseShaper {
    cfg: NoiseConfig,
    rng: SimRng,
    ar: Ar1,
    episodes: Vec<Episode>,
    seed: u64,
}

impl NoiseShaper {
    /// Create a shaper from a configuration and seed.
    pub fn new(cfg: NoiseConfig, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let ar = Ar1::new(cfg.ar_phi, cfg.ar_sigma, &mut rng);
        NoiseShaper {
            cfg,
            rng,
            ar,
            episodes: Vec::new(),
            seed,
        }
    }

    /// Total fraction currently stolen by active episodes (capped).
    fn contention_frac(&self) -> f64 {
        let sum: f64 = self.episodes.iter().map(|e| e.magnitude).sum();
        sum.min(self.cfg.contention_max_frac)
    }

    fn step_state(&mut self, now: f64, dt: f64) {
        self.ar.step(&mut self.rng);
        self.episodes.retain(|e| e.ends_at > now);
        // Poisson arrivals within dt (dt is small; Bernoulli suffices).
        if self.rng.chance(self.cfg.contention_rate_per_s * dt) {
            let magnitude = self
                .rng
                .pareto(self.cfg.contention_min_frac, self.cfg.contention_alpha)
                .min(self.cfg.contention_max_frac);
            let dur = self.rng.exponential(1.0 / self.cfg.contention_mean_dur_s);
            self.episodes.push(Episode {
                magnitude,
                ends_at: now + dur,
            });
        }
    }

    /// Current effective rate in bits/s.
    fn current_rate(&self) -> f64 {
        let frac = 1.0 - self.contention_frac() + self.ar.value();
        (self.cfg.capacity_bps * frac).clamp(0.0, self.cfg.capacity_bps)
    }
}

impl Shaper for NoiseShaper {
    #[inline]
    fn transmit(&mut self, now: f64, dt: f64, demand_bits: f64) -> f64 {
        debug_assert!(dt > 0.0);
        self.step_state(now, dt);
        if demand_bits <= 0.0 {
            return 0.0;
        }
        demand_bits.min(self.current_rate() * dt)
    }

    #[inline]
    fn rate_hint(&self, _now: f64) -> f64 {
        self.current_rate()
    }

    fn reset(&mut self) {
        let mut rng = SimRng::new(self.seed);
        self.ar = Ar1::new(self.cfg.ar_phi, self.cfg.ar_sigma, &mut rng);
        self.rng = rng;
        self.episodes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::gbps;

    /// One week of 10-second samples at full demand.
    fn week_samples(seed: u64) -> Vec<f64> {
        let mut s = NoiseShaper::new(NoiseConfig::hpccloud(), seed);
        let dt = 1.0;
        let mut samples = Vec::new();
        let mut t = 0.0;
        for _ in 0..60_480 {
            // 1 week / 10 s
            let mut bits = 0.0;
            for _ in 0..10 {
                bits += s.transmit(t, dt, f64::INFINITY);
                t += dt;
            }
            samples.push(bits / 10.0);
        }
        samples
    }

    #[test]
    fn range_matches_hpccloud_measurements() {
        let samples = week_samples(1);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max <= gbps(10.4) + 1.0, "max {max}");
        assert!(max > gbps(10.0), "max {max}");
        assert!(min < gbps(9.5), "min {min} — expected contention dips");
        assert!(min > gbps(7.0), "min {min}");
    }

    #[test]
    fn variability_is_week_scale_not_constant() {
        let samples = week_samples(2);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let sd =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        let cov = sd / mean;
        assert!(cov > 0.005 && cov < 0.15, "CoV {cov}");
    }

    #[test]
    fn reset_reproduces() {
        let mut s = NoiseShaper::new(NoiseConfig::hpccloud(), 3);
        let a: Vec<f64> = (0..100).map(|i| s.transmit(i as f64, 1.0, 1e10)).collect();
        s.reset();
        let b: Vec<f64> = (0..100).map(|i| s.transmit(i as f64, 1.0, 1e10)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn idle_steps_consume_no_bandwidth() {
        let mut s = NoiseShaper::new(NoiseConfig::hpccloud(), 4);
        assert_eq!(s.transmit(0.0, 1.0, 0.0), 0.0);
    }

    #[test]
    fn episodes_expire() {
        let cfg = NoiseConfig {
            contention_rate_per_s: 10.0, // very frequent for the test
            contention_mean_dur_s: 0.5,
            ..NoiseConfig::hpccloud()
        };
        let mut s = NoiseShaper::new(cfg, 5);
        for i in 0..200 {
            s.transmit(i as f64 * 0.1, 0.1, f64::INFINITY);
        }
        // After a long quiet period (no arrivals possible with rate 0).
        s.cfg.contention_rate_per_s = 0.0;
        for i in 200..400 {
            s.transmit(i as f64 * 0.1, 0.1, f64::INFINITY);
        }
        assert!(s.episodes.is_empty());
    }
}
