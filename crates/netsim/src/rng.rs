//! Deterministic randomness for the simulator.
//!
//! Every stochastic component takes an explicit seed; nothing reads the
//! OS entropy pool or the wall clock. [`SimRng`] wraps an in-house
//! xoshiro256++ generator (seeded through SplitMix64) and adds the
//! distribution samplers the cloud models need (normal, lognormal,
//! Pareto, AR(1) processes). The whole stochastic substrate is std-only:
//! no `rand`, no `rand_distr`, no registry access — part of the
//! hermetic-build policy (see DESIGN.md), because a reproduction of a
//! reproducibility paper whose own build is irreproducible would be
//! self-defeating.
//!
//! Seeds are derived with SplitMix64 so that component seeds produced
//! from a common experiment seed are statistically independent even when
//! the experiment seeds themselves are sequential (0, 1, 2, ...).
//!
//! The generator streams are pinned by golden-vector tests
//! (`tests/golden_rng.rs`): any change to the core or the seeding path
//! is a breaking change to every recorded experiment and must be made
//! deliberately.

/// SplitMix64 step: turns correlated seed inputs into well-mixed outputs.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a sub-seed for a named component from a parent seed.
///
/// `label` should be a stable component identifier (e.g. a node index or
/// a field tag) so that adding components does not perturb the streams of
/// existing ones.
#[inline]
pub fn derive_seed(parent: u64, label: u64) -> u64 {
    splitmix64(parent ^ splitmix64(label.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// Deterministic RNG with the samplers used across the simulator.
///
/// The core is xoshiro256++ (Blackman & Vigna): 256 bits of state, a
/// rotate-add output mix, and a period of 2^256 − 1. It is small, fast,
/// and passes BigCrush — more than adequate for a discrete-event
/// simulator, and entirely under this repository's control.
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256++ state; never all-zero.
    state: [u64; 4],
    /// Cached second Box–Muller variate.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Create an RNG from a 64-bit seed (mixed through SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let mut state = [0u64; 4];
        for word in &mut state {
            s = splitmix64(s);
            *word = s;
        }
        // The all-zero state is the one fixed point of the transition;
        // a SplitMix64 chain cannot practically produce it, but guard
        // anyway so every seed yields a working generator.
        if state == [0, 0, 0, 0] {
            state[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng {
            state,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Fork an independent RNG for a labelled sub-component.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let s = self.next_u64();
        SimRng::new(derive_seed(s, label))
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` (multiply-shift; bias < n / 2^64,
    /// immaterial at simulation scales).
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal variate (Box–Muller, cached pair).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0).
        let u1 = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Lognormal variate parameterized by the underlying normal.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto variate with scale `x_min > 0` and shape `alpha > 0`.
    ///
    /// Heavy-tailed; used for contention burst magnitudes.
    #[inline]
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        let u = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        x_min / u.powf(1.0 / alpha)
    }

    /// Exponential variate with the given rate (`1/mean`).
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        let u = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// Poisson variate (Knuth for small means, normal approx for large).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let v = self.normal(mean, mean.sqrt()).round();
            return if v < 0.0 { 0 } else { v as u64 };
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// First-order autoregressive process: `x_{t+1} = phi * x_t + e`, with
/// `e ~ N(0, sigma^2 * (1 - phi^2))` so the stationary variance is
/// `sigma^2`. Used to give bandwidth noise the sample-to-sample
/// correlation the paper observes (Section 3.1: consecutive 10-second
/// measurements move by up to 33% / 114% but are not independent).
///
/// The innovation standard deviation `sigma * sqrt(1 - phi^2)` is
/// computed once, in [`Ar1::new`], from the same expression `step`
/// would evaluate, so every step draws bit-identical values.
#[derive(Debug, Clone)]
pub struct Ar1 {
    phi: f64,
    innovation_sd: f64,
    state: f64,
}

impl Ar1 {
    /// Create a stationary AR(1) with autocorrelation `phi in (-1, 1)`
    /// and stationary standard deviation `sigma`.
    pub fn new(phi: f64, sigma: f64, rng: &mut SimRng) -> Self {
        assert!(phi.abs() < 1.0, "AR(1) requires |phi| < 1");
        let state = rng.normal(0.0, sigma);
        let innovation_sd = sigma * (1.0 - phi * phi).sqrt();
        Ar1 {
            phi,
            innovation_sd,
            state,
        }
    }

    /// Advance one step and return the new value.
    #[inline]
    pub fn step(&mut self, rng: &mut SimRng) -> f64 {
        self.state = self.phi * self.state + rng.normal(0.0, self.innovation_sd);
        self.state
    }

    /// Current value without advancing.
    #[inline]
    pub fn value(&self) -> f64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn derive_seed_decorrelates_sequential_seeds() {
        let s1 = derive_seed(0, 7);
        let s2 = derive_seed(1, 7);
        // Hamming distance should be substantial.
        assert!((s1 ^ s2).count_ones() > 10);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn pareto_is_heavy_tailed_and_bounded_below() {
        let mut rng = SimRng::new(9);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.pareto(1.0, 2.0)).collect();
        assert!(samples.iter().all(|&x| x >= 1.0));
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > 10.0, "expected a heavy tail, max {max}");
    }

    #[test]
    fn poisson_mean_tracks_parameter() {
        let mut rng = SimRng::new(11);
        let n = 5_000;
        let total: u64 = (0..n).map(|_| rng.poisson(3.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.5).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn ar1_is_stationary_and_correlated() {
        let mut rng = SimRng::new(21);
        let mut ar = Ar1::new(0.8, 1.0, &mut rng);
        let samples: Vec<f64> = (0..50_000).map(|_| ar.step(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
        // Lag-1 autocorrelation should be near phi.
        let lag1: f64 = samples
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / ((samples.len() - 1) as f64 * var);
        assert!((lag1 - 0.8).abs() < 0.05, "lag1 {lag1}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::new(3);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let matches = (0..64).filter(|_| a.uniform() == b.uniform()).count();
        assert!(matches < 4);
    }
}
