//! Differential suite for the stream hot path's exact shortcuts
//! (DESIGN.md, "Stream hot path: exact shortcuts").
//!
//! Each shortcut is compared bit for bit (`f64::to_bits`) against a
//! test-local copy of the plain computation it replaces:
//!
//! * [`PlainPerCore`] evaluates the ramp loss `penalty * exp(-age/tau)`
//!   on every busy tick and recomputes the AR(1) innovation deviation
//!   `sigma * sqrt(1 - phi^2)` on every step, where [`PerCoreQos`]
//!   latches a settled ramp to `0.0` and [`Ar1`] hoists the constant;
//! * [`plain_stream_run`] is the per-tick summary loop (one `u64 %`
//!   per tick, the momentary rate divided on every on-tick) that
//!   [`StreamSim::run`]'s per-interval loop replaces.

use netsim::faults::{FaultConfig, FaultInjector, FaultSchedule};
use netsim::nic::{NicConfig, NicModel};
use netsim::pattern::TrafficPattern;
use netsim::rng::{Ar1, SimRng};
use netsim::shaper::{
    EmpiricalShaper, MinShaper, NoiseConfig, NoiseShaper, PerCoreQos, PerCoreQosConfig,
    QuantileDist, Shaper, StaticShaper, TokenBucket,
};
use netsim::tcp::{StreamConfig, StreamResult, StreamSim};
use netsim::trace::{BandwidthTrace, BwSample, RttTrace};
use proplite::prelude::*;

/// The plain AR(1): the innovation deviation is recomputed each step.
struct PlainAr1 {
    phi: f64,
    sigma: f64,
    state: f64,
}

impl PlainAr1 {
    fn new(phi: f64, sigma: f64, rng: &mut SimRng) -> Self {
        let state = rng.normal(0.0, sigma);
        PlainAr1 { phi, sigma, state }
    }

    fn step(&mut self, rng: &mut SimRng) -> f64 {
        let innovation_sd = self.sigma * (1.0 - self.phi * self.phi).sqrt();
        self.state = self.phi * self.state + rng.normal(0.0, innovation_sd);
        self.state
    }
}

/// The per-core QoS shaper without the ramp latch: every busy tick
/// evaluates the ramp loss, however small.
struct PlainPerCore {
    cfg: PerCoreQosConfig,
    seed: u64,
    rng: SimRng,
    noise: PlainAr1,
    burst_start: Option<f64>,
    burst_penalty: f64,
}

impl PlainPerCore {
    fn new(cfg: PerCoreQosConfig, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let noise = PlainAr1::new(cfg.noise_phi, cfg.noise_sigma, &mut rng);
        PlainPerCore {
            cfg,
            seed,
            rng,
            noise,
            burst_start: None,
            burst_penalty: 0.0,
        }
    }
}

impl Shaper for PlainPerCore {
    fn transmit(&mut self, now: f64, dt: f64, demand_bits: f64) -> f64 {
        self.noise.step(&mut self.rng);
        if demand_bits <= 0.0 {
            self.burst_start = None;
            return 0.0;
        }
        if self.burst_start.is_none() {
            self.burst_start = Some(now);
            let p = self.rng.pareto(self.cfg.ramp_penalty_mean / 2.0, 1.6);
            self.burst_penalty = p.min(0.8);
        }
        let age = now - self.burst_start.unwrap();
        let ramp_loss = self.burst_penalty * (-age / self.cfg.ramp_tau_s).exp();
        let multiplier = ((1.0 - ramp_loss) * (1.0 + self.noise.state)).clamp(0.05, 1.0);
        let ceiling = self.cfg.per_core_bps * self.cfg.cores as f64 * self.cfg.efficiency;
        demand_bits.min(ceiling * multiplier * dt)
    }

    fn rate_hint(&self, _now: f64) -> f64 {
        self.cfg.per_core_bps * self.cfg.cores as f64 * self.cfg.efficiency
    }

    fn reset(&mut self) {
        *self = PlainPerCore::new(self.cfg.clone(), self.seed);
    }
}

/// A random per-core configuration: `tau` in 0.2–5 s and a penalty
/// mean in 0–0.5, so bursts of a few seconds to a few minutes cross
/// the latch threshold.
fn per_core_cfg(cores: u32, tau: f64, penalty: f64, noise_sigma: f64) -> PerCoreQosConfig {
    PerCoreQosConfig {
        ramp_tau_s: tau,
        ramp_penalty_mean: penalty,
        noise_sigma,
        ..PerCoreQosConfig::gce(cores)
    }
}

/// A duty cycle whose edges mostly fall between ticks, or full speed.
fn pattern(on_s: f64, off_s: f64, full_speed: bool) -> TrafficPattern {
    if full_speed {
        TrafficPattern::FullSpeed
    } else {
        TrafficPattern::DutyCycle { on_s, off_s }
    }
}

/// High stall and degrade rates, so a short run meets several episodes.
fn stormy_faults(horizon_s: f64, seed: u64) -> FaultSchedule {
    let cfg = FaultConfig {
        stall_rate_per_hour: 90.0,
        stall_mean_s: 6.0,
        degrade_rate_per_hour: 60.0,
        degrade_mean_s: 10.0,
        degrade_min_factor: 0.2,
        degrade_max_factor: 0.9,
        loss_rate_per_hour: 30.0,
        loss_mean_s: 3.0,
        loss_frac: 0.3,
        probe_loss_prob: 0.0,
        pair_death_rate_per_hour: 0.0,
    };
    FaultSchedule::generate(&cfg, 1, horizon_s, seed)
}

/// Drive two shapers through the same ticks and compare every grant.
/// `reset_at` resets both before that tick; with `rest_idle` the
/// first shaper crosses each idle run in one `rest` call while the
/// second still ticks it.
fn same_grants<A: Shaper, B: Shaper>(
    a: &mut A,
    b: &mut B,
    pattern: TrafficPattern,
    dt: f64,
    steps: usize,
    reset_at: usize,
    rest_idle: bool,
) -> CaseResult {
    let mut i = 0;
    while i < steps {
        if i == reset_at {
            a.reset();
            b.reset();
        }
        let t = i as f64 * dt;
        if rest_idle && !pattern.is_on(t) {
            // An idle run stops at the end, a busy tick or the reset.
            let mut k = 0;
            loop {
                b.transmit((i + k) as f64 * dt, dt, 0.0);
                k += 1;
                let j = i + k;
                if j == steps || j == reset_at || pattern.is_on(j as f64 * dt) {
                    break;
                }
            }
            a.rest(t, dt, k as u64);
            i += k;
            continue;
        }
        let demand = if pattern.is_on(t) { f64::INFINITY } else { 0.0 };
        let ga = a.transmit(t, dt, demand);
        let gb = b.transmit(t, dt, demand);
        prop_assert_eq!(
            ga.to_bits(),
            gb.to_bits(),
            "grant of tick {} ({} vs {})",
            i,
            ga,
            gb
        );
        i += 1;
    }
    Ok(())
}

/// The per-tick summary loop that [`StreamSim::run`]'s per-interval
/// loop replaced, kept as its oracle: one `%` per tick finds interval
/// ends, and every on-tick divides the momentary rate.
fn plain_stream_run<S: Shaper>(
    shaper: &mut S,
    nic: &mut NicModel,
    cfg: &StreamConfig,
) -> StreamResult {
    let mut bandwidth = BandwidthTrace::new(cfg.summary_interval_s);
    let mut rtt = RttTrace::default();

    let steps = (cfg.duration_s / cfg.step_s).round() as u64;
    let steps_per_interval = (cfg.summary_interval_s / cfg.step_s).round().max(1.0) as u64;

    let mut interval_bits = 0.0;
    let mut interval_on_time = 0.0;
    let mut interval_idx: u64 = 0;
    let mut last_rate = 0.0;

    for i in 0..steps {
        let t = i as f64 * cfg.step_s;
        let on = cfg.pattern.is_on(t);
        let demand = if on { f64::INFINITY } else { 0.0 };
        let granted = shaper.transmit(t, cfg.step_s, demand);
        if on {
            interval_bits += granted;
            interval_on_time += cfg.step_s;
            last_rate = granted / cfg.step_s;
        }

        let interval_done = (i + 1) % steps_per_interval == 0 || i + 1 == steps;
        if interval_done {
            let interval_start = interval_idx as f64 * cfg.summary_interval_s;
            if interval_on_time > 0.0 {
                let avg_rate = interval_bits / interval_on_time;
                let retrans = nic.count_retransmissions(interval_bits, cfg.write_bytes, avg_rate);
                bandwidth.samples.push(BwSample {
                    t: interval_start,
                    bandwidth_bps: avg_rate,
                    bits: interval_bits,
                    retransmissions: retrans,
                });
                for k in 0..cfg.rtt_samples_per_interval {
                    let frac = (k as f64 + 0.5) / cfg.rtt_samples_per_interval as f64;
                    let ts = interval_start + frac * cfg.summary_interval_s;
                    let outcome = nic.send_segment(cfg.write_bytes, last_rate.max(avg_rate * 0.5));
                    rtt.samples.push((ts, outcome.rtt_s()));
                }
            }
            interval_bits = 0.0;
            interval_on_time = 0.0;
            interval_idx += 1;
        }
    }

    StreamResult { bandwidth, rtt }
}

/// Every shaper kind a stream runs over; a pure function of
/// `(kind, seed)`, so both loops get bitwise twins.
fn stream_shaper(kind: usize, seed: u64, horizon_s: f64) -> Box<dyn Shaper + Send> {
    match kind % 7 {
        0 => Box::new(TokenBucket::sigma_rho(
            (20 + seed % 60) as f64 * 1e9,
            1e9,
            10e9,
        )),
        1 => Box::new(PerCoreQos::new(
            per_core_cfg(8, 0.2 + (seed % 10) as f64 * 0.3, 0.4, 0.008),
            seed,
        )),
        2 => Box::new(NoiseShaper::new(NoiseConfig::hpccloud(), seed)),
        3 => Box::new(StaticShaper::new(5e9 + (seed % 5) as f64 * 1e9)),
        4 => Box::new(EmpiricalShaper::new(
            QuantileDist::from_box(1e9, 3e9, 5e9, 7e9, 9e9),
            5.0,
            seed,
        )),
        5 => Box::new(MinShaper::new(
            TokenBucket::sigma_rho(60e9, 2e9, 8e9).with_idle_refill(4e9),
            StaticShaper::new(9e9),
        )),
        _ => Box::new(FaultInjector::new(
            PerCoreQos::new(PerCoreQosConfig::gce(4), seed),
            0,
            stormy_faults(horizon_s, seed),
        )),
    }
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

prop_cases! {
    #![config(Config::with_cases(64))]

    /// The latched shaper grants exactly what the unlatched one does,
    /// through duty cycles with off-grid edges and a mid-run reset.
    #[test]
    fn latched_per_core_matches_plain(
        (seed, cores) in (0u64..1_000_000, 1u32..16),
        (tau, penalty, sigma) in (0.2f64..5.0, 0.0f64..0.5, 0.0f64..0.05),
        (on_s, off_s, full_speed) in (0.05f64..300.0, 0.01f64..40.0, bools()),
        dt in 0.05f64..0.5,
        (steps, reset_at) in (1usize..3_000, 0usize..6_000),
        rest_idle in bools(),
    ) {
        let cfg = per_core_cfg(cores, tau, penalty, sigma);
        let mut fast = PerCoreQos::new(cfg.clone(), seed);
        let mut plain = PlainPerCore::new(cfg, seed);
        let p = pattern(on_s, off_s, full_speed);
        same_grants(&mut fast, &mut plain, p, dt, steps, reset_at, rest_idle)?;
    }

    /// The same under fault injection: stalls end bursts mid-ramp and
    /// degrades cap the offered demand.
    #[test]
    fn latched_per_core_matches_plain_under_faults(
        seed in 0u64..1_000_000,
        (tau, penalty) in (0.2f64..5.0, 0.0f64..0.5),
        (on_s, off_s, full_speed) in (0.05f64..300.0, 0.01f64..40.0, bools()),
        dt in 0.05f64..0.5,
        (steps, reset_at) in (1usize..3_000, 0usize..6_000),
    ) {
        let cfg = per_core_cfg(8, tau, penalty, 0.008);
        let schedule = stormy_faults(steps as f64 * dt, seed ^ 0x5eed);
        let mut fast = FaultInjector::new(PerCoreQos::new(cfg.clone(), seed), 0, schedule.clone());
        let mut plain = FaultInjector::new(PlainPerCore::new(cfg, seed), 0, schedule);
        let p = pattern(on_s, off_s, full_speed);
        same_grants(&mut fast, &mut plain, p, dt, steps, reset_at, false)?;
    }

    /// The hoisted innovation deviation steps the same values as the
    /// per-step expression.
    #[test]
    fn hoisted_ar1_matches_plain(
        seed in 0u64..1_000_000,
        (phi, sigma) in (-0.99f64..0.99, 0.0f64..3.0),
        steps in 1usize..500,
    ) {
        let (mut ra, mut rb) = (SimRng::new(seed), SimRng::new(seed));
        let mut fast = Ar1::new(phi, sigma, &mut ra);
        let mut plain = PlainAr1::new(phi, sigma, &mut rb);
        prop_assert!(same_bits(fast.value(), plain.state));
        for i in 0..steps {
            let (a, b) = (fast.step(&mut ra), plain.step(&mut rb));
            prop_assert!(same_bits(a, b), "step {} ({} vs {})", i, a, b);
        }
    }

    /// The per-interval stream loop reports the per-tick loop's traces
    /// bit for bit, for every shaper kind, durations that end mid
    /// interval, off-grid duty cycles and 0–3 RTT samples per interval.
    #[test]
    fn interval_stream_loop_matches_per_tick(
        (kind, seed) in (0usize..7, 0u64..1_000_000),
        (duration_s, interval_s) in (0.05f64..400.0, 0.05f64..30.0),
        step_s in 0.05f64..0.5,
        (on_s, off_s, full_speed) in (0.05f64..60.0, 0.01f64..40.0, bools()),
        (rtt_samples, write_kib) in (0usize..4, 1u32..256),
    ) {
        prop_assume!(interval_s >= step_s);
        let cfg = StreamConfig {
            duration_s,
            pattern: pattern(on_s, off_s, full_speed),
            write_bytes: write_kib as f64 * 1024.0,
            summary_interval_s: interval_s,
            step_s,
            rtt_samples_per_interval: rtt_samples,
        };
        let nic = || NicModel::new(NicConfig::gce_virtio(16e9), seed ^ 0x41c);
        let (mut nic_a, mut nic_b) = (nic(), nic());
        let mut shaper_a = stream_shaper(kind, seed, duration_s);
        let mut shaper_b = stream_shaper(kind, seed, duration_s);
        let fast = StreamSim::run(&mut shaper_a, &mut nic_a, &cfg);
        let plain = plain_stream_run(&mut shaper_b, &mut nic_b, &cfg);

        prop_assert_eq!(fast.bandwidth.samples.len(), plain.bandwidth.samples.len());
        for (a, b) in fast.bandwidth.samples.iter().zip(&plain.bandwidth.samples) {
            prop_assert!(same_bits(a.t, b.t) && same_bits(a.bandwidth_bps, b.bandwidth_bps));
            prop_assert!(same_bits(a.bits, b.bits) && a.retransmissions == b.retransmissions);
        }
        prop_assert_eq!(fast.rtt.samples.len(), plain.rtt.samples.len());
        for (a, b) in fast.rtt.samples.iter().zip(&plain.rtt.samples) {
            prop_assert!(same_bits(a.0, b.0) && same_bits(a.1, b.1), "rtt {:?} vs {:?}", a, b);
        }
    }
}

/// The latch engages on the runs above: a long full-speed burst at the
/// slowest decay settles its ramp well inside the run, and the grants
/// still match the plain shaper's past that point.
#[test]
fn latch_engages_and_stays_exact_on_a_long_slow_burst() {
    let cfg = per_core_cfg(8, 5.0, 0.5, 0.008);
    // penalty <= 0.8 and exp(-age/5) < 2^-60 / 0.8 once age > ~207 s.
    let mut fast = PerCoreQos::new(cfg.clone(), 3);
    let mut plain = PlainPerCore::new(cfg, 3);
    let (dt, steps) = (0.1, 4_000);
    same_grants(
        &mut fast,
        &mut plain,
        TrafficPattern::FullSpeed,
        dt,
        steps,
        usize::MAX,
        false,
    )
    .expect("latched and plain grants agree");
    let settled_age = 5.0 * ((0.8f64).ln() + 60.0 * std::f64::consts::LN_2);
    assert!(
        settled_age < steps as f64 * dt,
        "the run outlasts the ramp ({settled_age} s)"
    );
}
