//! iperf-like TCP stream simulation.
//!
//! [`StreamSim`] drives a [`Shaper`] + [`NicModel`] pair with a traffic
//! [`TrafficPattern`] and produces the measurement artifacts the paper
//! collects: 10-second bandwidth summaries with retransmission counts
//! ([`BandwidthTrace`]) and sampled per-segment RTTs ([`RttTrace`]).
//!
//! The model is greedy like iperf: while the pattern is "on", the sender
//! always has data queued, so the achieved rate equals whatever the
//! shaper admits. Idle phases still advance shaper state (token refill).

use crate::nic::NicModel;
use crate::pattern::TrafficPattern;
use crate::shaper::Shaper;
use crate::trace::{BandwidthTrace, BwSample, RttTrace};

/// Configuration of one measured stream.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Total experiment duration, seconds.
    pub duration_s: f64,
    /// Traffic schedule.
    pub pattern: TrafficPattern,
    /// Application `write()` size in bytes (iperf default: 128 KiB).
    pub write_bytes: f64,
    /// Summarization interval, seconds (the paper uses 10 s).
    pub summary_interval_s: f64,
    /// Fluid simulation step, seconds.
    pub step_s: f64,
    /// RTT samples to draw per summary interval while transmitting
    /// (0 disables latency collection).
    pub rtt_samples_per_interval: usize,
}

impl StreamConfig {
    /// Paper-style defaults: 128 KiB writes, 10 s summaries, 100 ms steps.
    pub fn new(duration_s: f64, pattern: TrafficPattern) -> Self {
        StreamConfig {
            duration_s,
            pattern,
            write_bytes: 131_072.0,
            summary_interval_s: 10.0,
            step_s: 0.1,
            rtt_samples_per_interval: 0,
        }
    }

    /// Enable RTT sampling with `n` samples per summary interval.
    pub fn with_rtt_samples(mut self, n: usize) -> Self {
        self.rtt_samples_per_interval = n;
        self
    }

    /// Set the application write size in bytes.
    pub fn with_write_bytes(mut self, bytes: f64) -> Self {
        self.write_bytes = bytes;
        self
    }
}

/// Result of a stream run.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Fixed-interval bandwidth summaries.
    pub bandwidth: BandwidthTrace,
    /// Sampled segment RTTs (empty unless enabled).
    pub rtt: RttTrace,
}

/// Stream simulator. See the module docs.
pub struct StreamSim;

impl StreamSim {
    /// Run a stream over `shaper`/`nic` according to `cfg`.
    ///
    /// Summary intervals during which the pattern never transmitted are
    /// omitted from the trace (iperf reports nothing while idle);
    /// partially-idle intervals report the average rate *while
    /// transmitting*, matching how the paper's box plots are built.
    ///
    /// The loop runs interval by interval, each over its own steps
    /// (the last interval may be short). Step `i` is stamped
    /// `i as f64 * step_s`, and the momentary rate RTT samples see is
    /// the interval's last on-step grant divided by `step_s`.
    pub fn run<S: Shaper>(shaper: &mut S, nic: &mut NicModel, cfg: &StreamConfig) -> StreamResult {
        assert!(
            cfg.step_s > 0.0 && cfg.summary_interval_s >= cfg.step_s,
            "summary interval must cover at least one step"
        );
        let mut bandwidth = BandwidthTrace::new(cfg.summary_interval_s);
        let mut rtt = RttTrace::default();

        let steps = (cfg.duration_s / cfg.step_s).round() as u64;
        let steps_per_interval = (cfg.summary_interval_s / cfg.step_s).round().max(1.0) as u64;

        let mut first = 0;
        let mut interval_idx: u64 = 0;
        while first < steps {
            let end = steps.min(first.saturating_add(steps_per_interval));
            let mut interval_bits = 0.0;
            let mut interval_on_time = 0.0;
            let mut last_grant = 0.0;
            for i in first..end {
                let t = i as f64 * cfg.step_s;
                let on = cfg.pattern.is_on(t);
                let demand = if on { f64::INFINITY } else { 0.0 };
                let granted = shaper.transmit(t, cfg.step_s, demand);
                if on {
                    interval_bits += granted;
                    interval_on_time += cfg.step_s;
                    last_grant = granted;
                }
            }

            if interval_on_time > 0.0 {
                let interval_start = interval_idx as f64 * cfg.summary_interval_s;
                let avg_rate = interval_bits / interval_on_time;
                let last_rate = last_grant / cfg.step_s;
                let retrans = nic.count_retransmissions(interval_bits, cfg.write_bytes, avg_rate);
                bandwidth.samples.push(BwSample {
                    t: interval_start,
                    bandwidth_bps: avg_rate,
                    bits: interval_bits,
                    retransmissions: retrans,
                });
                for k in 0..cfg.rtt_samples_per_interval {
                    // Sample segments against the momentary rate;
                    // spread sample timestamps across the interval.
                    // Retransmitted segments report their inflated
                    // (recovery-inclusive) RTT, as wireshark would.
                    let frac = (k as f64 + 0.5) / cfg.rtt_samples_per_interval as f64;
                    let ts = interval_start + frac * cfg.summary_interval_s;
                    let outcome = nic.send_segment(cfg.write_bytes, last_rate.max(avg_rate * 0.5));
                    rtt.samples.push((ts, outcome.rtt_s()));
                }
            }
            first = end;
            interval_idx += 1;
        }

        StreamResult { bandwidth, rtt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::NicConfig;
    use crate::shaper::{StaticShaper, TokenBucket};
    use crate::units::{gbit, gbps};

    #[test]
    fn full_speed_static_link_reports_line_rate() {
        let mut shaper = StaticShaper::new(gbps(10.0));
        let mut nic = NicModel::new(NicConfig::ec2_ena(gbps(10.0)), 1);
        let cfg = StreamConfig::new(100.0, TrafficPattern::FullSpeed);
        let res = StreamSim::run(&mut shaper, &mut nic, &cfg);
        assert_eq!(res.bandwidth.samples.len(), 10);
        for s in &res.bandwidth.samples {
            assert!((s.bandwidth_bps - gbps(10.0)).abs() < 1.0);
        }
        assert!((res.bandwidth.total_bits() - gbps(10.0) * 100.0).abs() < 10.0);
    }

    #[test]
    fn duty_cycle_reports_transmitting_rate_not_wall_rate() {
        let mut shaper = StaticShaper::new(gbps(8.0));
        let mut nic = NicModel::new(NicConfig::ec2_ena(gbps(10.0)), 2);
        let cfg = StreamConfig::new(400.0, TrafficPattern::TEN_THIRTY);
        let res = StreamSim::run(&mut shaper, &mut nic, &cfg);
        // Bandwidth-while-transmitting should be the full 8 Gbps.
        for s in &res.bandwidth.samples {
            assert!(s.bandwidth_bps > gbps(7.9), "rate {}", s.bandwidth_bps);
        }
        // Total bits reflect the 25% duty fraction.
        let expected = gbps(8.0) * 400.0 * 0.25;
        assert!((res.bandwidth.total_bits() - expected).abs() / expected < 0.05);
    }

    #[test]
    fn idle_only_intervals_are_omitted() {
        let mut shaper = StaticShaper::new(gbps(1.0));
        let mut nic = NicModel::new(NicConfig::plain(gbps(1.0)), 3);
        // 5 s on / 35 s off: intervals [10,20), [20,30), [30,40) are idle.
        let cfg = StreamConfig::new(
            80.0,
            TrafficPattern::DutyCycle {
                on_s: 5.0,
                off_s: 35.0,
            },
        );
        let res = StreamSim::run(&mut shaper, &mut nic, &cfg);
        // Two bursts (t=0, t=40) → two summary intervals with data.
        assert_eq!(res.bandwidth.samples.len(), 2);
        assert_eq!(res.bandwidth.samples[0].t, 0.0);
        assert_eq!(res.bandwidth.samples[1].t, 40.0);
    }

    #[test]
    fn token_bucket_stream_shows_depletion() {
        // 5 Gbit budget → ~0.56 s of 10 Gbps, then 1 Gbps.
        let mut shaper = TokenBucket::new(gbit(5.0), gbit(5.0), gbps(10.0), gbps(1.0), gbps(1.0));
        let mut nic = NicModel::new(NicConfig::ec2_ena(gbps(10.0)), 4);
        let cfg = StreamConfig::new(60.0, TrafficPattern::FullSpeed);
        let res = StreamSim::run(&mut shaper, &mut nic, &cfg);
        let first = res.bandwidth.samples.first().unwrap().bandwidth_bps;
        let last = res.bandwidth.samples.last().unwrap().bandwidth_bps;
        assert!(first > gbps(1.4), "first {first}");
        assert!(last < gbps(1.2), "last {last}");
    }

    #[test]
    fn rtt_sampling_produces_requested_counts() {
        let mut shaper = StaticShaper::new(gbps(10.0));
        let mut nic = NicModel::new(NicConfig::ec2_ena(gbps(10.0)), 5);
        let cfg = StreamConfig::new(50.0, TrafficPattern::FullSpeed).with_rtt_samples(20);
        let res = StreamSim::run(&mut shaper, &mut nic, &cfg);
        assert_eq!(res.rtt.samples.len(), 5 * 20);
        assert!(res.rtt.mean() > 0.0);
        // Timestamps are ordered.
        assert!(res.rtt.samples.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut shaper =
                TokenBucket::new(gbit(50.0), gbit(50.0), gbps(10.0), gbps(1.0), gbps(1.0));
            let mut nic = NicModel::new(NicConfig::ec2_ena(gbps(10.0)), 7);
            let cfg = StreamConfig::new(120.0, TrafficPattern::TEN_THIRTY).with_rtt_samples(5);
            StreamSim::run(&mut shaper, &mut nic, &cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a.bandwidth.samples, b.bandwidth.samples);
        assert_eq!(a.rtt.samples, b.rtt.samples);
    }
}
