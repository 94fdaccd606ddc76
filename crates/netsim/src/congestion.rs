//! Reno-style TCP congestion control over a shaped link.
//!
//! The fluid model in [`crate::tcp`] treats the sender as perfectly
//! greedy — the right abstraction for 10-second bandwidth summaries.
//! Some of the paper's finer observations are congestion-control
//! artifacts, though: the ramp that makes short GCE bursts slow
//! (Figure 5), and the way a token bucket's rate cliff looks like
//! persistent congestion to the sender (Figure 7's throttled regime).
//! This module adds a per-RTT Reno loop (slow start, congestion
//! avoidance, fast recovery on loss) driven by the same [`Shaper`] and
//! [`NicModel`] abstractions.
//!
//! The simulation advances one RTT per step: the sender offers `cwnd`
//! segments, the shaper admits what the policy allows, overflow and
//! random segment loss trigger multiplicative decrease.

use crate::nic::NicModel;
use crate::shaper::Shaper;

/// Configuration of a congestion-controlled flow.
#[derive(Debug, Clone, Copy)]
pub struct RenoConfig {
    /// Segment size in bytes (typically the NIC's max segment).
    pub segment_bytes: f64,
    /// Initial congestion window, segments.
    pub initial_cwnd: f64,
    /// Initial slow-start threshold, segments.
    pub initial_ssthresh: f64,
    /// Receive-window cap on cwnd, segments.
    pub max_cwnd: f64,
}

impl Default for RenoConfig {
    fn default() -> Self {
        RenoConfig {
            segment_bytes: 65_536.0,
            initial_cwnd: 10.0,
            initial_ssthresh: 512.0,
            max_cwnd: 4_096.0,
        }
    }
}

/// One RTT-round record of a congestion-controlled flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenoRound {
    /// Time at the start of the round, seconds.
    pub t: f64,
    /// Congestion window during the round, segments.
    pub cwnd: f64,
    /// Goodput achieved this round, bits/s.
    pub goodput_bps: f64,
    /// Observed RTT this round, seconds.
    pub rtt_s: f64,
    /// Whether a loss event ended the round.
    pub loss: bool,
}

/// Result of a congestion-controlled transfer.
#[derive(Debug, Clone)]
pub struct RenoResult {
    /// Per-round records.
    pub rounds: Vec<RenoRound>,
    /// Total payload delivered, bits.
    pub delivered_bits: f64,
    /// Total loss events.
    pub loss_events: usize,
}

impl RenoResult {
    /// Mean goodput over the whole transfer, bits/s.
    pub fn mean_goodput_bps(&self) -> f64 {
        let dur: f64 = self.rounds.iter().map(|r| r.rtt_s).sum();
        if dur <= 0.0 {
            0.0
        } else {
            self.delivered_bits / dur
        }
    }

    /// Time until goodput first reached `frac` of `target_bps`
    /// (`None` if never) — the burst ramp-up metric.
    pub fn time_to_fraction(&self, target_bps: f64, frac: f64) -> Option<f64> {
        let mut t = 0.0;
        for r in &self.rounds {
            if r.goodput_bps >= frac * target_bps {
                return Some(t);
            }
            t += r.rtt_s;
        }
        None
    }
}

/// Run a Reno flow for `duration_s` over `shaper` + `nic`.
pub fn run_reno<S: Shaper>(
    shaper: &mut S,
    nic: &mut NicModel,
    cfg: &RenoConfig,
    duration_s: f64,
) -> RenoResult {
    assert!(duration_s > 0.0, "duration must be positive");
    let seg_bits = cfg.segment_bytes * 8.0;
    let mut cwnd = cfg.initial_cwnd;
    let mut ssthresh = cfg.initial_ssthresh;
    let mut t = 0.0;
    let mut rounds = Vec::new();
    let mut delivered = 0.0;
    let mut loss_events = 0;

    while t < duration_s {
        // RTT for this round, at the current policy rate.
        let rate_now = shaper.rate_hint(t).max(1e6);
        let rtt = nic.sample_rtt(cfg.segment_bytes, rate_now).max(1e-5);

        // Offer a window's worth of data over one RTT.
        let offered_bits = cwnd * seg_bits;
        let granted = shaper.transmit(t, rtt, offered_bits);
        delivered += granted;

        // Loss: queue overflow — the window exceeded what the path
        // admitted by more than ~one bandwidth-delay product of
        // buffering — or random segment loss. The buffer allowance
        // keeps RTT jitter from reading as congestion.
        let overflow = granted < offered_bits * 0.5;
        let p_seg = nic.retrans_prob(cfg.segment_bytes, rate_now);
        let p_round = 1.0 - (1.0 - p_seg).powf(cwnd.max(1.0));
        let random_loss = nic.chance(p_round);
        let loss = overflow || random_loss;

        rounds.push(RenoRound {
            t,
            cwnd,
            goodput_bps: granted / rtt,
            rtt_s: rtt,
            loss,
        });

        if loss {
            loss_events += 1;
            // Fast recovery: halve the window.
            ssthresh = (cwnd / 2.0).max(2.0);
            cwnd = ssthresh;
        } else if cwnd < ssthresh {
            cwnd = (cwnd * 2.0).min(ssthresh); // slow start
        } else {
            cwnd += 1.0; // congestion avoidance
        }
        cwnd = cwnd.clamp(1.0, cfg.max_cwnd);
        t += rtt;
    }

    RenoResult {
        rounds,
        delivered_bits: delivered,
        loss_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::NicConfig;
    use crate::shaper::{StaticShaper, TokenBucket};
    use crate::units::{gbit, gbps};

    fn nic(rate: f64, seed: u64) -> NicModel {
        NicModel::new(NicConfig::gce_virtio(rate), seed)
    }

    #[test]
    fn converges_to_link_rate() {
        let mut shaper = StaticShaper::new(gbps(10.0));
        let mut n = nic(gbps(10.0), 1);
        let res = run_reno(&mut shaper, &mut n, &RenoConfig::default(), 30.0);
        // Long-run goodput near the link rate (sawtooth + random loss
        // keep it a bit below).
        let mean = res.mean_goodput_bps();
        assert!(mean > gbps(6.0) && mean <= gbps(10.0) + 1.0, "mean {mean}");
    }

    #[test]
    fn slow_start_doubles_until_threshold() {
        let mut shaper = StaticShaper::new(gbps(100.0)); // no constraint
        let mut n = nic(gbps(100.0), 2);
        let cfg = RenoConfig {
            initial_cwnd: 2.0,
            initial_ssthresh: 64.0,
            ..Default::default()
        };
        let res = run_reno(&mut shaper, &mut n, &cfg, 1.0);
        let windows: Vec<f64> = res.rounds.iter().map(|r| r.cwnd).take(6).collect();
        assert_eq!(&windows[..5], &[2.0, 4.0, 8.0, 16.0, 32.0]);
    }

    #[test]
    fn ramp_up_takes_multiple_rtts() {
        // The Figure 5 mechanism seen from TCP's side: a fresh flow
        // needs several RTTs before filling a fat pipe, so short bursts
        // average less throughput.
        let mut shaper = StaticShaper::new(gbps(16.0));
        let mut n = nic(gbps(16.0), 3);
        let cfg = RenoConfig {
            initial_cwnd: 10.0,
            ..Default::default()
        };
        let res = run_reno(&mut shaper, &mut n, &cfg, 10.0);
        let ramp = res.time_to_fraction(gbps(16.0), 0.9);
        assert!(ramp.is_some());
        let ramp = ramp.unwrap();
        assert!(ramp > 0.005 && ramp < 3.0, "ramp {ramp}");
    }

    #[test]
    fn token_bucket_cliff_looks_like_congestion() {
        // A bucket that empties quickly: the flow rides at 10 Gbps,
        // then the policy cliff forces repeated multiplicative
        // decreases — cwnd (and goodput) collapse to the low rate.
        let mut shaper = TokenBucket::sigma_rho(gbit(10.0), gbps(1.0), gbps(10.0));
        let mut n = nic(gbps(10.0), 4);
        let res = run_reno(&mut shaper, &mut n, &RenoConfig::default(), 30.0);
        assert!(res.loss_events > 3, "losses {}", res.loss_events);
        // The flow touches the 10 Gbps high rate while tokens last...
        let peak = res
            .rounds
            .iter()
            .map(|r| r.goodput_bps)
            .fold(0.0, f64::max);
        assert!(peak > gbps(7.0), "peak {peak}");
        // ...but the bucket caps time-weighted goodput near the refill
        // rate: ≤ (10 Gbit budget + 30 s × 1 Gbps) / 30 s ≈ 1.33 Gbps.
        let mean = res.mean_goodput_bps();
        assert!(mean < gbps(1.8), "mean {mean}");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut shaper = StaticShaper::new(gbps(10.0));
            let mut n = nic(gbps(10.0), 9);
            run_reno(&mut shaper, &mut n, &RenoConfig::default(), 5.0).delivered_bits
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cwnd_respects_bounds() {
        let mut shaper = StaticShaper::new(gbps(1.0));
        let mut n = nic(gbps(1.0), 11);
        let cfg = RenoConfig {
            max_cwnd: 64.0,
            ..Default::default()
        };
        let res = run_reno(&mut shaper, &mut n, &cfg, 10.0);
        assert!(res.rounds.iter().all(|r| r.cwnd >= 1.0 && r.cwnd <= 64.0));
    }
}
