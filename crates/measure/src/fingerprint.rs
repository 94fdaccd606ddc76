//! Performance fingerprints — finding F5.2.
//!
//! "Even within a single cloud, it is important to establish baselines
//! for expected network behavior. These baselines should be published
//! along with results, and need to be verified before beginning new
//! experiments." The paper's motivating incident: from August 2019,
//! freshly-allocated c5.xlarge NICs sometimes arrived capped at 5 Gbps
//! instead of 10 Gbps — invalidating comparisons against earlier runs
//! unless the change is detected.
//!
//! A [`Fingerprint`] captures the micro-benchmarks F5.2 lists: base
//! latency, base bandwidth, latency under load, and token-bucket
//! parameters when present. [`Fingerprint::drift`] compares two
//! fingerprints and reports what moved.

use crate::latency::rtt_stream;
use crate::probe::probe_token_bucket;
use clouds::CloudProfile;
use netsim::pattern::TrafficPattern;
use netsim::tcp::{StreamConfig, StreamSim};
/// Token-bucket portion of a fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketFingerprint {
    /// Observed time-to-empty at full speed, seconds.
    pub time_to_empty_s: f64,
    /// High (pre-drop) bandwidth, Gbps.
    pub high_gbps: f64,
    /// Low (post-drop) bandwidth, Gbps.
    pub low_gbps: f64,
}

/// A network-behaviour baseline for one cloud + instance type.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Provider name.
    pub provider: String,
    /// Instance type.
    pub instance_type: String,
    /// Fresh-VM bandwidth over a short burst, Gbps.
    pub base_bandwidth_gbps: f64,
    /// Mean RTT of a lightly-loaded stream, milliseconds.
    pub base_rtt_ms: f64,
    /// Mean RTT under sustained foreground traffic, milliseconds.
    pub loaded_rtt_ms: f64,
    /// Token-bucket parameters, when the cloud has one.
    pub token_bucket: Option<BucketFingerprint>,
}

/// One detected difference between two fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftFinding {
    /// Which metric moved.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// `|current − baseline| / baseline`.
    pub relative_change: f64,
}

impl Fingerprint {
    /// Capture a fingerprint of `profile`.
    ///
    /// `probe_bucket` controls whether the (slow) token-bucket probe
    /// runs; without it `token_bucket` is `None` even on EC2.
    pub fn capture(profile: &CloudProfile, seed: u64, probe_bucket: bool) -> Fingerprint {
        // Base bandwidth: a 30 s fresh-VM burst.
        let mut vm = profile.instantiate(seed);
        let cfg = StreamConfig::new(30.0, TrafficPattern::FullSpeed);
        let res = StreamSim::run(&mut vm.shaper, &mut vm.nic, &cfg);
        let base_bw = res.bandwidth.mean_bandwidth() / 1e9;

        // Base RTT: 9 K writes (below every MTU/TSO threshold) on a
        // fresh VM — the least-loaded latency the path offers.
        let mut vm = profile.instantiate(seed);
        let base_rtt = rtt_stream(&mut vm, 20.0, 9_000.0, 50).mean() * 1e3;

        // Loaded RTT: iperf-default 128 K writes (sustained foreground
        // traffic), on a fresh VM too. Each stream starts its clock at
        // t = 0, so running it on the VM the base-RTT stream just used
        // would rewind that VM's shapers.
        let mut vm = profile.instantiate(seed);
        let loaded_rtt = rtt_stream(&mut vm, 60.0, 131_072.0, 50).mean() * 1e3;

        let token_bucket = if probe_bucket {
            probe_token_bucket(profile, seed, 3_000.0).map(|e| BucketFingerprint {
                time_to_empty_s: e.time_to_empty_s,
                high_gbps: e.high_bps / 1e9,
                low_gbps: e.low_bps / 1e9,
            })
        } else {
            None
        };

        Fingerprint {
            provider: profile.provider.name().to_string(),
            instance_type: profile.instance_type.to_string(),
            base_bandwidth_gbps: base_bw,
            base_rtt_ms: base_rtt,
            loaded_rtt_ms: loaded_rtt,
            token_bucket,
        }
    }

    /// Compare against a baseline; report every metric whose relative
    /// change exceeds `tolerance` (e.g. 0.15 for 15%).
    pub fn drift(&self, baseline: &Fingerprint, tolerance: f64) -> Vec<DriftFinding> {
        let mut findings = Vec::new();
        let mut check = |metric: &str, base: f64, cur: f64| {
            if base == 0.0 {
                return;
            }
            let rel = (cur - base).abs() / base.abs();
            if rel > tolerance {
                findings.push(DriftFinding {
                    metric: metric.to_string(),
                    baseline: base,
                    current: cur,
                    relative_change: rel,
                });
            }
        };
        check(
            "base_bandwidth_gbps",
            baseline.base_bandwidth_gbps,
            self.base_bandwidth_gbps,
        );
        check("base_rtt_ms", baseline.base_rtt_ms, self.base_rtt_ms);
        check("loaded_rtt_ms", baseline.loaded_rtt_ms, self.loaded_rtt_ms);
        match (baseline.token_bucket, self.token_bucket) {
            (Some(b), Some(c)) => {
                check("bucket.time_to_empty_s", b.time_to_empty_s, c.time_to_empty_s);
                check("bucket.high_gbps", b.high_gbps, c.high_gbps);
                check("bucket.low_gbps", b.low_gbps, c.low_gbps);
            }
            (Some(_), None) | (None, Some(_)) => findings.push(DriftFinding {
                metric: "token_bucket.presence".to_string(),
                baseline: baseline.token_bucket.is_some() as u8 as f64,
                current: self.token_bucket.is_some() as u8 as f64,
                relative_change: 1.0,
            }),
            (None, None) => {}
        }
        findings
    }

    /// Does this fingerprint match the baseline within `tolerance`?
    /// F5.5: "only comparing results to future experiments when these
    /// baselines match".
    pub fn matches(&self, baseline: &Fingerprint, tolerance: f64) -> bool {
        self.drift(baseline, tolerance).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clouds::Era;

    #[test]
    fn same_profile_same_seed_matches_itself() {
        let p = clouds::gce::n_core(8);
        let a = Fingerprint::capture(&p, 1, false);
        let b = Fingerprint::capture(&p, 1, false);
        assert_eq!(a, b);
        assert!(a.matches(&b, 0.05));
    }

    #[test]
    fn different_incarnations_match_within_tolerance() {
        let p = clouds::gce::n_core(8);
        let a = Fingerprint::capture(&p, 1, false);
        let b = Fingerprint::capture(&p, 2, false);
        assert!(a.matches(&b, 0.5), "drift {:?}", a.drift(&b, 0.5));
    }

    #[test]
    fn detects_the_august_2019_nic_cap() {
        // Find a post-era seed that drew the 5 Gbps cap and verify the
        // fingerprint flags it against a pre-era baseline.
        let p = clouds::ec2::c5_xlarge();
        let baseline = Fingerprint::capture(&p, 1, false);
        let capped_seed = (0..100)
            .find(|&s| {
                let vm = p.instantiate_in_era(s, Era::PostAug2019);
                (vm.line_rate_bps - 5e9).abs() < 1.0
            })
            .expect("some seed draws the cap");
        // Capture with era semantics by hand: a capped VM's burst.
        let mut vm = p.instantiate_in_era(capped_seed, Era::PostAug2019);
        let cfg = StreamConfig::new(30.0, TrafficPattern::FullSpeed);
        let res = StreamSim::run(&mut vm.shaper, &mut vm.nic, &cfg);
        let mut current = baseline.clone();
        current.base_bandwidth_gbps = res.bandwidth.mean_bandwidth() / 1e9;
        let drift = current.drift(&baseline, 0.15);
        assert_eq!(drift.len(), 1);
        assert_eq!(drift[0].metric, "base_bandwidth_gbps");
        assert!(drift[0].relative_change > 0.4, "{:?}", drift[0]);
    }

    #[test]
    fn bucket_probe_included_when_requested() {
        let p = clouds::ec2::c5_xlarge();
        let f = Fingerprint::capture(&p, 3, true);
        let b = f.token_bucket.expect("bucket expected");
        assert!((b.high_gbps - 10.0).abs() < 0.5);
        assert!((b.low_gbps - 1.0).abs() < 0.3);
        // And absent when not probed.
        let f2 = Fingerprint::capture(&p, 3, false);
        assert!(f2.token_bucket.is_none());
        // Presence difference is drift.
        let d = f2.drift(&f, 0.15);
        assert!(d.iter().any(|x| x.metric == "token_bucket.presence"));
    }

    /// The loaded-RTT stream runs on a fresh VM: bit for bit the mean
    /// RTT of the same stream on a VM instantiated for it alone.
    #[test]
    fn loaded_rtt_is_measured_on_a_fresh_vm() {
        for p in [clouds::gce::n_core(8), clouds::hpccloud::n_core(8)] {
            let f = Fingerprint::capture(&p, 6, false);
            let mut vm = p.instantiate(6);
            let want = rtt_stream(&mut vm, 60.0, 131_072.0, 50).mean() * 1e3;
            assert_eq!(f.loaded_rtt_ms.to_bits(), want.to_bits(), "{}", p.provider.name());
        }
    }

    #[test]
    fn ec2_loaded_latency_exceeds_base() {
        let p = clouds::ec2::c5_xlarge();
        let f = Fingerprint::capture(&p, 4, false);
        assert!(f.base_rtt_ms < 1.0, "base {}", f.base_rtt_ms);
        assert!(f.loaded_rtt_ms >= f.base_rtt_ms * 0.8);
    }
}
