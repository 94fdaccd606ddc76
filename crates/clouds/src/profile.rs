//! The unified [`CloudProfile`] type and VM instantiation.

use netsim::faults::FaultConfig;
use netsim::nic::{NicConfig, NicModel};
use netsim::rng::SimRng;
use netsim::shaper::{NoiseConfig, NoiseShaper, PerCoreQos, PerCoreQosConfig, Shaper, TokenBucket};
use netsim::units::{gbit, gbps};

/// Cloud provider identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    /// Amazon EC2 (us-east), token-bucket QoS.
    AmazonEc2,
    /// Google Cloud (us-east), per-core QoS.
    GoogleCloud,
    /// SURFsara HPCCloud, no QoS.
    HpcCloud,
}

impl Provider {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Provider::AmazonEc2 => "Amazon",
            Provider::GoogleCloud => "Google",
            Provider::HpcCloud => "HPCCloud",
        }
    }
}

/// Measurement era: the paper observed a policy change in August 2019
/// (c5.xlarge NICs began arriving capped at 5 Gbps, "though not
/// consistently") — finding F5.2's motivating example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Era {
    /// Before August 2019: c5.xlarge always got 10 Gbps NICs.
    PreAug2019,
    /// From August 2019: a fraction of c5.xlarge NICs are 5 Gbps.
    PostAug2019,
}

/// The QoS mechanism a profile uses (Section 3.3's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QosModel {
    /// EC2-style token bucket (σ = budget, peak = high, ρ = low).
    TokenBucket {
        /// Nominal token budget in Gbit.
        budget_gbit: f64,
        /// Peak rate in Gbps.
        high_gbps: f64,
        /// Sustained/refill rate in Gbps.
        low_gbps: f64,
    },
    /// GCE-style per-core bandwidth guarantee.
    PerCore {
        /// Guaranteed Gbps per vCPU.
        per_core_gbps: f64,
    },
    /// No QoS: contention noise on a shared link.
    Contention {
        /// Uncontended capacity in Gbps.
        capacity_gbps: f64,
    },
    /// Dedicated bandwidth (large instances with a full NIC), still
    /// subject to light noise.
    Dedicated {
        /// Line rate in Gbps.
        rate_gbps: f64,
    },
}

/// A cloud + instance-type profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudProfile {
    /// Provider.
    pub provider: Provider,
    /// Instance type label (e.g. "c5.xlarge", "8 core").
    pub instance_type: &'static str,
    /// vCPU count.
    pub cores: u32,
    /// Advertised network QoS in Gbps (`None` where the provider makes
    /// no statement — Table 3's "N/A" for HPCCloud).
    pub advertised_gbps: Option<f64>,
    /// On-demand price per VM-hour in USD (`None` for the research
    /// cloud). Used to reproduce Table 3's cost column.
    pub price_per_hour_usd: Option<f64>,
    /// QoS mechanism.
    pub qos: QosModel,
    /// Fault-rate parameters for long campaigns on this profile.
    /// [`FaultConfig::NONE`] (the default in every stock profile) keeps
    /// all fault-free goldens bit-identical; call
    /// [`CloudProfile::with_reference_faults`] to switch on
    /// provider-typical rates.
    pub faults: FaultConfig,
}

/// A VM's egress shaper: one variant per shaper a [`QosModel`] builds.
///
/// Implements [`Shaper`] by forwarding every method to the variant, so
/// per-tick calls dispatch by a `match` the compiler can inline instead
/// of through a vtable.
pub enum VmShaper {
    /// EC2-style token bucket ([`QosModel::TokenBucket`]).
    TokenBucket(TokenBucket),
    /// GCE-style per-core QoS ([`QosModel::PerCore`]).
    PerCore(PerCoreQos),
    /// Contention noise ([`QosModel::Contention`] and
    /// [`QosModel::Dedicated`]).
    Noise(NoiseShaper),
}

/// Forward one [`Shaper`] call to whichever shaper `$vm` holds.
macro_rules! forward {
    ($vm:expr, $s:ident => $call:expr) => {
        match $vm {
            VmShaper::TokenBucket($s) => $call,
            VmShaper::PerCore($s) => $call,
            VmShaper::Noise($s) => $call,
        }
    };
}

impl Shaper for VmShaper {
    #[inline]
    fn transmit(&mut self, now: f64, dt: f64, demand_bits: f64) -> f64 {
        forward!(self, s => s.transmit(now, dt, demand_bits))
    }

    #[inline]
    fn rate_hint(&self, now: f64) -> f64 {
        forward!(self, s => s.rate_hint(now))
    }

    #[inline]
    fn reset(&mut self) {
        forward!(self, s => s.reset())
    }

    #[inline]
    fn token_budget_bits(&self) -> Option<f64> {
        forward!(self, s => s.token_budget_bits())
    }

    #[inline]
    fn rest(&mut self, now: f64, dt: f64, steps: u64) {
        forward!(self, s => s.rest(now, dt, steps))
    }

    #[inline]
    fn hint_stable_steps(&self, now: f64, dt: f64) -> u64 {
        forward!(self, s => s.hint_stable_steps(now, dt))
    }

    #[inline]
    fn hint_stable_steps_busy(&self, now: f64, dt: f64, demand_bits: f64) -> u64 {
        forward!(self, s => s.hint_stable_steps_busy(now, dt, demand_bits))
    }
}

/// An instantiated VM pair endpoint: egress shaper + virtual NIC.
///
/// Incarnation-specific parameters (bucket constants, NIC caps) are
/// already sampled; a fresh `Vm` corresponds to the paper's "fresh set
/// of VMs" with a full token budget.
pub struct Vm {
    /// Egress shaper implementing the provider's QoS policy, as the
    /// concrete [`VmShaper`] its [`QosModel`] selects.
    pub shaper: VmShaper,
    /// Virtual NIC model (latency + retransmissions).
    pub nic: NicModel,
    /// The sampled line rate in bits/s (post-incarnation; e.g. 5 Gbps
    /// for an unlucky post-Aug-2019 c5.xlarge).
    pub line_rate_bps: f64,
    /// The sampled token budget in bits (0 for non-bucket clouds).
    pub budget_bits: f64,
}

impl CloudProfile {
    /// Instantiate a VM in the pre-August-2019 era (the bulk of the
    /// paper's data).
    pub fn instantiate(&self, seed: u64) -> Vm {
        self.instantiate_in_era(seed, Era::PreAug2019)
    }

    /// Instantiate a VM with era-dependent policy sampling.
    pub fn instantiate_in_era(&self, seed: u64, era: Era) -> Vm {
        let mut rng = SimRng::new(seed);
        match self.qos {
            QosModel::TokenBucket {
                budget_gbit,
                high_gbps,
                low_gbps,
            } => {
                // Incarnation jitter: Figure 11's boxplots show ~±15%
                // spread in time-to-empty across incarnations, with
                // bounded whiskers — clamp the tail accordingly.
                let budget = gbit(budget_gbit) * rng.lognormal(0.0, 0.10).clamp(0.70, 1.40);
                let mut high = gbps(high_gbps);
                // Post-Aug-2019 policy: some c5.xlarge NICs come capped
                // at 5 Gbps, "though not consistently".
                if era == Era::PostAug2019
                    && self.instance_type == "c5.xlarge"
                    && rng.chance(0.4)
                {
                    high = gbps(5.0);
                }
                let low = gbps(low_gbps) * rng.lognormal(0.0, 0.05);
                let low = low.min(high);
                let tb = TokenBucket::new(budget, budget, high, low, low);
                Vm {
                    shaper: VmShaper::TokenBucket(tb),
                    nic: NicModel::new(NicConfig::ec2_ena(high), rng.fork(1).uniform().to_bits()),
                    line_rate_bps: high,
                    budget_bits: budget,
                }
            }
            QosModel::PerCore { per_core_gbps } => {
                let mut cfg = PerCoreQosConfig::gce(self.cores);
                cfg.per_core_bps = gbps(per_core_gbps);
                let line = gbps(per_core_gbps) * self.cores as f64;
                let sub = rng.fork(2).uniform().to_bits();
                Vm {
                    shaper: VmShaper::PerCore(PerCoreQos::new(cfg, seed ^ 0x9e37)),
                    nic: NicModel::new(NicConfig::gce_virtio(line), sub),
                    line_rate_bps: line,
                    budget_bits: 0.0,
                }
            }
            QosModel::Contention { capacity_gbps } => {
                let mut cfg = NoiseConfig::hpccloud();
                cfg.capacity_bps = gbps(capacity_gbps);
                let line = gbps(capacity_gbps);
                let sub = rng.fork(3).uniform().to_bits();
                Vm {
                    shaper: VmShaper::Noise(NoiseShaper::new(cfg, seed ^ 0x51f1)),
                    nic: NicModel::new(NicConfig::plain(line), sub),
                    line_rate_bps: line,
                    budget_bits: 0.0,
                }
            }
            QosModel::Dedicated { rate_gbps } => {
                // Dedicated links still show light variability (Table 3
                // marks every experiment "Yes").
                let cfg = NoiseConfig {
                    capacity_bps: gbps(rate_gbps),
                    ar_sigma: 0.006,
                    ar_phi: 0.8,
                    contention_rate_per_s: 1.0 / 7200.0,
                    contention_min_frac: 0.02,
                    contention_alpha: 2.5,
                    contention_max_frac: 0.08,
                    contention_mean_dur_s: 120.0,
                };
                let line = gbps(rate_gbps);
                let sub = rng.fork(4).uniform().to_bits();
                Vm {
                    shaper: VmShaper::Noise(NoiseShaper::new(cfg, seed ^ 0xded1)),
                    nic: NicModel::new(NicConfig::ec2_ena(line), sub),
                    line_rate_bps: line,
                    budget_bits: 0.0,
                }
            }
        }
    }

    /// The same profile with an explicit fault configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// The same profile with provider-typical fault rates switched on
    /// (see [`reference_faults`]).
    pub fn with_reference_faults(self) -> Self {
        let f = reference_faults(self.provider);
        self.with_faults(f)
    }

    /// The nominal token budget in Gbit (0 if not a token bucket).
    pub fn nominal_budget_gbit(&self) -> f64 {
        match self.qos {
            QosModel::TokenBucket { budget_gbit, .. } => budget_gbit,
            _ => 0.0,
        }
    }

    /// Predicted time-to-empty at full speed in seconds, using nominal
    /// parameters (`None` for non-bucket QoS).
    pub fn nominal_time_to_empty_s(&self) -> Option<f64> {
        match self.qos {
            QosModel::TokenBucket {
                budget_gbit,
                high_gbps,
                low_gbps,
            } => Some(budget_gbit / (high_gbps - low_gbps)),
            _ => None,
        }
    }
}

/// Provider-typical fault rates for week-scale campaigns.
///
/// The numbers are order-of-magnitude estimates consistent with the
/// related work the paper builds on: Gent & Kotthoff observe VM-level
/// timing anomalies (stalls) on virtualised hardware at roughly a
/// handful of events per VM-day, and Henning et al.'s daily/weekly
/// variability regimes imply hour-scale capacity-degradation episodes.
/// The private HPCCloud — no QoS, little statistical multiplexing —
/// degrades more often but stalls less (no aggressive hypervisor
/// scheduling); the hyperscalers stall more (live migration,
/// maintenance) but degrade less.
pub fn reference_faults(provider: Provider) -> FaultConfig {
    match provider {
        Provider::AmazonEc2 => FaultConfig {
            stall_rate_per_hour: 0.15,
            stall_mean_s: 20.0,
            degrade_rate_per_hour: 0.05,
            degrade_mean_s: 180.0,
            degrade_min_factor: 0.3,
            degrade_max_factor: 0.8,
            loss_rate_per_hour: 0.10,
            loss_mean_s: 15.0,
            loss_frac: 0.4,
            probe_loss_prob: 0.002,
            pair_death_rate_per_hour: 0.001,
        },
        Provider::GoogleCloud => FaultConfig {
            stall_rate_per_hour: 0.20,
            stall_mean_s: 10.0,
            degrade_rate_per_hour: 0.04,
            degrade_mean_s: 240.0,
            degrade_min_factor: 0.4,
            degrade_max_factor: 0.85,
            loss_rate_per_hour: 0.08,
            loss_mean_s: 12.0,
            loss_frac: 0.35,
            probe_loss_prob: 0.002,
            pair_death_rate_per_hour: 0.001,
        },
        Provider::HpcCloud => FaultConfig {
            stall_rate_per_hour: 0.05,
            stall_mean_s: 45.0,
            degrade_rate_per_hour: 0.25,
            degrade_mean_s: 300.0,
            degrade_min_factor: 0.5,
            degrade_max_factor: 0.9,
            loss_rate_per_hour: 0.15,
            loss_mean_s: 30.0,
            loss_frac: 0.25,
            probe_loss_prob: 0.004,
            pair_death_rate_per_hour: 0.002,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ec2;

    #[test]
    fn incarnations_differ_but_are_reproducible() {
        let p = ec2::c5_xlarge();
        let a = p.instantiate(1);
        let b = p.instantiate(2);
        let a2 = p.instantiate(1);
        assert_ne!(a.budget_bits, b.budget_bits);
        assert_eq!(a.budget_bits, a2.budget_bits);
    }

    #[test]
    fn post_aug_2019_sometimes_caps_at_5gbps() {
        let p = ec2::c5_xlarge();
        let mut caps = 0;
        let n = 200;
        for seed in 0..n {
            let vm = p.instantiate_in_era(seed, Era::PostAug2019);
            if (vm.line_rate_bps - gbps(5.0)).abs() < 1.0 {
                caps += 1;
            } else {
                assert!((vm.line_rate_bps - gbps(10.0)).abs() < 1.0);
            }
        }
        // ~40% should be capped; pre-era never.
        assert!(caps > n / 5 && caps < (3 * n) / 5, "caps {caps}");
        for seed in 0..50 {
            let vm = p.instantiate_in_era(seed, Era::PreAug2019);
            assert!((vm.line_rate_bps - gbps(10.0)).abs() < 1.0);
        }
    }

    #[test]
    fn nominal_tte_matches_paper() {
        let p = ec2::c5_xlarge();
        let tte = p.nominal_time_to_empty_s().unwrap();
        assert!((tte - 555.5).abs() < 5.0, "tte {tte}");
    }

    #[test]
    fn stock_profiles_have_faults_off() {
        for p in ec2::all() {
            assert!(p.faults.is_off(), "{} ships with faults on", p.instance_type);
        }
    }

    #[test]
    fn reference_faults_are_on_and_provider_specific() {
        let p = ec2::c5_xlarge().with_reference_faults();
        assert!(!p.faults.is_off());
        assert_eq!(p.faults, reference_faults(Provider::AmazonEc2));
        assert_ne!(
            reference_faults(Provider::AmazonEc2),
            reference_faults(Provider::HpcCloud)
        );
        // Degrade factors must be valid rate multipliers.
        for prov in [Provider::AmazonEc2, Provider::GoogleCloud, Provider::HpcCloud] {
            let f = reference_faults(prov);
            assert!(f.degrade_min_factor > 0.0 && f.degrade_max_factor <= 1.0);
            assert!(f.degrade_min_factor <= f.degrade_max_factor);
            assert!((0.0..1.0).contains(&f.loss_frac));
            assert!((0.0..1.0).contains(&f.probe_loss_prob));
        }
    }

    #[test]
    fn provider_names() {
        assert_eq!(Provider::AmazonEc2.name(), "Amazon");
        assert_eq!(Provider::GoogleCloud.name(), "Google");
        assert_eq!(Provider::HpcCloud.name(), "HPCCloud");
    }
}
