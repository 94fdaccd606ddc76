//! Bandwidth measurement campaigns (Section 3.1).
//!
//! "In the studied clouds, for each pair of VMs of similar instance
//! types, we measured bandwidth continuously for one week" under three
//! access patterns, summarizing every 10 seconds. [`run_campaign`]
//! reproduces one such pair-week (or any other duration) against a
//! simulated cloud profile.

use crate::error::MeasureError;
use crate::resume::SupervisionStats;
use crate::wire::{ShardOutcome, ShardSim};
use clouds::{CloudProfile, VmShaper};
use exec::{RetryAccountant, TaskPanic};
use netsim::faults::{FaultInjector, FaultSchedule};
use netsim::pattern::TrafficPattern;
use netsim::rng::{derive_seed, SimRng};
use netsim::shaper::{MinShaper, Shaper, StaticShaper};
use netsim::tcp::{StreamConfig, StreamSim};
use netsim::trace::BandwidthTrace;
use std::collections::BTreeMap;
use vstats::describe::Summary;
use vstats::sketch::Coverage;

/// Seed-derivation labels: fault timeline, per-sample probe loss, and
/// pair death draws must come from decoupled streams so that turning
/// one fault class on never perturbs another.
const LABEL_FAULT_TIMELINE: u64 = 0xFA17;
const LABEL_PROBE_LOSS: u64 = 0x9B10;
const LABEL_PAIR_DEATH: u64 = 0xD347;

/// Why a stretch of a campaign trace has no data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapCause {
    /// The VM was stalled (hypervisor pause / reboot).
    VmStall,
    /// The measurement harness lost the probe result.
    ProbeLoss,
    /// The VM pair died and never came back.
    PairDeath,
}

impl GapCause {
    /// Stable label for reports and CSV exports.
    pub fn label(&self) -> &'static str {
        match self {
            GapCause::VmStall => "vm-stall",
            GapCause::ProbeLoss => "probe-loss",
            GapCause::PairDeath => "pair-death",
        }
    }
}

/// A hole in a campaign trace: `[start_s, end_s)` produced no usable
/// samples, and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceGap {
    /// Gap start, seconds into the campaign.
    pub start_s: f64,
    /// Gap end (exclusive), seconds into the campaign.
    pub end_s: f64,
    /// What ate the data.
    pub cause: GapCause,
}

impl TraceGap {
    /// Gap length in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Result of one measurement campaign (one VM pair, one pattern).
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Provider name ("Amazon", "Google", "HPCCloud").
    pub provider: &'static str,
    /// Instance type label.
    pub instance_type: &'static str,
    /// Traffic pattern label ("full-speed", "10-30", "5-30").
    pub pattern: String,
    /// Campaign duration in seconds (as requested — a pair that died
    /// early keeps the requested duration here and a
    /// [`GapCause::PairDeath`] gap for the missing stretch).
    pub duration_s: f64,
    /// The 10-second bandwidth summaries that survived (samples lost to
    /// faults are removed from the trace and recorded in `gaps`).
    pub trace: BandwidthTrace,
    /// Descriptive statistics of the surviving per-interval bandwidths.
    pub summary: Summary,
    /// Holes in the trace, merged and ordered by start time. Empty for
    /// a fault-free campaign.
    pub gaps: Vec<TraceGap>,
    /// Gap-aware accounting: how many samples were expected, how many
    /// arrived, and how many gaps `gaps` holds. `coverage() == 1.0` for
    /// a fault-free campaign.
    pub coverage: Coverage,
    /// Total retransmissions observed.
    pub total_retransmissions: u64,
    /// Total bits transferred.
    pub total_bits: f64,
    /// Cost of the pair for the duration, USD (None for HPCCloud). A
    /// pair that died early is billed to its death, not the full
    /// requested duration.
    pub cost_usd: Option<f64>,
}

impl CampaignResult {
    /// Table 3's "Exhibits Variability" column: does the campaign show
    /// non-trivial bandwidth variability? (Coefficient of variation
    /// above 1% or a consecutive-sample swing above 5%.)
    pub fn exhibits_variability(&self) -> bool {
        self.summary.cov > 0.01 || self.trace.max_consecutive_swing() > 0.05
    }

    /// Mean goodput while transmitting, bits/s.
    pub fn mean_bandwidth_bps(&self) -> f64 {
        self.summary.mean
    }

    /// Fraction of expected samples that survived, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.coverage.coverage()
    }

    /// Whether any samples were lost to faults.
    pub fn is_degraded(&self) -> bool {
        self.coverage.is_degraded()
    }

    /// Total seconds of the campaign covered by gaps.
    pub fn gapped_time_s(&self) -> f64 {
        self.gaps.iter().map(|g| g.duration_s()).sum()
    }

    /// The one constructor, shared by the live campaign and the journal
    /// decoder so that both derive the same bits: the summary and
    /// coverage of the surviving samples, the trace totals, and the
    /// pair's cost for `billed_s` seconds (a pair that died early is
    /// billed to its death, not to `duration_s`). `gaps` must already
    /// be merged. `None` when no sample survived or `expected_n` is
    /// below the sample count.
    pub(crate) fn derive(
        profile: &CloudProfile,
        pattern: TrafficPattern,
        duration_s: f64,
        mut trace: BandwidthTrace,
        gaps: Vec<TraceGap>,
        expected_n: u64,
        billed_s: f64,
    ) -> Option<CampaignResult> {
        let bandwidths = trace.bandwidths();
        let observed = bandwidths.len() as u64;
        if observed == 0 || expected_n < observed {
            return None;
        }
        trace.samples.shrink_to_fit();
        let hours = billed_s / 3600.0;
        Some(CampaignResult {
            provider: profile.provider.name(),
            instance_type: profile.instance_type,
            pattern: pattern.label(),
            duration_s,
            summary: Summary::from_samples(&bandwidths),
            coverage: Coverage { expected: expected_n, observed, gaps: gaps.len() as u64 },
            gaps,
            total_retransmissions: trace.total_retransmissions(),
            total_bits: trace.total_bits(),
            cost_usd: profile.price_per_hour_usd.map(|p| p * 2.0 * hours),
            trace,
        })
    }
}

/// Run a campaign of `duration_s` seconds on `profile` under `pattern`.
///
/// `seed` selects the VM incarnation and all stochastic behaviour; the
/// same seed reproduces the campaign bit-for-bit — including any fault
/// episodes, which are generated from a derived seed when the profile's
/// [`FaultConfig`](netsim::faults::FaultConfig) is switched on.
/// Samples lost to VM stalls or probe loss are removed from the trace
/// and recorded as [`TraceGap`]s; with faults off the result is
/// identical to the pre-fault-layer harness.
///
/// Returns [`MeasureError::EmptyTrace`] when no samples survive (the
/// duration is too short for the pattern, or faults ate everything).
///
/// ```
/// use measure::run_campaign;
/// use netsim::TrafficPattern;
///
/// let profile = clouds::hpccloud::n_core(8);
/// let res = run_campaign(&profile, TrafficPattern::FullSpeed, 7200.0, 7).unwrap();
/// assert_eq!(res.provider, "HPCCloud");
/// assert!(res.exhibits_variability()); // a contention episode hit
/// assert!(res.summary.max <= 10.4e9 + 1.0); // Figure 4's ceiling
/// assert!(!res.is_degraded()); // stock profiles have faults off
/// ```
pub fn run_campaign(
    profile: &CloudProfile,
    pattern: TrafficPattern,
    duration_s: f64,
    seed: u64,
) -> Result<CampaignResult, MeasureError> {
    run_campaign_with(profile, pattern, duration_s, seed, |vm_shaper| vm_shaper)
}

/// [`run_campaign`] with an optional external bandwidth ceiling in
/// bits/s — the per-tenant path capacity a [`topo`] wiring derived for
/// the tenant's placement. `None` takes **the exact [`run_campaign`]
/// code path** (not an infinite-cap shaper), preserving the flat-
/// equivalence contract: topology-free campaigns are byte-identical
/// with and without the topology layer compiled in. `Some(cap)`
/// composes the ceiling under the profile's own shaper with
/// [`MinShaper`], in both the fault-free and fault-injected arms.
pub fn run_campaign_capped(
    profile: &CloudProfile,
    pattern: TrafficPattern,
    duration_s: f64,
    seed: u64,
    path_cap_bps: Option<f64>,
) -> Result<CampaignResult, MeasureError> {
    match path_cap_bps {
        None => run_campaign(profile, pattern, duration_s, seed),
        Some(cap) => run_campaign_with(profile, pattern, duration_s, seed, |vm_shaper| {
            MinShaper::new(vm_shaper, StaticShaper::new(cap))
        }),
    }
}

/// The one campaign body: instantiate the VM, let `wrap` compose its
/// shaper (identity, or a path ceiling), run the stream with or
/// without fault injection, and package the surviving trace.
fn run_campaign_with<S: Shaper>(
    profile: &CloudProfile,
    pattern: TrafficPattern,
    duration_s: f64,
    seed: u64,
    wrap: impl FnOnce(VmShaper) -> S,
) -> Result<CampaignResult, MeasureError> {
    let mut vm = profile.instantiate(seed);
    let mut shaper = wrap(vm.shaper);
    let cfg = StreamConfig::new(duration_s, pattern);

    let (bandwidth, gaps) = if profile.faults.is_off() {
        // Fault-free path: byte-identical to the original harness.
        let res = StreamSim::run(&mut shaper, &mut vm.nic, &cfg);
        (res.bandwidth, Vec::new())
    } else {
        let schedule = FaultSchedule::generate(
            &profile.faults,
            1,
            duration_s,
            derive_seed(seed, LABEL_FAULT_TIMELINE),
        );
        let mut shaper = FaultInjector::new(shaper, 0, schedule);
        let res = StreamSim::run(&mut shaper, &mut vm.nic, &cfg);
        censor_trace(
            res.bandwidth,
            shaper.schedule(),
            profile.faults.probe_loss_prob,
            derive_seed(seed, LABEL_PROBE_LOSS),
            duration_s,
        )
    };

    // Every censored sample left one unmerged gap behind.
    let expected_n = (bandwidth.samples.len() + gaps.len()) as u64;
    let gaps = merge_gaps(gaps);
    CampaignResult::derive(profile, pattern, duration_s, bandwidth, gaps, expected_n, duration_s)
        .ok_or(MeasureError::EmptyTrace)
}

/// Remove samples lost to stalls or probe loss; return the surviving
/// trace plus one (unmerged) gap per lost sample.
fn censor_trace(
    trace: BandwidthTrace,
    schedule: &FaultSchedule,
    probe_loss_prob: f64,
    loss_seed: u64,
    duration_s: f64,
) -> (BandwidthTrace, Vec<TraceGap>) {
    let interval = trace.interval;
    let mut loss_rng = SimRng::new(loss_seed);
    let mut kept = BandwidthTrace::new(interval);
    let mut gaps = Vec::new();
    for s in trace.samples {
        let end = (s.t + interval).min(duration_s);
        let midpoint = (s.t + end) / 2.0;
        let cause = if schedule.stalled_at(0, midpoint) {
            Some(GapCause::VmStall)
        } else if probe_loss_prob > 0.0 && loss_rng.chance(probe_loss_prob) {
            Some(GapCause::ProbeLoss)
        } else {
            None
        };
        match cause {
            Some(cause) => gaps.push(TraceGap {
                start_s: s.t,
                end_s: end,
                cause,
            }),
            None => kept.samples.push(s),
        }
    }
    (kept, gaps)
}

/// Merge adjacent same-cause gaps (a 40-second stall shows up as one
/// gap, not four).
fn merge_gaps(mut gaps: Vec<TraceGap>) -> Vec<TraceGap> {
    gaps.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    let mut merged: Vec<TraceGap> = Vec::with_capacity(gaps.len());
    for g in gaps {
        match merged.last_mut() {
            Some(last) if last.cause == g.cause && g.start_s <= last.end_s + 1e-9 => {
                last.end_s = last.end_s.max(g.end_s);
            }
            _ => merged.push(g),
        }
    }
    merged
}

/// Count the summary intervals the pattern would have produced in
/// `[from_s, to_s)` — the denominator for coverage accounting over a
/// window that never ran (e.g. after a pair death). Mirrors
/// [`StreamSim`]'s rule: an interval is produced iff the pattern was
/// "on" at any fluid step inside it.
fn expected_intervals(pattern: TrafficPattern, from_s: f64, to_s: f64, interval: f64, step: f64) -> usize {
    let mut count = 0;
    // A partial interval at `from_s` already produced a (truncated)
    // sample in the run that ended there, so start at the next
    // boundary; if `from_s` lands exactly on a boundary that interval
    // never started and is counted.
    let mut k = (from_s / interval).ceil() as u64;
    loop {
        let start = k as f64 * interval;
        if start >= to_s {
            break;
        }
        let end = (start + interval).min(to_s);
        let mut t = start;
        while t < end {
            if pattern.is_on(t) {
                count += 1;
                break;
            }
            t += step;
        }
        k += 1;
    }
    count
}

/// Run all three paper patterns on a profile; returns results in
/// `[full-speed, 10-30, 5-30]` order.
///
/// Patterns are sharded across `jobs` workers
/// ([`exec::current_jobs`] is the usual choice); each pattern's
/// campaign is a pure function of `(profile, pattern, duration_s,
/// seed)`, and results merge in pattern order, so the output is
/// bit-identical at any worker count.
pub fn run_all_patterns(
    profile: &CloudProfile,
    duration_s: f64,
    seed: u64,
    jobs: usize,
) -> Result<Vec<CampaignResult>, MeasureError> {
    exec::try_par_map(jobs, &TrafficPattern::ALL, |&p| {
        run_campaign(profile, p, duration_s, seed)
    })
    .into_iter()
    .enumerate()
    .map(|(i, outcome)| match outcome {
        Ok(res) => res,
        Err(p) => Err(MeasureError::TaskPanicked { task: i, payload: p.payload }),
    })
    .collect()
}

/// A VM pair that died partway through a fleet campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairFailure {
    /// Index of the pair within the fleet (its `derive_seed` label).
    pub pair: usize,
    /// Seconds into the campaign at which the pair died.
    pub death_s: f64,
    /// Whether the pair produced any usable samples before dying.
    pub partial_data: bool,
}

/// Summary of a multi-pair fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-pair campaign results (one VM-pair incarnation each). Pairs
    /// that died mid-campaign appear here with their partial trace and
    /// a [`GapCause::PairDeath`] gap, provided they produced at least
    /// one sample; pairs that died before producing anything appear
    /// only in `failed_pairs`.
    pub pairs: Vec<CampaignResult>,
    /// Pairs that died mid-campaign, in pair order.
    pub failed_pairs: Vec<PairFailure>,
    /// Pairs whose simulation task panicked inside the parallel
    /// runtime, in pair order. The panic is contained: every other
    /// pair's result is unaffected, and the fleet reports DEGRADED
    /// instead of crashing.
    pub panicked: Vec<exec::TaskPanic>,
    /// Summary over the per-pair *mean* bandwidths (spatial
    /// heterogeneity: pair-to-pair differences).
    pub across_pairs: Summary,
    /// Mean of the per-pair coefficients of variation (temporal
    /// variability within a pair).
    pub mean_within_pair_cov: f64,
    /// What supervision (retries, step budgets) the campaign consumed.
    pub supervision: SupervisionStats,
}

impl FleetResult {
    /// Spatial CoV: variation of mean bandwidth across pairs.
    pub fn across_pair_cov(&self) -> f64 {
        self.across_pairs.cov
    }

    /// Coverage accounting folded over every pair with data.
    pub fn coverage(&self) -> Coverage {
        let mut total = Coverage::default();
        for p in &self.pairs {
            total.merge(&p.coverage);
        }
        total
    }

    /// Whether any pair died or panicked, or any trace has gaps.
    pub fn is_degraded(&self) -> bool {
        !self.failed_pairs.is_empty()
            || !self.panicked.is_empty()
            || self.pairs.iter().any(|p| p.is_degraded())
    }
}

/// One pair's slice of a fleet campaign: the campaign under the
/// derived pair seed `pair_seed`, with an optional per-tenant path
/// ceiling — a pure function of its arguments, safe to run on any
/// worker in any order. The fleet driver supplies the seed because a
/// retried shard runs under a re-derived seed and resume verification
/// must replay exactly the attempt that was accepted; the streaming
/// driver adds the ceiling. The death draw comes from the pair seed
/// alone, so a tenant's lifetime is unchanged by its placement; only
/// its bandwidth ceiling is. `None` runs the exact uncapped
/// [`run_campaign`] arithmetic.
///
/// A pair that dies before producing a sample is [`PairSim::Dead`];
/// any other campaign error is returned, and every driver aborts on
/// the first one in pair order.
pub(crate) fn simulate_pair_capped(
    profile: &CloudProfile,
    pattern: TrafficPattern,
    duration_s: f64,
    pair_seed: u64,
    i: usize,
    path_cap_bps: Option<f64>,
) -> Result<PairSim, MeasureError> {
    let death_rate_per_s = profile.faults.pair_death_rate_per_hour / 3600.0;
    // A pair's death time comes from its own derived stream so the
    // surviving pairs' traces are unchanged by the death of others.
    let death_s = if death_rate_per_s > 0.0 {
        SimRng::new(derive_seed(pair_seed, LABEL_PAIR_DEATH)).exponential(death_rate_per_s)
    } else {
        f64::INFINITY
    };
    if death_s >= duration_s {
        return run_campaign_capped(profile, pattern, duration_s, pair_seed, path_cap_bps)
            .map(PairSim::Alive);
    }
    // The pair dies mid-campaign: run the truncated stretch, then
    // re-annotate the result against the *requested* duration.
    match run_campaign_capped(profile, pattern, death_s, pair_seed, path_cap_bps) {
        Ok(mut r) => {
            let interval = r.trace.interval;
            let lost_after_death = expected_intervals(pattern, death_s, duration_s, interval, 0.1);
            r.duration_s = duration_s;
            r.gaps.push(TraceGap {
                start_s: death_s,
                end_s: duration_s,
                cause: GapCause::PairDeath,
            });
            r.gaps = merge_gaps(std::mem::take(&mut r.gaps));
            r.coverage.expected += lost_after_death as u64;
            r.coverage.gaps = r.gaps.len() as u64;
            Ok(PairSim::Partial(r, PairFailure { pair: i, death_s, partial_data: true }))
        }
        Err(MeasureError::EmptyTrace) => {
            Ok(PairSim::Dead(PairFailure { pair: i, death_s, partial_data: false }))
        }
        Err(e) => Err(e),
    }
}

/// Outcome of one pair's simulation task.
#[derive(Debug, Clone)]
pub(crate) enum PairSim {
    /// Survived the whole campaign.
    Alive(CampaignResult),
    /// Died mid-campaign with partial data.
    Partial(CampaignResult, PairFailure),
    /// Died before producing anything.
    Dead(PairFailure),
}

/// Fold every settled shard, **in pair order**, into a fleet result: a
/// panicked pair degrades the fleet instead of crashing it, and a fleet
/// without data is a typed error — the first contained panic, else
/// [`MeasureError::AllPairsFailed`].
pub(crate) fn assemble_fleet(
    settled: BTreeMap<usize, ShardOutcome>,
    accountant: &RetryAccountant,
) -> Result<FleetResult, MeasureError> {
    let n_pairs = settled.len();
    let mut pairs = Vec::with_capacity(n_pairs);
    let mut failed_pairs = Vec::new();
    let mut panicked = Vec::new();
    let mut retry_exhausted = accountant.exhausted();
    for (shard, out) in settled {
        retry_exhausted |= out.starved;
        match out.sim {
            ShardSim::Sim(PairSim::Alive(r)) => pairs.push(r),
            ShardSim::Sim(PairSim::Partial(r, f)) => {
                failed_pairs.push(f);
                pairs.push(r);
            }
            ShardSim::Sim(PairSim::Dead(f)) => failed_pairs.push(f),
            ShardSim::Panicked(payload) => panicked.push(TaskPanic { task: shard, payload }),
        }
    }
    if pairs.is_empty() {
        return Err(match panicked.into_iter().next() {
            Some(p) => MeasureError::TaskPanicked { task: p.task, payload: p.payload },
            None => MeasureError::AllPairsFailed { n_pairs },
        });
    }
    let means: Vec<f64> = pairs.iter().map(|p| p.mean_bandwidth_bps()).collect();
    let mean_within = pairs.iter().map(|p| p.summary.cov).sum::<f64>() / pairs.len() as f64;
    Ok(FleetResult {
        across_pairs: Summary::from_samples(&means),
        mean_within_pair_cov: mean_within,
        pairs,
        failed_pairs,
        panicked,
        supervision: SupervisionStats {
            retries_used: accountant.used(),
            retry_budget: accountant.budget(),
            retry_exhausted,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::{run_fleet, FleetSpec};
    use netsim::units::{gbps, hours};

    /// A full-speed fleet with one attempt per pair: every pair's
    /// campaign under its plain `derive_seed(seed, pair)` stream.
    fn fleet_jobs(
        p: &CloudProfile,
        duration_s: f64,
        n_pairs: usize,
        seed: u64,
        jobs: usize,
    ) -> Result<FleetResult, MeasureError> {
        let mut spec = FleetSpec::new(*p, TrafficPattern::FullSpeed, duration_s, n_pairs, seed);
        spec.supervise.max_shard_attempts = 1;
        run_fleet(&spec, jobs)
    }

    #[test]
    fn hpccloud_campaign_matches_figure4_range() {
        let p = clouds::hpccloud::n_core(8);
        let r = run_campaign(&p, TrafficPattern::FullSpeed, hours(12.0), 1).unwrap();
        assert!(r.summary.min > gbps(7.0), "min {}", r.summary.min);
        assert!(r.summary.max <= gbps(10.4) + 1.0);
        assert!(r.exhibits_variability());
        assert!(r.cost_usd.is_none());
    }

    #[test]
    fn ec2_pattern_ordering_matches_figure6() {
        // Steady-state: full-speed ≈ 1 Gbps, 10-30 ≈ 4 Gbps (≈3-4×),
        // 5-30 ≈ 7 Gbps (≈7×).
        let p = clouds::ec2::c5_xlarge();
        let rs = run_all_patterns(&p, hours(4.0), 2, exec::current_jobs()).unwrap();
        let full = rs[0].mean_bandwidth_bps();
        let ten = rs[1].mean_bandwidth_bps();
        let five = rs[2].mean_bandwidth_bps();
        assert!(ten > 2.0 * full, "10-30 {ten} vs full {full}");
        assert!(five > ten, "5-30 {five} vs 10-30 {ten}");
        assert!(five > 4.0 * full, "5-30 {five} vs full {full}");
    }

    #[test]
    fn gce_pattern_ordering_is_opposite_of_ec2() {
        // Figure 5: longer streams do BETTER on Google Cloud.
        let p = clouds::gce::n_core(8);
        let rs = run_all_patterns(&p, hours(6.0), 3, exec::current_jobs()).unwrap();
        let full = rs[0].mean_bandwidth_bps();
        let five = rs[2].mean_bandwidth_bps();
        assert!(full > five, "full {full} vs 5-30 {five}");
        assert!(full > gbps(14.8) && full < gbps(16.0));
        // 5-30 has the long tail: its minimum dips further.
        assert!(rs[2].summary.min < rs[0].summary.min);
    }

    #[test]
    fn google_retransmissions_dominate() {
        // Figure 9: Amazon and HPCCloud negligible; Google common.
        let d = hours(2.0);
        let ec2 = run_campaign(&clouds::ec2::c5_xlarge(), TrafficPattern::FullSpeed, d, 4).unwrap();
        let gce = run_campaign(&clouds::gce::n_core(8), TrafficPattern::FullSpeed, d, 4).unwrap();
        let hpc = run_campaign(&clouds::hpccloud::n_core(8), TrafficPattern::FullSpeed, d, 4).unwrap();
        assert!(
            gce.total_retransmissions > 20 * ec2.total_retransmissions.max(1),
            "gce {} ec2 {}",
            gce.total_retransmissions,
            ec2.total_retransmissions
        );
        assert!(gce.total_retransmissions > 20 * hpc.total_retransmissions.max(1));
    }

    #[test]
    fn ec2_total_traffic_is_pattern_insensitive_gce_is_not() {
        // Figure 10: EC2's three patterns move similar total volume
        // (the token bucket equalizes them); GCE full-speed moves far
        // more than its duty-cycled patterns.
        let d = hours(6.0);
        let ec2: Vec<f64> = run_all_patterns(&clouds::ec2::c5_xlarge(), d, 5, exec::current_jobs())
            .unwrap()
            .iter()
            .map(|r| r.total_bits)
            .collect();
        let gce: Vec<f64> = run_all_patterns(&clouds::gce::n_core(8), d, 5, exec::current_jobs())
            .unwrap()
            .iter()
            .map(|r| r.total_bits)
            .collect();
        let ec2_ratio = ec2[0] / ec2[2];
        let gce_ratio = gce[0] / gce[2];
        assert!(ec2_ratio < 3.0, "ec2 full/5-30 {ec2_ratio}");
        assert!(gce_ratio > 5.0, "gce full/5-30 {gce_ratio}");
    }

    #[test]
    fn cost_accounting_matches_table3_scale() {
        let p = clouds::ec2::c5_xlarge();
        let r = run_campaign(&p, TrafficPattern::FullSpeed, 3.0 * 7.0 * 86_400.0, 6).unwrap();
        let cost = r.cost_usd.unwrap();
        assert!((cost - 171.0).abs() < 10.0, "cost {cost}");
    }

    #[test]
    fn fleet_separates_spatial_from_temporal_variability() {
        // HPCCloud pairs differ through contention episodes; within-
        // pair CoV should be non-trivial and across-pair means spread.
        let p = clouds::hpccloud::n_core(8);
        let fleet = fleet_jobs(&p, hours(3.0), 6, 11, 2).unwrap();
        assert_eq!(fleet.pairs.len(), 6);
        assert!(fleet.mean_within_pair_cov > 0.002, "{}", fleet.mean_within_pair_cov);
        assert!(fleet.across_pair_cov() >= 0.0);
        // All pairs share the same ceiling.
        for pair in &fleet.pairs {
            assert!(pair.summary.max <= gbps(10.4) + 1.0);
        }
    }

    #[test]
    fn fleet_pairs_use_distinct_incarnations() {
        let p = clouds::ec2::c5_xlarge();
        let fleet = fleet_jobs(&p, 1800.0, 4, 3, 2).unwrap();
        // Bucket budgets differ per pair, so depletion times differ, so
        // mean bandwidths over 30 min differ.
        let means: Vec<f64> = fleet.pairs.iter().map(|r| r.mean_bandwidth_bps()).collect();
        let all_equal = means.windows(2).all(|w| (w[0] - w[1]).abs() < 1.0);
        assert!(!all_equal, "{means:?}");
    }

    #[test]
    fn campaign_is_deterministic() {
        let p = clouds::gce::n_core(4);
        let a = run_campaign(&p, TrafficPattern::TEN_THIRTY, 3600.0, 7).unwrap();
        let b = run_campaign(&p, TrafficPattern::TEN_THIRTY, 3600.0, 7).unwrap();
        assert_eq!(a.trace.samples, b.trace.samples);
    }

    #[test]
    fn faulty_campaign_is_gap_annotated_and_reproducible() {
        let p = clouds::hpccloud::n_core(8).with_reference_faults();
        let a = run_campaign(&p, TrafficPattern::FullSpeed, hours(24.0), 42).unwrap();
        let b = run_campaign(&p, TrafficPattern::FullSpeed, hours(24.0), 42).unwrap();
        // Bit-for-bit reproducible from the seed, faults included.
        assert_eq!(a.trace.samples, b.trace.samples);
        assert_eq!(a.gaps, b.gaps);
        assert_eq!(a.coverage, b.coverage);
        // A 24-hour campaign at reference rates loses *some* data.
        assert!(a.is_degraded(), "no faults hit in 24 h?");
        assert!(!a.gaps.is_empty());
        assert!(a.coverage() < 1.0 && a.coverage() > 0.9, "coverage {}", a.coverage());
        assert!(a.gapped_time_s() > 0.0);
        // Gaps are ordered, non-overlapping, and inside the campaign.
        for g in &a.gaps {
            assert!(g.start_s < g.end_s && g.end_s <= a.duration_s + 1e-9);
        }
        for w in a.gaps.windows(2) {
            assert!(w[0].end_s <= w[1].start_s + 1e-9 || w[0].cause != w[1].cause);
        }
        // Accounting adds up: surviving + lost = expected.
        assert_eq!(a.coverage.observed, a.trace.samples.len() as u64);
        assert!(a.coverage.expected > a.coverage.observed);
    }

    #[test]
    fn stall_gaps_censor_the_zero_bandwidth_intervals() {
        // A pure-stall config: every gap must be a VmStall, and the
        // surviving samples must not contain the stalled near-zero
        // intervals that the raw stream recorded.
        let mut p = clouds::hpccloud::n_core(8);
        p.faults.stall_rate_per_hour = 2.0;
        p.faults.stall_mean_s = 60.0;
        let r = run_campaign(&p, TrafficPattern::FullSpeed, hours(12.0), 9).unwrap();
        assert!(r.is_degraded());
        assert!(r.gaps.iter().all(|g| g.cause == GapCause::VmStall));
        // Healthy HPCCloud intervals sit near 10 Gbps; a stalled one
        // would read ~0.
        assert!(r.summary.min > gbps(5.0), "stalled sample leaked: {}", r.summary.min);
    }

    #[test]
    fn fleet_with_pair_deaths_returns_partial_results() {
        let mut p = clouds::hpccloud::n_core(8).with_reference_faults();
        p.faults.pair_death_rate_per_hour = 0.5; // mean pair life: 2 h
        let fleet = fleet_jobs(&p, hours(6.0), 8, 5, 2).unwrap();
        assert!(!fleet.failed_pairs.is_empty(), "no pair died in 6 h at rate 0.5/h");
        assert!(fleet.is_degraded());
        for f in &fleet.failed_pairs {
            assert!(f.death_s < hours(6.0));
        }
        // Partial pairs carry a PairDeath gap reaching the requested end.
        let partial: Vec<_> = fleet.failed_pairs.iter().filter(|f| f.partial_data).collect();
        assert!(!partial.is_empty());
        for r in &fleet.pairs {
            assert_eq!(r.duration_s, hours(6.0));
            if let Some(g) = r.gaps.iter().find(|g| g.cause == GapCause::PairDeath) {
                assert!((g.end_s - hours(6.0)).abs() < 1e-6);
                assert!(r.coverage() < 1.0);
            }
        }
        // Reproducible end to end.
        let again = fleet_jobs(&p, hours(6.0), 8, 5, 2).unwrap();
        assert_eq!(fleet.failed_pairs, again.failed_pairs);
        assert_eq!(fleet.across_pairs, again.across_pairs);
    }

    /// Render every field that feeds golden CHECK values into one
    /// comparable string, down to the f64 bit patterns.
    fn fleet_fingerprint(f: &FleetResult) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "across:{:x}/{:x} within:{:x} failed:{:?} panicked:{:?}",
            f.across_pairs.mean.to_bits(),
            f.across_pairs.cov.to_bits(),
            f.mean_within_pair_cov.to_bits(),
            f.failed_pairs,
            f.panicked,
        );
        for p in &f.pairs {
            let _ = write!(
                s,
                "|{}:{}:{:x}:{:x}:{}:{:?}",
                p.pattern,
                p.trace.samples.len(),
                p.summary.mean.to_bits(),
                p.summary.cov.to_bits(),
                p.total_retransmissions,
                p.gaps,
            );
        }
        s
    }

    #[test]
    fn fleet_is_bit_identical_at_any_worker_count() {
        // The tentpole invariant: worker counts 1, 2, and 8 produce
        // byte-identical fleet results — faults, deaths, and all.
        let mut p = clouds::hpccloud::n_core(8).with_reference_faults();
        p.faults.pair_death_rate_per_hour = 0.2;
        let one = fleet_jobs(&p, hours(3.0), 6, 17, 1).unwrap();
        for jobs in [2usize, 8] {
            let wide = fleet_jobs(&p, hours(3.0), 6, 17, jobs).unwrap();
            assert_eq!(fleet_fingerprint(&wide), fleet_fingerprint(&one), "jobs={jobs}");
        }
    }

    #[test]
    fn all_patterns_is_bit_identical_at_any_worker_count() {
        let p = clouds::ec2::c5_xlarge();
        let one = run_all_patterns(&p, hours(2.0), 23, 1).unwrap();
        for jobs in [2usize, 8] {
            let wide = run_all_patterns(&p, hours(2.0), 23, jobs).unwrap();
            assert_eq!(wide.len(), one.len());
            for (a, b) in wide.iter().zip(one.iter()) {
                assert_eq!(a.trace.samples, b.trace.samples, "jobs={jobs}");
                assert_eq!(a.summary, b.summary, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn panicked_pair_degrades_fleet_instead_of_crashing() {
        // Assemble a fleet where pair 1's task panicked: the fleet
        // keeps the surviving pairs and reports DEGRADED.
        let p = clouds::hpccloud::n_core(8);
        let settled = |sim| ShardOutcome { retries: 0, starved: false, sim };
        let good = |i: usize| {
            let pair_seed = derive_seed(99, i as u64);
            let sim = simulate_pair_capped(&p, TrafficPattern::FullSpeed, 1800.0, pair_seed, i, None);
            settled(ShardSim::Sim(sim.unwrap()))
        };
        let outcomes = BTreeMap::from([
            (0, good(0)),
            (1, settled(ShardSim::Panicked("simulated worker bug".into()))),
            (2, good(2)),
        ]);
        let fleet = assemble_fleet(outcomes, &RetryAccountant::new(0)).unwrap();
        assert_eq!(fleet.pairs.len(), 2);
        assert_eq!(fleet.panicked.len(), 1);
        assert_eq!(fleet.panicked[0].task, 1);
        assert!(fleet.is_degraded(), "a contained panic must mark the fleet degraded");
        // Survivors are exactly what a fleet without the panic computes
        // for those pair indices (per-pair seed streams are decoupled).
        let clean = fleet_jobs(&p, 1800.0, 3, 99, 1).unwrap();
        assert_eq!(fleet.pairs[0].summary, clean.pairs[0].summary);
        assert_eq!(fleet.pairs[1].summary, clean.pairs[2].summary);
    }

    #[test]
    fn all_pairs_panicked_is_a_typed_error() {
        let outcomes = (0..2)
            .map(|i| {
                let sim = ShardSim::Panicked(format!("boom {i}"));
                (i, ShardOutcome { retries: 0, starved: false, sim })
            })
            .collect();
        match assemble_fleet(outcomes, &RetryAccountant::new(0)) {
            Err(MeasureError::TaskPanicked { task: 0, payload }) => {
                assert!(payload.contains("boom 0"));
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn expected_intervals_counts_duty_cycles() {
        // Full speed: every 10 s interval in [100, 200) → 10.
        assert_eq!(
            expected_intervals(TrafficPattern::FullSpeed, 100.0, 200.0, 10.0, 0.1),
            10
        );
        // Mid-interval start: the partial interval already reported.
        assert_eq!(
            expected_intervals(TrafficPattern::FullSpeed, 95.0, 200.0, 10.0, 0.1),
            10
        );
        // 5-on/35-off: one interval in four carries data.
        let sparse = TrafficPattern::DutyCycle { on_s: 5.0, off_s: 35.0 };
        assert_eq!(expected_intervals(sparse, 0.0, 400.0, 10.0, 0.1), 10);
    }
}
