//! Deterministic fault injection for long-running campaigns.
//!
//! The paper's measurement campaigns "ran continuously for one week"
//! per VM pair and its Spark experiments span hundreds of runs. At that
//! scale the environment itself misbehaves: VMs stall or get preempted,
//! links degrade under maintenance or congestion, and packet-loss
//! bursts eat probes. Henning et al. and Gent & Kotthoff document
//! exactly these regimes on virtualised hardware. This module provides
//! a *seed-deterministic* fault layer so those phenomena can be
//! reproduced bit-for-bit:
//!
//! * [`FaultConfig`] — per-provider fault-rate parameters (all zero by
//!   default, so existing goldens are untouched).
//! * [`FaultSchedule`] — the materialized, time-ordered fault timeline
//!   for a set of nodes over a horizon (a stable sort by start time, so
//!   simultaneous episodes keep their generation order).
//! * [`FaultInjector`] — a [`Shaper`] wrapper that applies a node's
//!   fault factor to a single shaped endpoint (the campaign path).
//! * [`Fabric::set_fault_schedule`](crate::fabric::Fabric::set_fault_schedule)
//!   threads a schedule into the multi-node fabric so faulted nodes
//!   transmit at zero/degraded rate for the fault window (the bigdata
//!   path).

use crate::rng::{derive_seed, SimRng};
use crate::shaper::Shaper;

/// What kind of episode hit a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The VM is stalled (hypervisor pause, reboot, preemption): it
    /// transmits and receives nothing for the episode.
    VmStall,
    /// Link capacity degraded to a fraction of nominal (maintenance,
    /// path reroute, chronic congestion).
    LinkDegrade,
    /// A packet-loss burst: goodput collapses by the loss fraction and
    /// probes sent during the burst may be lost.
    LossBurst,
}

impl FaultKind {
    /// Stable label for reports and CSV exports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::VmStall => "vm-stall",
            FaultKind::LinkDegrade => "link-degrade",
            FaultKind::LossBurst => "loss-burst",
        }
    }
}

/// One materialized fault episode on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEpisode {
    /// Node the episode applies to.
    pub node: usize,
    /// Episode start, seconds.
    pub start_s: f64,
    /// Episode end (exclusive), seconds.
    pub end_s: f64,
    /// Episode class.
    pub kind: FaultKind,
    /// Multiplier on the node's transmit rate while active
    /// (0.0 for a stall, e.g. 0.3 for a 70% capacity degradation).
    pub rate_factor: f64,
}

impl FaultEpisode {
    /// Whether the episode is active at time `t`.
    pub fn active_at(&self, t: f64) -> bool {
        self.start_s <= t && t < self.end_s
    }

    /// Episode duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Fault-rate parameters, typically attached to a cloud profile.
///
/// All rates are **per hour of simulated time per node**; durations are
/// means of exponential distributions. The default ([`FaultConfig::NONE`])
/// disables every class, so fault-free paths are byte-identical to the
/// pre-fault-layer simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// VM stall/reboot episodes per node-hour.
    pub stall_rate_per_hour: f64,
    /// Mean stall duration, seconds.
    pub stall_mean_s: f64,
    /// Link-degradation episodes per node-hour.
    pub degrade_rate_per_hour: f64,
    /// Mean degradation duration, seconds.
    pub degrade_mean_s: f64,
    /// Lower bound of the degraded rate factor (uniform draw).
    pub degrade_min_factor: f64,
    /// Upper bound of the degraded rate factor (uniform draw).
    pub degrade_max_factor: f64,
    /// Packet-loss bursts per node-hour.
    pub loss_rate_per_hour: f64,
    /// Mean loss-burst duration, seconds.
    pub loss_mean_s: f64,
    /// Loss fraction during a burst (goodput factor is `1 - loss`).
    pub loss_frac: f64,
    /// Probability that any individual measurement probe/sample is lost
    /// by the harness itself (independent of episodes).
    pub probe_loss_prob: f64,
    /// VM-pair deaths (preemption, unrecoverable stall) per pair-hour —
    /// used by fleet campaigns; a dead pair stops reporting for good.
    pub pair_death_rate_per_hour: f64,
}

impl FaultConfig {
    /// Everything off: the schedule is empty and every fault-aware path
    /// must behave identically to its fault-free counterpart.
    pub const NONE: FaultConfig = FaultConfig {
        stall_rate_per_hour: 0.0,
        stall_mean_s: 0.0,
        degrade_rate_per_hour: 0.0,
        degrade_mean_s: 0.0,
        degrade_min_factor: 1.0,
        degrade_max_factor: 1.0,
        loss_rate_per_hour: 0.0,
        loss_mean_s: 0.0,
        loss_frac: 0.0,
        probe_loss_prob: 0.0,
        pair_death_rate_per_hour: 0.0,
    };

    /// Whether every fault class is disabled.
    pub fn is_off(&self) -> bool {
        self.stall_rate_per_hour == 0.0
            && self.degrade_rate_per_hour == 0.0
            && self.loss_rate_per_hour == 0.0
            && self.probe_loss_prob == 0.0
            && self.pair_death_rate_per_hour == 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::NONE
    }
}

/// Per-node episode index with a prefix-max of episode end times, so
/// point queries only walk back while an earlier episode can still be
/// active.
#[derive(Debug, Clone, Default)]
struct NodeEpisodes {
    /// Episodes sorted by start time.
    episodes: Vec<FaultEpisode>,
    /// `running_max_end[i] = max(episodes[0..=i].end_s)`.
    running_max_end: Vec<f64>,
}

impl NodeEpisodes {
    fn push(&mut self, ep: FaultEpisode) {
        let prev = self.running_max_end.last().copied().unwrap_or(f64::NEG_INFINITY);
        self.running_max_end.push(prev.max(ep.end_s));
        self.episodes.push(ep);
    }

    /// Minimum rate factor over all episodes active at `t` (1.0 if none).
    #[inline]
    fn factor_at(&self, t: f64) -> f64 {
        let mut factor = 1.0f64;
        // First episode starting after t cannot be active; walk back
        // from the last episode with start <= t while the prefix-max end
        // says an active episode may still exist.
        let idx = self.episodes.partition_point(|e| e.start_s <= t);
        for j in (0..idx).rev() {
            if self.running_max_end[j] <= t {
                break;
            }
            if self.episodes[j].active_at(t) {
                factor = factor.min(self.episodes[j].rate_factor);
            }
        }
        factor
    }

    /// Whether a stall episode is active at `t`.
    fn stalled_at(&self, t: f64) -> bool {
        let idx = self.episodes.partition_point(|e| e.start_s <= t);
        for j in (0..idx).rev() {
            if self.running_max_end[j] <= t {
                break;
            }
            if self.episodes[j].kind == FaultKind::VmStall && self.episodes[j].active_at(t) {
                return true;
            }
        }
        false
    }
}

/// A materialized, seed-deterministic fault timeline for `n` nodes over
/// a fixed horizon.
///
/// The same `(config, n_nodes, horizon_s, seed)` tuple always produces a
/// bit-identical timeline; per-node and per-class streams are decoupled
/// through [`derive_seed`], so adding nodes or classes never perturbs
/// the episodes of existing ones.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    per_node: Vec<NodeEpisodes>,
    timeline: Vec<FaultEpisode>,
    horizon_s: f64,
}

/// Seed-derivation labels for the per-class streams (stable constants:
/// reordering the generation code must not change the timeline).
const LABEL_STALL: u64 = 0x5741;
const LABEL_DEGRADE: u64 = 0xDE64;
const LABEL_LOSS: u64 = 0x1055;

impl FaultSchedule {
    /// An empty schedule (no faults ever) for `n_nodes` nodes.
    pub fn empty(n_nodes: usize, horizon_s: f64) -> Self {
        FaultSchedule {
            per_node: vec![NodeEpisodes::default(); n_nodes],
            timeline: Vec::new(),
            horizon_s,
        }
    }

    /// Build a schedule from hand-authored episodes (sorted by start
    /// time internally). Useful for scripted scenarios — e.g. "stall
    /// node 3 at t=40 for 25 s" in a speculation experiment — and for
    /// tests that need exact fault windows.
    pub fn from_episodes(
        n_nodes: usize,
        horizon_s: f64,
        episodes: impl IntoIterator<Item = FaultEpisode>,
    ) -> Self {
        let mut schedule = FaultSchedule::empty(n_nodes, horizon_s);
        for ep in episodes {
            assert!(ep.node < n_nodes, "episode on unknown node {}", ep.node);
            assert!(ep.start_s < ep.end_s, "episode must have positive duration");
            schedule.timeline.push(ep);
        }
        schedule.index_timeline();
        schedule
    }

    /// Generate the timeline for `n_nodes` nodes over `[0, horizon_s)`.
    ///
    /// Arrivals within each class are Poisson (exponential gaps);
    /// durations are exponential with the class mean; degradation
    /// factors are uniform in the configured range. Episodes are
    /// clipped to the horizon. Simultaneous episodes keep their
    /// generation order (node, then stall, degrade, loss).
    pub fn generate(config: &FaultConfig, n_nodes: usize, horizon_s: f64, seed: u64) -> Self {
        assert!(horizon_s >= 0.0, "fault horizon must be non-negative");
        let mut schedule = FaultSchedule::empty(n_nodes, horizon_s);
        let timeline = &mut schedule.timeline;
        for node in 0..n_nodes {
            let node_seed = derive_seed(seed, node as u64);
            Self::arrivals(
                timeline,
                node,
                horizon_s,
                config.stall_rate_per_hour,
                config.stall_mean_s,
                SimRng::new(derive_seed(node_seed, LABEL_STALL)),
                |_| (FaultKind::VmStall, 0.0),
            );
            let (dmin, dmax) = (config.degrade_min_factor, config.degrade_max_factor);
            Self::arrivals(
                timeline,
                node,
                horizon_s,
                config.degrade_rate_per_hour,
                config.degrade_mean_s,
                SimRng::new(derive_seed(node_seed, LABEL_DEGRADE)),
                move |rng| (FaultKind::LinkDegrade, rng.uniform_in(dmin, dmax)),
            );
            let loss = config.loss_frac;
            Self::arrivals(
                timeline,
                node,
                horizon_s,
                config.loss_rate_per_hour,
                config.loss_mean_s,
                SimRng::new(derive_seed(node_seed, LABEL_LOSS)),
                move |_| (FaultKind::LossBurst, (1.0 - loss).max(0.0)),
            );
        }
        schedule.index_timeline();
        schedule
    }

    /// Sort the timeline by start time and fill the per-node indexes.
    /// The sort is stable, so episodes that start together keep the
    /// order they were pushed in.
    fn index_timeline(&mut self) {
        self.timeline
            .sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        for &ep in &self.timeline {
            self.per_node[ep.node].push(ep);
        }
    }

    /// Append one class's Poisson arrivals for one node to `timeline`.
    fn arrivals(
        timeline: &mut Vec<FaultEpisode>,
        node: usize,
        horizon_s: f64,
        rate_per_hour: f64,
        mean_dur_s: f64,
        mut rng: SimRng,
        mut kind_and_factor: impl FnMut(&mut SimRng) -> (FaultKind, f64),
    ) {
        if rate_per_hour <= 0.0 || mean_dur_s <= 0.0 {
            return;
        }
        let rate_per_s = rate_per_hour / 3600.0;
        let mut t = rng.exponential(rate_per_s);
        while t < horizon_s {
            let dur = rng.exponential(1.0 / mean_dur_s);
            let (kind, rate_factor) = kind_and_factor(&mut rng);
            timeline.push(FaultEpisode {
                node,
                start_s: t,
                end_s: (t + dur).min(horizon_s),
                kind,
                rate_factor,
            });
            t += rng.exponential(rate_per_s);
        }
    }

    /// The full timeline, ordered by start time (FIFO-stable for ties).
    pub fn timeline(&self) -> &[FaultEpisode] {
        &self.timeline
    }

    /// Episodes of one node, ordered by start time.
    pub fn node_episodes(&self, node: usize) -> &[FaultEpisode] {
        &self.per_node[node].episodes
    }

    /// Number of nodes the schedule covers.
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// The generation horizon in seconds.
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// Whether the timeline has no episodes at all.
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty()
    }

    /// Transmit-rate factor for `node` at time `t`: 1.0 when healthy,
    /// 0.0 while stalled, the minimum degradation factor when one or
    /// more degrade/loss episodes overlap.
    #[inline]
    pub fn factor_at(&self, node: usize, t: f64) -> f64 {
        match self.per_node.get(node) {
            Some(eps) => eps.factor_at(t),
            None => 1.0,
        }
    }

    /// Earliest episode edge (start or end) strictly after time `t`,
    /// or `f64::INFINITY` when no edge remains.
    ///
    /// Every change of any node's rate factor happens at an episode
    /// start or end, so `factor_at(node, u)` is constant for all nodes
    /// over `t <= u < next_transition_after(t)`.
    /// [`FaultSchedule::stable_steps`] turns this into a conservative
    /// step horizon. The scan is O(timeline) on purpose: tests (and
    /// future generators) may push episodes directly, so no precomputed
    /// edge index can be trusted to stay in sync.
    fn next_transition_after(&self, t: f64) -> f64 {
        let mut next = f64::INFINITY;
        for e in &self.timeline {
            if e.start_s > t {
                next = next.min(e.start_s);
            }
            if e.end_s > t {
                next = next.min(e.end_s);
            }
        }
        next
    }

    /// Conservative number of `dt` ticks from `now` for which no rate
    /// factor can change: the distance to the next episode edge, less
    /// two ticks of guard slack for the iterated (`+= dt`) clock
    /// (`u64::MAX` when no edge lies ahead). Both the event-driven
    /// fabric engine and [`FaultInjector`]'s stability hints use it.
    pub fn stable_steps(&self, now: f64, dt: f64) -> u64 {
        let t_next = self.next_transition_after(now);
        if !t_next.is_finite() {
            return u64::MAX;
        }
        let raw = (t_next - now) / dt;
        if raw <= 3.0 {
            0
        } else {
            (raw.floor() as u64).saturating_sub(2)
        }
    }

    /// Whether `node` is inside a VM-stall episode at time `t`.
    pub fn stalled_at(&self, node: usize, t: f64) -> bool {
        self.per_node
            .get(node)
            .is_some_and(|eps| eps.stalled_at(t))
    }

    /// The stall episode (if any) covering time `t` on `node`.
    pub fn stall_covering(&self, node: usize, t: f64) -> Option<FaultEpisode> {
        self.per_node.get(node).and_then(|eps| {
            eps.episodes
                .iter()
                .find(|e| e.kind == FaultKind::VmStall && e.active_at(t))
                .copied()
        })
    }
}

/// A [`Shaper`] wrapper applying one node's fault factor to a single
/// shaped endpoint — the campaign path, where there is no fabric.
///
/// While a stall is active the wrapped shaper sees zero demand (so
/// token buckets keep refilling, exactly as a paused VM's would); during
/// a degradation episode only the degraded fraction of the demand is
/// offered downstream.
pub struct FaultInjector<S> {
    inner: S,
    node: usize,
    schedule: FaultSchedule,
}

impl<S: Shaper> FaultInjector<S> {
    /// Wrap `inner` as node `node` of `schedule`.
    pub fn new(inner: S, node: usize, schedule: FaultSchedule) -> Self {
        FaultInjector {
            inner,
            node,
            schedule,
        }
    }

    /// The wrapped shaper.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The schedule driving this injector.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

impl<S: Shaper> Shaper for FaultInjector<S> {
    fn transmit(&mut self, now: f64, dt: f64, demand_bits: f64) -> f64 {
        let factor = self.schedule.factor_at(self.node, now);
        // A fault degrades the *link ceiling*, not the demand: during a
        // degrade episode the node may move at most `factor` of its
        // nominal rate, and during a stall nothing at all. The ceiling
        // formulation also sidesteps `inf * 0 = NaN` for the routine
        // unbounded-demand case.
        let offered = if factor <= 0.0 {
            0.0
        } else if factor >= 1.0 {
            demand_bits
        } else {
            demand_bits.min(factor * self.inner.rate_hint(now) * dt)
        };
        self.inner.transmit(now, dt, offered)
    }

    fn rate_hint(&self, now: f64) -> f64 {
        self.inner.rate_hint(now) * self.schedule.factor_at(self.node, now)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn token_budget_bits(&self) -> Option<f64> {
        self.inner.token_budget_bits()
    }

    fn rest(&mut self, now: f64, dt: f64, steps: u64) {
        // With zero demand the offered volume is exactly 0.0 for every
        // fault factor (0.0, the demand itself, or 0.0.min(ceiling)),
        // and `factor_at` reads no mutable state — so the idle loop is
        // precisely the inner shaper's idle loop.
        self.inner.rest(now, dt, steps);
    }

    fn hint_stable_steps(&self, now: f64, dt: f64) -> u64 {
        // The composed hint is `inner × factor`: pinned while both the
        // inner hint and the schedule's factor are pinned. The factor
        // is piecewise constant between episode edges, and
        // `FaultSchedule::stable_steps` bounds the ticks to the next one.
        let sched = self.schedule.stable_steps(now, dt);
        sched.min(self.inner.hint_stable_steps(now, dt))
    }

    fn hint_stable_steps_busy(&self, now: f64, dt: f64, demand_bits: f64) -> u64 {
        // The inner shaper sees the *offered* volume, which equals the
        // caller's demand only while the factor is exactly 1.0; under a
        // degraded ceiling the offer depends on the inner hint, so only
        // the demand-agnostic inner bound is sound there.
        let sched = self.schedule.stable_steps(now, dt);
        let inner = if self.schedule.factor_at(self.node, now) >= 1.0 {
            self.inner.hint_stable_steps_busy(now, dt, demand_bits)
        } else {
            self.inner.hint_stable_steps(now, dt)
        };
        sched.min(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shaper::StaticShaper;
    use crate::units::gbps;

    fn busy_config() -> FaultConfig {
        FaultConfig {
            stall_rate_per_hour: 2.0,
            stall_mean_s: 60.0,
            degrade_rate_per_hour: 3.0,
            degrade_mean_s: 120.0,
            degrade_min_factor: 0.2,
            degrade_max_factor: 0.8,
            loss_rate_per_hour: 1.0,
            loss_mean_s: 30.0,
            loss_frac: 0.3,
            probe_loss_prob: 0.01,
            pair_death_rate_per_hour: 0.0,
        }
    }

    #[test]
    fn rest_across_ceiling_change_matches_idle_loop() {
        // A rest window spanning a degrade episode's start *and* end:
        // the injector's ceiling changes twice mid-window, but idle
        // offered volume is exactly 0.0 under any factor, so the
        // delegated closed-form rest must equal the honest idle loop
        // bitwise — and the very next grants (inside and after the
        // episode) must agree too.
        use crate::shaper::TokenBucket;
        let ep = FaultEpisode {
            node: 0,
            start_s: 2.0,
            end_s: 4.0,
            kind: FaultKind::LinkDegrade,
            rate_factor: 0.3,
        };
        let schedule = FaultSchedule::from_episodes(1, 100.0, [ep]);
        let mk = || {
            FaultInjector::new(
                TokenBucket::sigma_rho(50e9, 1e9, 10e9).with_idle_refill(2e9),
                0,
                schedule.clone(),
            )
        };
        let (mut fast, mut slow) = (mk(), mk());
        for s in [&mut fast, &mut slow] {
            s.transmit(0.0, 1.0, f64::INFINITY); // drain below the cap
        }
        // 60 idle ticks of 0.1 s from t=1.0: crosses t=2.0 and t=4.0.
        fast.rest(1.0, 0.1, 60);
        let mut t = 1.0;
        for _ in 0..60 {
            slow.transmit(t, 0.1, 0.0);
            t += 0.1;
        }
        assert_eq!(
            fast.token_budget_bits().unwrap().to_bits(),
            slow.token_budget_bits().unwrap().to_bits(),
            "budget diverged across the ceiling change"
        );
        let (gf, gs) = (
            fast.transmit(t, 0.1, f64::INFINITY),
            slow.transmit(t, 0.1, f64::INFINITY),
        );
        assert_eq!(gf.to_bits(), gs.to_bits(), "post-window grant diverged");
        // Same again with the window ending *inside* the episode, so
        // the follow-up grant runs under the degraded ceiling.
        let (mut fast, mut slow) = (mk(), mk());
        for s in [&mut fast, &mut slow] {
            s.transmit(0.0, 1.0, f64::INFINITY);
        }
        fast.rest(1.0, 0.1, 15); // ends at t=2.5, mid-episode
        let mut t = 1.0;
        for _ in 0..15 {
            slow.transmit(t, 0.1, 0.0);
            t += 0.1;
        }
        let (gf, gs) = (
            fast.transmit(t, 0.1, f64::INFINITY),
            slow.transmit(t, 0.1, f64::INFINITY),
        );
        assert_eq!(gf.to_bits(), gs.to_bits(), "mid-episode grant diverged");
        assert!(gf < 0.3 * 10e9 * 0.1 + 1.0, "degraded ceiling not applied");
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let cfg = busy_config();
        let a = FaultSchedule::generate(&cfg, 4, 3600.0 * 24.0, 42);
        let b = FaultSchedule::generate(&cfg, 4, 3600.0 * 24.0, 42);
        assert_eq!(a.timeline(), b.timeline());
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = busy_config();
        let a = FaultSchedule::generate(&cfg, 2, 3600.0 * 24.0, 1);
        let b = FaultSchedule::generate(&cfg, 2, 3600.0 * 24.0, 2);
        assert_ne!(a.timeline(), b.timeline());
    }

    #[test]
    fn zero_config_is_empty_and_transparent() {
        let s = FaultSchedule::generate(&FaultConfig::NONE, 3, 3600.0, 7);
        assert!(s.is_empty());
        assert!(FaultConfig::NONE.is_off());
        for t in [0.0, 100.0, 3599.0] {
            assert_eq!(s.factor_at(0, t), 1.0);
            assert!(!s.stalled_at(1, t));
        }
    }

    #[test]
    fn adding_nodes_does_not_perturb_existing_streams() {
        let cfg = busy_config();
        let small = FaultSchedule::generate(&cfg, 2, 86_400.0, 9);
        let large = FaultSchedule::generate(&cfg, 6, 86_400.0, 9);
        assert_eq!(small.node_episodes(0), large.node_episodes(0));
        assert_eq!(small.node_episodes(1), large.node_episodes(1));
    }

    #[test]
    fn arrival_rate_tracks_configuration() {
        let mut cfg = FaultConfig::NONE;
        cfg.stall_rate_per_hour = 6.0;
        cfg.stall_mean_s = 10.0;
        let s = FaultSchedule::generate(&cfg, 1, 3600.0 * 100.0, 5);
        // ~600 expected arrivals over 100 hours; Poisson spread.
        let n = s.node_episodes(0).len();
        assert!(n > 450 && n < 750, "arrivals {n}");
        assert!(s.timeline().iter().all(|e| e.kind == FaultKind::VmStall));
        assert!(s.timeline().iter().all(|e| e.rate_factor == 0.0));
    }

    #[test]
    fn factors_respect_episode_windows() {
        let mut s = FaultSchedule::empty(2, 1000.0);
        let ep = FaultEpisode {
            node: 0,
            start_s: 100.0,
            end_s: 200.0,
            kind: FaultKind::LinkDegrade,
            rate_factor: 0.4,
        };
        s.timeline.push(ep);
        s.per_node[0].push(ep);
        assert_eq!(s.factor_at(0, 99.9), 1.0);
        assert_eq!(s.factor_at(0, 100.0), 0.4);
        assert_eq!(s.factor_at(0, 199.9), 0.4);
        assert_eq!(s.factor_at(0, 200.0), 1.0);
        assert_eq!(s.factor_at(1, 150.0), 1.0);
    }

    #[test]
    fn overlapping_episodes_take_the_minimum_factor() {
        let mut s = FaultSchedule::empty(1, 1000.0);
        for (start, end, factor) in [(0.0, 500.0, 0.5), (100.0, 300.0, 0.2)] {
            let ep = FaultEpisode {
                node: 0,
                start_s: start,
                end_s: end,
                kind: FaultKind::LinkDegrade,
                rate_factor: factor,
            };
            s.timeline.push(ep);
            s.per_node[0].push(ep);
        }
        assert_eq!(s.factor_at(0, 50.0), 0.5);
        assert_eq!(s.factor_at(0, 150.0), 0.2);
        assert_eq!(s.factor_at(0, 400.0), 0.5);
    }

    #[test]
    fn stall_queries_see_overlapping_episodes() {
        let mut s = FaultSchedule::empty(1, 1000.0);
        for (start, end) in [(10.0, 50.0), (40.0, 80.0), (200.0, 210.0)] {
            let ep = FaultEpisode {
                node: 0,
                start_s: start,
                end_s: end,
                kind: FaultKind::VmStall,
                rate_factor: 0.0,
            };
            s.timeline.push(ep);
            s.per_node[0].push(ep);
        }
        assert!(s.stalled_at(0, 45.0));
        assert!(!s.stalled_at(0, 100.0));
        assert!(s.stall_covering(0, 205.0).is_some());
    }

    #[test]
    fn injector_gates_a_static_shaper() {
        let mut s = FaultSchedule::empty(1, 1000.0);
        let ep = FaultEpisode {
            node: 0,
            start_s: 10.0,
            end_s: 20.0,
            kind: FaultKind::VmStall,
            rate_factor: 0.0,
        };
        s.timeline.push(ep);
        s.per_node[0].push(ep);
        let mut inj = FaultInjector::new(StaticShaper::new(gbps(10.0)), 0, s);
        assert_eq!(inj.transmit(0.0, 1.0, f64::INFINITY), gbps(10.0));
        assert_eq!(inj.transmit(15.0, 1.0, f64::INFINITY), 0.0);
        assert_eq!(inj.rate_hint(15.0), 0.0);
        assert_eq!(inj.transmit(25.0, 1.0, f64::INFINITY), gbps(10.0));
        assert!(inj.token_budget_bits().is_none());
    }

    #[test]
    fn episodes_clip_to_horizon() {
        let mut cfg = FaultConfig::NONE;
        cfg.degrade_rate_per_hour = 50.0;
        cfg.degrade_mean_s = 1e5;
        cfg.degrade_min_factor = 0.5;
        cfg.degrade_max_factor = 0.9;
        let s = FaultSchedule::generate(&cfg, 1, 1000.0, 3);
        assert!(!s.is_empty());
        for e in s.timeline() {
            assert!(e.start_s < 1000.0 && e.end_s <= 1000.0);
            assert!(e.start_s < e.end_s);
            assert!((0.5..=0.9).contains(&e.rate_factor));
        }
    }
}
