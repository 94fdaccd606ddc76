//! Million-tenant streaming campaigns with memory-bounded aggregation.
//!
//! [`run_fleet`](crate::resume::run_fleet) retains one
//! [`CampaignResult`](crate::campaign::CampaignResult) — trace
//! included — per pair, which caps fleets at a few hundred pairs. The
//! ROADMAP's north star is *millions* of tenants. This module is the
//! scale lever: tenants are generated in bounded batches from the same
//! seed-derived streams the fleet uses, each tenant's campaign is
//! **folded into fixed-size sketch accumulators and dropped**, and the
//! final report carries exactly the aggregates the sampling-methodology
//! literature (PAPERS.md: *Sampling in Cloud Benchmarking*) says
//! survive discarding raw samples: quantiles, mean/CoV, extremes, and
//! gap-aware coverage accounting. Peak memory is O(panes in flight),
//! independent of tenant count.
//!
//! ## Determinism (the pane contract)
//!
//! Tenants are partitioned into fixed panes of [`PANE_TENANTS`]. A
//! worker folds its pane's tenants **serially in tenant order** into a
//! pane [`StreamSummary`]; the driver absorbs the pane summaries **in
//! pane order**. Both fold orders are fixed by tenant index — never by
//! worker count or completion order — so the report is byte-identical
//! at any `--jobs`. A chained FNV-1a fingerprint (per-tenant record
//! bytes → pane digest → campaign digest) witnesses this: verify.sh
//! diffs it across worker counts and kill/resume.
//!
//! ## Topology composition
//!
//! With a topology, each tenant's pair is placed on two distinct hosts
//! by a per-tenant derived stream and its route's minimum directed
//! link capacity becomes a bandwidth ceiling composed under the
//! profile's own shaper ([`run_campaign_capped`]). A flat topology
//! yields no ceiling and takes the *exact* topology-free code path —
//! the flat-equivalence contract (DESIGN.md §12).
//!
//! ## Crash safety
//!
//! [`run_fleet_stream_journaled`] appends a checkpoint record — the
//! full accumulator state plus the last pane's digest — to a
//! [`journal`] every `checkpoint_every` tenants (pane-aligned). A
//! killed campaign resumes from the last checkpoint (the one record
//! resume keeps in memory while it scans the journal) after re-simulating
//! the checkpointed pane and comparing digests bit-for-bit; checkpoint
//! positions depend only on absolute tenant counts, so a resumed run's
//! journal and report are byte-identical to an uninterrupted run's.
//!
//! [`run_campaign_capped`]: crate::campaign::run_campaign_capped

use crate::campaign::{simulate_pair_capped, PairSim};
use crate::error::MeasureError;
use crate::resume::open_or_create;
use crate::wire::Reader;
use clouds::CloudProfile;
use journal::{fingerprint64, fnv_fold, JournalRecord, FNV_BASIS};
use netsim::pattern::TrafficPattern;
use netsim::rng::{derive_seed, SimRng};
use std::fmt::Write as _;
use std::path::Path;
use topo::{Topology, Wiring};
use vstats::describe::Summary;
use vstats::sketch::{Coverage, Sketch, SketchConfig};

/// Tenants per pane — the serial fold unit. Part of the checkpoint
/// format (pane boundaries are absolute), so it is covered by the
/// config fingerprint: changing it orphans old journals loudly.
pub const PANE_TENANTS: u64 = 256;

/// Checkpoint cadence (in tenants) when the spec leaves it 0.
const AUTO_CHECKPOINT_EVERY: u64 = 4096;

/// Label deriving a tenant's placement stream from its pair seed —
/// decoupled from the death/fault/loss labels in `campaign.rs`, so
/// wiring a topology in never perturbs a tenant's lifetime or faults.
const LABEL_TENANT_PLACE: u64 = 0xF1ACE;

/// Checkpoint payload format version.
const CHECKPOINT_VERSION: u8 = 1;

/// Everything that defines a streaming campaign. Two specs with the
/// same [`config_fingerprint`](StreamSpec::config_fingerprint) produce
/// bit-identical campaigns.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// The cloud under measurement.
    pub profile: CloudProfile,
    /// Traffic pattern for every tenant.
    pub pattern: TrafficPattern,
    /// Campaign duration per tenant, seconds.
    pub duration_s: f64,
    /// Number of tenant pairs.
    pub tenants: u64,
    /// Campaign seed; per-tenant streams derive from it (the same
    /// `derive_seed(seed, i)` streams a [`run_fleet`] of the first
    /// `tenants` pairs would use).
    ///
    /// [`run_fleet`]: crate::resume::run_fleet
    pub seed: u64,
    /// Datacenter topology for per-tenant path ceilings; `None` (or a
    /// flat topology) runs the exact topology-free path.
    pub topology: Option<Topology>,
    /// Seed for the host placement shuffle (ECMP hashing uses `seed`).
    pub placement_seed: u64,
    /// Also retain exact per-tenant means and cross-check the sketch
    /// quantiles against the exact `describe` path in the report.
    /// Diagnostic mode: O(N) memory, refused by the journaled driver.
    pub self_check: bool,
    /// Checkpoint cadence in tenants for the journaled driver,
    /// rounded up to pane boundaries; 0 means auto
    /// ([`AUTO_CHECKPOINT_EVERY`]). Not part of the config fingerprint:
    /// it changes how often durability happens, never what is computed.
    pub checkpoint_every: u64,
}

impl StreamSpec {
    /// A topology-free spec with default knobs.
    pub fn new(
        profile: CloudProfile,
        pattern: TrafficPattern,
        duration_s: f64,
        tenants: u64,
        seed: u64,
    ) -> StreamSpec {
        StreamSpec {
            profile,
            pattern,
            duration_s,
            tenants,
            seed,
            topology: None,
            placement_seed: seed,
            self_check: false,
            checkpoint_every: 0,
        }
    }

    /// 64-bit fingerprint of everything that influences results:
    /// profile, pattern, duration bits, tenant count, seeds, topology
    /// shape, and the pane size the checkpoint format depends on.
    /// Excludes worker count, checkpoint cadence, and self-check — they
    /// change durability and diagnostics, never the computation.
    pub fn config_fingerprint(&self) -> u64 {
        let topo_part = match &self.topology {
            Some(t) => format!("{}:{}:{}", t.name(), t.node_count(), t.link_count()),
            None => "none".to_string(),
        };
        let rendered = format!(
            "stream|{:?}|{}|{:x}|{}|{:x}|{:x}|{topo_part}|pane{}",
            self.profile,
            self.pattern.label(),
            self.duration_s.to_bits(),
            self.tenants,
            self.seed,
            self.placement_seed,
            PANE_TENANTS,
        );
        fingerprint64(rendered.as_bytes())
    }

    /// The checkpoint cadence with the `0 = auto` default applied.
    pub fn cadence(&self) -> u64 {
        match self.checkpoint_every {
            0 => AUTO_CHECKPOINT_EVERY,
            k => k,
        }
    }

    /// Number of panes the tenant range partitions into.
    fn pane_count(&self) -> u64 {
        self.tenants.div_ceil(PANE_TENANTS)
    }

    /// Tenant range `[start, end)` of pane `p`.
    fn pane_bounds(&self, pane: u64) -> (u64, u64) {
        let start = pane * PANE_TENANTS;
        (start, (start + PANE_TENANTS).min(self.tenants))
    }
}

/// The resolved topology context: wiring plus the directed link
/// capacity vector (computed once, read by every pane).
struct Placement {
    wiring: Wiring,
    caps: Vec<f64>,
}

/// Resolve the spec's topology into a [`Placement`], or `None` when
/// there is nothing to constrain (no topology, or a flat one — the
/// flat-equivalence contract routes those through the exact
/// topology-free code path).
fn resolve_placement(spec: &StreamSpec) -> Result<Option<Placement>, MeasureError> {
    let Some(topo) = &spec.topology else {
        return Ok(None);
    };
    if topo.is_flat() {
        return Ok(None);
    }
    let n_hosts = topo.hosts().len();
    let wiring = Wiring::new(topo.clone(), n_hosts, spec.seed, spec.placement_seed)
        .map_err(|e| MeasureError::TopologyFailed { detail: e.to_string() })?;
    let caps = topo.directed_caps();
    Ok(Some(Placement { wiring, caps }))
}

/// The path ceiling for one tenant: place its pair on two distinct
/// hosts under the tenant's derived placement stream, route it (ECMP
/// keyed by the tenant index), and take the minimum directed link
/// capacity along the route. `None` when the route is unconstrained.
fn tenant_path_cap(p: &Placement, pair_seed: u64, tenant: u64) -> Option<f64> {
    let h = p.wiring.endpoints();
    if h < 2 {
        return None;
    }
    let mut placer = SimRng::new(derive_seed(pair_seed, LABEL_TENANT_PLACE));
    let src = placer.index(h);
    let mut dst = placer.index(h - 1);
    if dst >= src {
        dst += 1;
    }
    let route = p.wiring.route_for(src, dst, tenant);
    let links = route.links();
    if links.is_empty() {
        return None;
    }
    let mut cap = f64::INFINITY;
    for &slot in links {
        let c = p.caps.get(slot as usize).copied().unwrap_or(f64::INFINITY);
        if c < cap {
            cap = c;
        }
    }
    cap.is_finite().then_some(cap)
}

/// Bit-faithful per-tenant record bytes (the unit of the campaign
/// digest): tag, tenant index, the folded statistics, and the death
/// time. Record layout is fixed so the digest is stable.
#[allow(clippy::too_many_arguments)]
fn tenant_record(
    tag: u8,
    tenant: u64,
    mean: f64,
    cov: f64,
    min: f64,
    max: f64,
    expected: u64,
    observed: u64,
    gaps: u64,
    retrans: u64,
    total_bits: f64,
    death_s: f64,
) -> [u8; 89] {
    let mut b = [0u8; 89];
    b[0] = tag;
    let fields: [u64; 11] = [
        tenant,
        mean.to_bits(),
        cov.to_bits(),
        min.to_bits(),
        max.to_bits(),
        expected,
        observed,
        gaps,
        retrans,
        total_bits.to_bits(),
        death_s.to_bits(),
    ];
    for (i, f) in fields.iter().enumerate() {
        b[1 + i * 8..9 + i * 8].copy_from_slice(&f.to_le_bytes());
    }
    b
}

/// A fold of streamed tenants, fixed-size no matter how many tenants
/// were simulated (self-check mode excepted): one pane's, folded in
/// tenant order, or the campaign's complete result, which absorbs the
/// panes in pane order.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Tenants requested by the spec (by the pane, for a pane).
    pub tenants: u64,
    /// Tenants actually folded (equals `tenants` on success).
    pub tenants_done: u64,
    /// Tenants that survived their whole campaign.
    pub alive: u64,
    /// Tenants that died mid-campaign with partial data.
    pub partial: u64,
    /// Tenants that died before producing anything.
    pub dead: u64,
    /// Tenants lost to contained worker panics (whole panes).
    pub panicked: u64,
    /// Sketch over per-tenant mean bandwidths (spatial heterogeneity).
    pub mean_bps: Sketch,
    /// Sketch over per-tenant CoVs (temporal variability).
    pub within_cov: Sketch,
    /// Gap-aware coverage accounting over all tenants with data.
    pub coverage: Coverage,
    /// Total retransmissions across all tenants.
    pub total_retransmissions: u64,
    /// Total bits moved across all tenants.
    pub total_bits: f64,
    /// Chained FNV-1a digest — the jobs-invariance witness. A pane
    /// chains its tenant records in tenant order; the campaign chains
    /// its panes' digests in pane order.
    pub fingerprint: u64,
    /// Exact per-tenant means (self-check mode only; empty otherwise).
    check_means: Vec<f64>,
}

impl StreamSummary {
    /// An empty fold over `tenants` tenants: a whole campaign's, or one
    /// pane's, whose digest then chains from the basis.
    fn empty(tenants: u64) -> StreamSummary {
        StreamSummary {
            tenants,
            tenants_done: 0,
            alive: 0,
            partial: 0,
            dead: 0,
            panicked: 0,
            mean_bps: Sketch::new(SketchConfig::bandwidth_bps()),
            within_cov: Sketch::new(SketchConfig::ratio()),
            coverage: Coverage::default(),
            total_retransmissions: 0,
            total_bits: 0.0,
            fingerprint: FNV_BASIS,
            check_means: Vec::new(),
        }
    }

    /// A stand-in for a pane whose worker task panicked: every tenant
    /// in it is counted panicked, and the pane digest deterministically
    /// records the event (so a panicked pane still produces the same
    /// bytes at any worker count).
    fn panicked_pane(pane: u64, n_tenants: u64) -> StreamSummary {
        let mut acc = StreamSummary::empty(n_tenants);
        acc.tenants_done = n_tenants;
        acc.panicked = n_tenants;
        acc.fingerprint = fnv_fold(
            acc.fingerprint,
            &tenant_record(3, pane, 0.0, 0.0, 0.0, 0.0, n_tenants, 0, 0, 0, 0.0, 0.0),
        );
        acc
    }

    /// Fold one tenant's outcome into a pane, in tenant order.
    fn fold(&mut self, tenant: u64, sim: PairSim, self_check: bool) {
        self.tenants_done += 1;
        match sim {
            PairSim::Alive(r) => {
                self.alive += 1;
                self.fold_result(0, tenant, &r, f64::INFINITY, self_check);
            }
            PairSim::Partial(r, f) => {
                self.partial += 1;
                self.fold_result(1, tenant, &r, f.death_s, self_check);
            }
            PairSim::Dead(f) => {
                self.dead += 1;
                self.fingerprint = fnv_fold(
                    self.fingerprint,
                    &tenant_record(2, tenant, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0, 0.0, f.death_s),
                );
            }
        }
    }

    fn fold_result(
        &mut self,
        tag: u8,
        tenant: u64,
        r: &crate::campaign::CampaignResult,
        death_s: f64,
        self_check: bool,
    ) {
        let mean = r.summary.mean;
        let cov = r.summary.cov;
        self.mean_bps.push(mean);
        self.within_cov.push(cov);
        self.coverage.merge(&r.coverage);
        self.total_retransmissions += r.total_retransmissions;
        self.total_bits += r.total_bits;
        if self_check {
            self.check_means.push(mean);
        }
        self.fingerprint = fnv_fold(
            self.fingerprint,
            &tenant_record(
                tag,
                tenant,
                mean,
                cov,
                r.summary.min,
                r.summary.max,
                r.coverage.expected,
                r.coverage.observed,
                r.coverage.gaps,
                r.total_retransmissions,
                r.total_bits,
                death_s,
            ),
        );
    }

    /// Merge one pane's summary, in pane order; returns the pane's
    /// digest.
    fn absorb(&mut self, pane: StreamSummary) -> u64 {
        self.tenants_done += pane.tenants_done;
        self.alive += pane.alive;
        self.partial += pane.partial;
        self.dead += pane.dead;
        self.panicked += pane.panicked;
        assert!(
            self.mean_bps.merge(&pane.mean_bps) && self.within_cov.merge(&pane.within_cov),
            "pane sketches share the campaign's fixed configs"
        );
        self.coverage.merge(&pane.coverage);
        self.total_retransmissions += pane.total_retransmissions;
        self.total_bits += pane.total_bits;
        self.fingerprint = fnv_fold(self.fingerprint, &pane.fingerprint.to_le_bytes());
        self.check_means.extend_from_slice(&pane.check_means);
        pane.fingerprint
    }

    /// Cross-check the sketch against the exact `describe` path over
    /// the retained per-tenant means. `None` unless the campaign ran
    /// with `self_check` and at least one tenant produced data.
    pub fn self_check(&self) -> Option<SelfCheckReport> {
        if self.check_means.is_empty() {
            return None;
        }
        let exact = Summary::from_samples(&self.check_means);
        let pins = [
            (0.01, exact.box_summary.p1),
            (0.25, exact.box_summary.p25),
            (0.50, exact.box_summary.p50),
            (0.75, exact.box_summary.p75),
            (0.99, exact.box_summary.p99),
        ];
        let mut max_rel_err: f64 = 0.0;
        let mut bitwise = true;
        for (p, want) in pins {
            let got = self.mean_bps.quantile(p).unwrap_or(f64::NAN);
            bitwise &= got.to_bits() == want.to_bits();
            let rel = (got - want).abs() / want.abs().max(1e-300);
            if !(rel <= max_rel_err) {
                max_rel_err = rel; // NaN propagates into a FAIL
            }
        }
        let exact_path = self.mean_bps.is_exact();
        let bound = 3.0 * self.mean_bps.config().rel_error_bound();
        // On the exact path the contract is bit-identity; sketched, the
        // bounded histogram error.
        let pass = if exact_path { bitwise } else { max_rel_err <= bound };
        Some(SelfCheckReport { exact_path, max_rel_err, bound, pass })
    }

    /// Render the deterministic report the CLI prints — every value a
    /// pure function of the campaign inputs, so byte-diffing reports
    /// across worker counts and kill/resume is meaningful.
    pub fn render(&self, spec: &StreamSpec) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== streaming campaign ==");
        let _ = writeln!(
            s,
            "cloud:       {} {}",
            spec.profile.provider.name(),
            spec.profile.instance_type
        );
        let _ = writeln!(s, "pattern:     {}", spec.pattern.label());
        let _ = writeln!(s, "duration:    {} s per tenant", spec.duration_s);
        let _ = writeln!(s, "seed:        {}", spec.seed);
        match &spec.topology {
            Some(t) if !t.is_flat() => {
                let _ = writeln!(
                    s,
                    "topology:    {} ({} hosts, per-tenant path ceilings)",
                    t.name(),
                    t.hosts().len()
                );
            }
            Some(t) => {
                let _ = writeln!(s, "topology:    {} (flat: no ceilings)", t.name());
            }
            None => {
                let _ = writeln!(s, "topology:    none");
            }
        }
        let _ = writeln!(
            s,
            "tenants:     {} requested, {} simulated (alive {}, partial {}, dead {}, panicked {})",
            self.tenants, self.tenants_done, self.alive, self.partial, self.dead, self.panicked
        );
        let _ = writeln!(
            s,
            "coverage:    {} / {} observed ({:.4}%), {} gaps",
            self.coverage.observed,
            self.coverage.expected,
            self.coverage.coverage() * 100.0,
            self.coverage.gaps
        );
        let mode = if self.mean_bps.is_exact() { "exact" } else { "sketched" };
        let _ = writeln!(s, "across-tenant mean bandwidth, bps ({mode}, n={}):", self.mean_bps.n());
        let _ = writeln!(
            s,
            "  mean {:.6e}  cov {:.6}  min {:.6e}  max {:.6e}",
            self.mean_bps.mean(),
            self.mean_bps.cov(),
            self.mean_bps.min(),
            self.mean_bps.max()
        );
        let q = |sk: &Sketch, p: f64| sk.quantile(p).unwrap_or(f64::NAN);
        let _ = writeln!(
            s,
            "  p1 {:.6e}  p25 {:.6e}  p50 {:.6e}  p75 {:.6e}  p99 {:.6e}",
            q(&self.mean_bps, 0.01),
            q(&self.mean_bps, 0.25),
            q(&self.mean_bps, 0.50),
            q(&self.mean_bps, 0.75),
            q(&self.mean_bps, 0.99)
        );
        let _ = writeln!(s, "within-tenant cov (n={}):", self.within_cov.n());
        let _ = writeln!(
            s,
            "  mean {:.6}  p50 {:.6}  p99 {:.6}",
            self.within_cov.mean(),
            q(&self.within_cov, 0.50),
            q(&self.within_cov, 0.99)
        );
        let _ = writeln!(
            s,
            "totals:      {} retransmissions, {:.6e} bits",
            self.total_retransmissions, self.total_bits
        );
        let _ = writeln!(s, "fingerprint: {:#018x}", self.fingerprint);
        if let Some(check) = self.self_check() {
            let path = if check.exact_path { "exact path, bit-pinned" } else { "sketched" };
            let verdict = if check.pass { "PASS" } else { "FAIL" };
            let _ = writeln!(
                s,
                "self-check:  sketch vs exact quantiles: max rel err {:.3e} ({path}, bound {:.3e}) -- {verdict}",
                check.max_rel_err, check.bound
            );
        }
        s
    }
}

/// Result of the sketch-vs-exact self-check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfCheckReport {
    /// Whether the sketch was still on its exact (bit-pinned) path.
    pub exact_path: bool,
    /// Largest relative quantile error observed across the pinned ps.
    pub max_rel_err: f64,
    /// The error bound the sketched path promises.
    pub bound: f64,
    /// Whether the contract held (bit-identity when exact, bounded
    /// error when sketched).
    pub pass: bool,
}

/// Simulate one pane serially in tenant order — a pure function of the
/// spec, the placement, and the pane index. The first simulation error
/// in tenant order is the pane's result.
fn simulate_pane(
    spec: &StreamSpec,
    placement: Option<&Placement>,
    pane: u64,
) -> Result<StreamSummary, MeasureError> {
    let (start, end) = spec.pane_bounds(pane);
    let mut acc = StreamSummary::empty(end - start);
    for t in start..end {
        let pair_seed = derive_seed(spec.seed, t);
        let cap = placement.and_then(|p| tenant_path_cap(p, pair_seed, t));
        let sim = simulate_pair_capped(
            &spec.profile,
            spec.pattern,
            spec.duration_s,
            pair_seed,
            t as usize,
            cap,
        )?;
        acc.fold(t, sim, spec.self_check);
    }
    Ok(acc)
}

/// Run a streaming campaign with `jobs` workers. Memory is bounded by
/// the panes in flight; the report is byte-identical at any `jobs`.
pub fn run_fleet_stream(spec: &StreamSpec, jobs: usize) -> Result<StreamSummary, MeasureError> {
    let placement = resolve_placement(spec)?;
    let mut summary = StreamSummary::empty(spec.tenants);
    drive_panes(spec, placement.as_ref(), jobs, 0, &mut summary, |_, _, _| Ok(()))?;
    Ok(summary)
}

/// The pane pump shared by the plain and journaled drivers: simulate
/// panes `start_pane..` through the ordered pipeline, at most
/// [`IN_FLIGHT`](crate::IN_FLIGHT) in flight, absorb each pane in pane order on this
/// thread, and hand `(summary, pane, pane_fp)` to `after_pane` after
/// each merge (the journaled driver's checkpoint hook), while the
/// workers simulate the panes after it. The first simulation error in
/// pane order aborts the campaign.
fn drive_panes(
    spec: &StreamSpec,
    placement: Option<&Placement>,
    jobs: usize,
    start_pane: u64,
    summary: &mut StreamSummary,
    mut after_pane: impl FnMut(&StreamSummary, u64, u64) -> Result<(), MeasureError>,
) -> Result<(), MeasureError> {
    let panes = spec.pane_count().saturating_sub(start_pane) as usize;
    exec::par_for_each_ordered(
        jobs,
        panes,
        crate::IN_FLIGHT,
        |k| simulate_pane(spec, placement, start_pane + k as u64),
        |k, res| {
            let p = start_pane + k as u64;
            let acc = match res {
                Ok(acc) => acc?,
                // A pane-task panic is contained: the pane's tenants
                // are counted panicked and the campaign continues.
                Err(_panic) => {
                    let (s, e) = spec.pane_bounds(p);
                    StreamSummary::panicked_pane(p, e - s)
                }
            };
            let pane_fp = summary.absorb(acc);
            after_pane(summary, p, pane_fp)
        },
    )
}

/// Resume accounting for a journaled streaming campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamResumeStats {
    /// Whether an existing journal was opened (vs created fresh).
    pub resumed: bool,
    /// Tenants restored from the last checkpoint instead of recomputed.
    pub tenants_skipped: u64,
    /// Tenants computed in this run.
    pub tenants_computed: u64,
    /// Whether the checkpointed pane was re-verified bit-for-bit.
    pub verified_pane: bool,
    /// Bytes of torn tail the journal discarded on open.
    pub truncated_bytes: usize,
    /// Checkpoints appended by this run.
    pub checkpoints_written: u64,
}

/// A journaled streaming campaign's complete result.
#[derive(Debug, Clone)]
pub struct JournaledStream {
    /// The campaign summary (byte-identical to an uninterrupted
    /// [`run_fleet_stream`] of the same spec).
    pub summary: StreamSummary,
    /// The config fingerprint the journal is bound to.
    pub config_fingerprint: u64,
    /// Resume accounting.
    pub resume: StreamResumeStats,
}

/// Run (or resume) a crash-safe streaming campaign. Checkpoints are
/// appended every [`StreamSpec::checkpoint_every`] tenants (aligned to
/// pane boundaries) and once at the end; `on_checkpoint(tenants_done)`
/// fires after each durable append — the CLI's crash-testing hook.
///
/// `self_check` mode is refused: its exact buffer is O(N) state the
/// checkpoint format intentionally cannot hold.
pub fn run_fleet_stream_journaled(
    spec: &StreamSpec,
    journal_path: &Path,
    resume: bool,
    jobs: usize,
    mut on_checkpoint: impl FnMut(u64),
) -> Result<JournaledStream, MeasureError> {
    if spec.self_check {
        return Err(MeasureError::JournalFailed {
            detail: "self-check mode retains O(N) state and cannot be journaled".to_string(),
        });
    }
    let config_fp = spec.config_fingerprint();
    // Resume needs only the final checkpoint: keep the last record the
    // open visits, never the whole log.
    let mut last_record = None;
    let (mut jnl, resumed, truncated_bytes) =
        open_or_create(journal_path, config_fp, resume, |rec| last_record = Some(rec))?;

    let placement = resolve_placement(spec)?;
    let mut summary = StreamSummary::empty(spec.tenants);
    let mut last_ckpt: u64 = 0;
    let mut verified_pane = false;
    let mut start_pane: u64 = 0;

    // Restore the last checkpoint, verifying its pane digest against a
    // fresh recomputation before trusting — or extending — the log.
    if let Some(rec) = last_record {
        let Some(ckpt) = decode_checkpoint(&rec.payload, spec) else {
            return Err(MeasureError::JournalFailed {
                detail: "checkpoint record failed to decode".to_string(),
            });
        };
        let fresh = simulate_pane(spec, placement.as_ref(), ckpt.last_pane)?;
        if fresh.fingerprint != ckpt.last_pane_fp {
            return Err(MeasureError::ResumeDivergence {
                shard: ckpt.last_pane,
                journaled_fp: ckpt.last_pane_fp,
                recomputed_fp: fresh.fingerprint,
            });
        }
        verified_pane = true;
        last_ckpt = ckpt.summary.tenants_done;
        // The checkpointed pane is fully absorbed (the decoder pins
        // `tenants_done` to its end bound), so resume at the pane after
        // it. Deriving the pane from `tenants_done / PANE_TENANTS`
        // would floor a partial final pane back into range and fold its
        // tenants twice.
        start_pane = ckpt.last_pane + 1;
        summary = ckpt.summary;
    }
    let tenants_skipped = summary.tenants_done;

    // Checkpoint positions are a pure function of absolute tenant
    // counts (cadence from the persisted `last_ckpt`), so a resumed
    // run's journal is byte-identical to an uninterrupted one's.
    let cadence = spec.cadence();
    let mut checkpoints_written = 0u64;
    drive_panes(spec, placement.as_ref(), jobs, start_pane, &mut summary, |s, pane, pane_fp| {
        if s.tenants_done >= last_ckpt + cadence || s.tenants_done == spec.tenants {
            let payload = encode_checkpoint(s, pane, pane_fp);
            let fingerprint = fingerprint64(&payload);
            jnl.append(JournalRecord {
                shard: jnl.len() as u64,
                seed: spec.seed,
                fingerprint,
                payload,
            })?;
            last_ckpt = s.tenants_done;
            checkpoints_written += 1;
            on_checkpoint(s.tenants_done);
        }
        Ok(())
    })?;

    Ok(JournaledStream {
        summary,
        config_fingerprint: config_fp,
        resume: StreamResumeStats {
            resumed,
            tenants_skipped,
            tenants_computed: spec.tenants.saturating_sub(tenants_skipped),
            verified_pane,
            truncated_bytes,
            checkpoints_written,
        },
    })
}

/// Decoded checkpoint state.
struct Checkpoint {
    summary: StreamSummary,
    last_pane: u64,
    last_pane_fp: u64,
}

/// Serialize the full accumulator state (bit-faithful) plus the last
/// pane's identity and digest for resume verification.
fn encode_checkpoint(s: &StreamSummary, last_pane: u64, last_pane_fp: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(128);
    b.push(CHECKPOINT_VERSION);
    b.extend_from_slice(&last_pane.to_le_bytes());
    b.extend_from_slice(&last_pane_fp.to_le_bytes());
    for v in [
        s.tenants,
        s.tenants_done,
        s.alive,
        s.partial,
        s.dead,
        s.panicked,
        s.coverage.expected,
        s.coverage.observed,
        s.coverage.gaps,
        s.total_retransmissions,
        s.total_bits.to_bits(),
        s.fingerprint,
    ] {
        b.extend_from_slice(&v.to_le_bytes());
    }
    s.mean_bps.encode_into(&mut b);
    s.within_cov.encode_into(&mut b);
    b
}

/// Decode a checkpoint; `None` on truncation, version mismatch, or
/// nonsensical contents.
fn decode_checkpoint(bytes: &[u8], spec: &StreamSpec) -> Option<Checkpoint> {
    let mut r = Reader::new(bytes);
    if r.u8()? != CHECKPOINT_VERSION {
        return None;
    }
    let last_pane = r.u64()?;
    let last_pane_fp = r.u64()?;
    let tenants = r.u64()?;
    let tenants_done = r.u64()?;
    let alive = r.u64()?;
    let partial = r.u64()?;
    let dead = r.u64()?;
    let panicked = r.u64()?;
    let coverage = Coverage {
        expected: r.u64()?,
        observed: r.u64()?,
        gaps: r.u64()?,
    };
    let total_retransmissions = r.u64()?;
    let total_bits = f64::from_bits(r.u64()?);
    let fingerprint = r.u64()?;
    let mut at = 0usize;
    let mean_bps = Sketch::decode(r.rest(), &mut at)?;
    r.advance(at)?;
    let mut at = 0usize;
    let within_cov = Sketch::decode(r.rest(), &mut at)?;
    r.advance(at)?;
    if !r.done() || tenants != spec.tenants || tenants_done > tenants {
        return None;
    }
    if tenants_done != PANE_TENANTS * last_pane + (spec.pane_bounds(last_pane).1 - spec.pane_bounds(last_pane).0) {
        return None;
    }
    Some(Checkpoint {
        summary: StreamSummary {
            tenants,
            tenants_done,
            alive,
            partial,
            dead,
            panicked,
            mean_bps,
            within_cov,
            coverage,
            total_retransmissions,
            total_bits,
            fingerprint,
            check_means: Vec::new(),
        },
        last_pane,
        last_pane_fp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tenants: u64) -> StreamSpec {
        // 90 simulated seconds per tenant keeps each pair at ~9
        // bandwidth intervals: enough to exercise faults and gaps,
        // cheap enough for hundreds of tenants per test.
        StreamSpec::new(
            clouds::hpccloud::n_core(8).with_reference_faults(),
            TrafficPattern::FullSpeed,
            90.0,
            tenants,
            0x5eed_cafe,
        )
    }

    #[test]
    fn streaming_campaign_is_jobs_invariant() {
        let s = spec(600); // 2 full panes + 1 partial pane of 88
        let one = run_fleet_stream(&s, 1).expect("jobs=1");
        // 3 workers do not divide the pane window, and 8 outnumber the
        // panes: each interleaves claims and consumption differently.
        for jobs in [2, 3, 8] {
            let wide = run_fleet_stream(&s, jobs).expect("wide");
            assert_eq!(one.fingerprint, wide.fingerprint, "jobs={jobs}");
            assert_eq!(one.render(&s), wide.render(&s), "jobs={jobs}");
        }
        assert_eq!(one.tenants_done, 600);
        assert_eq!(one.alive + one.partial + one.dead + one.panicked, 600);
        assert!(one.mean_bps.n() > 0, "some tenants must produce data");
    }

    #[test]
    fn small_campaign_self_check_is_bit_pinned() {
        let mut s = spec(300);
        s.self_check = true;
        let out = run_fleet_stream(&s, 2).expect("run");
        let check = out.self_check().expect("self-check data retained");
        assert!(check.exact_path, "300 tenants fit the exact buffer");
        assert!(check.pass, "exact path must match describe bit-for-bit");
        assert_eq!(check.max_rel_err, 0.0);
        assert!(out.render(&s).contains("self-check"));
    }

    #[test]
    fn topology_ceilings_bind_and_change_the_fingerprint() {
        let flat = spec(400);
        let mut star = spec(400);
        star.topology = Some(topo::zoo::star(16).expect("star"));
        let f = run_fleet_stream(&flat, 2).expect("flat");
        let t = run_fleet_stream(&star, 2).expect("star");
        assert_ne!(
            f.fingerprint, t.fingerprint,
            "a 16-host star shares uplinks, so ceilings must bind"
        );
        assert!(t.mean_bps.mean() < f.mean_bps.mean());
    }

    #[test]
    fn flat_topology_is_equivalent_to_no_topology() {
        let bare = spec(300);
        let mut flat = bare.clone();
        flat.topology = Some(topo::zoo::flat(16));
        let b = run_fleet_stream(&bare, 2).expect("bare");
        let f = run_fleet_stream(&flat, 2).expect("flat");
        assert_eq!(b.fingerprint, f.fingerprint);
    }

    #[test]
    fn journaled_run_matches_plain_run() {
        let dir = tempdir("stream-jnl-plain");
        let mut s = spec(520);
        s.checkpoint_every = 200;
        let plain = run_fleet_stream(&s, 2).expect("plain");
        let mut ckpts = Vec::new();
        let j = run_fleet_stream_journaled(&s, &dir.join("a.jnl"), false, 2, |done| {
            ckpts.push(done)
        })
        .expect("journaled");
        assert_eq!(j.summary.fingerprint, plain.fingerprint);
        assert_eq!(j.summary.render(&s), plain.render(&s));
        assert!(!j.resume.resumed);
        assert_eq!(j.resume.tenants_computed, 520);
        // Cadence 200 on pane-boundary counts 256/512/520: checkpoints
        // land at 256, 512 (>= 200, >= 456) and the final 520.
        assert_eq!(ckpts, vec![256, 512, 520]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_after_torn_tail_is_byte_identical() {
        let dir = tempdir("stream-jnl-resume");
        let mut s = spec(520);
        s.checkpoint_every = 200;
        let full_path = dir.join("full.jnl");
        run_fleet_stream_journaled(&s, &full_path, false, 1, |_| ()).expect("full run");
        let full_bytes = std::fs::read(&full_path).expect("read full");
        let uninterrupted = run_fleet_stream(&s, 1).expect("plain");

        for jobs in [1, 2, 3, 8] {
            let wide_path = dir.join(format!("full-{jobs}.jnl"));
            run_fleet_stream_journaled(&s, &wide_path, false, jobs, |_| ()).expect("full run");
            let wide_bytes = std::fs::read(&wide_path).expect("read full");
            assert_eq!(wide_bytes, full_bytes, "jobs={jobs}: journal must be jobs-invariant");

            // Simulate a mid-append SIGKILL: keep a prefix that tears
            // the final checkpoint record.
            let torn_path = dir.join(format!("torn-{jobs}.jnl"));
            std::fs::write(&torn_path, &full_bytes[..full_bytes.len() - 11]).expect("write torn");
            let j = run_fleet_stream_journaled(&s, &torn_path, true, jobs, |_| ()).expect("resume");
            assert!(j.resume.resumed);
            assert!(j.resume.verified_pane);
            assert!(j.resume.truncated_bytes > 0);
            assert!(j.resume.tenants_skipped >= 256);
            assert!(j.resume.tenants_computed < 520);
            let resumed_bytes = std::fs::read(&torn_path).expect("read resumed");
            assert_eq!(
                resumed_bytes, full_bytes,
                "jobs={jobs}: resumed journal must be byte-identical to an uninterrupted one"
            );
            assert_eq!(j.summary.fingerprint, uninterrupted.fingerprint, "jobs={jobs}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_completed_journal_is_a_noop() {
        let dir = tempdir("stream-jnl-done");
        // 520 tenants: the final pane is partial (520 % 256 != 0), so a
        // count-derived start pane would floor into the absorbed pane
        // and double-fold its tenants.
        let mut s = spec(520);
        s.checkpoint_every = 200;
        let path = dir.join("done.jnl");
        let first = run_fleet_stream_journaled(&s, &path, false, 2, |_| ()).expect("first run");
        let bytes = std::fs::read(&path).expect("read journal");

        let again = run_fleet_stream_journaled(&s, &path, true, 2, |_| ()).expect("resume");
        assert!(again.resume.resumed);
        assert!(again.resume.verified_pane);
        assert_eq!(again.resume.tenants_skipped, 520);
        assert_eq!(again.resume.tenants_computed, 0);
        assert_eq!(again.resume.checkpoints_written, 0);
        assert_eq!(again.summary.tenants_done, 520);
        assert_eq!(
            again.summary.fingerprint, first.summary.fingerprint,
            "resuming a complete journal must not re-fold any tenants"
        );
        assert_eq!(again.summary.render(&s), first.summary.render(&s));
        assert_eq!(
            std::fs::read(&path).expect("reread journal"),
            bytes,
            "a no-op resume must leave the journal untouched"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_config_drift_and_divergence() {
        let dir = tempdir("stream-jnl-reject");
        let mut s = spec(300);
        s.checkpoint_every = 128;
        let path = dir.join("c.jnl");
        run_fleet_stream_journaled(&s, &path, false, 1, |_| ()).expect("seed run");

        let mut other = s.clone();
        other.seed ^= 1;
        match run_fleet_stream_journaled(&other, &path, true, 1, |_| ()) {
            Err(MeasureError::ResumeConfigMismatch { .. }) => {}
            other => panic!("expected config mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn self_check_cannot_be_journaled() {
        let dir = tempdir("stream-jnl-selfcheck");
        let mut s = spec(64);
        s.self_check = true;
        match run_fleet_stream_journaled(&s, &dir.join("x.jnl"), false, 1, |_| ()) {
            Err(MeasureError::JournalFailed { detail }) => {
                assert!(detail.contains("self-check"));
            }
            other => panic!("expected journal refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_codec_roundtrips_and_rejects_truncation() {
        let s = spec(300);
        let out = run_fleet_stream(&s, 1).expect("run");
        let payload = encode_checkpoint(&out, s.pane_count() - 1, 0xabcd);
        let ck = decode_checkpoint(&payload, &s).expect("roundtrip");
        assert_eq!(ck.summary.fingerprint, out.fingerprint);
        assert_eq!(ck.summary.tenants_done, 300);
        assert_eq!(ck.last_pane, s.pane_count() - 1);
        assert_eq!(ck.last_pane_fp, 0xabcd);
        for cut in [0, 1, 40, payload.len() - 1] {
            assert!(
                decode_checkpoint(&payload[..cut], &s).is_none(),
                "truncation at {cut} must be rejected"
            );
        }
        let mut wrong_version = payload.clone();
        wrong_version[0] = CHECKPOINT_VERSION + 1;
        assert!(decode_checkpoint(&wrong_version, &s).is_none());
    }

    #[test]
    fn pane_bounds_partition_the_tenants() {
        let s = spec(600);
        assert_eq!(s.pane_count(), 3);
        assert_eq!(s.pane_bounds(0), (0, 256));
        assert_eq!(s.pane_bounds(1), (256, 512));
        assert_eq!(s.pane_bounds(2), (512, 600));
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cloud-repro-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }
}
