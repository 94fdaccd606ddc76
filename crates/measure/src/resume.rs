//! Fleet campaigns: supervised, and optionally crash-safe and resumable.
//!
//! A fleet measures `n_pairs` independent VM pairs of one instance type
//! (each with its own incarnation seed) — the paper's campaigns measure
//! per-pair, and the Ballani data (Figure 2) shows how much *pairs*
//! differ within a cloud. Separating within-pair (temporal) from
//! across-pair (spatial) variability tells an experimenter whether more
//! time or more allocations reduce their error.
//!
//! The paper's campaigns run for days. A process death must not lose
//! completed work, and a repeatedly dying shard must not starve the
//! rest of the campaign of repairs. Two drivers share one supervised
//! settle loop: [`run_fleet`] keeps everything in memory, and
//! [`run_fleet_journaled`] also writes each settled shard to a
//! [`journal`] write-ahead log. For the same [`FleetSpec`] both return
//! bit-identical fleets.
//!
//! * **Checkpointing** — every settled shard (VM pair) is appended to
//!   the journal, durable every [`FleetSpec::checkpoint_every`] shards,
//!   so a SIGKILL at any instant loses at most the open group.
//! * **Resume** — `resume: true` re-opens the journal, *verifies* a
//!   deterministic sample of journaled shards bit-for-bit against fresh
//!   recomputation (divergence is a hard [`MeasureError::ResumeDivergence`],
//!   never a silent overwrite), replays the retry accountant from the
//!   journaled supervision prefixes, and computes only the missing
//!   shards. The final report is byte-identical to an uninterrupted
//!   run's — the verify.sh `campaign-kill-resume` gate proves it.
//! * **Supervision** — the unit of repair is an attempt, as in the
//!   paper's re-allocate-and-repeat discipline: a shard whose pair dies
//!   before producing data, or whose task panics, is retried under a
//!   fresh incarnation seed, at most [`SupervisePolicy::max_shard_attempts`]
//!   times. Every retry draws from a campaign-wide
//!   [`exec::RetryAccountant`]; a refused retry leaves the shard with
//!   its last outcome and is surfaced in the DEGRADED report.
//! * **Errors** — a simulation error other than a pair dying without
//!   data aborts the campaign: the first one in shard order wins, so the
//!   error, like the result, is independent of the worker count.
//!
//! ## Determinism of supervision
//!
//! Retry grants are consulted in **strict shard-index order** — shard
//! `i`'s supervision depends only on the outcomes of shards `< i`, all
//! of which the journal records exactly (retries consumed + starved
//! flag). A resumed run therefore reconstructs the accountant in the
//! same state the interrupted run would have reached, and every
//! downstream decision replays identically. First attempts stream
//! through the `exec` ordered pipeline, at most
//! `IN_FLIGHT` ahead of the shard being settled;
//! retries (rare) run serially as each shard settles.

use crate::campaign::{assemble_fleet, simulate_pair_capped, FleetResult, PairSim};
use crate::error::MeasureError;
use crate::wire::{decode_outcome, encode_outcome, ShardOutcome, ShardSim};
use clouds::CloudProfile;
use exec::{RetryAccountant, TaskPanic};
use journal::{fingerprint64, Journal, JournalRecord};
use netsim::pattern::TrafficPattern;
use netsim::rng::{derive_seed, SimRng};
use std::collections::BTreeMap;
use std::path::Path;

/// Seed-derivation labels: retry re-incarnations and the verify-sample
/// choice come from decoupled streams, so turning verification on or
/// off never perturbs the campaign itself.
const LABEL_RETRY: u64 = 0x52E7;
const LABEL_VERIFY: u64 = 0x7E81;

/// Supervision limits for a fleet campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisePolicy {
    /// Attempts a single shard may consume (first attempt included).
    /// A shard whose pair dies before producing data — or whose task
    /// panics — is retried under a re-derived seed (a fresh VM-pair
    /// incarnation, as the paper's methodology would re-allocate), up
    /// to this many times.
    pub max_shard_attempts: u32,
    /// Campaign-wide cap on retries across all shards. Exhaustion is
    /// surfaced in the report, not an error: the campaign settles for
    /// what it has, which is the paper's own degraded-data discipline.
    pub retry_budget: u32,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy { max_shard_attempts: 3, retry_budget: 8 }
    }
}

/// Everything that defines a fleet campaign. Two specs with the same
/// [`config_fingerprint`](FleetSpec::config_fingerprint) produce
/// bit-identical campaigns; the journal header binds a log to one
/// fingerprint so resuming under a changed config fails loudly.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The cloud under measurement.
    pub profile: CloudProfile,
    /// Traffic pattern for every pair.
    pub pattern: TrafficPattern,
    /// Campaign duration per pair, seconds.
    pub duration_s: f64,
    /// Number of VM pairs (shards).
    pub n_pairs: usize,
    /// Campaign seed; per-shard streams derive from it.
    pub seed: u64,
    /// Supervision limits. `max_shard_attempts: 1` gives every pair
    /// exactly one attempt under its plain `derive_seed(seed, pair)`
    /// stream.
    pub supervise: SupervisePolicy,
    /// Journaled shards a resume recomputes and compares bit-for-bit
    /// before trusting the log (chosen by a seed-derived stream). Not
    /// part of the config fingerprint: it changes what is checked,
    /// never what is computed.
    pub verify_sample: usize,
    /// Group commit for the journaled driver: settled shards are framed
    /// into the journal immediately, but written and synced once per
    /// `checkpoint_every` shards (and once at the end); 0 means every
    /// shard. Not part of the config fingerprint: it changes how often
    /// durability happens, never what is computed or the final journal
    /// bytes.
    pub checkpoint_every: usize,
}

impl FleetSpec {
    /// A spec with default supervision, no resume verification and a
    /// durable journal write per shard.
    pub fn new(
        profile: CloudProfile,
        pattern: TrafficPattern,
        duration_s: f64,
        n_pairs: usize,
        seed: u64,
    ) -> FleetSpec {
        FleetSpec {
            profile,
            pattern,
            duration_s,
            n_pairs,
            seed,
            supervise: SupervisePolicy::default(),
            verify_sample: 0,
            checkpoint_every: 0,
        }
    }

    /// 64-bit fingerprint of the campaign configuration. Covers every
    /// input that influences results (profile, pattern, duration bits,
    /// pair count, seed, supervision policy) and nothing that does not
    /// (worker count, journal path, verification sample size,
    /// checkpoint cadence).
    pub fn config_fingerprint(&self) -> u64 {
        let rendered = format!(
            "{:?}|{}|{:x}|{}|{:x}|{:?}",
            self.profile,
            self.pattern.label(),
            self.duration_s.to_bits(),
            self.n_pairs,
            self.seed,
            self.supervise,
        );
        fingerprint64(rendered.as_bytes())
    }

    /// Seed for a shard's `attempt`-th try. Attempt 0 is the plain
    /// fleet derivation (`derive_seed(seed, shard)`), the same stream a
    /// streaming campaign gives tenant `shard`; retries re-derive
    /// through [`LABEL_RETRY`] — a fresh incarnation whose stream never
    /// overlaps any other shard's.
    fn attempt_seed(&self, shard: usize, attempt: u32) -> u64 {
        let base = derive_seed(self.seed, shard as u64);
        match attempt {
            0 => base,
            k => derive_seed(base, LABEL_RETRY.wrapping_add(k as u64)),
        }
    }
}

/// What resuming found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeStats {
    /// Whether an existing journal was opened (vs created fresh).
    pub resumed: bool,
    /// Shards taken from the journal instead of recomputed.
    pub skipped: usize,
    /// Shards computed in this run.
    pub computed: usize,
    /// Journaled shards re-verified bit-for-bit.
    pub verified: usize,
    /// Bytes of torn tail the journal discarded on open (a crash mid-
    /// append; the interrupted shard is recomputed).
    pub truncated_bytes: usize,
}

/// How much supervision the campaign consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Retries granted across the whole campaign (journaled runs
    /// replay prior grants, so this is cumulative).
    pub retries_used: u32,
    /// The campaign's total retry budget.
    pub retry_budget: u32,
    /// Some shard wanted another attempt and the retry budget refused
    /// it. The report must say so: the sample is not just degraded, it
    /// is *capped*.
    pub retry_exhausted: bool,
}

/// A journaled campaign's complete result.
#[derive(Debug, Clone)]
pub struct JournaledFleet {
    /// The fleet result — bit-identical to [`run_fleet`] of the same
    /// spec, whether this run was fresh or resumed.
    pub fleet: FleetResult,
    /// Resume accounting.
    pub resume: ResumeStats,
}

/// Run a fleet campaign with `jobs` workers under the spec's
/// supervision. The fleet is bit-identical at any `jobs` — parallelism
/// buys wall-clock time only — and to [`run_fleet_journaled`]'s.
pub fn run_fleet(spec: &FleetSpec, jobs: usize) -> Result<FleetResult, MeasureError> {
    let mut accountant = RetryAccountant::new(spec.supervise.retry_budget);
    let mut done = BTreeMap::new();
    settle(spec, jobs, &mut accountant, &mut done, |_, _| Ok(()))?;
    assemble_fleet(done, &accountant)
}

/// Run (or resume) a crash-safe fleet campaign.
///
/// * `resume: false` requires `journal_path` not to exist (a stale
///   journal must be deleted explicitly, never silently clobbered).
/// * `resume: true` opens an existing journal — failing loudly on a
///   config mismatch — or starts fresh when none exists.
/// * [`FleetSpec::verify_sample`] journaled shards are recomputed and
///   compared bit-for-bit before any new work runs.
/// * `on_checkpoint(n)` fires after each durable journal write with the
///   journal's record count — the pairs it now covers (the CLI's
///   crash-testing hook).
///
/// A kill mid-write leaves the previous groups intact plus at most a
/// torn record, which the next open discards; a kill between writes
/// loses at most the open group. Either way resume recomputes exactly
/// the lost shards, and the record sequence — hence the final journal
/// bytes — does not depend on the cadence, the worker count or any
/// interruption.
pub fn run_fleet_journaled(
    spec: &FleetSpec,
    journal_path: &Path,
    resume: bool,
    jobs: usize,
    mut on_checkpoint: impl FnMut(u64),
) -> Result<JournaledFleet, MeasureError> {
    // The last record per shard wins.
    let mut recovered: BTreeMap<u64, JournalRecord> = BTreeMap::new();
    let (mut jnl, resumed, truncated_bytes) =
        open_or_create(journal_path, spec.config_fingerprint(), resume, |rec| {
            recovered.insert(rec.shard, rec);
        })?;

    // Decode what the journal already holds. A record for a shard
    // outside the spec can only appear if the config fingerprint was
    // defeated, so treat it as corruption.
    let mut done: BTreeMap<usize, ShardOutcome> = BTreeMap::new();
    for (&shard, rec) in &recovered {
        let shard = shard as usize;
        if shard >= spec.n_pairs {
            return Err(MeasureError::JournalFailed {
                detail: format!("record for shard {shard} outside 0..{}", spec.n_pairs),
            });
        }
        let out = decode_outcome(&rec.payload, &spec.profile, spec.pattern, shard).ok_or_else(
            || MeasureError::JournalFailed {
                detail: format!("record for shard {shard} failed to decode"),
            },
        )?;
        done.insert(shard, out);
    }
    let skipped = done.len();

    // Replay the retry accountant from the journaled supervision
    // prefixes, in shard order — the exact state the interrupted run
    // had after settling these shards.
    let mut accountant = RetryAccountant::new(spec.supervise.retry_budget);
    for out in done.values() {
        accountant.replay(out.retries);
    }

    // Verify a deterministic sample of journaled shards bit-for-bit
    // before trusting — or extending — the log.
    let verified = verify_resumed_shards(spec, &recovered, &done)?;
    drop(recovered);

    let group = spec.checkpoint_every.max(1);
    settle(spec, jobs, &mut accountant, &mut done, |shard, out| {
        let payload = encode_outcome(out);
        jnl.append_deferred(JournalRecord {
            shard: shard as u64,
            seed: spec.attempt_seed(shard, out.retries),
            fingerprint: fingerprint64(&payload),
            payload,
        });
        if jnl.pending() >= group {
            jnl.flush()?;
            on_checkpoint(jnl.len() as u64);
        }
        Ok(())
    })?;
    // Final group (possibly short): everything is durable before the
    // report is assembled.
    if jnl.pending() > 0 {
        jnl.flush()?;
        on_checkpoint(jnl.len() as u64);
    }

    Ok(JournaledFleet {
        fleet: assemble_fleet(done, &accountant)?,
        resume: ResumeStats {
            resumed,
            skipped,
            computed: spec.n_pairs - skipped,
            verified,
            truncated_bytes,
        },
    })
}

/// The open-or-create handshake of every journaled driver: with
/// `resume` and a journal on disk, open it — failing loudly on a config
/// mismatch — and hand each recovered record, in order, to `visit`;
/// otherwise create it fresh, refusing to clobber an existing file.
/// Returns the journal, whether it was resumed, and the bytes of torn
/// tail the open found.
pub(crate) fn open_or_create(
    path: &Path,
    config_fp: u64,
    resume: bool,
    visit: impl FnMut(JournalRecord),
) -> Result<(Journal, bool, usize), MeasureError> {
    if resume && path.exists() {
        let (jnl, report) = Journal::open_with(path, config_fp, visit)?;
        Ok((jnl, true, report.truncated_bytes))
    } else {
        Ok((Journal::create(path, config_fp)?, false, 0))
    }
}

/// Recompute [`FleetSpec::verify_sample`] journaled shards and require
/// their encoded bytes to match the journal exactly. The sample is
/// chosen by a dedicated derived stream over the *simulated* records
/// (panicked shards have nothing to recompute).
fn verify_resumed_shards(
    spec: &FleetSpec,
    recovered: &BTreeMap<u64, JournalRecord>,
    done: &BTreeMap<usize, ShardOutcome>,
) -> Result<usize, MeasureError> {
    let mut candidates: Vec<usize> = done
        .iter()
        .filter(|(_, out)| matches!(out.sim, ShardSim::Sim(_)))
        .map(|(shard, _)| *shard)
        .collect();
    let k = spec.verify_sample.min(candidates.len());
    if k == 0 {
        return Ok(0);
    }
    let mut rng = SimRng::new(derive_seed(spec.seed, LABEL_VERIFY));
    rng.shuffle(&mut candidates);
    candidates.truncate(k);
    candidates.sort_unstable();
    for shard in candidates {
        let (Some(rec), Some(out)) = (recovered.get(&(shard as u64)), done.get(&shard)) else {
            return Err(MeasureError::JournalFailed {
                detail: format!("shard {shard} vanished from the journal"),
            });
        };
        // Re-run the accepted attempt under its journaled seed, with
        // the panic containment the original run had.
        let recomputed_fp = match attempt(spec, shard, rec.seed)? {
            Ok(sim) => {
                let bytes = encode_outcome(&ShardOutcome {
                    retries: out.retries,
                    starved: out.starved,
                    sim: ShardSim::Sim(sim),
                });
                let fp = fingerprint64(&bytes);
                if bytes == rec.payload && fp == rec.fingerprint {
                    continue;
                }
                fp
            }
            // The journal says this shard simulated cleanly; a panic on
            // recomputation is divergence, not a new outcome.
            Err(_) => 0,
        };
        return Err(MeasureError::ResumeDivergence {
            shard: shard as u64,
            journaled_fp: rec.fingerprint,
            recomputed_fp,
        });
    }
    Ok(k)
}

/// One attempt's result: a simulation error is the outer `Err` (it
/// aborts the campaign), a contained worker panic the inner one (it is
/// retriable).
type Attempt = Result<Result<PairSim, TaskPanic>, MeasureError>;

/// Simulate shard `shard` under `seed`.
fn simulate(spec: &FleetSpec, shard: usize, seed: u64) -> Result<PairSim, MeasureError> {
    simulate_pair_capped(&spec.profile, spec.pattern, spec.duration_s, seed, shard, None)
}

/// Split a contained attempt into an [`Attempt`], reporting a panic
/// against the shard (`exec` reports it against its task index).
fn attempt_of(shard: usize, res: Result<Result<PairSim, MeasureError>, TaskPanic>) -> Attempt {
    match res {
        Ok(sim) => sim.map(Ok),
        Err(p) => Ok(Err(TaskPanic { task: shard, payload: p.payload })),
    }
}

/// One serial attempt (a single-task pass through `exec` reuses its
/// panic containment).
fn attempt(spec: &FleetSpec, shard: usize, seed: u64) -> Attempt {
    match exec::try_par_map(1, &[seed], |&seed| simulate(spec, shard, seed)).pop() {
        Some(res) => attempt_of(shard, res),
        None => Ok(Err(TaskPanic { task: shard, payload: "empty pool result".into() })),
    }
}

/// The one supervised settle loop behind both drivers. First attempts
/// of the shards not yet in `done` stream through the ordered pipeline,
/// at most [`IN_FLIGHT`](crate::IN_FLIGHT) ahead of the shard being
/// settled; on this thread each shard settles — retries and their
/// grants — **in shard-index order** and is handed to `on_settled`
/// (the journaled driver's append) while the workers simulate the
/// shards after it. Every supervision decision is a pure function of
/// lower-indexed outcomes, so results and the journal's record
/// sequence are invariant to the worker count. The first simulation
/// error in shard order aborts the campaign.
fn settle(
    spec: &FleetSpec,
    jobs: usize,
    accountant: &mut RetryAccountant,
    done: &mut BTreeMap<usize, ShardOutcome>,
    mut on_settled: impl FnMut(usize, &ShardOutcome) -> Result<(), MeasureError>,
) -> Result<(), MeasureError> {
    let missing: Vec<usize> = (0..spec.n_pairs).filter(|i| !done.contains_key(i)).collect();
    exec::par_for_each_ordered(
        jobs,
        missing.len(),
        crate::IN_FLIGHT,
        |k| simulate(spec, missing[k], spec.attempt_seed(missing[k], 0)),
        |k, first| {
            let shard = missing[k];
            let outcome = supervise(spec, shard, attempt_of(shard, first)?, accountant)?;
            on_settled(shard, &outcome)?;
            done.insert(shard, outcome);
            Ok(())
        },
    )
}

/// Settle one shard from its first attempt: retry a dead or panicked
/// attempt under re-derived seeds while `max_shard_attempts` and the
/// campaign's retry accountant allow.
fn supervise(
    spec: &FleetSpec,
    shard: usize,
    mut result: Result<PairSim, TaskPanic>,
    accountant: &mut RetryAccountant,
) -> Result<ShardOutcome, MeasureError> {
    let mut retries: u32 = 0;
    let mut starved = false;
    while matches!(result, Ok(PairSim::Dead(_)) | Err(_))
        && retries + 1 < spec.supervise.max_shard_attempts
    {
        if !accountant.try_grant() {
            starved = true;
            break;
        }
        retries += 1;
        result = attempt(spec, shard, spec.attempt_seed(shard, retries))?;
    }
    let sim = match result {
        Ok(sim) => ShardSim::Sim(sim),
        Err(p) => ShardSim::Panicked(p.payload),
    };
    Ok(ShardOutcome { retries, starved, sim })
}
