//! End-to-end tests of the fleet drivers: the supervised plain fleet
//! equals the journaled one (fresh and resumed from every record
//! boundary), worker-count invariance of the journal, torn-write
//! resume, typed config-mismatch and divergence errors, and supervision
//! (retry budget, step budget) accounting.

use measure::{
    run_fleet, run_fleet_journaled, FleetResult, FleetSpec, JournaledFleet, MeasureError,
    SupervisePolicy,
};
use netsim::units::hours;
use netsim::TrafficPattern;
use proplite::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("journaled_fleet_{}_{tag}.wal", std::process::id()));
    let _ = fs::remove_file(&p);
    p
}

/// A journaled run of `spec` that re-verifies `verify` journaled shards
/// on resume.
fn journaled(
    spec: &FleetSpec,
    path: &Path,
    resume: bool,
    verify: usize,
    jobs: usize,
) -> Result<JournaledFleet, MeasureError> {
    let spec = FleetSpec { verify_sample: verify, ..spec.clone() };
    run_fleet_journaled(&spec, path, resume, jobs, |_| ())
}

/// Render every report-feeding field of a fleet down to f64 bit
/// patterns, so equality here means byte-identical reports.
fn fleet_bits(f: &FleetResult) -> String {
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
            "|{}:{}:{:x}:{:x}:{:x}:{}:{:x}:{:?}:{:?}",
            p.pattern,
            p.trace.samples.len(),
            p.duration_s.to_bits(),
            p.summary.mean.to_bits(),
            p.summary.cov.to_bits(),
            p.total_retransmissions,
            p.cost_usd.unwrap_or(f64::NAN).to_bits(),
            p.gaps,
            p.gap_summary,
        );
    }
    s
}

/// Both drivers' results, rendered for comparison: the fleet's report
/// bits and its supervision stats, or the typed error.
fn outcome_bits(r: Result<FleetResult, MeasureError>) -> String {
    match r {
        Ok(f) => format!("{}|{:?}", fleet_bits(&f), f.supervision),
        Err(e) => format!("error: {e:?}"),
    }
}

fn faulty_spec(seed: u64) -> FleetSpec {
    let mut profile = clouds::hpccloud::n_core(8).with_reference_faults();
    profile.faults.pair_death_rate_per_hour = 0.5;
    let mut spec = FleetSpec::new(profile, TrafficPattern::FullSpeed, hours(2.0), 6, seed);
    spec.supervise = SupervisePolicy { max_shard_attempts: 1, retry_budget: 0, shard_step_budget: 0 };
    spec
}

#[test]
fn unsupervised_journaled_run_matches_plain_fleet() {
    let spec = faulty_spec(17);
    let path = temp_path("matches_plain");
    let out = journaled(&spec, &path, false, 0, 2).expect("journaled run");
    let plain = run_fleet(&spec, 1).expect("plain fleet");
    assert_eq!(fleet_bits(&out.fleet), fleet_bits(&plain));
    assert_eq!(out.resume.computed, 6);
    assert_eq!(out.resume.skipped, 0);
    assert!(!out.resume.resumed);
    assert_eq!(out.fleet.supervision.retries_used, 0);
    fs::remove_file(&path).unwrap();
}

#[test]
fn journal_bytes_are_worker_count_invariant() {
    let spec = faulty_spec(29);
    let path1 = temp_path("jobs1");
    let path4 = temp_path("jobs4");
    let a = journaled(&spec, &path1, false, 0, 1).expect("jobs=1");
    let b = journaled(&spec, &path4, false, 0, 4).expect("jobs=4");
    assert_eq!(fleet_bits(&a.fleet), fleet_bits(&b.fleet));
    let bytes1 = fs::read(&path1).unwrap();
    let bytes4 = fs::read(&path4).unwrap();
    assert_eq!(bytes1, bytes4, "journal image must not depend on worker count");
    fs::remove_file(&path1).unwrap();
    fs::remove_file(&path4).unwrap();
}

#[test]
fn torn_journal_resumes_to_identical_report() {
    let spec = faulty_spec(43);
    let full_path = temp_path("torn_full");
    let uninterrupted = journaled(&spec, &full_path, false, 0, 2).expect("full run");
    let full_bytes = fs::read(&full_path).unwrap();

    // Simulate crashes at several points: a clean kill between appends
    // (prefix of whole records) and torn writes (mid-record cuts).
    for frac in [0.2, 0.45, 0.7, 0.95] {
        let cut = (full_bytes.len() as f64 * frac) as usize;
        let cut = cut.max(16); // keep the header
        let path = temp_path(&format!("torn_{cut}"));
        fs::write(&path, &full_bytes[..cut]).unwrap();
        let resumed = journaled(&spec, &path, true, 2, 2)
            .unwrap_or_else(|e| panic!("resume at cut {cut} failed: {e}"));
        assert!(resumed.resume.resumed);
        assert_eq!(
            fleet_bits(&resumed.fleet),
            fleet_bits(&uninterrupted.fleet),
            "resume from a {cut}-byte prefix diverged"
        );
        assert_eq!(
            resumed.resume.skipped + resumed.resume.computed,
            spec.n_pairs,
            "every shard is either replayed or recomputed"
        );
        // The healed journal is byte-identical to the uninterrupted one.
        assert_eq!(fs::read(&path).unwrap(), full_bytes, "healed journal differs at cut {cut}");
        fs::remove_file(&path).unwrap();
    }
    fs::remove_file(&full_path).unwrap();
}

#[test]
fn resume_verifies_a_sample_and_skips_journaled_shards() {
    let spec = faulty_spec(51);
    let path = temp_path("verify_sample");
    let first = journaled(&spec, &path, false, 0, 2).expect("first run");
    assert_eq!(first.resume.verified, 0);
    let second = journaled(&spec, &path, true, 3, 2).expect("resume");
    assert!(second.resume.resumed);
    assert_eq!(second.resume.skipped, 6);
    assert_eq!(second.resume.computed, 0);
    assert_eq!(second.resume.verified, 3);
    assert_eq!(fleet_bits(&second.fleet), fleet_bits(&first.fleet));
    // Oversized verify requests clamp to what the journal holds.
    let third = journaled(&spec, &path, true, 100, 2).expect("verify all");
    assert_eq!(third.resume.verified, 6);
    fs::remove_file(&path).unwrap();
}

#[test]
fn refusing_to_clobber_and_config_mismatch_are_typed() {
    let spec = faulty_spec(60);
    let path = temp_path("mismatch");
    journaled(&spec, &path, false, 0, 2).expect("first run");
    // Same path without --resume: loud refusal, not an overwrite.
    match journaled(&spec, &path, false, 0, 2) {
        Err(MeasureError::JournalFailed { detail }) => {
            assert!(detail.contains("already exists"), "{detail}");
        }
        other => panic!("expected JournalFailed, got {other:?}"),
    }
    // Resume under a different campaign config: typed mismatch.
    let mut other_spec = faulty_spec(61);
    assert_ne!(other_spec.config_fingerprint(), spec.config_fingerprint());
    match journaled(&other_spec, &path, true, 0, 2) {
        Err(MeasureError::ResumeConfigMismatch { expected, found }) => {
            assert_eq!(expected, other_spec.config_fingerprint());
            assert_eq!(found, spec.config_fingerprint());
        }
        other => panic!("expected ResumeConfigMismatch, got {other:?}"),
    }
    // The policy is part of the config: a changed budget also refuses.
    other_spec.seed = spec.seed;
    other_spec.supervise.retry_budget = 99;
    assert!(matches!(
        journaled(&other_spec, &path, true, 0, 2),
        Err(MeasureError::ResumeConfigMismatch { .. })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn tampered_record_fails_verification_with_divergence() {
    let spec = faulty_spec(77);
    let path = temp_path("diverge_src");
    journaled(&spec, &path, false, 0, 2).expect("first run");

    // Swap the payloads of the first two records while keeping each
    // record internally consistent (fingerprints recomputed): the
    // journal's own checksums cannot catch this, only bit-for-bit
    // re-verification can.
    let (src, _) = journal::Journal::open_unchecked(&path).expect("reopen");
    let tampered_path = temp_path("diverge_dst");
    let mut dst = journal::Journal::create(&tampered_path, spec.config_fingerprint())
        .expect("create tampered");
    let recs = src.records();
    for (i, rec) in recs.iter().enumerate() {
        let donor = match i {
            0 => &recs[1],
            1 => &recs[0],
            _ => rec,
        };
        dst.append(journal::JournalRecord {
            shard: rec.shard,
            seed: rec.seed,
            fingerprint: journal::fingerprint64(&donor.payload),
            payload: donor.payload.clone(),
        })
        .expect("append tampered");
    }
    match journaled(&spec, &tampered_path, true, spec.n_pairs, 2) {
        Err(MeasureError::ResumeDivergence { shard, journaled_fp, recomputed_fp }) => {
            assert!(shard <= 1, "divergence must be found in the swapped shards, got {shard}");
            assert_ne!(journaled_fp, recomputed_fp);
        }
        other => panic!("expected ResumeDivergence, got {other:?}"),
    }
    fs::remove_file(&path).unwrap();
    fs::remove_file(&tampered_path).unwrap();
}

#[test]
fn step_budget_denies_unaffordable_campaigns() {
    let mut spec = faulty_spec(80);
    // One attempt needs duration/0.1 = 72_000 steps; allow only 10.
    spec.supervise.shard_step_budget = 10;
    let path = temp_path("denied");
    match journaled(&spec, &path, false, 0, 2) {
        Err(MeasureError::BudgetExhausted { shard, needed_steps, remaining_steps }) => {
            assert_eq!(shard, 0);
            assert_eq!(needed_steps, 72_000);
            assert_eq!(remaining_steps, 10);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    fs::remove_file(&path).unwrap();
}

/// A spec whose pairs die fast enough that retries actually fire: mean
/// pair life 0.1 s against a 600 s campaign, so a large fraction of
/// attempts die before producing even one fluid step of data (the
/// retriable "dead without data" case) while the rest leave a tiny
/// partial trace.
fn dying_spec(seed: u64, supervise: SupervisePolicy) -> FleetSpec {
    let mut profile = clouds::hpccloud::n_core(8).with_reference_faults();
    profile.faults.pair_death_rate_per_hour = 36_000.0;
    FleetSpec { supervise, ..FleetSpec::new(profile, TrafficPattern::FullSpeed, 600.0, 8, seed) }
}

#[test]
fn retries_rescue_dead_shards_and_drain_the_accountant() {
    let generous = dying_spec(
        5,
        SupervisePolicy { max_shard_attempts: 4, retry_budget: 1000, shard_step_budget: 0 },
    );
    let path_g = temp_path("retry_generous");
    let out_g = journaled(&generous, &path_g, false, 0, 2).expect("generous");
    assert!(out_g.fleet.supervision.retries_used > 0, "no retries fired under mean pair life 6 s");
    assert!(!out_g.fleet.supervision.retry_exhausted, "a 1000-retry budget must not exhaust");

    // The same campaign under a tiny budget: fewer retries, exhaustion
    // surfaced, and the run still completes with partial results.
    let stingy = dying_spec(
        5,
        SupervisePolicy { max_shard_attempts: 4, retry_budget: 2, shard_step_budget: 0 },
    );
    let path_s = temp_path("retry_stingy");
    let out_s = journaled(&stingy, &path_s, false, 0, 2).expect("stingy");
    assert_eq!(out_s.fleet.supervision.retries_used, 2, "budget caps total retries");
    assert!(out_s.fleet.supervision.retry_exhausted);
    assert!(out_s.fleet.is_degraded());

    // Supervision decisions are worker-count invariant.
    let path_s1 = temp_path("retry_stingy_j1");
    let out_s1 = journaled(&stingy, &path_s1, false, 0, 1).expect("stingy jobs=1");
    assert_eq!(fleet_bits(&out_s1.fleet), fleet_bits(&out_s.fleet));
    assert_eq!(out_s1.fleet.supervision, out_s.fleet.supervision);
    assert_eq!(fs::read(&path_s1).unwrap(), fs::read(&path_s).unwrap());

    for p in [path_g, path_s, path_s1] {
        fs::remove_file(&p).unwrap();
    }
}

#[test]
fn supervised_campaign_resumes_with_exact_accountant_replay() {
    let spec = dying_spec(
        9,
        SupervisePolicy { max_shard_attempts: 3, retry_budget: 5, shard_step_budget: 0 },
    );
    let full_path = temp_path("sup_full");
    let full = journaled(&spec, &full_path, false, 0, 2).expect("full");
    assert!(full.fleet.supervision.retries_used > 0);
    let full_bytes = fs::read(&full_path).unwrap();

    // Cut mid-journal and resume: the accountant replays journaled
    // grants exactly, so the remaining shards' supervision — and the
    // final report — match the uninterrupted run bit for bit.
    let cut = full_bytes.len() / 2;
    let path = temp_path("sup_cut");
    fs::write(&path, &full_bytes[..cut]).unwrap();
    let resumed = journaled(&spec, &path, true, 2, 4).expect("resume");
    assert_eq!(fleet_bits(&resumed.fleet), fleet_bits(&full.fleet));
    assert_eq!(resumed.fleet.supervision, full.fleet.supervision);
    assert_eq!(fs::read(&path).unwrap(), full_bytes);
    fs::remove_file(&full_path).unwrap();
    fs::remove_file(&path).unwrap();
}

#[test]
fn kill_after_callback_reports_journal_growth() {
    let spec = faulty_spec(91);
    let path = temp_path("callback");
    let mut counts = Vec::new();
    run_fleet_journaled(&spec, &path, false, 2, |n| counts.push(n)).expect("run");
    assert_eq!(counts, vec![1, 2, 3, 4, 5, 6]);
    fs::remove_file(&path).unwrap();
}

#[test]
fn grouped_commit_is_equivalent_to_per_record_commit() {
    let spec = faulty_spec(103);
    let per_record = temp_path("group_ref");
    let grouped = temp_path("group_k3");
    let a = journaled(&spec, &per_record, false, 0, 2).expect("per-record");
    let mut flushes = Vec::new();
    let grouped_spec = FleetSpec { checkpoint_every: 3, ..spec.clone() };
    let b = run_fleet_journaled(&grouped_spec, &grouped, false, 2, |n| flushes.push(n))
        .expect("grouped");
    assert_eq!(fleet_bits(&a.fleet), fleet_bits(&b.fleet));
    // k=3 over 6 shards: two flushes, each persisting a whole group.
    assert_eq!(flushes, vec![3, 6]);
    // The final on-disk image is identical either way: grouping changes
    // fsync frequency, never journal contents.
    assert_eq!(fs::read(&per_record).unwrap(), fs::read(&grouped).unwrap());
    fs::remove_file(&per_record).unwrap();
    fs::remove_file(&grouped).unwrap();
}

#[test]
fn kill_mid_group_replays_to_the_last_full_group() {
    let spec = FleetSpec { checkpoint_every: 4, ..faulty_spec(115) };
    let path = temp_path("group_kill_full");
    // Capture the on-disk journal size at each flush: a kill between
    // flushes leaves exactly the previous flush's image (deferred
    // appends live only in memory).
    let mut sizes = Vec::new();
    let observe = path.clone();
    let full = run_fleet_journaled(&spec, &path, false, 2, |_| {
        sizes.push(fs::metadata(&observe).unwrap().len())
    })
    .expect("full run");
    assert_eq!(sizes.len(), 2, "k=4 over 6 shards flushes twice");
    let full_bytes = fs::read(&path).unwrap();
    assert_eq!(full_bytes.len() as u64, sizes[1]);

    // Kill after the first flush, mid-way through the second group.
    let killed = temp_path("group_kill_cut");
    fs::write(&killed, &full_bytes[..sizes[0] as usize]).unwrap();
    let resumed = journaled(&spec, &killed, true, 1, 2).expect("resume");
    assert!(resumed.resume.resumed);
    assert_eq!(resumed.resume.skipped, 4, "recovery replays exactly the last full group");
    assert_eq!(resumed.resume.computed, 2);
    assert_eq!(fleet_bits(&resumed.fleet), fleet_bits(&full.fleet));
    assert_eq!(fs::read(&killed).unwrap(), full_bytes, "healed journal matches uninterrupted");
    fs::remove_file(&path).unwrap();
    fs::remove_file(&killed).unwrap();
}

/// Distinct scratch paths for the property's many journals.
fn prop_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    temp_path(&format!("prop_{tag}_{}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

prop_cases! {
    #![config(Config::with_cases(32))]

    /// The two drivers are one settle loop: for random small supervised
    /// fleets, `run_fleet` at 1 and 3 workers, a fresh journaled run, and
    /// a resume from every record-boundary cut of its journal all give
    /// the same fleet bits and supervision stats (or the same typed
    /// error), and every resume heals the journal to the same bytes.
    /// Pairs die at 0-1/h, except one case in four that dies fast enough
    /// (mean life 0.036 s) for retries and retry starvation to fire; one
    /// step-budget choice in four denies every first attempt.
    #[test]
    fn supervised_plain_fleet_matches_journaled_and_every_resume(
        seed in 0u64..1_000,
        (death_per_hour, regime) in (0.0f64..1.0, 0u32..4),
        (max_shard_attempts, retry_budget) in (1u32..5, 0u32..9),
        step_choice in 0u64..4,
        duration_s in 30u64..601,
        n_pairs in 1usize..7,
    ) {
        let mut profile = clouds::hpccloud::n_core(8).with_reference_faults();
        profile.faults.pair_death_rate_per_hour =
            if regime == 0 { 100_000.0 } else { death_per_hour };
        let attempt_steps = duration_s * 10;
        let shard_step_budget = match step_choice {
            0 => 0,
            1 => attempt_steps - 1,
            2 => attempt_steps,
            _ => 2 * attempt_steps + 1,
        };
        let mut spec =
            FleetSpec::new(profile, TrafficPattern::FullSpeed, duration_s as f64, n_pairs, seed);
        spec.supervise = SupervisePolicy { max_shard_attempts, retry_budget, shard_step_budget };
        spec.verify_sample = n_pairs;

        let plain = outcome_bits(run_fleet(&spec, 1));
        prop_assert_eq!(outcome_bits(run_fleet(&spec, 3)), plain.clone());

        let path = prop_path("full");
        let mut boundaries = vec![16u64]; // the header: nothing durable yet
        let fresh = run_fleet_journaled(&spec, &path, false, 2, |_| {
            boundaries.push(fs::metadata(&path).map_or(0, |m| m.len()))
        });
        prop_assert_eq!(outcome_bits(fresh.map(|j| j.fleet)), plain.clone());
        let full = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        prop_assert_eq!(boundaries.len(), n_pairs + 1);

        for cut in boundaries {
            let cut_path = prop_path("cut");
            fs::write(&cut_path, &full[..cut as usize]).unwrap();
            let resumed = run_fleet_journaled(&spec, &cut_path, true, 3, |_| ());
            prop_assert_eq!(outcome_bits(resumed.map(|j| j.fleet)), plain.clone());
            let healed = fs::read(&cut_path).unwrap();
            fs::remove_file(&cut_path).unwrap();
            prop_assert!(healed == full, "resume from a {cut}-byte cut left a different journal");
        }
    }
}
