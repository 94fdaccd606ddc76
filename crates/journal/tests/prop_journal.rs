//! Torn-write recovery properties: truncating a valid journal at
//! *every* byte offset either errors (header destroyed) or round-trips
//! a strict prefix of the original records, bit for bit — never a
//! corrupt or invented record. A single flipped byte likewise costs at
//! most the suffix from the damaged record onward, or turns into a
//! typed header error; the surviving prefix is always bit-exact.
//! Opening never modifies the file: the torn tail is cut by the first
//! flush, after which re-appending the lost records reproduces the
//! uninterrupted journal byte for byte.

use journal::{fingerprint64, Journal, JournalError, JournalRecord};
use proplite::prelude::*;
use std::fs;
use std::path::PathBuf;

/// SplitMix64 finalizer: cheap deterministic byte churn for payloads.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn temp_file(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "journal_prop_{}_{tag}_{case:016x}.wal",
        std::process::id()
    ))
}

/// Build a journal of `payload_lens.len()` records at `path`; returns
/// the records and the file length after each append (`boundaries[0]`
/// is the header-only length, `boundaries[k]` the length with `k`
/// records) — the exact set of valid prefix cut points.
fn build(
    path: &PathBuf,
    config: u64,
    case: u64,
    payload_lens: &[usize],
) -> (Vec<JournalRecord>, Vec<usize>) {
    let _ = fs::remove_file(path);
    let mut j = Journal::create(path, config).unwrap();
    let mut boundaries = vec![fs::read(path).unwrap().len()];
    let mut originals = Vec::new();
    for (i, &len) in payload_lens.iter().enumerate() {
        let payload: Vec<u8> = (0..len)
            .map(|k| (mix(case ^ ((i as u64) << 32) ^ k as u64) & 0xFF) as u8)
            .collect();
        let r = JournalRecord {
            shard: i as u64,
            seed: mix(case.wrapping_add(i as u64)),
            fingerprint: fingerprint64(&payload),
            payload,
        };
        j.append(r.clone()).unwrap();
        originals.push(r);
        boundaries.push(fs::read(path).unwrap().len());
    }
    (originals, boundaries)
}

prop_cases! {
    #![config(Config::with_cases(24))]

    /// The tentpole torn-write property, exhaustive over offsets: for
    /// every cut point `0..=len`, opening the truncated file either
    /// fails with a typed header error (cut inside the 16-byte header)
    /// or recovers exactly the records whose append completed before
    /// the cut, each bit-identical to what was written.
    #[test]
    fn truncation_at_every_offset_recovers_a_prefix_or_errors(
        case in 1u64..u64::MAX,
        payload_lens in vec_of(0usize..40, 0..6),
    ) {
        let path = temp_file("cut", case);
        let config = mix(case ^ 0xC0F1);
        let (originals, boundaries) = build(&path, config, case, &payload_lens);
        let full = fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            match Journal::open(&path, config) {
                Err(JournalError::BadHeader { .. }) => {
                    prop_assert!(cut < 16, "valid header rejected at cut {cut}");
                }
                Err(e) => {
                    return Err(CaseError::Fail(format!("cut {cut}: unexpected {e}")));
                }
                Ok((re, report)) => {
                    prop_assert!(cut >= 16, "cut {cut} inside the header must not open");
                    // Records recovered = completed appends before the cut.
                    let k = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
                    prop_assert_eq!(re.len(), k, "cut {cut}");
                    prop_assert_eq!(re.records(), &originals[..k], "cut {cut}");
                    prop_assert_eq!(report.records, k);
                    prop_assert_eq!(report.truncated_bytes, cut - boundaries[k], "cut {cut}");
                }
            }
        }
        fs::remove_file(&path).unwrap();
    }

    /// After recovery from any truncation, appending again heals the
    /// journal: the healed file reopens cleanly (zero truncated bytes)
    /// with the surviving prefix plus the new record.
    #[test]
    fn recovery_then_append_heals_the_file(
        case in 1u64..u64::MAX,
        payload_lens in vec_of(0usize..40, 1..6),
        cut_frac_pct in 0usize..100,
    ) {
        let path = temp_file("heal", case);
        let config = mix(case ^ 0x4EA1);
        let (originals, _) = build(&path, config, case, &payload_lens);
        let full = fs::read(&path).unwrap();
        // Any cut that keeps the header openable.
        let cut = 16 + (full.len() - 16) * cut_frac_pct / 100;
        fs::write(&path, &full[..cut]).unwrap();
        let (mut re, _) = Journal::open(&path, config).unwrap();
        let survivors = re.len();
        let extra = JournalRecord {
            shard: 999,
            seed: mix(case),
            fingerprint: fingerprint64(b"heal"),
            payload: b"heal".to_vec(),
        };
        re.append(extra.clone()).unwrap();
        let (again, report) = Journal::open(&path, config).unwrap();
        prop_assert_eq!(report.truncated_bytes, 0);
        prop_assert_eq!(again.len(), survivors + 1);
        prop_assert_eq!(&again.records()[..survivors], &originals[..survivors]);
        prop_assert_eq!(again.records()[survivors].clone(), extra);
        fs::remove_file(&path).unwrap();
    }

    /// `open` is read-only and the first flush after it cuts the torn
    /// tail: at every cut offset past the header, two opens report the
    /// same `OpenReport` and leave the file length as cut, and
    /// re-appending the lost records (one durable append each at even
    /// cuts, one deferred group at odd cuts) restores the uninterrupted
    /// file byte for byte.
    #[test]
    fn reopen_is_read_only_and_reappending_restores_the_file(
        case in 1u64..u64::MAX,
        payload_lens in vec_of(0usize..40, 1..6),
    ) {
        let path = temp_file("reappend", case);
        let config = mix(case ^ 0x2EA9);
        let (originals, _) = build(&path, config, case, &payload_lens);
        let full = fs::read(&path).unwrap();
        for cut in 16..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (_, first) = Journal::open(&path, config).unwrap();
            let (mut re, second) = Journal::open(&path, config).unwrap();
            prop_assert_eq!(first, second, "cut {cut}");
            prop_assert_eq!(fs::metadata(&path).unwrap().len(), cut as u64, "cut {cut}");
            for r in &originals[first.records..] {
                if cut % 2 == 0 {
                    re.append(r.clone()).unwrap();
                } else {
                    re.append_deferred(r.clone());
                }
            }
            re.flush().unwrap();
            prop_assert!(fs::read(&path).unwrap() == full, "cut {cut}: re-appended file differs");
        }
        fs::remove_file(&path).unwrap();
    }

    /// A single flipped byte never yields a corrupt record: the open
    /// either fails with a typed header error (flip in the magic),
    /// reports a config mismatch (flip in the fingerprint), or
    /// recovers a bit-exact prefix of the originals — the damaged
    /// record and everything after it are dropped, nothing is patched
    /// up or invented.
    #[test]
    fn single_byte_flip_costs_at_most_the_suffix(
        case in 1u64..u64::MAX,
        payload_lens in vec_of(0usize..40, 1..6),
        flip_pick in 0usize..10_000,
        flip_bits in 1u64..256,
    ) {
        let path = temp_file("flip", case);
        let config = mix(case ^ 0xF11B);
        let (originals, boundaries) = build(&path, config, case, &payload_lens);
        let mut bytes = fs::read(&path).unwrap();
        let at = flip_pick % bytes.len();
        bytes[at] ^= flip_bits as u8;
        fs::write(&path, &bytes).unwrap();
        match Journal::open(&path, config) {
            Err(JournalError::BadHeader { .. }) => {
                prop_assert!(at < 8, "magic intact but header rejected (flip at {at})");
            }
            Err(JournalError::ConfigMismatch { expected, found }) => {
                prop_assert!((8..16).contains(&at), "flip at {at}");
                prop_assert_eq!(expected, config);
                prop_assert!(found != config);
            }
            Err(e) => {
                return Err(CaseError::Fail(format!("flip at {at}: unexpected {e}")));
            }
            Ok((re, _)) => {
                // The flip landed in some record region (or was a
                // no-op is impossible: flip_bits >= 1). Every record
                // before the damaged one must survive bit-exact; the
                // damaged one and its suffix must be gone.
                prop_assert!(at >= 16, "header flip at {at} cannot open cleanly");
                let damaged = boundaries.iter().filter(|&&b| b <= at).count() - 1;
                prop_assert_eq!(re.len(), damaged, "flip at {at}");
                prop_assert_eq!(re.records(), &originals[..damaged]);
            }
        }
        fs::remove_file(&path).unwrap();
    }
}
