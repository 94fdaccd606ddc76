//! Binary encoding of journaled shard outcomes.
//!
//! The journal stores each completed shard's outcome as opaque bytes;
//! this module defines those bytes. The encoding is **lossless at the
//! bit level** for everything the final report depends on: every `f64`
//! round-trips through `to_bits`, derived statistics (summaries,
//! totals, cost) are *recomputed* on decode by the same code paths the
//! live campaign uses, and the supervision prefix (retries consumed,
//! starved flag) lets a resumed run replay the retry accountant
//! exactly. A fleet assembled from decoded records is therefore
//! byte-identical to one assembled from the in-memory results — the
//! property the crash/resume verify gate checks end to end.

use crate::campaign::{CampaignResult, GapCause, PairFailure, PairSim, TraceGap};
use clouds::CloudProfile;
use netsim::pattern::TrafficPattern;
use netsim::trace::{BandwidthTrace, BwSample};
use vstats::describe::{GapAwareSummary, Summary};

/// A shard's final, journal-worthy outcome: the simulated pair's
/// outcome, or one of the two supervision-only terminal states
/// (contained panic, step-budget denial). Simulation errors abort the
/// campaign before anything is journaled, so they have no encoding.
#[derive(Debug, Clone)]
pub(crate) enum ShardSim {
    /// The accepted attempt simulated to an outcome.
    Sim(PairSim),
    /// Every granted attempt panicked; the last payload is kept.
    Panicked(String),
    /// The shard's step budget could not afford even one attempt.
    Denied {
        /// Steps the refused attempt needed.
        needed_steps: u64,
        /// Steps the shard's budget had left.
        remaining_steps: u64,
    },
}

/// A decoded journal record body: supervision prefix + outcome.
#[derive(Debug, Clone)]
pub(crate) struct ShardOutcome {
    /// Retries consumed from the campaign accountant (0 = first attempt
    /// was accepted).
    pub retries: u32,
    /// The shard wanted another attempt but was refused one (retry
    /// budget or step budget ran dry before `max_shard_attempts`).
    pub starved: bool,
    /// The outcome itself.
    pub sim: ShardSim,
}

const TAG_ALIVE: u8 = 0;
const TAG_PARTIAL: u8 = 1;
const TAG_DEAD: u8 = 2;
const TAG_PANICKED: u8 = 3;
const TAG_DENIED: u8 = 4;

pub(crate) fn encode_outcome(out: &ShardOutcome) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&out.retries.to_le_bytes());
    buf.push(out.starved as u8);
    match &out.sim {
        ShardSim::Sim(PairSim::Alive(r)) => {
            buf.push(TAG_ALIVE);
            encode_campaign(&mut buf, r);
        }
        ShardSim::Sim(PairSim::Partial(r, f)) => {
            buf.push(TAG_PARTIAL);
            encode_failure(&mut buf, f);
            encode_campaign(&mut buf, r);
        }
        ShardSim::Sim(PairSim::Dead(f)) => {
            buf.push(TAG_DEAD);
            encode_failure(&mut buf, f);
        }
        ShardSim::Panicked(payload) => {
            buf.push(TAG_PANICKED);
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(payload.as_bytes());
        }
        ShardSim::Denied { needed_steps, remaining_steps } => {
            buf.push(TAG_DENIED);
            buf.extend_from_slice(&needed_steps.to_le_bytes());
            buf.extend_from_slice(&remaining_steps.to_le_bytes());
        }
    }
    buf
}

/// Decode a record body produced by [`encode_outcome`]. The profile,
/// pattern, and shard index come from the campaign spec — the journal
/// header's config fingerprint guarantees they are the ones the record
/// was written under. `None` means the body is malformed (possible only
/// if the journal's checksums were defeated, e.g. a hand-edited file).
pub(crate) fn decode_outcome(
    bytes: &[u8],
    profile: &CloudProfile,
    pattern: TrafficPattern,
    shard: usize,
) -> Option<ShardOutcome> {
    let mut r = Reader { bytes, at: 0 };
    let retries = r.u32()?;
    let starved = r.u8()? != 0;
    let tag = r.u8()?;
    let sim = match tag {
        TAG_ALIVE => ShardSim::Sim(PairSim::Alive(decode_campaign(&mut r, profile, pattern, None)?)),
        TAG_PARTIAL => {
            let f = decode_failure(&mut r, shard)?;
            let res = decode_campaign(&mut r, profile, pattern, Some(f.death_s))?;
            ShardSim::Sim(PairSim::Partial(res, f))
        }
        TAG_DEAD => ShardSim::Sim(PairSim::Dead(decode_failure(&mut r, shard)?)),
        TAG_PANICKED => {
            let len = r.u32()? as usize;
            let raw = r.take(len)?;
            ShardSim::Panicked(String::from_utf8(raw.to_vec()).ok()?)
        }
        TAG_DENIED => ShardSim::Denied { needed_steps: r.u64()?, remaining_steps: r.u64()? },
        _ => return None,
    };
    match r.done() {
        true => Some(ShardOutcome { retries, starved, sim }),
        false => None,
    }
}

fn encode_failure(buf: &mut Vec<u8>, f: &PairFailure) {
    buf.extend_from_slice(&f.death_s.to_bits().to_le_bytes());
    buf.push(f.partial_data as u8);
}

fn decode_failure(r: &mut Reader<'_>, shard: usize) -> Option<PairFailure> {
    let death_s = f64::from_bits(r.u64()?);
    let partial_data = r.u8()? != 0;
    Some(PairFailure { pair: shard, death_s, partial_data })
}

/// Serialize the irreducible core of a campaign result: the surviving
/// samples, the gaps, and the expected-sample count. Everything else
/// (summaries, totals, cost) is derived and recomputed on decode.
fn encode_campaign(buf: &mut Vec<u8>, r: &CampaignResult) {
    buf.extend_from_slice(&r.duration_s.to_bits().to_le_bytes());
    buf.extend_from_slice(&r.trace.interval.to_bits().to_le_bytes());
    buf.extend_from_slice(&(r.trace.samples.len() as u32).to_le_bytes());
    for s in &r.trace.samples {
        buf.extend_from_slice(&s.t.to_bits().to_le_bytes());
        buf.extend_from_slice(&s.bandwidth_bps.to_bits().to_le_bytes());
        buf.extend_from_slice(&s.bits.to_bits().to_le_bytes());
        buf.extend_from_slice(&s.retransmissions.to_le_bytes());
    }
    buf.extend_from_slice(&(r.gaps.len() as u32).to_le_bytes());
    for g in &r.gaps {
        buf.extend_from_slice(&g.start_s.to_bits().to_le_bytes());
        buf.extend_from_slice(&g.end_s.to_bits().to_le_bytes());
        buf.push(gap_cause_tag(g.cause));
    }
    buf.extend_from_slice(&(r.gap_summary.expected_n as u32).to_le_bytes());
}

/// Rebuild a [`CampaignResult`] from its encoded core, recomputing the
/// derived fields with the same expressions the live campaign uses so
/// the result is bit-identical. `billed_to_s` is the death time for a
/// partial pair (billing stops at death), `None` for a survivor.
fn decode_campaign(
    r: &mut Reader<'_>,
    profile: &CloudProfile,
    pattern: TrafficPattern,
    billed_to_s: Option<f64>,
) -> Option<CampaignResult> {
    let duration_s = f64::from_bits(r.u64()?);
    let interval = f64::from_bits(r.u64()?);
    let n_samples = r.u32()? as usize;
    let mut trace = BandwidthTrace::new(interval);
    trace.samples.reserve_exact(n_samples);
    for _ in 0..n_samples {
        trace.samples.push(BwSample {
            t: f64::from_bits(r.u64()?),
            bandwidth_bps: f64::from_bits(r.u64()?),
            bits: f64::from_bits(r.u64()?),
            retransmissions: r.u64()?,
        });
    }
    let n_gaps = r.u32()? as usize;
    let mut gaps = Vec::with_capacity(n_gaps);
    for _ in 0..n_gaps {
        gaps.push(TraceGap {
            start_s: f64::from_bits(r.u64()?),
            end_s: f64::from_bits(r.u64()?),
            cause: gap_cause_from_tag(r.u8()?)?,
        });
    }
    let expected_n = r.u32()? as usize;
    let bandwidths = trace.bandwidths();
    if bandwidths.is_empty() {
        return None; // an Alive/Partial record always has samples
    }
    // Same expression order as `run_campaign`, for identical f64 bits.
    let hours = billed_to_s.unwrap_or(duration_s) / 3600.0;
    Some(CampaignResult {
        provider: profile.provider.name(),
        instance_type: profile.instance_type,
        pattern: pattern.label(),
        duration_s,
        summary: Summary::from_samples(&bandwidths),
        gap_summary: GapAwareSummary::from_samples(&bandwidths, expected_n, gaps.len()),
        gaps,
        total_retransmissions: trace.total_retransmissions(),
        total_bits: trace.total_bits(),
        cost_usd: profile.price_per_hour_usd.map(|p| p * 2.0 * hours),
        trace,
    })
}

fn gap_cause_tag(c: GapCause) -> u8 {
    match c {
        GapCause::VmStall => 0,
        GapCause::ProbeLoss => 1,
        GapCause::PairDeath => 2,
    }
}

fn gap_cause_from_tag(tag: u8) -> Option<GapCause> {
    match tag {
        0 => Some(GapCause::VmStall),
        1 => Some(GapCause::ProbeLoss),
        2 => Some(GapCause::PairDeath),
        _ => None,
    }
}

/// Bounds-checked little-endian cursor (shared with the streaming
/// campaign's checkpoint codec).
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let slice = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Some(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Some(u64::from_le_bytes(b))
    }

    /// Remaining bytes from the cursor position.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }

    /// Advance the cursor by `n` (caller got `n` from a nested decoder).
    pub(crate) fn advance(&mut self, n: usize) -> Option<()> {
        let end = self.at.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        self.at = end;
        Some(())
    }

    pub(crate) fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::simulate_pair_capped;
    use netsim::rng::derive_seed;
    use netsim::units::hours;

    fn outcome_for(seed: u64, i: usize) -> ShardOutcome {
        let mut p = clouds::hpccloud::n_core(8).with_reference_faults();
        p.faults.pair_death_rate_per_hour = 0.5;
        let pair_seed = derive_seed(seed, i as u64);
        let sim = simulate_pair_capped(&p, TrafficPattern::FullSpeed, hours(3.0), pair_seed, i, None)
            .unwrap_or_else(|e| panic!("unexpected simulation error: {e}"));
        ShardOutcome { retries: i as u32, starved: i % 2 == 1, sim: ShardSim::Sim(sim) }
    }

    fn campaign_bits(r: &CampaignResult) -> String {
        format!(
            "{}|{}|{}|{:x}|{:x}|{:x}|{:x}|{}|{:x}|{:?}|{:?}|{:?}",
            r.provider,
            r.instance_type,
            r.pattern,
            r.duration_s.to_bits(),
            r.summary.mean.to_bits(),
            r.summary.cov.to_bits(),
            r.total_bits.to_bits(),
            r.total_retransmissions,
            r.cost_usd.unwrap_or(f64::NAN).to_bits(),
            r.trace.samples,
            r.gaps,
            r.gap_summary,
        )
    }

    #[test]
    fn campaign_outcomes_roundtrip_bit_for_bit() {
        let mut p = clouds::hpccloud::n_core(8).with_reference_faults();
        p.faults.pair_death_rate_per_hour = 0.5;
        let mut seen = [false, false];
        for i in 0..12 {
            let out = outcome_for(5, i);
            match out.sim {
                ShardSim::Sim(PairSim::Alive(_)) => seen[0] = true,
                ShardSim::Sim(PairSim::Partial(..)) => seen[1] = true,
                _ => {}
            }
            let bytes = encode_outcome(&out);
            let back = decode_outcome(&bytes, &p, TrafficPattern::FullSpeed, i)
                .unwrap_or_else(|| panic!("shard {i} failed to decode"));
            assert_eq!(back.retries, out.retries);
            assert_eq!(back.starved, out.starved);
            match (&out.sim, &back.sim) {
                (ShardSim::Sim(PairSim::Alive(a)), ShardSim::Sim(PairSim::Alive(b))) => {
                    assert_eq!(campaign_bits(a), campaign_bits(b));
                }
                (
                    ShardSim::Sim(PairSim::Partial(a, fa)),
                    ShardSim::Sim(PairSim::Partial(b, fb)),
                ) => {
                    assert_eq!(campaign_bits(a), campaign_bits(b));
                    assert_eq!(fa, fb);
                }
                (ShardSim::Sim(PairSim::Dead(fa)), ShardSim::Sim(PairSim::Dead(fb))) => {
                    assert_eq!(fa, fb)
                }
                (a, b) => panic!("variant changed in roundtrip: {a:?} vs {b:?}"),
            }
            // Re-encoding the decoded outcome reproduces the bytes.
            assert_eq!(encode_outcome(&back), bytes, "shard {i} re-encode differs");
        }
        assert!(seen.iter().all(|&s| s), "fixture should cover alive and partial: {seen:?}");

        // Dead (died before producing anything) is too rare to draw
        // from the fixture; round-trip it explicitly.
        let dead = ShardOutcome {
            retries: 1,
            starved: false,
            sim: ShardSim::Sim(PairSim::Dead(PairFailure {
                pair: 4,
                death_s: 3.25,
                partial_data: false,
            })),
        };
        let bytes = encode_outcome(&dead);
        let back = decode_outcome(&bytes, &p, TrafficPattern::FullSpeed, 4).expect("dead decodes");
        match &back.sim {
            ShardSim::Sim(PairSim::Dead(f)) => {
                assert_eq!(*f, PairFailure { pair: 4, death_s: 3.25, partial_data: false });
            }
            other => panic!("variant changed: {other:?}"),
        }
        assert_eq!(encode_outcome(&back), bytes);
    }

    #[test]
    fn supervision_only_outcomes_roundtrip() {
        let p = clouds::hpccloud::n_core(8);
        for out in [
            ShardOutcome {
                retries: 2,
                starved: true,
                sim: ShardSim::Panicked("worker bug: index 7 out of bounds".into()),
            },
            ShardOutcome {
                retries: 0,
                starved: false,
                sim: ShardSim::Denied { needed_steps: 36_000, remaining_steps: 100 },
            },
        ] {
            let bytes = encode_outcome(&out);
            let back = decode_outcome(&bytes, &p, TrafficPattern::FullSpeed, 0)
                .unwrap_or_else(|| panic!("failed to decode {out:?}"));
            assert_eq!(encode_outcome(&back), bytes);
            match (&out.sim, &back.sim) {
                (ShardSim::Panicked(a), ShardSim::Panicked(b)) => assert_eq!(a, b),
                (
                    ShardSim::Denied { needed_steps: n1, remaining_steps: r1 },
                    ShardSim::Denied { needed_steps: n2, remaining_steps: r2 },
                ) => assert_eq!((n1, r1), (n2, r2)),
                (a, b) => panic!("variant changed: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn malformed_bodies_decode_to_none() {
        let p = clouds::hpccloud::n_core(8);
        let out = outcome_for(5, 0);
        let bytes = encode_outcome(&out);
        // Truncation at any prefix length never panics, and only the
        // full buffer decodes.
        for cut in 0..bytes.len() {
            assert!(
                decode_outcome(&bytes[..cut], &p, TrafficPattern::FullSpeed, 0).is_none(),
                "decoded a {cut}-byte prefix"
            );
        }
        // Trailing garbage is rejected (the reader must be exhausted).
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_outcome(&padded, &p, TrafficPattern::FullSpeed, 0).is_none());
        // An unknown tag is rejected.
        let mut bad_tag = bytes;
        bad_tag[5] = 0xEE;
        assert!(decode_outcome(&bad_tag, &p, TrafficPattern::FullSpeed, 0).is_none());
    }
}
