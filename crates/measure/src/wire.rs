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

/// A shard's final, journal-worthy outcome: the simulated pair's
/// outcome, or the supervision-only terminal state of a contained
/// panic. Simulation errors abort the campaign before anything is
/// journaled, so they have no encoding.
#[derive(Debug, Clone)]
pub(crate) enum ShardSim {
    /// The accepted attempt simulated to an outcome.
    Sim(PairSim),
    /// Every granted attempt panicked; the last payload is kept.
    Panicked(String),
}

/// A decoded journal record body: supervision prefix + outcome.
#[derive(Debug, Clone)]
pub(crate) struct ShardOutcome {
    /// Retries consumed from the campaign accountant (0 = first attempt
    /// was accepted).
    pub retries: u32,
    /// The shard wanted another attempt but the retry budget ran dry
    /// before `max_shard_attempts`.
    pub starved: bool,
    /// The outcome itself.
    pub sim: ShardSim,
}

const TAG_ALIVE: u8 = 0;
const TAG_PARTIAL: u8 = 1;
const TAG_DEAD: u8 = 2;
const TAG_PANICKED: u8 = 3;

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
    buf.extend_from_slice(&(r.coverage.expected as u32).to_le_bytes());
}

/// Rebuild a [`CampaignResult`] from its encoded core through the
/// constructor the live campaign uses, so every derived field is
/// bit-identical. `billed_to_s` is the death time for a partial pair
/// (billing stops at death), `None` for a survivor.
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
    let expected_n = u64::from(r.u32()?);
    // An Alive/Partial record always has samples, never more than expected.
    let billed_s = billed_to_s.unwrap_or(duration_s);
    CampaignResult::derive(profile, pattern, duration_s, trace, gaps, expected_n, billed_s)
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

    /// `p` with every reference fault on and a mean pair life of 2 h.
    fn fault_heavy(p: CloudProfile) -> CloudProfile {
        let mut p = p.with_reference_faults();
        p.faults.pair_death_rate_per_hour = 0.5;
        p
    }

    fn outcome_for(p: &CloudProfile, seed: u64, i: usize) -> ShardOutcome {
        let pair_seed = derive_seed(seed, i as u64);
        let sim = simulate_pair_capped(p, TrafficPattern::FullSpeed, hours(3.0), pair_seed, i, None)
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
            r.coverage,
        )
    }

    #[test]
    fn campaign_outcomes_roundtrip_bit_for_bit() {
        // HPCCloud is free; EC2 is priced, so a partial pair's cost,
        // billed to its death, goes through the decoder too.
        for p in [clouds::hpccloud::n_core(8), clouds::ec2::c5_xlarge()].map(fault_heavy) {
            let mut seen = [false, false];
            for i in 0..12 {
                let out = outcome_for(&p, 5, i);
                match &out.sim {
                    ShardSim::Sim(PairSim::Alive(_)) => seen[0] = true,
                    ShardSim::Sim(PairSim::Partial(r, f)) => {
                        seen[1] = true;
                        if let Some(cost) = r.cost_usd {
                            let per_s = p.price_per_hour_usd.expect("priced") * 2.0 / 3600.0;
                            assert!((cost - per_s * f.death_s).abs() < 1e-9, "billed to death");
                        }
                    }
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
            let name = p.instance_type;
            assert!(seen.iter().all(|&s| s), "{name}: fixture should cover alive and partial");
        }
        let p = fault_heavy(clouds::hpccloud::n_core(8));

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
        let out = ShardOutcome {
            retries: 2,
            starved: true,
            sim: ShardSim::Panicked("worker bug: index 7 out of bounds".into()),
        };
        let bytes = encode_outcome(&out);
        let back = decode_outcome(&bytes, &p, TrafficPattern::FullSpeed, 0)
            .unwrap_or_else(|| panic!("failed to decode {out:?}"));
        assert_eq!(encode_outcome(&back), bytes);
        match &back.sim {
            ShardSim::Panicked(payload) => assert_eq!(payload, "worker bug: index 7 out of bounds"),
            other => panic!("variant changed: {other:?}"),
        }
    }

    #[test]
    fn malformed_bodies_decode_to_none() {
        let p = fault_heavy(clouds::hpccloud::n_core(8));
        let out = outcome_for(&p, 5, 0);
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
