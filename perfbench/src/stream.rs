//! The stream_journaled workload.
//!
//! Each operation runs one streaming campaign journaled with a
//! checkpoint every pane — gce-8 with reference faults, full-speed
//! traffic, 180 s per tenant, no topology — then cuts the journal
//! inside the record that spans its midpoint (a torn tail) and resumes
//! it to completion. The fresh and resumed reports must equal a plain
//! `run_fleet_stream` report, and the resumed journal the uninterrupted
//! one, byte for byte.

use crate::stats::{median, Metrics};
use crate::{Timed, Workload, DEFAULT_SEED};
use journal::{fingerprint64, Journal, JournalRecord};
use repro_core::clouds::gce;
use repro_core::measure::campaign::run_campaign_capped;
use repro_core::measure::stream::PANE_TENANTS;
use repro_core::measure::{
    run_fleet_stream, run_fleet_stream_journaled, JournaledStream, StreamSpec, StreamSummary,
};
use repro_core::netsim::rng::derive_seed;
use repro_core::netsim::{
    FaultInjector, FaultSchedule, SimRng, StreamConfig, StreamSim, TrafficPattern,
};
use repro_core::vstats::describe::Summary;
use repro_core::vstats::sketch::{Sketch, SketchConfig};
use std::fs::{self, File, OpenOptions};
use std::hint::black_box;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Tenants per campaign.
const TENANTS: u64 = 100_000;
/// Tenants of the warm-up campaign run during set-up.
const WARM_UP_TENANTS: u64 = 2048;
/// Simulated seconds per tenant.
const DURATION_S: f64 = 180.0;
/// The default seed's report at [`TENANTS`] tenants.
const GOLDEN: Report = Report {
    fingerprint: 0xaf84_8068_edcb_4ec1,
    report_fnv: 0xd554_f63a_8fdd_44f9,
};

// The seed labels `measure::campaign` derives a tenant's fault timeline
// and death time from (private there). The replay uses them so it
// simulates exactly the campaign's work; its outcome counts are checked
// against the campaign's.
const LABEL_FAULT_TIMELINE: u64 = 0xFA17;
const LABEL_PAIR_DEATH: u64 = 0xD347;

/// Journal header bytes before the first record (magic + config).
const JOURNAL_HEADER_LEN: u64 = 16;

const MIB: f64 = 1024.0 * 1024.0;

/// A rendered report, identified by the campaign fingerprint and a
/// digest of the report bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    fingerprint: u64,
    report_fnv: u64,
}

impl Report {
    fn of(s: &StreamSummary, spec: &StreamSpec) -> Report {
        Report {
            fingerprint: s.fingerprint,
            report_fnv: fingerprint64(s.render(spec).as_bytes()),
        }
    }
}

/// Every tenant accounted for, none lost to a worker panic.
fn sane(s: &StreamSummary, spec: &StreamSpec) -> bool {
    s.tenants_done == spec.tenants
        && s.panicked == 0
        && s.alive + s.partial + s.dead == spec.tenants
        && s.mean_bps.n() == s.alive + s.partial
}

/// A fresh journaled campaign and its resume after the tear.
pub struct Run {
    fresh: JournaledStream,
    resumed: JournaledStream,
    journal_identical: bool,
    fresh_s: f64,
    resume_s: f64,
}

pub struct Journaled {
    spec: StreamSpec,
    golden: Option<Report>,
    scratch: Scratch,
}

impl Journaled {
    /// A campaign of `tenants` tenants whose reports must equal
    /// `golden` (when given).
    pub fn with(seed: u64, tenants: u64, golden: Option<Report>) -> io::Result<Journaled> {
        // Not hpc-8: its 45 s mean VM stalls can swallow all of a
        // 180 s tenant's samples, and the campaign then aborts with
        // "no samples" on about a third of seeds at this tenant count.
        let mut spec = StreamSpec::new(
            gce::n_core(8).with_reference_faults(),
            TrafficPattern::FullSpeed,
            DURATION_S,
            tenants,
            seed,
        );
        spec.checkpoint_every = PANE_TENANTS;
        Ok(Journaled {
            spec,
            golden,
            scratch: Scratch::new()?,
        })
    }

    fn plain(&self, jobs: usize) -> Result<StreamSummary, String> {
        run_fleet_stream(&self.spec, jobs).map_err(|e| e.to_string())
    }

    /// Run the campaign journaled at `path` (calling `on_checkpoint`
    /// after each checkpoint), tear the journal, hand the torn journal
    /// and a copy of the uninterrupted one to `torn`, then resume and
    /// compare the resumed journal with the copy.
    fn run(
        &self,
        path: &Path,
        jobs: usize,
        on_checkpoint: impl FnMut(u64),
        torn: impl FnOnce(&Path, &Path) -> Result<(), String>,
    ) -> Result<Run, String> {
        let whole = path.with_extension("whole");
        let io_err = |e: io::Error| e.to_string();
        remove_if_present(path)?;
        let t = Instant::now();
        let fresh = run_fleet_stream_journaled(&self.spec, path, false, jobs, on_checkpoint)
            .map_err(|e| e.to_string())?;
        let fresh_s = t.elapsed().as_secs_f64();
        fs::copy(path, &whole).map_err(io_err)?;
        tear(path).map_err(io_err)?;
        torn(path, &whole)?;
        let t = Instant::now();
        let resumed = run_fleet_stream_journaled(&self.spec, path, true, jobs, |_| ())
            .map_err(|e| e.to_string())?;
        let resume_s = t.elapsed().as_secs_f64();
        let journal_identical = same_bytes(path, &whole).map_err(io_err)?;
        remove_if_present(path)?;
        remove_if_present(&whole)?;
        Ok(Run {
            fresh,
            resumed,
            journal_identical,
            fresh_s,
            resume_s,
        })
    }

    fn sane(&self, run: &Run) -> bool {
        sane(&run.fresh.summary, &self.spec) && sane(&run.resumed.summary, &self.spec)
    }

    /// One verdict per run against `expected`, explaining failures.
    fn verdicts(&self, runs: &[Run], expected: Report) -> Vec<bool> {
        runs.iter()
            .map(|run| {
                let r = &run.resumed.resume;
                let resume_ok = run.journal_identical
                    && r.resumed
                    && r.verified_pane
                    && r.truncated_bytes > 0
                    && r.tenants_skipped > 0
                    && r.tenants_skipped + r.tenants_computed == self.spec.tenants;
                let fresh = Report::of(&run.fresh.summary, &self.spec);
                let resumed = Report::of(&run.resumed.summary, &self.spec);
                let sane = self.sane(run);
                let ok = sane && fresh == expected && resumed == expected && resume_ok;
                if !ok {
                    eprintln!(
                        "perfbench: reports {fresh:x?} / {resumed:x?} (sane {sane}, resume ok {resume_ok}) != expected {expected:x?}"
                    );
                }
                ok
            })
            .collect()
    }

    /// The operation at one worker with the journal's own calls timed:
    /// bytes persisted at each checkpoint, `open` of the torn journal,
    /// `append` replaying the run's own records, and the checkpoint
    /// sketches' codec. Returns the run and the seconds in timed calls.
    fn trace_journal(&self, m: &mut Metrics) -> Result<(Run, f64), String> {
        let path = self.scratch.path("trace.jnl");
        let config = self.spec.config_fingerprint();
        let mut written = 0u64;
        let mut checkpoints = 0u64;
        let mut records: Vec<JournalRecord> = Vec::new();
        let (mut open_s, mut truncated, mut file_bytes) = (0.0, 0, 0);
        let run = self.run(
            &path,
            1,
            |_| {
                written += fs::metadata(&path).map_or(0, |md| md.len());
                checkpoints += 1;
            },
            |torn, whole| {
                let err = |e: journal::JournalError| e.to_string();
                records = Journal::open(whole, config)
                    .map_err(err)?
                    .0
                    .records()
                    .to_vec();
                file_bytes = fs::metadata(whole).map_err(|e| e.to_string())?.len();
                let t = Instant::now();
                let (jnl, report) = Journal::open(torn, config).map_err(err)?;
                open_s = t.elapsed().as_secs_f64();
                truncated = report.truncated_bytes;
                drop(jnl);
                Ok(())
            },
        )?;

        let replica = self.scratch.path("append.jnl");
        remove_if_present(&replica)?;
        let mut jnl = Journal::create(&replica, config).map_err(|e| e.to_string())?;
        let mut append_ms = Vec::with_capacity(records.len());
        for rec in records {
            let t = Instant::now();
            jnl.append(rec).map_err(|e| e.to_string())?;
            append_ms.push(micros(t) / 1e3);
        }
        drop(jnl);
        remove_if_present(&replica)?;

        let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
        let mut buf = Vec::new();
        let summary = &run.fresh.summary;
        for _ in 0..checkpoints {
            buf.clear();
            let t = Instant::now();
            summary.mean_bps.encode_into(&mut buf);
            summary.within_cov.encode_into(&mut buf);
            encode_us.push(micros(t));
            let t = Instant::now();
            let mut at = 0;
            let decoded = Sketch::decode(&buf, &mut at).and_then(|_| Sketch::decode(&buf, &mut at));
            decode_us.push(micros(t));
            if decoded.is_none() || at != buf.len() {
                return Err("checkpoint sketches did not round-trip".to_string());
            }
        }

        m.put("journal.checkpoints", checkpoints as f64);
        m.spans("journal.append_ms", &append_ms);
        m.put("journal.write_mib", written as f64 / MIB);
        m.put("journal.file_mib", file_bytes as f64 / MIB);
        m.put("journal.truncated_bytes", truncated as f64);
        m.put("journal.open_ms", open_s * 1e3);
        m.put("vstats.sketch.encode_us", median(&encode_us));
        m.put("vstats.sketch.decode_us", median(&decode_us));
        m.put(
            "measure.resume.tenants_skipped",
            run.resumed.resume.tenants_skipped as f64,
        );
        m.put(
            "measure.resume.tenants_computed",
            run.resumed.resume.tenants_computed as f64,
        );
        let timed_s = run.fresh_s
            + open_s
            + run.resume_s
            + append_ms.iter().sum::<f64>() / 1e3
            + (encode_us.iter().sum::<f64>() + decode_us.iter().sum::<f64>()) / 1e6;
        Ok((run, timed_s))
    }
}

impl Workload for Journaled {
    type Output = Run;

    fn setup(seed: u64, jobs: usize) -> Result<Journaled, String> {
        let warm_up = Journaled::with(seed, WARM_UP_TENANTS, None).map_err(|e| e.to_string())?;
        if !warm_up.sane(&warm_up.op(jobs)?.output) {
            return Err("warm-up campaign lost tenants".to_string());
        }
        let golden = (seed == DEFAULT_SEED).then_some(GOLDEN);
        Journaled::with(seed, TENANTS, golden).map_err(|e| e.to_string())
    }

    fn op(&self, jobs: usize) -> Result<Timed<Run>, String> {
        let run = self.run(&self.scratch.path("op.jnl"), jobs, |_| (), |_, _| Ok(()))?;
        Ok(Timed {
            work: (self.spec.tenants + run.resumed.resume.tenants_computed) as f64,
            wall_s: run.fresh_s + run.resume_s,
            output: run,
        })
    }

    fn check(&self, outputs: &[Run], jobs: usize) -> Result<Vec<bool>, String> {
        if outputs.is_empty() {
            return Ok(Vec::new());
        }
        // Without a golden, the reports must equal a plain campaign's.
        let expected = match self.golden {
            Some(g) => g,
            None => Report::of(&self.plain(jobs)?, &self.spec),
        };
        Ok(self.verdicts(outputs, expected))
    }

    fn trace(&self, jobs: usize, m: &mut Metrics) -> Result<Vec<bool>, String> {
        let e2e = self.op(jobs)?;
        let traced = Instant::now();

        let t = Instant::now();
        let plain = self.plain(jobs)?;
        let plain_s = t.elapsed().as_secs_f64();
        // Serial sub-campaigns, each followed at once by its replay, so
        // host speed drift falls alike on both sides of driver_s.
        let mut replay = Replay::default();
        let mut serial_s = 0.0;
        let mut counts_match = true;
        for round in 0..TRACE_ROUNDS {
            let mut sub = self.spec.clone();
            sub.tenants = self.spec.tenants / TRACE_ROUNDS;
            sub.seed = derive_seed(self.spec.seed, round);
            let t = Instant::now();
            let s = run_fleet_stream(&sub, 1).map_err(|e| e.to_string())?;
            serial_s += t.elapsed().as_secs_f64();
            let outcomes = replay.run(&sub);
            if outcomes != [s.alive, s.partial, s.dead] {
                eprintln!("perfbench: replay outcomes {outcomes:?} differ from the campaign's");
                counts_match = false;
            }
        }
        replay.report(m);
        let renders: Vec<f64> = (0..21)
            .map(|_| {
                let t = Instant::now();
                black_box(plain.render(&self.spec));
                micros(t)
            })
            .collect();
        let (run, journal_s) = self.trace_journal(m)?;
        let traced_s = traced.elapsed().as_secs_f64();

        m.put("core.render_us", median(&renders));
        m.put("measure.stream.driver_s", serial_s - replay.fleet_calls_s());
        m.put("measure.stream.tenants_alive", plain.alive as f64);
        m.put("measure.stream.tenants_partial", plain.partial as f64);
        m.put("measure.stream.tenants_dead", plain.dead as f64);
        m.put("journal.overhead_frac", (run.fresh_s - serial_s) / serial_s);
        m.put(
            "exec.parallel_efficiency",
            (run.fresh_s + run.resume_s) / (jobs as f64 * e2e.wall_s),
        );
        let timed_s =
            plain_s + serial_s + replay.spans_s() + renders.iter().sum::<f64>() / 1e6 + journal_s;
        m.put(
            "trace.unattributed_frac",
            (traced_s - timed_s).max(0.0) / traced_s,
        );

        // The plain report is the reference: journaled == plain, and the
        // serial journaled run checks worker-count invariance.
        let plain_report = Report::of(&plain, &self.spec);
        let expected = self.golden.unwrap_or(plain_report);
        let mut verdicts = self.verdicts(&[e2e.output, run], expected);
        verdicts.push(sane(&plain, &self.spec) && plain_report == expected);
        verdicts.push(counts_match);
        Ok(verdicts)
    }
}

/// Serial sub-campaigns of a traced run, each `1 / TRACE_ROUNDS` of the
/// tenants under its own derived seed.
const TRACE_ROUNDS: u64 = 4;

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Per-call times of replayed campaigns.
#[derive(Default)]
struct Replay {
    instantiate_us: Vec<f64>,
    sim_us: Vec<f64>,
    summary_us: Vec<f64>,
    campaign_us: Vec<f64>,
    push_ns: Vec<f64>,
    merge_us: Vec<f64>,
    push_s: f64,
    samples: usize,
}

fn seconds(us: &[f64]) -> f64 {
    us.iter().sum::<f64>() * 1e-6
}

impl Replay {
    /// Replay the campaign tenant by tenant at one worker, timing the
    /// public call behind each layer: VM instantiation, the
    /// fault-wrapped stream simulation, the trace summary, the
    /// per-tenant campaign, and the sketch pushes and per-pane merges
    /// of the fold. Returns the alive, partial and dead tenants.
    fn run(&mut self, spec: &StreamSpec) -> [u64; 3] {
        let profile = &spec.profile;
        let mut outcomes = [0u64; 3];
        let mut mean_bps = Sketch::new(SketchConfig::bandwidth_bps());
        let mut within_cov = Sketch::new(SketchConfig::ratio());
        let death_rate = profile.faults.pair_death_rate_per_hour / 3600.0;
        let mut pane_start = 0;
        while pane_start < spec.tenants {
            let pane_end = (pane_start + PANE_TENANTS).min(spec.tenants);
            let mut folded = Vec::with_capacity(PANE_TENANTS as usize);
            for tenant in pane_start..pane_end {
                let pair_seed = derive_seed(spec.seed, tenant);
                let death_s = if death_rate > 0.0 {
                    SimRng::new(derive_seed(pair_seed, LABEL_PAIR_DEATH)).exponential(death_rate)
                } else {
                    f64::INFINITY
                };
                let duration_s = death_s.min(spec.duration_s);

                let t = Instant::now();
                let mut vm = profile.instantiate(pair_seed);
                self.instantiate_us.push(micros(t));

                let t = Instant::now();
                let schedule = FaultSchedule::generate(
                    &profile.faults,
                    1,
                    duration_s,
                    derive_seed(pair_seed, LABEL_FAULT_TIMELINE),
                );
                let mut shaper = FaultInjector::new(vm.shaper, 0, schedule);
                let res = StreamSim::run(
                    &mut shaper,
                    &mut vm.nic,
                    &StreamConfig::new(duration_s, spec.pattern),
                );
                self.sim_us.push(micros(t));
                self.samples += res.bandwidth.samples.len();

                let bandwidths = res.bandwidth.bandwidths();
                let t = Instant::now();
                black_box(Summary::from_samples(&bandwidths));
                self.summary_us.push(micros(t));

                let t = Instant::now();
                let result =
                    run_campaign_capped(profile, spec.pattern, duration_s, pair_seed, None);
                self.campaign_us.push(micros(t));
                match result {
                    Ok(r) => {
                        outcomes[usize::from(death_s < spec.duration_s)] += 1;
                        folded.push((r.summary.mean, r.summary.cov));
                    }
                    Err(_) => outcomes[2] += 1,
                }
            }
            let mut pane_bps = Sketch::new(SketchConfig::bandwidth_bps());
            let mut pane_cov = Sketch::new(SketchConfig::ratio());
            let t = Instant::now();
            for &(mean, cov) in &folded {
                pane_bps.push(mean);
                pane_cov.push(cov);
            }
            let pushing_s = t.elapsed().as_secs_f64();
            self.push_s += pushing_s;
            if !folded.is_empty() {
                self.push_ns
                    .push(pushing_s * 1e9 / (2 * folded.len()) as f64);
            }
            let t = Instant::now();
            let merged = mean_bps.merge(&pane_bps) && within_cov.merge(&pane_cov);
            self.merge_us.push(micros(t));
            assert!(merged, "pane sketches share the campaign's configs");
            pane_start = pane_end;
        }
        outcomes
    }

    /// Seconds in the calls the campaign itself makes: per-tenant
    /// campaigns and sketch pushes and merges.
    fn fleet_calls_s(&self) -> f64 {
        seconds(&self.campaign_us) + self.push_s + seconds(&self.merge_us)
    }

    /// Seconds in every timed call.
    fn spans_s(&self) -> f64 {
        seconds(&self.instantiate_us)
            + seconds(&self.sim_us)
            + seconds(&self.summary_us)
            + self.fleet_calls_s()
    }

    fn report(&self, m: &mut Metrics) {
        let tenants = self.campaign_us.len().max(1) as f64;
        m.put("clouds.instantiate_us.p50", median(&self.instantiate_us));
        m.spans("netsim.stream_sim_us", &self.sim_us);
        m.put("netsim.stream_sim.samples", self.samples as f64 / tenants);
        m.spans("measure.campaign_us", &self.campaign_us);
        m.put("vstats.summary_us.p50", median(&self.summary_us));
        m.put("vstats.sketch.push_ns", median(&self.push_ns));
        m.put("vstats.sketch.merge_us", median(&self.merge_us));
    }
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(format!("{}: {e}", path.display())),
        _ => Ok(()),
    }
}

/// Cut the journal inside the record that spans its midpoint, as a
/// crash in the middle of an append would leave it. Walks the record
/// framing: a `u32` body length, the body, and an 8-byte checksum.
fn tear(path: &Path) -> io::Result<()> {
    let len = fs::metadata(path)?.len();
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    let mut at = JOURNAL_HEADER_LEN;
    loop {
        f.seek(SeekFrom::Start(at))?;
        let mut prefix = [0u8; 4];
        f.read_exact(&mut prefix)?;
        let next = at + 4 + u64::from(u32::from_le_bytes(prefix)) + 8;
        if next > len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "journal record overruns the file",
            ));
        }
        if next > len / 2 {
            return f.set_len(at + (next - at) / 2);
        }
        at = next;
    }
}

/// Whether two files hold the same bytes, compared in chunks so the
/// check adds no journal-sized buffer to the peak resident set.
fn same_bytes(a: &Path, b: &Path) -> io::Result<bool> {
    if fs::metadata(a)?.len() != fs::metadata(b)?.len() {
        return Ok(false);
    }
    let (mut fa, mut fb) = (File::open(a)?, File::open(b)?);
    let (mut ba, mut bb) = (vec![0u8; 1 << 16], vec![0u8; 1 << 16]);
    loop {
        let n = fa.read(&mut ba)?;
        if n == 0 {
            return Ok(true);
        }
        fb.read_exact(&mut bb[..n])?;
        if ba[..n] != bb[..n] {
            return Ok(false);
        }
    }
}

/// A scratch directory under the working directory, removed on drop.
struct Scratch(PathBuf);

/// Parent of every scratch directory.
const SCRATCH_ROOT: &str = ".perfbench-tmp";

impl Scratch {
    fn new() -> io::Result<Scratch> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(SCRATCH_ROOT).join(format!("{}-{id}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Succeeds only once no other scratch directory is left.
        let _ = fs::remove_dir(SCRATCH_ROOT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{timed_loop, Tally};

    const SMALL: u64 = 600;

    #[test]
    fn a_wrong_golden_counts_failed_operations() {
        let wrong = Some(Report {
            fingerprint: 1,
            report_fnv: 2,
        });
        let w = Journaled::with(DEFAULT_SEED, SMALL, wrong).expect("set-up");
        let (tally, rates) = timed_loop(&w, 2, 0.0);
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 1
            }
        );
        assert!(rates.is_empty(), "a failed operation has no rate");
    }

    #[test]
    fn reports_equal_plain_and_the_resume_starts_mid_journal() {
        let w = Journaled::with(7, SMALL, None).expect("set-up");
        let (tally, rates) = timed_loop(&w, 2, 0.0);
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
        assert_eq!(rates.len(), 1);
    }

    #[test]
    fn the_trace_replays_the_campaign_and_tears_a_record() {
        let w = Journaled::with(11, SMALL, None).expect("set-up");
        let mut m = Metrics::default();
        let verdicts = w.trace(2, &mut m).expect("trace");
        assert_eq!(verdicts, vec![true; 4]);
        assert_eq!(m.get("measure.campaign_us.tail_n"), Some(SMALL as f64));
        assert!(m.get("journal.truncated_bytes").is_some_and(|b| b > 0.0));
        assert_eq!(
            m.get("measure.resume.tenants_skipped").unwrap_or(0.0)
                + m.get("measure.resume.tenants_computed").unwrap_or(0.0),
            SMALL as f64
        );
    }
}
