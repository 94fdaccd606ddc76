//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//! runs one workload in a closed loop: one campaign at a time from this
//! single process, each with `exec` workers = the machine's available
//! parallelism. It measures host time only; the simulated statistics a
//! campaign produces are checked for exact equality, never timed.
//!
//! With `--trace 0` it repeats the workload's operation for `--seconds`
//! seconds and reports the end-to-end metrics of [`END_TO_END`]. With
//! `--trace 1` it runs one operation untraced at full parallelism, then
//! replays the same work at one worker through the public functions of
//! each crate, timing every call from outside, and reports the
//! per-layer metrics of [`PER_LAYER`]. A layer the workload does not
//! exercise reads 0.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An operation that
//! returns an error, panics, or produces output that fails its check
//! counts as failed; the run goes on.

mod fleet;
mod stats;
mod stream;

use stats::{median, Metrics};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// The seed the pinned goldens belong to. Any other seed is checked by
/// invariance (repeat, worker count, resume and journaled == plain).
pub const DEFAULT_SEED: u64 = 2020;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// The workloads, with why each was chosen (mirrored in `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    ("stream_journaled", "fleet-scale variability campaign, 1e5 gce-8 tenants, checkpointed every pane, torn mid-record, resumed: clouds, netsim, vstats, journal; bypasses topo and fabric"),
    ("bigdata_fleet", "repeated HiBench terasort on 64 re-placed fattree8 nodes: topo ECMP wiring and netsim fabric water-filling; bypasses stream panes, sketches and journal"),
];

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    // Completed tenants (fresh plus resumed) per second of operation
    // wall on stream_journaled; job repetitions per second on
    // bigdata_fleet.
    ("work_per_s", "1/s"),
    // VmHWM of this process: set-up, every operation and its checks.
    ("peak_rss_mib", "MiB"),
    // Median of the set-up repeats: spec, profile, topology, scratch
    // directory, and a warm-up operation of 2048 tenants or two
    // repetitions on a small fat-tree.
    ("setup_s", "s"),
];

const J: &str = "stream_journaled";
const B: &str = "bigdata_fleet";
const ALL: &str = "all";

/// Per-layer metrics of the traced run: `(name, unit, end-to-end metric
/// it should move, workload it is measured on)`. The other workload
/// reads 0.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    ("clouds.instantiate_us.p50", "us", "work_per_s", J),
    ("netsim.stream_sim_us.p50", "us", "work_per_s", J),
    ("netsim.stream_sim_us.tail", "us", "work_per_s", J),
    ("netsim.stream_sim_us.tail_n", "count", "-", J),
    ("netsim.stream_sim.samples", "count", "work_per_s", J),
    ("measure.campaign_us.p50", "us", "work_per_s", J),
    ("measure.campaign_us.tail", "us", "work_per_s", J),
    ("measure.campaign_us.tail_n", "count", "-", J),
    ("vstats.summary_us.p50", "us", "work_per_s", J),
    (
        "vstats.sketch.push_ns",
        "ns",
        "work_per_s (predicted ~0)",
        J,
    ),
    (
        "vstats.sketch.merge_us",
        "us",
        "work_per_s (predicted ~0)",
        J,
    ),
    ("measure.stream.driver_s", "s", "work_per_s", J),
    (
        "measure.stream.tenants_alive",
        "count",
        "work done (exact)",
        J,
    ),
    (
        "measure.stream.tenants_partial",
        "count",
        "work done (exact)",
        J,
    ),
    (
        "measure.stream.tenants_dead",
        "count",
        "work done (exact)",
        J,
    ),
    ("core.render_us", "us", "work_per_s (~0)", J),
    ("journal.checkpoints", "count", "work_per_s", J),
    ("journal.append_ms.p50", "ms", "work_per_s", J),
    ("journal.append_ms.tail", "ms", "work_per_s", J),
    ("journal.append_ms.tail_n", "count", "-", J),
    ("journal.write_mib", "MiB", "work_per_s, peak_rss_mib", J),
    ("journal.file_mib", "MiB", "peak_rss_mib", J),
    ("journal.truncated_bytes", "bytes", "peak_rss_mib", J),
    ("journal.open_ms", "ms", "work_per_s, peak_rss_mib", J),
    ("journal.overhead_frac", "ratio", "work_per_s", J),
    ("vstats.sketch.encode_us", "us", "work_per_s", J),
    ("vstats.sketch.decode_us", "us", "work_per_s", J),
    (
        "measure.resume.tenants_skipped",
        "count",
        "work done (exact)",
        J,
    ),
    (
        "measure.resume.tenants_computed",
        "count",
        "work done (exact)",
        J,
    ),
    ("topo.wiring_new_s", "s", "work_per_s", B),
    ("topo.reseat_us.p50", "us", "work_per_s", B),
    ("bigdata.cluster_build_us.p50", "us", "work_per_s", B),
    ("bigdata.run_job_ms.p50", "ms", "work_per_s", B),
    ("bigdata.run_job_ms.tail", "ms", "work_per_s", B),
    ("bigdata.run_job_ms.tail_n", "count", "-", B),
    ("netsim.fabric.steps", "count", "work_per_s", B),
    ("netsim.fabric.event_jumps", "count", "work_per_s", B),
    ("netsim.fabric.event_steps", "count", "work_per_s", B),
    ("netsim.fabric.rate_recomputes", "count", "work_per_s", B),
    ("netsim.fabric.rate_cache_hits", "count", "work_per_s", B),
    ("netsim.fabric.link_recomputes", "count", "work_per_s", B),
    ("netsim.fabric.link_cache_hits", "count", "work_per_s", B),
    ("netsim.fabric.ns_per_step", "ns", "work_per_s", B),
    ("measure.placement.driver_s", "s", "work_per_s", B),
    ("exec.parallel_efficiency", "ratio", "work_per_s", ALL),
    ("trace.unattributed_frac", "ratio", "-", ALL),
];

/// One timed operation: units of work completed, its wall time, and
/// the output its check inspects.
pub struct Timed<O> {
    pub work: f64,
    pub wall_s: f64,
    pub output: O,
}

/// A workload: its set-up, its operation, the checks on its outputs and
/// its traced replay.
pub trait Workload: Sized {
    type Output;

    /// Build the inputs for `seed` and run a small warm-up operation at
    /// `jobs` workers: everything before the first timed operation.
    fn setup(seed: u64, jobs: usize) -> Result<Self, String>;

    /// Run one operation with `jobs` workers.
    fn op(&self, jobs: usize) -> Result<Timed<Self::Output>, String>;

    /// One verdict per output; may run untimed reference campaigns.
    fn check(&self, outputs: &[Self::Output], jobs: usize) -> Result<Vec<bool>, String>;

    /// Run one operation at `jobs` workers, replay it at one worker
    /// with every layer timed, and return one verdict per check made.
    fn trace(&self, jobs: usize, m: &mut Metrics) -> Result<Vec<bool>, String>;
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, verdicts: &[bool]) {
        self.attempted += verdicts.len() as u64;
        self.failed += verdicts.iter().filter(|ok| !**ok).count() as u64;
    }
}

/// Run `f`, turning a panic into an error so one bad operation never
/// aborts the run.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("{what}: {e}")),
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("{what} panicked: {msg}"))
        }
    }
}

/// Repeat the operation while another one, at the mean length so far,
/// still ends within `seconds` (at least once), then check every
/// output. Returns the tally and the work rates of the operations
/// that passed.
pub fn timed_loop<W: Workload>(w: &W, jobs: usize, seconds: f64) -> (Tally, Vec<f64>) {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut rates = Vec::new();
    let mut outputs = Vec::new();
    for done in 1.. {
        match guarded("operation", || w.op(jobs)) {
            Ok(t) => {
                eprintln!(
                    "perfbench: op {}: {:.1}/s over {:.3} s",
                    outputs.len(),
                    t.work / t.wall_s,
                    t.wall_s
                );
                rates.push(t.work / t.wall_s);
                outputs.push(t.output);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                tally.add(&[false]);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (1.0 + 1.0 / f64::from(done)) > seconds {
            break;
        }
    }
    match guarded("check", || w.check(&outputs, jobs)) {
        Ok(verdicts) if verdicts.len() == outputs.len() => {
            tally.add(&verdicts);
            rates = rates
                .into_iter()
                .zip(&verdicts)
                .filter(|(_, ok)| **ok)
                .map(|(r, _)| r)
                .collect();
        }
        Ok(_) | Err(_) => {
            eprintln!("perfbench: output checks did not run");
            tally.add(&vec![false; outputs.len()]);
            rates.clear();
        }
    }
    (tally, rates)
}

fn end_to_end<W: Workload>(
    seed: u64,
    seconds: f64,
    jobs: usize,
) -> Result<(Tally, Metrics), String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let w = W::setup(seed, jobs)?;
        setups.push(t.elapsed().as_secs_f64());
        workload.get_or_insert(w);
    }
    let w = workload.ok_or("no set-up ran")?;
    eprintln!("perfbench: set-ups {setups:.4?} s");
    let (tally, rates) = timed_loop(&w, jobs, seconds);
    drop(w);
    let peak = bench::rss::sample().map_or(0.0, |m| m.peak_mib());
    let mut m = Metrics::default();
    m.put("work_per_s", median(&rates));
    m.put("peak_rss_mib", peak);
    m.put("setup_s", median(&setups));
    Ok((tally, m))
}

fn traced<W: Workload>(seed: u64, jobs: usize) -> Result<(Tally, Metrics), String> {
    let w = W::setup(seed, jobs)?;
    let mut raw = Metrics::default();
    let mut tally = Tally::default();
    match guarded("traced run", || w.trace(jobs, &mut raw)) {
        Ok(verdicts) => tally.add(&verdicts),
        Err(e) => {
            eprintln!("perfbench: {e}");
            tally.add(&[false]);
        }
    }
    let mut m = Metrics::default();
    for (name, ..) in PER_LAYER {
        m.put(name, raw.get(name).unwrap_or(0.0));
    }
    Ok((tally, m))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload required")?;
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result line. Non-finite values cannot be written as JSON and
/// mark the run incorrect.
fn result_line(tally: Tally, metrics: &Metrics, units: &[(&str, &str)]) -> String {
    let finite = metrics.0.iter().all(|(_, v)| v.is_finite());
    let correct = finite && tally.failed == 0;
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, value)) in metrics.0.iter().enumerate() {
        let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = match (args.workload.as_str(), args.trace) {
        ("stream_journaled", false) => {
            end_to_end::<stream::Journaled>(args.seed, args.seconds, jobs)
        }
        ("stream_journaled", true) => traced::<stream::Journaled>(args.seed, jobs),
        (_, false) => end_to_end::<fleet::Fleet>(args.seed, args.seconds, jobs),
        (_, true) => traced::<fleet::Fleet>(args.seed, jobs),
    };
    let (tally, metrics) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    let units: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, ..)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    println!("{}", result_line(tally, &metrics, &units));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Just enough JSON to read `BENCHMARK.json` and the result line.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => kv
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(&Json::Null, |(_, v)| v),
                _ => &Json::Null,
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("expected a string, got {other:?}"),
            }
        }

        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(v) => v,
                other => panic!("expected an array, got {other:?}"),
            }
        }
    }

    fn parse(text: &str) -> Json {
        let mut p = text.trim().char_indices().peekable();
        let v = value(text.trim(), &mut p);
        assert!(p.next().is_none(), "trailing characters");
        v
    }

    type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

    fn skip_ws(p: &mut Chars) {
        while p.peek().is_some_and(|(_, c)| c.is_whitespace()) {
            p.next();
        }
    }

    fn value(text: &str, p: &mut Chars) -> Json {
        skip_ws(p);
        let (at, c) = p.next().expect("a value");
        let v = match c {
            '{' => {
                let mut kv = Vec::new();
                loop {
                    skip_ws(p);
                    match p.next() {
                        Some((_, '}')) => break,
                        Some((_, ',')) => continue,
                        Some((_, '"')) => {
                            let key = string(p);
                            skip_ws(p);
                            assert_eq!(p.next().map(|(_, c)| c), Some(':'));
                            kv.push((key, value(text, p)));
                        }
                        other => panic!("bad object at {other:?}"),
                    }
                }
                Json::Obj(kv)
            }
            '[' => {
                let mut items = Vec::new();
                loop {
                    skip_ws(p);
                    match p.peek() {
                        Some((_, ']')) => {
                            p.next();
                            break;
                        }
                        Some((_, ',')) => {
                            p.next();
                        }
                        _ => items.push(value(text, p)),
                    }
                }
                Json::Arr(items)
            }
            '"' => Json::Str(string(p)),
            _ => {
                let mut end = at + c.len_utf8();
                while let Some(&(i, c)) = p.peek() {
                    if c == ',' || c == '}' || c == ']' || c.is_whitespace() {
                        break;
                    }
                    end = i + c.len_utf8();
                    p.next();
                }
                match &text[at..end] {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    num => Json::Num(num.parse().unwrap_or_else(|_| panic!("bad number {num:?}"))),
                }
            }
        };
        skip_ws(p);
        v
    }

    fn string(p: &mut Chars) -> String {
        let mut s = String::new();
        loop {
            match p.next().expect("unterminated string") {
                (_, '"') => return s,
                (_, '\\') => s.push(p.next().expect("escape").1),
                (_, c) => s.push(c),
            }
        }
    }

    fn benchmark_json() -> Json {
        parse(include_str!("../../BENCHMARK.json"))
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .arr()
            .iter()
            .map(|e| e.get("name").str().to_string())
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let doc = benchmark_json();
        let mut all = Vec::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            all.extend(names(&doc, key));
        }
        for name in &all {
            let ok = !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-');
            assert!(ok, "{name:?} must match [A-Za-z0-9_.-]+");
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "names are used once");
    }

    #[test]
    fn benchmark_json_records_the_workloads_and_metric_tables() {
        let doc = benchmark_json();
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .arr()
            .iter()
            .map(|w| {
                (
                    w.get("name").str().to_string(),
                    w.get("why").str().to_string(),
                )
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        for (_, why) in &workloads {
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why:?}"
            );
        }
        let pairs = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").str().to_string(),
                        m.get("unit").str().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(pairs("end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, ..)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(pairs("per_layer"), layers);
        for (name, _, _, on) in PER_LAYER {
            assert!(
                *on == ALL || WORKLOADS.iter().any(|(w, _)| w == on),
                "{name} names its workload"
            );
        }
    }

    #[test]
    fn the_result_line_is_json_with_the_four_keys() {
        let mut m = Metrics::default();
        m.put("work_per_s", 1234.5);
        m.put("setup_s", f64::NAN);
        let line = result_line(
            Tally {
                attempted: 3,
                failed: 1,
            },
            &m,
            END_TO_END,
        );
        let doc = parse(&line);
        assert_eq!(doc.get("correct"), &Json::Bool(false));
        assert_eq!(doc.get("attempted"), &Json::Num(3.0));
        assert_eq!(doc.get("failed"), &Json::Num(1.0));
        let work = doc.get("metrics").get("work_per_s");
        assert_eq!(work.get("value"), &Json::Num(1234.5));
        assert_eq!(work.get("unit").str(), "1/s");
        assert_eq!(
            doc.get("metrics").get("setup_s").get("value"),
            &Json::Num(0.0)
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload bigdata_fleet --seed 7 --seconds 30 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("bigdata_fleet", 7, 30.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload stream_journaled --trace 2").is_err());
        assert!(args("--workload stream_journaled --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
    }
}
