//! The bigdata_fleet workload: `measure::run_placement_fleet` of
//! HiBench terasort on 64 ec2-c5.xlarge nodes of 16 cores, placed on a
//! `fattree8` topology and re-placed every repetition, event engine.

use crate::stats::{median, Metrics};
use crate::{Timed, Workload, DEFAULT_SEED};
use journal::fingerprint64;
use repro_core::bigdata::workloads::hibench;
use repro_core::bigdata::{run_job, Cluster, JobSpec};
use repro_core::clouds::{ec2, CloudProfile};
use repro_core::exec;
use repro_core::measure::{run_placement_fleet, PlacementFleetResult};
use repro_core::netsim::fabric::FabricPerf;
use repro_core::netsim::rng::derive_seed;
use repro_core::netsim::StepPath;
use repro_core::topo::{zoo, Topology, Wiring};
use std::time::Instant;

const TOPOLOGY: &str = "fattree8";
const NODES: usize = 64;
const CORES_PER_NODE: u32 = 16;
/// Repetitions per operation.
const REPS: usize = 24;
/// The default seed's fleet.
const GOLDEN: Output = Output {
    durations_fnv: 0x5487_e266_c051_85df,
    perf: [5819, 312, 5723, 72, 600, 72, 600],
};
/// The warm-up fleet run during set-up: topology, nodes, repetitions.
const WARM_UP: (&str, usize, usize) = ("fattree4", 64, 2);

/// A fleet's result: a digest of the job durations' bits and the
/// summed fabric counters of [`perf_counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    durations_fnv: u64,
    perf: [u64; 7],
}

/// The fabric counters reported per layer, in [`PERF_NAMES`] order.
fn perf_counts(p: &FabricPerf) -> [u64; 7] {
    [
        p.steps,
        p.event_jumps,
        p.event_steps,
        p.rate_recomputes,
        p.rate_cache_hits,
        p.link_recomputes,
        p.link_cache_hits,
    ]
}

const PERF_NAMES: [&str; 7] = [
    "netsim.fabric.steps",
    "netsim.fabric.event_jumps",
    "netsim.fabric.event_steps",
    "netsim.fabric.rate_recomputes",
    "netsim.fabric.rate_cache_hits",
    "netsim.fabric.link_recomputes",
    "netsim.fabric.link_cache_hits",
];

impl Output {
    fn of(durations_s: &[f64], perf: &FabricPerf) -> Output {
        let bits: Vec<u8> = durations_s
            .iter()
            .flat_map(|d| d.to_bits().to_le_bytes())
            .collect();
        Output {
            durations_fnv: fingerprint64(&bits),
            perf: perf_counts(perf),
        }
    }
}

fn sane(r: &PlacementFleetResult, reps: usize) -> bool {
    r.durations_s.len() == reps
        && r.durations_s.iter().all(|d| d.is_finite() && *d > 0.0)
        && r.fabric_perf.steps > 0
}

/// Rounds of the serial fleet and its replay in a traced run.
const TRACE_ROUNDS: usize = 3;

/// Times of the calls a replayed fleet makes.
#[derive(Default)]
struct Calls {
    wiring_s: Vec<f64>,
    build_us: Vec<f64>,
    reseat_us: Vec<f64>,
    run_job_ms: Vec<f64>,
}

impl Calls {
    fn total_s(&self) -> f64 {
        let sum = |xs: &[f64]| xs.iter().sum::<f64>();
        sum(&self.wiring_s)
            + (sum(&self.build_us) + sum(&self.reseat_us)) / 1e6
            + sum(&self.run_job_ms) / 1e3
    }
}

pub struct Fleet {
    profile: CloudProfile,
    job: JobSpec,
    topology: Topology,
    nodes: usize,
    seed: u64,
    reps: usize,
    golden: Option<Output>,
}

impl Fleet {
    /// A fleet of `reps` repetitions on `nodes` nodes of `topology`
    /// whose output must equal `golden` (when given).
    pub fn with(
        seed: u64,
        (topology, nodes, reps): (&str, usize, usize),
        golden: Option<Output>,
    ) -> Result<Fleet, String> {
        let topology = zoo::by_name(topology, nodes).map_err(|e| e.to_string())?;
        Ok(Fleet {
            profile: ec2::c5_xlarge(),
            job: hibench::terasort(),
            topology,
            nodes,
            seed,
            reps,
            golden,
        })
    }

    fn fleet(&self, jobs: usize) -> Result<PlacementFleetResult, String> {
        exec::set_global_jobs(Some(jobs));
        run_placement_fleet(
            &self.profile,
            &self.job,
            self.nodes,
            CORES_PER_NODE,
            self.reps,
            self.seed,
            Some(&self.topology),
            self.seed,
            StepPath::Event,
        )
        .map_err(|e| e.to_string())
    }

    /// Replay the fleet's calls at one worker, in its order, timing
    /// each: the job durations and summed fabric counters.
    fn replay(&self, calls: &mut Calls) -> Result<(Vec<f64>, FabricPerf), String> {
        let t = Instant::now();
        let base = Wiring::new(self.topology.clone(), self.nodes, self.seed, self.seed)
            .map_err(|e| e.to_string())?;
        calls.wiring_s.push(t.elapsed().as_secs_f64());
        let mut durations = Vec::with_capacity(self.reps);
        let mut perf = FabricPerf::default();
        for rep in 0..self.reps as u64 {
            let s = derive_seed(self.seed, rep);
            let t = Instant::now();
            let mut cluster = Cluster::from_profile(&self.profile, self.nodes, CORES_PER_NODE, s);
            calls.build_us.push(t.elapsed().as_secs_f64() * 1e6);
            cluster.fabric_mut().force_path(StepPath::Event);
            let t = Instant::now();
            let wiring = base.reseat(derive_seed(self.seed, rep));
            calls.reseat_us.push(t.elapsed().as_secs_f64() * 1e6);
            cluster.set_wiring(wiring);
            let t = Instant::now();
            durations.push(run_job(&mut cluster, &self.job, s).duration_s);
            calls.run_job_ms.push(t.elapsed().as_secs_f64() * 1e3);
            perf.merge(&cluster.fabric().perf());
        }
        Ok((durations, perf))
    }

    fn verdict(&self, got: Output, sane: bool, expected: Output) -> bool {
        let ok = sane && got == expected;
        if !ok {
            eprintln!("perfbench: fleet output {got:x?} (sane {sane}) != expected {expected:x?}");
        }
        ok
    }
}

impl Workload for Fleet {
    type Output = (Output, bool);

    fn setup(seed: u64, jobs: usize) -> Result<Fleet, String> {
        let (_, sane) = Fleet::with(seed, WARM_UP, None)?.op(jobs)?.output;
        if !sane {
            return Err("warm-up fleet produced no runs".to_string());
        }
        Fleet::with(
            seed,
            (TOPOLOGY, NODES, REPS),
            (seed == DEFAULT_SEED).then_some(GOLDEN),
        )
    }

    fn op(&self, jobs: usize) -> Result<Timed<(Output, bool)>, String> {
        let t = Instant::now();
        let r = self.fleet(jobs)?;
        let wall_s = t.elapsed().as_secs_f64();
        Ok(Timed {
            work: self.reps as f64,
            wall_s,
            output: (
                Output::of(&r.durations_s, &r.fabric_perf),
                sane(&r, self.reps),
            ),
        })
    }

    fn check(&self, outputs: &[(Output, bool)], _jobs: usize) -> Result<Vec<bool>, String> {
        let Some(&(first, _)) = outputs.first() else {
            return Ok(Vec::new());
        };
        let expected = self.golden.unwrap_or(first);
        Ok(outputs
            .iter()
            .map(|&(o, sane)| self.verdict(o, sane, expected))
            .collect())
    }

    fn trace(&self, jobs: usize, m: &mut Metrics) -> Result<Vec<bool>, String> {
        let e2e = self.op(jobs)?;
        let traced = Instant::now();
        let mut calls = Calls::default();
        let mut fleet_s = Vec::new();
        let mut serial = Vec::new();
        let mut perf = FabricPerf::default();
        for _ in 0..TRACE_ROUNDS {
            let t = Instant::now();
            let one = self.fleet(1)?;
            fleet_s.push(t.elapsed().as_secs_f64());
            let (durations, p) = self.replay(&mut calls)?;
            serial.push((
                Output::of(&one.durations_s, &one.fabric_perf),
                sane(&one, self.reps),
            ));
            serial.push((Output::of(&durations, &p), durations.len() == self.reps));
            perf = p;
        }
        exec::set_global_jobs(Some(jobs));
        let traced_s = traced.elapsed().as_secs_f64();

        m.put("topo.wiring_new_s", median(&calls.wiring_s));
        m.put("topo.reseat_us.p50", median(&calls.reseat_us));
        m.put("bigdata.cluster_build_us.p50", median(&calls.build_us));
        m.spans("bigdata.run_job_ms", &calls.run_job_ms);
        for (name, count) in PERF_NAMES.iter().zip(perf_counts(&perf)) {
            m.put(name, count as f64);
        }
        let run_job_s = calls.run_job_ms.iter().sum::<f64>() / 1e3;
        let rounds = TRACE_ROUNDS as f64;
        m.put(
            "netsim.fabric.ns_per_step",
            run_job_s * 1e9 / (rounds * perf.steps.max(1) as f64),
        );
        m.put(
            "measure.placement.driver_s",
            median(&fleet_s) - calls.total_s() / rounds,
        );
        m.put(
            "exec.parallel_efficiency",
            median(&fleet_s) / (jobs as f64 * e2e.wall_s),
        );
        let timed_s = fleet_s.iter().sum::<f64>() + calls.total_s();
        m.put(
            "trace.unattributed_frac",
            (traced_s - timed_s).max(0.0) / traced_s,
        );

        // The serial fleet is the reference: worker-count invariance,
        // and the replay must reproduce it exactly.
        let expected = self.golden.unwrap_or(serial[0].0);
        let mut verdicts = vec![self.verdict(e2e.output.0, e2e.output.1, expected)];
        verdicts.extend(
            serial
                .iter()
                .map(|&(o, sane)| self.verdict(o, sane, expected)),
        );
        Ok(verdicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{timed_loop, Tally};

    #[test]
    fn a_wrong_golden_counts_failed_operations() {
        let wrong = Some(Output {
            durations_fnv: 1,
            perf: [0; 7],
        });
        let w = Fleet::with(DEFAULT_SEED, WARM_UP, wrong).expect("set-up");
        let (tally, rates) = timed_loop(&w, 2, 0.0);
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 1
            }
        );
        assert!(rates.is_empty());
    }

    #[test]
    fn trace_replay_reproduces_the_fleet() {
        let w = Fleet::with(5, WARM_UP, None).expect("set-up");
        let mut m = Metrics::default();
        assert_eq!(
            w.trace(2, &mut m).expect("trace"),
            vec![true; 1 + 2 * TRACE_ROUNDS]
        );
        assert!(m.get("netsim.fabric.steps").is_some_and(|s| s > 0.0));
        assert!(m.get("topo.wiring_new_s").is_some_and(|s| s > 0.0));
    }
}
