//! Golden digests of the job runners.
//!
//! Each test folds the f64 bits of a runner's outputs into one FNV-1a
//! digest and pins it: the speculative runner under VM stalls, cross
//! traffic and CPU credits; the DAG runner on skewed TPC-DS DAGs with
//! and without cross traffic; and the traced pipeline engine, sample
//! by sample. Every scenario also runs on a fabric forced onto the
//! reference stepping loops and must give the same digest, so a
//! refactor of how the runners step the fabric either keeps every bit
//! or fails here.

use bigdata::engine::{run_job_traced, EngineConfig};
use bigdata::workloads::tpcds;
use bigdata::{run_dag, run_job_speculative, Cluster, JobResult, SpeculationConfig};
use netsim::cpu::CpuCredits;
use netsim::fabric::{CrossTraffic, StepPath};
use netsim::faults::{FaultConfig, FaultSchedule};
use netsim::shaper::TokenBucket;
use netsim::units::gbps;

/// FNV-1a over the little-endian bytes of each value eaten.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn eat(&mut self, x: f64) {
        self.eat_u64(x.to_bits());
    }

    fn job(&mut self, r: &JobResult) {
        self.eat(r.duration_s);
        self.eat(r.started_at_s);
        for s in &r.stages {
            self.eat(s.compute_s);
            self.eat(s.shuffle_s);
            self.eat(s.shuffle_bits);
        }
        for &tx in &r.node_tx_bits {
            self.eat(tx);
        }
        self.eat_u64(r.hot_node.map_or(u64::MAX, |h| h as u64));
    }

    fn cluster(&mut self, c: &Cluster<TokenBucket>) {
        self.eat(c.fabric().now());
        for b in c.budgets_gbit() {
            self.eat(b);
        }
        for v in 0..c.nodes() {
            self.eat(c.fabric().node_total_tx_bits(v));
        }
    }
}

/// A depleting EC2-emulated cluster, optionally with cross traffic,
/// on the event engine or forced onto the reference loops.
fn cluster(nodes: usize, cross_seed: Option<u64>, reference: bool) -> Cluster<TokenBucket> {
    let mut c = Cluster::ec2_emulated(nodes, 8, 150.0);
    if let Some(seed) = cross_seed {
        c = c.with_cross_traffic(CrossTraffic::new(0.1, 4e9, gbps(2.0), seed));
    }
    if reference {
        c.fabric_mut().force_path(StepPath::Reference);
    }
    c
}

/// Run `scenario` on the event engine and on the reference loops,
/// require equal digests, and return the event engine's.
fn both_engines(scenario: impl Fn(bool) -> u64) -> u64 {
    let event = scenario(false);
    let reference = scenario(true);
    assert_eq!(
        event, reference,
        "event digest {event:#018x} != reference digest {reference:#018x}"
    );
    event
}

fn speculative_digest(reference: bool) -> u64 {
    let stalls = FaultConfig {
        stall_rate_per_hour: 20.0,
        stall_mean_s: 15.0,
        ..FaultConfig::NONE
    };
    let mut d = Digest::new();
    for seed in 1..=3u64 {
        let credits = seed == 2;
        let mut c = cluster(6, Some(40 + seed), reference);
        if credits {
            let cpu = (0..6)
                .map(|_| CpuCredits::new(2, 0.3, 2.0, 576.0))
                .collect();
            c = c.with_cpu_credits(cpu);
        }
        c.set_fault_schedule(FaultSchedule::generate(&stalls, 6, 3600.0, seed));
        let job = tpcds::query(65).with_skew(0.5);
        let (r, rep) = run_job_speculative(&mut c, &job, seed, &SpeculationConfig::default());
        d.job(&r);
        for x in [
            rep.tasks_total,
            rep.attempts_launched,
            rep.tasks_killed,
            rep.tasks_retried,
            rep.tasks_abandoned,
            rep.speculative_copies,
            rep.speculative_wins,
        ] {
            d.eat_u64(x as u64);
        }
        d.cluster(&c);
        if credits {
            for cr in c.cpu_credits().unwrap() {
                d.eat(cr.balance_credits());
            }
        }
    }
    d.0
}

fn dag_digest(reference: bool) -> u64 {
    let cfg = EngineConfig::default();
    let mut d = Digest::new();
    for (i, q) in [65u32, 59, 82].into_iter().enumerate() {
        for cross in [None, Some(70 + i as u64)] {
            let mut c = cluster(5, cross, reference);
            let dag = tpcds::query_dag(q).with_skew(0.6, None);
            let r = run_dag(&mut c, &dag, 7 + i as u64, &cfg);
            d.eat(r.duration_s);
            for &t in &r.stage_finish_s {
                d.eat(t);
            }
            for &tx in &r.node_tx_bits {
                d.eat(tx);
            }
            d.cluster(&c);
        }
    }
    d.0
}

fn traced_digest(reference: bool) -> u64 {
    let cfg = EngineConfig {
        compute_jitter_sigma: 0.05,
        ..EngineConfig::default()
    };
    let mut d = Digest::new();
    for (seed, cross) in [(3u64, None), (4, Some(90u64))] {
        let mut c = cluster(4, cross, reference);
        let job = tpcds::query(59).with_skew(0.3);
        let (r, traces) = run_job_traced(&mut c, &job, seed, &cfg);
        d.job(&r);
        for tr in &traces {
            d.eat_u64(tr.samples.len() as u64);
            for s in &tr.samples {
                d.eat(s.t);
                d.eat(s.tx_rate_bps);
                d.eat(s.budget_bits.unwrap_or(f64::NAN));
            }
        }
        d.cluster(&c);
    }
    d.0
}

#[test]
fn speculative_runs_are_pinned() {
    assert_eq!(both_engines(speculative_digest), 0x2ff55791941f44bc);
}

#[test]
fn dag_runs_are_pinned() {
    assert_eq!(both_engines(dag_digest), 0x96c44b5028cd8206);
}

#[test]
fn traced_runs_are_pinned() {
    assert_eq!(both_engines(traced_digest), 0x3efba7f5a2c436d5);
}
