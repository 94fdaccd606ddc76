//! DAG jobs: Spark's real scheduling model.
//!
//! [`crate::engine`] executes stage *pipelines*, which covers HiBench
//! apps and is what the calibrated Figure 15–19 experiments use. Real
//! Spark queries are DAGs: independent scan branches run concurrently
//! and meet at joins, so one branch's **shuffle overlaps another
//! branch's compute** — which matters on a token-bucket network,
//! because overlap changes *when* the budget drains relative to refill.
//!
//! [`run_dag`] executes a [`DagSpec`] with:
//!
//! * a global executor-slot pool shared by all runnable stages (FIFO,
//!   like Spark's default scheduler);
//! * per-task durations sampled as in the linear engine;
//! * shuffles as fabric flows that coexist with other stages' compute
//!   *and* other shuffles (max-min fairness arbitrates);
//! * a stage becoming runnable when all its parents' shuffles finish;
//! * one fabric tick per scheduling step through `Cluster::advance`,
//!   with each shuffling stage counting the completions inside its
//!   shuffle's flow-id range.
//!
//! CPU credits ([`Cluster::with_cpu_credits`]) are currently honored
//! only by the pipeline runners (the wave engine and the speculative
//! runner), whose strict compute/shuffle alternation makes the
//! accounting exact; the DAG scheduler ignores them.

use crate::cluster::Cluster;
use crate::engine::{pick_hot_node, tx_since, tx_totals, AllToAll, EngineConfig};
use crate::job::{JobSpec, StageSpec};
use netsim::fabric::FlowRange;
use netsim::rng::SimRng;
use netsim::shaper::Shaper;

/// A DAG of stages.
#[derive(Debug, Clone, PartialEq)]
pub struct DagSpec {
    /// Job label.
    pub name: String,
    /// Stage definitions.
    pub stages: Vec<StageSpec>,
    /// `parents[i]` — indices of stages whose output stage `i` consumes
    /// (must all be `< i`; the DAG is given in topological order).
    pub parents: Vec<Vec<usize>>,
    /// Shuffle skew (see [`JobSpec::skew`]).
    pub skew: f64,
    /// Fixed hot node for the skew.
    pub hot_node: Option<usize>,
}

impl DagSpec {
    /// Build and validate a DAG (stages must be topologically ordered).
    pub fn new(name: &str, stages: Vec<StageSpec>, parents: Vec<Vec<usize>>) -> Self {
        assert_eq!(stages.len(), parents.len(), "one parent list per stage");
        for (i, ps) in parents.iter().enumerate() {
            for &p in ps {
                assert!(p < i, "stage {i} depends on later stage {p}");
            }
        }
        DagSpec {
            name: name.to_string(),
            stages,
            parents,
            skew: 0.0,
            hot_node: None,
        }
    }

    /// A linear chain equivalent to a [`JobSpec`] (stage i depends on
    /// i−1), for cross-validation against the pipeline engine.
    pub fn linear(job: &JobSpec) -> Self {
        let parents = (0..job.stages.len())
            .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
            .collect();
        DagSpec {
            name: job.name.clone(),
            stages: job.stages.clone(),
            parents,
            skew: job.skew,
            hot_node: job.hot_node,
        }
    }

    /// Set the shuffle skew.
    pub fn with_skew(mut self, skew: f64, hot_node: Option<usize>) -> Self {
        assert!(skew >= 0.0, "skew must be non-negative");
        self.skew = skew;
        self.hot_node = hot_node;
        self
    }

    /// Total shuffle volume, bits.
    pub fn total_shuffle_bits(&self) -> f64 {
        self.stages.iter().map(|s| s.shuffle_bits).sum()
    }
}

/// Result of a DAG execution.
#[derive(Debug, Clone)]
pub struct DagResult {
    /// Job label.
    pub name: String,
    /// End-to-end duration, seconds.
    pub duration_s: f64,
    /// Per-stage completion times (shuffle done), seconds from start.
    pub stage_finish_s: Vec<f64>,
    /// Bits each node transmitted during the job.
    pub node_tx_bits: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StageState {
    /// Waiting for parents.
    Blocked,
    /// Tasks queued/running on the slot pool.
    Computing,
    /// All tasks done; shuffle flows in flight. The shuffle was
    /// admitted as one batch, so its flows are one id range, and the
    /// wait is a count of the flows still pending.
    Shuffling(FlowRange, usize),
    /// Fully complete (shuffle delivered).
    Done,
}

struct StageRun {
    state: StageState,
    /// Sampled task durations not yet started.
    queued_tasks: Vec<f64>,
    /// Remaining times of tasks currently on slots.
    running_tasks: Vec<f64>,
}

/// Execute a DAG on a cluster. Deterministic in `seed`.
pub fn run_dag<S: Shaper>(
    cluster: &mut Cluster<S>,
    dag: &DagSpec,
    seed: u64,
    cfg: &EngineConfig,
) -> DagResult {
    let n = cluster.nodes();
    let total_slots = cluster.total_slots();
    let mut rng = SimRng::new(seed);
    let start = cluster.fabric().now();
    let tx_before = tx_totals(cluster);
    let hot_node = pick_hot_node(dag.skew, dag.hot_node, n, &mut rng);
    let env_factor = if cfg.compute_jitter_sigma > 0.0 {
        rng.lognormal(0.0, cfg.compute_jitter_sigma)
    } else {
        1.0
    };

    // Sample all task durations up front (stable RNG order).
    let mut runs: Vec<StageRun> = dag
        .stages
        .iter()
        .map(|stage| {
            let sigma2 = (1.0 + stage.task_cv * stage.task_cv).ln();
            let mu = (stage.task_compute_s * env_factor).ln() - sigma2 / 2.0;
            let queued: Vec<f64> = (0..stage.tasks)
                .map(|_| {
                    if stage.task_cv <= 0.0 {
                        stage.task_compute_s * env_factor
                    } else {
                        rng.lognormal(mu, sigma2.sqrt())
                    }
                })
                .collect();
            StageRun {
                state: StageState::Blocked,
                queued_tasks: queued,
                running_tasks: Vec::new(),
            }
        })
        .collect();

    let mut stage_finish = vec![f64::NAN; dag.stages.len()];
    let ready = |runs: &Vec<StageRun>, parents: &Vec<usize>| {
        parents.iter().all(|&p| runs[p].state == StageState::Done)
    };
    // Unblock the roots.
    for i in 0..runs.len() {
        if ready(&runs, &dag.parents[i]) {
            runs[i].state = StageState::Computing;
        }
    }

    let dt = cfg.shuffle_step_s;
    let mut free_slots = total_slots;
    let max_steps = (7.0 * 86_400.0 / dt) as u64;
    let mut steps = 0u64;
    let mut done = Vec::new();

    while runs.iter().any(|r| r.state != StageState::Done) {
        assert!(steps < max_steps, "DAG did not finish within a simulated week");
        steps += 1;

        // 1. Schedule queued tasks onto free slots (stage order = FIFO).
        for run in runs.iter_mut() {
            if run.state != StageState::Computing {
                continue;
            }
            while free_slots > 0 {
                let Some(task) = run.queued_tasks.pop() else {
                    break;
                };
                run.running_tasks.push(task);
                free_slots -= 1;
            }
        }

        // 2. Advance the fabric one tick (carries every active
        //    shuffle). Ticks are not batched: a batch stops early only
        //    when the last active flow completes, so with two shuffles
        //    in flight it would run past the first one's completion.
        done.clear();
        cluster.advance(dt, 1, &mut done);
        for run in runs.iter_mut() {
            if let StageState::Shuffling(span, pending) = &mut run.state {
                *pending -= done.iter().filter(|&&id| span.contains(id)).count();
            }
        }

        // 3. Advance running tasks.
        for run in runs.iter_mut() {
            if run.state != StageState::Computing {
                continue;
            }
            let mut i = 0;
            while i < run.running_tasks.len() {
                run.running_tasks[i] -= dt;
                if run.running_tasks[i] <= 0.0 {
                    run.running_tasks.swap_remove(i);
                    free_slots += 1;
                } else {
                    i += 1;
                }
            }
        }

        // 4. State transitions.
        let now = cluster.fabric().now();
        for idx in 0..runs.len() {
            match runs[idx].state {
                StageState::Computing
                    if runs[idx].queued_tasks.is_empty() && runs[idx].running_tasks.is_empty() =>
                {
                    let stage = &dag.stages[idx];
                    if stage.shuffle_bits > 0.0 && n > 1 {
                        let shuffle = AllToAll::new(n, stage.shuffle_bits, hot_node, dag.skew);
                        let span = cluster.start_flows(shuffle);
                        runs[idx].state = StageState::Shuffling(span, span.len());
                    } else {
                        runs[idx].state = StageState::Done;
                        stage_finish[idx] = now - start;
                    }
                }
                StageState::Shuffling(_, 0) => {
                    runs[idx].state = StageState::Done;
                    stage_finish[idx] = now - start;
                }
                _ => {}
            }
        }
        // Unblock children whose parents completed this step.
        for idx in 0..runs.len() {
            if runs[idx].state == StageState::Blocked && ready(&runs, &dag.parents[idx]) {
                runs[idx].state = StageState::Computing;
            }
        }
    }

    DagResult {
        name: dag.name.clone(),
        duration_s: cluster.fabric().now() - start,
        stage_finish_s: stage_finish,
        node_tx_bits: tx_since(cluster, &tx_before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_job_cfg;
    use netsim::units::gbit;

    fn cfg() -> EngineConfig {
        EngineConfig {
            shuffle_step_s: 0.25,
            compute_step_s: 1.0,
            trace_interval_s: 5.0,
            compute_jitter_sigma: 0.0,
        }
    }

    fn diamond() -> DagSpec {
        // scan_a   scan_b
        //      \   /
        //      join
        //       |
        //     output
        DagSpec::new(
            "diamond",
            vec![
                StageSpec::new("scan_a", 16, 10.0, gbit(60.0)),
                StageSpec::new("scan_b", 16, 10.0, gbit(60.0)),
                StageSpec::new("join", 32, 8.0, gbit(30.0)),
                StageSpec::new("output", 8, 3.0, 0.0),
            ],
            vec![vec![], vec![], vec![0, 1], vec![2]],
        )
    }

    #[test]
    fn linear_dag_matches_pipeline_engine_roughly() {
        let job = JobSpec::new(
            "lin",
            vec![
                StageSpec::new("a", 32, 10.0, gbit(120.0)),
                StageSpec::new("b", 32, 6.0, 0.0),
            ],
        );
        let mut c1 = Cluster::ec2_emulated(4, 8, 5000.0);
        let pipeline = run_job_cfg(&mut c1, &job, 3, &cfg()).duration_s;
        let mut c2 = Cluster::ec2_emulated(4, 8, 5000.0);
        let dag = run_dag(&mut c2, &DagSpec::linear(&job), 3, &cfg()).duration_s;
        // Same structure; different RNG draw order and step quantization
        // allow a modest tolerance.
        assert!(
            (pipeline - dag).abs() / pipeline < 0.15,
            "pipeline {pipeline} dag {dag}"
        );
    }

    #[test]
    fn parallel_branches_beat_serialized_ones() {
        // The same stages as the diamond but fully serialized.
        let d = diamond();
        let serial = DagSpec::new(
            "serial",
            d.stages.clone(),
            vec![vec![], vec![0], vec![1], vec![2]],
        );
        // Cluster with plenty of slots so both scans fit concurrently.
        let mut c1 = Cluster::ec2_emulated(4, 16, 5000.0);
        let par = run_dag(&mut c1, &d, 5, &cfg()).duration_s;
        let mut c2 = Cluster::ec2_emulated(4, 16, 5000.0);
        let ser = run_dag(&mut c2, &serial, 5, &cfg()).duration_s;
        assert!(par < 0.85 * ser, "parallel {par} vs serial {ser}");
    }

    #[test]
    fn join_waits_for_both_parents() {
        let mut d = diamond();
        // Make scan_b much slower.
        d.stages[1].task_compute_s = 40.0;
        let mut c = Cluster::ec2_emulated(4, 16, 5000.0);
        let r = run_dag(&mut c, &d, 7, &cfg());
        // join (index 2) finishes after both scans.
        assert!(r.stage_finish_s[2] > r.stage_finish_s[0]);
        assert!(r.stage_finish_s[2] > r.stage_finish_s[1]);
        // and the slow scan dominated: join starts after scan_b.
        assert!(r.stage_finish_s[1] > r.stage_finish_s[0] + 20.0);
    }

    #[test]
    fn slot_contention_serializes_oversized_stages() {
        // Two root stages of 32 tasks each on a 32-slot cluster: they
        // cannot truly run in parallel.
        let dag = DagSpec::new(
            "contended",
            vec![
                StageSpec::new("a", 32, 10.0, 0.0),
                StageSpec::new("b", 32, 10.0, 0.0),
            ],
            vec![vec![], vec![]],
        );
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        let r = run_dag(&mut c, &dag, 9, &cfg());
        // Needs ~two waves: > 20 s, while true parallelism would be ~13.
        assert!(r.duration_s > 19.0, "{}", r.duration_s);
    }

    #[test]
    fn dag_conserves_shuffle_bits() {
        let d = diamond();
        let mut c = Cluster::ec2_emulated(4, 16, 5000.0);
        let r = run_dag(&mut c, &d, 11, &cfg());
        let moved: f64 = r.node_tx_bits.iter().sum();
        let expected = d.total_shuffle_bits();
        assert!((moved - expected).abs() / expected < 0.01);
    }

    #[test]
    fn overlapping_shuffles_share_the_network() {
        // Two independent branches whose shuffles overlap: each node's
        // egress carries both → still conserved, still terminates.
        let dag = DagSpec::new(
            "overlap",
            vec![
                StageSpec::new("a", 8, 1.0, gbit(200.0)),
                StageSpec::new("b", 8, 1.0, gbit(200.0)),
                StageSpec::new("sink_a", 8, 1.0, 0.0),
                StageSpec::new("sink_b", 8, 1.0, 0.0),
            ],
            vec![vec![], vec![], vec![0], vec![1]],
        );
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        let r = run_dag(&mut c, &dag, 13, &cfg());
        let moved: f64 = r.node_tx_bits.iter().sum();
        assert!((moved - gbit(400.0)).abs() / gbit(400.0) < 0.01);
        // Both shuffles at once: 100 Gbit/node over a 10 Gbps NIC ≥ 10 s.
        assert!(r.duration_s > 10.0);
    }

    #[test]
    fn budget_depletion_affects_dags_too() {
        let d = diamond();
        let mut fast = Cluster::ec2_emulated(4, 16, 5000.0);
        let f = run_dag(&mut fast, &d, 15, &cfg()).duration_s;
        let mut slow = Cluster::ec2_emulated(4, 16, 5000.0);
        slow.set_all_budgets_gbit(0.0);
        let s = run_dag(&mut slow, &d, 15, &cfg()).duration_s;
        assert!(s > 1.3 * f, "fast {f} slow {s}");
    }

    #[test]
    fn deterministic() {
        let d = diamond();
        let run = || {
            let mut c = Cluster::ec2_emulated(4, 16, 1000.0);
            run_dag(&mut c, &d, 17, &cfg()).duration_s
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "hot node out of range")]
    fn rejects_out_of_range_hot_node() {
        let d = diamond().with_skew(0.5, Some(4));
        let mut c = Cluster::ec2_emulated(4, 16, 5000.0);
        run_dag(&mut c, &d, 19, &cfg());
    }

    #[test]
    #[should_panic(expected = "depends on later stage")]
    fn rejects_non_topological_order() {
        DagSpec::new(
            "bad",
            vec![
                StageSpec::new("a", 1, 1.0, 0.0),
                StageSpec::new("b", 1, 1.0, 0.0),
            ],
            vec![vec![1], vec![]],
        );
    }
}
