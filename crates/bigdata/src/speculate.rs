//! Speculative re-execution under fault injection (robustness layer).
//!
//! Spark tolerates executor loss by re-running failed tasks elsewhere
//! and races slow tasks against speculative copies
//! (`spark.speculation`). This module reproduces both mechanisms on the
//! simulated cluster — and, crucially, reproduces the paper's negative
//! result: speculation does **not** cure the token-bucket stragglers of
//! Figure 18, because a speculative copy placed on another node of the
//! same long-running job finds that node's bucket just as empty as the
//! straggler's. The mitigation assumes stragglers are *node* problems;
//! a drained token bucket is a *history* problem shared by the fleet.
//!
//! * [`run_job_speculative`] — per-task scheduler over executor slots.
//!   VM stalls (from the fabric's [`FaultSchedule`]) kill the tasks
//!   running on the stalled node; kills are retried on surviving nodes
//!   under derived seeds. Tasks running far beyond the stage median get
//!   a speculative copy; first finisher wins. Shuffles run through the
//!   same faulted fabric (a stalled node transmits nothing until it
//!   recovers).
//! * [`token_bucket_straggler_cure`] — the controlled Figure 18
//!   experiment: a drained straggler versus a speculative copy on an
//!   equally-drained peer versus the counterfactual fresh-budget node.

use crate::cluster::Cluster;
use crate::engine::{task_time, AllToAll, JobResult, StageResult};
use crate::job::JobSpec;
use netsim::fabric::{FlowId, FlowSpec};
use netsim::faults::{FaultEpisode, FaultKind, FaultSchedule};
use netsim::rng::{derive_seed, SimRng};
use netsim::shaper::Shaper;
use netsim::units::gbit;
use std::collections::{BTreeSet, VecDeque};

/// Seed-derivation label for per-stage task RNG streams.
const LABEL_STAGE: u64 = 0x57A6;
/// Seed-derivation label for speculative-copy durations.
const LABEL_COPY: u64 = 0xC0B7;
/// Fluid step during shuffles, seconds (matches the engine default).
const SHUFFLE_STEP_S: f64 = 0.25;
/// Fluid step during compute phases, seconds.
const COMPUTE_STEP_S: f64 = 1.0;

/// Speculative-execution policy (Spark's knobs, simplified).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// A task running longer than `multiplier × median` task duration
    /// gets a speculative copy (`spark.speculation.multiplier`). Set to
    /// `f64::INFINITY` to disable speculation while keeping retry.
    pub multiplier: f64,
    /// Attempts per task before it is abandoned (first launch included;
    /// Spark's `spark.task.maxFailures`).
    pub max_attempts: u32,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            multiplier: 1.5,
            max_attempts: 4,
        }
    }
}

/// What speculative re-execution did during one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpeculationReport {
    /// Distinct tasks across all stages.
    pub tasks_total: usize,
    /// Attempts launched (originals + retries + speculative copies).
    pub attempts_launched: usize,
    /// Attempts killed mid-run by a VM stall on their node.
    pub tasks_killed: usize,
    /// Kills that were relaunched on a surviving node.
    pub tasks_retried: usize,
    /// Tasks given up on after `max_attempts` kills (the stage completes
    /// without them; a real engine would fail the job — counting them
    /// keeps the simulation total).
    pub tasks_abandoned: usize,
    /// Speculative copies launched for slow-running tasks.
    pub speculative_copies: usize,
    /// Copies that finished before the original attempt.
    pub speculative_wins: usize,
}

impl SpeculationReport {
    /// Whether any fault or speculation event occurred at all.
    pub fn is_clean(&self) -> bool {
        self.tasks_killed == 0 && self.speculative_copies == 0 && self.tasks_abandoned == 0
    }

    fn absorb(&mut self, other: SpeculationReport) {
        self.tasks_total += other.tasks_total;
        self.attempts_launched += other.attempts_launched;
        self.tasks_killed += other.tasks_killed;
        self.tasks_retried += other.tasks_retried;
        self.tasks_abandoned += other.tasks_abandoned;
        self.speculative_copies += other.speculative_copies;
        self.speculative_wins += other.speculative_wins;
    }
}

/// First VM stall on `node` that *starts* strictly inside `(from, to)`
/// — a task launched at `from` and ending at `to` dies to it.
fn first_stall_within(
    schedule: &FaultSchedule,
    node: usize,
    from: f64,
    to: f64,
) -> Option<FaultEpisode> {
    schedule
        .node_episodes(node)
        .iter()
        .filter(|e| e.kind == FaultKind::VmStall)
        .find(|e| e.start_s > from && e.start_s < to)
        .copied()
}

/// Push a start time past any stall currently covering the node (an
/// executor on a stalled VM cannot launch anything until it recovers).
fn skip_stalls(schedule: &FaultSchedule, node: usize, mut t: f64) -> f64 {
    while let Some(ep) = schedule.stall_covering(node, t) {
        t = ep.end_s;
    }
    t
}

/// One executor slot: which node it lives on and when it frees up.
#[derive(Debug, Clone, Copy)]
struct Slot {
    node: usize,
    free_at: f64,
}

/// Pick the slot that can start soonest for a task ready at `ready_at`,
/// preferring any node other than `avoid` (Spark briefly blacklists the
/// executor that just failed the task). Ties break on lowest index for
/// determinism. Returns the slot index.
fn best_slot(slots: &[Slot], ready_at: f64, avoid: Option<usize>) -> usize {
    let pick = |exclude: Option<usize>| -> Option<usize> {
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| Some(s.node) != exclude)
            .min_by(|(_, a), (_, b)| {
                a.free_at
                    .max(ready_at)
                    .total_cmp(&b.free_at.max(ready_at))
            })
            .map(|(i, _)| i)
    };
    match pick(avoid) {
        Some(i) => i,
        // Single-node cluster: nowhere else to go. The slot list is
        // never empty (cluster construction rejects zero slots), so the
        // unconstrained pick always succeeds.
        // detlint:allow(D5) -- invariant: unconstrained pick over a non-empty slot list
        None => pick(None).expect("cluster has at least one slot"),
    }
}

/// Outcome of the per-task compute scheduler for one stage.
struct StageCompute {
    wall_s: f64,
    report: SpeculationReport,
}

/// Schedule one stage's tasks over the slots, honouring stalls.
///
/// Everything is derived-seed deterministic: task `t` attempt `a`
/// always samples the same duration regardless of placement, so adding
/// faults perturbs *placement and timing*, never the underlying work.
#[allow(clippy::too_many_arguments)]
fn schedule_stage(
    n_nodes: usize,
    cores_per_node: u32,
    t0: f64,
    tasks: usize,
    mean_s: f64,
    cv: f64,
    schedule: Option<&FaultSchedule>,
    stage_seed: u64,
    cfg: &SpeculationConfig,
) -> StageCompute {
    let mut report = SpeculationReport {
        tasks_total: tasks,
        ..SpeculationReport::default()
    };
    if tasks == 0 || mean_s <= 0.0 {
        return StageCompute {
            wall_s: 0.0,
            report,
        };
    }

    let mut slots: Vec<Slot> = (0..n_nodes)
        .flat_map(|node| {
            (0..cores_per_node).map(move |_| Slot {
                node,
                free_at: t0,
            })
        })
        .collect();

    // (task, attempt, ready_at, avoid-node)
    let mut pending: VecDeque<(usize, u32, f64, Option<usize>)> =
        (0..tasks).map(|t| (t, 0, t0, None)).collect();
    // Per task: (launch time, sampled duration, completion time, node).
    let mut done: Vec<Option<(f64, f64, f64, usize)>> = vec![None; tasks];

    while let Some((task, attempt, ready_at, avoid)) = pending.pop_front() {
        let si = best_slot(&slots, ready_at, avoid);
        let node = slots[si].node;
        let mut start = slots[si].free_at.max(ready_at);
        if let Some(sch) = schedule {
            start = skip_stalls(sch, node, start);
        }
        let mut trng = SimRng::new(derive_seed(
            stage_seed,
            (task as u64) * 131 + attempt as u64,
        ));
        let d = task_time(&mut trng, mean_s, cv);
        let killer = schedule.and_then(|sch| first_stall_within(sch, node, start, start + d));
        report.attempts_launched += 1;
        match killer {
            Some(ep) => {
                // The stall takes the executor down mid-task; the slot
                // comes back when the VM does.
                report.tasks_killed += 1;
                slots[si].free_at = ep.end_s;
                if attempt + 1 < cfg.max_attempts {
                    report.tasks_retried += 1;
                    pending.push_back((task, attempt + 1, ep.start_s, Some(node)));
                } else {
                    report.tasks_abandoned += 1;
                }
            }
            None => {
                let end = start + d;
                slots[si].free_at = end;
                done[task] = Some((start, d, end, node));
            }
        }
    }

    // --- Speculation: race slow tasks against copies elsewhere. ---
    if cfg.multiplier.is_finite() && tasks >= 2 {
        let mut durations: Vec<f64> = done.iter().flatten().map(|&(_, d, _, _)| d).collect();
        durations.sort_by(|a, b| a.total_cmp(b));
        if !durations.is_empty() {
            let median = durations[durations.len() / 2];
            let threshold = cfg.multiplier * median;
            for task in 0..tasks {
                let Some((start, d, end, node)) = done[task] else {
                    continue;
                };
                if d <= threshold {
                    continue;
                }
                // The scheduler notices once the task has run
                // `multiplier × median` without finishing.
                let detect = start + threshold;
                let si = best_slot(&slots, detect, Some(node));
                let copy_node = slots[si].node;
                let mut copy_start = slots[si].free_at.max(detect);
                if let Some(sch) = schedule {
                    copy_start = skip_stalls(sch, copy_node, copy_start);
                }
                let mut crng =
                    SimRng::new(derive_seed(derive_seed(stage_seed, LABEL_COPY), task as u64));
                let copy_d = task_time(&mut crng, mean_s, cv);
                report.speculative_copies += 1;
                report.attempts_launched += 1;
                let copy_killed = schedule
                    .map(|sch| {
                        first_stall_within(sch, copy_node, copy_start, copy_start + copy_d)
                            .is_some()
                    })
                    .unwrap_or(false);
                if copy_killed {
                    // Copies are best-effort: a killed copy just loses.
                    continue;
                }
                let copy_end = copy_start + copy_d;
                slots[si].free_at = copy_end;
                if copy_end < end {
                    report.speculative_wins += 1;
                    done[task] = Some((start, d, copy_end, node));
                }
            }
        }
    }

    let wall_end = done
        .iter()
        .flatten()
        .map(|&(_, _, end, _)| end)
        .fold(t0, f64::max);
    StageCompute {
        wall_s: wall_end - t0,
        report,
    }
}

/// Run a job with per-task scheduling, fault-driven retry, and
/// speculative execution.
///
/// Faults come from the cluster fabric's attached [`FaultSchedule`]
/// (see [`Cluster::set_fault_schedule`]); with no schedule attached
/// this degrades to a fault-free per-task engine. The shuffle phases
/// run through the same faulted fabric, so a node that stalls
/// mid-shuffle stops transmitting until it recovers and the stage
/// simply takes longer — no retry needed at the flow level, which is
/// exactly how fabric-level fair sharing absorbs transient faults.
pub fn run_job_speculative<S: Shaper>(
    cluster: &mut Cluster<S>,
    job: &JobSpec,
    seed: u64,
    cfg: &SpeculationConfig,
) -> (JobResult, SpeculationReport) {
    let n = cluster.nodes();
    let mut rng = SimRng::new(seed);
    let started_at_s = cluster.fabric().now();
    let tx_before: Vec<f64> = (0..n)
        .map(|i| cluster.fabric().node_total_tx_bits(i))
        .collect();
    let schedule = cluster.fault_schedule().cloned();

    let hot_node = (job.skew > 0.0).then(|| match job.hot_node {
        Some(h) => {
            assert!(h < n, "hot node out of range");
            h
        }
        None => rng.index(n),
    });

    let mut report = SpeculationReport::default();
    let mut stage_results = Vec::with_capacity(job.stages.len());
    for (stage_idx, stage) in job.stages.iter().enumerate() {
        // --- Compute phase: per-task scheduling with retry. ---
        let stage_seed = derive_seed(derive_seed(seed, LABEL_STAGE), stage_idx as u64);
        let sc = schedule_stage(
            n,
            cluster.cores_per_node(),
            cluster.fabric().now(),
            stage.tasks,
            stage.task_compute_s,
            stage.task_cv,
            schedule.as_ref(),
            stage_seed,
            cfg,
        );
        report.absorb(sc.report);
        let mut compute_s = sc.wall_s;
        // Burstable instances stretch compute exactly as in the engine.
        if let Some(credits) = cluster.cpu_credits_mut() {
            let walls: Vec<f64> = credits.iter_mut().map(|c| c.run(compute_s)).collect();
            let stage_wall = walls.iter().cloned().fold(0.0, f64::max);
            for (c, w) in credits.iter_mut().zip(&walls) {
                c.idle(stage_wall - w);
            }
            compute_s = stage_wall;
        }
        let mut left = compute_s;
        while left > 0.0 {
            let dt = left.min(COMPUTE_STEP_S);
            cluster.step(dt);
            left -= dt;
        }

        // --- Shuffle phase: the faulted fabric does the degrading. ---
        let mut shuffle_s = 0.0;
        if stage.shuffle_bits > 0.0 && n > 1 {
            let start = cluster.fabric().now();
            let mut pending: BTreeSet<FlowId> = cluster
                .start_flows(AllToAll::new(n, stage.shuffle_bits, hot_node, job.skew))
                .iter()
                .collect();
            let max_steps = (86_400.0 / SHUFFLE_STEP_S) as u64;
            let mut steps = 0u64;
            while !pending.is_empty() && steps < max_steps {
                let finished = cluster.step(SHUFFLE_STEP_S);
                for id in finished {
                    pending.remove(&id);
                }
                steps += 1;
            }
            assert!(
                pending.is_empty(),
                "shuffle did not complete within 24 simulated hours"
            );
            shuffle_s = cluster.fabric().now() - start;
            if let Some(credits) = cluster.cpu_credits_mut() {
                for c in credits {
                    c.idle(shuffle_s);
                }
            }
        }

        stage_results.push(StageResult {
            name: stage.name.clone(),
            compute_s,
            shuffle_s,
            shuffle_bits: stage.shuffle_bits,
        });
    }

    let node_tx_bits: Vec<f64> = (0..n)
        .map(|i| cluster.fabric().node_total_tx_bits(i) - tx_before[i])
        .collect();
    let result = JobResult {
        name: job.name.clone(),
        duration_s: cluster.fabric().now() - started_at_s,
        started_at_s,
        stages: stage_results,
        node_tx_bits,
        hot_node,
    };
    (result, report)
}

/// Outcome of the controlled Figure 18 speculation experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerCure {
    /// Time for the drained straggler to ship its shuffle output alone.
    pub straggler_s: f64,
    /// Completion time when a speculative copy launches after
    /// `detect_delay_s` on a peer whose bucket is equally drained
    /// (first finisher wins) — the realistic end-of-job state.
    pub speculative_s: f64,
    /// Counterfactual: the copy lands on a node with a full budget.
    pub fresh_s: f64,
    /// Delay before the copy launched.
    pub detect_delay_s: f64,
    /// Did the realistic speculative copy beat the straggler by ≥20%?
    pub cured: bool,
    /// Would a fresh-budget replacement have done so?
    pub fresh_cures: bool,
}

/// Run one transfer scenario: node 0 ships `transfer_bits` to node 1;
/// optionally a copy from `copy_src` launches at `detect_delay_s`.
/// Returns the time at which the data first arrives in full (either
/// flow finishing delivers the task output).
fn transfer_race(
    budgets_gbit: &[f64],
    transfer_bits: f64,
    copy_src: Option<usize>,
    detect_delay_s: f64,
) -> f64 {
    let mut c = Cluster::ec2_emulated(budgets_gbit.len(), 8, 5000.0);
    for (i, b) in budgets_gbit.iter().enumerate() {
        c.fabric_mut().node_shaper_mut(i).set_budget_bits(gbit(*b));
    }
    let primary = c.start_flow(FlowSpec::new(0, 1, transfer_bits));
    let mut copy: Option<FlowId> = None;
    let dt = 0.1;
    loop {
        if copy.is_none() {
            if let Some(src) = copy_src {
                if c.fabric().now() + 1e-9 >= detect_delay_s {
                    copy = Some(c.start_flow(FlowSpec::new(src, 1, transfer_bits)));
                }
            }
        }
        let finished = c.step(dt);
        let now = c.fabric().now();
        if finished
            .iter()
            .any(|&id| id == primary || Some(id) == copy)
        {
            return now;
        }
        assert!(
            now < 86_400.0,
            "straggler transfer did not complete within 24 simulated hours"
        );
    }
}

/// The Figure 18 speculation experiment.
///
/// A long job has drained every node's token bucket to
/// `drained_budget_gbit`. One straggler task still has
/// `transfer_gbit` of shuffle output to ship. Three worlds:
///
/// 1. no speculation — the straggler grinds through at the sustained
///    rate;
/// 2. speculation as deployed — after `detect_delay_s` a copy starts on
///    a peer node, whose bucket the same job drained;
/// 3. the counterfactual the mitigation imagines — the copy lands on a
///    node with a full budget.
///
/// The returned [`StragglerCure`] shows world 2 ≈ world 1 (the copy
/// drains its own bucket and ends up exactly as throttled) while
/// world 3 would have cured it: speculative execution fails not because
/// re-execution is slow, but because token-bucket state is *shared
/// history*, not a per-node defect.
pub fn token_bucket_straggler_cure(
    transfer_gbit: f64,
    drained_budget_gbit: f64,
    detect_delay_s: f64,
) -> StragglerCure {
    assert!(
        transfer_gbit > 0.0 && drained_budget_gbit >= 0.0 && detect_delay_s >= 0.0,
        "experiment parameters must be non-negative"
    );
    let bits = gbit(transfer_gbit);
    let drained = [drained_budget_gbit; 4];
    let straggler_s = transfer_race(&drained, bits, None, 0.0);
    let speculative_s = transfer_race(&drained, bits, Some(2), detect_delay_s);
    // World 3: node 3 kept (or regained) a full bucket.
    let mut fresh = drained;
    fresh[3] = 5000.0;
    let fresh_s = transfer_race(&fresh, bits, Some(3), detect_delay_s);
    StragglerCure {
        straggler_s,
        speculative_s,
        fresh_s,
        detect_delay_s,
        cured: speculative_s < 0.8 * straggler_s,
        fresh_cures: fresh_s < 0.8 * straggler_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_job;
    use crate::job::StageSpec;
    use crate::workloads::tpcds;
    use netsim::faults::FaultConfig;

    fn stall_config(rate_per_hour: f64, mean_s: f64) -> FaultConfig {
        FaultConfig {
            stall_rate_per_hour: rate_per_hour,
            stall_mean_s: mean_s,
            ..FaultConfig::NONE
        }
    }

    #[test]
    fn fault_free_run_is_clean_and_comparable_to_engine() {
        let job = tpcds::query(65);
        let mut c1 = Cluster::ec2_emulated(12, 16, 5000.0);
        let (r, rep) = run_job_speculative(&mut c1, &job, 3, &SpeculationConfig::default());
        assert!(rep.is_clean(), "{rep:?}");
        let expected: usize = job.stages.iter().map(|s| s.tasks).sum();
        assert_eq!(rep.tasks_total, expected);
        assert_eq!(rep.attempts_launched, expected);
        // Same workload through the wave engine lands in the same
        // ballpark (different RNG streams, same distributions).
        let mut c2 = Cluster::ec2_emulated(12, 16, 5000.0);
        let base = run_job(&mut c2, &job, 3);
        let ratio = r.duration_s / base.duration_s;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
    }

    #[test]
    fn tpcds_finishes_under_injected_stalls() {
        let mut c = Cluster::ec2_emulated(12, 16, 5000.0);
        // ~20 stalls/hour/node of ~15 s: a brutal environment — several
        // stalls land inside a ~2-minute query.
        let schedule = FaultSchedule::generate(&stall_config(20.0, 15.0), 12, 3600.0, 77);
        c.set_fault_schedule(schedule);
        let (r, rep) = run_job_speculative(&mut c, &tpcds::query(65), 77, &SpeculationConfig::default());
        assert!(rep.tasks_killed > 0, "no kills at 20 stalls/h? {rep:?}");
        assert_eq!(rep.tasks_retried, rep.tasks_killed, "{rep:?}");
        assert_eq!(rep.tasks_abandoned, 0, "{rep:?}");
        assert!(r.duration_s.is_finite() && r.duration_s > 0.0);
        assert_eq!(r.stages.len(), 3);
        // Faults cost time versus the clean run.
        let mut clean = Cluster::ec2_emulated(12, 16, 5000.0);
        let (rc, _) = run_job_speculative(&mut clean, &tpcds::query(65), 77, &SpeculationConfig::default());
        assert!(r.duration_s > rc.duration_s, "{} !> {}", r.duration_s, rc.duration_s);
    }

    #[test]
    fn speculative_run_is_deterministic() {
        let run = |seed| {
            let mut c = Cluster::ec2_emulated(6, 8, 1000.0);
            let schedule = FaultSchedule::generate(&stall_config(10.0, 20.0), 6, 3600.0, seed);
            c.set_fault_schedule(schedule);
            run_job_speculative(&mut c, &tpcds::query(65), seed, &SpeculationConfig::default())
        };
        let (ra, pa) = run(5);
        let (rb, pb) = run(5);
        assert_eq!(ra, rb);
        assert_eq!(pa, pb);
        let (rc, _) = run(6);
        assert_ne!(ra.duration_s, rc.duration_s);
    }

    #[test]
    fn speculation_rescues_slow_compute_tasks() {
        // High task-time variance: some tasks sample far beyond the
        // median, so copies win races and cut the stage wall.
        let mut slow_stage = StageSpec::new("spread", 64, 20.0, 0.0);
        slow_stage.task_cv = 1.0;
        let job = JobSpec::new("spready", vec![slow_stage]);
        let with = {
            let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
            run_job_speculative(&mut c, &job, 11, &SpeculationConfig::default())
        };
        let without = {
            let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
            let cfg = SpeculationConfig {
                multiplier: f64::INFINITY,
                ..SpeculationConfig::default()
            };
            run_job_speculative(&mut c, &job, 11, &cfg)
        };
        assert!(with.1.speculative_copies > 0, "{:?}", with.1);
        assert!(with.1.speculative_wins > 0, "{:?}", with.1);
        assert_eq!(without.1.speculative_copies, 0);
        assert!(
            with.0.duration_s < without.0.duration_s,
            "speculation did not help: {} vs {}",
            with.0.duration_s,
            without.0.duration_s
        );
    }

    #[test]
    fn max_attempts_abandons_doomed_tasks() {
        // One node that stalls every 5 seconds: a 30-second task can
        // never fit between stalls, and with nowhere else to go every
        // retry dies too.
        let episodes: Vec<FaultEpisode> = (1..=400)
            .map(|k| FaultEpisode {
                node: 0,
                start_s: 5.0 * k as f64,
                end_s: 5.0 * k as f64 + 1.0,
                kind: FaultKind::VmStall,
                rate_factor: 0.0,
            })
            .collect();
        let mut c = Cluster::ec2_emulated(1, 4, 5000.0);
        c.set_fault_schedule(FaultSchedule::from_episodes(1, 10_000.0, episodes));
        let job = JobSpec::new("doomed", vec![StageSpec::new("s", 8, 30.0, 0.0)]);
        let (_, rep) = run_job_speculative(&mut c, &job, 1, &SpeculationConfig::default());
        assert_eq!(rep.tasks_abandoned, 8, "{rep:?}");
        assert_eq!(rep.tasks_killed, 8 * 4, "{rep:?}");
        assert_eq!(rep.tasks_retried, 8 * 3, "{rep:?}");
    }

    #[test]
    fn token_bucket_straggler_is_not_cured_by_speculation() {
        // 100 Gbit left to ship, buckets down to 5 Gbit, 15 s to detect.
        let cure = token_bucket_straggler_cure(100.0, 5.0, 15.0);
        // The drained copy does not beat the straggler...
        assert!(!cure.cured, "{cure:?}");
        assert!(
            cure.speculative_s > 0.95 * cure.straggler_s,
            "copy somehow helped: {cure:?}"
        );
        // ...but a fresh-budget replacement would have, by a lot.
        assert!(cure.fresh_cures, "{cure:?}");
        assert!(cure.fresh_s < 0.5 * cure.straggler_s, "{cure:?}");
        // Sanity on the baseline: ~(100-5) Gbit at ~1 Gbps sustained.
        assert!(
            cure.straggler_s > 60.0 && cure.straggler_s < 120.0,
            "{cure:?}"
        );
    }

    #[test]
    fn straggler_cure_is_deterministic() {
        let a = token_bucket_straggler_cure(100.0, 5.0, 15.0);
        let b = token_bucket_straggler_cure(100.0, 5.0, 15.0);
        assert_eq!(a, b);
    }
}
