//! The Spark-like execution engine.
//!
//! Stage execution alternates compute waves (network idle — token
//! buckets refill) and all-to-all shuffles (network saturated — budgets
//! drain). Because both phases advance the *same* fabric clock, the
//! engine reproduces the paper's central mechanism: a job's network
//! history changes the conditions the next job (or the next stage)
//! runs under.

use crate::cluster::Cluster;
use crate::job::{JobSpec, StageSpec};
use netsim::fabric::{FlowId, FlowRange, FlowSpec};
use netsim::rng::SimRng;
use netsim::shaper::Shaper;

/// One stage's all-to-all shuffle flows in src-major order — the order
/// the fabric numbers them in, and so the order the wiring draws their
/// paths in. Node `src` splits its weighted share
/// `shuffle_bits · w_src / Σw` of the stage output evenly over the
/// other `n − 1` nodes; the hot node weighs `1 + skew`, every other
/// node 1. Exact-sized, so admission sizes the flow table once.
pub(crate) struct AllToAll {
    per_dst: Vec<f64>,
    src: usize,
    dst: usize,
    left: usize,
}

impl AllToAll {
    /// The shuffle of `shuffle_bits` over `n >= 2` nodes.
    pub(crate) fn new(n: usize, shuffle_bits: f64, hot_node: Option<usize>, skew: f64) -> Self {
        let mut per_dst: Vec<f64> = (0..n)
            .map(|i| if Some(i) == hot_node { 1.0 + skew } else { 1.0 })
            .collect();
        let wsum: f64 = per_dst.iter().sum();
        for w in &mut per_dst {
            *w = shuffle_bits * *w / wsum / (n - 1) as f64;
        }
        AllToAll {
            per_dst,
            src: 0,
            dst: 1,
            left: n * (n - 1),
        }
    }
}

impl Iterator for AllToAll {
    type Item = FlowSpec;

    fn next(&mut self) -> Option<FlowSpec> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let spec = FlowSpec::new(self.src, self.dst, self.per_dst[self.src]);
        self.dst += 1;
        if self.dst == self.src {
            self.dst += 1;
        }
        if self.dst == self.per_dst.len() {
            // The next source is at least 1, so destination 0 is never
            // a loopback.
            self.src += 1;
            self.dst = 0;
        }
        Some(spec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for AllToAll {}

/// Engine time-stepping configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Fluid step during shuffles, seconds.
    pub shuffle_step_s: f64,
    /// Fluid step during compute (network idle), seconds.
    pub compute_step_s: f64,
    /// Trace sampling interval, seconds (traced runs only).
    pub trace_interval_s: f64,
    /// Lognormal sigma of a per-run *environment factor* multiplying
    /// all compute times: run-to-run conditions shared by every task
    /// (CPU contention, memory bandwidth, JIT state) as opposed to the
    /// per-task `task_cv`. 0 disables it. The paper's directly-on-cloud
    /// runs (Figure 13) show ~5-8% run-to-run spread from such sources.
    pub compute_jitter_sigma: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shuffle_step_s: 0.25,
            compute_step_s: 1.0,
            trace_interval_s: 2.0,
            compute_jitter_sigma: 0.0,
        }
    }
}

/// Result of one executed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageResult {
    /// Stage label.
    pub name: String,
    /// Compute-phase duration, seconds.
    pub compute_s: f64,
    /// Shuffle-phase duration, seconds (0 when no shuffle).
    pub shuffle_s: f64,
    /// Shuffle volume, bits.
    pub shuffle_bits: f64,
}

/// Result of one executed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job label.
    pub name: String,
    /// End-to-end duration, seconds.
    pub duration_s: f64,
    /// Fabric time when the job started.
    pub started_at_s: f64,
    /// Per-stage breakdown.
    pub stages: Vec<StageResult>,
    /// Bits each node transmitted during this job.
    pub node_tx_bits: Vec<f64>,
    /// The skew-designated hot node, if any.
    pub hot_node: Option<usize>,
}

impl JobResult {
    /// Total shuffle time across stages.
    pub fn total_shuffle_s(&self) -> f64 {
        self.stages.iter().map(|s| s.shuffle_s).sum()
    }

    /// Total compute time across stages.
    pub fn total_compute_s(&self) -> f64 {
        self.stages.iter().map(|s| s.compute_s).sum()
    }
}

/// One sampled point of a node's utilization trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Fabric time, seconds.
    pub t: f64,
    /// Mean egress rate over the sampling interval, bits/s.
    pub tx_rate_bps: f64,
    /// Token budget at the sample instant, if the shaper has one.
    pub budget_bits: Option<f64>,
}

/// Utilization/budget trace of one node (Figures 15 and 18).
#[derive(Debug, Clone, Default)]
pub struct NodeTrace {
    /// Node index.
    pub node: usize,
    /// Time-ordered samples.
    pub samples: Vec<TraceSample>,
}

/// A traced run's per-node sampler.
pub(crate) struct Recorder {
    interval_s: f64,
    acc_bits: Vec<f64>,
    acc_time: f64,
    traces: Vec<NodeTrace>,
}

impl Recorder {
    fn new(n: usize, interval_s: f64) -> Self {
        Recorder {
            interval_s,
            acc_bits: vec![0.0; n],
            acc_time: 0.0,
            traces: (0..n)
                .map(|node| NodeTrace {
                    node,
                    samples: Vec::new(),
                })
                .collect(),
        }
    }

    fn observe<S: Shaper>(&mut self, cluster: &Cluster<S>, dt: f64) {
        for (i, acc) in self.acc_bits.iter_mut().enumerate() {
            *acc += cluster.fabric().node_last_tx_bits(i);
        }
        self.acc_time += dt;
        if self.acc_time >= self.interval_s {
            let t = cluster.fabric().now();
            for (i, tr) in self.traces.iter_mut().enumerate() {
                tr.samples.push(TraceSample {
                    t,
                    tx_rate_bps: self.acc_bits[i] / self.acc_time,
                    budget_bits: cluster.fabric().node_shaper(i).token_budget_bits(),
                });
                self.acc_bits[i] = 0.0;
            }
            self.acc_time = 0.0;
        }
    }
}

/// Sample a lognormal task duration with mean `m` and CV `cv`.
pub(crate) fn task_time(rng: &mut SimRng, m: f64, cv: f64) -> f64 {
    if cv <= 0.0 {
        return m;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let mu = m.ln() - sigma2 / 2.0;
    rng.lognormal(mu, sigma2.sqrt())
}

/// The hot node of a skewed job's shuffles: the fixed one, or one
/// drawn from the run's RNG; `None` without skew.
pub(crate) fn pick_hot_node(
    skew: f64,
    fixed: Option<usize>,
    n: usize,
    rng: &mut SimRng,
) -> Option<usize> {
    (skew > 0.0).then(|| match fixed {
        Some(h) => {
            assert!(h < n, "hot node out of range");
            h
        }
        None => rng.index(n),
    })
}

/// Every node's transmitted total so far.
pub(crate) fn tx_totals<S: Shaper>(cluster: &Cluster<S>) -> Vec<f64> {
    (0..cluster.nodes())
        .map(|i| cluster.fabric().node_total_tx_bits(i))
        .collect()
}

/// Bits each node transmitted since its totals were `before`.
pub(crate) fn tx_since<S: Shaper>(cluster: &Cluster<S>, before: &[f64]) -> Vec<f64> {
    (0..cluster.nodes())
        .map(|i| cluster.fabric().node_total_tx_bits(i) - before[i])
        .collect()
}

/// One pipeline job's run: the stage-phase core shared by the wave
/// engine and [`crate::speculate::run_job_speculative`], which differ
/// only in how they schedule a stage's tasks. Given a stage's compute
/// wall, [`JobRun::stage`] stretches it by CPU credits, idles the
/// fabric through it, admits the shuffle, waits on it and accrues
/// credits meanwhile.
pub(crate) struct JobRun<'r> {
    cfg: EngineConfig,
    started_at_s: f64,
    tx_before: Vec<f64>,
    hot_node: Option<usize>,
    skew: f64,
    /// With a recorder every `advance` call takes one step and is
    /// observed; without one, calls batch.
    recorder: Option<&'r mut Recorder>,
    /// Completions of the current `advance` call (reused).
    done: Vec<FlowId>,
    stages: Vec<StageResult>,
}

impl<'r> JobRun<'r> {
    /// Start `job` now; draws the hot node from `rng` when skewed.
    pub(crate) fn start<S: Shaper>(
        cluster: &Cluster<S>,
        job: &JobSpec,
        rng: &mut SimRng,
        cfg: &EngineConfig,
        recorder: Option<&'r mut Recorder>,
    ) -> Self {
        JobRun {
            cfg: *cfg,
            started_at_s: cluster.fabric().now(),
            tx_before: tx_totals(cluster),
            hot_node: pick_hot_node(job.skew, job.hot_node, cluster.nodes(), rng),
            skew: job.skew,
            recorder,
            done: Vec::new(),
            stages: Vec::with_capacity(job.stages.len()),
        }
    }

    /// Run one stage whose tasks take `compute_s` of wall time.
    pub(crate) fn stage<S: Shaper>(
        &mut self,
        cluster: &mut Cluster<S>,
        stage: &StageSpec,
        mut compute_s: f64,
    ) {
        // Burstable instances: CPU credits stretch the compute phase
        // once depleted; the stage waits for the slowest node, and the
        // faster nodes idle-earn credits meanwhile.
        if let Some(credits) = cluster.cpu_credits_mut() {
            let walls: Vec<f64> = credits.iter_mut().map(|c| c.run(compute_s)).collect();
            let stage_wall = walls.iter().cloned().fold(0.0, f64::max);
            for (c, w) in credits.iter_mut().zip(&walls) {
                c.idle(stage_wall - w);
            }
            compute_s = stage_wall;
        }
        self.idle_through(cluster, compute_s);

        // Shuffle phase: all-to-all exchange of the stage output.
        let n = cluster.nodes();
        let mut shuffle_s = 0.0;
        if stage.shuffle_bits > 0.0 && n > 1 {
            let start = cluster.fabric().now();
            let shuffle = AllToAll::new(n, stage.shuffle_bits, self.hot_node, self.skew);
            let span = cluster.start_flows(shuffle);
            self.drain(cluster, span);
            shuffle_s = cluster.fabric().now() - start;
            // CPUs are (mostly) idle while shuffling: credits accrue.
            if let Some(credits) = cluster.cpu_credits_mut() {
                for c in credits {
                    c.idle(shuffle_s);
                }
            }
        }

        self.stages.push(StageResult {
            name: stage.name.clone(),
            compute_s,
            shuffle_s,
            shuffle_bits: stage.shuffle_bits,
        });
    }

    /// The job's result, as of now.
    pub(crate) fn finish<S: Shaper>(self, cluster: &Cluster<S>, job: &JobSpec) -> JobResult {
        JobResult {
            name: job.name.clone(),
            duration_s: cluster.fabric().now() - self.started_at_s,
            started_at_s: self.started_at_s,
            stages: self.stages,
            node_tx_bits: tx_since(cluster, &self.tx_before),
            hot_node: self.hot_node,
        }
    }

    /// Advance up to `max_steps` ticks of `dt` into `self.done`.
    fn advance<S: Shaper>(&mut self, cluster: &mut Cluster<S>, dt: f64, max_steps: u64) -> u64 {
        match self.recorder.as_deref_mut() {
            None => cluster.advance(dt, max_steps, &mut self.done),
            Some(rec) => {
                let taken = cluster.advance(dt, max_steps.min(1), &mut self.done);
                rec.observe(cluster, dt);
                taken
            }
        }
    }

    /// Idle the fabric through a compute phase of `compute_s` in ticks
    /// of the compute step. The tick sequence is the `left -= dt`
    /// recurrence's: it is floating point, so it is replayed literally
    /// rather than closed-formed, giving the full ticks and the final
    /// partial one (`left.min(step) == left` on the last tick makes
    /// `left -= dt` land on exactly 0.0).
    fn idle_through<S: Shaper>(&mut self, cluster: &mut Cluster<S>, compute_s: f64) {
        let step = self.cfg.compute_step_s;
        let mut left = compute_s;
        let mut full = 0u64;
        let mut partial = None;
        while left > 0.0 {
            let dt = left.min(step);
            if dt < step {
                partial = Some(dt);
            } else {
                full += 1;
            }
            left -= dt;
        }
        let mut taken = 0u64;
        while taken < full {
            taken += self.advance(cluster, step, full - taken);
        }
        if let Some(dt) = partial {
            self.advance(cluster, dt, 1);
        }
        // Compute phases wait on no flow: completions here are cross
        // traffic.
        self.done.clear();
    }

    /// Wait for a shuffle admitted as one batch. Its flows take one
    /// contiguous id range, so waiting on them is a count: every
    /// completed id inside the range retires one, whatever the order
    /// (one batched `advance` concatenates several windows, so its
    /// completions are not globally id-sorted); ids outside the range
    /// are cross traffic. A 24 h cap guarantees termination even on a
    /// zero-rate link.
    fn drain<S: Shaper>(&mut self, cluster: &mut Cluster<S>, span: FlowRange) {
        let step = self.cfg.shuffle_step_s;
        let max_steps = (86_400.0 / step) as u64;
        let mut pending = span.len();
        let mut steps = 0u64;
        while pending > 0 && steps < max_steps {
            self.done.clear();
            steps += self.advance(cluster, step, max_steps - steps);
            pending -= self.done.iter().filter(|&&id| span.contains(id)).count();
        }
        assert!(
            pending == 0,
            "shuffle did not complete within 24 simulated hours"
        );
    }
}

fn execute<S: Shaper>(
    cluster: &mut Cluster<S>,
    job: &JobSpec,
    seed: u64,
    cfg: &EngineConfig,
    recorder: Option<&mut Recorder>,
) -> JobResult {
    let slots = cluster.total_slots();
    let mut rng = SimRng::new(seed);
    let mut run = JobRun::start(cluster, job, &mut rng, cfg, recorder);

    // Per-run environment factor (see EngineConfig::compute_jitter_sigma).
    let env_factor = if cfg.compute_jitter_sigma > 0.0 {
        rng.lognormal(0.0, cfg.compute_jitter_sigma)
    } else {
        1.0
    };

    for stage in &job.stages {
        // Compute phase: waves of tasks over the executor slots.
        let mut compute_s = 0.0;
        let mut remaining = stage.tasks;
        // Same draws as `task_time(&mut rng, m, cv)` per task, with the
        // per-draw-constant lognormal parameters hoisted out of the
        // wave (identical operands and operations, so identical bits).
        let m = stage.task_compute_s * env_factor;
        let (mu, sigma) = if stage.task_cv > 0.0 {
            let sigma2 = (1.0 + stage.task_cv * stage.task_cv).ln();
            (m.ln() - sigma2 / 2.0, sigma2.sqrt())
        } else {
            (0.0, 0.0)
        };
        while remaining > 0 {
            let wave = remaining.min(slots);
            let wave_time = (0..wave)
                .map(|_| {
                    if stage.task_cv <= 0.0 {
                        m
                    } else {
                        rng.lognormal(mu, sigma)
                    }
                })
                .fold(0.0, f64::max);
            compute_s += wave_time;
            remaining -= wave;
        }
        run.stage(cluster, stage, compute_s);
    }
    run.finish(cluster, job)
}

/// Run a job with default stepping.
pub fn run_job<S: Shaper>(cluster: &mut Cluster<S>, job: &JobSpec, seed: u64) -> JobResult {
    execute(cluster, job, seed, &EngineConfig::default(), None)
}

/// Run a job with explicit stepping configuration.
pub fn run_job_cfg<S: Shaper>(
    cluster: &mut Cluster<S>,
    job: &JobSpec,
    seed: u64,
    cfg: &EngineConfig,
) -> JobResult {
    execute(cluster, job, seed, cfg, None)
}

/// Run a job while recording per-node utilization/budget traces.
pub fn run_job_traced<S: Shaper>(
    cluster: &mut Cluster<S>,
    job: &JobSpec,
    seed: u64,
    cfg: &EngineConfig,
) -> (JobResult, Vec<NodeTrace>) {
    let mut rec = Recorder::new(cluster.nodes(), cfg.trace_interval_s);
    let result = execute(cluster, job, seed, cfg, Some(&mut rec));
    (result, rec.traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::StageSpec;
    use netsim::units::{gbit, gbps};

    fn small_job(shuffle_gbit: f64) -> JobSpec {
        JobSpec::new(
            "test",
            vec![
                StageSpec::new("map", 32, 10.0, gbit(shuffle_gbit)),
                StageSpec::new("reduce", 16, 5.0, 0.0),
            ],
        )
    }

    #[test]
    fn compute_only_job_takes_compute_time() {
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        let job = JobSpec::new("cpu", vec![StageSpec::new("s", 32, 10.0, 0.0)]);
        let r = run_job(&mut c, &job, 1);
        // One wave of 32 tasks over 32 slots, mean 10 s, cv 10%:
        // max of 32 lognormals ≈ 12-13 s.
        assert!(r.duration_s > 10.0 && r.duration_s < 16.0, "{}", r.duration_s);
        assert_eq!(r.total_shuffle_s(), 0.0);
        assert!(r.node_tx_bits.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn multiple_waves_stack_up() {
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        let one = JobSpec::new("w1", vec![StageSpec::new("s", 32, 10.0, 0.0)]);
        let three = JobSpec::new("w3", vec![StageSpec::new("s", 96, 10.0, 0.0)]);
        let r1 = run_job(&mut c, &one, 5);
        c.reset();
        let r3 = run_job(&mut c, &three, 5);
        assert!(r3.duration_s > 2.5 * r1.duration_s);
    }

    #[test]
    fn shuffle_runs_at_high_rate_with_full_budget() {
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        let job = small_job(120.0); // 30 Gbit per node, 10 Gbit per pair
        let r = run_job(&mut c, &job, 2);
        let shuffle = r.stages[0].shuffle_s;
        // Each node sends 30 Gbit at up to 10 Gbps egress → ≥ 3 s.
        assert!(shuffle >= 3.0 && shuffle < 8.0, "shuffle {shuffle}");
    }

    #[test]
    fn empty_budget_slows_shuffle_tenfold() {
        let mut fast = Cluster::ec2_emulated(4, 8, 5000.0);
        let rf = run_job(&mut fast, &small_job(120.0), 3);
        let mut slow = Cluster::ec2_emulated(4, 8, 5000.0);
        slow.set_all_budgets_gbit(0.0);
        let rs = run_job(&mut slow, &small_job(120.0), 3);
        let (f, s) = (rf.stages[0].shuffle_s, rs.stages[0].shuffle_s);
        assert!(s > 5.0 * f, "fast {f} slow {s}");
        // Same compute (same seed).
        assert!((rf.total_compute_s() - rs.total_compute_s()).abs() < 1e-9);
    }

    #[test]
    fn budgets_deplete_during_shuffle_and_refill_during_compute() {
        let mut c = Cluster::ec2_emulated(4, 8, 100.0);
        let job = JobSpec::new(
            "drain",
            vec![
                StageSpec::new("s1", 32, 5.0, gbit(400.0)), // 100 Gbit/node
                StageSpec::new("cpu", 32, 60.0, 0.0),
            ],
        );
        let r = run_job(&mut c, &job, 4);
        // The shuffle (100 Gbit/node at ~10 Gbps) nets the budget down
        // to ~16 Gbit; the compute phase (wall ≈ 1.29 × 60 s) refills
        // ~77 Gbit.
        let budgets = c.budgets_gbit();
        for b in budgets {
            assert!(b > 70.0 && b < 110.0, "budget {b}");
        }
        assert!(r.stages[0].shuffle_s > 8.0);
    }

    #[test]
    fn skewed_job_loads_hot_node_more() {
        let mut c = Cluster::ec2_emulated(6, 8, 5000.0);
        let job = small_job(600.0).with_skew(0.5);
        let r = run_job(&mut c, &job, 7);
        let hot = r.hot_node.unwrap();
        let hot_bits = r.node_tx_bits[hot];
        let other_mean: f64 = r
            .node_tx_bits
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != hot)
            .map(|(_, b)| b)
            .sum::<f64>()
            / 5.0;
        assert!(hot_bits > 1.3 * other_mean, "hot {hot_bits} other {other_mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut c = Cluster::ec2_emulated(4, 8, 1000.0);
            run_job(&mut c, &small_job(200.0), seed)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).duration_s, run(10).duration_s);
    }

    #[test]
    fn traced_run_matches_untraced_and_produces_samples() {
        let cfg = EngineConfig::default();
        let mut c1 = Cluster::ec2_emulated(4, 8, 1000.0);
        let plain = run_job_cfg(&mut c1, &small_job(200.0), 11, &cfg);
        let mut c2 = Cluster::ec2_emulated(4, 8, 1000.0);
        let (traced, traces) = run_job_traced(&mut c2, &small_job(200.0), 11, &cfg);
        assert_eq!(plain, traced);
        assert_eq!(traces.len(), 4);
        for tr in &traces {
            assert!(!tr.samples.is_empty());
            // Budgets observable on a token-bucket cluster.
            assert!(tr.samples[0].budget_bits.is_some());
            // Some samples show network activity.
            assert!(tr.samples.iter().any(|s| s.tx_rate_bps > gbps(0.5)));
        }
    }

    #[test]
    fn cpu_credits_stretch_compute_once_depleted() {
        use netsim::cpu::CpuCredits;
        let job = JobSpec::new(
            "cpu-heavy",
            vec![StageSpec::new("s", 32, 300.0, 0.0)],
        );
        // Plain cluster: full speed.
        let mut plain = Cluster::ec2_emulated(4, 8, 5000.0);
        let base = run_job(&mut plain, &job, 21).duration_s;
        // Burstable cluster with a small credit balance: 2 vCPU model,
        // 30% baseline, 60 credits = 3600 credit-seconds.
        let credits: Vec<CpuCredits> = (0..4).map(|_| CpuCredits::new(2, 0.3, 60.0, 576.0)).collect();
        let mut burst = Cluster::ec2_emulated(4, 8, 5000.0).with_cpu_credits(credits);
        let slow = run_job(&mut burst, &job, 21).duration_s;
        // The ~390 s wave spends 390 × 1.4 = 546 credit-seconds — well
        // inside the 3600 balance, so it runs at full speed. A stage an
        // order of magnitude longer depletes the balance mid-wave:
        let long = JobSpec::new("long", vec![StageSpec::new("s", 32, 3000.0, 0.0)]);
        let mut plain = Cluster::ec2_emulated(4, 8, 5000.0);
        let base_long = run_job(&mut plain, &long, 22).duration_s;
        let credits: Vec<CpuCredits> = (0..4).map(|_| CpuCredits::new(2, 0.3, 60.0, 576.0)).collect();
        let mut burst = Cluster::ec2_emulated(4, 8, 5000.0).with_cpu_credits(credits);
        let slow_long = run_job(&mut burst, &long, 22).duration_s;
        assert!((slow - base).abs() / base < 0.01, "short stage unaffected");
        assert!(
            slow_long > 1.5 * base_long,
            "long stage throttled: {slow_long} vs {base_long}"
        );
    }

    #[test]
    fn cluster_reset_restores_cpu_credits() {
        use netsim::cpu::CpuCredits;
        let credits: Vec<CpuCredits> = (0..2).map(|_| CpuCredits::new(2, 0.3, 10.0, 100.0)).collect();
        let mut c = Cluster::ec2_emulated(2, 8, 5000.0).with_cpu_credits(credits);
        let job = JobSpec::new("j", vec![StageSpec::new("s", 16, 2000.0, 0.0)]);
        run_job(&mut c, &job, 23);
        assert!(c.cpu_credits().unwrap()[0].balance_credits() < 1.0);
        c.reset();
        assert!((c.cpu_credits().unwrap()[0].balance_credits() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn node_tx_accounting_sums_to_shuffle_volume() {
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        let job = small_job(120.0);
        let r = run_job(&mut c, &job, 13);
        let total: f64 = r.node_tx_bits.iter().sum();
        assert!((total - gbit(120.0)).abs() / gbit(120.0) < 0.01, "total {total}");
    }
}
