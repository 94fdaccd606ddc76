//! Simulated clusters: a fabric of worker nodes with executor cores.

use clouds::CloudProfile;
use netsim::cpu::CpuCredits;
use netsim::fabric::{CrossTraffic, Fabric, FlowId, FlowRange, FlowSpec};
use netsim::faults::FaultSchedule;
use netsim::shaper::{Shaper, TokenBucket};
use netsim::units::{gbit, gbps};
use topo::Wiring;

/// A simulated Spark cluster.
///
/// Generic over the node shaper type: use `Cluster<TokenBucket>` when
/// you need to read or preset per-node budgets (Figures 15–19), or
/// `Cluster<Box<dyn Shaper + Send>>` for heterogeneous/provider-built
/// clusters.
pub struct Cluster<S> {
    fabric: Fabric<S>,
    cores_per_node: u32,
    ingress_cap_bps: f64,
    /// Optional per-node CPU-credit state (burstable instances). When
    /// present, compute phases stretch once credits deplete — the CPU
    /// analogue of the network token bucket (Section 4.2's closing
    /// remark, after Wang et al.).
    cpu_credits: Option<Vec<CpuCredits>>,
    /// Optional multi-tenant cross traffic injected into every step.
    cross_traffic: Option<CrossTraffic>,
    /// Optional datacenter wiring: node placement on a multi-tier
    /// topology and per-link capacities. `None` and a flat wiring are
    /// bit-identical (the flat-equivalence contract, DESIGN.md §12).
    wiring: Option<Wiring>,
}

impl<S: Shaper> Cluster<S> {
    /// Build a cluster from per-node shapers. `ingress_cap_bps` models
    /// the receive-side line rate (typically the NIC rate).
    pub fn from_shapers(
        shapers: Vec<S>,
        ingress_cap_bps: f64,
        cores_per_node: u32,
    ) -> Self {
        assert!(!shapers.is_empty(), "cluster needs at least one node");
        assert!(cores_per_node >= 1, "need at least one core per node");
        let mut fabric = Fabric::new();
        for s in shapers {
            fabric.add_node(s, ingress_cap_bps);
        }
        Cluster {
            fabric,
            cores_per_node,
            ingress_cap_bps,
            cpu_credits: None,
            cross_traffic: None,
            wiring: None,
        }
    }

    /// Attach noisy-neighbour cross traffic: random flows contend with
    /// the workload's shuffles inside the same max-min allocation.
    pub fn with_cross_traffic(mut self, traffic: CrossTraffic) -> Self {
        self.cross_traffic = Some(traffic);
        self
    }

    /// Place the cluster on a datacenter topology: installs the
    /// topology's per-link capacities on the fabric and routes every
    /// subsequent shuffle flow over its ECMP paths. Must be called
    /// before any flow starts (capacity installation requires an idle
    /// fabric). A flat wiring installs nothing and leaves every flow
    /// unrouted — bit-identical to a cluster that never had a wiring.
    pub fn set_wiring(&mut self, wiring: Wiring) {
        assert_eq!(
            wiring.endpoints(),
            self.nodes(),
            "wiring must place exactly the cluster's nodes"
        );
        wiring.install(&mut self.fabric);
        self.wiring = Some(wiring);
    }

    /// The attached wiring, if the cluster sits on a topology.
    pub fn wiring(&self) -> Option<&Wiring> {
        self.wiring.as_ref()
    }

    /// Start a batch of flows between workers in one admission call,
    /// routed through the wiring's topology when one is attached
    /// (ECMP-spread by the flow ids the fabric assigns), or
    /// endpoint-constrained only when not. Returns the batch's
    /// contiguous id range.
    pub fn start_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) -> FlowRange {
        match &self.wiring {
            Some(w) => w.start_flows(&mut self.fabric, specs),
            None => self.fabric.start_flows(specs, |_, _, _| {}),
        }
    }

    /// Start one flow between two workers: [`Cluster::start_flows`]
    /// with a batch of one.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.start_flows([spec]).start()
    }

    /// Attach a fault schedule to the underlying fabric: stalled nodes
    /// neither send nor receive, degraded nodes run at a reduced rate,
    /// and [`crate::speculate::run_job_speculative`] kills and retries
    /// the tasks of stalled nodes.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.fabric.set_fault_schedule(schedule);
    }

    /// The fabric's fault schedule, if one is attached.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.fabric.fault_schedule()
    }

    /// Advance the cluster by `dt`: inject cross traffic (if any) and
    /// step the fabric. Returns completed flows (the engine ignores
    /// completions it did not start).
    pub fn step(&mut self, dt: f64) -> Vec<FlowId> {
        if let Some(ct) = &mut self.cross_traffic {
            ct.inject(&mut self.fabric, dt);
        }
        self.fabric.step(dt)
    }

    /// Advance the cluster by up to `max_steps` ticks of `dt`,
    /// appending completed flows to `completed` in step order. Returns
    /// the number of steps taken.
    ///
    /// Without cross traffic this forwards straight to
    /// [`Fabric::advance`] — the event-driven engine's batched entry
    /// point. With cross traffic every tick must inject flows, so the
    /// per-step loop is kept; it stops after any step that reports a
    /// completion so batched callers can re-check which flows they are
    /// still waiting for before continuing.
    pub fn advance(&mut self, dt: f64, max_steps: u64, completed: &mut Vec<FlowId>) -> u64 {
        if self.cross_traffic.is_none() {
            return self.fabric.advance(dt, max_steps, completed);
        }
        let mut taken = 0u64;
        while taken < max_steps {
            let done = self.step(dt);
            taken += 1;
            if !done.is_empty() {
                completed.extend_from_slice(&done);
                break;
            }
        }
        taken
    }

    /// Idle the cluster for `duration` seconds in steps of `dt`
    /// (token refill; cross traffic keeps flowing, unlike
    /// [`Fabric::rest`] which requires an empty fabric).
    pub fn rest(&mut self, duration: f64, dt: f64) {
        if self.cross_traffic.is_none() && self.fabric.active_flows() == 0 {
            // Nothing contends: every step would be an idle fabric step
            // (each shaper granted exactly 0.0, totals unchanged), which
            // is precisely what Fabric::rest's closed-form shaper rests
            // reproduce bit-for-bit — without the per-tick loop.
            self.fabric.rest(duration, dt);
            return;
        }
        let steps = (duration / dt).round().max(0.0) as u64;
        for _ in 0..steps {
            self.step(dt);
        }
    }

    /// Attach per-node CPU-credit state (one entry per node).
    pub fn with_cpu_credits(mut self, credits: Vec<CpuCredits>) -> Self {
        assert_eq!(
            credits.len(),
            self.nodes(),
            "one CPU-credit state per node"
        );
        self.cpu_credits = Some(credits);
        self
    }

    /// Per-node CPU-credit state, if burstable.
    pub fn cpu_credits(&self) -> Option<&[CpuCredits]> {
        self.cpu_credits.as_deref()
    }

    /// Mutable CPU-credit access (the engine drives this).
    pub fn cpu_credits_mut(&mut self) -> Option<&mut Vec<CpuCredits>> {
        self.cpu_credits.as_mut()
    }

    /// Number of worker nodes.
    pub fn nodes(&self) -> usize {
        self.fabric.node_count()
    }

    /// Executor cores per node.
    pub fn cores_per_node(&self) -> u32 {
        self.cores_per_node
    }

    /// Total task slots.
    pub fn total_slots(&self) -> usize {
        self.nodes() * self.cores_per_node as usize
    }

    /// Ingress line rate.
    pub fn ingress_cap_bps(&self) -> f64 {
        self.ingress_cap_bps
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric<S> {
        &self.fabric
    }

    /// Mutable fabric access (the engine drives this).
    pub fn fabric_mut(&mut self) -> &mut Fabric<S> {
        &mut self.fabric
    }

    /// Reset all node shapers, CPU credits, and the clock (fresh VMs,
    /// full budgets).
    pub fn reset(&mut self) {
        self.fabric.reset();
        if let Some(credits) = &mut self.cpu_credits {
            for c in credits {
                c.reset();
            }
        }
    }
}

impl Cluster<TokenBucket> {
    /// The paper's Table 4 setup: `n` nodes emulating the c5.xlarge
    /// token-bucket policy (10 Gbps peak, 1 Gbps sustained) with the
    /// given initial per-node budget in Gbit — the knob varied in
    /// Figures 15–19.
    ///
    /// ```
    /// use bigdata::workloads::tpcds;
    /// use bigdata::{run_job, Cluster};
    ///
    /// let mut full = Cluster::ec2_emulated(12, 16, 5000.0);
    /// let fast = run_job(&mut full, &tpcds::query(65), 1).duration_s;
    /// let mut empty = Cluster::ec2_emulated(12, 16, 10.0);
    /// let slow = run_job(&mut empty, &tpcds::query(65), 1).duration_s;
    /// assert!(slow > 1.5 * fast); // Figure 17's budget sensitivity
    /// ```
    pub fn ec2_emulated(n: usize, cores_per_node: u32, budget_gbit: f64) -> Self {
        let shapers: Vec<TokenBucket> = (0..n)
            .map(|_| {
                TokenBucket::new(
                    gbit(budget_gbit),
                    gbit(5000.0_f64.max(budget_gbit)),
                    gbps(10.0),
                    gbps(1.0),
                    gbps(1.0),
                )
            })
            .collect();
        Cluster::from_shapers(shapers, gbps(10.0), cores_per_node)
    }

    /// Set every node's current budget (Gbit).
    pub fn set_all_budgets_gbit(&mut self, budget_gbit: f64) {
        for i in 0..self.nodes() {
            self.fabric
                .node_shaper_mut(i)
                .set_budget_bits(gbit(budget_gbit));
        }
    }

    /// Current budgets per node, in Gbit.
    pub fn budgets_gbit(&self) -> Vec<f64> {
        (0..self.nodes())
            .map(|i| self.fabric.node_shaper(i).budget_bits() / 1e9)
            .collect()
    }
}

impl Cluster<Box<dyn Shaper + Send>> {
    /// Build a cluster of `n` VMs instantiated from a cloud profile
    /// (each VM gets an incarnation-specific shaper).
    pub fn from_profile(profile: &CloudProfile, n: usize, cores_per_node: u32, seed: u64) -> Self {
        let mut shapers = Vec::with_capacity(n);
        let mut line = gbps(10.0);
        for i in 0..n {
            let vm = profile.instantiate(seed.wrapping_add(i as u64 * 7919));
            line = vm.line_rate_bps;
            shapers.push(vm.shaper);
        }
        Cluster::from_shapers(shapers, line, cores_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec2_emulated_shape() {
        let c = Cluster::ec2_emulated(12, 16, 5000.0);
        assert_eq!(c.nodes(), 12);
        assert_eq!(c.total_slots(), 192);
        assert_eq!(c.budgets_gbit(), vec![5000.0; 12]);
    }

    #[test]
    fn budgets_can_be_preset() {
        let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
        c.set_all_budgets_gbit(100.0);
        assert_eq!(c.budgets_gbit(), vec![100.0; 4]);
        c.reset();
        assert_eq!(c.budgets_gbit(), vec![5000.0; 4]);
    }

    #[test]
    fn profile_cluster_builds() {
        let p = clouds::gce::n_core(8);
        let c = Cluster::from_profile(&p, 6, 8, 42);
        assert_eq!(c.nodes(), 6);
        assert!((c.ingress_cap_bps() - 16e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty_cluster() {
        let v: Vec<TokenBucket> = vec![];
        Cluster::from_shapers(v, 1e9, 1);
    }

    #[test]
    fn cross_traffic_slows_and_destabilizes_shuffles() {
        use crate::engine::run_job;
        use crate::job::{JobSpec, StageSpec};
        let job = JobSpec::new(
            "xfer",
            vec![StageSpec::new("s", 32, 2.0, 300e9)], // 75 Gbit/node
        );
        let quiet: Vec<f64> = (0..4)
            .map(|rep| {
                let mut c = Cluster::ec2_emulated(4, 8, 5000.0);
                run_job(&mut c, &job, rep).duration_s
            })
            .collect();
        let noisy: Vec<f64> = (0..4)
            .map(|rep| {
                // 1.5/s × 8 Gbit = 12 Gbps of neighbour load on a
                // 4×10 Gbps fabric: heavy but stable.
                let ct = CrossTraffic::new(1.5, 8e9, gbps(4.0), 100 + rep);
                let mut c = Cluster::ec2_emulated(4, 8, 5000.0).with_cross_traffic(ct);
                run_job(&mut c, &job, rep).duration_s
            })
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&noisy) > 1.1 * mean(&quiet),
            "quiet {quiet:?} noisy {noisy:?}"
        );
    }
}
