//! Multi-node fluid fabric with max-min fair bandwidth sharing.
//!
//! The `bigdata` crate runs simulated Spark clusters on this fabric:
//! every node owns an egress [`Shaper`] (e.g. its VM's token bucket) and
//! an ingress capacity; shuffle transfers become [`FlowSpec`]s. Each
//! fluid step computes the **max-min fair** allocation (progressive
//! filling / water-filling) subject to per-node egress and ingress caps
//! and per-flow rate limits, then lets each node's shaper admit the
//! allocated egress volume — so token-bucket depletion on *one* node
//! slows exactly the flows that cross it, which is how the paper's
//! stragglers arise (Figure 18).
//!
//! ## The stepping engine and its oracle
//!
//! Long campaigns (Figure 19's 600 s depletion sequences, multi-day
//! fleet sweeps) spend nearly all their time stepping, so the fabric
//! runs one **event-driven engine**, with the original loops kept
//! beside it as a bit-identical test oracle ([`StepPath`]):
//!
//! * the **general step** ([`Fabric::step`]) keeps every per-step
//!   buffer in per-fabric scratch storage (zero steady-state heap
//!   allocations), maintains per-node active-flow counts incrementally
//!   instead of rebuilding them every water-filling round, and caches
//!   the rate allocation keyed by its exact inputs: the flow-set epoch,
//!   each node's `rate_hint` × fault factor, each node's effective
//!   ingress cap, the per-link capacities, and the core capacity.
//!   Water-filling is a pure function of that signature (it never reads
//!   `remaining_bits`), so a bitwise unchanged signature means the
//!   previous allocation can be reused verbatim;
//! * **event windows** ([`Fabric::advance`]) generalize that signature
//!   cache from "check every step" to "prove a horizon": they
//!   min-reduce a [`NextEvent`] over per-node state (closed-form
//!   [`Shaper::hint_stable_steps`] crossings, the fault schedule's next
//!   transition, the flow-completion epoch, the caller's budget) and
//!   run the intervening steps in a kernel over the flow table's
//!   struct-of-arrays columns that skips the per-step signature gathers
//!   and demand passes entirely. Idle stretches batch through
//!   [`Shaper::rest`], and a window that cannot open falls back to one
//!   general step. The kernel executes the *identical* per-step
//!   floating-point recurrences (demand, transmit, scale, deliver,
//!   clock) on the same columns the general step uses, so it is bit-identical
//!   by construction — events only bound how long the pure *reads* may
//!   be skipped, they never replace arithmetic;
//! * the **reference loops** re-run water-filling from scratch with
//!   fresh buffers every step. No campaign runs them by default; they
//!   are the equivalence oracle, selected with
//!   [`Fabric::force_path`]`(StepPath::Reference)` or by setting the
//!   `FABRIC_SLOW_PATH` environment variable.
//!
//! The equivalence contract is pinned by `tests/prop_fabric_fast.rs`
//! (general step vs reference), `tests/prop_event_driven.rs` (event
//! windows vs reference, including adversarial event alignments) and
//! topo's routed-fabric property, and documented in DESIGN.md §9–10.

use crate::faults::FaultSchedule;
use crate::rng::SimRng;
use crate::shaper::Shaper;

/// Index of a node in the fabric.
pub type NodeId = usize;

/// Which stepping engine the fabric runs (see the module docs). Both
/// are bit-identical in every observable; they differ only in
/// wall-clock cost, which is what `benches/supp_fabric_speedup` and
/// `scripts/verify.sh` measure and cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPath {
    /// Event-driven engine (default): [`Fabric::advance`] jumps between
    /// provable events, falling back to the cached general step.
    Event,
    /// The original allocating loops, kept verbatim as the equivalence
    /// oracle. `FABRIC_SLOW_PATH=1` at construction.
    Reference,
}

/// The closed-form next-event bound for one kernel window: the number
/// of steps the event engine may take before any cached input *could*
/// change, and which source bound it. Built by min-reducing per-node
/// shaper crossings, the fault schedule's next transition, per-flow
/// completion horizons, and the caller's step budget. The bounds are
/// conservative (guard slack absorbs floating-point rounding), so the
/// kernel still detects actual completions per step exactly like the
/// per-step paths do — the horizon only proves what may be *skipped*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextEvent {
    /// Steps until the event horizon (0 = the window cannot open).
    pub steps: u64,
    /// What bounded the horizon.
    pub cause: EventCause,
}

/// What bounded an event window (see [`NextEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventCause {
    /// The caller's `max_steps` budget.
    Budget,
    /// A node's [`Shaper::hint_stable_steps`] crossing bound.
    HintCrossing(NodeId),
    /// The fault schedule's next episode edge.
    FaultTransition,
    /// A flow is near enough to completion that its per-step demand
    /// `min(rate·dt, remaining)` could stop being the constant
    /// `rate·dt`.
    Completion(FlowId),
}

/// Closed-form completion horizon for one flow: a number of steps over
/// which `min(rate*dt, remaining)` provably keeps the bit pattern of
/// the per-step demand `want` it has right now. Per-step delivery is
/// `want * scale` with `scale = granted/demand <= 1.0` bitwise, so each
/// step removes at most `want` bits and `remaining` stays strictly
/// above the next step's demand for at least
/// `(remaining/want) * (1 - 1e-6) - 2` steps; the relative `1e-6` and
/// the two absolute guard steps absorb the rounding of both the bound
/// and the delivery recurrence. A flow already below its full demand
/// (`remaining < rate*dt`, i.e. `want == remaining`) collapses to 0. A
/// zero-demand flow makes no progress and never bounds the horizon.
fn flow_completion_horizon(remaining: f64, want: f64) -> u64 {
    if want > 0.0 {
        (((remaining / want) * (1.0 - 1e-6)).floor() as u64).saturating_sub(2)
    } else {
        u64::MAX
    }
}

/// Opaque identifier of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

/// The ids of one batch admitted by [`Fabric::start_flows`]: ids come
/// from a monotone counter, so a batch takes a contiguous range, in the
/// order its specs were given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRange {
    start: u64,
    end: u64,
}

impl FlowRange {
    /// The batch's first id (for an empty batch, the id the next flow
    /// will receive).
    pub fn start(&self) -> FlowId {
        FlowId(self.start)
    }

    /// Number of flows in the batch.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the batch admitted no flow.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `id` belongs to the batch.
    pub fn contains(&self, id: FlowId) -> bool {
        (self.start..self.end).contains(&id.0)
    }

    /// The batch's ids in admission order.
    pub fn iter(&self) -> impl Iterator<Item = FlowId> {
        (self.start..self.end).map(FlowId)
    }
}

/// A requested transfer.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size in bits.
    pub bits: f64,
    /// Application-level rate cap in bits/s (`f64::INFINITY` if none).
    pub max_rate_bps: f64,
}

impl FlowSpec {
    /// An uncapped transfer of `bits` from `src` to `dst`.
    pub fn new(src: NodeId, dst: NodeId, bits: f64) -> Self {
        FlowSpec {
            src,
            dst,
            bits,
            max_rate_bps: f64::INFINITY,
        }
    }
}

/// Longest route the fabric stores inline. A fat-tree host-to-host path
/// crosses at most six directed links (host→ToR→fabric→spine→fabric→
/// ToR→host); eight leaves headroom for deeper zoo members without ever
/// putting a route on the heap.
pub const MAX_ROUTE_LINKS: usize = 8;

/// The directed links a routed flow crosses, in hop order, stored
/// inline so routed flow churn stays allocation-free (see
/// `tests/alloc_free.rs`). Link indexes refer to the capacity slots
/// installed by [`Fabric::set_link_caps`]; the empty route is a flat
/// flow constrained only by endpoints and the optional core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRoute {
    links: [u32; MAX_ROUTE_LINKS],
    len: u8,
}

impl Default for LinkRoute {
    fn default() -> Self {
        LinkRoute::EMPTY
    }
}

impl LinkRoute {
    /// The flat route: no in-network links crossed.
    pub const EMPTY: LinkRoute = LinkRoute {
        links: [0; MAX_ROUTE_LINKS],
        len: 0,
    };

    /// Build a route from directed link slots in hop order. Panics if
    /// the path is longer than [`MAX_ROUTE_LINKS`].
    pub fn new(links: &[u32]) -> Self {
        assert!(
            links.len() <= MAX_ROUTE_LINKS,
            "route longer than MAX_ROUTE_LINKS"
        );
        let mut r = LinkRoute::EMPTY;
        r.links[..links.len()].copy_from_slice(links);
        r.len = links.len() as u8;
        r
    }

    /// The crossed link slots, in hop order.
    pub fn links(&self) -> &[u32] {
        &self.links[..self.len as usize]
    }

    /// Whether this is the flat (linkless) route.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The in-flight flows as struct-of-arrays columns sorted by flow id:
/// index `i` of every column is the same flow. Ids come from a monotone
/// counter, so admission ([`Fabric::start_flows`]) appends a whole
/// batch in place, lookups are binary searches over `ids`, and every
/// pass walks the columns in id order — the order every floating-point
/// accumulation downstream relies on. Water-filling, the general step
/// and the event kernel all run on the columns in place. Completions
/// leave in one [`Fabric::retire`] pass per step or event window; the
/// per-index [`FlowMap::remove_at`] (one shift per column) is kept for
/// the reference loops only.
#[derive(Debug, Default)]
struct FlowMap {
    ids: Vec<FlowId>,
    specs: Vec<FlowSpec>,
    routes: Vec<LinkRoute>,
    /// Bits still to deliver.
    remaining: Vec<f64>,
    /// Rate delivered in the last step, bits/s.
    last_rate: Vec<f64>,
}

impl FlowMap {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn clear(&mut self) {
        self.truncate(0);
    }

    fn truncate(&mut self, len: usize) {
        self.ids.truncate(len);
        self.specs.truncate(len);
        self.routes.truncate(len);
        self.remaining.truncate(len);
        self.last_rate.truncate(len);
    }

    fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
        self.specs.reserve(additional);
        self.routes.reserve(additional);
        self.remaining.reserve(additional);
        self.last_rate.reserve(additional);
    }

    fn index_of(&self, id: FlowId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Drop the flows named by the id-sorted `done` in one compaction
    /// pass over every column, handing each dropped flow's spec and
    /// route to `release`. Survivors keep their relative (id) order.
    fn remove_sorted(&mut self, done: &[FlowId], mut release: impl FnMut(&FlowSpec, &LinkRoute)) {
        let mut next = done.iter().peekable();
        let mut kept = 0;
        for i in 0..self.len() {
            if next.next_if_eq(&&self.ids[i]).is_some() {
                release(&self.specs[i], &self.routes[i]);
                continue;
            }
            if kept != i {
                self.ids[kept] = self.ids[i];
                self.specs[kept] = self.specs[i];
                self.routes[kept] = self.routes[i];
                self.remaining[kept] = self.remaining[i];
                self.last_rate[kept] = self.last_rate[i];
            }
            kept += 1;
        }
        debug_assert!(next.peek().is_none(), "completed an unmapped flow");
        self.truncate(kept);
    }

    fn remove_at(&mut self, i: usize) {
        self.ids.remove(i);
        self.specs.remove(i);
        self.routes.remove(i);
        self.remaining.remove(i);
        self.last_rate.remove(i);
    }
}

struct Node<S> {
    shaper: S,
    ingress_cap_bps: f64,
    /// Bits sent during the last step (for per-node utilization traces).
    last_tx_bits: f64,
    /// Cumulative bits sent.
    total_tx_bits: f64,
}

/// Counters for the stepping engine: how often water-filling ran, how
/// often the cached allocation was reused, and how many `Vec`
/// allocations the reference loops performed. Read them with
/// [`Fabric::perf`]; they are instrumentation only and never feed back
/// into the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FabricPerf {
    /// Total steps taken (both engines, batched steps included).
    pub steps: u64,
    /// Steps whose input signature changed, forcing water-filling.
    pub rate_recomputes: u64,
    /// Steps that reused the cached allocation (signature bitwise equal).
    pub rate_cache_hits: u64,
    /// Steps taken with no flows at all (water-filling skipped outright).
    pub empty_steps: u64,
    /// Exact count of per-step `Vec` allocations performed by the
    /// reference loops (the event engine's steady state performs none;
    /// see `tests/alloc_free.rs`). Incremented only while the reference
    /// path is forced, so a reference run reports how many allocations
    /// the event engine avoids.
    pub ref_vec_allocs: u64,
    /// Event windows opened by [`Fabric::advance`] (kernel runs of ≥1
    /// step, plus batched idle jumps).
    pub event_jumps: u64,
    /// Steps executed inside event windows (kernel steps + batched idle
    /// steps). Each also counts toward `steps`, and kernel steps count
    /// as `rate_cache_hits` (the window horizon *proves* the signature
    /// check would have hit).
    pub event_steps: u64,
    /// Water-filling runs that had to honor per-link capacities
    /// (installed topology, non-empty link set). Zero on a flat fabric.
    pub link_recomputes: u64,
    /// Link-constrained steps served from the cached allocation — the
    /// per-link capacity signature (and everything else) was bitwise
    /// unchanged. Event-kernel steps on a linked fabric count here too,
    /// for the same reason they count as `rate_cache_hits`.
    pub link_cache_hits: u64,
}

impl FabricPerf {
    /// Fraction of non-empty steps served from the rate cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let busy = self.rate_recomputes + self.rate_cache_hits;
        if busy == 0 {
            0.0
        } else {
            self.rate_cache_hits as f64 / busy as f64
        }
    }

    /// Fraction of link-constrained steps served from the cache (0.0
    /// when no topology was installed — a flat fabric has no link
    /// steps at all).
    pub fn link_cache_hit_rate(&self) -> f64 {
        let busy = self.link_recomputes + self.link_cache_hits;
        if busy == 0 {
            0.0
        } else {
            self.link_cache_hits as f64 / busy as f64
        }
    }

    /// Fold another fabric's counters into this one (campaign-level
    /// aggregation across repetitions or placements).
    pub fn merge(&mut self, other: &FabricPerf) {
        self.steps += other.steps;
        self.rate_recomputes += other.rate_recomputes;
        self.rate_cache_hits += other.rate_cache_hits;
        self.empty_steps += other.empty_steps;
        self.ref_vec_allocs += other.ref_vec_allocs;
        self.event_jumps += other.event_jumps;
        self.event_steps += other.event_steps;
        self.link_recomputes += other.link_recomputes;
        self.link_cache_hits += other.link_cache_hits;
    }
}

/// One resource's binding verdict within a water-filling round. A
/// verdict only moves `Stale → Free | Binds` (evaluated when read) and
/// `Free → Stale` (a freeze lowered the residual); `Binds` is final for
/// the round, because a residual only falls while the counts hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Stale,
    Free,
    Binds,
}

/// Scratch buffers for the allocation-free general step. Every
/// buffer is cleared and refilled in place, so in steady state (constant
/// flow set, constant node count) no buffer ever reallocates.
#[derive(Debug, Default)]
struct StepScratch {
    /// The cached max-min allocation, aligned with the flow columns.
    rate: Vec<f64>,
    frozen: Vec<bool>,
    /// Residual egress/ingress capacity during water-filling; start as
    /// the gathered effective capacities.
    egress: Vec<f64>,
    ingress: Vec<f64>,
    /// Unfrozen-flow counts per node for the current round.
    eg_count: Vec<usize>,
    in_count: Vec<usize>,
    /// Per-resource binding verdicts of the current water-filling
    /// round — `residual / count <= share + eps` for each node's egress
    /// and ingress and each directed link — evaluated when first read
    /// and again only when read after a freeze lowered that resource
    /// (see [`Fabric::refresh_rates`]).
    eg_bind: Vec<Verdict>,
    in_bind: Vec<Verdict>,
    link_bind: Vec<Verdict>,
    /// Flow indexes frozen in the current round; their count decrements
    /// are applied only after the round's freeze sweep, matching the
    /// reference path's rebuild-at-round-start reads.
    round_frozen: Vec<usize>,
    node_demand: Vec<f64>,
    node_scale: Vec<f64>,
    /// Per-flow `(rate*dt).min(remaining)` computed in the demand pass
    /// and reused verbatim in the deliver pass.
    want: Vec<f64>,
    /// Residual per-link capacity during water-filling.
    link_res: Vec<f64>,
    /// Unfrozen-flow counts per directed link for the current round.
    link_count: Vec<usize>,
    /// Flow-set epoch the cache was computed for.
    sig_epoch: u64,
    /// Core capacity bit pattern the cache was computed for.
    sig_core: Option<u64>,
    /// Per-link capacity bit patterns the cache was computed for — the
    /// per-node signature generalized to the topology's links.
    sig_links: Vec<u64>,
    /// Effective egress (hint × fault factor) bit patterns per node.
    sig_egress: Vec<u64>,
    /// Effective ingress (cap × fault factor) bit patterns per node.
    sig_ingress: Vec<u64>,
    /// Contiguous same-source runs `(start, end)` over the flow table,
    /// or empty when its flows are not src-sorted (the
    /// engine starts shuffles src-major, so it usually is). The event
    /// kernel's deliver pass then walks each run with its node's scale
    /// as a loop-constant scalar — branch-free, gather-free, and
    /// vectorizable — instead of indexing `node_scale` per flow.
    ev_runs: Vec<(u32, u32)>,
    /// Flow-set epoch `ev_runs` was built for.
    runs_epoch: u64,
}

/// The fabric. Generic over the shaper type so callers that need to
/// inspect shaper internals (e.g. token-bucket budgets for Figure 15/18)
/// can use a concrete `Fabric<TokenBucket>`, while heterogeneous setups
/// use `Fabric<Box<dyn Shaper + Send>>`.
pub struct Fabric<S> {
    nodes: Vec<Node<S>>,
    flows: FlowMap,
    next_flow: u64,
    now_s: f64,
    /// Optional aggregate core capacity in bits/s shared by every flow
    /// (models an oversubscribed datacenter core; `None` = full
    /// bisection bandwidth, the default).
    core_capacity_bps: Option<f64>,
    /// Optional fault timeline: faulted nodes transmit and receive at
    /// zero/degraded rate for the fault window (`None` = no faults).
    faults: Option<FaultSchedule>,
    /// Bumped whenever the flow set changes (start/completion/reset);
    /// guards the spec-dependent half of the rate-cache signature.
    flow_epoch: u64,
    /// Per-node count of active flows sourced at this node, maintained
    /// incrementally — the round-0 water-filling counts.
    active_eg: Vec<usize>,
    /// Per-node count of active flows destined to this node.
    active_in: Vec<usize>,
    /// Directed per-link capacities in bits/s, installed by a topology
    /// wiring ([`Fabric::set_link_caps`]). Empty = flat fabric: every
    /// link loop below is vacuous and the arithmetic stream is exactly
    /// the pre-topology per-node + core model.
    link_caps: Vec<f64>,
    /// Per-link count of active flows crossing each directed link,
    /// maintained incrementally — the round-0 link counts.
    active_link: Vec<usize>,
    scratch: StepScratch,
    perf: FabricPerf,
    /// The active stepping engine (see [`StepPath`]).
    path: StepPath,
}

impl<S: Shaper> Default for Fabric<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Shaper> Fabric<S> {
    /// An empty fabric at t=0 running the event-driven engine.
    /// `FABRIC_SLOW_PATH` (set to anything but `0`) forces the
    /// reference loops for A/B verification; the two are bit-identical
    /// in every observable.
    pub fn new() -> Self {
        let slow = std::env::var_os("FABRIC_SLOW_PATH").is_some_and(|v| v != "0");
        Fabric {
            nodes: Vec::new(),
            flows: FlowMap::default(),
            next_flow: 0,
            now_s: 0.0,
            core_capacity_bps: None,
            faults: None,
            // Start at 1 so a fresh scratch (sig_epoch 0) never matches
            // before its first water-fill.
            flow_epoch: 1,
            active_eg: Vec::new(),
            active_in: Vec::new(),
            link_caps: Vec::new(),
            active_link: Vec::new(),
            scratch: StepScratch::default(),
            perf: FabricPerf::default(),
            path: if slow {
                StepPath::Reference
            } else {
                StepPath::Event
            },
        }
    }

    /// Select a stepping engine explicitly. The engines are
    /// bit-identical — this exists so tests, benches, and `verify.sh`
    /// can prove it.
    pub fn force_path(&mut self, path: StepPath) {
        self.path = path;
    }

    /// The active stepping engine.
    pub fn step_path(&self) -> StepPath {
        self.path
    }

    /// Stepping instrumentation counters.
    pub fn perf(&self) -> FabricPerf {
        self.perf
    }

    /// Zero the instrumentation counters.
    pub fn reset_perf(&mut self) {
        self.perf = FabricPerf::default();
    }

    /// Attach a fault schedule: from now on, [`Fabric::step`] scales
    /// each node's egress and ingress by the schedule's rate factor at
    /// the current simulated time (0.0 while a VM stall is active).
    /// Shapers of faulted nodes still advance — token buckets keep
    /// refilling while the VM is paused, exactly as on a real cloud.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = Some(schedule);
    }

    /// Detach the fault schedule (all nodes healthy again).
    pub fn clear_fault_schedule(&mut self) {
        self.faults = None;
    }

    /// The attached fault schedule, if any.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.faults.as_ref()
    }

    /// Fault rate factor of node `n` at the current simulated time
    /// (1.0 when healthy or when no schedule is attached).
    pub fn node_fault_factor(&self, n: NodeId) -> f64 {
        match &self.faults {
            Some(s) => s.factor_at(n, self.now_s),
            None => 1.0,
        }
    }

    /// Whether node `n` is inside a VM-stall episode right now.
    pub fn node_stalled(&self, n: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|s| s.stalled_at(n, self.now_s))
    }

    /// Constrain the fabric core: the sum of all flow rates may not
    /// exceed `bps` (oversubscription). Pass `f64::INFINITY`-like
    /// removal via [`Fabric::clear_core_capacity`].
    pub fn set_core_capacity(&mut self, bps: f64) {
        assert!(bps > 0.0, "core capacity must be positive");
        self.core_capacity_bps = Some(bps);
    }

    /// Remove the core constraint (full bisection bandwidth).
    pub fn clear_core_capacity(&mut self) {
        self.core_capacity_bps = None;
    }

    /// Install directed per-link capacities (bits/s): slot `l` is one
    /// direction of one physical link of an external topology. Routed
    /// flows ([`Fabric::start_flow_routed`]) name the slots they cross;
    /// water-filling then honors each slot as a shared resource exactly
    /// like a node's egress. Installing an **empty** set is the flat
    /// fabric — no link logic runs at all, and every observable stays
    /// bit-identical to a fabric that never heard of links.
    ///
    /// Must be called on an idle fabric (no in-flight flows): live
    /// routes index the slots being replaced.
    pub fn set_link_caps(&mut self, caps: Vec<f64>) {
        assert!(
            self.flows.is_empty(),
            "install link capacities on an idle fabric"
        );
        for &c in &caps {
            assert!(c > 0.0, "link capacity must be positive");
        }
        self.active_link.clear();
        self.active_link.resize(caps.len(), 0);
        self.link_caps = caps;
        // The cached allocation is stale now.
        self.flow_epoch += 1;
    }

    /// Number of installed directed link-capacity slots (0 = flat).
    pub fn link_count(&self) -> usize {
        self.link_caps.len()
    }

    /// Capacity of directed link slot `l` in bits/s.
    pub fn link_cap_bps(&self, l: usize) -> f64 {
        self.link_caps[l]
    }

    /// The id the **next** started flow will receive. Topology wirings
    /// hash this into their ECMP path pick so path selection is a pure
    /// function of (seed, flow order) — replayable, placement-stable.
    pub fn next_flow_id_hint(&self) -> u64 {
        self.next_flow
    }

    /// Add a node with the given egress shaper and ingress capacity.
    pub fn add_node(&mut self, shaper: S, ingress_cap_bps: f64) -> NodeId {
        self.nodes.push(Node {
            shaper,
            ingress_cap_bps,
            last_tx_bits: 0.0,
            total_tx_bits: 0.0,
        });
        self.active_eg.push(0);
        self.active_in.push(0);
        self.nodes.len() - 1
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Start one transfer; completion is reported by [`Fabric::step`].
    /// [`Fabric::start_flows`] with an unrouted batch of one.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.start_flows([spec], |_, _, _| {}).start()
    }

    /// Start one transfer that crosses the given directed links (in hop
    /// order) of the installed topology: [`Fabric::start_flows`] with a
    /// batch of one. An empty route is exactly [`Fabric::start_flow`].
    pub fn start_flow_routed(&mut self, spec: FlowSpec, route: LinkRoute) -> FlowId {
        self.start_flows([spec], |_, _, routes| routes[0] = route).start()
    }

    /// Admit a batch of transfers — the fabric's one admission path.
    /// The specs are appended to the flow table in place, taking the
    /// contiguous ids the returned range names, in order. `route` then
    /// fills the batch's route column: it receives the batch's first id,
    /// its specs and its routes (all [`LinkRoute::EMPTY`] on entry, and
    /// left so for unrouted flows), so a wiring can hash each flow's id
    /// into its path pick and unrank the path straight into the table.
    /// Remaining bits, last rates and the per-node and per-link active
    /// counts follow in the same passes, with one flow-set epoch bump
    /// for the whole batch. Completions are reported by
    /// [`Fabric::step`] and [`Fabric::advance`].
    ///
    /// Panics on an endpoint that is not a fabric node, a loopback
    /// flow, a negative size, or a route naming an uninstalled link
    /// slot.
    pub fn start_flows(
        &mut self,
        specs: impl IntoIterator<Item = FlowSpec>,
        route: impl FnOnce(u64, &[FlowSpec], &mut [LinkRoute]),
    ) -> FlowRange {
        let specs = specs.into_iter();
        let at = self.flows.len();
        let first = self.next_flow;
        let n_nodes = self.nodes.len();
        let flows = &mut self.flows;
        flows.reserve(specs.size_hint().0);
        for spec in specs {
            assert!(
                spec.src < n_nodes && spec.dst < n_nodes,
                "flow endpoints must be fabric nodes"
            );
            assert!(spec.src != spec.dst, "loopback flows bypass the network");
            assert!(spec.bits >= 0.0, "flow size must be non-negative");
            flows.ids.push(FlowId(self.next_flow));
            self.next_flow += 1;
            flows.specs.push(spec);
            flows.remaining.push(spec.bits);
            flows.last_rate.push(0.0);
            self.active_eg[spec.src] += 1;
            self.active_in[spec.dst] += 1;
        }
        flows.routes.resize(flows.ids.len(), LinkRoute::EMPTY);
        route(first, &flows.specs[at..], &mut flows.routes[at..]);
        for r in &flows.routes[at..] {
            for &l in r.links() {
                assert!(
                    (l as usize) < self.link_caps.len(),
                    "route names an uninstalled link slot"
                );
                self.active_link[l as usize] += 1;
            }
        }
        if self.next_flow != first {
            self.flow_epoch += 1;
        }
        FlowRange {
            start: first,
            end: self.next_flow,
        }
    }

    /// Remaining bits of a flow (`None` once completed/unknown).
    pub fn flow_remaining_bits(&self, id: FlowId) -> Option<f64> {
        self.flows.index_of(id).map(|i| self.flows.remaining[i])
    }

    /// Rate granted to a flow in the last step, bits/s.
    pub fn flow_last_rate(&self, id: FlowId) -> Option<f64> {
        self.flows.index_of(id).map(|i| self.flows.last_rate[i])
    }

    /// Egress bits node `n` sent in the last step.
    pub fn node_last_tx_bits(&self, n: NodeId) -> f64 {
        self.nodes[n].last_tx_bits
    }

    /// Cumulative egress bits of node `n`.
    pub fn node_total_tx_bits(&self, n: NodeId) -> f64 {
        self.nodes[n].total_tx_bits
    }

    /// Access a node's shaper (e.g. to read a token-bucket budget).
    pub fn node_shaper(&self, n: NodeId) -> &S {
        &self.nodes[n].shaper
    }

    /// Mutable access to a node's shaper (e.g. to preset budgets).
    pub fn node_shaper_mut(&mut self, n: NodeId) -> &mut S {
        &mut self.nodes[n].shaper
    }

    /// Max-min fair rates for the current flow set, honoring per-node
    /// egress hints, per-node ingress caps, and per-flow caps.
    ///
    /// This is the **reference** implementation: fresh buffers every
    /// call, counts rebuilt every water-filling round. The production
    /// fixpoint ([`Fabric::refresh_rates`]) must stay bit-identical to
    /// it. Also
    /// returns the number of water-filling rounds so the caller can
    /// account the per-round allocations.
    fn compute_rates_reference(&self) -> (Vec<(FlowId, f64)>, u64) {
        let mut rounds = 0u64;
        let n_nodes = self.nodes.len();
        let flows = &self.flows;
        let ids: Vec<FlowId> = flows.ids.clone();
        let mut rate = vec![0.0f64; ids.len()];
        let mut frozen = vec![false; ids.len()];

        // Residual capacity per resource: egress, ingress, and the
        // (optional) shared core. Fault episodes scale a node's link in
        // both directions: a stalled VM neither sends nor receives, a
        // degraded link is degraded for traffic either way.
        let mut egress: Vec<f64> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(v, n)| {
                let factor = match &self.faults {
                    Some(s) => s.factor_at(v, self.now_s),
                    None => 1.0,
                };
                n.shaper.rate_hint(self.now_s).max(0.0) * factor
            })
            .collect();
        let mut ingress: Vec<f64> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(v, n)| {
                let factor = match &self.faults {
                    Some(s) => s.factor_at(v, self.now_s),
                    None => 1.0,
                };
                n.ingress_cap_bps * factor
            })
            .collect();
        let mut core = self.core_capacity_bps;
        // Per-link residuals mirror the per-node ones; an empty link set
        // (flat fabric) makes every link loop below vacuous.
        let n_links = self.link_caps.len();
        let mut link_res: Vec<f64> = self.link_caps.clone();

        loop {
            rounds += 1;
            // Count unfrozen flows per resource.
            let mut eg_count = vec![0usize; n_nodes];
            let mut in_count = vec![0usize; n_nodes];
            let mut link_count = vec![0usize; n_links];
            let mut unfrozen = 0usize;
            for ((&fz, s), route) in frozen.iter().zip(&flows.specs).zip(&flows.routes) {
                if fz {
                    continue;
                }
                unfrozen += 1;
                eg_count[s.src] += 1;
                in_count[s.dst] += 1;
                for &l in route.links() {
                    link_count[l as usize] += 1;
                }
            }
            if unfrozen == 0 {
                break;
            }

            // Smallest fair share over all constraining resources.
            let mut share = f64::INFINITY;
            for v in 0..n_nodes {
                if eg_count[v] > 0 {
                    share = share.min(egress[v] / eg_count[v] as f64);
                }
                if in_count[v] > 0 {
                    share = share.min(ingress[v] / in_count[v] as f64);
                }
            }
            for l in 0..n_links {
                if link_count[l] > 0 {
                    share = share.min(link_res[l] / link_count[l] as f64);
                }
            }
            if let Some(c) = core {
                share = share.min(c / unfrozen as f64);
            }
            // Per-flow caps can be tighter than any shared resource.
            for (&fz, s) in frozen.iter().zip(&flows.specs) {
                if !fz {
                    share = share.min(s.max_rate_bps);
                }
            }
            if !share.is_finite() {
                // No finite constraint at all: unbounded fabric.
                for (k, _) in ids.iter().enumerate() {
                    if !frozen[k] {
                        frozen[k] = true;
                        rate[k] = f64::INFINITY;
                    }
                }
                break;
            }
            let share = share.max(0.0);

            // Freeze every flow limited at this share: flows crossing a
            // bottleneck resource, or capped at exactly the share.
            let eps = share * 1e-9 + 1e-9;
            let core_binding = core
                .map(|c| c / unfrozen as f64 <= share + eps)
                .unwrap_or(false);
            let mut froze_any = false;
            for k in 0..ids.len() {
                if frozen[k] {
                    continue;
                }
                let s = flows.specs[k];
                let route = flows.routes[k];
                let src_share = egress[s.src] / eg_count[s.src] as f64;
                let dst_share = ingress[s.dst] / in_count[s.dst] as f64;
                let mut link_binding = false;
                for &l in route.links() {
                    if link_res[l as usize] / link_count[l as usize] as f64 <= share + eps {
                        link_binding = true;
                    }
                }
                let capped = s.max_rate_bps <= share + eps;
                if core_binding
                    || src_share <= share + eps
                    || dst_share <= share + eps
                    || link_binding
                    || capped
                {
                    frozen[k] = true;
                    rate[k] = share;
                    egress[s.src] = (egress[s.src] - share).max(0.0);
                    ingress[s.dst] = (ingress[s.dst] - share).max(0.0);
                    for &l in route.links() {
                        link_res[l as usize] = (link_res[l as usize] - share).max(0.0);
                    }
                    if let Some(c) = core.as_mut() {
                        *c = (*c - share).max(0.0);
                    }
                    froze_any = true;
                }
            }
            debug_assert!(froze_any, "water-filling failed to make progress");
            if !froze_any {
                break;
            }
        }

        (ids.into_iter().zip(rate).collect(), rounds)
    }

    /// Ensure `scratch.rate` holds the max-min allocation for the
    /// current inputs, re-running water-filling only when the input
    /// signature (flow-set epoch, per-node effective egress/ingress,
    /// core capacity) changed bitwise since the last step.
    ///
    /// Bit-identity with [`Fabric::compute_rates_reference`]: the
    /// gathered capacities and the flow table's specs are the exact
    /// values the reference reads, the freeze sweep mutates residuals in
    /// the same order, and per-node counts — initialized from the
    /// incrementally maintained totals — are decremented only *after*
    /// each round's sweep, matching the reference's rebuild-at-round-start
    /// reads.
    ///
    /// The reference tests every unfrozen flow against
    /// `residual / count <= share + eps` for its egress, ingress and
    /// each link it crosses. Here each resource carries a [`Verdict`]:
    /// evaluated with that expression when a flow first reads it in a
    /// round, marked stale when a freeze lowers the residual of a
    /// resource not yet binding, and evaluated again only if read while
    /// stale. Within a round the counts are fixed and a residual only
    /// falls (`(r - share).max(0.0) <= r` for `share >= 0`), so a
    /// binding resource stays binding, and every verdict read equals the
    /// division the reference makes at that point of the sweep. The
    /// freeze decision is an `||` of those predicates, so the ones a
    /// flow never reads (its source already binds) cannot change it.
    fn refresh_rates(&mut self) {
        let n_nodes = self.nodes.len();
        let sc = &mut self.scratch;
        let flows = &self.flows;
        let mut dirty = false;

        // 1. Flow set: any start, completion or reset bumped the epoch.
        if sc.sig_epoch != self.flow_epoch {
            sc.sig_epoch = self.flow_epoch;
            dirty = true;
        }

        // 2. Per-node effective capacities, compared bitwise against the
        // cached signature while being gathered into the working
        // residual buffers.
        if sc.sig_egress.len() != n_nodes {
            sc.sig_egress.clear();
            sc.sig_egress.resize(n_nodes, 0);
            sc.sig_ingress.clear();
            sc.sig_ingress.resize(n_nodes, 0);
            dirty = true;
        }
        sc.egress.clear();
        sc.ingress.clear();
        for (v, n) in self.nodes.iter().enumerate() {
            let factor = match &self.faults {
                Some(s) => s.factor_at(v, self.now_s),
                None => 1.0,
            };
            let eg = n.shaper.rate_hint(self.now_s).max(0.0) * factor;
            let ing = n.ingress_cap_bps * factor;
            if sc.sig_egress[v] != eg.to_bits() {
                sc.sig_egress[v] = eg.to_bits();
                dirty = true;
            }
            if sc.sig_ingress[v] != ing.to_bits() {
                sc.sig_ingress[v] = ing.to_bits();
                dirty = true;
            }
            sc.egress.push(eg);
            sc.ingress.push(ing);
        }
        let core_bits = self.core_capacity_bps.map(f64::to_bits);
        if sc.sig_core != core_bits {
            sc.sig_core = core_bits;
            dirty = true;
        }
        // Per-link capacity signature: the per-node check generalized
        // to the topology's directed link slots. Vacuous (zero work,
        // zero counter movement) on a flat fabric.
        let n_links = self.link_caps.len();
        if sc.sig_links.len() != n_links {
            sc.sig_links.clear();
            sc.sig_links.resize(n_links, 0);
            dirty = true;
        }
        for (l, cap) in self.link_caps.iter().enumerate() {
            if sc.sig_links[l] != cap.to_bits() {
                sc.sig_links[l] = cap.to_bits();
                dirty = true;
            }
        }

        if !dirty {
            self.perf.rate_cache_hits += 1;
            if n_links > 0 {
                self.perf.link_cache_hits += 1;
            }
            return;
        }
        self.perf.rate_recomputes += 1;
        if n_links > 0 {
            self.perf.link_recomputes += 1;
        }

        // 3. Water-filling into the scratch buffers.
        let k_flows = flows.len();
        sc.rate.clear();
        sc.rate.resize(k_flows, 0.0);
        sc.frozen.clear();
        sc.frozen.resize(k_flows, false);
        sc.eg_count.clear();
        sc.eg_count.extend_from_slice(&self.active_eg);
        sc.in_count.clear();
        sc.in_count.extend_from_slice(&self.active_in);
        sc.link_count.clear();
        sc.link_count.extend_from_slice(&self.active_link);
        sc.link_res.clear();
        sc.link_res.extend_from_slice(&self.link_caps);
        sc.eg_bind.resize(n_nodes, Verdict::Stale);
        sc.in_bind.resize(n_nodes, Verdict::Stale);
        sc.link_bind.resize(n_links, Verdict::Stale);
        let mut unfrozen = k_flows;
        let mut core = self.core_capacity_bps;

        loop {
            if unfrozen == 0 {
                break;
            }

            // Smallest fair share over all constraining resources.
            let mut share = f64::INFINITY;
            for v in 0..n_nodes {
                if sc.eg_count[v] > 0 {
                    share = share.min(sc.egress[v] / sc.eg_count[v] as f64);
                }
                if sc.in_count[v] > 0 {
                    share = share.min(sc.ingress[v] / sc.in_count[v] as f64);
                }
            }
            for l in 0..n_links {
                if sc.link_count[l] > 0 {
                    share = share.min(sc.link_res[l] / sc.link_count[l] as f64);
                }
            }
            if let Some(c) = core {
                share = share.min(c / unfrozen as f64);
            }
            // Per-flow caps can be tighter than any shared resource.
            for k in 0..k_flows {
                if !sc.frozen[k] {
                    share = share.min(flows.specs[k].max_rate_bps);
                }
            }
            if !share.is_finite() {
                // No finite constraint at all: unbounded fabric.
                for k in 0..k_flows {
                    if !sc.frozen[k] {
                        sc.frozen[k] = true;
                        sc.rate[k] = f64::INFINITY;
                    }
                }
                break;
            }
            let share = share.max(0.0);

            // Freeze every flow limited at this share: flows crossing a
            // bottleneck resource, or capped at exactly the share. A
            // resource with no unfrozen flow is never read.
            let eps = share * 1e-9 + 1e-9;
            let binds = |verdict: &mut Verdict, res: f64, count: usize| {
                if *verdict == Verdict::Stale {
                    *verdict = if res / count as f64 <= share + eps {
                        Verdict::Binds
                    } else {
                        Verdict::Free
                    };
                }
                *verdict == Verdict::Binds
            };
            let lowered = |verdict: &mut Verdict| {
                if *verdict == Verdict::Free {
                    *verdict = Verdict::Stale;
                }
            };
            sc.eg_bind.fill(Verdict::Stale);
            sc.in_bind.fill(Verdict::Stale);
            sc.link_bind.fill(Verdict::Stale);
            let core_binding = core
                .map(|c| c / unfrozen as f64 <= share + eps)
                .unwrap_or(false);
            sc.round_frozen.clear();
            for k in 0..k_flows {
                if sc.frozen[k] {
                    continue;
                }
                let s = flows.specs[k];
                let route = flows.routes[k].links();
                if core_binding
                    || binds(&mut sc.eg_bind[s.src], sc.egress[s.src], sc.eg_count[s.src])
                    || binds(&mut sc.in_bind[s.dst], sc.ingress[s.dst], sc.in_count[s.dst])
                    || route.iter().any(|&l| {
                        let l = l as usize;
                        binds(&mut sc.link_bind[l], sc.link_res[l], sc.link_count[l])
                    })
                    || s.max_rate_bps <= share + eps
                {
                    sc.frozen[k] = true;
                    sc.rate[k] = share;
                    sc.egress[s.src] = (sc.egress[s.src] - share).max(0.0);
                    lowered(&mut sc.eg_bind[s.src]);
                    sc.ingress[s.dst] = (sc.ingress[s.dst] - share).max(0.0);
                    lowered(&mut sc.in_bind[s.dst]);
                    for &l in route {
                        let l = l as usize;
                        sc.link_res[l] = (sc.link_res[l] - share).max(0.0);
                        lowered(&mut sc.link_bind[l]);
                    }
                    if let Some(c) = core.as_mut() {
                        *c = (*c - share).max(0.0);
                    }
                    sc.round_frozen.push(k);
                }
            }
            debug_assert!(
                !sc.round_frozen.is_empty(),
                "water-filling failed to make progress"
            );
            if sc.round_frozen.is_empty() || sc.round_frozen.len() == unfrozen {
                // No progress, or every flow is frozen: the counts are
                // never read again.
                break;
            }
            // The reference reads round-start counts throughout its
            // freeze sweep, so this round's decrements land only now.
            for &k in &sc.round_frozen {
                let s = flows.specs[k];
                sc.eg_count[s.src] -= 1;
                sc.in_count[s.dst] -= 1;
                for &l in flows.routes[k].links() {
                    sc.link_count[l as usize] -= 1;
                }
                unfrozen -= 1;
            }
        }
    }

    /// Advance the fabric by `dt` seconds. Returns the flows that
    /// completed during the step, in id order.
    ///
    /// On the event engine this is the general step: the cached
    /// allocation from [`Fabric::refresh_rates`] and one pass each of
    /// demand, transmit and deliver over scratch buffers.
    /// [`Fabric::advance`] falls back to it whenever an event window
    /// cannot open.
    pub fn step(&mut self, dt: f64) -> Vec<FlowId> {
        assert!(dt > 0.0, "step must be positive");
        self.perf.steps += 1;
        if self.path == StepPath::Reference {
            return self.step_reference(dt);
        }

        if self.flows.is_empty() {
            // No flows: water-filling is vacuous, but idle shapers must
            // still advance (token refill) with the same bookkeeping.
            self.perf.empty_steps += 1;
            for node in &mut self.nodes {
                let granted = node.shaper.transmit(self.now_s, dt, 0.0);
                node.last_tx_bits = granted;
                node.total_tx_bits += granted;
            }
            self.now_s += dt;
            return Vec::new();
        }

        self.refresh_rates();
        let n_nodes = self.nodes.len();
        let Fabric {
            nodes,
            flows,
            scratch: sc,
            now_s,
            ..
        } = &mut *self;

        // Aggregate per-node egress demand. The flow columns and the
        // cached rates share one index, so a linear walk replaces the
        // reference's per-flow map lookups; each flow's `want` is kept
        // for the deliver pass (same value, same bits — the reference
        // merely recomputes it).
        sc.node_demand.clear();
        sc.node_demand.resize(n_nodes, 0.0);
        sc.want.clear();
        for ((&r, &rem), s) in sc.rate.iter().zip(&flows.remaining).zip(&flows.specs) {
            let want = (r * dt).min(rem);
            sc.node_demand[s.src] += want;
            sc.want.push(want);
        }

        // Let shapers admit the demand; compute per-node scaling.
        sc.node_scale.clear();
        sc.node_scale.resize(n_nodes, 1.0);
        for (v, node) in nodes.iter_mut().enumerate() {
            let demand = sc.node_demand[v];
            let granted = node.shaper.transmit(*now_s, dt, demand);
            node.last_tx_bits = granted;
            node.total_tx_bits += granted;
            sc.node_scale[v] = if demand > 0.0 { granted / demand } else { 1.0 };
        }

        // Deliver bits and collect completions. `Vec::new` does not
        // allocate until a completion is actually pushed, so the
        // steady state stays allocation-free.
        let mut completed = Vec::new();
        for i in 0..flows.len() {
            let delivered = sc.want[i] * sc.node_scale[flows.specs[i].src];
            flows.remaining[i] -= delivered;
            flows.last_rate[i] = delivered / dt;
            if flows.remaining[i] <= 1e-6 {
                completed.push(flows.ids[i]);
            }
        }
        self.retire(&completed);

        self.now_s += dt;
        completed
    }

    /// Remove the completions of one step or one event window from the
    /// flow table in one compaction pass over its columns that merges
    /// against `done`, releasing their per-node and per-link active
    /// counts on the way.
    /// `done` is id-sorted (completions are pushed while walking the
    /// flows in id order) and names only mapped flows. The counts are
    /// integers, so the order of the decrements cannot change any bit
    /// downstream.
    ///
    /// When `done` names every flow (a shuffle whose flows all finish
    /// in one window), the table is cleared and the counts zeroed
    /// outright: each count is the number of in-flight flows at its
    /// node or on its link, so with the table empty every count is 0.
    fn retire(&mut self, done: &[FlowId]) {
        if done.is_empty() {
            return;
        }
        debug_assert!(
            done.windows(2).all(|w| w[0] < w[1]),
            "completions must be id-sorted"
        );
        self.flow_epoch += 1;
        if done.len() == self.flows.len() {
            debug_assert_eq!(done, &self.flows.ids[..], "completed an unmapped flow");
            debug_assert!(self.counts_match_table(), "active counts drifted");
            self.flows.clear();
            self.active_eg.fill(0);
            self.active_in.fill(0);
            self.active_link.fill(0);
            return;
        }
        let Fabric {
            flows,
            active_eg,
            active_in,
            active_link,
            ..
        } = self;
        flows.remove_sorted(done, |spec, route| {
            active_eg[spec.src] -= 1;
            active_in[spec.dst] -= 1;
            for &l in route.links() {
                active_link[l as usize] -= 1;
            }
        });
    }

    /// Debug check of the invariant whole-table retirement relies on:
    /// the per-node and per-link active counts equal the flow table's
    /// sums. The recount goes into the water-fill's round-count scratch
    /// (which every `refresh_rates` overwrites from the active counts),
    /// so it leaves the active counts alone and allocates nothing once
    /// warm — the allocation probes hold in debug builds too.
    fn counts_match_table(&mut self) -> bool {
        let Fabric {
            flows,
            active_eg,
            active_in,
            active_link,
            scratch: sc,
            ..
        } = self;
        for (count, len) in [
            (&mut sc.eg_count, active_eg.len()),
            (&mut sc.in_count, active_in.len()),
            (&mut sc.link_count, active_link.len()),
        ] {
            count.clear();
            count.resize(len, 0);
        }
        for (spec, route) in flows.specs.iter().zip(&flows.routes) {
            sc.eg_count[spec.src] += 1;
            sc.in_count[spec.dst] += 1;
            for &l in route.links() {
                sc.link_count[l as usize] += 1;
            }
        }
        sc.eg_count == *active_eg && sc.in_count == *active_in && sc.link_count == *active_link
    }

    /// Column index of an in-flight flow, for the reference loops'
    /// per-id lookups.
    fn flow_index(&self, id: FlowId) -> usize {
        // detlint:allow(D5, D11) -- invariant: the reference loops only look up ids collected from the flow table in the same step; a miss is engine corruption where aborting the shard beats silently continuing
        self.flows.index_of(id).expect("unknown flow id")
    }

    /// The original stepping loop, kept as the equivalence baseline
    /// (fresh buffers, per-id lookups and per-id removal every step).
    fn step_reference(&mut self, dt: f64) -> Vec<FlowId> {
        let (rates, rounds) = self.compute_rates_reference();
        // compute_rates_reference: ids, rate, frozen, egress, ingress,
        // the final collect, plus two count vectors per round. With a
        // topology installed, the link residual clone plus one link
        // count vector per round on top (empty Vecs do not allocate,
        // so the flat count is unchanged).
        self.perf.ref_vec_allocs += 6 + 2 * rounds;
        if !self.link_caps.is_empty() {
            self.perf.ref_vec_allocs += 1 + rounds;
        }

        // Aggregate per-node egress demand.
        let mut node_demand = vec![0.0f64; self.nodes.len()];
        for &(id, r) in &rates {
            let i = self.flow_index(id);
            let want = (r * dt).min(self.flows.remaining[i]);
            node_demand[self.flows.specs[i].src] += want;
        }

        // Let shapers admit the demand; compute per-node scaling.
        let mut node_scale = vec![1.0f64; self.nodes.len()];
        for (v, node) in self.nodes.iter_mut().enumerate() {
            let demand = node_demand[v];
            let granted = node.shaper.transmit(self.now_s, dt, demand);
            node.last_tx_bits = granted;
            node.total_tx_bits += granted;
            node_scale[v] = if demand > 0.0 { granted / demand } else { 1.0 };
        }

        // Deliver bits and collect completions.
        let mut completed = Vec::new();
        for (id, r) in rates {
            let i = self.flow_index(id);
            let f = &mut self.flows;
            let want = (r * dt).min(f.remaining[i]);
            let delivered = want * node_scale[f.specs[i].src];
            f.remaining[i] -= delivered;
            f.last_rate[i] = delivered / dt;
            if f.remaining[i] <= 1e-6 {
                completed.push(id);
            }
        }
        for &id in &completed {
            let i = self.flow_index(id);
            let s = self.flows.specs[i];
            self.active_eg[s.src] -= 1;
            self.active_in[s.dst] -= 1;
            for &l in self.flows.routes[i].links() {
                self.active_link[l as usize] -= 1;
            }
            self.flows.remove_at(i);
        }
        if !completed.is_empty() {
            self.flow_epoch += 1;
        }
        self.perf.ref_vec_allocs += 2 + u64::from(!completed.is_empty());

        self.now_s += dt;
        completed
    }

    /// Advance the fabric by up to `max_steps` ticks of `dt` seconds,
    /// appending completed flows to `completed` in exactly the order
    /// repeated [`Fabric::step`] calls would report them. Returns the
    /// number of steps actually taken.
    ///
    /// Stops early only after a step that completes the **last** active
    /// flow, so drain loops never tick past the completion they wait
    /// for; a fabric that starts flow-free runs all `max_steps` as idle
    /// ticks. Callers that need more steps after a drain simply call
    /// again — the remainder batches as an idle jump.
    ///
    /// On the event engine this is where stepping cost collapses: idle
    /// stretches batch through [`Shaper::rest`], and busy stretches run
    /// the event kernel ([`Fabric::next_event`] horizon +
    /// struct-of-arrays stepping). On the reference path it is the
    /// literal per-step loop, so the equivalence gate covers batched
    /// callers identically.
    pub fn advance(&mut self, dt: f64, max_steps: u64, completed: &mut Vec<FlowId>) -> u64 {
        assert!(dt > 0.0, "step must be positive");
        let event = self.path == StepPath::Event;
        let mut taken = 0u64;
        while taken < max_steps {
            if event && self.flows.is_empty() {
                // Idle jump: batch every remaining tick through the
                // shapers' closed-form rests. Grants of an idle step
                // are exactly 0.0 on every shaper, so `last_tx_bits`
                // and `total_tx_bits` land on the stepped loop's
                // values, and the clock advances by the same repeated
                // `+= dt` the loop would perform.
                let k = max_steps - taken;
                for node in &mut self.nodes {
                    node.shaper.rest(self.now_s, dt, k);
                    node.last_tx_bits = 0.0;
                }
                self.now_s = crate::shaper::advance_clock(self.now_s, dt, k);
                self.perf.steps += k;
                self.perf.empty_steps += k;
                self.perf.event_steps += k;
                self.perf.event_jumps += 1;
                taken += k;
                break;
            }
            if event {
                // (Re)establish the rate cache for the current
                // signature, then run the kernel as far as the event
                // horizon proves the cache must keep hitting; the
                // window's first step plays the general step's role.
                self.refresh_rates();
                let k = self.event_window(dt, max_steps - taken, completed);
                if k > 0 {
                    taken += k;
                    if self.flows.is_empty() {
                        // The kernel's final step completed the last flow.
                        break;
                    }
                    continue;
                }
            }
            // Reference loop, or a stalled window: an event is due
            // within the guard slack (e.g. a flow is a few ticks from
            // completing) or a shaper offers no closed-form bound. One
            // honest step guarantees progress.
            let done = self.step(dt);
            taken += 1;
            if !done.is_empty() {
                completed.extend_from_slice(&done);
                if self.flows.is_empty() {
                    break;
                }
            }
        }
        taken
    }

    /// Closed-form min-reduction of the next event horizon: how many
    /// upcoming ticks of `dt` provably cannot change any input of the
    /// cached rate allocation. Per-node [`Shaper::hint_stable_steps`]
    /// crossings (+1: the window's first step is validated against the
    /// live signature before the window opens, the bound covers the
    /// transmits *after* it), the fault schedule's next episode edge
    /// (with two ticks of guard slack for the iterated clock), per-flow
    /// completion horizons (how long `remaining` provably stays above
    /// the per-step demand `rate * dt`, with a relative `1e-6` plus two
    /// absolute guard steps absorbing delivery rounding — available
    /// whenever the rate cache is current), and the caller's `budget`
    /// all reduce in. The bounds are conservative, so actual
    /// completions are still detected eagerly inside the window; the
    /// horizon only proves which re-reads may be skipped.
    pub fn next_event(&self, dt: f64, budget: u64) -> NextEvent {
        let mut ev = NextEvent {
            steps: budget,
            cause: EventCause::Budget,
        };
        if let Some(s) = &self.faults {
            let t_next = s.next_transition_after(self.now_s);
            if t_next.is_finite() {
                let raw = (t_next - self.now_s) / dt;
                let horizon = if raw <= 3.0 {
                    0
                } else {
                    (raw.floor() as u64).saturating_sub(2)
                };
                if horizon < ev.steps {
                    ev = NextEvent {
                        steps: horizon,
                        cause: EventCause::FaultTransition,
                    };
                }
            }
        }
        for (v, node) in self.nodes.iter().enumerate() {
            let stable = node
                .shaper
                .hint_stable_steps(self.now_s, dt)
                .saturating_add(1);
            if stable < ev.steps {
                ev = NextEvent {
                    steps: stable,
                    cause: EventCause::HintCrossing(v),
                };
            }
        }
        let sc = &self.scratch;
        if sc.sig_epoch == self.flow_epoch && sc.rate.len() == self.flows.len() {
            for (i, &rem) in self.flows.remaining.iter().enumerate() {
                let h = flow_completion_horizon(rem, sc.rate[i] * dt);
                if h < ev.steps {
                    ev = NextEvent {
                        steps: h,
                        cause: EventCause::Completion(self.flows.ids[i]),
                    };
                }
            }
        }
        ev
    }

    /// The kernel's sharpened event horizon. Preconditions: the
    /// window's demand pass (`node_demand`, `want`) ran for the current
    /// flow set at the current clock. Min-reduces the same
    /// fault-schedule and budget bounds as [`Fabric::next_event`], but
    /// swaps in the per-node [`Shaper::hint_stable_steps_busy`] bound —
    /// the kernel holds each node's demand bit-constant inside the
    /// window (see the demand hoist in [`Fabric::event_window`]), which
    /// is exactly the promise that bound is allowed to assume — and
    /// per-flow completion horizons over the window's wants. In the
    /// depleted fig19 steady state this is the difference between a
    /// zero-length window (a bucket sitting *at* its hint threshold is
    /// always "one idle tick from crossing" under the demand-agnostic
    /// bound) and a window spanning the whole depletion plateau.
    ///
    /// A flow whose `(remaining, want)` bits equal the previous flow's
    /// has the same horizon, already folded into the window, so it is
    /// skipped: a shuffle's equal-size flows on equal shares come in
    /// long identical runs.
    fn busy_horizon(&self, dt: f64, budget: u64) -> u64 {
        let mut window = budget;
        if let Some(s) = &self.faults {
            let t_next = s.next_transition_after(self.now_s);
            if t_next.is_finite() {
                let raw = (t_next - self.now_s) / dt;
                window = window.min(if raw <= 3.0 {
                    0
                } else {
                    (raw.floor() as u64).saturating_sub(2)
                });
            }
        }
        let sc = &self.scratch;
        for (v, node) in self.nodes.iter().enumerate() {
            if window == 0 {
                return 0;
            }
            let stable = node
                .shaper
                .hint_stable_steps_busy(self.now_s, dt, sc.node_demand[v])
                .saturating_add(1);
            window = window.min(stable);
        }
        let mut prev = None;
        for (&rem, &w) in self.flows.remaining.iter().zip(&sc.want) {
            let bits = (rem.to_bits(), w.to_bits());
            if prev == Some(bits) {
                continue;
            }
            prev = Some(bits);
            // Quick accept without the division: `remaining` more than
            // `window + 4` demands away (with a relative margin beating
            // the horizon's own `1e-6` discount) cannot bound a window
            // this short.
            if w > 0.0 && rem > (window as f64 + 4.0) * (1.0 + 2e-6) * w {
                continue;
            }
            window = window.min(flow_completion_horizon(rem, w));
        }
        window
    }

    /// Run the event kernel for up to `budget` steps. Preconditions:
    /// event engine, flows present, and [`Fabric::refresh_rates`]
    /// *just* ran (so the cached allocation matches the live flow set).
    /// Returns steps taken (0 when the live signature no longer matches
    /// the cache — the caller's next general step recomputes honestly).
    ///
    /// Every kernel step executes the identical floating-point
    /// recurrences of the general step — per-node `transmit`
    /// (shaper state, including RNGs, advances every tick exactly as
    /// stepped), scale division, delivery subtraction, `now += dt` — in
    /// place on the flow table's columns. What it skips, the
    /// [`Fabric::busy_horizon`] proof obligations cover: the per-step
    /// hint/factor gathers and signature compares and the per-step
    /// demand pass — inside the window every flow's demand
    /// `min(rate*dt, remaining)` is provably the constant
    /// bit pattern `rate*dt` (the completion horizons guarantee
    /// `remaining` stays above it), so wants and per-node demand sums
    /// are computed once at entry.
    fn event_window(&mut self, dt: f64, budget: u64, completed: &mut Vec<FlowId>) -> u64 {
        let n_nodes = self.nodes.len();
        {
            let sc = &self.scratch;
            if budget == 0
                || self.flows.is_empty()
                || sc.sig_epoch != self.flow_epoch
                || sc.sig_egress.len() != n_nodes
                || sc.sig_core != self.core_capacity_bps.map(f64::to_bits)
                || sc.sig_links.len() != self.link_caps.len()
                || self
                    .link_caps
                    .iter()
                    .zip(&sc.sig_links)
                    .any(|(cap, sig)| cap.to_bits() != *sig)
            {
                return 0;
            }
        }

        // Entry validation: the cache was signed during the last
        // refresh (one tick ago); re-derive each node's live signature
        // word once and bail to the general path on any mismatch (e.g.
        // a bucket crossed its hint threshold during that step's
        // transmit). A passed check makes the window's first step a
        // proven cache hit; `busy_horizon` extends the proof to the
        // rest.
        let sc = &mut self.scratch;
        for (v, node) in self.nodes.iter().enumerate() {
            let factor = match &self.faults {
                Some(s) => s.factor_at(v, self.now_s),
                None => 1.0,
            };
            let eg = node.shaper.rate_hint(self.now_s).max(0.0) * factor;
            let ing = node.ingress_cap_bps * factor;
            if sc.sig_egress[v] != eg.to_bits() || sc.sig_ingress[v] != ing.to_bits() {
                return 0;
            }
        }

        // The demand pass, once per window over the flow table (id
        // order — the same order every per-step pass iterates in):
        // wants and per-node demand sums use the same expressions in
        // the same accumulation order as the per-step pass, so the
        // hoisted values are bitwise what every in-window step would
        // have recomputed.
        let flows = &self.flows;
        let k_flows = flows.len();
        sc.node_demand.clear();
        sc.node_demand.resize(n_nodes, 0.0);
        sc.want.clear();
        // Whether some flow sits in the sub-`1e-6`-want corner (see the
        // deliver-pass strategy below).
        let mut tiny_want = false;
        for ((&r, &rem), s) in sc.rate.iter().zip(&flows.remaining).zip(&flows.specs) {
            let want = (r * dt).min(rem);
            sc.node_demand[s.src] += want;
            sc.want.push(want);
            tiny_want |= want > 0.0 && want <= 1e-6;
        }
        sc.node_scale.clear();
        sc.node_scale.resize(n_nodes, 1.0);
        // Same-source runs depend only on the flow set: rebuild them
        // once per flow-set epoch, not once per window.
        if sc.runs_epoch != self.flow_epoch {
            sc.runs_epoch = self.flow_epoch;
            sc.ev_runs.clear();
            if flows.specs.windows(2).all(|p| p[0].src <= p[1].src) {
                let mut i = 0u32;
                while (i as usize) < k_flows {
                    let v = flows.specs[i as usize].src;
                    let mut j = i + 1;
                    while (j as usize) < k_flows && flows.specs[j as usize].src == v {
                        j += 1;
                    }
                    sc.ev_runs.push((i, j));
                    i = j;
                }
            }
        }

        // The horizon bounds how far the cache may be reused *without
        // re-validation*; the window's first step needs no horizon at
        // all — the refresh and entry validation just proved its
        // signature live, which is exactly the general step's signature
        // check. So the window is always at least one step, and an
        // imminent event (a flow a few ticks from completing, a fault
        // edge inside the guard slack) degrades to single-step windows
        // instead of bouncing back to the general path.
        let horizon = self.busy_horizon(dt, budget);
        let window = horizon.max(1);

        // Deliver-pass strategy. Within the *unclamped* horizon a flow
        // with `want > 1e-6` keeps `remaining > 2*want > 1e-6` (the
        // completion horizons guarantee it) and a zero-want flow never
        // moves, so unless some flow sits in the sub-`1e-6`-want
        // corner (where the absolute completion threshold can be
        // crossed while the demand stays bit-stable), no completion
        // can occur and the per-flow threshold check is dead code the
        // kernel may skip. Independently, when the flow order is
        // src-sorted, the deliver pass decomposes into the contiguous
        // same-source runs with a scalar scale — the per-flow updates
        // are independent, so run order does not affect the bits.
        let completions_possible = horizon == 0 || tiny_want;
        let use_runs = !completions_possible && !self.scratch.ev_runs.is_empty();

        let first_new = completed.len();
        let mut taken = 0u64;
        {
            let Fabric {
                nodes,
                flows,
                scratch: sc,
                now_s,
                ..
            } = &mut *self;
            while taken < window {
                // Transmit pass: demand is the hoisted constant.
                for (v, node) in nodes.iter_mut().enumerate() {
                    let demand = sc.node_demand[v];
                    let granted = node.shaper.transmit(*now_s, dt, demand);
                    node.last_tx_bits = granted;
                    node.total_tx_bits += granted;
                    sc.node_scale[v] = if demand > 0.0 { granted / demand } else { 1.0 };
                }
                // Fused deliver pass; `want * scale` is the identical
                // expression the per-step pass evaluates.
                if use_runs {
                    // Run variant: no completion is reachable in this
                    // window, so deliver is pure arithmetic.
                    for &(a, b) in &sc.ev_runs {
                        let s = sc.node_scale[flows.specs[a as usize].src];
                        let (a, b) = (a as usize, b as usize);
                        for (rem, want) in flows.remaining[a..b].iter_mut().zip(&sc.want[a..b]) {
                            *rem -= *want * s;
                        }
                    }
                } else {
                    // Checking variant: completions end the window
                    // after this step (the flow-set epoch is an event).
                    let mut done_any = false;
                    for i in 0..k_flows {
                        flows.remaining[i] -= sc.want[i] * sc.node_scale[flows.specs[i].src];
                        if flows.remaining[i] <= 1e-6 {
                            completed.push(flows.ids[i]);
                            done_any = true;
                        }
                    }
                    if done_any {
                        *now_s += dt;
                        taken += 1;
                        break;
                    }
                }
                *now_s += dt;
                taken += 1;
            }
            // The last delivered rate, from the (constant) want and the
            // final step's scale — the same `delivered / dt` bits the
            // per-step path stores every tick.
            for ((rate, &want), s) in flows.last_rate.iter_mut().zip(&sc.want).zip(&flows.specs) {
                *rate = want * sc.node_scale[s.src] / dt;
            }
        }
        self.perf.steps += taken;
        self.perf.rate_cache_hits += taken;
        if !self.link_caps.is_empty() {
            self.perf.link_cache_hits += taken;
        }
        self.perf.event_steps += taken;
        self.perf.event_jumps += 1;

        // Apply completions exactly as a per-step path would have at the
        // completing step.
        self.retire(&completed[first_new..]);
        taken
    }

    /// Advance with **no** flows for `duration` (resting: token refill).
    ///
    /// The event engine delegates to [`Shaper::rest`], which replaces the
    /// per-step virtual idle `transmit` calls with each shaper's (often
    /// closed-form or early-exiting) equivalent; the clock still
    /// advances by the same repeated `+= dt` so `now` stays bitwise
    /// identical to the reference loop.
    pub fn rest(&mut self, duration: f64, dt: f64) {
        assert!(self.flows.is_empty(), "rest() with active flows");
        let steps = (duration / dt).round().max(0.0) as u64;
        if self.path == StepPath::Reference {
            for _ in 0..steps {
                for node in &mut self.nodes {
                    node.shaper.transmit(self.now_s, dt, 0.0);
                    node.last_tx_bits = 0.0;
                }
                self.now_s += dt;
            }
            return;
        }
        for node in &mut self.nodes {
            node.shaper.rest(self.now_s, dt, steps);
            if steps > 0 {
                node.last_tx_bits = 0.0;
            }
        }
        self.now_s = crate::shaper::advance_clock(self.now_s, dt, steps);
    }

    /// Reset every node's shaper and the clock (fresh VMs).
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            node.shaper.reset();
            node.last_tx_bits = 0.0;
            node.total_tx_bits = 0.0;
        }
        self.flows.clear();
        for c in &mut self.active_eg {
            *c = 0;
        }
        for c in &mut self.active_in {
            *c = 0;
        }
        for c in &mut self.active_link {
            *c = 0;
        }
        self.flow_epoch += 1;
        self.now_s = 0.0;
    }
}

/// Multi-tenant cross traffic: a Poisson process of neighbour flows.
///
/// The paper's HPCCloud variability comes from tenants sharing links
/// without QoS; [`crate::shaper::NoiseShaper`] models that at a single
/// endpoint, while `CrossTraffic` models it *inside a fabric* — random
/// neighbour flows between random node pairs contend with the
/// workload's own shuffles through the same max-min allocation, so
/// contention hits exactly the links that happen to be busy.
#[derive(Debug, Clone)]
pub struct CrossTraffic {
    /// Mean neighbour-flow arrivals per second.
    pub arrivals_per_s: f64,
    /// Mean flow size in bits (exponential).
    pub mean_flow_bits: f64,
    /// Per-flow rate cap in bits/s (neighbours rarely get full links).
    pub flow_rate_cap_bps: f64,
    rng: SimRng,
}

impl CrossTraffic {
    /// Create a cross-traffic source.
    pub fn new(arrivals_per_s: f64, mean_flow_bits: f64, flow_rate_cap_bps: f64, seed: u64) -> Self {
        assert!(
            arrivals_per_s >= 0.0 && mean_flow_bits > 0.0 && flow_rate_cap_bps > 0.0,
            "cross-traffic parameters must be positive"
        );
        CrossTraffic {
            arrivals_per_s,
            mean_flow_bits,
            flow_rate_cap_bps,
            rng: SimRng::new(seed),
        }
    }

    /// Inject arrivals for one step of length `dt` into the fabric.
    /// Call once per [`Fabric::step`]; returns the flows started.
    pub fn inject<S: Shaper>(&mut self, fabric: &mut Fabric<S>, dt: f64) -> Vec<FlowId> {
        let n = fabric.node_count();
        if n < 2 || self.arrivals_per_s <= 0.0 {
            return Vec::new();
        }
        let arrivals = self.rng.poisson(self.arrivals_per_s * dt);
        let mut started = Vec::new();
        for _ in 0..arrivals {
            let src = self.rng.index(n);
            let dst = (src + 1 + self.rng.index(n - 1)) % n;
            let bits = self.rng.exponential(1.0 / self.mean_flow_bits);
            let mut spec = FlowSpec::new(src, dst, bits);
            spec.max_rate_bps = self.flow_rate_cap_bps;
            started.push(fabric.start_flow(spec));
        }
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shaper::{StaticShaper, TokenBucket};
    use crate::units::{gbit, gbps};

    fn static_fabric(n: usize, rate: f64) -> Fabric<StaticShaper> {
        let mut f = Fabric::new();
        for _ in 0..n {
            f.add_node(StaticShaper::new(rate), rate);
        }
        f
    }

    #[test]
    fn stalled_node_transmits_nothing_then_recovers() {
        use crate::faults::{FaultEpisode, FaultKind, FaultSchedule};
        let mut f = static_fabric(2, gbps(10.0));
        f.set_fault_schedule(FaultSchedule::from_episodes(
            2,
            100.0,
            [FaultEpisode {
                node: 0,
                start_s: 1.0,
                end_s: 3.0,
                kind: FaultKind::VmStall,
                rate_factor: 0.0,
            }],
        ));
        let id = f.start_flow(FlowSpec::new(0, 1, gbps(10.0) * 10.0));
        // t=0: healthy, full rate.
        f.step(1.0);
        assert!((f.flow_last_rate(id).unwrap() - gbps(10.0)).abs() < 1.0);
        // t=1 and t=2: stalled, nothing moves.
        f.step(1.0);
        assert_eq!(f.flow_last_rate(id).unwrap(), 0.0);
        assert!(f.node_stalled(0));
        assert_eq!(f.node_fault_factor(0), 0.0);
        f.step(1.0);
        assert_eq!(f.flow_last_rate(id).unwrap(), 0.0);
        // t=3: recovered.
        f.step(1.0);
        assert!((f.flow_last_rate(id).unwrap() - gbps(10.0)).abs() < 1.0);
        assert!(!f.node_stalled(0));
    }

    #[test]
    fn degraded_node_transmits_at_reduced_rate() {
        use crate::faults::{FaultEpisode, FaultKind, FaultSchedule};
        let mut f = static_fabric(2, gbps(10.0));
        f.set_fault_schedule(FaultSchedule::from_episodes(
            2,
            100.0,
            [FaultEpisode {
                node: 1,
                start_s: 0.0,
                end_s: 50.0,
                kind: FaultKind::LinkDegrade,
                rate_factor: 0.25,
            }],
        ));
        // Flow *into* the degraded node: ingress is scaled too.
        let id = f.start_flow(FlowSpec::new(0, 1, gbps(10.0) * 100.0));
        f.step(1.0);
        assert!((f.flow_last_rate(id).unwrap() - gbps(2.5)).abs() < 1.0);
    }

    #[test]
    fn empty_fault_schedule_matches_no_schedule() {
        use crate::faults::{FaultConfig, FaultSchedule};
        let run = |with_sched: bool| {
            let mut f = static_fabric(3, gbps(10.0));
            if with_sched {
                f.set_fault_schedule(FaultSchedule::generate(
                    &FaultConfig::NONE,
                    3,
                    1000.0,
                    77,
                ));
            }
            f.start_flow(FlowSpec::new(0, 1, gbit(40.0)));
            f.start_flow(FlowSpec::new(2, 1, gbit(15.0)));
            let mut history = Vec::new();
            for _ in 0..20 {
                f.step(0.5);
                history.push((f.node_last_tx_bits(0), f.node_last_tx_bits(2)));
            }
            history
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn single_flow_gets_line_rate() {
        let mut f = static_fabric(2, gbps(10.0));
        let id = f.start_flow(FlowSpec::new(0, 1, gbps(10.0) * 5.0));
        let mut done = Vec::new();
        for _ in 0..60 {
            done.extend(f.step(0.1));
        }
        assert_eq!(done, vec![id]);
        // 50 Gbit at 10 Gbps = 5 s; completed within 5.0..5.1 s.
        assert!((f.now() - 6.0).abs() < 1e-9);
        assert!((f.node_total_tx_bits(0) - gbps(10.0) * 5.0).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_ingress_fairly() {
        // Nodes 0 and 1 both send to node 2: ingress at 2 is the
        // bottleneck; each should get half.
        let mut f = static_fabric(3, gbps(10.0));
        let a = f.start_flow(FlowSpec::new(0, 2, gbit(100.0)));
        let b = f.start_flow(FlowSpec::new(1, 2, gbit(100.0)));
        f.step(0.1);
        assert!((f.flow_last_rate(a).unwrap() - gbps(5.0)).abs() < 1.0);
        assert!((f.flow_last_rate(b).unwrap() - gbps(5.0)).abs() < 1.0);
    }

    #[test]
    fn egress_sharing_and_unconstrained_flow() {
        // Node 0 sends two flows (shares its 10 Gbps egress), node 1
        // sends one flow to a different destination at full rate.
        let mut f = static_fabric(4, gbps(10.0));
        let a = f.start_flow(FlowSpec::new(0, 2, gbit(1000.0)));
        let b = f.start_flow(FlowSpec::new(0, 3, gbit(1000.0)));
        let c = f.start_flow(FlowSpec::new(1, 2, gbit(1000.0)));
        f.step(0.1);
        // Max-min: a shares egress(0) with b → 5; c gets ingress(2)
        // leftover = min(egress(1)=10, 10-5=5) = 5.
        assert!((f.flow_last_rate(a).unwrap() - gbps(5.0)).abs() < 1.0);
        assert!((f.flow_last_rate(b).unwrap() - gbps(5.0)).abs() < 1.0);
        assert!((f.flow_last_rate(c).unwrap() - gbps(5.0)).abs() < 1.0);
    }

    #[test]
    fn per_flow_cap_releases_bandwidth_to_others() {
        let mut f = static_fabric(3, gbps(10.0));
        let mut spec = FlowSpec::new(0, 2, gbit(1000.0));
        spec.max_rate_bps = gbps(1.0);
        let a = f.start_flow(spec);
        let b = f.start_flow(FlowSpec::new(1, 2, gbit(1000.0)));
        f.step(0.1);
        assert!((f.flow_last_rate(a).unwrap() - gbps(1.0)).abs() < 1.0);
        assert!((f.flow_last_rate(b).unwrap() - gbps(9.0)).abs() < 1.0);
    }

    #[test]
    fn token_bucket_node_throttles_only_its_flows() {
        let mut f: Fabric<TokenBucket> = Fabric::new();
        // Node 0: nearly-empty bucket; node 1: full bucket; node 2: sink.
        let empty = TokenBucket::new(0.0, gbit(5000.0), gbps(10.0), gbps(1.0), gbps(1.0));
        let full = TokenBucket::new(gbit(5000.0), gbit(5000.0), gbps(10.0), gbps(1.0), gbps(1.0));
        let sink = TokenBucket::sigma_rho(gbit(1e6), gbps(20.0), gbps(20.0));
        f.add_node(empty, gbps(20.0));
        f.add_node(full, gbps(20.0));
        f.add_node(sink, gbps(20.0));
        let slow = f.start_flow(FlowSpec::new(0, 2, gbit(1000.0)));
        let fast = f.start_flow(FlowSpec::new(1, 2, gbit(1000.0)));
        f.step(0.1);
        let r_slow = f.flow_last_rate(slow).unwrap();
        let r_fast = f.flow_last_rate(fast).unwrap();
        assert!(r_slow < gbps(1.3), "slow {r_slow}");
        assert!(r_fast > gbps(9.0), "fast {r_fast}");
    }

    #[test]
    fn rest_refills_buckets() {
        let mut f: Fabric<TokenBucket> = Fabric::new();
        let tb = TokenBucket::new(0.0, gbit(5000.0), gbps(10.0), gbps(1.0), gbps(1.0));
        f.add_node(tb, gbps(10.0));
        f.rest(120.0, 0.1);
        assert!((f.node_shaper(0).budget_bits() - gbit(120.0)).abs() < gbit(0.01));
        assert!((f.now() - 120.0).abs() < 1e-6);
    }

    #[test]
    fn reset_restores_everything() {
        let mut f = static_fabric(2, gbps(10.0));
        f.start_flow(FlowSpec::new(0, 1, gbit(1.0)));
        f.step(0.1);
        f.reset();
        assert_eq!(f.now(), 0.0);
        assert_eq!(f.active_flows(), 0);
        assert_eq!(f.node_total_tx_bits(0), 0.0);
    }

    #[test]
    fn completion_order_is_deterministic() {
        let mut f = static_fabric(3, gbps(10.0));
        let a = f.start_flow(FlowSpec::new(0, 2, gbit(1.0)));
        let b = f.start_flow(FlowSpec::new(1, 2, gbit(1.0)));
        // Both complete in the same step; ids reported in order.
        let done = f.step(1.0);
        assert_eq!(done, vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn rejects_loopback_flows() {
        let mut f = static_fabric(2, gbps(10.0));
        f.start_flow(FlowSpec::new(1, 1, 1.0));
    }

    #[test]
    fn oversubscribed_core_caps_aggregate_rate() {
        // 4 senders to 4 distinct receivers: node caps allow 40 Gbps
        // aggregate, but a 10 Gbps core forces 2.5 Gbps each.
        let mut f = static_fabric(8, gbps(10.0));
        f.set_core_capacity(gbps(10.0));
        let ids: Vec<_> = (0..4)
            .map(|i| f.start_flow(FlowSpec::new(i, i + 4, gbit(1000.0))))
            .collect();
        f.step(0.1);
        for id in &ids {
            assert!((f.flow_last_rate(*id).unwrap() - gbps(2.5)).abs() < 1.0);
        }
        // Removing the constraint restores full bisection bandwidth.
        f.clear_core_capacity();
        f.step(0.1);
        for id in &ids {
            assert!((f.flow_last_rate(*id).unwrap() - gbps(10.0)).abs() < 1.0);
        }
    }

    #[test]
    fn core_interacts_with_per_node_caps() {
        // One sender capped at 1 Gbps by its own NIC; others share the
        // remaining core fairly.
        let mut f: Fabric<StaticShaper> = Fabric::new();
        f.add_node(StaticShaper::new(gbps(1.0)), gbps(10.0));
        for _ in 0..3 {
            f.add_node(StaticShaper::new(gbps(10.0)), gbps(10.0));
        }
        f.set_core_capacity(gbps(7.0));
        let a = f.start_flow(FlowSpec::new(0, 2, gbit(1000.0)));
        let b = f.start_flow(FlowSpec::new(1, 3, gbit(1000.0)));
        f.step(0.1);
        // a limited by its 1 Gbps NIC; b gets the core's leftover 6.
        assert!((f.flow_last_rate(a).unwrap() - gbps(1.0)).abs() < 1.0);
        assert!((f.flow_last_rate(b).unwrap() - gbps(6.0)).abs() < 1.0);
    }

    #[test]
    fn cross_traffic_injects_poisson_flows() {
        let mut f = static_fabric(6, gbps(10.0));
        let mut ct = CrossTraffic::new(5.0, gbit(2.0), gbps(2.0), 7);
        let mut started = 0usize;
        for _ in 0..1000 {
            started += ct.inject(&mut f, 0.1).len();
            f.step(0.1);
        }
        // ~5/s over 100 s → ~500 arrivals, Poisson spread.
        assert!(started > 350 && started < 650, "started {started}");
    }

    #[test]
    fn cross_traffic_steals_bandwidth_from_a_foreground_flow() {
        let transfer_time = |with_noise: bool| {
            // Offered noise load (2/s × 5 Gbit = 10 Gbps) stays below
            // the fabric's capacity so the flow population is stable.
            let mut f = static_fabric(4, gbps(10.0));
            let mut ct = CrossTraffic::new(2.0, gbit(5.0), gbps(5.0), 3);
            let id = f.start_flow(FlowSpec::new(0, 1, gbit(400.0)));
            let mut t = 0.0;
            loop {
                if with_noise {
                    ct.inject(&mut f, 0.1);
                }
                let done = f.step(0.1);
                t += 0.1;
                if done.contains(&id) {
                    return t;
                }
                assert!(t < 10_000.0, "foreground flow starved");
            }
        };
        let clean = transfer_time(false);
        let noisy = transfer_time(true);
        assert!(noisy > 1.1 * clean, "clean {clean} noisy {noisy}");
    }

    #[test]
    fn cross_traffic_is_deterministic() {
        let run = || {
            let mut f = static_fabric(4, gbps(10.0));
            let mut ct = CrossTraffic::new(3.0, gbit(1.0), gbps(1.0), 11);
            let mut ids = Vec::new();
            for _ in 0..200 {
                ids.extend(ct.inject(&mut f, 0.1));
                f.step(0.1);
            }
            ids.len()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_link_bottlenecks_routed_flows() {
        // Two 10 Gbps senders into two receivers, but both routes cross
        // one 4 Gbps directed link: each flow gets 2 Gbps, not 10.
        let mut f = static_fabric(4, gbps(10.0));
        f.set_link_caps(vec![gbps(4.0)]);
        let a = f.start_flow_routed(FlowSpec::new(0, 2, gbit(100.0)), LinkRoute::new(&[0]));
        let b = f.start_flow_routed(FlowSpec::new(1, 3, gbit(100.0)), LinkRoute::new(&[0]));
        f.step(0.1);
        assert!((f.flow_last_rate(a).unwrap() - gbps(2.0)).abs() < 1.0);
        assert!((f.flow_last_rate(b).unwrap() - gbps(2.0)).abs() < 1.0);
        assert!(f.perf().link_recomputes > 0);
    }

    #[test]
    fn unrouted_flow_ignores_installed_links() {
        let mut f = static_fabric(2, gbps(10.0));
        f.set_link_caps(vec![gbps(1.0)]);
        let id = f.start_flow(FlowSpec::new(0, 1, gbit(100.0)));
        f.step(0.1);
        assert!((f.flow_last_rate(id).unwrap() - gbps(10.0)).abs() < 1.0);
    }

    #[test]
    fn linked_max_min_frees_headroom_for_unbottlenecked_flows() {
        // Flow a crosses a 2 Gbps link; flow b shares a's 10 Gbps source
        // but not the link, so max-min gives b the 8 Gbps a cannot use.
        let mut f = static_fabric(3, gbps(10.0));
        f.set_link_caps(vec![gbps(2.0)]);
        let a = f.start_flow_routed(FlowSpec::new(0, 1, gbit(100.0)), LinkRoute::new(&[0]));
        let b = f.start_flow(FlowSpec::new(0, 2, gbit(100.0)));
        f.step(0.1);
        assert!((f.flow_last_rate(a).unwrap() - gbps(2.0)).abs() < 1.0);
        assert!((f.flow_last_rate(b).unwrap() - gbps(8.0)).abs() < 1.0);
    }

    #[test]
    fn linked_fabric_is_bit_identical_across_both_engines() {
        let run = |path: StepPath| {
            let mut f: Fabric<TokenBucket> = Fabric::new();
            for _ in 0..6 {
                f.add_node(
                    TokenBucket::new(gbit(8.0), gbit(8.0), gbps(10.0), gbps(1.0), gbps(1.0)),
                    gbps(10.0),
                );
            }
            f.force_path(path);
            // A 3-link chain shared pairwise by staggered flows.
            f.set_link_caps(vec![gbps(3.0), gbps(5.0), gbps(7.0)]);
            let mut rng = SimRng::new(0x70b0);
            let mut completed = Vec::new();
            for round in 0..20u64 {
                let src = rng.index(6);
                let dst = (src + 1 + rng.index(5)) % 6;
                let links: &[u32] = match round % 4 {
                    0 => &[0],
                    1 => &[0, 1],
                    2 => &[1, 2],
                    _ => &[],
                };
                f.start_flow_routed(
                    FlowSpec::new(src, dst, gbit(2.0) * (1.0 + rng.uniform())),
                    LinkRoute::new(links),
                );
                f.advance(0.01, 50, &mut completed);
            }
            f.advance(0.01, 200_000, &mut completed);
            let mut sig = Vec::new();
            sig.push(f.now().to_bits());
            for v in 0..6 {
                sig.push(f.node_total_tx_bits(v).to_bits());
            }
            sig.extend(completed.iter().map(|id| id.0));
            (sig, f.active_flows())
        };
        let ev = run(StepPath::Event);
        let slow = run(StepPath::Reference);
        assert_eq!(ev, slow, "event vs reference diverged on a linked fabric");
    }

    #[test]
    fn empty_link_set_is_bitwise_the_flat_fabric() {
        let run = |install_empty: bool| {
            let mut f: Fabric<TokenBucket> = Fabric::new();
            for _ in 0..4 {
                f.add_node(
                    TokenBucket::new(gbit(4.0), gbit(4.0), gbps(10.0), gbps(1.0), gbps(1.0)),
                    gbps(10.0),
                );
            }
            if install_empty {
                f.set_link_caps(Vec::new());
            }
            let mut completed = Vec::new();
            for i in 0..8 {
                f.start_flow(FlowSpec::new(i % 4, (i + 1) % 4, gbit(3.0)));
                f.advance(0.01, 100, &mut completed);
            }
            f.advance(0.01, 100_000, &mut completed);
            let perf = f.perf();
            (
                f.now().to_bits(),
                (0..4).map(|v| f.node_total_tx_bits(v).to_bits()).collect::<Vec<_>>(),
                completed,
                perf.rate_recomputes,
                perf.link_recomputes + perf.link_cache_hits,
            )
        };
        let flat = run(false);
        let installed = run(true);
        assert_eq!(flat.4, 0, "flat fabric must book no link counters");
        assert_eq!(installed.4, 0, "empty link set must book no link counters");
        assert_eq!(flat, installed);
    }
}
