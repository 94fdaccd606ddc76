//! Event-engine equivalence suite (DESIGN.md §10).
//!
//! The event-driven stepping engine jumps the fabric between
//! closed-form event horizons (token-bucket crossings, QoS burst
//! boundaries, fault-schedule edges, flow-completion epochs) and must
//! be **bit-identical** to the reference loops in every observable —
//! not merely close. These properties drive randomized campaigns
//! (mixed shaper kinds, fault schedules, core capacities, flow churn)
//! through an event-path fabric and a `force_path(StepPath::Reference)`
//! twin via [`Fabric::advance`], stopping the event fabric at every event
//! boundary [`Fabric::next_event`] reports and comparing rates, queue
//! depths (token budgets), flow state, and an accumulated golden trace
//! hash bitwise at each boundary. RNG-bearing shapers (PerCoreQos,
//! NoiseShaper) pin the RNG stream position: one skipped or duplicated
//! `transmit` would desynchronize the stream and surface in the very
//! next grant.
//!
//! Adversarial cases cover zero-length events (horizon 0 at entry),
//! simultaneous crossings (identical twins depleting on the same
//! step + equal-size flows completing together), bursts of 32-256
//! equal-size flows completing in the same windows between survivors,
//! a fault edge landing exactly on a token-bucket refill crossing, and
//! a link that turns binding halfway through a water-filling round.

use netsim::fabric::{EventCause, Fabric, FlowId, FlowSpec, StepPath};
use netsim::faults::{FaultConfig, FaultEpisode, FaultKind, FaultSchedule};
use netsim::rng::SimRng;
use netsim::shaper::{
    MinShaper, NoiseConfig, NoiseShaper, PerCoreQos, PerCoreQosConfig, Shaper, StaticShaper,
    TokenBucket,
};
use netsim::LinkRoute;
use proplite::prelude::*;

/// One of the shaper kinds the fabric is exercised with. Construction
/// is a pure function of `(kind, seed)` so the event and reference
/// fabrics get bitwise-identical twins.
fn make_shaper(kind: usize, seed: u64) -> Box<dyn Shaper + Send> {
    match kind % 5 {
        0 => Box::new(TokenBucket::sigma_rho(
            40e9 + (seed % 7) as f64 * 10e9,
            1e9,
            10e9,
        )),
        1 => Box::new(PerCoreQos::new(PerCoreQosConfig::gce(4), seed)),
        2 => Box::new(NoiseShaper::new(NoiseConfig::hpccloud(), seed)),
        3 => Box::new(StaticShaper::new(5e9 + (seed % 5) as f64 * 1e9)),
        _ => Box::new(MinShaper::new(
            TokenBucket::sigma_rho(60e9, 2e9, 8e9).with_idle_refill(4e9),
            StaticShaper::new(9e9),
        )),
    }
}

type DynFabric = Fabric<Box<dyn Shaper + Send>>;

/// Build the event-path fabric and its reference-path twin from the
/// same construction script.
fn build_pair(
    kinds: &[usize],
    seed: u64,
    with_faults: bool,
    core_gbps: Option<f64>,
) -> (DynFabric, DynFabric) {
    let build = || {
        let mut f: DynFabric = Fabric::new();
        for (v, &k) in kinds.iter().enumerate() {
            f.add_node(make_shaper(k, seed ^ v as u64), 10e9);
        }
        if with_faults {
            let cfg = FaultConfig {
                stall_rate_per_hour: 30.0,
                stall_mean_s: 4.0,
                degrade_rate_per_hour: 60.0,
                degrade_mean_s: 8.0,
                degrade_min_factor: 0.2,
                degrade_max_factor: 0.8,
                loss_rate_per_hour: 20.0,
                loss_mean_s: 3.0,
                loss_frac: 0.3,
                probe_loss_prob: 0.0,
                pair_death_rate_per_hour: 0.0,
            };
            f.set_fault_schedule(FaultSchedule::generate(&cfg, kinds.len(), 600.0, seed));
        }
        if let Some(g) = core_gbps {
            f.set_core_capacity(g * 1e9);
        }
        f
    };
    let mut event = build();
    event.force_path(StepPath::Event);
    let mut reference = build();
    reference.force_path(StepPath::Reference);
    (event, reference)
}

/// FNV-1a over one fabric's observable state: the golden trace hash
/// sampled at event boundaries. Identical streams of boundary hashes
/// are the campaign-level equivalence witness.
fn golden_hash(acc: &mut u64, f: &DynFabric, flows: &[FlowId]) {
    let mut fold = |x: u64| {
        *acc ^= x;
        *acc = acc.wrapping_mul(0x100_0000_01b3);
    };
    fold(f.now().to_bits());
    fold(f.active_flows() as u64);
    for v in 0..f.node_count() {
        fold(f.node_last_tx_bits(v).to_bits());
        fold(f.node_total_tx_bits(v).to_bits());
        fold(
            f.node_shaper(v)
                .token_budget_bits()
                .map(f64::to_bits)
                .unwrap_or(1),
        );
    }
    for &id in flows {
        fold(f.flow_remaining_bits(id).map(f64::to_bits).unwrap_or(2));
        fold(f.flow_last_rate(id).map(f64::to_bits).unwrap_or(3));
    }
}

/// Compare every observable of the two fabrics bitwise.
fn assert_fabrics_bit_equal(
    event: &DynFabric,
    reference: &DynFabric,
    flows: &[FlowId],
    ctx: &str,
) {
    assert_eq!(
        event.now().to_bits(),
        reference.now().to_bits(),
        "clock diverged ({ctx})"
    );
    assert_eq!(
        event.active_flows(),
        reference.active_flows(),
        "flow count ({ctx})"
    );
    for v in 0..event.node_count() {
        assert_eq!(
            event.node_last_tx_bits(v).to_bits(),
            reference.node_last_tx_bits(v).to_bits(),
            "node {v} last_tx ({ctx})"
        );
        assert_eq!(
            event.node_total_tx_bits(v).to_bits(),
            reference.node_total_tx_bits(v).to_bits(),
            "node {v} total_tx ({ctx})"
        );
        let be = event.node_shaper(v).token_budget_bits().map(f64::to_bits);
        let br = reference
            .node_shaper(v)
            .token_budget_bits()
            .map(f64::to_bits);
        assert_eq!(be, br, "node {v} token budget ({ctx})");
    }
    for &id in flows {
        assert_eq!(
            event.flow_remaining_bits(id).map(f64::to_bits),
            reference.flow_remaining_bits(id).map(f64::to_bits),
            "flow {id:?} remaining ({ctx})"
        );
        assert_eq!(
            event.flow_last_rate(id).map(f64::to_bits),
            reference.flow_last_rate(id).map(f64::to_bits),
            "flow {id:?} last rate ({ctx})"
        );
    }
}

/// Drive both fabrics through an identical randomized campaign of flow
/// churn and `advance` calls. The event fabric's budget alternates
/// between exactly-one-event windows (from [`Fabric::next_event`], so
/// the comparison lands on every event boundary — including horizon-0,
/// i.e. zero-length, events) and random budgets that truncate windows
/// mid-flight. Golden trace hashes accumulate at every boundary and
/// must agree at every boundary.
fn run_event_script(
    event: &mut DynFabric,
    reference: &mut DynFabric,
    script_seed: u64,
    epochs: usize,
    dt: f64,
) {
    let mut rng = SimRng::new(script_seed);
    let mut all_flows: Vec<FlowId> = Vec::new();
    let (mut hash_e, mut hash_r) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    let n = event.node_count();
    for epoch in 0..epochs {
        if rng.chance(0.5) || event.active_flows() == 0 {
            for _ in 0..rng.index(4) + 1 {
                let src = rng.index(n);
                let dst = (src + 1 + rng.index(n - 1)) % n;
                let bits = rng.uniform_in(5e8, 2e10);
                let mut spec = FlowSpec::new(src, dst, bits);
                if rng.chance(0.3) {
                    spec.max_rate_bps = rng.uniform_in(5e8, 6e9);
                }
                let a = event.start_flow(spec);
                let b = reference.start_flow(spec);
                assert_eq!(a, b, "flow ids diverged");
                all_flows.push(a);
            }
        }
        // Now and then a src-major burst of equal-size flows (a
        // shuffle's shape) starts beside the survivors: many of them
        // finish in the same window, interleaved in id order with
        // flows that do not, so one-pass retirement must drop exactly
        // the completed entries.
        if rng.chance(0.03) {
            let count = 32 + rng.index(225);
            let bits = rng.uniform_in(5e8, 2e9);
            for i in 0..count {
                let src = i * n / count;
                let dst = (src + 1 + i % (n - 1)) % n;
                let spec = FlowSpec::new(src, dst, bits);
                let a = event.start_flow(spec);
                let b = reference.start_flow(spec);
                assert_eq!(a, b, "flow ids diverged");
                all_flows.push(a);
            }
        }
        // Pick this epoch's budget: stop exactly at the next event
        // boundary (+1 so horizon-0 events still make progress), or
        // truncate a window at a random earlier point.
        let budget = if rng.chance(0.7) {
            let ev = event.next_event(dt, 100_000);
            ev.steps.saturating_add(1).min(256)
        } else {
            rng.index(24) as u64 + 1
        };
        let mut done_e = Vec::new();
        let mut done_r = Vec::new();
        let te = event.advance(dt, budget, &mut done_e);
        let tr = reference.advance(dt, budget, &mut done_r);
        assert_eq!(te, tr, "steps taken diverged at epoch {epoch}");
        assert_eq!(done_e, done_r, "completions diverged at epoch {epoch}");
        assert_fabrics_bit_equal(event, reference, &all_flows, &format!("epoch {epoch}"));
        golden_hash(&mut hash_e, event, &all_flows);
        golden_hash(&mut hash_r, reference, &all_flows);
        assert_eq!(hash_e, hash_r, "golden trace hash diverged at epoch {epoch}");

        // Occasionally drain everything and rest, exercising the idle
        // jump (closed-form shaper rests) against the reference loop.
        if rng.chance(0.05) {
            let mut done_e = Vec::new();
            let mut done_r = Vec::new();
            while event.active_flows() > 0 {
                let te = event.advance(dt, 4_000_000, &mut done_e);
                let tr = reference.advance(dt, te, &mut done_r);
                assert_eq!(te, tr, "drain steps diverged");
            }
            assert_eq!(done_e, done_r, "drain completions diverged");
            assert_fabrics_bit_equal(event, reference, &all_flows, "after drain");
            let window = rng.uniform_in(1.0, 40.0);
            event.rest(window, dt);
            reference.rest(window, dt);
            assert_fabrics_bit_equal(event, reference, &all_flows, "after rest");
        }
    }
    // RNG-position pin: one more grant from every shaper. A skipped or
    // duplicated transmit anywhere in the campaign desynchronizes
    // PerCoreQos / NoiseShaper RNG streams and shows up here even if
    // every earlier observable happened to agree.
    for _ in 0..3 {
        let ce = event.step(dt);
        let cr = reference.step(dt);
        assert_eq!(ce, cr, "post-campaign completions diverged");
    }
    assert_fabrics_bit_equal(event, reference, &all_flows, "rng position pin");
}

/// Water-filling reads each resource's residual *during* the freeze
/// sweep, so a link that is not binding at the start of a round can
/// turn binding because flows frozen earlier in the same round lowered
/// its residual; later flows crossing it then freeze in that round. The
/// event engine keeps a binding verdict per resource instead of
/// dividing per flow, and must re-evaluate a verdict read after a
/// freeze lowered that resource — a verdict evaluated once per round
/// would let the later flow climb to the next round's share.
#[test]
fn link_turning_binding_mid_round_matches_the_reference() {
    let dt = 0.01;
    let build = |path: StepPath| {
        let mut f: DynFabric = Fabric::new();
        for _ in 0..4 {
            f.add_node(Box::new(StaticShaper::new(10e9)), 10e9);
        }
        f.set_link_caps(vec![2.5e9, 1e9]);
        f.force_path(path);
        f
    };
    let mut event = build(StepPath::Event);
    let mut reference = build(StepPath::Reference);
    // Round 1: link 1, crossed by the first flow alone, sets the 1 Gbps
    // share. The first flow reads link 0 on its way to link 1 and finds
    // it free (2.5 / 2 = 1.25 Gbps per flow, above the share); its
    // freeze leaves 1.5 / 2, so link 0 binds the second flow in the
    // same round.
    let mut flows = Vec::new();
    for (src, dst, route) in [(0, 1, &[0u32, 1][..]), (2, 3, &[0][..])] {
        let spec = FlowSpec::new(src, dst, 1e12);
        let a = event.start_flow_routed(spec, LinkRoute::new(route));
        let b = reference.start_flow_routed(spec, LinkRoute::new(route));
        assert_eq!(a, b);
        flows.push(a);
    }
    let (mut done_e, mut done_r) = (Vec::new(), Vec::new());
    for budget in [1, 1, 64, 1000] {
        let te = event.advance(dt, budget, &mut done_e);
        let tr = reference.advance(dt, budget, &mut done_r);
        assert_eq!(te, tr);
        assert_fabrics_bit_equal(&event, &reference, &flows, "mid-round binding link");
    }
    for &id in &flows {
        let rate = event.flow_last_rate(id).unwrap();
        assert!((rate - 1e9).abs() < 1.0, "flow {id:?} rate {rate}, want the 1 Gbps share");
    }
    assert!(event.perf().event_steps > 0, "the event kernel never ran");
}

/// A window that completes every in-flight flow retires the whole
/// table at once (columns cleared, per-node and per-link counts
/// zeroed). A routed burst started right after must water-fill on
/// counts holding only its own flows: it crosses the same link-bound
/// access links as the retired shuffle, so a stale count would lower
/// its share below the reference's, which recounts every step.
#[test]
fn whole_table_retirement_then_a_new_burst_matches_the_reference() {
    const N: usize = 6;
    let dt = 0.01;
    let build = |path: StepPath| {
        let mut f: DynFabric = Fabric::new();
        for _ in 0..N {
            f.add_node(Box::new(StaticShaper::new(10e9)), 10e9);
        }
        // Slots 2v / 2v + 1: node v's 2 Gbps access link up / down;
        // then one 40 Gbps spine up / down pair.
        let mut caps = vec![2e9; 2 * N];
        caps.extend([40e9, 40e9]);
        f.set_link_caps(caps);
        f.force_path(path);
        f
    };
    let spine = 2 * N as u32;
    let route = |s: usize, d: usize| LinkRoute::new(&[2 * s as u32, spine, spine + 1, 2 * d as u32 + 1]);
    let mut event = build(StepPath::Event);
    let mut reference = build(StepPath::Reference);
    let mut flows: Vec<FlowId> = Vec::new();
    let admit = |f: &mut DynFabric, specs: &[FlowSpec]| {
        f.start_flows(specs.iter().copied(), |_, specs, routes| {
            for (r, s) in routes.iter_mut().zip(specs) {
                *r = route(s.src, s.dst);
            }
        })
    };

    // An all-to-all of equal flows on symmetric routes: every flow gets
    // the same rate and completes in the same step.
    let shuffle: Vec<FlowSpec> = (0..N)
        .flat_map(|s| (0..N).filter(move |&d| d != s).map(move |d| FlowSpec::new(s, d, 1e8)))
        .collect();
    let a = admit(&mut event, &shuffle);
    assert_eq!(a, admit(&mut reference, &shuffle));
    flows.extend(a.iter());
    let (mut done_e, mut done_r) = (Vec::new(), Vec::new());
    let te = event.advance(dt, 10_000, &mut done_e);
    let tr = reference.advance(dt, 10_000, &mut done_r);
    assert_eq!((te, &done_e), (tr, &done_r), "shuffle drain diverged");
    assert_eq!(done_e, a.iter().collect::<Vec<_>>(), "every flow completes");
    assert_eq!(event.active_flows(), 0);
    let perf = event.perf();
    assert_eq!(perf.event_steps, perf.steps, "the shuffle drained in event windows");
    assert_fabrics_bit_equal(&event, &reference, &flows, "after whole-table retirement");

    // The follow-up burst shares node 0's uplink two ways and node 1's
    // downlink two ways.
    let burst = [
        FlowSpec::new(0, 1, 1e10),
        FlowSpec::new(0, 2, 1e10),
        FlowSpec::new(3, 1, 1e10),
    ];
    let b = admit(&mut event, &burst);
    assert_eq!(b, admit(&mut reference, &burst));
    flows.extend(b.iter());
    for budget in [1, 3, 50, 10_000] {
        let (mut done_e, mut done_r) = (Vec::new(), Vec::new());
        let te = event.advance(dt, budget, &mut done_e);
        let tr = reference.advance(dt, budget, &mut done_r);
        assert_eq!((te, &done_e), (tr, &done_r), "burst diverged at budget {budget}");
        assert_fabrics_bit_equal(&event, &reference, &flows, "burst after retirement");
        if budget == 1 {
            let rate = event.flow_last_rate(b.start()).unwrap();
            assert!((rate - 1e9).abs() < 1.0, "rate {rate}, want half the 2 Gbps uplink");
        }
    }
    assert_eq!(event.active_flows(), 0);
}

prop_cases! {
    #![config(Config::with_cases(24))]

    /// The flagship property: mixed shapers, random flow churn, faults
    /// and core capacity on or off — every observable bitwise equal
    /// between the event-jumped and reference paths at every event
    /// boundary, with matching golden trace hashes.
    #[test]
    fn event_path_is_bit_identical(
        seed in 0u64..100_000,
        n_nodes in 2usize..7,
        with_faults in bools(),
        with_core in bools(),
        dt_ms in 50u64..500,
    ) {
        let mut rng = SimRng::new(seed ^ 0xE7);
        let kinds: Vec<usize> = (0..n_nodes).map(|_| rng.index(5)).collect();
        let core = if with_core { Some(12.0) } else { None };
        let (mut event, mut reference) = build_pair(&kinds, seed, with_faults, core);
        run_event_script(&mut event, &mut reference, seed ^ 0x5C817, 80, dt_ms as f64 / 1000.0);
    }

    /// Token-bucket-only campaign: long depleted stretches make the
    /// busy hints open maximal windows, so jumps cover nearly every
    /// step — the regime the fig19 campaign lives in.
    #[test]
    fn event_path_depletion_regime(seed in 0u64..100_000, dt_ms in 100u64..600) {
        let kinds = [0usize, 0, 0, 0];
        let (mut event, mut reference) = build_pair(&kinds, seed, false, None);
        run_event_script(&mut event, &mut reference, seed, 60, dt_ms as f64 / 1000.0);
        let perf = event.perf();
        assert!(perf.event_jumps > 0, "event engine never jumped: {perf:?}");
        assert!(
            perf.event_steps > perf.steps / 2,
            "jumps covered too few steps: {perf:?}"
        );
    }

    /// Zero-length events: a fabric whose next event horizon is 0 at
    /// entry (fault transition in the very first step) must degrade to
    /// single honest steps, never stall, and stay bit-identical.
    #[test]
    fn zero_length_events_make_progress(seed in 0u64..100_000) {
        let kinds = [0usize, 1, 0];
        let build = || {
            let mut f: DynFabric = Fabric::new();
            for (v, &k) in kinds.iter().enumerate() {
                f.add_node(make_shaper(k, seed ^ v as u64), 10e9);
            }
            // Transitions denser than the step cadence: every horizon
            // is 0 or 1 for the whole campaign.
            let eps = (0..40).map(|i| FaultEpisode {
                node: i % 3,
                start_s: i as f64 * 0.25,
                end_s: i as f64 * 0.25 + 0.125,
                kind: FaultKind::LinkDegrade,
                rate_factor: 0.5,
            });
            f.set_fault_schedule(FaultSchedule::from_episodes(3, 60.0, eps));
            f
        };
        let mut event = build();
        event.force_path(StepPath::Event);
        let mut reference = build();
        reference.force_path(StepPath::Reference);

        let ev = event.next_event(0.25, 1000);
        prop_assert!(ev.steps <= 1, "expected dense horizon, got {:?}", ev);

        run_event_script(&mut event, &mut reference, seed, 40, 0.25);

        // An explicit zero budget is a no-op on both paths.
        let before = event.now().to_bits();
        let mut done = Vec::new();
        prop_assert_eq!(event.advance(0.25, 0, &mut done), 0);
        prop_assert_eq!(reference.advance(0.25, 0, &mut done), 0);
        prop_assert_eq!(event.now().to_bits(), before);
        prop_assert!(done.is_empty());
    }

    /// Simultaneous crossings: identical token buckets deplete on the
    /// same step, and equal-size flows complete on the same step. The
    /// event engine must report the completions in the same order and
    /// land both crossings on the same boundary as the reference.
    #[test]
    fn simultaneous_crossings(seed in 0u64..100_000, pairs in 2usize..5) {
        let kinds = vec![0usize; pairs * 2];
        let (mut event, mut reference) = build_pair(&kinds, seed & !0x3, false, None);
        let mut flows = Vec::new();
        for p in 0..pairs {
            // Same size both directions: completions coincide.
            for (s, d) in [(2 * p, 2 * p + 1), (2 * p + 1, 2 * p)] {
                let spec = FlowSpec::new(s, d, 3e10);
                let a = event.start_flow(spec);
                let b = reference.start_flow(spec);
                prop_assert_eq!(a, b);
                flows.push(a);
            }
        }
        let mut done_e = Vec::new();
        let mut done_r = Vec::new();
        let mut guard = 0;
        while event.active_flows() > 0 {
            let te = event.advance(0.5, 64, &mut done_e);
            let tr = reference.advance(0.5, te.max(1), &mut done_r);
            prop_assert_eq!(te, tr);
            assert_fabrics_bit_equal(&event, &reference, &flows, "simultaneous");
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not terminate");
        }
        prop_assert_eq!(&done_e, &done_r);
        // All flows completed, in id order within each completing step.
        prop_assert_eq!(done_e.len(), pairs * 2);
    }

    /// A fault edge landing exactly on a token-bucket refill crossing:
    /// both events collapse onto one boundary and neither may be
    /// skipped or double-applied.
    #[test]
    fn fault_edge_on_refill_crossing(seed in 0u64..100_000, edge_steps in 4u64..40) {
        let dt = 0.5;
        let edge_t = edge_steps as f64 * dt;
        let build = || {
            let mut f: DynFabric = Fabric::new();
            for v in 0..3usize {
                // Small bucket: depletes quickly under saturation, then
                // rides the refill floor — the refill-crossing regime.
                f.add_node(
                    Box::new(TokenBucket::sigma_rho(5e9, 1e9, 10e9)) as Box<dyn Shaper + Send>,
                    10e9,
                );
                let _ = v;
            }
            // Episode edges exactly on step multiples of the campaign
            // cadence, so the fault transition and the bucket's refill
            // crossing land on the same boundary.
            let eps = [
                FaultEpisode {
                    node: 0,
                    start_s: edge_t,
                    end_s: edge_t + 2.0 * dt,
                    kind: FaultKind::VmStall,
                    rate_factor: 0.0,
                },
                FaultEpisode {
                    node: 1,
                    start_s: edge_t,
                    end_s: edge_t + 4.0 * dt,
                    kind: FaultKind::LinkDegrade,
                    rate_factor: 0.25,
                },
            ];
            f.set_fault_schedule(FaultSchedule::from_episodes(3, 600.0, eps));
            f
        };
        let mut event = build();
        event.force_path(StepPath::Event);
        let mut reference = build();
        reference.force_path(StepPath::Reference);
        let mut flows = Vec::new();
        for (s, d) in [(0usize, 1usize), (1, 2), (2, 0)] {
            let spec = FlowSpec::new(s, d, 1e12 + (seed % 100) as f64 * 1e9);
            let a = event.start_flow(spec);
            let b = reference.start_flow(spec);
            prop_assert_eq!(a, b);
            flows.push(a);
        }
        // March across the edge one event boundary at a time.
        let mut done_e = Vec::new();
        let mut done_r = Vec::new();
        let mut crossed_fault_boundary = false;
        while event.now() < edge_t + 6.0 * dt {
            let ev = event.next_event(dt, 100_000);
            if matches!(ev.cause, EventCause::FaultTransition) {
                crossed_fault_boundary = true;
            }
            let budget = ev.steps.saturating_add(1).min(128);
            let te = event.advance(dt, budget, &mut done_e);
            let tr = reference.advance(dt, budget, &mut done_r);
            prop_assert_eq!(te, tr);
            prop_assert!(te > 0, "no progress across the fault edge");
            assert_fabrics_bit_equal(&event, &reference, &flows, "fault edge");
        }
        prop_assert_eq!(&done_e, &done_r);
        prop_assert!(
            crossed_fault_boundary,
            "campaign never saw the fault-transition horizon"
        );
    }
}
