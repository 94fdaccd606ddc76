//! General-step equivalence suite (DESIGN.md §9).
//!
//! The event engine's general step, [`Fabric::step`] (scratch buffers,
//! incremental active-flow counts, signature-keyed rate cache,
//! closed-form shaper rests), must be **bit-identical** to the
//! reference loops — not merely close. These properties drive
//! randomized scripts (mixed shaper kinds, random flow sets, fault
//! schedules, core capacities, drain and rest windows) through a
//! default fabric and a `force_path(StepPath::Reference)` twin,
//! comparing every observable with `f64::to_bits` after every step;
//! plus exact closed-form-`rest`-vs-idle-loop tests for every shaper
//! implementation.

use netsim::fabric::{Fabric, FlowId, FlowSpec, StepPath};
use netsim::faults::{FaultConfig, FaultInjector, FaultSchedule};
use netsim::rng::SimRng;
use netsim::shaper::{
    EmpiricalShaper, MinShaper, NoiseConfig, NoiseShaper, PerCoreQos, PerCoreQosConfig,
    QuantileDist, Shaper, StaticShaper, TokenBucket,
};
use proplite::prelude::*;

/// One of the shaper kinds the fabric is exercised with. Construction
/// is a pure function of `(kind, seed)` so the fast and reference
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

/// Build the fast fabric and its reference-path twin from the same
/// construction script.
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
    let fast = build();
    let mut reference = build();
    reference.force_path(StepPath::Reference);
    (fast, reference)
}

/// Compare every observable of the two fabrics bitwise.
fn assert_fabrics_bit_equal(fast: &DynFabric, reference: &DynFabric, flows: &[FlowId], ctx: &str) {
    assert_eq!(
        fast.now().to_bits(),
        reference.now().to_bits(),
        "clock diverged ({ctx})"
    );
    assert_eq!(fast.active_flows(), reference.active_flows(), "flow count ({ctx})");
    for v in 0..fast.node_count() {
        assert_eq!(
            fast.node_last_tx_bits(v).to_bits(),
            reference.node_last_tx_bits(v).to_bits(),
            "node {v} last_tx ({ctx})"
        );
        assert_eq!(
            fast.node_total_tx_bits(v).to_bits(),
            reference.node_total_tx_bits(v).to_bits(),
            "node {v} total_tx ({ctx})"
        );
        let bf = fast.node_shaper(v).token_budget_bits().map(f64::to_bits);
        let br = reference.node_shaper(v).token_budget_bits().map(f64::to_bits);
        assert_eq!(bf, br, "node {v} token budget ({ctx})");
    }
    for &id in flows {
        assert_eq!(
            fast.flow_remaining_bits(id).map(f64::to_bits),
            reference.flow_remaining_bits(id).map(f64::to_bits),
            "flow {id:?} remaining ({ctx})"
        );
        assert_eq!(
            fast.flow_last_rate(id).map(f64::to_bits),
            reference.flow_last_rate(id).map(f64::to_bits),
            "flow {id:?} last rate ({ctx})"
        );
    }
}

/// Drive both fabrics through an identical randomized script: flow
/// arrivals, stepping at a mixed cadence, occasional full drains and
/// rest windows. Compares bitwise after every single step.
fn run_script(
    fast: &mut DynFabric,
    reference: &mut DynFabric,
    script_seed: u64,
    steps: usize,
    dt: f64,
) {
    let mut rng = SimRng::new(script_seed);
    let mut all_flows: Vec<FlowId> = Vec::new();
    let n = fast.node_count();
    for i in 0..steps {
        // Poisson-ish arrivals: up to 3 new flows per tick.
        if rng.chance(0.4) {
            for _ in 0..rng.index(3) + 1 {
                let src = rng.index(n);
                let dst = (src + 1 + rng.index(n - 1)) % n;
                let bits = rng.uniform_in(5e8, 2e10);
                let mut spec = FlowSpec::new(src, dst, bits);
                if rng.chance(0.3) {
                    spec.max_rate_bps = rng.uniform_in(5e8, 6e9);
                }
                let a = fast.start_flow(spec);
                let b = reference.start_flow(spec);
                assert_eq!(a, b, "flow ids diverged");
                all_flows.push(a);
            }
        }
        let ca = fast.step(dt);
        let cb = reference.step(dt);
        assert_eq!(ca, cb, "completions diverged at step {i}");
        assert_fabrics_bit_equal(fast, reference, &all_flows, &format!("step {i}"));

        // Occasionally drain everything and rest, exercising the
        // closed-form shaper rests against the reference idle loop.
        if rng.chance(0.02) {
            let mut guard = 0;
            while fast.active_flows() > 0 {
                let ca = fast.step(dt);
                let cb = reference.step(dt);
                assert_eq!(ca, cb, "drain completions diverged");
                guard += 1;
                assert!(guard < 2_000_000, "drain did not terminate");
            }
            while reference.active_flows() > 0 {
                reference.step(dt);
            }
            assert_fabrics_bit_equal(fast, reference, &all_flows, "after drain");
            let window = rng.uniform_in(1.0, 40.0);
            fast.rest(window, dt);
            reference.rest(window, dt);
            assert_fabrics_bit_equal(fast, reference, &all_flows, "after rest");
        }
    }
}

prop_cases! {
    #![config(Config::with_cases(24))]

    /// The flagship property: mixed shapers, random flows, faults and
    /// core capacity on or off — every observable bitwise equal between
    /// the fast and reference paths at every step.
    #[test]
    fn fast_path_is_bit_identical(
        seed in 0u64..100_000,
        n_nodes in 2usize..7,
        with_faults in bools(),
        with_core in bools(),
        dt_ms in 50u64..500,
    ) {
        let mut rng = SimRng::new(seed ^ 0xFAB);
        let kinds: Vec<usize> = (0..n_nodes).map(|_| rng.index(5)).collect();
        let core = if with_core { Some(12.0) } else { None };
        let (mut fast, mut reference) = build_pair(&kinds, seed, with_faults, core);
        run_script(&mut fast, &mut reference, seed ^ 0x5C817, 120, dt_ms as f64 / 1000.0);
    }

    /// Mid-script reconfiguration (core capacity toggles, fault
    /// schedule clears, resets) must invalidate the rate cache — the
    /// twin comparison catches any stale reuse.
    #[test]
    fn fast_path_survives_reconfiguration(seed in 0u64..100_000) {
        let kinds = [0usize, 1, 3, 4];
        let (mut fast, mut reference) = build_pair(&kinds, seed, false, None);
        run_script(&mut fast, &mut reference, seed, 40, 0.1);
        for f in [&mut fast, &mut reference] {
            f.set_core_capacity(9e9);
        }
        run_script(&mut fast, &mut reference, seed ^ 1, 40, 0.1);
        for f in [&mut fast, &mut reference] {
            f.clear_core_capacity();
        }
        run_script(&mut fast, &mut reference, seed ^ 2, 40, 0.1);
        for f in [&mut fast, &mut reference] {
            f.reset();
        }
        assert_fabrics_bit_equal(&fast, &reference, &[], "after reset");
        run_script(&mut fast, &mut reference, seed ^ 3, 40, 0.1);
    }

    /// Closed-form `TokenBucket::rest` equals the idle-transmit loop
    /// bitwise, from any starting budget, including saturation.
    #[test]
    fn token_bucket_rest_is_exact(
        start_frac in 0.0f64..1.0,
        steps in 0u64..5_000,
        dt_ms in 10u64..2_000,
        idle_gbps in 0.0f64..20.0,
    ) {
        let dt = dt_ms as f64 / 1000.0;
        let mut fast = TokenBucket::sigma_rho(50e9, 1e9, 10e9).with_idle_refill(idle_gbps * 1e9);
        fast.set_budget_bits(50e9 * start_frac);
        let mut slow = fast.clone();
        fast.rest(3.0, dt, steps);
        let mut t = 3.0;
        for _ in 0..steps {
            slow.transmit(t, dt, 0.0);
            t += dt;
        }
        prop_assert_eq!(fast.budget_bits().to_bits(), slow.budget_bits().to_bits());
        let gf = fast.transmit(t, 1.0, f64::INFINITY);
        let gs = slow.transmit(t, 1.0, f64::INFINITY);
        prop_assert_eq!(gf.to_bits(), gs.to_bits());
    }

    /// `PerCoreQos::rest` (burst marker clear + N noise advances)
    /// equals the idle loop bitwise, including the RNG stream.
    #[test]
    fn per_core_rest_is_exact(seed in 0u64..10_000, steps in 0u64..2_000) {
        let mut fast = PerCoreQos::new(PerCoreQosConfig::gce(8), seed);
        let mut slow = PerCoreQos::new(PerCoreQosConfig::gce(8), seed);
        // Enter a burst first so the idle transition is exercised.
        for s in [&mut fast, &mut slow] {
            s.transmit(0.0, 0.1, f64::INFINITY);
        }
        fast.rest(0.1, 0.1, steps);
        let mut t = 0.1;
        for _ in 0..steps {
            slow.transmit(t, 0.1, 0.0);
            t += 0.1;
        }
        // Subsequent bursts sample the ramp penalty from the RNG: any
        // stream divergence shows up in the grants.
        for k in 0..20 {
            let tt = t + k as f64 * 0.1;
            let gf = fast.transmit(tt, 0.1, f64::INFINITY);
            let gs = slow.transmit(tt, 0.1, f64::INFINITY);
            prop_assert_eq!(gf.to_bits(), gs.to_bits(), "burst step {}", k);
        }
    }

    /// Default-impl shapers (noise, empirical) and the composite /
    /// wrapper shapers: `rest` equals the idle loop bitwise.
    #[test]
    fn remaining_shapers_rest_is_exact(seed in 0u64..10_000, steps in 0u64..1_500) {
        let dt = 0.1;
        // NoiseShaper (default loop impl — trivially equal, but pins
        // the trait plumbing).
        let mut fast = NoiseShaper::new(NoiseConfig::hpccloud(), seed);
        let mut slow = NoiseShaper::new(NoiseConfig::hpccloud(), seed);
        fast.rest(0.0, dt, steps);
        let mut t = 0.0;
        for _ in 0..steps {
            slow.transmit(t, dt, 0.0);
            t += dt;
        }
        let (gf, gs) = (fast.transmit(t, dt, f64::INFINITY), slow.transmit(t, dt, f64::INFINITY));
        prop_assert_eq!(gf.to_bits(), gs.to_bits(), "noise");

        // EmpiricalShaper resamples on a wall of simulated time.
        let dist = QuantileDist::from_box(1e8, 3e8, 5e8, 7e8, 9e8);
        let mut fast = EmpiricalShaper::new(dist.clone(), 5.0, seed);
        let mut slow = EmpiricalShaper::new(dist, 5.0, seed);
        fast.rest(0.0, dt, steps);
        let mut t = 0.0;
        for _ in 0..steps {
            slow.transmit(t, dt, 0.0);
            t += dt;
        }
        let (gf, gs) = (fast.transmit(t, dt, f64::INFINITY), slow.transmit(t, dt, f64::INFINITY));
        prop_assert_eq!(gf.to_bits(), gs.to_bits(), "empirical");

        // StaticShaper: rest is a no-op; grants unchanged.
        let mut st = StaticShaper::new(7e9);
        st.rest(0.0, dt, steps);
        prop_assert_eq!(st.transmit(0.0, 1.0, f64::INFINITY).to_bits(), 7e9f64.to_bits());

        // MinShaper: stage-wise rest equals the composed idle loop.
        let mk = || MinShaper::new(
            TokenBucket::sigma_rho(20e9, 1e9, 10e9).with_idle_refill(2e9),
            StaticShaper::new(8e9),
        );
        let (mut fast, mut slow) = (mk(), mk());
        for s in [&mut fast, &mut slow] {
            s.transmit(0.0, 1.0, f64::INFINITY); // partially drain
        }
        fast.rest(1.0, dt, steps);
        let mut t = 1.0;
        for _ in 0..steps {
            slow.transmit(t, dt, 0.0);
            t += dt;
        }
        prop_assert_eq!(
            fast.token_budget_bits().unwrap().to_bits(),
            slow.token_budget_bits().unwrap().to_bits(),
            "min shaper budget"
        );
        let (gf, gs) = (fast.transmit(t, dt, f64::INFINITY), slow.transmit(t, dt, f64::INFINITY));
        prop_assert_eq!(gf.to_bits(), gs.to_bits(), "min shaper grant");

        // Boxed dyn shaper forwards to the override.
        let mut fast: Box<dyn Shaper + Send> = Box::new(TokenBucket::sigma_rho(30e9, 1e9, 10e9));
        let mut slow: Box<dyn Shaper + Send> = Box::new(TokenBucket::sigma_rho(30e9, 1e9, 10e9));
        for s in [&mut fast, &mut slow] {
            s.transmit(0.0, 2.0, f64::INFINITY);
        }
        fast.rest(2.0, dt, steps);
        let mut t = 2.0;
        for _ in 0..steps {
            slow.transmit(t, dt, 0.0);
            t += dt;
        }
        prop_assert_eq!(
            fast.token_budget_bits().unwrap().to_bits(),
            slow.token_budget_bits().unwrap().to_bits(),
            "boxed budget"
        );

        // FaultInjector: idle offered volume is exactly zero whatever
        // the fault factor, so rest delegates to the inner shaper.
        let cfg = FaultConfig {
            stall_rate_per_hour: 120.0,
            stall_mean_s: 5.0,
            degrade_rate_per_hour: 120.0,
            degrade_mean_s: 10.0,
            degrade_min_factor: 0.1,
            degrade_max_factor: 0.9,
            loss_rate_per_hour: 60.0,
            loss_mean_s: 4.0,
            loss_frac: 0.5,
            probe_loss_prob: 0.0,
            pair_death_rate_per_hour: 0.0,
        };
        let schedule = FaultSchedule::generate(&cfg, 1, 1000.0, seed);
        let mk = || FaultInjector::new(
            TokenBucket::sigma_rho(25e9, 1e9, 10e9),
            0,
            schedule.clone(),
        );
        let (mut fast, mut slow) = (mk(), mk());
        for s in [&mut fast, &mut slow] {
            s.transmit(0.0, 1.5, f64::INFINITY);
        }
        fast.rest(1.5, dt, steps);
        let mut t = 1.5;
        for _ in 0..steps {
            slow.transmit(t, dt, 0.0);
            t += dt;
        }
        prop_assert_eq!(
            fast.token_budget_bits().unwrap().to_bits(),
            slow.token_budget_bits().unwrap().to_bits(),
            "fault injector budget"
        );
        let (gf, gs) = (fast.transmit(t, dt, f64::INFINITY), slow.transmit(t, dt, f64::INFINITY));
        prop_assert_eq!(gf.to_bits(), gs.to_bits(), "fault injector grant");
    }

    /// The cache must actually fire on cache-friendly workloads — a
    /// steady flow set over token buckets recomputes only when a hint
    /// flips, not every tick.
    #[test]
    fn rate_cache_hits_on_steady_state(seed in 0u64..10_000) {
        let kinds = [0usize, 0, 0, 0];
        let (mut fast, _) = build_pair(&kinds, seed, false, None);
        let id = fast.start_flow(FlowSpec::new(0, 1, 1e12));
        for _ in 0..500 {
            fast.step(0.1);
        }
        let perf = fast.perf();
        assert!(perf.rate_cache_hits > 400, "cache never engaged: {perf:?}");
        assert!(perf.rate_recomputes < 50, "recomputing every tick: {perf:?}");
        assert!(fast.flow_remaining_bits(id).is_some());
    }
}
