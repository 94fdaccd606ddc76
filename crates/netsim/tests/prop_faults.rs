//! Property-based tests over the fault-injection layer.
//!
//! The contracts that keep the robustness PR honest: fault timelines
//! are a pure function of (config, topology, horizon, seed); zero-rate
//! configurations are indistinguishable from no faults at all; and the
//! [`FaultInjector`] never grants more than its inner shaper would.

use netsim::faults::{FaultConfig, FaultInjector, FaultKind, FaultSchedule};
use netsim::shaper::{Shaper, StaticShaper, TokenBucket};
use netsim::units::gbps;
use proplite::prelude::*;

/// A fault config with every class enabled at property-varied rates.
fn config_from(stall: f64, degrade: f64, loss: f64) -> FaultConfig {
    FaultConfig {
        stall_rate_per_hour: stall,
        stall_mean_s: 20.0,
        degrade_rate_per_hour: degrade,
        degrade_mean_s: 120.0,
        degrade_min_factor: 0.3,
        degrade_max_factor: 0.9,
        loss_rate_per_hour: loss,
        loss_mean_s: 15.0,
        loss_frac: 0.4,
        probe_loss_prob: 0.0,
        pair_death_rate_per_hour: 0.0,
    }
}

prop_cases! {
    #![config(Config::with_cases(32))]

    /// Same (config, n, horizon, seed) → bit-identical fault timeline.
    #[test]
    fn schedule_is_a_pure_function_of_its_seed(
        seed in 0u64..500,
        n in 1usize..10,
        hours in 1u64..24,
        stall in 0.05f64..2.0,
        degrade in 0.05f64..2.0,
    ) {
        let cfg = config_from(stall, degrade, 0.5);
        let horizon = hours as f64 * 3600.0;
        let a = FaultSchedule::generate(&cfg, n, horizon, seed);
        let b = FaultSchedule::generate(&cfg, n, horizon, seed);
        prop_assert!(a.timeline() == b.timeline());
        for node in 0..n {
            prop_assert!(a.node_episodes(node) == b.node_episodes(node));
        }
    }

    /// A config whose every rate is zero produces an empty schedule
    /// and transparent factors, regardless of the other knobs.
    #[test]
    fn zero_rate_config_is_inert(
        seed in 0u64..500,
        n in 1usize..8,
        stall_mean in 0.0f64..600.0,
        degrade_mean in 0.0f64..600.0,
        loss_frac in 0.0f64..1.0,
    ) {
        let cfg = FaultConfig {
            stall_mean_s: stall_mean,
            degrade_mean_s: degrade_mean,
            loss_frac,
            ..FaultConfig::NONE
        };
        prop_assert!(cfg.is_off());
        let schedule = FaultSchedule::generate(&cfg, n, 86_400.0, seed);
        prop_assert!(schedule.is_empty());
        for node in 0..n {
            for k in 0..20 {
                let t = k as f64 * 4321.0;
                prop_assert!(schedule.factor_at(node, t) == 1.0);
                prop_assert!(!schedule.stalled_at(node, t));
            }
        }
    }

    /// Episodes are well-formed: inside the horizon, positive length,
    /// sorted per node, with factors matching their kind.
    #[test]
    fn episodes_are_well_formed(
        seed in 0u64..500,
        n in 1usize..8,
        stall in 0.1f64..3.0,
        degrade in 0.1f64..3.0,
        loss in 0.1f64..3.0,
    ) {
        let horizon = 7200.0;
        let schedule = FaultSchedule::generate(&config_from(stall, degrade, loss), n, horizon, seed);
        for node in 0..n {
            let eps = schedule.node_episodes(node);
            for e in eps {
                prop_assert!(e.node == node);
                prop_assert!(e.start_s >= 0.0 && e.end_s <= horizon + 1e-9);
                prop_assert!(e.start_s < e.end_s);
                match e.kind {
                    FaultKind::VmStall => prop_assert!(e.rate_factor == 0.0),
                    FaultKind::LinkDegrade => {
                        prop_assert!(e.rate_factor >= 0.3 - 1e-12 && e.rate_factor <= 0.9 + 1e-12)
                    }
                    FaultKind::LossBurst => {
                        prop_assert!((e.rate_factor - 0.6).abs() < 1e-9)
                    }
                }
            }
            prop_assert!(eps.windows(2).all(|w| w[0].start_s <= w[1].start_s));
        }
    }

    /// Point queries agree with a brute-force scan over the episodes,
    /// and factors always stay within [0, 1].
    #[test]
    fn factor_queries_match_brute_force(
        seed in 0u64..300,
        n in 1usize..6,
        stall in 0.2f64..4.0,
        degrade in 0.2f64..4.0,
    ) {
        let horizon = 3600.0;
        let schedule = FaultSchedule::generate(&config_from(stall, degrade, 1.0), n, horizon, seed);
        for node in 0..n {
            for k in 0..60 {
                let t = k as f64 * 61.7;
                let expected = schedule
                    .node_episodes(node)
                    .iter()
                    .filter(|e| e.active_at(t))
                    .map(|e| if e.kind == FaultKind::VmStall { 0.0 } else { e.rate_factor })
                    .fold(1.0, f64::min);
                let got = schedule.factor_at(node, t);
                prop_assert!((got - expected).abs() < 1e-12, "node {node} t {t}: {got} vs {expected}");
                prop_assert!((0.0..=1.0).contains(&got));
            }
        }
    }

    /// Growing the topology never perturbs existing nodes' timelines:
    /// per-node streams are decoupled by seed derivation.
    #[test]
    fn extra_nodes_do_not_perturb_existing_ones(
        seed in 0u64..300,
        n in 1usize..6,
        extra in 1usize..5,
    ) {
        let cfg = config_from(1.0, 1.0, 1.0);
        let small = FaultSchedule::generate(&cfg, n, 7200.0, seed);
        let big = FaultSchedule::generate(&cfg, n + extra, 7200.0, seed);
        for node in 0..n {
            prop_assert!(small.node_episodes(node) == big.node_episodes(node));
        }
    }

    /// An injector with an empty schedule is byte-identical to its
    /// inner shaper; with any schedule it never grants more.
    #[test]
    fn injector_is_transparent_when_empty_and_never_generous(
        seed in 0u64..300,
        budget_gbit in 0.0f64..5000.0,
        demand_gbit in 0.0f64..50.0,
    ) {
        let mk = || {
            TokenBucket::new(
                budget_gbit * 1e9,
                5000.0f64.max(budget_gbit) * 1e9,
                gbps(10.0),
                gbps(1.0),
                gbps(1.0),
            )
        };
        let empty = FaultSchedule::empty(1, 3600.0);
        let mut plain = mk();
        let mut gated = FaultInjector::new(mk(), 0, empty);
        let mut t = 0.0;
        for _ in 0..50 {
            let d = demand_gbit * 1e9;
            let a = plain.transmit(t, 1.0, d);
            let b = gated.transmit(t, 1.0, d);
            prop_assert!(a == b, "empty-schedule injector diverged: {a} vs {b}");
            t += 1.0;
        }

        // Faults can shift grants later (a stalled bucket keeps its
        // budget), but can never create throughput: the cumulative
        // grant stays at or below the fault-free run's at every step.
        let faulty = FaultSchedule::generate(&config_from(2.0, 2.0, 2.0), 1, 3600.0, seed);
        let mut plain = mk();
        let mut gated = FaultInjector::new(mk(), 0, faulty);
        let (mut cum_a, mut cum_b) = (0.0, 0.0);
        let mut t = 0.0;
        for _ in 0..50 {
            let d = demand_gbit * 1e9;
            let b = gated.transmit(t, 1.0, d);
            cum_a += plain.transmit(t, 1.0, d);
            cum_b += b;
            prop_assert!(b >= 0.0 && b <= d + 1e-6);
            prop_assert!(
                cum_b <= cum_a + 1.0,
                "faults created throughput: {cum_b} vs {cum_a}"
            );
            t += 1.0;
        }
    }

    /// Static shapers under a stall grant exactly zero for the stalled
    /// window and full rate outside it. Episodes that start together
    /// keep their input order, in the timeline and per node.
    #[test]
    fn stall_windows_gate_exactly(
        start in 10.0f64..100.0,
        len in 1.0f64..50.0,
        ties in 1usize..6,
    ) {
        use netsim::faults::FaultEpisode;
        let ep = |node, start_s, end_s, kind, rate_factor| FaultEpisode {
            node,
            start_s,
            end_s,
            kind,
            rate_factor,
        };
        let mut episodes = vec![ep(0, start, start + len, FaultKind::VmStall, 0.0)];
        // Ties at the stall's start: loss bursts on node 1 interleaved
        // with unit-factor degrades on node 0 (transparent, so the
        // stall alone gates node 0), each told apart by its end time.
        for k in 0..ties {
            let end = start + len + k as f64;
            episodes.push(ep(1, start, end, FaultKind::LossBurst, 0.5));
            episodes.push(ep(0, start, end, FaultKind::LinkDegrade, 1.0));
        }
        // An earlier episode given last: the sort must move it first.
        episodes.push(ep(1, 1.0, 2.0, FaultKind::LossBurst, 0.5));
        let schedule = FaultSchedule::from_episodes(2, 1000.0, episodes.clone());
        let mut expected = episodes.clone();
        expected.rotate_right(1);
        prop_assert!(schedule.timeline() == expected.as_slice(), "timeline ties reordered");
        for node in 0..2 {
            let want: Vec<FaultEpisode> =
                expected.iter().filter(|e| e.node == node).copied().collect();
            prop_assert!(
                schedule.node_episodes(node) == want.as_slice(),
                "node {node} ties reordered"
            );
        }
        let mut s = FaultInjector::new(StaticShaper::new(gbps(1.0)), 0, schedule);
        let mut t = 0.0;
        while t < 200.0 {
            let g = s.transmit(t, 0.5, f64::INFINITY);
            let mid = t; // factor sampled at interval start
            if mid >= start && mid < start + len {
                prop_assert!(g == 0.0, "granted {g} during stall at {t}");
            } else {
                prop_assert!((g - gbps(1.0) * 0.5).abs() < 1e-3, "grant {g} at {t}");
            }
            t += 0.5;
        }
    }
}
