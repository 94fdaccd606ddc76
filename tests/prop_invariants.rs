//! Property-based tests over the core invariants, spanning crates.

use cloud_repro::prelude::*;
use netsim::fabric::{Fabric, FlowSpec};
use netsim::shaper::{Shaper, StaticShaper, TokenBucket};
use proplite::prelude::*;

prop_cases! {
    #![config(Config::with_cases(64))]

    /// A token bucket never grants more than demand, never more than
    /// the peak rate allows, and its budget stays within [0, capacity]
    /// under arbitrary demand schedules.
    #[test]
    fn token_bucket_invariants(
        budget_gbit in 0.0f64..6000.0,
        demands in vec_of(0.0f64..20e9, 1..200),
        dt in 0.01f64..2.0,
    ) {
        let mut tb = TokenBucket::sigma_rho(budget_gbit * 1e9, 1e9, 10e9);
        let mut t = 0.0;
        for d in demands {
            let demand_bits = d * dt;
            let granted = tb.transmit(t, dt, demand_bits);
            prop_assert!(granted <= demand_bits + 1e-6);
            prop_assert!(granted <= 10e9 * dt + 1e-6);
            prop_assert!(tb.budget_bits() >= 0.0);
            prop_assert!(tb.budget_bits() <= tb.capacity_bits() + 1e-6);
            t += dt;
        }
    }

    /// Fabric conservation: flows complete having moved exactly their
    /// requested bits, and node egress accounting matches.
    #[test]
    fn fabric_conserves_bits(
        n_nodes in 2usize..6,
        flows in vec_of((0usize..6, 0usize..6, 1e9f64..50e9), 1..12),
    ) {
        let mut fabric = Fabric::new();
        for _ in 0..n_nodes {
            fabric.add_node(StaticShaper::new(10e9), 10e9);
        }
        let mut expected_tx = vec![0.0f64; n_nodes];
        let mut started = 0;
        for (src, dst, bits) in flows {
            let (src, dst) = (src % n_nodes, dst % n_nodes);
            if src == dst {
                continue;
            }
            fabric.start_flow(FlowSpec::new(src, dst, bits));
            expected_tx[src] += bits;
            started += 1;
        }
        if started == 0 {
            return Ok(());
        }
        let mut guard = 0;
        while fabric.active_flows() > 0 && guard < 500_000 {
            fabric.step(0.5);
            guard += 1;
        }
        prop_assert_eq!(fabric.active_flows(), 0, "flows stuck");
        for v in 0..n_nodes {
            prop_assert!(
                (fabric.node_total_tx_bits(v) - expected_tx[v]).abs() < 1.0,
                "node {} sent {} expected {}",
                v,
                fabric.node_total_tx_bits(v),
                expected_tx[v]
            );
        }
    }

    /// Quantile CIs bracket their estimate, widen with confidence, and
    /// contain the sample median for any input data.
    #[test]
    fn quantile_ci_brackets(
        mut xs in vec_of(-1e6f64..1e6, 10..200),
    ) {
        let med = vstats::median(&xs);
        if let Some(ci) = vstats::quantile_ci(&xs, 0.5, 0.95) {
            prop_assert!(ci.lower <= ci.estimate && ci.estimate <= ci.upper);
            prop_assert!(ci.contains(med));
            if let Some(ci99) = vstats::quantile_ci(&xs, 0.5, 0.99) {
                prop_assert!(ci99.width() >= ci.width() - 1e-9);
            }
        }
        // Quantile function is monotone in p.
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = vstats::describe::quantile_sorted(&xs, i as f64 / 10.0);
            prop_assert!(q >= prev);
            prev = q;
        }
    }

    /// The engine conserves shuffle volume: per-job node_tx sums to the
    /// job's total shuffle bits, regardless of budget or skew.
    #[test]
    fn engine_conserves_shuffle_bits(
        budget in 5.0f64..5000.0,
        skew in 0.0f64..1.0,
        shuffle_gbit in 1.0f64..300.0,
        seed in 0u64..1000,
    ) {
        let mut cluster = bigdata::Cluster::ec2_emulated(4, 4, budget);
        let job = bigdata::JobSpec::new(
            "prop",
            vec![bigdata::StageSpec::new("s", 16, 2.0, shuffle_gbit * 1e9)],
        ).with_skew(skew);
        let r = bigdata::run_job(&mut cluster, &job, seed);
        let total: f64 = r.node_tx_bits.iter().sum();
        prop_assert!(
            (total - shuffle_gbit * 1e9).abs() / (shuffle_gbit * 1e9) < 0.01,
            "moved {} of {}",
            total,
            shuffle_gbit * 1e9
        );
    }

    /// Campaign summaries are internally consistent for arbitrary
    /// (short) durations and seeds.
    #[test]
    fn campaign_summary_consistency(
        seed in 0u64..500,
        minutes in 10u64..40,
    ) {
        let profile = clouds::hpccloud::n_core(8);
        let res = measure::run_campaign(
            &profile,
            netsim::TrafficPattern::FullSpeed,
            minutes as f64 * 60.0,
            seed,
        ).unwrap();
        let s = &res.summary;
        prop_assert!(s.min <= s.box_summary.p1 + 1e-9);
        prop_assert!(s.box_summary.p99 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(res.total_bits > 0.0);
        // Bandwidth bounded by the profile's capacity.
        prop_assert!(s.max <= 10.4e9 + 1.0);
    }

    /// Experiment schedules are permutations: every (treatment, rep)
    /// exactly once, for any configuration.
    #[test]
    fn schedule_is_permutation(
        treatments in 1usize..6,
        reps in 1usize..12,
        seed in 0u64..100,
        randomize in bools(),
    ) {
        let plan = measure::ExperimentPlan {
            repetitions: reps,
            randomize_order: randomize,
            rest_between_s: 1.0,
        };
        let sched = plan.schedule(treatments, seed);
        prop_assert_eq!(sched.len(), treatments * reps);
        let mut seen = std::collections::HashSet::new();
        for r in &sched {
            prop_assert!(r.treatment < treatments && r.repetition < reps);
            prop_assert!(seen.insert((r.treatment, r.repetition)));
        }
    }
}
