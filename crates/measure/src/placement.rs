//! Placement fleets: the paper's big-data repetitions run on a
//! *topology*, not just on shaped endpoints. Each repetition places
//! the cluster's workers on fresh hosts of a datacenter topology (the
//! way a real cloud scheduler re-places every VM allocation) and runs
//! the workload; across repetitions the spread of runtimes exposes
//! placement variance — racks sharing an oversubscribed uplink, incast
//! on a hot reducer's access link — that a flat fabric cannot show.
//!
//! Repetitions shard over the [`exec`] runtime and merge in repetition
//! order, so results are bit-identical at any worker count, and the
//! flat-equivalence contract holds: `topology = flat` is byte-equal to
//! `topology = None`.

use bigdata::{run_job, Cluster, JobSpec};
use clouds::CloudProfile;
use netsim::fabric::FabricPerf;
use netsim::rng::derive_seed;
use netsim::StepPath;
use topo::{TopoError, Topology, Wiring};

/// What one placement fleet produced.
#[derive(Debug, Clone)]
pub struct PlacementFleetResult {
    /// Per-repetition job runtimes, repetition order.
    pub durations_s: Vec<f64>,
    /// Fabric counters merged over repetitions in repetition order
    /// (jobs-invariant). Link counters are zero without a topology.
    pub fabric_perf: FabricPerf,
}

/// Run `reps` repetitions of `job` on `nodes` workers of `profile`,
/// each repetition freshly placed on `topology` (when given) under
/// `derive_seed(placement_seed, rep)`. Per-repetition cluster seeds
/// are `derive_seed(seed, rep)` — the same stream a topology-less
/// `run` uses, so a `flat` topology reproduces it byte-for-byte.
///
/// ECMP path hashing is seeded by `seed`; the path counts are built
/// once and shared across repetitions (only the placement reshuffles).
#[allow(clippy::too_many_arguments)]
pub fn run_placement_fleet(
    profile: &CloudProfile,
    job: &JobSpec,
    nodes: usize,
    cores_per_node: u32,
    reps: usize,
    seed: u64,
    topology: Option<&Topology>,
    placement_seed: u64,
    path: StepPath,
) -> Result<PlacementFleetResult, TopoError> {
    // Resolve the wiring once up front: host shortages and ECMP
    // reachability errors surface here, not inside a worker shard.
    let base = match topology {
        Some(t) => Some(Wiring::new(t.clone(), nodes, seed, placement_seed)?),
        None => None,
    };
    let jobs = exec::current_jobs();
    let samples: Vec<(f64, FabricPerf)> = exec::par_map_indexed(jobs, reps, |rep| {
        let s = derive_seed(seed, rep as u64);
        let mut cluster = Cluster::from_profile(profile, nodes, cores_per_node, s);
        cluster.fabric_mut().force_path(path);
        if let Some(w) = &base {
            cluster.set_wiring(w.reseat(derive_seed(placement_seed, rep as u64)));
        }
        let duration = run_job(&mut cluster, job, s).duration_s;
        (duration, cluster.fabric().perf())
    });
    let mut durations_s = Vec::with_capacity(reps);
    let mut fabric_perf = FabricPerf::default();
    for (d, perf) in &samples {
        durations_s.push(*d);
        fabric_perf.merge(perf);
    }
    Ok(PlacementFleetResult {
        durations_s,
        fabric_perf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdata::StageSpec;
    use topo::zoo;

    fn shuffle_job() -> JobSpec {
        JobSpec::new("xfer", vec![StageSpec::new("s", 16, 0.5, 40e9)])
    }

    #[test]
    fn flat_is_byte_equal_to_no_topology() {
        let cloud = clouds::gce::n_core(8);
        let job = shuffle_job();
        let plain =
            run_placement_fleet(&cloud, &job, 8, 8, 4, 11, None, 77, StepPath::Event).unwrap();
        let flat = zoo::flat(8);
        let flat_r =
            run_placement_fleet(&cloud, &job, 8, 8, 4, 11, Some(&flat), 77, StepPath::Event)
                .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain.durations_s), bits(&flat_r.durations_s));
        assert_eq!(plain.fabric_perf, flat_r.fabric_perf);
        assert_eq!(flat_r.fabric_perf.link_recomputes, 0);
        assert_eq!(flat_r.fabric_perf.link_cache_hits, 0);
    }

    #[test]
    fn placement_seed_moves_runtimes_on_an_oversubscribed_tree() {
        let cloud = clouds::gce::n_core(8);
        let job = shuffle_job();
        let t = zoo::by_name("oversub4", 16).unwrap();
        let a = run_placement_fleet(&cloud, &job, 8, 8, 3, 11, Some(&t), 1, StepPath::Event)
            .unwrap();
        let b = run_placement_fleet(&cloud, &job, 8, 8, 3, 11, Some(&t), 2, StepPath::Event)
            .unwrap();
        assert!(a.fabric_perf.link_recomputes > 0, "links must constrain");
        // Same seeds, different placements: at least one repetition
        // lands a different rack mix and a different runtime.
        assert_ne!(
            a.durations_s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.durations_s.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let cloud = clouds::gce::n_core(8);
        let job = shuffle_job();
        let t = zoo::fattree(4).unwrap();
        let run = |jobs: usize| {
            exec::set_global_jobs(Some(jobs));
            let r = run_placement_fleet(&cloud, &job, 8, 8, 4, 5, Some(&t), 9, StepPath::Event)
                .unwrap();
            exec::set_global_jobs(None);
            r
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(
            one.durations_s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            four.durations_s.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(one.fabric_perf, four.fabric_perf);
    }

    #[test]
    fn too_small_a_topology_errors_before_sharding() {
        let cloud = clouds::gce::n_core(8);
        let job = shuffle_job();
        let t = zoo::star(4).unwrap();
        assert!(
            run_placement_fleet(&cloud, &job, 8, 8, 2, 1, Some(&t), 1, StepPath::Event).is_err()
        );
    }
}
