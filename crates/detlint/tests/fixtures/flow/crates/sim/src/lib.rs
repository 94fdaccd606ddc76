//! Fixture library: seeded D9/D10/D11 violations, their suppressed
//! twins, and compliant look-alikes. Never compiled — the types and
//! callees are deliberately undefined.

pub mod dead;

/// D11 positive: the `unwrap` is D5-suppressed (a local judgment) but
/// reachable from `measure::run_fleet`, and the pragma does not carry
/// the D11 sign-off.
pub fn deep_total(spec: &Spec) -> f64 {
    // detlint:allow(D5) -- fixture: local invariant, no fleet sign-off
    let head = spec.cells.first().unwrap();
    stable_sum(&head.samples)
}

/// D11 suppressed: same shape, pragma names both tiers — silent.
pub fn signed_off(spec: &Spec) -> f64 {
    // detlint:allow(D5, D11) -- fixture: spec validated before any fleet starts
    let head = spec.cells.first().unwrap();
    head.weight
}

/// D11 clean: panics, but only `measure::summarize` (not an entry
/// point) calls this, so the D5 pragma needs no fleet sign-off.
pub fn offline_debug_total(spec: &Spec) -> f64 {
    // detlint:allow(D5) -- fixture: debug-only helper, unreachable from fleets
    spec.cells.last().unwrap().weight
}

/// D9 positive: one rng stream captured by every parallel task.
pub fn noisy_totals(rng: &mut SimRng, xs: &[f64], jobs: usize) -> Vec<f64> {
    exec::par_map(jobs, xs, |x| x + rng.uniform())
}

/// D9 suppressed.
pub fn noisy_totals_allowed(rng: &mut SimRng, xs: &[f64], jobs: usize) -> Vec<f64> {
    // detlint:allow(D9) -- fixture: documented single-task configuration
    exec::par_map(jobs, xs, |x| x + rng.uniform())
}

/// D9 clean: the blessed per-task stream derivation.
pub fn seeded_totals(seed: u64, xs: &[f64], jobs: usize) -> Vec<f64> {
    exec::par_map_indexed(jobs, xs.len(), |i| {
        let mut rng = SimRng::new(derive_seed(seed, i as u64));
        rng.uniform()
    })
}

/// D10 positive: float reduction over a call result.
pub fn unstable_mean(n: usize) -> f64 {
    sampled_series(n).sum::<f64>() / n as f64
}

/// D10 suppressed.
pub fn unstable_mean_allowed(n: usize) -> f64 {
    // detlint:allow(D10) -- fixture: series iterator is documented order-stable
    sampled_series(n).sum::<f64>() / n as f64
}

/// D10 clean: a named place through order-preserving adapters.
pub fn stable_sum(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * x).sum::<f64>()
}

/// D10 clean: float fold over an indexed range.
pub fn horner(cs: &[f64], x: f64) -> f64 {
    cs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

/// D9 positive: the ordered pipeline's task captures one stream.
pub fn noisy_panes(rng: &mut SimRng, n: usize, jobs: usize) -> Result<(), ()> {
    exec::par_for_each_ordered(jobs, n, 16, |i| i as f64 + rng.uniform(), |_, _| Ok(()))
}

/// D9 clean: each ordered task derives its own stream.
pub fn seeded_panes(seed: u64, n: usize, jobs: usize) -> Result<(), ()> {
    exec::par_for_each_ordered(
        jobs,
        n,
        16,
        |i| {
            let mut rng = SimRng::new(derive_seed(seed, i as u64));
            rng.uniform()
        },
        |_, _| Ok(()),
    )
}
