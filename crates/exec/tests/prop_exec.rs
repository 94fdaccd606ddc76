//! Property suite for the execution runtime: the determinism contract
//! (bit-identical results at any worker count) under arbitrary task
//! counts, worker counts, windows, workloads, and panic masks.

use exec::{par_for_each_ordered, par_map, par_map_indexed, par_map_with, try_par_map};
use proplite::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A cheap pure task body with full bit churn (SplitMix64 finalizer).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One run counter per task index.
fn counters(n: usize) -> Vec<AtomicUsize> {
    (0..n).map(|_| AtomicUsize::new(0)).collect()
}

/// Fail unless every counter reads exactly one.
fn each_ran_once(runs: &[AtomicUsize]) -> Result<(), CaseError> {
    for (i, c) in runs.iter().enumerate() {
        let c = c.load(Ordering::SeqCst);
        prop_assert!(c == 1, "task {i} ran {c} times");
    }
    Ok(())
}

prop_cases! {
    #![config(Config::with_cases(48))]

    /// par_map over arbitrary inputs is invariant to the worker count:
    /// 1, 2, and 8 workers produce byte-identical output vectors.
    #[test]
    fn par_map_is_worker_count_invariant(
        items in vec_of(0u64..u64::MAX, 0..300),
    ) {
        let serial = par_map(1, &items, |&x| mix(x));
        for jobs in [2usize, 8] {
            let wide = par_map(jobs, &items, |&x| mix(x));
            prop_assert_eq!(&wide, &serial);
        }
    }

    /// Float-returning tasks merge bit-identically too (the fleet and
    /// bootstrap paths return f64s; compare their bit patterns).
    #[test]
    fn float_results_are_bit_identical_across_jobs(
        n in 0usize..200,
        seed in 0u64..u64::MAX,
    ) {
        let f = |i: usize| (mix(seed ^ i as u64) as f64) * 1e-3 + 0.1;
        let one: Vec<u64> = par_map_with(1, n, |_| (), |_, i| f(i))
            .iter().map(|x| x.to_bits()).collect();
        for jobs in [2usize, 8] {
            let wide: Vec<u64> = par_map_with(jobs, n, |_| (), |_, i| f(i))
                .iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&wide, &one);
        }
    }

    /// Panic containment is per-task and worker-count invariant: the
    /// same tasks fail with the same payloads at any jobs value, and
    /// every non-panicking task still returns its result.
    #[test]
    fn panic_mask_is_worker_count_invariant(
        n in 1usize..120,
        mask in 1u64..u64::MAX,
    ) {
        let idx: Vec<usize> = (0..n).collect();
        let run = |jobs: usize| {
            try_par_map(jobs, &idx, |&i| {
                if mix(mask ^ i as u64) % 5 == 0 {
                    panic!("injected failure at {i}");
                }
                mix(i as u64)
            })
        };
        let serial = run(1);
        for jobs in [2usize, 8] {
            let wide = run(jobs);
            prop_assert_eq!(wide.len(), serial.len());
            for (a, b) in wide.iter().zip(serial.iter()) {
                prop_assert_eq!(a, b);
            }
        }
    }

    /// Per-worker scratch state never leaks between tasks: a task that
    /// overwrites-then-reads sees only its own writes, regardless of
    /// which worker (and thus which reused buffer) executed it.
    #[test]
    fn scratch_state_is_isolated_per_task(
        n in 0usize..150,
        width in 1usize..32,
    ) {
        let expected: Vec<u64> = (0..n)
            .map(|i| (0..width).map(|k| mix((i * width + k) as u64))
                 .fold(0u64, |a, b| a.wrapping_add(b)))
            .collect();
        for jobs in [1usize, 2, 8] {
            let got = par_map_with(
                jobs,
                n,
                |_| vec![0u64; width],
                |buf, i| {
                    for (k, slot) in buf.iter_mut().enumerate() {
                        *slot = mix((i * width + k) as u64);
                    }
                    buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
                },
            );
            prop_assert_eq!(&got, &expected);
        }
    }

    /// With *multiple* panicking tasks (the single-panic path was the
    /// only one exercised before), partial results keep full shape:
    /// slot `i` always describes task `i` — an `Err` carrying the
    /// task's own index and payload, or the task's own `Ok` value —
    /// every task runs exactly once, panicked ones included, and the
    /// re-raising front propagates exactly the lowest-indexed payload.
    #[test]
    fn multi_panic_partial_results_hold_shape(
        n in 20usize..160,
        stride in 2usize..7,
        offset_raw in 0usize..7,
        jobs in 1usize..9,
    ) {
        let offset = offset_raw % stride;
        let fails = move |i: usize| i % stride == offset;
        let runs = counters(n);
        let idx: Vec<usize> = (0..n).collect();
        let out = try_par_map(jobs, &idx, |&i| {
            runs[i].fetch_add(1, Ordering::SeqCst);
            if fails(i) {
                panic!("injected {i}");
            }
            mix(i as u64)
        });
        prop_assert_eq!(out.len(), n);
        // A contained panic is still a task that ran, once.
        each_ran_once(&runs)?;
        // Result ordering: Ok/Err land in their own slots.
        let mut n_fail = 0usize;
        for (i, r) in out.iter().enumerate() {
            match (fails(i), r) {
                (true, Err(p)) => {
                    n_fail += 1;
                    prop_assert_eq!(p.task, i);
                    prop_assert_eq!(&p.payload, &format!("injected {i}"));
                }
                (false, Ok(v)) => prop_assert_eq!(*v, mix(i as u64)),
                (want_fail, got) => {
                    return Err(CaseError::Fail(format!(
                        "slot {i}: want fail={want_fail}, got {got:?}"
                    )));
                }
            }
        }
        // n >= 20 and stride < 7 guarantee a genuine multi-panic case.
        prop_assert!(n_fail >= 2, "only {n_fail} panics injected");
        // Lowest-index selection: the re-raising front propagates the
        // first failing task's payload, not the first to finish.
        let first = offset; // smallest i with i % stride == offset
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_indexed(jobs, n, |i| {
                if fails(i) {
                    panic!("injected {i}");
                }
                i
            })
        }));
        let payload = match caught {
            Err(p) => p,
            Ok(_) => return Err(CaseError::Fail("must re-raise".into())),
        };
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        prop_assert_eq!(msg, format!("injected {first}"));
    }

    /// Every task runs exactly once and lands in its own slot, however
    /// the workers' claims interleaved.
    #[test]
    fn every_task_runs_exactly_once(
        n in 0usize..400,
        jobs in 1usize..12,
    ) {
        let runs = counters(n);
        let idx: Vec<usize> = (0..n).collect();
        let out = try_par_map(jobs, &idx, |&i| {
            runs[i].fetch_add(1, Ordering::SeqCst);
            i
        });
        each_ran_once(&runs)?;
        prop_assert_eq!(out.len(), n);
        for (i, r) in out.into_iter().enumerate() {
            match r {
                Ok(v) => prop_assert_eq!(v, i),
                Err(p) => return Err(CaseError::Fail(format!("unexpected panic: {p}"))),
            }
        }
    }

    /// The ordered pipeline at any `(n, jobs, window)`: the sink sees
    /// each index once and in order with that index's result, each
    /// task runs exactly once, and the results in flight (started, not
    /// yet sunk) never exceed the window — also where a worker claims
    /// several indices at a time (`window / (jobs × 8) > 1`).
    #[test]
    fn ordered_pipeline_sinks_each_index_once_within_the_window(
        n in 0usize..400,
        jobs in 1usize..12,
        window in 1usize..64,
    ) {
        let runs = counters(n);
        let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let mut sunk = Vec::with_capacity(n);
        let out: Result<(), ()> = par_for_each_ordered(
            jobs,
            n,
            window,
            |i| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                mix(i as u64)
            },
            |i, r| {
                in_flight.fetch_sub(1, Ordering::SeqCst);
                sunk.push((i, r.expect("no panics")));
                Ok(())
            },
        );
        prop_assert_eq!(out, Ok(()));
        each_ran_once(&runs)?;
        let want: Vec<(usize, u64)> = (0..n).map(|i| (i, mix(i as u64))).collect();
        prop_assert_eq!(sunk, want);
        let peak = peak.load(Ordering::SeqCst);
        prop_assert!(peak <= window, "peak {peak} > window {window}");
    }
}
