//! The `par_map` family: fronts over the ordered pipeline that collect
//! every result before returning.
//!
//! All variants share the determinism contract (crate docs): results
//! land in task-index order, so output is bit-identical at any `jobs`.
//! Pick by failure handling and state needs:
//!
//! | fn | input | panics | worker state |
//! |---|---|---|---|
//! | [`par_map`] | slice | re-raised (lowest index) | — |
//! | [`par_map_indexed`] | `0..n` | re-raised | — |
//! | [`try_par_map`] | slice | typed [`TaskPanic`] per task | — |
//! | [`par_map_with`] | `0..n` | re-raised | per-worker scratch |

use crate::ordered::run_ordered;
use crate::panic::TaskPanic;
use std::convert::Infallible;

/// Run tasks `0..n` and collect every result in index order. The
/// window is `n`, so no worker ever waits on the caller.
fn collect<S, R>(
    jobs: usize,
    n: usize,
    init: impl Fn(usize) -> S,
    task: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<Result<R, TaskPanic>>
where
    S: Send,
    R: Send,
{
    let mut out = Vec::with_capacity(n);
    let Ok(()) = run_ordered::<S, R, Infallible>(jobs, n, n, init, task, |_, r| {
        out.push(r);
        Ok(())
    });
    out
}

/// Re-raise the lowest-indexed contained panic, if any; otherwise
/// return the unwrapped values. Choosing the lowest index (not the
/// first to *happen*) keeps even the propagated panic deterministic.
fn unwrap_or_resume<R>(results: Vec<Result<R, TaskPanic>>) -> Vec<R> {
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(p) => std::panic::resume_unwind(Box::new(p.payload)),
        }
    }
    out
}

/// Map `f` over `items` on `jobs` workers; results in input order.
///
/// A panicking task is contained, the remaining tasks complete, and
/// the lowest-indexed panic is then re-raised on the caller's thread.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    unwrap_or_resume(try_par_map(jobs, items, f))
}

/// Map `f` over the index range `0..n`; results in index order.
pub fn par_map_indexed<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    unwrap_or_resume(collect(jobs, n, |_| (), |_, i| f(i)))
}

/// [`par_map`] with per-task panic containment surfaced to the caller:
/// element `i` is `Err(TaskPanic)` iff task `i` panicked. Lets a
/// harness degrade to partial results instead of crashing.
pub fn try_par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<R, TaskPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    collect(jobs, items.len(), |_| (), |_, i| f(&items[i]))
}

/// [`par_map_indexed`] with a per-worker state value built by
/// `init(worker_id)` — the home for scratch buffers that would
/// otherwise be reallocated per task (bootstrap resample buffers).
///
/// `f` must treat the state as scratch: fully overwrite before
/// reading, never accumulate across tasks (task→worker assignment is
/// scheduling-dependent; accumulation would break determinism).
pub fn par_map_with<S, R, I, F>(jobs: usize, n: usize, init: I, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    I: Fn(usize) -> S,
    F: Fn(&mut S, usize) -> R + Sync,
{
    unwrap_or_resume(collect(jobs, n, init, f))
}

#[cfg(test)]
mod tests {
    //! Each test runs under [`within_deadline`]: every front runs on
    //! the ordered pipeline, whose caller waits on each index without
    //! a bound, so a lost index would hang the suite instead of failing
    //! the test.
    use super::*;
    use proplite::within_deadline;

    fn mix(x: u64) -> u64 {
        // A cheap pure function with enough bit churn to catch any
        // ordering mistake.
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }

    #[test]
    fn par_map_matches_serial_map() {
        within_deadline(|| {
            let items: Vec<u64> = (0..257).collect();
            let serial: Vec<u64> = items.iter().map(|&x| mix(x)).collect();
            for jobs in [1, 2, 3, 8] {
                assert_eq!(par_map(jobs, &items, |&x| mix(x)), serial, "jobs={jobs}");
            }
        });
    }

    #[test]
    fn par_map_indexed_is_jobs_invariant() {
        within_deadline(|| {
            let one = par_map_indexed(1, 100, |i| mix(i as u64));
            let eight = par_map_indexed(8, 100, |i| mix(i as u64));
            assert_eq!(one, eight);
        });
    }

    #[test]
    fn nested_par_map_works() {
        within_deadline(|| {
            // A task that itself fans out: scoped pools nest cleanly.
            let out = par_map_indexed(4, 6, |i| {
                let inner = par_map_indexed(2, 5, move |j| mix((i * 5 + j) as u64));
                inner.iter().fold(0u64, |a, &b| a.wrapping_add(b))
            });
            let expect: Vec<u64> = (0..6)
                .map(|i| (0..5).map(|j| mix((i * 5 + j) as u64)).fold(0u64, |a, b| a.wrapping_add(b)))
                .collect();
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn try_par_map_surfaces_panics_per_task() {
        within_deadline(|| {
            let items: Vec<usize> = (0..20).collect();
            let out = try_par_map(4, &items, |&x| {
                if x % 7 == 3 {
                    panic!("bad {x}");
                }
                x * 2
            });
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    assert_eq!(r.as_ref().unwrap_err().task, i);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2);
                }
            }
        });
    }

    #[test]
    fn try_par_map_multi_panic_keeps_order_and_payloads() {
        within_deadline(|| {
            // Several tasks panic in the same run; every slot must still
            // describe its own task, at any worker count.
            let items: Vec<u64> = (0..33).map(mix).collect();
            for jobs in [1, 2, 8] {
                let out = try_par_map(jobs, &items, |&x| {
                    if x % 3 == 0 {
                        panic!("value {x} rejected");
                    }
                    x.wrapping_mul(3)
                });
                assert_eq!(out.len(), items.len(), "jobs={jobs}");
                let mut panics = 0;
                for (i, r) in out.iter().enumerate() {
                    let x = items[i];
                    match r {
                        Err(p) => {
                            panics += 1;
                            assert_eq!(p.task, i);
                            assert_eq!(p.payload, format!("value {x} rejected"));
                            assert_eq!(x % 3, 0);
                        }
                        Ok(v) => assert_eq!(*v, x.wrapping_mul(3)),
                    }
                }
                assert!(panics >= 2, "fixture must exercise the multi-panic path");
            }
        });
    }

    #[test]
    fn par_map_reraises_lowest_indexed_panic() {
        within_deadline(|| {
            let caught = std::panic::catch_unwind(|| {
                par_map_indexed(4, 16, |i| {
                    if i == 3 || i == 12 {
                        panic!("task {i} failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("must re-raise");
            let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, "task 3 failed", "lowest index wins deterministically");
        });
    }

    #[test]
    fn par_map_with_reuses_scratch_per_worker() {
        within_deadline(|| {
            let out = par_map_with(
                3,
                40,
                |_| Vec::<u64>::new(),
                |buf, i| {
                    buf.clear();
                    buf.extend((0..4).map(|k| mix((i * 4 + k) as u64)));
                    buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
                },
            );
            assert_eq!(out.len(), 40);
            let serial = par_map_with(1, 40, |_| Vec::<u64>::new(), |buf, i| {
                buf.clear();
                buf.extend((0..4).map(|k| mix((i * 4 + k) as u64)));
                buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
            });
            assert_eq!(out, serial);
        });
    }

    #[test]
    fn worker_state_is_per_worker_scratch() {
        within_deadline(|| {
            // Each worker's state is initialized once and reusable; tasks
            // must not observe another task's leftovers if they overwrite
            // before reading (the contract).
            let out = par_map_with(
                4,
                50,
                |w| vec![w; 8],
                |buf, i| {
                    for slot in buf.iter_mut() {
                        *slot = i;
                    }
                    buf.iter().sum::<usize>()
                },
            );
            assert_eq!(out, (0..50).map(|i| i * 8).collect::<Vec<_>>());
        });
    }

    #[test]
    fn empty_and_singleton_inputs() {
        within_deadline(|| {
            assert!(par_map::<u64, u64, _>(4, &[], |&x| x).is_empty());
            assert_eq!(par_map(4, &[41u64], |&x| x + 1), vec![42]);
        });
    }

    #[test]
    fn zero_tasks_is_fine() {
        within_deadline(|| {
            assert!(par_map_with(4, 0, |_| (), |_, i| i).is_empty());
            assert!(par_map_indexed(4, 0, |i| i).is_empty());
            assert!(try_par_map::<u64, u64, _>(4, &[], |&x| x).is_empty());
        });
    }
}
