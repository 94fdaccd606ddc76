//! The ordered pipeline: results streamed to the caller in index order
//! while the workers keep computing.
//!
//! [`par_map`](crate::par_map) and friends return only after every task
//! has finished, so a caller that folds results into a running state
//! (and perhaps writes each fold to disk) must either hold all `n`
//! results or run in waves, idling the pool at every wave end.
//! [`par_for_each_ordered`] removes the waves: workers claim indices in
//! order from one shared counter, less than `window` ahead of the index
//! the caller is consuming, and the caller's thread receives each
//! result in index order as soon as it and all earlier ones exist.
//!
//! Memory is bounded by the window: at most `window` results are
//! computing, waiting or in the caller's hands at once, at any `n`.

use crate::pool::{contain, TaskPanic};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The state workers and the caller share, under one mutex.
struct Shared<R> {
    /// The next index a worker will claim.
    next_claim: usize,
    /// The index the caller is taking or sinking; the sink has
    /// returned for every index below it.
    consumed: usize,
    /// Finished results, index `i` in slot `i % window`. Claims never
    /// run `window` past `consumed`, so live indices never collide.
    slots: Vec<Option<Result<R, TaskPanic>>>,
    /// Set when the caller stops early (sink error, sink panic).
    stop: bool,
}

struct Pipeline<R> {
    shared: Mutex<Shared<R>>,
    /// Signalled when `consumed` advances or `stop` is set.
    claimable: Condvar,
    /// Signalled when the slot of index `consumed` fills.
    ready: Condvar,
    window: usize,
    n: usize,
}

impl<R> Pipeline<R> {
    /// Lock the shared state, shrugging off poisoning: no code that
    /// can panic runs while it is held, and every field is valid
    /// between any two statements that update it.
    fn lock(&self) -> MutexGuard<'_, Shared<R>> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim the next index, waiting while the window is full.
    /// `None` once every index is claimed or the caller stopped.
    fn claim(&self) -> Option<usize> {
        let mut s = self.lock();
        loop {
            if s.stop || s.next_claim >= self.n {
                return None;
            }
            if s.next_claim < s.consumed + self.window {
                s.next_claim += 1;
                return Some(s.next_claim - 1);
            }
            s = self
                .claimable
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publish task `i`'s result; wake the caller if it waits on `i`.
    fn publish(&self, i: usize, r: Result<R, TaskPanic>) {
        let mut s = self.lock();
        s.slots[i % self.window] = Some(r);
        if i == s.consumed {
            self.ready.notify_one();
        }
    }

    /// Take result `i`, waiting until it exists. Calling it marks
    /// every index below `i` consumed (the sink has returned for
    /// them), which opens the window.
    fn take(&self, i: usize) -> Result<R, TaskPanic> {
        let mut s = self.lock();
        if s.consumed != i {
            s.consumed = i;
            self.claimable.notify_one();
        }
        loop {
            if let Some(r) = s.slots[i % self.window].take() {
                return r;
            }
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Stops the workers when the caller's side ends by any path — normal
/// exit, a sink `Err`, or a panic (sink or spawn) unwinding through the
/// scope — so no worker is left waiting on a window that will never
/// open.
struct StopOnDrop<'a, R>(&'a Pipeline<R>);

impl<R> Drop for StopOnDrop<'_, R> {
    fn drop(&mut self) {
        self.0.lock().stop = true;
        self.0.claimable.notify_all();
    }
}

/// Run tasks `0..n` on `jobs` workers and hand each result to `sink`
/// on the caller's thread, **in index order**, while later tasks still
/// run.
///
/// - Workers claim indices in order, never `window` (at least 1) or
///   more past the lowest index `sink` has not returned from; that
///   bounds the results in flight, the one in `sink` included, at
///   `window`.
/// - A panicking task is contained: `sink` receives `Err(TaskPanic)` at
///   its index, and later results still arrive.
/// - If `sink` returns `Err`, no further task starts, `sink` is not
///   called again, and the error is returned once the tasks already
///   running finish. A panicking `sink` stops the pool the same way
///   and then unwinds into the caller.
///
/// Determinism: `sink` sees `(i, result)` for `i = 0, 1, …` exactly
/// once each, whatever `jobs`, `window` and the scheduling, so any
/// state `sink` folds is bit-identical at any worker count as long as
/// `task(i)` is a pure function of `i` (the crate's contract).
pub fn par_for_each_ordered<R, E, F, S>(
    jobs: usize,
    n: usize,
    window: usize,
    task: F,
    mut sink: S,
) -> Result<(), E>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    S: FnMut(usize, Result<R, TaskPanic>) -> Result<(), E>,
{
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        // Serial path: no threads, same containment and order.
        for i in 0..n {
            sink(i, contain(i, || task(i)))?;
        }
        return Ok(());
    }

    let window = window.max(1);
    let pipe = Pipeline {
        shared: Mutex::new(Shared {
            next_claim: 0,
            consumed: 0,
            slots: (0..window).map(|_| None).collect(),
            stop: false,
        }),
        claimable: Condvar::new(),
        ready: Condvar::new(),
        window,
        n,
    };
    std::thread::scope(|scope| {
        // Armed before the first spawn, so a failed spawn stops the
        // workers already running too.
        let _stop = StopOnDrop(&pipe);
        for _ in 0..workers {
            let (pipe, task) = (&pipe, &task);
            scope.spawn(move || {
                while let Some(i) = pipe.claim() {
                    pipe.publish(i, contain(i, || task(i)));
                }
            });
        }
        for i in 0..n {
            sink(i, pipe.take(i))?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }

    /// Spin a little so tasks overlap and finish out of claim order.
    fn busy(i: usize) {
        let mut x = i as u64;
        for _ in 0..(mix(i as u64) % 20_000) {
            x = std::hint::black_box(mix(x));
        }
    }

    #[test]
    fn results_arrive_in_index_order() {
        // A zero window runs as a window of one.
        for (jobs, window) in [(1, 4), (2, 4), (3, 4), (8, 4), (3, 0)] {
            let mut got = Vec::new();
            let out: Result<(), ()> = par_for_each_ordered(
                jobs,
                100,
                window,
                |i| {
                    busy(i);
                    mix(i as u64)
                },
                |i, r| {
                    got.push((i, r.expect("no panics")));
                    Ok(())
                },
            );
            assert_eq!(out, Ok(()));
            let want: Vec<(usize, u64)> = (0..100).map(|i| (i, mix(i as u64))).collect();
            assert_eq!(got, want, "jobs={jobs} window={window}");
        }
    }

    #[test]
    fn in_flight_results_never_exceed_the_window() {
        for (jobs, window) in [(2, 1), (3, 2), (8, 5), (8, 16)] {
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let _: Result<(), ()> = par_for_each_ordered(
                jobs,
                200,
                window,
                |i| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    busy(i);
                },
                |i, _| {
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    // A slow consumer lets the workers run into the
                    // window's edge.
                    busy(i * 7);
                    Ok(())
                },
            );
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= window, "jobs={jobs} window={window}: peak {peak}");
            assert_eq!(in_flight.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn a_task_panic_arrives_at_its_index_and_later_results_follow() {
        for jobs in [1, 2, 3, 8] {
            let mut got = Vec::new();
            let _: Result<(), ()> = par_for_each_ordered(
                jobs,
                20,
                3,
                |i| {
                    if i == 9 {
                        panic!("pane {i} broke");
                    }
                    i * 2
                },
                |i, r| {
                    got.push((i, r));
                    Ok(())
                },
            );
            assert_eq!(got.len(), 20, "jobs={jobs}");
            for (k, (i, r)) in got.into_iter().enumerate() {
                assert_eq!(i, k);
                match r {
                    Err(p) => {
                        assert_eq!((p.task, p.payload.as_str()), (9, "pane 9 broke"));
                    }
                    Ok(v) => assert_eq!((i, v), (i, i * 2), "jobs={jobs}"),
                }
            }
        }
    }

    #[test]
    fn a_sink_error_ends_the_call_without_further_sink_calls() {
        for jobs in [1, 2, 3, 8] {
            let started = AtomicUsize::new(0);
            let mut calls = Vec::new();
            let out = par_for_each_ordered(
                jobs,
                1000,
                4,
                |i| {
                    started.fetch_add(1, Ordering::SeqCst);
                    i
                },
                |i, _| {
                    calls.push(i);
                    if i == 5 {
                        Err(format!("stop at {i}"))
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(out, Err("stop at 5".to_string()), "jobs={jobs}");
            assert_eq!(calls, (0..=5).collect::<Vec<_>>());
            // Nothing past the window of the stopping index starts.
            assert!(started.load(Ordering::SeqCst) <= 5 + 4, "jobs={jobs}");
        }
    }

    #[test]
    fn a_panicking_sink_does_not_hang_the_pool() {
        for jobs in [2, 3, 8] {
            let caught = std::panic::catch_unwind(|| {
                let _: Result<(), ()> = par_for_each_ordered(
                    jobs,
                    500,
                    2,
                    |i| i,
                    |i, _| {
                        if i == 3 {
                            panic!("sink failed at {i}");
                        }
                        Ok(())
                    },
                );
            });
            let payload = caught.expect_err("the sink panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "sink failed at 3", "jobs={jobs}");
        }
    }

    #[test]
    fn empty_range_and_more_workers_than_tasks() {
        let mut calls = 0;
        let out: Result<(), ()> = par_for_each_ordered(
            4,
            0,
            16,
            |i| i,
            |_, _| {
                calls += 1;
                Ok(())
            },
        );
        assert_eq!((out, calls), (Ok(()), 0));

        for n in [1, 2, 3] {
            let mut got = Vec::new();
            let _: Result<(), ()> = par_for_each_ordered(
                8,
                n,
                16,
                |i| i + 10,
                |i, r| {
                    got.push((i, r.expect("no panics")));
                    Ok(())
                },
            );
            assert_eq!(got, (0..n).map(|i| (i, i + 10)).collect::<Vec<_>>());
        }
    }
}
