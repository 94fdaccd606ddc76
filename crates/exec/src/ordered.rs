//! The ordered pipeline: `exec`'s one scheduler.
//!
//! Workers claim runs of contiguous indices in order from one shared
//! counter, never `window` or more past the index the caller is
//! consuming, and the caller's thread receives each result in index
//! order as soon as it and all earlier ones exist.
//! [`par_for_each_ordered`] hands the caller's side to a `sink` that
//! folds results while later tasks still run; the `par_map` family
//! runs the same core with a window of `n` and a sink that collects.
//!
//! Memory is bounded by the window: at most `window` results are
//! computing, waiting or in the caller's hands at once, at any `n`.

use crate::panic::{contain, TaskPanic};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Claims per worker over one window's worth of indices: enough that
/// the last run to finish holds up little, few enough that the shared
/// lock stays cheap next to the tasks. A window of 16 (the campaign
/// drivers') at two or more workers claims one index at a time.
const CLAIMS_PER_WORKER: usize = 8;

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
    /// Workers waiting for the window to open, and whether the caller
    /// waits for a result: a condvar is signalled only when someone
    /// waits on it, because each signal costs a system call.
    idle_workers: usize,
    caller_waits: bool,
}

struct Pipeline<R> {
    shared: Mutex<Shared<R>>,
    /// Signalled when `consumed` advances or `stop` is set.
    claimable: Condvar,
    /// Signalled when the slot of index `consumed` fills.
    ready: Condvar,
    window: usize,
    /// Indices per claim; a claim at the window's edge is shorter.
    chunk: usize,
    n: usize,
}

impl<R> Pipeline<R> {
    fn new(n: usize, window: usize, chunk: usize) -> Self {
        Pipeline {
            shared: Mutex::new(Shared {
                next_claim: 0,
                consumed: 0,
                slots: (0..window).map(|_| None).collect(),
                stop: false,
                idle_workers: 0,
                caller_waits: false,
            }),
            claimable: Condvar::new(),
            ready: Condvar::new(),
            window,
            chunk,
            n,
        }
    }

    /// Lock the shared state, shrugging off poisoning: no code that
    /// can panic runs while it is held, and every field is valid
    /// between any two statements that update it.
    fn lock(&self) -> MutexGuard<'_, Shared<R>> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim the next run of at most `chunk` indices, waiting while
    /// the window is full. `None` once every index is claimed or the
    /// caller stopped.
    fn claim(&self) -> Option<Range<usize>> {
        let mut s = self.lock();
        loop {
            if s.stop || s.next_claim >= self.n {
                return None;
            }
            let limit = s.consumed + self.window;
            if s.next_claim < limit {
                let start = s.next_claim;
                s.next_claim = (start + self.chunk).min(self.n).min(limit);
                return Some(start..s.next_claim);
            }
            s.idle_workers += 1;
            s = self
                .claimable
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
            s.idle_workers -= 1;
        }
    }

    /// Move the results of the run starting at `start` into their
    /// slots under one lock; wake the caller if it waits on one of
    /// them.
    fn publish(&self, start: usize, results: &mut Vec<Result<R, TaskPanic>>) {
        let mut s = self.lock();
        let run = start..start + results.len();
        for (i, r) in run.clone().zip(results.drain(..)) {
            s.slots[i % self.window] = Some(r);
        }
        if s.caller_waits && run.contains(&s.consumed) {
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
            if s.idle_workers > 0 {
                self.claimable.notify_one();
            }
        }
        loop {
            if let Some(r) = s.slots[i % self.window].take() {
                return r;
            }
            s.caller_waits = true;
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
            s.caller_waits = false;
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

/// The core behind every front: run tasks `0..n` on `jobs` workers,
/// each owning one `init(worker)` state value, and hand each result to
/// `sink` on the caller's thread in index order (the contract of
/// [`par_for_each_ordered`]).
///
/// The states are built on the caller's thread before any worker
/// starts, so a panicking `init` unwinds into the caller. `task` must
/// treat its state as scratch: which worker runs an index depends on
/// scheduling.
pub(crate) fn run_ordered<S, R, E>(
    jobs: usize,
    n: usize,
    window: usize,
    init: impl Fn(usize) -> S,
    task: impl Fn(&mut S, usize) -> R + Sync,
    mut sink: impl FnMut(usize, Result<R, TaskPanic>) -> Result<(), E>,
) -> Result<(), E>
where
    S: Send,
    R: Send,
{
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        // Serial path: no threads, same containment and order.
        let mut state = init(0);
        for i in 0..n {
            sink(i, contain(i, || task(&mut state, i)))?;
        }
        return Ok(());
    }

    let window = window.max(1);
    let chunk = (n.min(window) / (workers * CLAIMS_PER_WORKER)).max(1);
    let pipe = Pipeline::new(n, window, chunk);
    let states: Vec<S> = (0..workers).map(init).collect();
    std::thread::scope(|scope| {
        // Armed before the first spawn, so a failed spawn stops the
        // workers already running too.
        let stop = StopOnDrop(&pipe);
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (pipe, task) = (&pipe, &task);
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(pipe.chunk);
                    while let Some(run) = pipe.claim() {
                        let start = run.start;
                        local.extend(run.map(|i| contain(i, || task(&mut state, i))));
                        pipe.publish(start, &mut local);
                    }
                })
            })
            .collect();
        let out = (0..n).try_for_each(|i| sink(i, pipe.take(i)));
        drop(stop);
        // Join the threads, not just their closures (all the scope
        // waits for): a thread hands its malloc arena back only as it
        // exits, and a pool started before that would open new arenas
        // and raise peak RSS.
        for h in handles {
            let _ = h.join();
        }
        out
    })
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
    sink: S,
) -> Result<(), E>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    S: FnMut(usize, Result<R, TaskPanic>) -> Result<(), E>,
{
    run_ordered(jobs, n, window, |_| (), |_, i| task(i), sink)
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
    fn claims_are_contiguous_runs_clipped_at_the_window() {
        let pipe = Pipeline::<usize>::new(11, 10, 4);
        assert_eq!(pipe.claim(), Some(0..4));
        assert_eq!(pipe.claim(), Some(4..8));
        assert_eq!(pipe.claim(), Some(8..10), "a run stops at the window's edge");
        pipe.publish(0, &mut (0..4).map(Ok).collect());
        assert_eq!((pipe.take(0), pipe.take(1)), (Ok(0), Ok(1)));
        // Index 0 is consumed, so the window now reaches index 10.
        assert_eq!(pipe.claim(), Some(10..11));
        assert_eq!(pipe.claim(), None, "every index is claimed");
    }

    #[test]
    fn in_flight_results_never_exceed_the_window() {
        // Window 64 at two workers claims runs of four indices.
        for (jobs, window) in [(2, 1), (3, 2), (8, 5), (8, 16), (2, 64)] {
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
