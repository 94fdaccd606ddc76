//! The scoped work-stealing pool.
//!
//! One invocation of [`run_tasks`] owns its threads: workers are
//! spawned inside `std::thread::scope` and joined before the call
//! returns, so borrowing the caller's data needs no `'static` bounds
//! and nested invocations (a task that itself fans out) are safe.
//!
//! Scheduling: the index range `0..n` is split into chunks of roughly
//! `n / (jobs * CHUNKS_PER_WORKER)` tasks, dealt round-robin onto
//! per-worker deques. A worker pops chunks from the *front* of its own
//! deque and, when empty, steals from the *back* of a victim's —
//! scanning victims in a fixed ring order from its own id. Because no
//! chunk is ever re-queued, an empty sweep over every deque means the
//! pool is drained and the worker exits.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Target chunks per worker: small enough to bound load imbalance to
/// ~1/4 of a worker's fair share, large enough to keep deque traffic
/// (one mutex acquisition per chunk) negligible next to task work.
const CHUNKS_PER_WORKER: usize = 4;

/// A task that panicked, contained by the runtime.
///
/// The process survives, the other tasks' results are unaffected, and
/// the panic is reported against the task's stable index — the same
/// index at any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Stable index of the task that panicked.
    pub task: usize,
    /// Stringified panic payload (`&str`/`String` payloads verbatim).
    pub payload: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.payload)
    }
}

impl std::error::Error for TaskPanic {}

/// Per-worker execution counters, for the bench harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker id in `0..jobs`.
    pub worker: usize,
    /// Tasks this worker executed (including ones that panicked).
    pub tasks_run: u64,
    /// Of `tasks_run`, how many arrived by stealing a victim's chunk.
    pub tasks_stolen: u64,
    /// Wall-clock time spent inside task bodies.
    pub busy: Duration,
}

impl WorkerStats {
    fn new(worker: usize) -> Self {
        WorkerStats { worker, tasks_run: 0, tasks_stolen: 0, busy: Duration::ZERO }
    }
}

/// What the pool did: one [`WorkerStats`] per worker.
///
/// Counters describe *scheduling*, which is timing-dependent — they
/// vary run to run even though task results never do. Report them in
/// benches; keep them out of golden outputs.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Worker count the pool ran with.
    pub jobs: usize,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

impl PoolReport {
    /// Total tasks executed across workers.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_run).sum()
    }

    /// Total tasks that ran on a thief's thread.
    pub fn total_stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_stolen).sum()
    }

    /// Aggregate busy time across workers (sums over threads, so it can
    /// exceed wall-clock time — that excess *is* the parallelism).
    pub fn busy_total(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }
}

/// Stringify a panic payload (mirrors proplite's runner).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Lock a deque, shrugging off poisoning: the protected value is a
/// plain queue of index ranges, valid no matter where a holder died.
fn lock_deque(
    dq: &Mutex<VecDeque<Range<usize>>>,
) -> std::sync::MutexGuard<'_, VecDeque<Range<usize>>> {
    dq.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Split `0..n` into chunks and deal them round-robin onto `jobs`
/// deques. Chunk layout depends only on `(n, jobs)` — and results
/// don't depend on it at all, thanks to the index-ordered merge.
fn deal_chunks(n: usize, jobs: usize) -> Vec<Mutex<VecDeque<Range<usize>>>> {
    let chunk = (n / (jobs * CHUNKS_PER_WORKER)).max(1);
    let deques: Vec<Mutex<VecDeque<Range<usize>>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    let mut start = 0;
    let mut k = 0;
    while start < n {
        let end = (start + chunk).min(n);
        lock_deque(&deques[k % jobs]).push_back(start..end);
        start = end;
        k += 1;
    }
    deques
}

/// Fetch the next chunk for worker `me`: own deque first (front), then
/// steal from victims' backs in ring order. `None` means drained.
fn next_chunk(
    deques: &[Mutex<VecDeque<Range<usize>>>],
    me: usize,
    stats: &mut WorkerStats,
) -> Option<Range<usize>> {
    if let Some(r) = lock_deque(&deques[me]).pop_front() {
        return Some(r);
    }
    for k in 1..deques.len() {
        let victim = (me + k) % deques.len();
        if let Some(r) = lock_deque(&deques[victim]).pop_back() {
            stats.tasks_stolen += r.len() as u64;
            return Some(r);
        }
    }
    None
}

/// Run task `i` with panic containment, updating counters.
fn run_one<S, R>(
    task: &(impl Fn(&mut S, usize) -> R + Sync),
    state: &mut S,
    i: usize,
    stats: &mut WorkerStats,
) -> Result<R, TaskPanic> {
    let t0 = Instant::now();
    let out = contain(i, || task(state, i));
    stats.busy += t0.elapsed();
    stats.tasks_run += 1;
    out
}

/// Run task `i`'s body under `catch_unwind`, turning a panic into a
/// typed [`TaskPanic`] at that index.
pub(crate) fn contain<R>(i: usize, body: impl FnOnce() -> R) -> Result<R, TaskPanic> {
    // AssertUnwindSafe: a panicked task's result is discarded, and the
    // worker state is a caller-provided scratch value whose every use
    // fully overwrites it before reading (the `init`/`task` contract).
    catch_unwind(AssertUnwindSafe(body))
        .map_err(|p| TaskPanic { task: i, payload: panic_message(p) })
}

/// The core executor: run tasks `0..n` on `jobs` workers, each worker
/// owning one `init(worker_id)` state value (scratch buffers, local
/// RNG caches), and return per-task results **in index order** plus
/// the pool's counters.
///
/// Determinism: `task(&mut state, i)` must be a pure function of `i`
/// and its captured environment (state is scratch, not an accumulator
/// — which worker runs `i` is scheduling-dependent). Under that
/// contract the returned vector is bit-identical at any `jobs`.
pub fn run_tasks<S, R, I, F>(
    jobs: usize,
    n: usize,
    init: I,
    task: F,
) -> (Vec<Result<R, TaskPanic>>, PoolReport)
where
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let jobs = jobs.max(1);
    if jobs == 1 || n <= 1 {
        // Serial fast path: no threads, same containment semantics.
        let mut stats = WorkerStats::new(0);
        let mut state = init(0);
        let out = (0..n).map(|i| run_one(&task, &mut state, i, &mut stats)).collect();
        return (out, PoolReport { jobs: 1, workers: vec![stats] });
    }

    let deques = deal_chunks(n, jobs);
    let collected: Vec<(Vec<(usize, Result<R, TaskPanic>)>, WorkerStats)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    let deques = &deques;
                    let init = &init;
                    let task = &task;
                    scope.spawn(move || {
                        let mut stats = WorkerStats::new(w);
                        let mut state = init(w);
                        let mut local = Vec::new();
                        while let Some(range) = next_chunk(deques, w, &mut stats) {
                            for i in range {
                                local.push((i, run_one(task, &mut state, i, &mut stats)));
                            }
                        }
                        (local, stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(w, h)| {
                    // A worker can only panic outside task isolation if
                    // the runtime itself is buggy; degrade to a typed
                    // loss rather than aborting the caller.
                    h.join().unwrap_or_else(|_| (Vec::new(), WorkerStats::new(w)))
                })
                .collect()
        });

    // Index-ordered merge: scheduling decided who computed each slot,
    // the index decides where it lands.
    let mut slots: Vec<Option<Result<R, TaskPanic>>> = (0..n).map(|_| None).collect();
    let mut workers = Vec::with_capacity(jobs);
    for (local, stats) in collected {
        for (i, r) in local {
            slots[i] = Some(r);
        }
        workers.push(stats);
    }
    workers.sort_by_key(|w| w.worker);
    let out = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or_else(|| {
                Err(TaskPanic {
                    task: i,
                    payload: "task result lost: worker thread died outside task isolation"
                        .to_string(),
                })
            })
        })
        .collect();
    (out, PoolReport { jobs, workers })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_exactly_once() {
        for (n, jobs) in [(0, 4), (1, 4), (7, 2), (100, 3), (3, 8)] {
            let deques = deal_chunks(n, jobs);
            let mut seen = vec![0u32; n];
            for dq in &deques {
                for r in lock_deque(dq).iter() {
                    for i in r.clone() {
                        seen[i] += 1;
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "n={n} jobs={jobs}: {seen:?}");
        }
    }

    #[test]
    fn steal_from_empty_pool_returns_none() {
        // More workers than tasks: late workers find every deque empty
        // (or steal), and next_chunk signals drained with None.
        let deques = deal_chunks(2, 8);
        let mut stats = WorkerStats::new(5);
        // Drain everything from worker 5's perspective.
        let mut got = 0;
        while next_chunk(&deques, 5, &mut stats).is_some() {
            got += 1;
        }
        assert_eq!(got, 2, "two single-task chunks to take");
        assert_eq!(stats.tasks_stolen, 2, "worker 5 owns no chunks; both are steals");
        // A second sweep on a drained pool is a clean miss for everyone.
        for me in 0..8 {
            let mut s = WorkerStats::new(me);
            assert!(next_chunk(&deques, me, &mut s).is_none());
            assert_eq!(s.tasks_stolen, 0);
        }
    }

    #[test]
    fn run_tasks_merges_in_index_order() {
        let (out, report) = run_tasks(4, 33, |_| (), |_, i| i * 10);
        let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (0..33).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(report.total_tasks(), 33);
        assert_eq!(report.workers.len(), 4);
    }

    #[test]
    fn zero_tasks_is_fine() {
        let (out, report) = run_tasks::<(), usize, _, _>(4, 0, |_| (), |_, i| i);
        assert!(out.is_empty());
        assert_eq!(report.total_tasks(), 0);
    }

    #[test]
    fn panic_is_contained_and_indexed() {
        let (out, _) = run_tasks(
            3,
            10,
            |_| (),
            |_, i| {
                if i == 4 {
                    panic!("boom at {i}");
                }
                i
            },
        );
        for (i, r) in out.iter().enumerate() {
            if i == 4 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.task, 4);
                assert!(p.payload.contains("boom at 4"), "{}", p.payload);
                assert!(p.to_string().contains("task 4 panicked"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn worker_state_is_per_worker_scratch() {
        // Each worker's state is initialized once and reusable; tasks
        // must not observe another task's leftovers if they overwrite
        // before reading (the contract).
        let (out, _) = run_tasks(
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
        for (i, r) in out.into_iter().enumerate() {
            assert_eq!(r.unwrap(), i * 8);
        }
    }

    #[test]
    fn report_accounts_all_tasks_even_with_steals() {
        let (_, report) = run_tasks(8, 40, |_| (), |_, i| i);
        assert_eq!(report.total_tasks(), 40);
        assert!(report.total_stolen() <= 40);
        assert_eq!(report.jobs, 8);
        for (k, w) in report.workers.iter().enumerate() {
            assert_eq!(w.worker, k);
        }
    }
}
