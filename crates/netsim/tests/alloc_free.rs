//! Counting-allocator probe: the fabric's steady-state stepping path
//! performs **zero** heap allocations (ISSUE 5 acceptance criterion).
//!
//! A thread-local counter wrapped around the system allocator counts
//! every `alloc`/`realloc`/`alloc_zeroed` on this thread. After a
//! warm-up that grows the scratch buffers to their high-water mark,
//! stepping — on cache hits, on forced recomputes, through rest
//! windows, while retiring completed flows, and across a whole routed
//! all-to-all shuffle from admission to drain — must not touch the heap
//! at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netsim::fabric::{Fabric, FlowSpec};
use netsim::faults::{FaultEpisode, FaultKind, FaultSchedule};
use netsim::shaper::{Shaper, StaticShaper, TokenBucket};
use netsim::LinkRoute;

struct CountingAlloc;

thread_local! {
    // const-init so reading the counter never allocates lazily.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // try_with: the allocator may be called during TLS teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Run `f` inside its own counter epoch and return the number of
/// allocations it performed. Each measured section gets an independent
/// epoch — a snapshot at entry and a delta at exit — so probing one
/// stepping path can never hide (or get blamed for) allocations from
/// another path's warm-up or measurement.
fn measured<F: FnOnce()>(f: F) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

#[test]
fn steady_state_stepping_is_allocation_free() {
    let mut fabric: Fabric<Box<dyn Shaper + Send>> = Fabric::new();
    for v in 0..8 {
        if v % 2 == 0 {
            fabric.add_node(Box::new(TokenBucket::sigma_rho(5e12, 1e9, 10e9)), 10e9);
        } else {
            fabric.add_node(Box::new(StaticShaper::new(8e9)), 10e9);
        }
    }
    // Long-lived flows: no completions, so the flow set is stable and
    // the scratch buffers reach their high-water mark during warm-up.
    for s in 0..8usize {
        fabric.start_flow(FlowSpec::new(s, (s + 3) % 8, 1e18));
    }
    for _ in 0..50 {
        fabric.step(0.1);
    }
    fabric.reset_perf();

    // 1. Cache-hit steady state: zero allocations.
    let hit_allocs = measured(|| {
        for _ in 0..1_000 {
            let completed = fabric.step(0.1);
            assert!(completed.is_empty(), "steady flows must not complete");
        }
    });
    let perf = fabric.perf();
    assert!(perf.rate_cache_hits >= 990, "expected cache hits, got {perf:?}");
    assert_eq!(hit_allocs, 0, "cache-hit steps allocated {hit_allocs} times");

    // 2. Forced recomputation every step (node 0's link degrades to
    // half on every other 0.1 s step, which flips the input signature
    // without changing the flow set): the water-filling rerun must
    // reuse the scratch buffers, still zero. Each episode is centred
    // on its step's start, so clock rounding cannot move an edge onto
    // one. One warm-up round first so both signature states have been
    // seen.
    let t0 = fabric.now();
    let degrade = |i: usize| FaultEpisode {
        node: 0,
        start_s: t0 + 0.1 * i as f64 - 0.05,
        end_s: t0 + 0.1 * i as f64 + 0.05,
        kind: FaultKind::LinkDegrade,
        rate_factor: 0.5,
    };
    let episodes = (0..1_004).step_by(2).map(degrade);
    fabric.set_fault_schedule(FaultSchedule::from_episodes(8, t0 + 200.0, episodes));
    for _ in 0..4 {
        fabric.step(0.1);
    }
    fabric.reset_perf();
    let recompute_allocs = measured(|| {
        for _ in 0..1_000 {
            fabric.step(0.1);
        }
    });
    let perf = fabric.perf();
    assert_eq!(perf.rate_recomputes, 1_000, "every step must recompute: {perf:?}");
    assert_eq!(
        recompute_allocs, 0,
        "recompute steps allocated {recompute_allocs} times"
    );
}

#[test]
fn resting_is_allocation_free() {
    let mut fabric = Fabric::new();
    for _ in 0..8 {
        fabric.add_node(TokenBucket::sigma_rho(5e12, 1e9, 10e9), 10e9);
    }
    // Warm-up: one idle jump settles any lazy shaper state.
    let mut done = Vec::new();
    fabric.advance(0.1, 10, &mut done);
    let rest_allocs = measured(|| {
        fabric.advance(0.1, 6_000, &mut done);
        for _ in 0..100 {
            let completed = fabric.step(0.1);
            assert!(completed.is_empty());
        }
    });
    assert_eq!(rest_allocs, 0, "rest allocated {rest_allocs} times");
}

/// The event engine's steady-state jumps must be allocation-free too:
/// the window kernel works entirely in the pre-grown struct-of-arrays
/// mirrors (`ev_src`/`ev_rem`/wants/runs) and the caller's completion
/// buffer. The warm-up grows those mirrors to their high-water mark
/// outside the measured counter epoch.
#[test]
fn event_jump_steady_state_is_allocation_free() {
    let mut fabric: Fabric<Box<dyn Shaper + Send>> = Fabric::new();
    for v in 0..8 {
        if v % 2 == 0 {
            fabric.add_node(Box::new(TokenBucket::sigma_rho(5e12, 1e9, 10e9)), 10e9);
        } else {
            fabric.add_node(Box::new(StaticShaper::new(8e9)), 10e9);
        }
    }
    // Long-lived flows: no completions, a stable flow set, maximal
    // event windows.
    for s in 0..8usize {
        fabric.start_flow(FlowSpec::new(s, (s + 3) % 8, 1e18));
    }
    let mut done = Vec::with_capacity(16);

    for _ in 0..50 {
        fabric.advance(0.1, 64, &mut done);
    }
    fabric.reset_perf();
    let event_allocs = measured(|| {
        for _ in 0..250 {
            fabric.advance(0.1, 64, &mut done);
            assert!(done.is_empty(), "steady flows must not complete");
        }
    });
    let perf = fabric.perf();
    assert!(perf.event_jumps > 0, "event engine never jumped: {perf:?}");
    assert!(
        perf.event_steps > perf.steps / 2,
        "jumps covered too few steps: {perf:?}"
    );
    assert_eq!(
        event_allocs, 0,
        "event jumps allocated {event_allocs} times ({perf:?})"
    );
}

/// Completions are allocation-free too: a batch of flows finishing
/// inside an event window is pushed into the caller's pre-reserved
/// completion buffer and retired from the flow map in place. The
/// warm-up runs the identical batch once, so the flow map and the
/// scratch mirrors already hold their high-water capacity.
#[test]
fn event_window_completions_are_allocation_free() {
    const BATCH: usize = 8;
    let mut fabric: Fabric<Box<dyn Shaper + Send>> = Fabric::new();
    for _ in 0..8 {
        fabric.add_node(Box::new(StaticShaper::new(8e9)), 10e9);
    }
    // Survivors: long-lived flows that stay in flight throughout.
    for s in 0..8usize {
        fabric.start_flow(FlowSpec::new(s, (s + 3) % 8, 1e18));
    }
    let mut done = Vec::with_capacity(4 * BATCH);
    // Symmetric equal-size batch: every member gets the same rate.
    let start_batch = |fabric: &mut Fabric<Box<dyn Shaper + Send>>| {
        for s in 0..BATCH {
            fabric.start_flow(FlowSpec::new(s, (s + 1) % 8, 4e9));
        }
    };
    let drain_batch = |fabric: &mut Fabric<Box<dyn Shaper + Send>>, done: &mut Vec<_>| {
        done.clear();
        while done.len() < BATCH {
            assert!(fabric.advance(0.1, 64, done) > 0, "no progress");
        }
    };

    start_batch(&mut fabric);
    drain_batch(&mut fabric, &mut done);
    start_batch(&mut fabric);
    fabric.reset_perf();
    let completion_allocs = measured(|| drain_batch(&mut fabric, &mut done));
    let perf = fabric.perf();
    assert_eq!(done.len(), BATCH, "only the batch completes");
    assert_eq!(fabric.active_flows(), 8, "survivors stay in flight");
    assert_eq!(
        perf.event_steps, perf.steps,
        "every step, the completing one included, ran in an event window: {perf:?}"
    );
    assert_eq!(
        completion_allocs, 0,
        "completing a batch allocated {completion_allocs} times ({perf:?})"
    );
}

/// A routed 64-node all-to-all shuffle (4032 flows over a two-tier
/// tree of access and spine links) runs allocation-free end to end once
/// a warm-up shuffle has grown the scratch buffers and the flow table's
/// columns: batch admission appends to the columns and routes in
/// place, the first `refresh_rates` water-fills in the scratch
/// buffers, and every event window and retirement works in place. Two
/// shapes run: flows of mixed sizes (mixed same-source runs, per-flow
/// window passes) and of one size (uniform runs, each stepped through
/// one representative).
#[test]
fn routed_shuffle_is_allocation_free() {
    const NODES: usize = 64;
    const SPINES: usize = 8;
    const FLOWS: usize = NODES * (NODES - 1);
    let mut fabric: Fabric<Box<dyn Shaper + Send>> = Fabric::new();
    for _ in 0..NODES {
        fabric.add_node(Box::new(StaticShaper::new(10e9)), 10e9);
    }
    // Slots 2v / 2v + 1: node v's access link up / down; then one
    // up / down pair per spine.
    let mut caps = vec![10e9; 2 * NODES];
    caps.extend(std::iter::repeat_n(40e9, 2 * SPINES));
    fabric.set_link_caps(caps);
    let route = |src: usize, dst: usize| {
        let spine = (2 * NODES + 2 * ((src + dst) % SPINES)) as u32;
        LinkRoute::new(&[2 * src as u32, spine, spine + 1, 2 * dst as u32 + 1])
    };
    let shuffle = |fabric: &mut Fabric<Box<dyn Shaper + Send>>, done: &mut Vec<_>, mixed: bool| {
        let specs = (0..NODES).flat_map(|src| {
            (0..NODES).filter(move |&d| d != src).map(move |dst| {
                let size = if mixed { 1 + (src + 3 * dst) % 4 } else { 2 };
                FlowSpec::new(src, dst, 1e8 * size as f64)
            })
        });
        fabric.start_flows(specs, |_, specs, routes| {
            for (r, s) in routes.iter_mut().zip(specs) {
                *r = route(s.src, s.dst);
            }
        });
        done.clear();
        while done.len() < FLOWS {
            assert!(fabric.advance(0.01, 1_000_000, done) > 0, "no progress");
        }
    };
    let mut done = Vec::with_capacity(FLOWS);

    let both = |fabric: &mut Fabric<Box<dyn Shaper + Send>>, done: &mut Vec<_>| {
        shuffle(fabric, done, true);
        shuffle(fabric, done, false);
    };
    both(&mut fabric, &mut done);
    fabric.reset_perf();
    let shuffle_allocs = measured(|| both(&mut fabric, &mut done));
    let perf = fabric.perf();
    assert_eq!(fabric.active_flows(), 0, "the shuffle drained");
    assert!(
        perf.link_recomputes > 0,
        "water-filling never ran: {perf:?}"
    );
    assert_eq!(
        perf.event_steps, perf.steps,
        "every step ran in an event window: {perf:?}"
    );
    assert_eq!(
        shuffle_allocs, 0,
        "a routed shuffle allocated {shuffle_allocs} times ({perf:?})"
    );
}
