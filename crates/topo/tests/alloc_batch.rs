//! Counting-allocator probe for routed batch admission: once a warm-up
//! shuffle has grown the flow table's columns, admitting a wired
//! 64-node all-to-all shuffle on `fattree8` — 4032 seeded path draws,
//! unranks and column appends in one `Wiring::start_flows` call —
//! performs **zero** heap allocations. The router's draw scratch is a
//! fixed stack array reused chunk after chunk, and the routes are
//! written straight into the fabric's route column.
//!
//! A thread-local counter wrapped around the system allocator counts
//! every `alloc`/`realloc`/`alloc_zeroed` on this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netsim::fabric::{Fabric, FlowSpec};
use netsim::shaper::StaticShaper;
use topo::{zoo, Wiring};

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

/// Allocations `f` performed on this thread.
fn measured<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

#[test]
fn wired_shuffle_admission_is_allocation_free() {
    const NODES: usize = 64;
    const FLOWS: usize = NODES * (NODES - 1);
    let w = Wiring::new(zoo::by_name("fattree8", NODES).unwrap(), NODES, 2020, 7).unwrap();
    let mut fabric: Fabric<StaticShaper> = Fabric::new();
    for _ in 0..NODES {
        fabric.add_node(StaticShaper::new(10e9), 10e9);
    }
    w.install(&mut fabric);
    // Src-major all-to-all, as the bigdata engine admits a shuffle.
    let shuffle = |bits: f64| {
        (0..NODES).flat_map(move |src| {
            (0..NODES)
                .filter(move |&dst| dst != src)
                .map(move |dst| FlowSpec::new(src, dst, bits))
        })
    };
    let mut done = Vec::with_capacity(FLOWS);
    let drain = |fabric: &mut Fabric<StaticShaper>, done: &mut Vec<_>| {
        done.clear();
        while done.len() < FLOWS {
            assert!(fabric.advance(0.01, 1_000_000, done) > 0, "no progress");
        }
    };

    let warm = w.start_flows(&mut fabric, shuffle(1e8));
    assert_eq!(warm.len(), FLOWS);
    drain(&mut fabric, &mut done);
    assert_eq!(fabric.active_flows(), 0, "the warm-up shuffle drained");

    let mut span = None;
    let admission = measured(|| span = Some(w.start_flows(&mut fabric, shuffle(2e8))));
    let span = span.unwrap();
    assert_eq!(span.len(), FLOWS);
    assert!(warm.iter().all(|id| id < span.start()), "ids keep counting up");
    assert_eq!(fabric.active_flows(), FLOWS);
    // The wiring installed its links, so the batch took the routed
    // path, not the flat one.
    assert!(fabric.link_count() > 0);
    assert_eq!(
        admission, 0,
        "admitting a wired 64-node shuffle allocated {admission} times"
    );
    drain(&mut fabric, &mut done);
    assert_eq!(done.len(), FLOWS);
}
