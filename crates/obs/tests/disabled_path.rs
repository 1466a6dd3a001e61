//! Pins the disabled-path guarantee deterministically: with no sink
//! installed, the instrumented operations perform **zero heap
//! allocations** (and the span guard doesn't even read the clock — not
//! observable here, but the allocation count is).
//!
//! This is the cheap, deterministic half of the overhead acceptance
//! criterion; the wall-clock half is perfbench's untraced runs, which take
//! the disabled path (`bench.trace_overhead` compares them with traced
//! runs of the same work).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with an allocation counter bolted on.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// One test function: the process-global allocation counter would count a
// concurrently running sibling test's allocations into the measured window.
#[test]
fn disabled_path_allocates_nothing() {
    let obs = tm_obs::ObsHandle::disabled();
    // Warm up thread-local machinery outside the measured window.
    obs.counter_add("warmup", 1);
    let before = allocations();
    for i in 0..10_000u64 {
        obs.counter_add("search.nodes", i);
        obs.gauge_set("search.workers", i);
        obs.observe("check.verdict_ns", i);
        let _guard = obs.span("check", "search");
    }
    assert!(obs.spans().is_empty());
    assert_eq!(
        allocations() - before,
        0,
        "disabled observability must not allocate"
    );

    // Sanity check on the harness itself: if the allocator hook were
    // broken, the assertion above would pass vacuously.
    let before = allocations();
    let obs = tm_obs::ObsHandle::install();
    obs.counter_add("k", 1);
    assert!(allocations() > before, "counting allocator is wired up");
}
