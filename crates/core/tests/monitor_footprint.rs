//! Pins the heap footprint of the checker deterministically, with a
//! counting allocator that tracks, per thread, the live bytes and the
//! number of allocations.
//!
//! * An [`OpacityMonitor`] holds exactly the heap bytes of the
//!   [`CheckSession`] it drives. The monitor is a policy over the session
//!   (skip invocation checks, latch the first violation and the first hard
//!   error), so any extra live byte is a second copy of something the
//!   session already holds — the event stream, most likely, which would
//!   grow with every feed.
//! * The exhaustive check of a real-time-chained knot history allocates a
//!   pinned number of times, at most one allocation per ten DFS nodes: the
//!   dead-end memo appends its entries to an arena, so an insert is a bump,
//!   not an allocation.
//! * The live bytes a session holds per resident memo entry after that
//!   check are pinned too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tm_model::builder::HistoryBuilder;
use tm_model::{History, SpecRegistry};
use tm_opacity::incremental::OpacityMonitor;
use tm_opacity::{CheckSession, SearchConfig, SearchMode};

#[path = "common/knots.rs"]
mod knots;
use knots::rt_chain_knot_history;

/// The system allocator with a live-byte and an allocation counter bolted
/// on.
struct CountingAlloc;

thread_local! {
    /// Bytes allocated and not yet freed by this thread. Per thread, so the
    /// test harness's own threads cannot count into a measured window.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    /// Allocations (a `realloc` counts as one) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count(delta: isize, allocations: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
}

// SAFETY: delegates verbatim to `System`; the counters have no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// `n` transactions in real-time order, each reading `x`, writing it, and
/// committing: an opaque history of `6 n` events.
fn chain(n: u32) -> History {
    let mut b = HistoryBuilder::new();
    for t in 1..=n {
        b = b
            .read(t, "x", i64::from(t) - 1)
            .write(t, "x", i64::from(t))
            .try_commit(t)
            .commit(t);
    }
    b.build()
}

#[test]
fn monitor_holds_no_more_than_its_check_session() {
    let specs = SpecRegistry::registers();
    let h = chain(60);
    assert_eq!(h.len(), 360);

    let before = live_bytes();
    let mut session = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
    for e in h.events() {
        session.extend(e).unwrap();
        if e.is_response() {
            assert!(session.check().unwrap().holds());
        }
    }
    let session_bytes = live_bytes() - before;
    drop(session);

    let before = live_bytes();
    let mut monitor = OpacityMonitor::new(&specs);
    assert_eq!(monitor.feed_all(&h).unwrap(), None);
    let monitor_bytes = live_bytes() - before;
    drop(monitor);

    assert!(session_bytes > 0, "counting allocator is wired up");
    assert_eq!(
        monitor_bytes, session_bytes,
        "the monitor must hold only its check session's bytes"
    );
}

/// What one session spends on the exhaustive check of
/// `rt_chain_knot_history(knots, writers)`.
struct KnotFootprint {
    /// Allocations made by feeding every event to `extend`.
    extend_allocations: usize,
    /// Allocations made by the one `check` (its outcome included).
    check_allocations: usize,
    /// DFS nodes of the check.
    nodes: usize,
    /// Dead-end entries resident after the check.
    resident: usize,
    /// Live heap bytes the session holds after the check.
    session_bytes: isize,
}

fn knot_footprint(knots: u32, writers: u32) -> KnotFootprint {
    let specs = SpecRegistry::registers();
    let h = rt_chain_knot_history(knots, writers);
    let (bytes_before, allocations_before) = (live_bytes(), allocations());
    let mut session = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
    for e in h.events() {
        session.extend(e).unwrap();
    }
    let allocations_extended = allocations();
    let out = session.check().unwrap();
    assert!(!out.holds(), "the knot history is not opaque");
    let nodes = out.stats.nodes;
    drop(out);
    let footprint = KnotFootprint {
        extend_allocations: allocations_extended - allocations_before,
        check_allocations: allocations() - allocations_extended,
        nodes,
        resident: session.memo_resident(),
        session_bytes: live_bytes() - bytes_before,
    };
    drop(session);
    footprint
}

#[test]
fn knot_check_allocations_are_pinned() {
    // `(extend allocations, check allocations, nodes)`. The node counts
    // are `knot_workloads.rs`'s pins; the allocations are what the check
    // spends on them, the session's value table (its `Vec` and its index
    // growing) included. The check reserves its candidate order and its
    // path (steps, undo log, state) once from the transaction and object
    // counts; growing them step by step cost 11 more allocations.
    for ((knots, writers), pinned) in [((3, 3), (64, 29, 183)), ((5, 3), (98, 33, 339))] {
        let f = knot_footprint(knots, writers);
        assert_eq!(
            (f.extend_allocations, f.check_allocations, f.nodes),
            pinned,
            "rt_chain_knot_history({knots}, {writers})"
        );
    }
}

#[test]
fn knot_check_allocates_at_most_once_per_ten_nodes() {
    let f = knot_footprint(5, 3);
    assert!(
        f.check_allocations * 10 <= f.nodes,
        "{} allocations over {} nodes",
        f.check_allocations,
        f.nodes
    );
}

#[test]
fn session_bytes_per_resident_memo_entry_are_pinned() {
    // Every byte the session holds after the check, over the dead ends it
    // keeps: the memo is most of it, 213 B per entry with 8-byte
    // `(slot, value id)` pairs (423 B when each pair held its `Value`). The
    // bar is what a memo with one hash map per mask and one boxed entry
    // list per dead end held. Keying dead ends on the live objects only
    // cut the session from 520 912 B over 2 542 entries (205 B each) to a
    // tenth; the per-entry figure rose because the transactions, slots
    // and values the session holds anyway are shared by fewer entries.
    let f = knot_footprint(5, 3);
    assert_eq!((f.session_bytes, f.resident), (53_496, 250));
    let per_entry = f.session_bytes / f.resident as isize;
    assert!(per_entry <= 488, "{per_entry} B per resident entry");
}
