//! Pins what the daemon allocates, deterministically, with a counting
//! allocator that tracks, per thread, the live bytes and the number of
//! allocations (as `crates/core/tests/monitor_footprint.rs` does).
//!
//! * A seeded fleet of 64 sessions, streamed through the stdin loop
//!   (`run_reader`), makes a pinned number of allocations, at most three per
//!   fed event with the sessions' opens and closes included. Routing and
//!   the turn allocate nothing per event: the frame's session id is a slice
//!   of the input line, the run queue holds slab handles, every frame names
//!   its session by the session's shared id, and the turn's frames go to
//!   one reused buffer. What remains comes from the owned events the
//!   decoder hands the monitor, and from the monitor itself:
//!   - the `ObjId` of each decoded operation event (its object name);
//!   - the argument `Vec` of each write invocation, decoded and then copied
//!     into the transaction's pending invocation;
//!   - the witness `Vec` of each check the monitor runs;
//!   - session growth: per-transaction cells and operation lists, the memo
//!     and the value table, the inbox, and each session's id and monitor at
//!     its open.
//! * A served session holds at most [`EST_ENTRY_BYTES`] live bytes per
//!   resident memo entry after a real-time-chained knot history, so the
//!   governor's `--memo-budget` arithmetic does not under-count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use tm_serve::{run_reader, ServeConfig, SessionTable, EST_ENTRY_BYTES};

#[path = "../../core/tests/common/knots.rs"]
mod knots;
#[path = "common/served_knots.rs"]
mod served_knots;
#[path = "common/streams.rs"]
mod streams;
use served_knots::served_knot_history;
use streams::{fleet, interleaved_stream};

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

#[test]
fn fleet_allocations_per_fed_event_are_pinned() {
    // `replay_identity.rs`'s 64-session benchmark fleet.
    let fleet = fleet(64);
    let stream = interleaved_stream(&fleet);
    let fed: usize = fleet.iter().map(|(_, h)| h.len()).sum();

    let before = allocations();
    let code = run_reader(
        ServeConfig::default(),
        io::Cursor::new(stream.as_bytes()),
        &mut io::sink(),
    );
    let made = allocations() - before;
    assert_eq!(code, 0, "the fleet is served cleanly");
    // `(allocations, fed events)`: 2.44 per fed event. The loop made
    // 11 538 (6.72 per fed event) before session handles, the borrowed
    // decode and the reused turn buffer, and 4 027 before each session
    // numbered its object values (the value table's `Vec` and index grow
    // in every session).
    assert_eq!((made, fed), (4195, 1716));
    let per_event = made as f64 / fed as f64;
    assert!(per_event <= 3.0, "{per_event:.2} allocations per fed event");
}

#[test]
fn served_bytes_per_resident_memo_entry_fit_the_estimate() {
    let events = served_knot_history(5, 3);
    let mut table = SessionTable::new(ServeConfig::default());
    let before = live_bytes();
    table.open("knots", 0);
    let mut last = None;
    for e in events {
        table.feed("knots", e, None, 0);
        last = table.pump_one().pop();
    }
    let last = last.expect("the last event is answered").frame.render();
    assert!(last.contains(r#""verdict":"violated","at":101"#), "{last}");
    let bytes = (live_bytes() - before) as u64;
    let resident = table.memo_resident() as u64;
    // Every byte the served session holds, over the dead ends it keeps:
    // the same 250 entries the one-shot check of the unmoved history
    // keeps (`monitor_footprint.rs`). Before the memo keyed dead ends on
    // the live objects only, it held 515 172 B over 2 542 entries, and
    // 60 452 B before the search state dropped its whole-state fingerprint
    // (8 B per `SlotStates` the served session holds).
    assert_eq!((bytes, resident), (60_420, 250));
    let per_entry = bytes.div_ceil(resident);
    assert!(
        per_entry <= EST_ENTRY_BYTES,
        "{per_entry} B per resident entry, estimated {EST_ENTRY_BYTES} B"
    );
}
