//! Pins the monitor's memory footprint deterministically: an
//! [`OpacityMonitor`] holds exactly the heap bytes of the [`CheckSession`]
//! it drives. The monitor is a policy over the session (skip invocation
//! checks, latch the first violation and the first hard error), so any
//! extra live byte is a second copy of something the session already
//! holds — the event stream, most likely, which would grow with every feed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tm_model::builder::HistoryBuilder;
use tm_model::{History, SpecRegistry};
use tm_opacity::incremental::OpacityMonitor;
use tm_opacity::{CheckSession, SearchConfig, SearchMode};

/// The system allocator with a live-byte counter bolted on.
struct CountingAlloc;

thread_local! {
    /// Bytes allocated and not yet freed by this thread. Per thread, so the
    /// test harness's own threads cannot count into a measured window.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
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
