//! The global version clock — the commit-timestamp authority shared by
//! TL2-style and multi-version TMs.
//!
//! Every timestamp-based TM in this crate ([`crate::tl2`], [`crate::mvstm`],
//! [`crate::sistm`]) serializes its commits through TL2's `GV1` clock
//! (Dice, Shalev & Shavit, DISC 2006): one atomic counter, advanced by one
//! `fetch_add` per commit. [`GlobalClock`] is the seam the TMs call it
//! through, so a decorator ([`crate::ObsClock`]) or a deliberately broken
//! clock (the concurrency mutants in [`crate::mutants`]) can stand in.
//!
//! # The invariants the clock guarantees
//!
//! Writing `→` for "completes before" (real time on one clock instance):
//!
//! 1. **Strict monotonicity.** If `a = tick(..)` → `b = tick(..)` then
//!    `a < b`; if `s = sample(..)` → `b = tick(..)` then `s < b`; and
//!    `tick(..) → sample(..)` implies `sample ≥ tick`. Timestamps never
//!    move backwards.
//! 2. **Uniqueness.** Any two `tick` calls return distinct timestamps.
//! 3. **Initial-state dominance.** All committed initial values carry
//!    timestamp 0 and every `sample`/`tick` result is `≥ 0`.
//!
//! Because the `fetch_add` is the only way time advances, a commit whose
//! tick returns exactly `rv + 1` proves that no other transaction committed
//! since `rv` was sampled — the licence for TL2's read-set validation skip.
//!
//! # Two-phase commit timestamps (`reserve` / `publish`)
//!
//! The multi-version TMs must install new versions *before* the new
//! timestamp becomes observable, otherwise a transaction beginning between
//! the clock advance and the version append adopts a snapshot timestamp
//! whose versions are not yet visible — a lost update (the regression note
//! in [`crate::mvstm`]). [`GlobalClock::reserve`] hands out the next
//! timestamp without making it sampleable; [`GlobalClock::publish`] makes
//! it (and everything below it) visible. **Contract:** a `reserve` …
//! `publish` pair must be mutually exclusive with every other `reserve`,
//! `publish`, or `tick` on the same clock instance — the multi-version TMs
//! guarantee this by holding their global commit lock across the pair.
//! `sample`/`peek` may run concurrently with anything.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::base::Meter;
use crate::trace_cells::CellId;

/// A monotonically increasing global version clock.
///
/// All methods except [`GlobalClock::peek`] are metered: every access to a
/// base shared object counts as one step (Section 6.1 of the paper), so the
/// step-count experiments see the clock's cost *inside operations*. `peek`
/// is deliberately unmetered — it is the begin-time snapshot read, which
/// happens outside any metered operation, like all begin-time work outside
/// the per-operation step accounting of Theorem 3.
pub trait GlobalClock: std::fmt::Debug + Send + Sync {
    /// The current time: every timestamp published so far is `≤ sample()`.
    fn sample(&self, m: &mut Meter) -> u64;

    /// Advances the clock and returns a fresh timestamp, strictly greater
    /// than every timestamp previously returned by `tick`/`publish` and
    /// every previously completed `sample`.
    fn tick(&self, m: &mut Meter) -> u64;

    /// Reserves the next commit timestamp *without* making it observable:
    /// `sample` keeps returning values below it until the matching
    /// [`GlobalClock::publish`]. Requires external mutual exclusion against
    /// all other clock writers (see the module docs).
    fn reserve(&self, m: &mut Meter) -> u64;

    /// Makes a timestamp previously handed out by [`GlobalClock::reserve`]
    /// observable: afterwards `sample() ≥ ts`. Same exclusion contract as
    /// `reserve`.
    fn publish(&self, ts: u64, m: &mut Meter);

    /// Unmetered read of the current time, for begin-time snapshots (like
    /// TL2's `rv` sample, which precedes every metered operation) and
    /// assertions.
    fn peek(&self) -> u64;
}

/// TL2's `GV1`: one atomic counter, one step per access.
///
/// The strongest and simplest clock — timestamps are exactly the naturals.
/// Every timestamp-based TM builds one per instance.
#[derive(Debug, Default)]
pub struct VersionClock {
    now: AtomicU64,
}

impl VersionClock {
    /// A clock starting at 0 (the timestamp of all initial values).
    pub fn new() -> Self {
        VersionClock::default()
    }
}

impl GlobalClock for VersionClock {
    fn sample(&self, m: &mut Meter) -> u64 {
        m.load_u64(CellId::Clock(0), &self.now)
    }

    fn tick(&self, m: &mut Meter) -> u64 {
        let t = m.fetch_add_u64(CellId::Clock(0), &self.now, 1);
        m.note_stamp(t);
        t
    }

    fn reserve(&self, m: &mut Meter) -> u64 {
        let ts = m.load_u64(CellId::Clock(0), &self.now) + 1;
        m.note_stamp(ts);
        ts
    }

    fn publish(&self, ts: u64, m: &mut Meter) {
        m.fetch_max_u64(CellId::Clock(0), &self.now, ts);
    }

    fn peek(&self) -> u64 {
        self.now.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::OpKind;

    #[test]
    fn ticks_are_unique_and_monotone() {
        let c = VersionClock::new();
        let mut m = Meter::new();
        m.begin_op(OpKind::Commit);
        let a = c.tick(&mut m);
        let b = c.tick(&mut m);
        let s = c.sample(&mut m);
        m.end_op();
        assert!(a < b);
        assert_eq!(s, b);
        assert_eq!(c.peek(), 2);
        // Three clock accesses = three steps.
        assert_eq!(m.report().per_op, vec![(OpKind::Commit, 3)]);
    }

    #[test]
    fn reserve_publish_two_phase_contract() {
        let clock = VersionClock::new();
        let mut m = Meter::new();
        m.begin_op(OpKind::Commit);
        let before = clock.sample(&mut m);
        let wv = clock.reserve(&mut m);
        assert!(wv > before, "reserve {wv} ≤ sample {before}");
        // Not yet observable.
        assert!(clock.sample(&mut m) < wv, "reserved ts leaked into sample");
        clock.publish(wv, &mut m);
        assert!(clock.sample(&mut m) >= wv, "publish did not surface the ts");
        // The next reservation climbs past it.
        assert!(clock.reserve(&mut m) > wv);
        m.end_op();
    }
}
