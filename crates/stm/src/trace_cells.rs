//! Cell identities and the step-level access stream.
//!
//! Theorem 3's unit of cost is *one instruction on one base shared object*
//! (Section 6.1). [`crate::base::Meter`] counts those instructions; this
//! module names the objects. Every base shared object a TM touches gets a
//! stable [`CellId`], and the meter — the choke point every load, store,
//! CAS, `fetch_add`, `fetch_max`, and lock acquisition already routes
//! through — can emit an [`AccessEvent`] per step into any [`StepProbe`].
//!
//! Two consumers exist:
//!
//! * [`AccessLog`] — a passive recording probe. The race checker
//!   (`tm_harness::race`) replays its stream through a vector-clock
//!   happens-before analysis.
//! * the cooperative stepper (`tm_harness::dpor`) — an *active* probe that
//!   parks the calling thread at every blocking access until the explorer
//!   grants it the next step, turning probe callbacks into schedule
//!   yield-points.
//!
//! Probes are measurement/control apparatus, like the
//! [`crate::recorder::Recorder`]: their callbacks never count as steps.

use std::sync::{Arc, Mutex};

use crate::lock;

/// A stable identity for one base shared object.
///
/// The `u32` payloads index registers (`Lock`/`Value`/`Record`) or
/// transaction descriptors (`Status`); `Clock`'s is always 0. Identities are
/// per-TM-instance: two different TM instances may reuse the same ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellId {
    /// The versioned-lock word guarding register `i` (TL2-style TMs).
    Lock(u32),
    /// The value word of register `i`.
    Value(u32),
    /// A mutex-protected record treated as one cell (DSTM locators,
    /// visible-read entries, two-phase-locking cells, version lists).
    Record(u32),
    /// The global version clock word (always `Clock(0)`: each TM instance
    /// has one clock).
    Clock(u32),
    /// The status word of transaction descriptor `id`.
    Status(u32),
    /// The global commit lock of the multi-version TMs.
    CommitLock,
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellId::Lock(i) => write!(f, "lock[{i}]"),
            CellId::Value(i) => write!(f, "value[{i}]"),
            CellId::Record(i) => write!(f, "record[{i}]"),
            CellId::Clock(i) => write!(f, "clock[{i}]"),
            CellId::Status(i) => write!(f, "status[{i}]"),
            CellId::CommitLock => write!(f, "commit-lock"),
        }
    }
}

/// What one step did to its cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// A plain load.
    Read,
    /// A plain store.
    Write,
    /// An atomic read-modify-write (CAS, `fetch_add`, `fetch_max`).
    Rmw,
    /// Entering a mutual-exclusion section on the cell (lock acquisition).
    Acquire,
    /// Leaving the mutual-exclusion section.
    Release,
}

impl AccessKind {
    /// True if the access can conflict with a concurrent access to the same
    /// cell: everything except a plain [`AccessKind::Read`] modifies (or,
    /// for `Acquire`/`Release`, orders) the cell.
    pub fn writes(self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Rmw => "rmw",
            AccessKind::Acquire => "acquire",
            AccessKind::Release => "release",
        };
        write!(f, "{s}")
    }
}

/// One step: `thread` issued one `kind` instruction on `cell`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AccessEvent {
    /// The issuing thread (the TM-level thread id handed to `begin`).
    pub thread: usize,
    /// The base shared object touched.
    pub cell: CellId,
    /// The instruction kind.
    pub kind: AccessKind,
}

impl std::fmt::Display for AccessEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{} {} {}", self.thread, self.kind, self.cell)
    }
}

/// An entry in the access stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A base-object access.
    Access(AccessEvent),
    /// A commit timestamp obtained by `thread` from the global clock
    /// (`tick` or `reserve`). The race checker's clock invariants
    /// (uniqueness, happens-before monotonicity) key off these.
    Stamp {
        /// The thread the stamp was issued to.
        thread: usize,
        /// The timestamp value.
        ts: u64,
    },
}

/// A sink for the meter's step stream.
///
/// `blocking` is true when the access happens outside any mutex-protected
/// record section — i.e. when it is safe for an active probe (the
/// cooperative stepper) to park the calling thread. Accesses *inside* a
/// record's critical section set `blocking = false`: they are logged, but
/// the section runs to completion atomically (its serialization point is
/// the `Acquire`, or the preceding touch, that opened it).
pub trait StepProbe: std::fmt::Debug + Send + Sync {
    /// One base-object access by `thread`.
    fn on_access(&self, thread: usize, cell: CellId, kind: AccessKind, blocking: bool);

    /// A commit timestamp issued to `thread`.
    fn on_stamp(&self, _thread: usize, _ts: u64) {}
}

/// A passive probe that appends every event to a shared log.
#[derive(Debug, Default)]
pub struct AccessLog {
    events: Mutex<Vec<TraceEvent>>,
}

impl AccessLog {
    /// An empty log.
    pub fn new() -> Self {
        AccessLog::default()
    }

    /// A fresh log behind an [`Arc`], ready to hand to
    /// [`crate::StmConfig::probe`].
    pub fn shared() -> Arc<AccessLog> {
        Arc::new(AccessLog::new())
    }

    /// A snapshot of the recorded stream.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        lock(&self.events).clone()
    }

    /// Takes the recorded stream, leaving the log empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *lock(&self.events))
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl StepProbe for AccessLog {
    fn on_access(&self, thread: usize, cell: CellId, kind: AccessKind, _blocking: bool) {
        lock(&self.events).push(TraceEvent::Access(AccessEvent { thread, cell, kind }));
    }

    fn on_stamp(&self, thread: usize, ts: u64) {
        lock(&self.events).push(TraceEvent::Stamp { thread, ts });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_accesses_and_stamps() {
        let log = AccessLog::new();
        log.on_access(1, CellId::Lock(3), AccessKind::Rmw, true);
        log.on_stamp(1, 42);
        log.on_access(0, CellId::Value(3), AccessKind::Read, false);
        assert_eq!(log.len(), 3);
        let events = log.snapshot();
        assert_eq!(
            events[0],
            TraceEvent::Access(AccessEvent {
                thread: 1,
                cell: CellId::Lock(3),
                kind: AccessKind::Rmw,
            })
        );
        assert_eq!(events[1], TraceEvent::Stamp { thread: 1, ts: 42 });
        assert_eq!(log.take().len(), 3);
        assert!(log.is_empty());
    }

    #[test]
    fn only_plain_reads_commute() {
        assert!(!AccessKind::Read.writes());
        for k in [
            AccessKind::Write,
            AccessKind::Rmw,
            AccessKind::Acquire,
            AccessKind::Release,
        ] {
            assert!(k.writes(), "{k}");
        }
    }

    #[test]
    fn cell_and_event_display() {
        let e = AccessEvent {
            thread: 2,
            cell: CellId::Clock(0),
            kind: AccessKind::Rmw,
        };
        assert_eq!(e.to_string(), "T2 rmw clock[0]");
        assert_eq!(CellId::CommitLock.to_string(), "commit-lock");
        assert_eq!(CellId::Status(7).to_string(), "status[7]");
    }
}
