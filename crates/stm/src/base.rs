//! Instrumented base shared objects and step metering.
//!
//! Theorem 3 counts *steps*: "in a single step, a process issues a single
//! instruction on a single base shared object" (Section 6.1), and "it does
//! not require information about more than a constant number of shared
//! objects to be retrieved from a single base shared object". We honour both
//! by making every base object a single word (an atomic integer or one
//! mutex-protected record treated as one cell) and by counting every load,
//! store, CAS, and lock acquisition as one step through a per-transaction
//! [`Meter`].
//!
//! The meter belongs to the transaction (single-threaded), so counting is
//! free of synchronization and deterministic — the numbers reported by the
//! lower-bound experiment are exact step counts, not wall-clock noise.
//!
//! # Cell identity and the probe
//!
//! Every typed accessor names the base object it touches with a
//! [`CellId`], and a meter built with [`Meter::with_probe`] reports each
//! step to a [`StepProbe`] as an `AccessEvent {thread, cell, kind}` —
//! the stream the `tm-harness` race checker and DPOR explorer consume.
//! A meter built with [`Meter::new`] has no probe and pays nothing
//! beyond the step counter, so sweeps and benchmarks are unaffected.
//!
//! Mutex-protected records are modeled as single cells: the TM announces
//! the access with [`Meter::touch`] (or [`Meter::acquire`] for lock-shaped
//! cells held across other accesses) *before* taking the mutex, and
//! brackets the critical section with [`Meter::begin_atomic`] /
//! [`Meter::end_atomic`] so any metered accesses inside it are reported as
//! non-blocking — the cooperative stepper must never park a thread that
//! holds an unmodeled lock.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::trace_cells::{AccessKind, CellId, StepProbe};

/// The kind of transactional operation being metered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A register read (the operation Theorem 3's bound is about).
    Read,
    /// A register write.
    Write,
    /// Commit processing (`tryC` → `C`/`A`).
    Commit,
}

/// Per-operation step accounting for one transaction.
#[derive(Debug, Default)]
pub struct Meter {
    current_op: u64,
    per_op: Vec<(OpKind, u64)>,
    in_op: bool,
    thread: usize,
    probe: Option<Arc<dyn StepProbe>>,
    atomic_depth: u32,
}

/// A summary of the steps a transaction spent per operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Steps of each completed operation, in program order, with kinds.
    pub per_op: Vec<(OpKind, u64)>,
}

impl StepReport {
    /// The maximum steps spent in any single operation of kind `kind`.
    pub fn max_of(&self, kind: OpKind) -> u64 {
        self.per_op
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .max()
            .unwrap_or(0)
    }

    /// The maximum steps spent in any single operation.
    pub fn max_op(&self) -> u64 {
        self.per_op.iter().map(|(_, s)| *s).max().unwrap_or(0)
    }

    /// Total steps across all operations.
    pub fn total(&self) -> u64 {
        self.per_op.iter().map(|(_, s)| *s).sum()
    }

    /// Total steps across operations of one kind.
    pub fn total_of(&self, kind: OpKind) -> u64 {
        self.per_op
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .sum()
    }

    /// Number of operations metered.
    pub fn ops(&self) -> usize {
        self.per_op.len()
    }
}

impl Meter {
    /// A fresh meter with no probe (thread id 0).
    pub fn new() -> Self {
        Meter::default()
    }

    /// A meter for `thread` that reports every step to `probe` (if any).
    pub fn with_probe(thread: usize, probe: Option<Arc<dyn StepProbe>>) -> Self {
        Meter {
            thread,
            probe,
            ..Meter::default()
        }
    }

    /// The thread this meter reports for.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Marks the start of an operation (read/write/commit processing).
    pub fn begin_op(&mut self, kind: OpKind) {
        debug_assert!(!self.in_op, "nested operations are not allowed");
        self.current_op = 0;
        self.in_op = true;
        self.atomic_depth = 0;
        self.per_op.push((kind, 0));
    }

    /// Marks the end of the current operation, recording its step count.
    pub fn end_op(&mut self) {
        debug_assert!(self.in_op);
        if let Some(last) = self.per_op.last_mut() {
            last.1 = self.current_op;
        }
        self.in_op = false;
        self.atomic_depth = 0;
    }

    /// Counts one step *without* naming a cell — for per-probe costs that
    /// are not themselves a distinct base-object access (e.g. the binary
    /// search inside an already-announced version-list record).
    #[inline]
    pub fn step(&mut self) {
        self.current_op += 1;
    }

    /// Steps spent in the operation currently being metered.
    pub fn current(&self) -> u64 {
        self.current_op
    }

    /// The report of all completed operations.
    pub fn report(&self) -> StepReport {
        StepReport {
            per_op: self.per_op.clone(),
        }
    }

    #[inline]
    fn observe(&mut self, cell: CellId, kind: AccessKind) {
        self.step();
        if let Some(p) = &self.probe {
            p.on_access(self.thread, cell, kind, self.atomic_depth == 0);
        }
    }

    // ---- record cells and lock-shaped cells --------------------------------

    /// Counts one step accessing the mutex-protected record `cell` with the
    /// given kind. Call *before* taking the record's mutex: for the
    /// cooperative stepper this is the access's serialization point, and a
    /// thread must never park while holding an unmodeled lock.
    #[inline]
    pub fn touch(&mut self, cell: CellId, kind: AccessKind) {
        self.observe(cell, kind);
    }

    /// Counts one step acquiring the lock-shaped `cell` (held across other
    /// accesses, e.g. the multi-version TMs' global commit lock). Call
    /// before taking the real mutex; the stepper delays the grant until no
    /// other thread holds `cell`.
    #[inline]
    pub fn acquire(&mut self, cell: CellId) {
        self.observe(cell, AccessKind::Acquire);
    }

    /// Marks the release of a lock-shaped `cell` previously announced with
    /// [`Meter::acquire`]. Free (a release piggybacks on the critical
    /// section's last write); call *after* dropping the real mutex guard.
    #[inline]
    pub fn release(&mut self, cell: CellId) {
        if let Some(p) = &self.probe {
            p.on_access(self.thread, cell, AccessKind::Release, false);
        }
    }

    /// Reports a commit timestamp issued to this thread by the global
    /// clock. Not a step — the clock accesses that produced it were.
    #[inline]
    pub fn note_stamp(&mut self, ts: u64) {
        if let Some(p) = &self.probe {
            p.on_stamp(self.thread, ts);
        }
    }

    /// Enters a mutex-protected critical section: metered accesses until
    /// the matching [`Meter::end_atomic`] are reported as non-blocking.
    #[inline]
    pub fn begin_atomic(&mut self) {
        self.atomic_depth += 1;
    }

    /// Leaves the critical section opened by [`Meter::begin_atomic`].
    #[inline]
    pub fn end_atomic(&mut self) {
        debug_assert!(self.atomic_depth > 0);
        self.atomic_depth = self.atomic_depth.saturating_sub(1);
    }

    // ---- typed base-object accessors --------------------------------------

    /// Metered `AtomicU64::load` of `cell`.
    #[inline]
    pub fn load_u64(&mut self, cell: CellId, a: &AtomicU64) -> u64 {
        self.observe(cell, AccessKind::Read);
        a.load(Ordering::Acquire)
    }

    /// Metered `AtomicU64::store` to `cell`.
    #[inline]
    pub fn store_u64(&mut self, cell: CellId, a: &AtomicU64, v: u64) {
        self.observe(cell, AccessKind::Write);
        a.store(v, Ordering::Release);
    }

    /// Metered `AtomicU64::compare_exchange` on `cell`.
    #[inline]
    pub fn cas_u64(&mut self, cell: CellId, a: &AtomicU64, old: u64, new: u64) -> bool {
        self.observe(cell, AccessKind::Rmw);
        a.compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Metered `AtomicU64::fetch_add` on `cell`; returns the *new* value.
    #[inline]
    pub fn fetch_add_u64(&mut self, cell: CellId, a: &AtomicU64, delta: u64) -> u64 {
        self.observe(cell, AccessKind::Rmw);
        a.fetch_add(delta, Ordering::AcqRel) + delta
    }

    /// Metered `AtomicU64::fetch_max` on `cell`; returns the previous value.
    #[inline]
    pub fn fetch_max_u64(&mut self, cell: CellId, a: &AtomicU64, v: u64) -> u64 {
        self.observe(cell, AccessKind::Rmw);
        a.fetch_max(v, Ordering::AcqRel)
    }

    /// Metered `AtomicI64::load` of `cell`.
    #[inline]
    pub fn load_i64(&mut self, cell: CellId, a: &AtomicI64) -> i64 {
        self.observe(cell, AccessKind::Read);
        a.load(Ordering::Acquire)
    }

    /// Metered `AtomicI64::store` to `cell`.
    #[inline]
    pub fn store_i64(&mut self, cell: CellId, a: &AtomicI64, v: i64) {
        self.observe(cell, AccessKind::Write);
        a.store(v, Ordering::Release);
    }

    /// Metered `AtomicU8::load` of `cell` (transaction status words).
    #[inline]
    pub fn load_u8(&mut self, cell: CellId, a: &AtomicU8) -> u8 {
        self.observe(cell, AccessKind::Read);
        a.load(Ordering::Acquire)
    }

    /// Metered `AtomicU8::store` to `cell` (a status only its owner moves).
    #[inline]
    pub fn store_u8(&mut self, cell: CellId, a: &AtomicU8, v: u8) {
        self.observe(cell, AccessKind::Write);
        a.store(v, Ordering::Release);
    }

    /// Metered `AtomicU8::compare_exchange` on `cell` (status transitions).
    #[inline]
    pub fn cas_u8(&mut self, cell: CellId, a: &AtomicU8, old: u8, new: u8) -> bool {
        self.observe(cell, AccessKind::Rmw);
        a.compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// The lifecycle status word of a transaction descriptor (DSTM/visible-read
/// style TMs): other processes may CAS a transaction from `ACTIVE` to
/// `ABORTED` to resolve conflicts.
pub mod status {
    /// The transaction is live.
    pub const ACTIVE: u8 = 0;
    /// The transaction committed; its pending writes are the current values.
    pub const COMMITTED: u8 = 1;
    /// The transaction aborted; its pending writes are discarded.
    pub const ABORTED: u8 = 2;
    /// The transaction is validating its commit (`dstm`): nobody can abort
    /// it any more, and its pending writes become current only if it then
    /// stores `COMMITTED`.
    pub const COMMITTING: u8 = 3;
}

/// A shared transaction descriptor for TMs whose conflict resolution flips
/// remote transactions' statuses.
#[derive(Debug)]
pub struct TxDesc {
    /// Model-level transaction id.
    pub id: u32,
    /// One of [`status`]'s constants.
    pub status: AtomicU8,
}

impl TxDesc {
    /// A fresh active descriptor.
    pub fn new(id: u32) -> Self {
        TxDesc {
            id,
            status: AtomicU8::new(status::ACTIVE),
        }
    }

    /// The [`CellId`] of this descriptor's status word.
    pub fn status_cell(&self) -> CellId {
        CellId::Status(self.id)
    }

    /// Unmetered status store, for a transaction retiring its *own*
    /// descriptor on a path whose outcome is already decided (the decision
    /// step was the metered CAS or the conflict-resolution CAS that doomed
    /// it). Keeps `Ordering` imports out of the TM modules.
    pub fn force_status(&self, s: u8) {
        self.status.store(s, Ordering::Release);
    }

    /// Unmetered status load, for assertions and lock-free cleanup scans
    /// that are not part of any metered operation.
    pub fn status_now(&self) -> u8 {
        self.status.load(Ordering::Acquire)
    }
}

/// Attempts to abort `victim` by CAS'ing its status from `ACTIVE` to
/// `ABORTED` (one step), the conflict resolution of `dstm` and `visible`.
/// Returns the victim's final status.
pub fn try_abort_tx(victim: &TxDesc, m: &mut Meter) -> u8 {
    if m.cas_u8(
        victim.status_cell(),
        &victim.status,
        status::ACTIVE,
        status::ABORTED,
    ) {
        status::ABORTED
    } else {
        // Lost the race: the victim committed or was already aborted.
        m.load_u8(victim.status_cell(), &victim.status)
    }
}

/// Unmetered acquire-load of a `u64` base word, for begin-time snapshots
/// (clock `peek`s) that deliberately happen outside the step accounting.
/// Keeps `Ordering` imports out of the TM and clock-variant modules.
pub fn peek_u64(a: &AtomicU64) -> u64 {
    a.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_cells::{AccessEvent, AccessLog, TraceEvent};

    #[test]
    fn meter_counts_per_op() {
        let mut m = Meter::new();
        let a = AtomicU64::new(7);
        let b = AtomicI64::new(-3);
        m.begin_op(OpKind::Read);
        assert_eq!(m.load_u64(CellId::Lock(0), &a), 7);
        assert_eq!(m.load_i64(CellId::Value(0), &b), -3);
        m.store_i64(CellId::Value(0), &b, 5);
        m.end_op();
        m.begin_op(OpKind::Commit);
        assert!(m.cas_u64(CellId::Lock(0), &a, 7, 9));
        assert!(!m.cas_u64(CellId::Lock(0), &a, 7, 10));
        m.end_op();
        let r = m.report();
        assert_eq!(r.per_op, vec![(OpKind::Read, 3), (OpKind::Commit, 2)]);
        assert_eq!(r.max_op(), 3);
        assert_eq!(r.max_of(OpKind::Commit), 2);
        assert_eq!(r.total(), 5);
        assert_eq!(r.total_of(OpKind::Read), 3);
        assert_eq!(r.ops(), 2);
    }

    #[test]
    fn fetch_add_returns_new_value() {
        let mut m = Meter::new();
        let clock = AtomicU64::new(10);
        m.begin_op(OpKind::Commit);
        assert_eq!(m.fetch_add_u64(CellId::Clock(0), &clock, 1), 11);
        m.end_op();
        assert_eq!(clock.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn status_transitions() {
        let mut m = Meter::new();
        let d = TxDesc::new(4);
        m.begin_op(OpKind::Commit);
        assert_eq!(m.load_u8(d.status_cell(), &d.status), status::ACTIVE);
        assert!(m.cas_u8(
            d.status_cell(),
            &d.status,
            status::ACTIVE,
            status::COMMITTED
        ));
        assert!(!m.cas_u8(d.status_cell(), &d.status, status::ACTIVE, status::ABORTED));
        m.end_op();
        assert_eq!(d.status_now(), status::COMMITTED);
    }

    #[test]
    fn abort_only_succeeds_on_active() {
        let mut m = Meter::new();
        m.begin_op(OpKind::Commit);
        let v = TxDesc::new(1);
        assert_eq!(try_abort_tx(&v, &mut m), status::ABORTED);
        let c = TxDesc::new(2);
        c.force_status(status::COMMITTED);
        assert_eq!(try_abort_tx(&c, &mut m), status::COMMITTED);
        m.end_op();
    }

    #[test]
    fn empty_report() {
        let m = Meter::new();
        assert_eq!(m.report().max_op(), 0);
        assert_eq!(m.report().total(), 0);
    }

    #[test]
    fn probe_sees_cells_kinds_and_atomic_sections() {
        let log = AccessLog::shared();
        let mut m = Meter::with_probe(3, Some(log.clone()));
        assert_eq!(m.thread(), 3);
        let a = AtomicU64::new(0);
        m.begin_op(OpKind::Commit);
        m.load_u64(CellId::Lock(1), &a);
        m.touch(CellId::Record(2), AccessKind::Write);
        m.begin_atomic();
        m.load_u64(CellId::Value(1), &a); // inside the record's mutex
        m.end_atomic();
        m.acquire(CellId::CommitLock);
        m.note_stamp(9);
        m.release(CellId::CommitLock);
        m.end_op();
        // note_stamp and release are free; the other four calls are steps.
        assert_eq!(m.report().per_op, vec![(OpKind::Commit, 4)]);
        let ev = log.snapshot();
        assert_eq!(ev.len(), 6);
        assert_eq!(
            ev[1],
            TraceEvent::Access(AccessEvent {
                thread: 3,
                cell: CellId::Record(2),
                kind: AccessKind::Write,
            })
        );
        assert_eq!(ev[4], TraceEvent::Stamp { thread: 3, ts: 9 });
        assert_eq!(
            ev[5],
            TraceEvent::Access(AccessEvent {
                thread: 3,
                cell: CellId::CommitLock,
                kind: AccessKind::Release,
            })
        );
    }

    #[test]
    fn probeless_meter_is_just_a_counter() {
        let mut m = Meter::new();
        let a = AtomicU64::new(1);
        m.begin_op(OpKind::Read);
        m.load_u64(CellId::Value(0), &a);
        m.release(CellId::CommitLock); // no probe: nothing to notify
        m.note_stamp(5);
        m.end_op();
        assert_eq!(m.report().total(), 1);
    }
}
