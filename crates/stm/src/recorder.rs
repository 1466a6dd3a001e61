//! Recording model-level histories from live STM executions.
//!
//! Every TM in this crate emits the paper's transactional events as they
//! happen; the recorder totally orders them (simultaneous events "ordered
//! arbitrarily", here by lock acquisition order — a legitimate arbitrary
//! order because each event is recorded while it is occurring, between the
//! operation's linearization and the response's delivery to the caller).
//! The recorded [`History`] is then fed to the `tm-opacity` checkers — this
//! is how experiment E11 validates the opacity claims about each
//! implementation.
//!
//! Recording can be disabled (throughput benchmarks) — the TMs then skip the
//! event construction entirely. Recorder accesses never count as steps:
//! they are measurement apparatus, not part of the algorithm.
//!
//! # Object-level recording
//!
//! The typed-object layer ([`crate::objects`]) executes one *object*
//! operation (`enq`, `insert`, `extract_min`, …) as a read-modify-write
//! sequence of register operations through the TM. For the recorded history
//! to be checkable against the *object's* sequential specification, the
//! recorder must emit one `inv`/`ret` pair carrying the object's `ObjId`,
//! `OpName`, and arguments — not the storm of register events underneath.
//! [`Recorder::begin_object_op`] records the object-level invocation and
//! *suppresses* register-level events of that transaction until the matching
//! [`Recorder::end_object_op`] (or [`Recorder::cancel_object_op`] when the
//! TM aborted the transaction mid-operation — the `A` event, which is never
//! suppressed, then answers the pending object-level invocation, exactly as
//! the model allows). Suppression is per-transaction, so concurrent
//! transactions recording register-level and object-level operations
//! interleave correctly.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::lock;
use tm_model::{Event, History, ObjId, OpName, TxId, Value};

/// A shared, append-only event log with model-level object names.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    events: Mutex<Vec<Event>>,
    names: Vec<ObjId>,
    next_tx: AtomicU32,
    /// Transactions currently inside an object-level operation: their
    /// register-level events are dropped (the object-level `inv`/`ret`
    /// stands for the whole read-modify-write sequence).
    suppressed: Mutex<Vec<TxId>>,
    /// Mirror of `suppressed.len()`, so the (hot) register-level event
    /// helpers skip the suppression lock entirely while no typed-object
    /// operation is in flight anywhere — the permanent state of every
    /// register-only workload. (A synchronization fast path, not a
    /// telemetry counter: it needs Acquire/Release and can go down.)
    suppressed_len: AtomicUsize,
    /// Observability handle: [`Recorder::commit`]/[`Recorder::abort`] count
    /// `stm.commits`/`stm.aborts` through it even when event recording is
    /// disabled. Disabled by default — zero cost.
    obs: tm_obs::ObsHandle,
}

impl Recorder {
    /// A recorder for `k` registers named `r0..r{k-1}`, enabled by default.
    pub fn new(k: usize) -> Self {
        Recorder {
            enabled: AtomicBool::new(true),
            events: Mutex::new(Vec::new()),
            names: (0..k).map(ObjId::register).collect(),
            next_tx: AtomicU32::new(1),
            suppressed: Mutex::new(Vec::new()),
            suppressed_len: AtomicUsize::new(0),
            obs: tm_obs::ObsHandle::disabled(),
        }
    }

    /// Attaches an observability handle; subsequent [`Recorder::commit`]
    /// and [`Recorder::abort`] calls count `stm.commits`/`stm.aborts`.
    pub fn set_obs(&mut self, obs: tm_obs::ObsHandle) {
        self.obs = obs;
    }

    /// Enables or disables recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Is recording enabled?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Allocates a fresh model-level transaction identifier.
    pub fn fresh_tx(&self) -> TxId {
        TxId(self.next_tx.fetch_add(1, Ordering::AcqRel))
    }

    /// The object name for register index `i`.
    pub fn obj(&self, i: usize) -> ObjId {
        self.names[i].clone()
    }

    /// Appends a raw event (no-op when disabled).
    pub fn record(&self, e: Event) {
        if self.enabled() {
            lock(&self.events).push(e);
        }
    }

    /// True while `t` is inside an object-level operation scope.
    fn is_suppressed(&self, t: TxId) -> bool {
        // Fast path: no transaction anywhere is inside an object op. A
        // transaction always observes its own suppression (same-thread
        // program order), so the relaxed count can never hide it.
        if self.suppressed_len.load(Ordering::Acquire) == 0 {
            return false;
        }
        lock(&self.suppressed).contains(&t)
    }

    /// Adds `t` to the suppression set.
    fn suppress(&self, t: TxId) {
        let mut set = lock(&self.suppressed);
        set.push(t);
        self.suppressed_len.store(set.len(), Ordering::Release);
    }

    /// Removes `t` from the suppression set (idempotent).
    fn unsuppress(&self, t: TxId) {
        let mut set = lock(&self.suppressed);
        set.retain(|&s| s != t);
        self.suppressed_len.store(set.len(), Ordering::Release);
    }

    /// Opens an object-level operation scope for `t`: records
    /// `inv_t(obj, op, args)` and suppresses `t`'s register-level events
    /// until [`Recorder::end_object_op`] or [`Recorder::cancel_object_op`].
    ///
    /// No-op when recording is disabled.
    pub fn begin_object_op(&self, t: TxId, obj: ObjId, op: OpName, args: Vec<Value>) {
        if self.enabled() {
            self.record(Event::Inv {
                tx: t,
                obj,
                op,
                args,
            });
            self.suppress(t);
        }
    }

    /// Closes `t`'s object-level operation scope successfully: lifts the
    /// suppression and records `ret_t(obj, op) → val`.
    pub fn end_object_op(&self, t: TxId, obj: ObjId, op: OpName, val: Value) {
        self.unsuppress(t);
        if self.enabled() {
            self.record(Event::Ret {
                tx: t,
                obj,
                op,
                val,
            });
        }
    }

    /// Closes `t`'s object-level operation scope without a response — used
    /// when the TM aborted the transaction mid-operation. The `A_t` event
    /// (recorded by the TM, never suppressed) answers the pending
    /// object-level invocation, as the model allows.
    pub fn cancel_object_op(&self, t: TxId) {
        self.unsuppress(t);
    }

    /// Records `inv_t(r_i, read, ⊥)`.
    pub fn inv_read(&self, t: TxId, i: usize) {
        if self.enabled() && !self.is_suppressed(t) {
            self.record(Event::Inv {
                tx: t,
                obj: self.obj(i),
                op: OpName::Read,
                args: vec![],
            });
        }
    }

    /// Records `ret_t(r_i, read) → v`.
    pub fn ret_read(&self, t: TxId, i: usize, v: i64) {
        if self.enabled() && !self.is_suppressed(t) {
            self.record(Event::Ret {
                tx: t,
                obj: self.obj(i),
                op: OpName::Read,
                val: Value::int(v),
            });
        }
    }

    /// Records `inv_t(r_i, write, v)`.
    pub fn inv_write(&self, t: TxId, i: usize, v: i64) {
        if self.enabled() && !self.is_suppressed(t) {
            self.record(Event::Inv {
                tx: t,
                obj: self.obj(i),
                op: OpName::Write,
                args: vec![Value::int(v)],
            });
        }
    }

    /// Records `ret_t(r_i, write) → ok`.
    pub fn ret_write(&self, t: TxId, i: usize) {
        if self.enabled() && !self.is_suppressed(t) {
            self.record(Event::Ret {
                tx: t,
                obj: self.obj(i),
                op: OpName::Write,
                val: Value::Ok,
            });
        }
    }

    /// Records `tryC_t`.
    pub fn try_commit(&self, t: TxId) {
        self.record(Event::TryCommit(t));
    }

    /// Records `tryA_t`.
    pub fn try_abort(&self, t: TxId) {
        self.record(Event::TryAbort(t));
    }

    /// Records `C_t`. Counts `stm.commits` on the attached observability
    /// handle regardless of the recording toggle — the commit happened
    /// whether or not its event is kept.
    pub fn commit(&self, t: TxId) {
        self.obs.counter_add("stm.commits", 1);
        self.record(Event::Commit(t));
    }

    /// Records `A_t`. Counts `stm.aborts` on the attached observability
    /// handle regardless of the recording toggle.
    pub fn abort(&self, t: TxId) {
        self.obs.counter_add("stm.aborts", 1);
        self.record(Event::Abort(t));
    }

    /// A snapshot of the recorded history.
    pub fn history(&self) -> History {
        History::from_events(lock(&self.events).clone())
    }

    /// Clears the log (the transaction-id counter keeps increasing, so ids
    /// stay unique across clears).
    pub fn clear(&self) {
        lock(&self.events).clear();
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

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::is_well_formed;

    #[test]
    fn records_well_formed_history() {
        let r = Recorder::new(2);
        let t = r.fresh_tx();
        r.inv_write(t, 0, 5);
        r.ret_write(t, 0);
        r.inv_read(t, 1);
        r.ret_read(t, 1, 0);
        r.try_commit(t);
        r.commit(t);
        let h = r.history();
        assert_eq!(h.len(), 6);
        assert!(is_well_formed(&h));
        assert!(h.status(t).is_committed());
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let r = Recorder::new(1);
        r.set_enabled(false);
        let t = r.fresh_tx();
        r.inv_read(t, 0);
        r.ret_read(t, 0, 0);
        assert!(r.is_empty());
        r.set_enabled(true);
        r.try_commit(t);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn fresh_tx_ids_are_unique_and_survive_clear() {
        let r = Recorder::new(1);
        let a = r.fresh_tx();
        r.clear();
        let b = r.fresh_tx();
        assert_ne!(a, b);
    }

    #[test]
    fn object_names_follow_register_convention() {
        let r = Recorder::new(3);
        assert_eq!(r.obj(2).name(), "r2");
    }

    #[test]
    fn object_scope_suppresses_register_events_per_transaction() {
        let r = Recorder::new(2);
        let t1 = r.fresh_tx();
        let t2 = r.fresh_tx();
        r.begin_object_op(t1, ObjId::new("q"), OpName::Enq, vec![Value::int(5)]);
        // t1's register traffic is the encoding of the enq: suppressed.
        r.inv_read(t1, 0);
        r.ret_read(t1, 0, 0);
        r.inv_write(t1, 0, 1);
        r.ret_write(t1, 0);
        // A concurrent register-level transaction records normally.
        r.inv_read(t2, 1);
        r.ret_read(t2, 1, 0);
        r.end_object_op(t1, ObjId::new("q"), OpName::Enq, Value::Ok);
        r.try_commit(t1);
        r.commit(t1);
        r.try_commit(t2);
        r.commit(t2);
        let h = r.history();
        assert!(is_well_formed(&h), "{h}");
        // t1: inv(q,enq) ret(q,enq) tryC C — 4 events; t2: 4 register events.
        assert_eq!(h.len(), 8);
        assert!(h.events().iter().all(|e| {
            e.obj().map_or(true, |o| match e.tx() {
                tx if tx == t1 => o.name() == "q",
                _ => o.name() == "r1",
            })
        }));
    }

    #[test]
    fn cancelled_object_op_leaves_pending_invocation_for_the_abort() {
        let r = Recorder::new(1);
        let t = r.fresh_tx();
        r.begin_object_op(t, ObjId::new("c"), OpName::Inc, vec![]);
        r.inv_read(t, 0); // suppressed
        r.cancel_object_op(t);
        r.abort(t); // the TM's A_t answers the pending inv
        let h = r.history();
        assert_eq!(h.len(), 2);
        assert!(is_well_formed(&h), "{h}");
        // Suppression is lifted after cancel: later events record again.
        let t2 = r.fresh_tx();
        r.inv_read(t2, 0);
        r.ret_read(t2, 0, 0);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn object_scope_noops_when_disabled() {
        let r = Recorder::new(1);
        r.set_enabled(false);
        let t = r.fresh_tx();
        r.begin_object_op(t, ObjId::new("c"), OpName::Inc, vec![]);
        r.end_object_op(t, ObjId::new("c"), OpName::Inc, Value::Ok);
        assert!(r.is_empty());
    }
}
