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
//! Recording is fixed when the TM is built ([`crate::StmConfig::recording`]);
//! a TM built with it off (throughput benchmarks) skips the event
//! construction entirely. Recorder accesses never count as steps:
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
//! [`Recorder::inv_object`] records the object-level invocation, and the
//! layer turns the transaction's register-level events off
//! ([`crate::Tx::record_ops`]) until [`Recorder::ret_object`] records the
//! response. When the TM aborts the transaction mid-operation there is no
//! response: the `A` event, which is never turned off, answers the pending
//! object-level invocation, exactly as the model allows. The switch is a
//! flag of the one transaction, so concurrent transactions recording
//! register-level and object-level operations interleave correctly.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::lock;
use tm_model::{Event, History, ObjId, OpName, TxId, Value};

/// A shared, append-only event log with model-level object names.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    events: Mutex<Vec<Event>>,
    names: Vec<ObjId>,
    next_tx: AtomicU32,
    /// Observability handle: [`Recorder::commit`]/[`Recorder::abort`] count
    /// `stm.commits`/`stm.aborts` through it even when event recording is
    /// disabled. Disabled by default — zero cost.
    obs: tm_obs::ObsHandle,
}

impl Recorder {
    /// A recorder for `k` registers named `r0..r{k-1}` that keeps events
    /// iff `enabled` and counts commits and aborts on `obs`.
    pub(crate) fn new(k: usize, enabled: bool, obs: tm_obs::ObsHandle) -> Self {
        Recorder {
            enabled,
            events: Mutex::new(Vec::new()),
            names: (0..k).map(ObjId::register).collect(),
            next_tx: AtomicU32::new(1),
            obs,
        }
    }

    /// Does this recorder keep events?
    pub fn enabled(&self) -> bool {
        self.enabled
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
        self.record_with(|| e);
    }

    /// Builds and appends an event, only when enabled.
    fn record_with(&self, event: impl FnOnce() -> Event) {
        if self.enabled {
            let e = event();
            lock(&self.events).push(e);
        }
    }

    /// Records the object-level invocation `inv_t(obj, op, args)`.
    pub fn inv_object(&self, t: TxId, obj: ObjId, op: OpName, args: Vec<Value>) {
        self.record(Event::Inv {
            tx: t,
            obj,
            op,
            args,
        });
    }

    /// Records the object-level response `ret_t(obj, op) → val`.
    pub fn ret_object(&self, t: TxId, obj: ObjId, op: OpName, val: Value) {
        self.record(Event::Ret {
            tx: t,
            obj,
            op,
            val,
        });
    }

    /// Records `inv_t(r_i, read, ⊥)`.
    pub fn inv_read(&self, t: TxId, i: usize) {
        self.record_with(|| Event::Inv {
            tx: t,
            obj: self.obj(i),
            op: OpName::Read,
            args: vec![],
        });
    }

    /// Records `ret_t(r_i, read) → v`.
    pub fn ret_read(&self, t: TxId, i: usize, v: i64) {
        self.record_with(|| Event::Ret {
            tx: t,
            obj: self.obj(i),
            op: OpName::Read,
            val: Value::int(v),
        });
    }

    /// Records `inv_t(r_i, write, v)`.
    pub fn inv_write(&self, t: TxId, i: usize, v: i64) {
        self.record_with(|| Event::Inv {
            tx: t,
            obj: self.obj(i),
            op: OpName::Write,
            args: vec![Value::int(v)],
        });
    }

    /// Records `ret_t(r_i, write) → ok`.
    pub fn ret_write(&self, t: TxId, i: usize) {
        self.record_with(|| Event::Ret {
            tx: t,
            obj: self.obj(i),
            op: OpName::Write,
            val: Value::Ok,
        });
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
    /// handle whether or not events are kept — the commit happened either
    /// way.
    pub fn commit(&self, t: TxId) {
        self.obs.counter_add("stm.commits", 1);
        self.record(Event::Commit(t));
    }

    /// Records `A_t`. Counts `stm.aborts` on the attached observability
    /// handle whether or not events are kept.
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
    use crate::{run_tx, Aborted, Stm, Tl2Stm};
    use tm_model::is_well_formed;
    use tm_obs::ObsHandle;

    #[test]
    fn records_well_formed_history() {
        let r = Recorder::new(2, true, ObsHandle::disabled());
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
        let r = Recorder::new(1, false, ObsHandle::disabled());
        let t = r.fresh_tx();
        r.inv_read(t, 0);
        r.ret_read(t, 0, 0);
        r.try_commit(t);
        r.commit(t);
        assert!(r.is_empty());
        assert!(!r.enabled());
    }

    #[test]
    fn fresh_tx_ids_are_unique_and_survive_clear() {
        let r = Recorder::new(1, true, ObsHandle::disabled());
        let a = r.fresh_tx();
        r.clear();
        let b = r.fresh_tx();
        assert_ne!(a, b);
    }

    #[test]
    fn object_names_follow_register_convention() {
        let r = Recorder::new(3, true, ObsHandle::disabled());
        assert_eq!(r.obj(2).name(), "r2");
    }

    #[test]
    fn object_scope_suppresses_register_events_per_transaction() {
        let stm = Tl2Stm::new(2);
        let r = stm.recorder();
        let mut t1 = stm.begin(0);
        let mut t2 = stm.begin(1);
        let id1 = TxId(t1.id());
        r.inv_object(id1, ObjId::new("q"), OpName::Enq, vec![Value::int(5)]);
        // t1's register traffic is the encoding of the enq: not recorded.
        t1.record_ops(false);
        t1.read(0).unwrap();
        t1.write(0, 1).unwrap();
        // A concurrent register-level transaction records normally.
        t2.read(1).unwrap();
        t1.record_ops(true);
        r.ret_object(id1, ObjId::new("q"), OpName::Enq, Value::Ok);
        t1.commit().unwrap();
        t2.commit().unwrap();
        let h = r.history();
        assert!(is_well_formed(&h), "{h}");
        // t1: inv(q,enq) ret(q,enq) tryC C — 4 events; t2: 4 register events.
        assert_eq!(h.len(), 8);
        assert!(h.events().iter().all(|e| {
            e.obj().map_or(true, |o| match e.tx() {
                tx if tx == id1 => o.name() == "q",
                _ => o.name() == "r1",
            })
        }));
    }

    #[test]
    fn cancelled_object_op_leaves_pending_invocation_for_the_abort() {
        let stm = Tl2Stm::new(1);
        let r = stm.recorder();
        let mut t = stm.begin(0);
        // A committed write makes t's next read stale: TL2 aborts it.
        run_tx(&stm, 1, |tx| tx.write(0, 1));
        let before = r.len();
        let id = TxId(t.id());
        r.inv_object(id, ObjId::new("c"), OpName::Inc, vec![]);
        t.record_ops(false);
        // The read records nothing; the TM's A_t answers the pending inv.
        assert_eq!(t.read(0), Err(Aborted));
        drop(t);
        let h = r.history();
        assert_eq!(h.len(), before + 2);
        assert!(is_well_formed(&h), "{h}");
        // Other transactions record register events as ever.
        run_tx(&stm, 0, |tx| tx.read(0));
        assert_eq!(r.len(), before + 6);
    }

    #[test]
    fn object_scope_noops_when_disabled() {
        let r = Recorder::new(1, false, ObsHandle::disabled());
        let t = r.fresh_tx();
        r.inv_object(t, ObjId::new("c"), OpName::Inc, vec![]);
        r.ret_object(t, ObjId::new("c"), OpName::Inc, Value::Ok);
        assert!(r.is_empty());
    }
}
