//! An ergonomic DSL for constructing histories.
//!
//! Hand-transcribing the paper's example histories (H1–H5) requires both
//! whole-operation shorthands (`read`, `write`) and split
//! invocation/response events for interleaved operations (history H5 in
//! Section 5.3 interleaves at event granularity).

use crate::event::{Event, ObjId, OpName, TxId};
use crate::history::History;
use crate::value::Value;

/// A chainable builder for [`History`] values.
///
/// ```
/// use tm_model::builder::HistoryBuilder;
///
/// // Figure 1 of the paper:
/// let h1 = HistoryBuilder::new()
///     .write(1, "x", 1).try_commit(1).commit(1)
///     .read(2, "x", 1)
///     .write(3, "x", 2).write(3, "y", 2).try_commit(3).commit(3)
///     .read(2, "y", 2).try_commit(2).abort(2)
///     .build();
/// assert_eq!(h1.len(), 16);
/// ```
#[derive(Default, Clone, Debug)]
pub struct HistoryBuilder {
    events: Vec<Event>,
}

impl HistoryBuilder {
    /// Starts an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes and returns the history.
    pub fn build(self) -> History {
        History::from_events(self.events)
    }

    /// Appends a raw event.
    pub fn event(mut self, e: Event) -> Self {
        self.events.push(e);
        self
    }

    // ----- whole-operation shorthands ------------------------------------

    /// `read_t(obj, v)` — a complete register read returning `v`.
    pub fn read(self, tx: u32, obj: &str, v: i64) -> Self {
        self.inv_read(tx, obj).ret_read(tx, obj, v)
    }

    /// `write_t(obj, v)` — a complete register write of `v`.
    pub fn write(self, tx: u32, obj: &str, v: i64) -> Self {
        self.inv_write(tx, obj, v).ret_write(tx, obj)
    }

    /// A complete operation execution with explicit name, args and result.
    pub fn op(mut self, tx: u32, obj: &str, op: OpName, args: Vec<Value>, val: Value) -> Self {
        self.events.push(Event::Inv {
            tx: TxId(tx),
            obj: ObjId::new(obj),
            op: op.clone(),
            args,
        });
        self.events.push(Event::Ret {
            tx: TxId(tx),
            obj: ObjId::new(obj),
            op,
            val,
        });
        self
    }

    /// `inc_t(obj)` — a complete counter increment (Section 3.4).
    pub fn inc(self, tx: u32, obj: &str) -> Self {
        self.op(tx, obj, OpName::Inc, vec![], Value::Ok)
    }

    /// `get_t(obj) -> v` — a complete counter read.
    pub fn get(self, tx: u32, obj: &str, v: i64) -> Self {
        self.op(tx, obj, OpName::Get, vec![], Value::int(v))
    }

    // ----- split invocation / response events -----------------------------

    /// `inv_t(obj, read, ⊥)`.
    pub fn inv_read(mut self, tx: u32, obj: &str) -> Self {
        self.events.push(Event::Inv {
            tx: TxId(tx),
            obj: ObjId::new(obj),
            op: OpName::Read,
            args: vec![],
        });
        self
    }

    /// `ret_t(obj, read) → v`.
    pub fn ret_read(mut self, tx: u32, obj: &str, v: i64) -> Self {
        self.events.push(Event::Ret {
            tx: TxId(tx),
            obj: ObjId::new(obj),
            op: OpName::Read,
            val: Value::int(v),
        });
        self
    }

    /// `inv_t(obj, write, v)`.
    pub fn inv_write(mut self, tx: u32, obj: &str, v: i64) -> Self {
        self.events.push(Event::Inv {
            tx: TxId(tx),
            obj: ObjId::new(obj),
            op: OpName::Write,
            args: vec![Value::int(v)],
        });
        self
    }

    /// `ret_t(obj, write) → ok`.
    pub fn ret_write(mut self, tx: u32, obj: &str) -> Self {
        self.events.push(Event::Ret {
            tx: TxId(tx),
            obj: ObjId::new(obj),
            op: OpName::Write,
            val: Value::Ok,
        });
        self
    }

    // ----- terminal events -------------------------------------------------

    /// `tryC_t`.
    pub fn try_commit(mut self, tx: u32) -> Self {
        self.events.push(Event::TryCommit(TxId(tx)));
        self
    }

    /// `tryA_t`.
    pub fn try_abort(mut self, tx: u32) -> Self {
        self.events.push(Event::TryAbort(TxId(tx)));
        self
    }

    /// `C_t`.
    pub fn commit(mut self, tx: u32) -> Self {
        self.events.push(Event::Commit(TxId(tx)));
        self
    }

    /// `A_t`.
    pub fn abort(mut self, tx: u32) -> Self {
        self.events.push(Event::Abort(TxId(tx)));
        self
    }

    /// `tryC_t · C_t` — the common commit-and-succeed pair.
    pub fn commit_ok(self, tx: u32) -> Self {
        self.try_commit(tx).commit(tx)
    }
}

/// Constructs the paper's example histories, used throughout the tests and
/// examples of this workspace.
pub mod paper {
    use super::*;

    /// History H1 (Figure 1): satisfies global atomicity and recoverability,
    /// but forcefully aborted `T2` observes an inconsistent state — H1 is
    /// **not** opaque.
    pub fn h1() -> History {
        HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .write(3, "x", 2)
            .write(3, "y", 2)
            .commit_ok(3)
            .read(2, "y", 2)
            .try_commit(2)
            .abort(2)
            .build()
    }

    /// History H2: the sequentialization of H1 used in Section 4 to
    /// illustrate equivalence.
    pub fn h2() -> History {
        HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .write(3, "x", 2)
            .write(3, "y", 2)
            .commit_ok(3)
            .read(2, "x", 1)
            .read(2, "y", 2)
            .try_commit(2)
            .abort(2)
            .build()
    }

    /// History H3: `⟨write1(x,1), tryC1, read2(x,1)⟩`, used in Section 4 to
    /// illustrate `Complete(H)`.
    pub fn h3() -> History {
        HistoryBuilder::new()
            .write(1, "x", 1)
            .try_commit(1)
            .read(2, "x", 1)
            .build()
    }

    /// History H4 (Section 5.2): a commit-pending `T2` appears committed to
    /// `T3` and aborted to `T1` — H4 is opaque. Registers start at 0.
    pub fn h4() -> History {
        HistoryBuilder::new()
            .read(1, "x", 0)
            .write(2, "x", 5)
            .write(2, "y", 5)
            .try_commit(2)
            .read(3, "y", 5)
            .read(1, "y", 0)
            .build()
    }

    /// History H5 (Figure 2 / Section 5.3): an opaque history with
    /// event-level interleaving; the witness is `S = H5|T2 · H5|T1 · H5|T3`.
    pub fn h5() -> History {
        HistoryBuilder::new()
            .write(2, "x", 1)
            .write(2, "y", 2)
            .try_commit(2)
            .inv_read(1, "x")
            .commit(2)
            .inv_write(3, "y", 3)
            .ret_read(1, "x", 1)
            .inv_write(1, "x", 5)
            .ret_write(3, "y")
            .ret_write(1, "x")
            .inv_read(1, "y")
            .inv_read(3, "x")
            .ret_read(1, "y", 2)
            .try_commit(1)
            .ret_read(3, "x", 1)
            .try_commit(3)
            .abort(1)
            .commit(3)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::paper;
    use super::*;
    use crate::ops::TxStatus;

    #[test]
    fn h1_shape() {
        let h = paper::h1();
        assert_eq!(h.len(), 16);
        assert_eq!(h.txs(), vec![TxId(1), TxId(2), TxId(3)]);
        assert!(h.is_complete());
        assert_eq!(h.status(TxId(2)), TxStatus::ForcefullyAborted);
    }

    #[test]
    fn h2_is_equivalent_sequentialization_of_h1() {
        assert!(paper::h1().equivalent(&paper::h2()));
        assert!(paper::h2().is_sequential());
    }

    #[test]
    fn h3_shape() {
        let h = paper::h3();
        assert_eq!(h.status(TxId(1)), TxStatus::CommitPending);
        assert_eq!(h.status(TxId(2)), TxStatus::Live);
        assert!(!h.is_complete());
    }

    #[test]
    fn h4_statuses() {
        let h = paper::h4();
        assert_eq!(h.status(TxId(1)), TxStatus::Live);
        assert_eq!(h.status(TxId(2)), TxStatus::CommitPending);
        assert_eq!(h.status(TxId(3)), TxStatus::Live);
    }

    #[test]
    fn h5_matches_paper_event_listing() {
        let h = paper::h5();
        // The listing in Section 5.3 has 20 events:
        // T2: write2(x,1), write2(y,2) (4 events) + tryC2 + C2 = 6
        // T1: read x, write x, read y (6 events) + tryC1 + A1 = 8
        // T3: write y, read x (4 events) + tryC3 + C3 = 6
        assert_eq!(h.len(), 20);
        assert_eq!(h.status(TxId(1)), TxStatus::ForcefullyAborted);
        assert_eq!(h.status(TxId(2)), TxStatus::Committed);
        assert_eq!(h.status(TxId(3)), TxStatus::Committed);
        assert!(h.is_complete());
        assert!(!h.is_sequential());
    }

    #[test]
    fn custom_op_builder() {
        let h = HistoryBuilder::new()
            .op(1, "q", OpName::Enq, vec![Value::int(7)], Value::Ok)
            .op(1, "q", OpName::Deq, vec![], Value::int(7))
            .commit_ok(1)
            .build();
        let ops = h.all_ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].op, OpName::Enq);
        assert_eq!(ops[1].val, Value::int(7));
    }

    #[test]
    fn counter_builder_ops() {
        let h = HistoryBuilder::new().inc(1, "c").get(2, "c", 1).build();
        assert_eq!(h.all_ops().len(), 2);
    }
}
