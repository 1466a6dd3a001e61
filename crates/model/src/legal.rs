//! Legality of sequential histories and of transactions within them
//! (Section 4, "Legal histories and transactions").
//!
//! * A sequential history `S` in which every transaction except possibly the
//!   last is committed is **legal** if for every shared object `ob`, `S|ob ∈
//!   Seq(ob)`.
//! * A transaction `Ti` of a complete sequential history `S` is **legal in
//!   `S`** if the subsequence of `S` consisting of all *committed*
//!   transactions preceding `Ti`, plus `Ti` itself, is legal.
//!
//! Legality is decided by replay: fold every operation execution through the
//! object's sequential specification, validating each return value. Because
//! `S` is sequential, each transaction's operations are contiguous, and a
//! transaction's own earlier writes are visible to its later reads (they are
//! part of `S|ob`).

use crate::event::TxId;
use crate::history::History;
use crate::ops::{OpExec, TxView};
use crate::spec::{ObjStates, SpecRegistry};
use std::fmt;

/// Why a replay failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LegalityError {
    /// No sequential specification is registered for the object.
    NoSpec(OpExec),
    /// An operation's observed return value is not allowed by the object's
    /// specification in the current state.
    IllegalResponse {
        /// The offending operation execution.
        op: OpExec,
        /// The object state at the time of the operation.
        state: crate::value::Value,
    },
}

impl fmt::Display for LegalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalityError::NoSpec(op) => {
                write!(
                    f,
                    "no sequential specification for object {} (op {op})",
                    op.obj
                )
            }
            LegalityError::IllegalResponse { op, state } => {
                write!(f, "illegal response: {op} with {} in state {state}", op.obj)
            }
        }
    }
}

impl std::error::Error for LegalityError {}

/// Replays the operations of one transaction view against `states`,
/// validating every response. On success returns the state *after* the
/// transaction's operations (callers fold it in only for committed
/// transactions).
pub fn replay_tx(
    view: &TxView,
    states: &ObjStates,
    specs: &SpecRegistry,
) -> Result<ObjStates, LegalityError> {
    let mut cur = states.clone();
    for op in &view.ops {
        cur = apply_op(op, &cur, specs)?;
    }
    // A trailing pending invocation imposes no constraint: Seq(ob) is
    // prefix-closed and contains sequences ending with a pending invocation.
    Ok(cur)
}

/// Validates and applies a single operation execution.
pub fn apply_op(
    op: &OpExec,
    states: &ObjStates,
    specs: &SpecRegistry,
) -> Result<ObjStates, LegalityError> {
    let spec = specs
        .spec_for(&op.obj)
        .ok_or_else(|| LegalityError::NoSpec(op.clone()))?;
    let state = states
        .get(&op.obj, specs)
        .ok_or_else(|| LegalityError::NoSpec(op.clone()))?;
    match spec.accepts(&state, &op.op, &op.args, &op.val) {
        Some(next) => {
            let mut out = states.clone();
            out.set(op.obj.clone(), next);
            Ok(out)
        }
        None => Err(LegalityError::IllegalResponse {
            op: op.clone(),
            state,
        }),
    }
}

/// Is the sequential history `s` legal, i.e. does `S|ob ∈ Seq(ob)` hold for
/// every object? `s` must be sequential with every transaction except
/// possibly the last committed.
pub fn sequential_history_legal(s: &History, specs: &SpecRegistry) -> Result<(), LegalityError> {
    debug_assert!(s.is_sequential());
    let mut states = ObjStates::new();
    for op in s.all_ops() {
        states = apply_op(&op, &states, specs)?;
    }
    Ok(())
}

/// Is transaction `ti` legal in the complete sequential history `s`?
///
/// Replays all committed transactions that precede `ti` in `s` (they define
/// the state `ti` must observe), then replays `ti` itself.
pub fn tx_legal_in(s: &History, ti: TxId, specs: &SpecRegistry) -> Result<(), LegalityError> {
    debug_assert!(s.is_sequential());
    let order = s.txs();
    let mut states = ObjStates::new();
    for t in order {
        if t == ti {
            replay_tx(&s.tx_view(t), &states, specs)?;
            return Ok(());
        }
        if s.status(t).is_committed() {
            states = replay_tx(&s.tx_view(t), &states, specs)?;
        }
    }
    // ti not in s: vacuously legal.
    Ok(())
}

/// Is *every* transaction legal in the complete sequential history `s`
/// (requirement (2) of Definition 1)?
///
/// Single O(|S|) pass: fold committed transactions left to right; validate
/// each transaction (committed or aborted) against the committed-prefix
/// state at its position.
#[allow(clippy::result_large_err)] // the error carries the full diagnostic; callers destructure it
pub fn all_txs_legal(s: &History, specs: &SpecRegistry) -> Result<(), (TxId, LegalityError)> {
    debug_assert!(s.is_sequential());
    let mut states = ObjStates::new();
    for t in s.txs() {
        let view = s.tx_view(t);
        let after = replay_tx(&view, &states, specs).map_err(|e| (t, e))?;
        if view.status.is_committed() {
            states = after;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{paper, HistoryBuilder};
    use crate::event::OpName;
    use crate::objects::{Counter, FifoQueue};
    use crate::value::Value;
    use std::sync::Arc;

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    #[test]
    fn h2_t2_is_not_legal() {
        // In S = H1|T1 · H1|T2-with-reads-after-T3... the paper's point:
        // in H2 (= T1 · T3 · T2), T2 reads x=1 but T3 (committed, preceding)
        // wrote x=2 — illegal.
        let s = paper::h2();
        assert!(tx_legal_in(&s, TxId(1), &regs()).is_ok());
        assert!(tx_legal_in(&s, TxId(3), &regs()).is_ok());
        let err = tx_legal_in(&s, TxId(2), &regs()).unwrap_err();
        match err {
            LegalityError::IllegalResponse { op, state } => {
                assert_eq!(op.obj.name(), "x");
                assert_eq!(op.val, Value::int(1)); // read 1...
                assert_eq!(state, Value::int(2)); // ...but x was 2
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(all_txs_legal(&s, &regs()).is_err());
    }

    #[test]
    fn h1_other_serialization_also_illegal_for_t2() {
        // S = T1 · T2 · T3 (the other real-time-respecting order): T2's
        // second read returns 2 instead of 0.
        let s = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .read(2, "y", 2)
            .try_commit(2)
            .abort(2)
            .write(3, "x", 2)
            .write(3, "y", 2)
            .commit_ok(3)
            .build();
        let err = tx_legal_in(&s, TxId(2), &regs()).unwrap_err();
        match err {
            LegalityError::IllegalResponse { op, state } => {
                assert_eq!(op.obj.name(), "y");
                assert_eq!(op.val, Value::int(2));
                assert_eq!(state, Value::int(0));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn aborted_tx_effects_invisible() {
        // T1 writes x=5 and aborts; committed T2 must read the initial 0.
        let s = HistoryBuilder::new()
            .write(1, "x", 5)
            .try_abort(1)
            .abort(1)
            .read(2, "x", 0)
            .commit_ok(2)
            .build();
        assert!(all_txs_legal(&s, &regs()).is_ok());
        // Reading the aborted value would be illegal.
        let bad = HistoryBuilder::new()
            .write(1, "x", 5)
            .try_abort(1)
            .abort(1)
            .read(2, "x", 5)
            .commit_ok(2)
            .build();
        assert_eq!(all_txs_legal(&bad, &regs()).unwrap_err().0, TxId(2));
    }

    #[test]
    fn tx_sees_its_own_writes() {
        let s = HistoryBuilder::new()
            .write(1, "x", 9)
            .read(1, "x", 9)
            .commit_ok(1)
            .build();
        assert!(all_txs_legal(&s, &regs()).is_ok());
    }

    #[test]
    fn aborted_tx_itself_must_be_legal() {
        // Even an aborted transaction must observe a consistent state.
        let s = HistoryBuilder::new()
            .read(1, "x", 7) // x was never written: must read 0
            .try_commit(1)
            .abort(1)
            .build();
        assert_eq!(all_txs_legal(&s, &regs()).unwrap_err().0, TxId(1));
    }

    #[test]
    fn counter_semantics() {
        let specs = SpecRegistry::new().with("c", Arc::new(Counter));
        let s = HistoryBuilder::new()
            .inc(1, "c")
            .commit_ok(1)
            .inc(2, "c")
            .commit_ok(2)
            .get(3, "c", 2)
            .commit_ok(3)
            .build();
        assert!(all_txs_legal(&s, &specs).is_ok());
        let bad = HistoryBuilder::new()
            .inc(1, "c")
            .commit_ok(1)
            .get(2, "c", 5)
            .commit_ok(2)
            .build();
        assert!(all_txs_legal(&bad, &specs).is_err());
    }

    #[test]
    fn queue_semantics() {
        let specs = SpecRegistry::new().with("q", Arc::new(FifoQueue));
        let s = HistoryBuilder::new()
            .op(1, "q", OpName::Enq, vec![Value::int(1)], Value::Ok)
            .op(1, "q", OpName::Enq, vec![Value::int(2)], Value::Ok)
            .commit_ok(1)
            .op(2, "q", OpName::Deq, vec![], Value::int(1))
            .commit_ok(2)
            .build();
        assert!(all_txs_legal(&s, &specs).is_ok());
        // LIFO-order dequeue is illegal for a FIFO queue.
        let bad = HistoryBuilder::new()
            .op(1, "q", OpName::Enq, vec![Value::int(1)], Value::Ok)
            .op(1, "q", OpName::Enq, vec![Value::int(2)], Value::Ok)
            .commit_ok(1)
            .op(2, "q", OpName::Deq, vec![], Value::int(2))
            .commit_ok(2)
            .build();
        assert!(all_txs_legal(&bad, &specs).is_err());
    }

    #[test]
    fn missing_spec_is_an_error() {
        let s = HistoryBuilder::new().read(1, "x", 0).commit_ok(1).build();
        let empty = SpecRegistry::new();
        assert!(matches!(
            all_txs_legal(&s, &empty),
            Err((TxId(1), LegalityError::NoSpec(_)))
        ));
    }

    #[test]
    fn sequential_history_legal_checks_whole_sequence() {
        let ok = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .commit_ok(2)
            .build();
        assert!(sequential_history_legal(&ok, &regs()).is_ok());
        let bad = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 3)
            .commit_ok(2)
            .build();
        assert!(sequential_history_legal(&bad, &regs()).is_err());
    }

    #[test]
    fn pending_invocation_is_legal() {
        let s = HistoryBuilder::new()
            .write(1, "x", 1)
            .inv_read(1, "x")
            .build();
        assert!(all_txs_legal(&s, &regs()).is_ok());
    }

    #[test]
    fn legality_error_display() {
        let op = OpExec::read(TxId(1), "x".into(), Value::int(3));
        let e = LegalityError::IllegalResponse {
            op,
            state: Value::int(0),
        };
        assert!(e.to_string().contains("illegal response"));
    }
}
