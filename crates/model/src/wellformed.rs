//! Well-formedness of histories (Section 4).
//!
//! A history `H` is well-formed if for every transaction `Ti`, `H|Ti` is a
//! prefix of `O · F`, where `O` is a sequence of operation executions and `F`
//! is one of:
//!
//! 1. `⟨inv_i(ob, op, args), A_i⟩` — an abort answering a pending operation,
//! 2. `⟨tryA_i, A_i⟩`,
//! 3. `⟨tryC_i, C_i⟩`,
//! 4. `⟨tryC_i, A_i⟩`.
//!
//! In particular, (1) no event follows a commit or abort event, (2) only a
//! commit or abort event can follow a commit-try event, and (3) only an abort
//! event can follow an abort-try event. Transactions are sequential: an
//! operation is invoked only after the previous one responded.

use crate::event::{Event, ObjId, OpName, TxId};
use crate::history::History;
use std::fmt;

/// Why a history is not well-formed.
///
/// Every variant carries the offending transaction `tx` and the event
/// `index` within the history at which the violation was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // fields documented on the enum: (tx, index) pairs
pub enum WfError {
    /// An event follows a commit or abort event of the same transaction.
    EventAfterCompletion { tx: TxId, index: usize },
    /// Something other than `C`/`A` follows a `tryC`.
    BadEventAfterTryCommit { tx: TxId, index: usize },
    /// Something other than `A` follows a `tryA`.
    BadEventAfterTryAbort { tx: TxId, index: usize },
    /// A response event with no matching pending invocation.
    UnmatchedResponse { tx: TxId, index: usize },
    /// An invocation while another invocation of the same transaction is
    /// still pending (transactions are sequential).
    InvocationWhilePending { tx: TxId, index: usize },
    /// A `C`/`A` response arrived while an *operation* invocation was pending
    /// and the response does not answer it (only `A` may do that).
    CommitAnswersOperation { tx: TxId, index: usize },
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WfError::EventAfterCompletion { tx, index } => {
                write!(f, "event #{index}: {tx} already completed")
            }
            WfError::BadEventAfterTryCommit { tx, index } => {
                write!(f, "event #{index}: only C/A may follow tryC of {tx}")
            }
            WfError::BadEventAfterTryAbort { tx, index } => {
                write!(f, "event #{index}: only A may follow tryA of {tx}")
            }
            WfError::UnmatchedResponse { tx, index } => {
                write!(
                    f,
                    "event #{index}: response for {tx} matches no pending invocation"
                )
            }
            WfError::InvocationWhilePending { tx, index } => {
                write!(
                    f,
                    "event #{index}: {tx} invoked while a previous invocation is pending"
                )
            }
            WfError::CommitAnswersOperation { tx, index } => {
                write!(
                    f,
                    "event #{index}: C cannot answer a pending operation of {tx}"
                )
            }
        }
    }
}

impl std::error::Error for WfError {}

/// One transaction's state in the well-formedness automaton.
///
/// [`check_well_formed`] runs it over a whole history, and a resumable
/// checker can run it one event at a time: both reject exactly the same
/// events with the same [`WfError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WfState {
    /// Between operations; may invoke, tryC, or tryA.
    Idle,
    /// An operation invocation is pending (awaiting `Ret` or `Abort`).
    OpPending,
    /// `tryC` issued; awaiting `C` or `A`.
    CommitPending,
    /// `tryA` issued; awaiting `A`.
    AbortPending,
    /// `C` or `A` received; no further events allowed.
    Done,
}

impl WfState {
    /// The state after `e`, an event of this transaction and event `index`
    /// of the history, or the violation `e` commits. `pending` is the
    /// object and operation of the transaction's pending invocation; only
    /// a `Ret` in [`WfState::OpPending`] consults it.
    #[inline]
    pub fn step(
        self,
        e: &Event,
        index: usize,
        pending: Option<(&ObjId, &OpName)>,
    ) -> Result<WfState, WfError> {
        let tx = e.tx();
        Ok(match (self, e) {
            (WfState::Done, _) => return Err(WfError::EventAfterCompletion { tx, index }),
            // --- Idle ---
            (WfState::Idle, Event::Inv { .. }) => WfState::OpPending,
            (WfState::Idle, Event::TryCommit(_)) => WfState::CommitPending,
            (WfState::Idle, Event::TryAbort(_)) => WfState::AbortPending,
            (WfState::Idle, _) => return Err(WfError::UnmatchedResponse { tx, index }),
            // --- operation pending ---
            (WfState::OpPending, Event::Ret { obj, op, .. }) => {
                if pending == Some((obj, op)) {
                    WfState::Idle
                } else {
                    return Err(WfError::UnmatchedResponse { tx, index });
                }
            }
            (WfState::OpPending, Event::Abort(_)) => WfState::Done,
            (WfState::OpPending, Event::Commit(_)) => {
                return Err(WfError::CommitAnswersOperation { tx, index })
            }
            (WfState::OpPending, _) => return Err(WfError::InvocationWhilePending { tx, index }),
            // --- commit pending ---
            (WfState::CommitPending, Event::Commit(_) | Event::Abort(_)) => WfState::Done,
            (WfState::CommitPending, _) => {
                return Err(WfError::BadEventAfterTryCommit { tx, index })
            }
            // --- abort pending ---
            (WfState::AbortPending, Event::Abort(_)) => WfState::Done,
            (WfState::AbortPending, _) => return Err(WfError::BadEventAfterTryAbort { tx, index }),
        })
    }
}

/// Checks whether `h` is well-formed; returns the first violation found.
pub fn check_well_formed(h: &History) -> Result<(), WfError> {
    use std::collections::HashMap;
    // Each transaction's state and its latest operation invocation.
    let mut txs = HashMap::new();
    for (index, e) in h.events().iter().enumerate() {
        let (state, pending) = txs.entry(e.tx()).or_insert((WfState::Idle, None));
        *state = state.step(e, index, *pending)?;
        if let Event::Inv { obj, op, .. } = e {
            *pending = Some((obj, op));
        }
    }
    Ok(())
}

/// Convenience wrapper: true if `h` is well-formed.
pub fn is_well_formed(h: &History) -> bool {
    check_well_formed(h).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{paper, HistoryBuilder};

    #[test]
    fn paper_histories_are_well_formed() {
        for h in [
            paper::h1(),
            paper::h2(),
            paper::h3(),
            paper::h4(),
            paper::h5(),
        ] {
            assert!(check_well_formed(&h).is_ok(), "{h}");
        }
        assert!(is_well_formed(&History::new()));
    }

    #[test]
    fn event_after_commit_rejected() {
        let h = HistoryBuilder::new().commit_ok(1).read(1, "x", 0).build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::EventAfterCompletion { tx: TxId(1), .. })
        ));
    }

    #[test]
    fn event_after_abort_rejected() {
        let h = HistoryBuilder::new()
            .try_abort(1)
            .abort(1)
            .try_commit(1)
            .build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::EventAfterCompletion { .. })
        ));
    }

    #[test]
    fn operation_after_try_commit_rejected() {
        let h = HistoryBuilder::new().try_commit(1).read(1, "x", 0).build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::BadEventAfterTryCommit { .. })
        ));
    }

    #[test]
    fn commit_after_try_abort_rejected() {
        let h = HistoryBuilder::new().try_abort(1).commit(1).build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::BadEventAfterTryAbort { .. })
        ));
    }

    #[test]
    fn response_without_invocation_rejected() {
        let h = HistoryBuilder::new().ret_read(1, "x", 0).build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::UnmatchedResponse { .. })
        ));
        let h = HistoryBuilder::new().commit(1).build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::UnmatchedResponse { .. })
        ));
    }

    #[test]
    fn mismatched_response_rejected() {
        // Response on a different object than the pending invocation.
        let h = HistoryBuilder::new()
            .inv_read(1, "x")
            .ret_read(1, "y", 0)
            .build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::UnmatchedResponse { .. })
        ));
        // Response for a different operation.
        let h = HistoryBuilder::new()
            .inv_read(1, "x")
            .ret_write(1, "x")
            .build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::UnmatchedResponse { .. })
        ));
    }

    #[test]
    fn overlapping_invocations_rejected() {
        let h = HistoryBuilder::new()
            .inv_read(1, "x")
            .inv_read(1, "y")
            .build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::InvocationWhilePending { .. })
        ));
        // tryC while an operation is pending is also an invocation.
        let h = HistoryBuilder::new().inv_read(1, "x").try_commit(1).build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::InvocationWhilePending { .. })
        ));
    }

    #[test]
    fn abort_may_answer_pending_operation() {
        // F = ⟨inv, A⟩ is an allowed terminal shape.
        let h = HistoryBuilder::new().inv_read(1, "x").abort(1).build();
        assert!(is_well_formed(&h));
    }

    #[test]
    fn commit_cannot_answer_pending_operation() {
        let h = HistoryBuilder::new().inv_read(1, "x").commit(1).build();
        assert!(matches!(
            check_well_formed(&h),
            Err(WfError::CommitAnswersOperation { .. })
        ));
    }

    #[test]
    fn interleaving_across_txs_is_fine() {
        // Well-formedness is per-transaction; cross-transaction interleaving
        // at event granularity (as in H5) is allowed.
        let h = HistoryBuilder::new()
            .inv_read(1, "x")
            .inv_read(2, "x")
            .ret_read(2, "x", 0)
            .ret_read(1, "x", 0)
            .build();
        assert!(is_well_formed(&h));
    }

    #[test]
    fn custom_ops_check_matching() {
        let h = HistoryBuilder::new()
            .op(
                1,
                "q",
                OpName::Enq,
                vec![crate::value::Value::int(1)],
                crate::value::Value::Ok,
            )
            .commit_ok(1)
            .build();
        assert!(is_well_formed(&h));
    }
}
