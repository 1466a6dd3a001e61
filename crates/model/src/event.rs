//! Transactional events: the alphabet of histories.
//!
//! Following Section 4 of the paper, a transaction `Ti` communicates with the
//! TM through six kinds of events:
//!
//! * an *operation invocation* `inv_i(ob, op, args)`,
//! * a matching *operation response* `ret_i(ob, op, val)`,
//! * a *commit-try* event `tryC_i` and matching *commit* `C_i` / *abort*
//!   `A_i`,
//! * an *abort-try* event `tryA_i` and matching *abort* `A_i`.
//!
//! An abort event may also answer a pending operation invocation (the TM
//! aborts a transaction instead of responding to its operation).
//!
//! Invocation events (operation invocations, `tryC`, `tryA`) are initiated by
//! transactions; response events (operation responses, `C`, `A`) by the TM.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A transaction identifier, the `Ti` of the paper.
///
/// Identifiers are unique per history; retrying an aborted transaction is a
/// *new* transaction with a fresh identifier (Section 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u32);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A shared-object identifier.
///
/// Backed by a reference-counted string so that hand-written histories can use
/// the paper's names (`x`, `y`, `z`) while generated workloads use `r0..r{k}`.
/// Cloning is cheap (an `Arc` bump).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(Arc<str>);

impl ObjId {
    /// Creates an object identifier from a name.
    pub fn new(name: &str) -> Self {
        ObjId(Arc::from(name))
    }

    /// Creates the identifier `r{index}`, the convention used by generated
    /// workloads over a dense universe of `k` registers.
    pub fn register(index: usize) -> Self {
        ObjId(Arc::from(format!("r{index}").as_str()))
    }

    /// The object's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ObjId {
    fn from(name: &str) -> Self {
        ObjId::new(name)
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The name of an operation exported by a shared object.
///
/// Common operations get dedicated variants so sequential specifications can
/// match on them cheaply; arbitrary further operations use
/// [`OpName::Custom`].
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpName {
    /// `read() -> v` on a register.
    Read,
    /// `write(v) -> ok` on a register.
    Write,
    /// `inc() -> ok` on a counter (the commutative update of Section 3.4).
    Inc,
    /// `dec() -> ok` on a counter.
    Dec,
    /// `get() -> v` on a counter.
    Get,
    /// `enq(v) -> ok` on a FIFO queue.
    Enq,
    /// `deq() -> v | ⊥` on a FIFO queue.
    Deq,
    /// `push(v) -> ok` on a stack.
    Push,
    /// `pop() -> v | ⊥` on a stack.
    Pop,
    /// `insert(v) -> bool` on a set.
    Insert,
    /// `remove(v) -> bool` on a set.
    Remove,
    /// `contains(v) -> bool` on a set.
    Contains,
    /// `cas(expected, new) -> bool` on a compare-and-swap register.
    Cas,
    /// `append(v) -> ok` on an append-only log (write-only, commutative-ish).
    Append,
    /// An operation of a user-defined object.
    Custom(Arc<str>),
}

impl OpName {
    /// Creates a custom operation name.
    pub fn custom(name: &str) -> Self {
        OpName::Custom(Arc::from(name))
    }

    /// The operation's name as it appears in traces (`"read"`, or the
    /// custom name).
    pub fn as_str(&self) -> &str {
        match self {
            OpName::Read => "read",
            OpName::Write => "write",
            OpName::Inc => "inc",
            OpName::Dec => "dec",
            OpName::Get => "get",
            OpName::Enq => "enq",
            OpName::Deq => "deq",
            OpName::Push => "push",
            OpName::Pop => "pop",
            OpName::Insert => "insert",
            OpName::Remove => "remove",
            OpName::Contains => "contains",
            OpName::Cas => "cas",
            OpName::Append => "append",
            OpName::Custom(name) => name,
        }
    }
}

impl fmt::Display for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single transactional event.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Event {
    /// `inv_i(ob, op, args)` — transaction `tx` invokes `op` on `obj`.
    Inv {
        /// The invoking transaction.
        tx: TxId,
        /// The target shared object.
        obj: ObjId,
        /// The invoked operation.
        op: OpName,
        /// The operation arguments.
        args: Vec<Value>,
    },
    /// `ret_i(ob, op, val)` — the TM responds to the matching invocation.
    Ret {
        /// The transaction receiving the response.
        tx: TxId,
        /// The target shared object.
        obj: ObjId,
        /// The operation being answered.
        op: OpName,
        /// The returned value.
        val: Value,
    },
    /// `tryC_i` — the transaction requests to commit.
    TryCommit(TxId),
    /// `tryA_i` — the transaction requests to abort.
    TryAbort(TxId),
    /// `C_i` — the TM commits the transaction.
    Commit(TxId),
    /// `A_i` — the TM aborts the transaction.
    Abort(TxId),
}

impl Event {
    /// The transaction this event belongs to.
    pub fn tx(&self) -> TxId {
        match self {
            Event::Inv { tx, .. }
            | Event::Ret { tx, .. }
            | Event::TryCommit(tx)
            | Event::TryAbort(tx)
            | Event::Commit(tx)
            | Event::Abort(tx) => *tx,
        }
    }

    /// The shared object this event refers to, if it is an operation event.
    pub fn obj(&self) -> Option<&ObjId> {
        match self {
            Event::Inv { obj, .. } | Event::Ret { obj, .. } => Some(obj),
            _ => None,
        }
    }

    /// True for invocation events (operation invocations, `tryC`, `tryA`),
    /// i.e. events initiated by transactions.
    pub fn is_invocation(&self) -> bool {
        matches!(
            self,
            Event::Inv { .. } | Event::TryCommit(_) | Event::TryAbort(_)
        )
    }

    /// True for response events (operation responses, `C`, `A`), i.e. events
    /// issued by the TM.
    pub fn is_response(&self) -> bool {
        !self.is_invocation()
    }

    /// True if this event is a matching response for `inv` (same transaction,
    /// object, and operation), or an abort answering the pending invocation.
    pub fn matches_invocation(&self, inv: &Event) -> bool {
        match (inv, self) {
            (
                Event::Inv {
                    tx: ti,
                    obj: oi,
                    op: pi,
                    ..
                },
                Event::Ret {
                    tx: tr,
                    obj: or,
                    op: pr,
                    ..
                },
            ) => ti == tr && oi == or && pi == pr,
            (Event::Inv { tx: ti, .. }, Event::Abort(tr)) => ti == tr,
            (Event::TryCommit(ti), Event::Commit(tr)) => ti == tr,
            (Event::TryCommit(ti), Event::Abort(tr)) => ti == tr,
            (Event::TryAbort(ti), Event::Abort(tr)) => ti == tr,
            _ => false,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Inv { tx, obj, op, args } => {
                write!(f, "inv{}({obj},{op}", tx.0)?;
                for a in args {
                    write!(f, ",{a}")?;
                }
                write!(f, ")")
            }
            Event::Ret { tx, obj, op, val } => {
                write!(f, "ret{}({obj},{op})→{val}", tx.0)
            }
            Event::TryCommit(tx) => write!(f, "tryC{}", tx.0),
            Event::TryAbort(tx) => write!(f, "tryA{}", tx.0),
            Event::Commit(tx) => write!(f, "C{}", tx.0),
            Event::Abort(tx) => write!(f, "A{}", tx.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(tx: u32, obj: &str, op: OpName, args: Vec<Value>) -> Event {
        Event::Inv {
            tx: TxId(tx),
            obj: obj.into(),
            op,
            args,
        }
    }

    fn ret(tx: u32, obj: &str, op: OpName, val: Value) -> Event {
        Event::Ret {
            tx: TxId(tx),
            obj: obj.into(),
            op,
            val,
        }
    }

    #[test]
    fn tx_extraction() {
        assert_eq!(Event::Commit(TxId(3)).tx(), TxId(3));
        assert_eq!(inv(1, "x", OpName::Read, vec![]).tx(), TxId(1));
    }

    #[test]
    fn invocation_response_partition() {
        let i = inv(1, "x", OpName::Read, vec![]);
        let r = ret(1, "x", OpName::Read, Value::int(0));
        assert!(i.is_invocation() && !i.is_response());
        assert!(r.is_response() && !r.is_invocation());
        assert!(Event::TryCommit(TxId(1)).is_invocation());
        assert!(Event::TryAbort(TxId(1)).is_invocation());
        assert!(Event::Commit(TxId(1)).is_response());
        assert!(Event::Abort(TxId(1)).is_response());
    }

    #[test]
    fn matching() {
        let i = inv(1, "x", OpName::Read, vec![]);
        assert!(ret(1, "x", OpName::Read, Value::int(5)).matches_invocation(&i));
        // An abort may answer a pending operation invocation.
        assert!(Event::Abort(TxId(1)).matches_invocation(&i));
        // Wrong transaction / object / op do not match.
        assert!(!ret(2, "x", OpName::Read, Value::int(5)).matches_invocation(&i));
        assert!(!ret(1, "y", OpName::Read, Value::int(5)).matches_invocation(&i));
        assert!(!ret(1, "x", OpName::Write, Value::Ok).matches_invocation(&i));
        // tryC can be answered by C or A; tryA only by A.
        assert!(Event::Commit(TxId(2)).matches_invocation(&Event::TryCommit(TxId(2))));
        assert!(Event::Abort(TxId(2)).matches_invocation(&Event::TryCommit(TxId(2))));
        assert!(Event::Abort(TxId(2)).matches_invocation(&Event::TryAbort(TxId(2))));
        assert!(!Event::Commit(TxId(2)).matches_invocation(&Event::TryAbort(TxId(2))));
    }

    #[test]
    fn obj_accessor() {
        let i = inv(1, "x", OpName::Read, vec![]);
        assert_eq!(i.obj().unwrap().name(), "x");
        assert_eq!(Event::Commit(TxId(1)).obj(), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        let w = inv(2, "x", OpName::Write, vec![Value::int(1)]);
        assert_eq!(w.to_string(), "inv2(x,write,1)");
        let r = ret(2, "x", OpName::Read, Value::int(1));
        assert_eq!(r.to_string(), "ret2(x,read)→1");
        assert_eq!(Event::TryCommit(TxId(2)).to_string(), "tryC2");
        assert_eq!(Event::Abort(TxId(1)).to_string(), "A1");
    }

    #[test]
    fn register_obj_naming() {
        assert_eq!(ObjId::register(7).name(), "r7");
        assert_eq!(ObjId::new("x"), ObjId::from("x"));
    }
}
