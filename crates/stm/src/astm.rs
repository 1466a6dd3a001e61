//! An ASTM-like TM (Marathe, Scherer, Scott — DISC 2005), lazy-acquire
//! flavour.
//!
//! The *second* system the paper places at the Θ(k) point ("DSTM and ASTM
//! ensure opacity and have the above three properties, and require, in the
//! worst case, Θ(k) steps to complete a single operation"). Like DSTM it is
//! progressive, single-version, invisible-read, and opaque — so Theorem 3
//! binds it — but the write path differs materially:
//!
//! * **lazy acquire**: writes are buffered locally; objects are acquired
//!   only at commit time (DSTM acquires eagerly at the write). Write
//!   operations therefore cost 0 base-object steps and writer-writer
//!   conflicts surface only between committers;
//! * **per-read incremental validation**: identical to DSTM — Θ(read set)
//!   steps per read, the cost opacity forces on invisible readers.
//!
//! Having both protocols at the same design-space point demonstrates that
//! the Ω(k) bound is a property of the *point*, not of one algorithm.

use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

use crate::api::{Aborted, StmProperties, TxResult};
use crate::base::Meter;
use crate::config::StmConfig;
use crate::lock;
use crate::trace_cells::{AccessKind, CellId};
use crate::txn::{Design, Protocol, Tm, Txn};
use tm_model::{NestingInfo, NestingMode, TxId};

/// Committed object state: value plus a modification counter that lets
/// invisible readers detect overwrites (a "version" in the loose sense —
/// there is still only ever one stored value, so the TM is single-version).
#[derive(Debug, Default)]
struct AstmObj {
    inner: Mutex<(i64, u64)>, // (value, modification count)
    /// Commit-time ownership flag (one writer at a time per object).
    owned: AtomicU64, // 0 = free, else owner tx id
}

/// The ASTM-like TM over `k` registers, initialized to 0.
pub type AstmStm = Tm<Astm>;

/// ASTM's base objects: one committed record and ownership word per
/// register, and the nesting structure of the recorded history.
#[derive(Debug)]
pub struct Astm {
    objs: Vec<AstmObj>,
    /// (child, parent) pairs of closed-nested scopes opened so far, for
    /// flattening recorded histories (Section 7 / experiment E22).
    nested: Mutex<Vec<(u32, u32)>>,
}

impl AstmStm {
    /// Starts a transaction whose handle additionally exposes the
    /// closed-nesting scope API: `begin_nested`, `commit_nested` and
    /// `abort_nested` (Section 7; experiment E22).
    ///
    /// While a nested scope is open, reads and writes execute in the
    /// child's name: the child sees the parent's buffered writes (the
    /// paper: "a nested transaction should observe the changes done by its
    /// parent"), and aborting the child restores the parent's redo log
    /// exactly — a partial abort the flat `Tx` interface cannot express. A
    /// closed commit is internal: the child's reads and writes simply
    /// remain the parent's. One level deep, matching
    /// [`tm_model::flatten`]'s translation: `begin_nested` panics if a
    /// scope is already open, `commit_nested` and `abort_nested` if none
    /// is. A scope left open when the transaction commits or aborts is
    /// aborted first (the conservative reading of an unterminated nested
    /// transaction).
    pub fn begin_astm(&self, thread: usize) -> Txn<'_, AstmTx<'_>> {
        self.begin_txn(thread)
    }

    /// The nesting structure of the recorded history: pass it with
    /// [`crate::Stm::recorder`]'s history to [`tm_model::flatten`] before
    /// checking opacity.
    pub fn nesting_info(&self) -> NestingInfo {
        let mut info = NestingInfo::new();
        for &(child, parent) in lock(&self.design.nested).iter() {
            info = info.child(child, parent, NestingMode::Closed);
        }
        info
    }
}

impl Astm {
    /// One metered load of the object's committed (value, modcount).
    fn snapshot(&self, obj: usize, m: &mut Meter) -> (i64, u64) {
        m.touch(CellId::Record(obj as u32), AccessKind::Read);
        *lock(&self.objs[obj].inner)
    }
}

/// `pub` only so that [`AstmStm::begin_astm`] can return it; the private
/// module keeps it out of the crate's API.
mod state {
    /// A live ASTM transaction's protocol state.
    pub struct AstmTx<'a> {
        pub(super) stm: &'a super::Astm,
        /// The transaction id, as the commit-time owner word.
        pub(super) me: u64,
        /// Invisible read set: (object, modcount observed).
        pub(super) reads: Vec<(usize, u64)>,
        /// Lazy redo log, sorted by object index for deadlock-free
        /// acquisition.
        pub(super) writes: Vec<(usize, i64)>,
        /// While a closed-nested scope is open: the parent's read-set
        /// length and redo log when it began, restored if the child aborts.
        pub(super) mark: Option<(usize, Vec<(usize, i64)>)>,
    }
}

use state::AstmTx;

impl Design for Astm {
    const NAME: &'static str = "astm";
    const PROPERTIES: StmProperties = StmProperties {
        progressive: true,
        single_version: true,
        invisible_reads: true,
        opaque_by_design: true,
        serializable_by_design: true,
    };
    type Args = ();
    type Tx<'a> = AstmTx<'a>;

    fn build(cfg: &StmConfig, (): ()) -> Self {
        Astm {
            objs: (0..cfg.k()).map(|_| AstmObj::default()).collect(),
            nested: Mutex::new(Vec::new()),
        }
    }

    fn k(&self) -> usize {
        self.objs.len()
    }

    fn begin(&self, id: TxId) -> AstmTx<'_> {
        AstmTx {
            stm: self,
            me: u64::from(id.0),
            reads: Vec::new(),
            writes: Vec::new(),
            mark: None,
        }
    }
}

/// The closed-nesting scope API of [`AstmStm::begin_astm`]. The lifecycle
/// records operations under the open child's id and ends a child left open
/// when the transaction finishes.
impl<'a> Txn<'a, AstmTx<'a>> {
    /// Opens a closed-nested transaction.
    ///
    /// # Panics
    /// Panics if a nested scope is already open.
    pub fn begin_nested(&mut self) {
        assert!(
            self.child.is_none(),
            "nesting is one level deep (flatten bottom-up)"
        );
        let child = self.recorder.fresh_tx();
        lock(&self.proto.stm.nested).push((child.0, self.id.0));
        self.child = Some(child);
        self.proto.mark = Some((self.proto.reads.len(), self.proto.writes.clone()));
    }

    /// Commits the open nested scope into the parent.
    ///
    /// # Panics
    /// Panics if no nested scope is open.
    pub fn commit_nested(&mut self) {
        let child = self.child.take().expect("no nested scope open");
        self.proto.mark = None;
        self.recorder.try_commit(child);
        self.recorder.commit(child);
    }

    /// Aborts the open nested scope: the parent's redo log is restored to
    /// its state at `begin_nested` and the child's reads stop constraining
    /// the parent's validation.
    ///
    /// # Panics
    /// Panics if no nested scope is open.
    pub fn abort_nested(&mut self) {
        let mark = self.proto.mark.take().expect("no nested scope open");
        self.proto.unwind(mark);
        self.abort_child();
    }
}

impl AstmTx<'_> {
    /// Restores the parent's read set and redo log to a nested scope's
    /// `mark`.
    fn unwind(&mut self, (reads, writes): (usize, Vec<(usize, i64)>)) {
        self.reads.truncate(reads);
        self.writes = writes;
    }

    /// Incremental validation: every recorded modcount must be current and
    /// no read object may be owned by a committing peer (without the
    /// ownership check, two committers with disjoint write sets could both
    /// validate before either publishes — the classic r-w cycle).
    /// Θ(|read set|) — the Theorem 3 cost.
    fn validate_read_set(&self, m: &mut Meter) -> TxResult<()> {
        for &(obj, seen) in &self.reads {
            let owner = m.load_u64(CellId::Lock(obj as u32), &self.stm.objs[obj].owned);
            if (owner != 0 && owner != self.me) || self.stm.snapshot(obj, m).1 != seen {
                return Err(Aborted);
            }
        }
        Ok(())
    }

    /// Releases commit-time ownership of `held` objects.
    fn release(&self, m: &mut Meter, held: &[usize]) {
        for &obj in held {
            m.store_u64(CellId::Lock(obj as u32), &self.stm.objs[obj].owned, 0);
        }
    }
}

impl Protocol for AstmTx<'_> {
    fn read(&mut self, m: &mut Meter, obj: usize) -> TxResult<i64> {
        // Lazy writes: read-own-write from the buffer, no base access.
        // With a nested scope open this is also where the child observes
        // the parent's buffered writes.
        if let Some(&(_, v)) = self.writes.iter().find(|(o, _)| *o == obj) {
            return Ok(v);
        }
        let (v, modc) = self.stm.snapshot(obj, m);
        self.reads.push((obj, modc));
        // Opacity's price: re-validate the whole read set on every read.
        self.validate_read_set(m)?;
        Ok(v)
    }

    fn write(&mut self, _m: &mut Meter, obj: usize, v: i64) -> TxResult<()> {
        // Purely local: lazy acquire defers all conflict work to commit.
        match self.writes.iter_mut().find(|(o, _)| *o == obj) {
            Some(slot) => slot.1 = v,
            None => {
                self.writes.push((obj, v));
                self.writes.sort_unstable_by_key(|(o, _)| *o);
            }
        }
        Ok(())
    }

    fn commit(&mut self, m: &mut Meter) -> TxResult<()> {
        // A scope still open here was aborted ahead of `tryC`.
        if let Some(mark) = self.mark.take() {
            self.unwind(mark);
        }
        if self.writes.is_empty() {
            // Read-only: the per-read validation already guaranteed a
            // consistent snapshot at the last read; one final validation
            // pins it at commit time.
            return self.validate_read_set(m);
        }
        // Acquire the write set (index order). A held object means a live
        // committing conflicting peer: abort self (obstruction-style; the
        // peer is live and conflicting, so this is progressive).
        let mut held: Vec<usize> = Vec::with_capacity(self.writes.len());
        for &(obj, _) in &self.writes {
            let owned = &self.stm.objs[obj].owned;
            if !m.cas_u64(CellId::Lock(obj as u32), owned, 0, self.me) {
                self.release(m, &held);
                return Err(Aborted);
            }
            held.push(obj);
        }
        // Validate reads once more, then publish.
        let valid = self.validate_read_set(m);
        if valid.is_ok() {
            for &(obj, v) in &self.writes {
                m.touch(CellId::Record(obj as u32), AccessKind::Write);
                let mut g = lock(&self.stm.objs[obj].inner);
                *g = (v, g.1 + 1);
            }
        }
        self.release(m, &held);
        valid
    }

    /// An open scope dies with the transaction.
    fn aborted(&mut self, _m: &mut Meter) {
        self.mark = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Stm};
    use crate::base::OpKind;

    #[test]
    fn roundtrip_and_lazy_buffering() {
        let stm = AstmStm::new(2);
        let mut tx = stm.begin(0);
        tx.write(0, 7).unwrap();
        assert_eq!(tx.read(0).unwrap(), 7); // buffered
        tx.commit().unwrap();
        let mut tx = stm.begin(0);
        assert_eq!(tx.read(0).unwrap(), 7);
        tx.commit().unwrap();
    }

    #[test]
    fn writes_cost_zero_base_steps() {
        // Lazy acquire: the write path never touches a base object.
        let stm = AstmStm::new(8);
        let mut tx = stm.begin(0);
        for i in 0..8 {
            tx.write(i, 1).unwrap();
        }
        assert_eq!(tx.steps().max_of(OpKind::Write), 0);
        tx.commit().unwrap();
    }

    #[test]
    fn per_read_cost_grows_like_dstm() {
        let k = 64;
        let stm = AstmStm::new(k);
        let mut tx = stm.begin(0);
        for i in 0..k {
            tx.read(i).unwrap();
        }
        let reads: Vec<u64> = tx
            .steps()
            .per_op
            .iter()
            .filter(|(kind, _)| *kind == OpKind::Read)
            .map(|(_, s)| *s)
            .collect();
        assert!(reads.windows(2).all(|w| w[0] < w[1]), "{reads:?}");
        assert!(reads[k - 1] >= k as u64);
        tx.commit().unwrap();
    }

    #[test]
    fn stale_read_set_aborts_at_next_read() {
        let stm = AstmStm::new(2);
        let mut t1 = stm.begin(0);
        assert_eq!(t1.read(0).unwrap(), 0);
        run_tx(&stm, 1, |tx| tx.write(0, 5));
        assert_eq!(t1.read(1), Err(Aborted));
    }

    #[test]
    fn progressive_like_dstm() {
        // Disjoint committed writer does not abort the reader.
        let stm = AstmStm::new(2);
        let mut t1 = stm.begin(0);
        assert_eq!(t1.read(0).unwrap(), 0);
        run_tx(&stm, 1, |tx| tx.write(1, 5));
        assert_eq!(t1.read(1).unwrap(), 5);
        t1.commit().unwrap();
    }

    #[test]
    fn lazy_writers_conflict_only_at_commit() {
        // Two writers of the same object proceed freely; the second
        // committer loses on read-set/ownership grounds only if it read.
        let stm = AstmStm::new(1);
        let mut t1 = stm.begin(0);
        let mut t2 = stm.begin(1);
        t1.write(0, 1).unwrap();
        t2.write(0, 2).unwrap(); // no conflict yet: lazy acquire
        t1.commit().unwrap();
        // Blind write: t2 can still commit (last-writer-wins is legal for
        // blind writes — cf. the Section 3.6 example).
        t2.commit().unwrap();
        let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
        assert_eq!(v, 2);
    }

    #[test]
    fn read_write_conflict_detected_at_commit() {
        let stm = AstmStm::new(1);
        let mut t1 = stm.begin(0);
        let v = t1.read(0).unwrap();
        t1.write(0, v + 1).unwrap();
        run_tx(&stm, 1, |tx| {
            let v = tx.read(0)?;
            tx.write(0, v + 1)
        });
        assert_eq!(t1.commit(), Err(Aborted), "t1's read set is stale");
        let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
        assert_eq!(v, 1);
    }

    #[test]
    fn recorded_history_well_formed() {
        let stm = AstmStm::new(2);
        run_tx(&stm, 0, |tx| tx.write(0, 1));
        run_tx(&stm, 1, |tx| {
            let v = tx.read(0)?;
            tx.write(1, v + 1)
        });
        let h = stm.recorder().history();
        assert!(tm_model::is_well_formed(&h), "{h}");
        assert_eq!(h.committed_txs().len(), 2);
    }
}
