//! A pessimistic strict two-phase-locking TM — the *rigorous scheduling*
//! reference point of Section 3.6.
//!
//! Readers take shared locks, writers take exclusive locks, and every lock
//! is held until after the commit/abort event — the discipline of *rigorous
//! scheduling* in the sense of Breitbart et al. (the paper's reference \[4\]).
//! The paper's §3.6 argument is that rigorousness is *sufficient but too
//! strong*: this TM forcefully serializes the overlapping blind writers that
//! optimistic TMs (the commit-time validator, and — serially — TL2) commit.
//! Having it executable lets the criteria lattice be demonstrated on real
//! executions, and gives the throughput workloads the classical pessimistic
//! baseline.
//!
//! **Rigorousness vs. non-blocking — a measured caveat** (test
//! `tests/rigorous_tm.rs`): conflict wounds (below) repair a victim's lock
//! *before* the victim's abort event is recorded (the model has no way to
//! deliver an abort to a transaction with no pending invocation), so
//! wounding executions are opaque but fail *literal* history-level
//! rigorousness; wound-free executions are rigorous. Literal rigorousness
//! in every history requires conflicting requesters to block, which no
//! non-blocking TM can do — a sharp form of the paper's "too strong"
//! verdict on §3.6.
//!
//! **Non-blocking conflict resolution.** A textbook 2PL blocks on lock
//! conflicts, which would deadlock the single-OS-thread interleaving
//! explorer (`tm-harness::sched`). Instead, conflicts are resolved by
//! *wounding*: the older transaction (smaller identifier) forcibly aborts
//! the younger one by CASing its status word and repairs the lock state
//! itself (restoring the pre-image of a wounded writer); a younger
//! transaction that meets an older lock holder aborts itself ("dies").
//! The globally oldest live transaction therefore never waits and never
//! aborts, so the scheme is deadlock- and livelock-free, and every forceful
//! abort happens at a conflict with a *live* transaction — the TM is
//! progressive in the §6.1 sense.
//!
//! Updates are in-place with per-object pre-images (single-version); reads
//! register the reader in the object's lock word (visible reads). Per-object
//! lock state is one logical base object — a mutex-protected record accessed
//! in O(1) (plus O(concurrent readers) wound scans, which is bounded by the
//! thread count and independent of `k`). Theorem 3 does not apply: the
//! visible-reads hypothesis fails, and indeed every operation costs O(1)
//! steps in `k`.

use std::sync::{Arc, Mutex};

use crate::api::{Aborted, StmProperties, TxResult};
use crate::base::{status, Meter, TxDesc};
use crate::config::StmConfig;
use crate::lock;
use crate::trace_cells::{AccessKind, CellId};
use crate::txn::{Design, Protocol, Tm};
use tm_model::TxId;

/// Per-object lock word: current value, pre-image while write-locked, and
/// the lock holders. Guarded by one mutex = one base shared object.
#[derive(Debug, Default)]
struct TplCell {
    value: i64,
    /// Pre-image, meaningful only while `writer` is `Some`.
    saved: i64,
    writer: Option<Arc<TxDesc>>,
    readers: Vec<Arc<TxDesc>>,
}

impl TplCell {
    /// Drops lock entries of completed transactions: a committed writer's
    /// value stays (it is the committed state), an aborted writer's
    /// pre-image is restored. Each status inspection is one step.
    fn clean(&mut self, m: &mut Meter) {
        if let Some(w) = &self.writer {
            match m.load_u8(w.status_cell(), &w.status) {
                status::ACTIVE => {}
                status::COMMITTED => self.writer = None,
                _ => {
                    self.value = self.saved;
                    self.writer = None;
                }
            }
        }
        self.readers.retain(|r| {
            m.step();
            r.status_now() == status::ACTIVE
        });
    }
}

/// The strict two-phase-locking TM over `k` registers, initialized to 0.
///
/// ```
/// use tm_stm::{TplStm, Stm, Aborted};
///
/// let stm = TplStm::new(1);
/// let mut old = stm.begin(0);
/// old.write(0, 1).unwrap();            // exclusive lock on r0
/// let mut young = stm.begin(1);
/// assert_eq!(young.read(0), Err(Aborted)); // younger dies, never waits
/// old.commit().unwrap();
/// ```
pub type TplStm = Tm<Tpl>;

/// The 2PL TM's base objects: one lock word per register.
#[derive(Debug)]
pub struct Tpl {
    objs: Vec<Mutex<TplCell>>,
}

mod state {
    /// A live 2PL transaction's protocol state.
    pub struct TplTx<'a> {
        pub(super) stm: &'a super::Tpl,
        pub(super) desc: std::sync::Arc<crate::base::TxDesc>,
        /// Objects whose reader lists contain this transaction.
        pub(super) read_locked: Vec<usize>,
        /// Objects this transaction write-locked (pre-images live in the
        /// cells).
        pub(super) write_locked: Vec<usize>,
    }
}

use state::TplTx;

impl Design for Tpl {
    const NAME: &'static str = "tpl";
    const PROPERTIES: StmProperties = StmProperties {
        progressive: true, // wounds/dies happen only at conflicts with
        // live lock holders
        single_version: true,
        invisible_reads: false, // readers register in the lock word
        opaque_by_design: true, // rigorous ⇒ opaque
        serializable_by_design: true,
    };
    type Args = ();
    type Tx<'a> = TplTx<'a>;

    fn build(cfg: &StmConfig, (): ()) -> Self {
        Tpl {
            objs: (0..cfg.k()).map(|_| Mutex::default()).collect(),
        }
    }

    fn k(&self) -> usize {
        self.objs.len()
    }

    fn begin(&self, id: TxId) -> TplTx<'_> {
        TplTx {
            stm: self,
            desc: Arc::new(TxDesc::new(id.0)),
            read_locked: Vec::new(),
            write_locked: Vec::new(),
        }
    }
}

impl TplTx<'_> {
    /// Resolves a conflict with `holder`: wound it if we are older (= higher
    /// priority; the caller repairs the cell), die otherwise.
    fn wound_or_die(&self, holder: &TxDesc, m: &mut Meter) -> TxResult<()> {
        if self.desc.id < holder.id {
            // Wound: either we flip it to ABORTED or it already completed;
            // both outcomes let `clean` dispose of the entry.
            let _ = m.cas_u8(
                holder.status_cell(),
                &holder.status,
                status::ACTIVE,
                status::ABORTED,
            );
            Ok(())
        } else {
            Err(Aborted)
        }
    }

    /// Acquires `obj`'s lock word for reading or writing: disposes of
    /// completed holders and wounds a live foreign writer (and, for
    /// writes, every live foreign reader), or dies. Runs `then` on the
    /// cleaned cell inside the same critical section.
    fn acquire<T>(
        &mut self,
        m: &mut Meter,
        obj: usize,
        exclusive: bool,
        then: impl FnOnce(&mut Self, &mut TplCell) -> T,
    ) -> TxResult<T> {
        // Lock-word acquisition: reads register in the lock word too, so
        // this is an RMW on the object's record.
        m.touch(CellId::Record(obj as u32), AccessKind::Rmw);
        let mut cell = lock(&self.stm.objs[obj]);
        m.begin_atomic();
        let res = self.resolve(m, &mut cell, exclusive);
        let res = res.map(|()| then(self, &mut cell));
        m.end_atomic();
        res
    }

    /// The conflict resolution of [`TplTx::acquire`], under the cell's lock.
    fn resolve(&self, m: &mut Meter, cell: &mut TplCell, exclusive: bool) -> TxResult<()> {
        cell.clean(m);
        if let Some(w) = cell.writer.clone() {
            if w.id != self.desc.id {
                self.wound_or_die(&w, m)?;
                cell.clean(m); // dispose of the wounded writer
            }
        }
        if exclusive {
            // Exclusive access also requires displacing other readers.
            for r in cell.readers.clone() {
                if r.id != self.desc.id {
                    self.wound_or_die(&r, m)?;
                }
            }
            cell.clean(m); // drop wounded readers
        }
        Ok(())
    }

    /// Rolls back in-place writes and releases every lock. Safe to call
    /// after a remote wound: only entries still owned are touched.
    fn release_all(&mut self, m: &mut Meter, committed: bool) {
        for &obj in &self.write_locked {
            m.touch(CellId::Record(obj as u32), AccessKind::Rmw);
            let mut cell = lock(&self.stm.objs[obj]);
            let mine = cell.writer.as_ref().is_some_and(|w| w.id == self.desc.id);
            if mine {
                if !committed {
                    cell.value = cell.saved;
                }
                cell.writer = None;
            }
        }
        for &obj in &self.read_locked {
            m.touch(CellId::Record(obj as u32), AccessKind::Rmw);
            let mut cell = lock(&self.stm.objs[obj]);
            cell.readers.retain(|r| r.id != self.desc.id);
        }
        self.write_locked.clear();
        self.read_locked.clear();
    }

    /// Fails if a peer wounded this transaction (one metered status load).
    fn not_wounded(&self, m: &mut Meter) -> TxResult<()> {
        if m.load_u8(self.desc.status_cell(), &self.desc.status) == status::ABORTED {
            Err(Aborted)
        } else {
            Ok(())
        }
    }
}

impl Protocol for TplTx<'_> {
    fn read(&mut self, m: &mut Meter, obj: usize) -> TxResult<i64> {
        self.not_wounded(m)?;
        let v = self.acquire(m, obj, false, |tx, cell| {
            let me = tx.desc.id;
            let registered = cell.writer.as_ref().is_some_and(|w| w.id == me)
                || cell.readers.iter().any(|r| r.id == me);
            if !registered {
                cell.readers.push(Arc::clone(&tx.desc));
                tx.read_locked.push(obj);
            }
            cell.value
        })?;
        // A whole writer may have run between the wound check above and the
        // lock-word acquisition, wounding this transaction through an
        // object it read earlier: `v` may then be newer than that read.
        self.not_wounded(m)?;
        Ok(v)
    }

    fn write(&mut self, m: &mut Meter, obj: usize, v: i64) -> TxResult<()> {
        self.not_wounded(m)?;
        self.acquire(m, obj, true, |tx, cell| {
            if cell.writer.is_none() {
                cell.saved = cell.value;
                cell.writer = Some(Arc::clone(&tx.desc));
                tx.write_locked.push(obj);
            }
            cell.value = v;
        })
    }

    fn commit(&mut self, m: &mut Meter) -> TxResult<()> {
        // The commit point: one CAS on the own status word. Failure means a
        // peer wounded us first.
        if !m.cas_u8(
            self.desc.status_cell(),
            &self.desc.status,
            status::ACTIVE,
            status::COMMITTED,
        ) {
            return Err(Aborted);
        }
        self.release_all(m, true);
        Ok(())
    }

    fn aborted(&mut self, m: &mut Meter) {
        self.desc.force_status(status::ABORTED);
        self.release_all(m, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Stm};
    use crate::base::OpKind;

    #[test]
    fn a_wounded_reader_wounds_no_one_on_its_next_read() {
        // T1 r(2) w(0,1), T2 r(0) r(1), T3 w(1,5), in the op-level order
        // 0 1 2 0 1 2 0 1 1. T1's write wounds the reader T2. Were T2's
        // next read to skip the pre-read check, the already wounded T2
        // would still acquire r1 and wound T3's write lock, and T3's commit
        // would fail (`… inv2(r1,read), A2, tryC3, A3 …`).
        let stm = TplStm::new(3);
        let mut t1 = stm.begin(0);
        let mut t2 = stm.begin(1);
        let mut t3 = stm.begin(2);
        t1.read(2).unwrap();
        t2.read(0).unwrap();
        t3.write(1, 5).unwrap();
        t1.write(0, 1).unwrap();
        assert_eq!(t2.read(1), Err(Aborted));
        assert_eq!(t3.commit(), Ok(()), "a doomed reader wounded T3");
        assert_eq!(t1.commit(), Ok(()));
    }

    #[test]
    fn read_write_commit_roundtrip() {
        let stm = TplStm::new(2);
        let mut tx = stm.begin(0);
        tx.write(0, 9).unwrap();
        assert_eq!(tx.read(0).unwrap(), 9);
        tx.commit().unwrap();
        let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
        assert_eq!(v, 9);
    }

    #[test]
    fn aborted_writer_pre_image_restored() {
        let stm = TplStm::new(1);
        run_tx(&stm, 0, |tx| tx.write(0, 5));
        let mut tx = stm.begin(0);
        tx.write(0, 99).unwrap();
        tx.abort();
        let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
        assert_eq!(v, 5, "in-place write must be rolled back");
    }

    #[test]
    fn older_writer_wounds_younger_reader() {
        let stm = TplStm::new(1);
        let mut old = stm.begin(0); // smaller id = older
        let mut young = stm.begin(1);
        assert_eq!(young.read(0).unwrap(), 0); // young read-locks r0
        old.write(0, 3).unwrap(); // old displaces it
                                  // The young transaction discovers the wound at its next action.
        assert_eq!(young.read(0), Err(Aborted));
        old.commit().unwrap();
    }

    #[test]
    fn younger_dies_on_older_lock() {
        let stm = TplStm::new(1);
        let mut old = stm.begin(0);
        old.write(0, 1).unwrap();
        let mut young = stm.begin(1);
        assert_eq!(young.read(0), Err(Aborted), "younger must die, not wait");
        old.commit().unwrap();
        let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
        assert_eq!(v, 1);
    }

    #[test]
    fn wounded_writer_cleaned_by_wounder() {
        let stm = TplStm::new(1);
        run_tx(&stm, 0, |tx| tx.write(0, 7));
        let mut old = stm.begin(0);
        let mut young = stm.begin(1);
        // Make `old` older than `young`… begin order already guarantees it.
        young.write(0, 99).unwrap();
        // Old reader wounds the younger writer and must see the PRE-image.
        assert_eq!(old.read(0).unwrap(), 7, "wounder repairs the cell");
        old.commit().unwrap();
        assert_eq!(young.commit(), Err(Aborted));
    }

    #[test]
    fn shared_read_locks_coexist() {
        let stm = TplStm::new(1);
        let mut a = stm.begin(0);
        let mut b = stm.begin(1);
        assert_eq!(a.read(0).unwrap(), 0);
        assert_eq!(b.read(0).unwrap(), 0);
        a.commit().unwrap();
        b.commit().unwrap();
    }

    #[test]
    fn blind_writers_serialize_not_interleave() {
        // §3.6: under rigorous scheduling, concurrent blind writers cannot
        // both hold locks — the younger dies or is wounded.
        let stm = TplStm::new(2);
        let mut old = stm.begin(0);
        let mut young = stm.begin(1);
        old.write(0, 1).unwrap();
        assert_eq!(young.write(0, 2), Err(Aborted));
        old.write(1, 1).unwrap();
        old.commit().unwrap();
        // A retry (fresh, now-unconflicted transaction) succeeds.
        run_tx(&stm, 1, |tx| {
            tx.write(0, 2)?;
            tx.write(1, 2)
        });
        let ((x, y), _) = run_tx(&stm, 0, |tx| Ok((tx.read(0)?, tx.read(1)?)));
        assert_eq!((x, y), (2, 2));
    }

    #[test]
    fn reads_cost_constant_steps_in_k() {
        for k in [4usize, 64, 512] {
            let stm = TplStm::new(k);
            let mut tx = stm.begin(0);
            for i in 0..k {
                tx.read(i).unwrap();
            }
            let max = tx.steps().max_of(OpKind::Read);
            assert!(max <= 4, "k={k}: read cost must be O(1), got {max}");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn oldest_transaction_always_wins() {
        // Progress: whatever the interleaving of operations, the oldest
        // live transaction is never aborted.
        let stm = TplStm::new(2);
        let mut old = stm.begin(0);
        for round in 0..5 {
            let mut young = stm.begin(1);
            let _ = young.write(round % 2, 10 + round as i64);
            old.write(round % 2, round as i64).unwrap();
            let _ = young.commit(); // may fail; old must be unaffected
        }
        old.commit().unwrap();
    }

    #[test]
    fn recorded_history_well_formed_and_statuses_match() {
        let stm = TplStm::new(2);
        run_tx(&stm, 0, |tx| tx.write(0, 1));
        let mut t = stm.begin(0);
        let _ = t.read(0).unwrap();
        t.abort();
        let h = stm.recorder().history();
        assert!(tm_model::is_well_formed(&h), "{h}");
        assert_eq!(h.committed_txs().len(), 1);
    }
}
