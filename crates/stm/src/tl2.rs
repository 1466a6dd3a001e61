//! TL2 (Dice, Shalev, Shavit — DISC 2006).
//!
//! The constant-per-operation point of the paper's design space:
//!
//! * **invisible reads** — a read touches only the object's versioned lock
//!   word and value (no base object is written);
//! * **single-version** — each object stores one value and one version;
//! * **O(1) steps per read** — a read checks the object's version against
//!   the transaction's read version `rv` sampled at begin; no read-set
//!   re-validation ever happens during reads;
//! * **not progressive** — a read of an object whose version exceeds `rv`
//!   aborts the transaction even when the conflicting writer committed
//!   before the read was issued (no live conflict). This is exactly why
//!   Theorem 3 does not apply to TL2 (Section 6.2).
//!
//! Opacity holds: every read returns a value consistent with the snapshot at
//! `rv`, and commit-time lock acquisition plus read-set validation
//! serializes updates at their write-version.
//!
//! The protocol mutants ([`crate::mutants`]) plant their bugs here: the
//! read and commit ask the instance's [`Mutation`] which checks to run,
//! and TL2 itself carries [`Mutation::None`], which runs them all.

use std::sync::atomic::{AtomicI64, AtomicU64};

use crate::api::{Aborted, StmProperties, TxResult};
use crate::base::Meter;
use crate::clock::GlobalClock;
use crate::config::StmConfig;
use crate::mutants::Mutation;
use crate::trace_cells::CellId;
use crate::txn::{Design, Protocol, Tm};
use tm_model::TxId;

/// Versioned write-lock encoding: `version << 1 | locked`.
#[inline]
pub(crate) fn version_of(word: u64) -> u64 {
    word >> 1
}

#[inline]
pub(crate) fn is_locked(word: u64) -> bool {
    word & 1 == 1
}

#[inline]
pub(crate) fn locked(word: u64) -> u64 {
    word | 1
}

#[inline]
pub(crate) fn unlocked_at(version: u64) -> u64 {
    version << 1
}

/// One register: a versioned write lock and the value it guards.
#[derive(Debug, Default)]
pub(crate) struct Tl2Obj {
    /// `version << 1 | locked`.
    pub(crate) lock: AtomicU64,
    pub(crate) value: AtomicI64,
}

/// Releases commit-time locks `held` (restoring their pre-lock words).
pub(crate) fn release_locks(objs: &[Tl2Obj], held: &[(usize, u64)], m: &mut Meter) {
    for &(obj, old_word) in held {
        m.store_u64(CellId::Lock(obj as u32), &objs[obj].lock, old_word);
    }
}

/// The TL2 TM over `k` registers, initialized to 0 at version 0.
pub type Tl2Stm = Tm<Tl2>;

/// TL2's base objects: one versioned lock word and value per register, and
/// the GV1 clock.
#[derive(Debug)]
pub struct Tl2 {
    objs: Vec<Tl2Obj>,
    clock: Box<dyn GlobalClock>,
    /// The planted bug: [`Mutation::None`] unless built as a mutant.
    pub(crate) mutation: Mutation,
}

impl Tl2 {
    /// TL2's registers over `clock`, with `mutation` planted.
    pub(crate) fn planted(
        cfg: &StmConfig,
        clock: Box<dyn GlobalClock>,
        mutation: Mutation,
    ) -> Self {
        Tl2 {
            objs: (0..cfg.k()).map(|_| Tl2Obj::default()).collect(),
            clock,
            mutation,
        }
    }
}

mod state {
    /// A live TL2 transaction's protocol state.
    pub struct Tl2Tx<'a> {
        pub(super) stm: &'a super::Tl2,
        /// Read version: clock sample at begin.
        pub(super) rv: u64,
        /// Read set: object indices (versions are re-checked against `rv`).
        pub(super) reads: Vec<usize>,
        /// Redo log, ordered by object index for deadlock-free locking.
        pub(super) writes: Vec<(usize, i64)>,
    }
}

pub(crate) use state::Tl2Tx;

impl Design for Tl2 {
    const NAME: &'static str = "tl2";
    const PROPERTIES: StmProperties = StmProperties {
        progressive: false, // the rv check aborts without live conflicts
        single_version: true,
        invisible_reads: true,
        opaque_by_design: true,
        serializable_by_design: true,
    };
    type Args = ();
    type Tx<'a> = Tl2Tx<'a>;

    fn build(cfg: &StmConfig, (): ()) -> Self {
        Tl2::planted(cfg, cfg.build_clock(), Mutation::None)
    }

    fn k(&self) -> usize {
        self.objs.len()
    }

    fn begin(&self, _: TxId) -> Tl2Tx<'_> {
        Tl2Tx {
            stm: self,
            // Sampling the clock at begin is TL2's only begin-time work (O(1)).
            rv: self.clock.peek(),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }
}

impl Tl2Tx<'_> {
    /// Is a lock word unlocked and not newer than `rv`?
    fn current(&self, word: u64) -> bool {
        !is_locked(word) && version_of(word) <= self.rv
    }
}

impl Protocol for Tl2Tx<'_> {
    fn read(&mut self, m: &mut Meter, obj: usize) -> TxResult<i64> {
        // Read-own-write from the redo log (no base-object access).
        if let Some(&(_, v)) = self.writes.iter().find(|(o, _)| *o == obj) {
            return Ok(v);
        }
        let o = &self.stm.objs[obj];
        let pre = m.load_u64(CellId::Lock(obj as u32), &o.lock);
        let v = m.load_i64(CellId::Value(obj as u32), &o.value);
        let post = m.load_u64(CellId::Lock(obj as u32), &o.lock);
        // TL2 read validation: stable, unlocked, and not newer than rv.
        if self.stm.mutation.validates_reads() && (pre != post || !self.current(pre)) {
            return Err(Aborted);
        }
        self.reads.push(obj);
        Ok(v)
    }

    fn write(&mut self, _m: &mut Meter, obj: usize, v: i64) -> TxResult<()> {
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
        let mutation = self.stm.mutation;
        let objs = &self.stm.objs;
        if self.writes.is_empty() {
            // Read-only fast path: all reads validated against rv already,
            // unless the reads skipped their check and commit still owes it.
            if !mutation.validates_reads() {
                for &obj in &self.reads {
                    if !self.current(m.load_u64(CellId::Lock(obj as u32), &objs[obj].lock)) {
                        return Err(Aborted);
                    }
                }
            }
            return Ok(());
        }
        // Phase 1: lock the write set in index order.
        let mut held: Vec<(usize, u64)> = Vec::with_capacity(self.writes.len());
        for &(obj, _) in &self.writes {
            let lock = &objs[obj].lock;
            let word = m.load_u64(CellId::Lock(obj as u32), lock);
            if is_locked(word)
                || (mutation.validates_commit() && version_of(word) > self.rv)
                || !m.cas_u64(CellId::Lock(obj as u32), lock, word, locked(word))
            {
                release_locks(objs, &held, m);
                return Err(Aborted);
            }
            held.push((obj, word));
        }
        // Phase 2: increment the global clock.
        let wv = self.stm.clock.tick(m);
        // Phase 3: validate the read set, unless the fast path applies. On
        // GV1 that is `wv == rv + 1`: the counter advances only by
        // `fetch_add`, so our own tick was the only advance since begin and
        // no transaction committed in between.
        if mutation.validates_commit() && !mutation.fast_path(self.rv, wv) {
            for &obj in &self.reads {
                if held.iter().any(|&(held_obj, _)| held_obj == obj) {
                    continue; // we hold it; version checked at lock time
                }
                let word = m.load_u64(CellId::Lock(obj as u32), &objs[obj].lock);
                if !self.current(word) {
                    release_locks(objs, &held, m);
                    return Err(Aborted);
                }
            }
        }
        // Phase 4: publish values and release locks at version wv.
        for &(obj, v) in &self.writes {
            let o = &objs[obj];
            m.store_i64(CellId::Value(obj as u32), &o.value, v);
            m.store_u64(CellId::Lock(obj as u32), &o.lock, unlocked_at(wv));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Stm};
    use crate::base::OpKind;
    use crate::trace_cells::{AccessEvent, AccessKind, AccessLog, TraceEvent};
    use crate::MutantStm;

    #[test]
    fn read_write_commit_roundtrip() {
        let stm = Tl2Stm::new(4);
        let mut tx = stm.begin(0);
        tx.write(1, 11).unwrap();
        assert_eq!(tx.read(1).unwrap(), 11); // read-own-write
        tx.commit().unwrap();
        let mut tx = stm.begin(0);
        assert_eq!(tx.read(1).unwrap(), 11);
        tx.commit().unwrap();
    }

    #[test]
    fn stale_read_version_aborts() {
        // T1 samples rv, T2 commits a write, T1 then reads the written
        // object: version > rv => abort (TL2's non-progressive behaviour).
        let stm = Tl2Stm::new(2);
        let mut t1 = stm.begin(0);
        assert_eq!(t1.read(0).unwrap(), 0);
        let mut t2 = stm.begin(1);
        t2.write(1, 5).unwrap();
        t2.commit().unwrap();
        assert_eq!(t1.read(1), Err(Aborted));
    }

    #[test]
    fn fresh_transaction_sees_committed_values() {
        let stm = Tl2Stm::new(2);
        let mut t2 = stm.begin(1);
        t2.write(1, 5).unwrap();
        t2.commit().unwrap();
        let mut t3 = stm.begin(0);
        assert_eq!(t3.read(1).unwrap(), 5);
        t3.commit().unwrap();
    }

    #[test]
    fn write_write_conflict_aborts_second_committer() {
        let stm = Tl2Stm::new(1);
        let mut t1 = stm.begin(0);
        let mut t2 = stm.begin(1);
        t1.read(0).unwrap();
        t2.read(0).unwrap();
        t1.write(0, 1).unwrap();
        t2.write(0, 2).unwrap();
        t1.commit().unwrap();
        assert_eq!(t2.commit(), Err(Aborted));
    }

    #[test]
    fn reads_cost_constant_steps() {
        let stm = Tl2Stm::new(256);
        let mut tx = stm.begin(0);
        for i in 0..256 {
            tx.read(i).unwrap();
        }
        let r = tx.steps();
        // 3 base accesses per read (lock, value, lock), independent of k.
        assert_eq!(r.max_of(OpKind::Read), 3);
        tx.commit().unwrap();
    }

    #[test]
    fn recorded_history_well_formed_and_complete() {
        let stm = Tl2Stm::new(3);
        run_tx(&stm, 0, |tx| {
            tx.write(0, 1)?;
            tx.write(2, 3)
        });
        run_tx(&stm, 0, |tx| {
            let a = tx.read(0)?;
            tx.write(1, a + 1)
        });
        let h = stm.recorder().history();
        assert!(tm_model::is_well_formed(&h), "{h}");
        assert!(h.is_complete());
        assert_eq!(h.committed_txs().len(), 2);
    }

    #[test]
    fn voluntary_abort_discards_writes() {
        let stm = Tl2Stm::new(1);
        let mut tx = stm.begin(0);
        tx.write(0, 99).unwrap();
        tx.abort();
        let mut tx = stm.begin(0);
        assert_eq!(tx.read(0).unwrap(), 0);
        tx.commit().unwrap();
    }

    #[test]
    fn read_only_commit_is_free() {
        // The steps of a read-only commit after 8 reads: none on TL2, whose
        // reads validated themselves; one lock load per read on the mutant
        // whose reads skipped the check that commit then owes.
        let commit_steps = |build: &dyn Fn(&StmConfig) -> Box<dyn Stm>| {
            let log = AccessLog::shared();
            let stm = build(&StmConfig::new(8).probe(log.clone()));
            let mut tx = stm.begin(0);
            for i in 0..8 {
                tx.read(i).unwrap();
            }
            log.take();
            tx.commit().unwrap();
            log.take()
        };
        assert_eq!(
            commit_steps(&|cfg| Box::new(Tl2Stm::with_config(cfg))),
            vec![]
        );
        let owed: Vec<TraceEvent> = (0..8)
            .map(|i| {
                TraceEvent::Access(AccessEvent {
                    thread: 0,
                    cell: CellId::Lock(i),
                    kind: AccessKind::Read,
                })
            })
            .collect();
        let skipping = |cfg: &StmConfig| {
            Box::new(MutantStm::with_config(cfg, Mutation::SkipReadValidation)) as Box<dyn Stm>
        };
        assert_eq!(commit_steps(&skipping), owed);
    }
}
