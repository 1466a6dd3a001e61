//! The commit-time-validation TM: **deliberately not opaque**.
//!
//! This is the Section 6 counterexample made concrete: an algorithm that is
//! progressive, single-version, and invisible-read — the exact hypotheses of
//! Theorem 3 — yet achieves O(1) steps per operation, which is possible
//! only because it guarantees merely *global atomicity (strict
//! serializability) with ACA-style recoverability* instead of opacity:
//!
//! * a read returns the object's latest committed value with no
//!   cross-object validation whatsoever, so a live transaction can observe
//!   an inconsistent (mixed-snapshot) state;
//! * commit locks the write set, validates the read set *once*, and
//!   publishes — committed transactions are perfectly serializable.
//!
//! The recorded histories of this TM are what the `tm-opacity` checker is
//! for: under the right interleaving they satisfy every Section 3 criterion
//! and still fail Definition 1 (experiments E11/E12, the inconsistent-view
//! example of Section 2).

use crate::api::{Aborted, StmProperties, TxResult};
use crate::base::Meter;
use crate::config::StmConfig;
use crate::tl2::{is_locked, locked, release_locks, unlocked_at, version_of, Tl2Obj};
use crate::trace_cells::CellId;
use crate::txn::{Design, Protocol, Tm};
use tm_model::TxId;

/// The commit-time-validation (non-opaque) TM over `k` registers,
/// initialized to 0.
pub type NonOpaqueStm = Tm<NonOpaque>;

/// The non-opaque TM's base objects: TL2's versioned lock words, with
/// per-object version counters (no global clock).
#[derive(Debug)]
pub struct NonOpaque {
    objs: Vec<Tl2Obj>,
}

mod state {
    /// A live non-opaque transaction's protocol state.
    pub struct NonOpaqueTx<'a> {
        pub(super) stm: &'a super::NonOpaque,
        /// Read set: (object, version observed) — used only at commit.
        pub(super) reads: Vec<(usize, u64)>,
        /// Redo log, kept sorted by object for deadlock-free commit
        /// locking.
        pub(super) writes: Vec<(usize, i64)>,
    }
}

use state::NonOpaqueTx;

impl Design for NonOpaque {
    const NAME: &'static str = "nonopaque";
    const PROPERTIES: StmProperties = StmProperties {
        progressive: true,
        single_version: true,
        invisible_reads: true,
        opaque_by_design: false,
        serializable_by_design: true,
    };
    type Args = ();
    type Tx<'a> = NonOpaqueTx<'a>;

    fn build(cfg: &StmConfig, (): ()) -> Self {
        NonOpaque {
            objs: (0..cfg.k()).map(|_| Tl2Obj::default()).collect(),
        }
    }

    fn k(&self) -> usize {
        self.objs.len()
    }

    fn begin(&self, _: TxId) -> NonOpaqueTx<'_> {
        NonOpaqueTx {
            stm: self,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }
}

impl Protocol for NonOpaqueTx<'_> {
    fn read(&mut self, m: &mut Meter, obj: usize) -> TxResult<i64> {
        if let Some(&(_, v)) = self.writes.iter().find(|(o, _)| *o == obj) {
            return Ok(v);
        }
        let o = &self.stm.objs[obj];
        // Per-object atomic snapshot (no cross-object validation!).
        let pre = m.load_u64(CellId::Lock(obj as u32), &o.lock);
        let v = m.load_i64(CellId::Value(obj as u32), &o.value);
        let post = m.load_u64(CellId::Lock(obj as u32), &o.lock);
        if pre != post || is_locked(pre) {
            // The object is mid-commit by a live conflicting writer: abort
            // (still progressive — the writer is live and conflicting).
            return Err(Aborted);
        }
        self.reads.push((obj, version_of(pre)));
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
        let objs = &self.stm.objs;
        // Lock write set (index order), validate reads once, publish.
        let mut held: Vec<(usize, u64)> = Vec::with_capacity(self.writes.len());
        for &(obj, _) in &self.writes {
            let lock = &objs[obj].lock;
            let word = m.load_u64(CellId::Lock(obj as u32), lock);
            if is_locked(word) || !m.cas_u64(CellId::Lock(obj as u32), lock, word, locked(word)) {
                release_locks(objs, &held, m);
                return Err(Aborted);
            }
            held.push((obj, word));
        }
        for &(obj, seen_ver) in &self.reads {
            // For objects we hold, validate against the pre-lock word (the
            // lock phase itself checks nothing — unlike TL2's rv check).
            let word = match held.iter().find(|&&(o, _)| o == obj) {
                Some(&(_, old_word)) => old_word,
                None => m.load_u64(CellId::Lock(obj as u32), &objs[obj].lock),
            };
            if is_locked(word) || version_of(word) != seen_ver {
                release_locks(objs, &held, m);
                return Err(Aborted);
            }
        }
        for (&(obj, v), &(_, old_word)) in self.writes.iter().zip(&held) {
            let o = &objs[obj];
            m.store_i64(CellId::Value(obj as u32), &o.value, v);
            // Publish: bump the version, clear the lock bit.
            m.store_u64(
                CellId::Lock(obj as u32),
                &o.lock,
                unlocked_at(version_of(old_word) + 1),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Stm};
    use crate::base::OpKind;

    #[test]
    fn roundtrip() {
        let stm = NonOpaqueStm::new(2);
        run_tx(&stm, 0, |tx| tx.write(0, 5));
        let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
        assert_eq!(v, 5);
    }

    #[test]
    fn live_tx_observes_inconsistent_snapshot() {
        // The Section 2 hazard: the invariant is r1 == r0 (both written
        // together). T1 reads r0 before T2's commit and r1 after it:
        // a mixed snapshot no opaque TM would return.
        let stm = NonOpaqueStm::new(2);
        run_tx(&stm, 0, |tx| {
            tx.write(0, 4)?;
            tx.write(1, 4)
        });
        let mut t1 = stm.begin(0);
        let a = t1.read(0).unwrap(); // 4
        run_tx(&stm, 1, |tx| {
            tx.write(0, 2)?;
            tx.write(1, 2)
        });
        let b = t1.read(1).unwrap(); // 2 — inconsistent with a == 4!
        assert_eq!((a, b), (4, 2));
        // Commit-time validation catches it: T1 cannot commit…
        assert_eq!(t1.commit(), Err(Aborted));
        // …but the damage (an inconsistent view in live code) already
        // happened; the recorded history is not opaque.
        let h = stm.recorder().history();
        assert!(tm_model::is_well_formed(&h), "{h}");
    }

    #[test]
    fn committed_transactions_stay_serializable() {
        let stm = NonOpaqueStm::new(2);
        run_tx(&stm, 0, |tx| {
            tx.write(0, 1)?;
            tx.write(1, 1)
        });
        let mut t1 = stm.begin(0);
        t1.read(0).unwrap();
        run_tx(&stm, 1, |tx| tx.write(0, 9));
        // T1's read set is stale: commit validation rejects it.
        t1.write(1, 100).unwrap();
        assert_eq!(t1.commit(), Err(Aborted));
        // The committed state is the serial outcome of the two committers.
        let (v0, _) = run_tx(&stm, 0, |tx| tx.read(0));
        let (v1, _) = run_tx(&stm, 0, |tx| tx.read(1));
        assert_eq!((v0, v1), (9, 1));
    }

    #[test]
    fn reads_cost_constant_steps() {
        let k = 256;
        let stm = NonOpaqueStm::new(k);
        let mut tx = stm.begin(0);
        for i in 0..k {
            tx.read(i).unwrap();
        }
        assert_eq!(tx.steps().max_of(OpKind::Read), 3);
        tx.commit().unwrap();
    }

    #[test]
    fn recorded_history_well_formed() {
        let stm = NonOpaqueStm::new(2);
        run_tx(&stm, 0, |tx| tx.write(0, 1));
        run_tx(&stm, 0, |tx| tx.read(1));
        let h = stm.recorder().history();
        assert!(tm_model::is_well_formed(&h), "{h}");
    }

    #[test]
    fn stale_read_of_own_write_target_fails_commit() {
        // Regression (found by the serializability stress harness): a read
        // of an object that is *also in the write set* must still be
        // validated at commit — the lock phase checks nothing here, unlike
        // TL2. T2 reads r0 before T1 commits r0, then overwrites r0: its
        // commit must fail.
        let stm = NonOpaqueStm::new(2);
        let mut t2 = stm.begin(1);
        assert_eq!(t2.read(0).unwrap(), 0);
        let mut t1 = stm.begin(0);
        t1.write(0, 200).unwrap();
        t1.commit().unwrap();
        t2.write(1, 101).unwrap();
        t2.write(0, 102).unwrap();
        assert_eq!(t2.commit(), Err(Aborted));
    }
}
