//! A multi-version TM (JVSTM / LSA-STM style).
//!
//! The design point that escapes Theorem 3 by keeping *old committed
//! versions*: a transaction reads the committed snapshot at its start
//! timestamp, so a read can never observe an inconsistent state and
//! read-only transactions never abort — even when concurrent writers
//! overwrite everything (footnote 2 of the paper: complexity "can be
//! bounded by a function independent of k", here the per-object version
//! count).
//!
//! Update transactions validate their read set once at commit under a
//! global commit lock (first-committer-wins) and install new versions at a
//! fresh timestamp.

use std::sync::Mutex;

use crate::api::{Aborted, StmProperties, TxResult};
use crate::base::Meter;
use crate::clock::GlobalClock;
use crate::config::StmConfig;
use crate::lock;
use crate::trace_cells::{AccessKind, CellId};
use crate::txn::{Design, Protocol, Tm};
use tm_model::TxId;

/// The committed versions of `k` registers, the clock that stamps them and
/// the global commit lock: the base objects of both multi-version TMs
/// ([`MvStm`] and [`crate::sistm::SiStm`]).
#[derive(Debug)]
pub(crate) struct VersionStore {
    /// Per register: committed versions `(timestamp, value)`, ascending by
    /// timestamp. Timestamp 0 is the initial value.
    objs: Vec<Mutex<Vec<(u64, i64)>>>,
    clock: Box<dyn GlobalClock>,
    commit_lock: Mutex<()>,
}

impl VersionStore {
    pub(crate) fn new(cfg: &StmConfig) -> Self {
        VersionStore {
            objs: (0..cfg.k()).map(|_| Mutex::new(vec![(0, 0)])).collect(),
            clock: cfg.build_clock(),
            commit_lock: Mutex::new(()),
        }
    }

    pub(crate) fn k(&self) -> usize {
        self.objs.len()
    }

    /// The snapshot timestamp a beginning transaction reads at.
    pub(crate) fn start_ts(&self) -> u64 {
        self.clock.peek()
    }

    /// The value of `obj` in the committed snapshot at `ts` (binary search;
    /// each probe is one step).
    pub(crate) fn value_at(&self, obj: usize, ts: u64, m: &mut Meter) -> i64 {
        m.touch(CellId::Record(obj as u32), AccessKind::Read); // version-list access
        let versions = lock(&self.objs[obj]);
        // Binary search for the latest version with timestamp <= ts.
        let mut lo = 0usize;
        let mut hi = versions.len();
        while hi - lo > 1 {
            m.step();
            let mid = (lo + hi) / 2;
            if versions[mid].0 <= ts {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        versions[lo].1
    }

    /// The newest committed timestamp of `obj`.
    fn latest_ts(&self, obj: usize, m: &mut Meter) -> u64 {
        m.touch(CellId::Record(obj as u32), AccessKind::Read);
        let versions = lock(&self.objs[obj]);
        versions.last().expect("version list never empty").0
    }

    /// First-committer-wins commit of `writes` by a transaction that began
    /// at `start_ts`: under the commit lock, aborts if any object in
    /// `checked` has a version newer than `start_ts`, otherwise installs
    /// `writes` at a fresh timestamp.
    pub(crate) fn commit(
        &self,
        m: &mut Meter,
        start_ts: u64,
        mut checked: impl Iterator<Item = usize>,
        writes: &[(usize, i64)],
    ) -> TxResult<()> {
        m.acquire(CellId::CommitLock);
        let guard = lock(&self.commit_lock);
        let valid = checked.all(|obj| self.latest_ts(obj, m) <= start_ts);
        if valid {
            // Publish-last ordering (regression: found by the
            // invariant-checked throughput bench): versions must be
            // installed BEFORE the clock advance makes the new timestamp
            // observable, otherwise a transaction beginning between advance
            // and append adopts a snapshot timestamp whose versions are not
            // yet visible, reads stale data, and still passes
            // first-committer-wins validation — a lost update. The clock's
            // reserve/publish pair expresses exactly this: `reserve` hands
            // out the timestamp without surfacing it, `publish` surfaces it
            // after the appends. We hold the commit lock, satisfying the
            // pair's mutual-exclusion contract.
            let wv = self.clock.reserve(m);
            for &(obj, v) in writes {
                m.touch(CellId::Record(obj as u32), AccessKind::Write);
                lock(&self.objs[obj]).push((wv, v));
            }
            self.clock.publish(wv, m);
        }
        drop(guard);
        m.release(CellId::CommitLock);
        if valid {
            Ok(())
        } else {
            Err(Aborted)
        }
    }
}

/// The multi-version TM over `k` registers, initialized to 0.
pub type MvStm = Tm<Mv>;

/// The multi-version TM's base objects.
#[derive(Debug)]
pub struct Mv(VersionStore);

mod state {
    /// A live multi-version transaction's protocol state.
    pub struct MvTx<'a> {
        pub(super) store: &'a super::VersionStore,
        /// Snapshot timestamp sampled at begin.
        pub(super) start_ts: u64,
        /// Read set (object indices) — needed only for update-commit
        /// validation.
        pub(super) reads: Vec<usize>,
        /// Redo log.
        pub(super) writes: Vec<(usize, i64)>,
    }
}

use state::MvTx;

impl Design for Mv {
    const NAME: &'static str = "mvstm";
    const PROPERTIES: StmProperties = StmProperties {
        progressive: false, // first-committer-wins can abort after the
        // conflicting peer already committed
        single_version: false,
        invisible_reads: true,
        opaque_by_design: true,
        serializable_by_design: true,
    };
    type Args = ();
    type Tx<'a> = MvTx<'a>;

    fn build(cfg: &StmConfig, (): ()) -> Self {
        Mv(VersionStore::new(cfg))
    }

    fn k(&self) -> usize {
        self.0.k()
    }

    fn begin(&self, _: TxId) -> MvTx<'_> {
        MvTx {
            store: &self.0,
            start_ts: self.0.start_ts(),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }
}

impl Protocol for MvTx<'_> {
    fn read(&mut self, m: &mut Meter, obj: usize) -> TxResult<i64> {
        // Read-own-write first.
        if let Some(&(_, v)) = self.writes.iter().find(|(o, _)| *o == obj) {
            return Ok(v);
        }
        // Snapshot read: never fails, never validates the read set.
        let v = self.store.value_at(obj, self.start_ts, m);
        if !self.reads.contains(&obj) {
            self.reads.push(obj);
        }
        Ok(v)
    }

    fn write(&mut self, _m: &mut Meter, obj: usize, v: i64) -> TxResult<()> {
        match self.writes.iter_mut().find(|(o, _)| *o == obj) {
            Some(slot) => slot.1 = v,
            None => self.writes.push((obj, v)),
        }
        Ok(())
    }

    fn commit(&mut self, m: &mut Meter) -> TxResult<()> {
        if self.writes.is_empty() {
            // Read-only transactions commit unconditionally: their snapshot
            // at start_ts is a legal serialization point.
            return Ok(());
        }
        // Validation: nothing we read or write was committed past start_ts.
        let written = self.writes.iter().map(|&(obj, _)| obj);
        let checked = self.reads.iter().copied().chain(written);
        self.store.commit(m, self.start_ts, checked, &self.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Stm};
    use crate::base::OpKind;

    #[test]
    fn roundtrip() {
        let stm = MvStm::new(2);
        let mut tx = stm.begin(0);
        tx.write(0, 3).unwrap();
        assert_eq!(tx.read(0).unwrap(), 3);
        tx.commit().unwrap();
        let mut tx = stm.begin(0);
        assert_eq!(tx.read(0).unwrap(), 3);
        tx.commit().unwrap();
    }

    #[test]
    fn reader_keeps_consistent_old_snapshot() {
        // The H4-style multi-version freedom: T1 reads the old snapshot of
        // both registers even though T2 committed new values in between —
        // and still commits (read-only transactions never abort).
        let stm = MvStm::new(2);
        let mut t1 = stm.begin(0);
        assert_eq!(t1.read(0).unwrap(), 0);
        run_tx(&stm, 1, |tx| {
            tx.write(0, 5)?;
            tx.write(1, 5)
        });
        assert_eq!(
            t1.read(1).unwrap(),
            0,
            "snapshot read must see the old value"
        );
        t1.commit().unwrap();
        // A fresh transaction sees the new state.
        let mut t3 = stm.begin(0);
        assert_eq!(t3.read(0).unwrap(), 5);
        t3.commit().unwrap();
    }

    #[test]
    fn update_tx_with_stale_read_aborts() {
        let stm = MvStm::new(2);
        let mut t1 = stm.begin(0);
        assert_eq!(t1.read(0).unwrap(), 0);
        t1.write(1, 7).unwrap();
        run_tx(&stm, 1, |tx| tx.write(0, 9));
        // T1 read r0 before T2's commit: first-committer-wins aborts T1.
        assert_eq!(t1.commit(), Err(Aborted));
    }

    #[test]
    fn write_write_first_committer_wins() {
        let stm = MvStm::new(1);
        let mut t1 = stm.begin(0);
        t1.write(0, 1).unwrap();
        let mut t2 = stm.begin(1);
        t2.write(0, 2).unwrap();
        t2.commit().unwrap();
        assert_eq!(t1.commit(), Err(Aborted));
        let mut t3 = stm.begin(0);
        assert_eq!(t3.read(0).unwrap(), 2);
        t3.commit().unwrap();
    }

    #[test]
    fn read_cost_bounded_by_log_versions_not_k() {
        let k = 128;
        let stm = MvStm::new(k);
        // Create a few versions on r0.
        for v in 1..=8 {
            run_tx(&stm, 0, |tx| tx.write(0, v));
        }
        let mut tx = stm.begin(0);
        for i in 0..k {
            tx.read(i).unwrap();
        }
        let max = tx.steps().max_of(OpKind::Read);
        assert!(max <= 1 + 4, "read cost must be O(log versions): {max}");
        tx.commit().unwrap();
    }

    #[test]
    fn versions_accumulate() {
        let stm = MvStm::new(1);
        for v in 1..=3 {
            run_tx(&stm, 0, |tx| tx.write(0, v));
        }
        let mut m = Meter::new();
        m.begin_op(OpKind::Read);
        assert_eq!(stm.design.0.value_at(0, 0, &mut m), 0);
        assert_eq!(stm.design.0.value_at(0, 1, &mut m), 1);
        assert_eq!(stm.design.0.value_at(0, 2, &mut m), 2);
        assert_eq!(stm.design.0.value_at(0, 999, &mut m), 3);
        m.end_op();
    }

    #[test]
    fn recorded_history_well_formed() {
        let stm = MvStm::new(2);
        run_tx(&stm, 0, |tx| tx.write(0, 1));
        run_tx(&stm, 1, |tx| {
            let v = tx.read(0)?;
            tx.write(1, v + 1)
        });
        let h = stm.recorder().history();
        assert!(tm_model::is_well_formed(&h), "{h}");
    }
}
