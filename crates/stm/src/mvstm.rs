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

use std::sync::{Arc, Mutex};

use crate::api::{Aborted, Stm, StmProperties, Tx, TxResult};
use crate::base::{Meter, OpKind, StepReport};
use crate::clock::GlobalClock;
use crate::config::StmConfig;
use crate::lock;
use crate::recorder::Recorder;
use crate::trace_cells::{AccessKind, CellId, StepProbe};
use tm_model::TxId;

#[derive(Debug)]
struct MvObj {
    /// Committed versions `(timestamp, value)`, ascending by timestamp.
    /// Timestamp 0 is the initial value.
    versions: Mutex<Vec<(u64, i64)>>,
}

/// The multi-version TM over `k` registers.
#[derive(Debug)]
pub struct MvStm {
    objs: Vec<MvObj>,
    clock: Box<dyn GlobalClock>,
    commit_lock: Mutex<()>,
    recorder: Recorder,
    probe: Option<Arc<dyn StepProbe>>,
}

impl MvStm {
    /// A multi-version TM with `k` registers initialized to 0 (default
    /// configuration).
    pub fn new(k: usize) -> Self {
        Self::with_config(&StmConfig::new(k))
    }

    /// A multi-version TM built from an explicit configuration.
    pub fn with_config(cfg: &StmConfig) -> Self {
        MvStm {
            objs: (0..cfg.k())
                .map(|_| MvObj {
                    versions: Mutex::new(vec![(0, 0)]),
                })
                .collect(),
            clock: cfg.build_clock(),
            commit_lock: Mutex::new(()),
            recorder: cfg.build_recorder(),
            probe: cfg.step_probe(),
        }
    }

    /// The value of `obj` in the committed snapshot at `ts` (binary search;
    /// each probe is one step).
    fn value_at(&self, obj: usize, ts: u64, m: &mut Meter) -> i64 {
        m.touch(CellId::Record(obj as u32), AccessKind::Read); // version-list access
        let versions = lock(&self.objs[obj].versions);
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
        let versions = lock(&self.objs[obj].versions);
        versions.last().expect("version list never empty").0
    }
}

/// A live multi-version transaction.
pub struct MvTx<'a> {
    stm: &'a MvStm,
    id: TxId,
    /// Snapshot timestamp sampled at begin.
    start_ts: u64,
    /// Read set (object indices) — needed only for update-commit validation.
    reads: Vec<usize>,
    /// Redo log.
    writes: Vec<(usize, i64)>,
    meter: Meter,
    finished: bool,
}

impl Stm for MvStm {
    fn name(&self) -> &'static str {
        "mvstm"
    }

    fn k(&self) -> usize {
        self.objs.len()
    }

    fn begin(&self, thread: usize) -> Box<dyn Tx + '_> {
        let id = self.recorder.fresh_tx();
        let start_ts = self.clock.peek();
        Box::new(MvTx {
            stm: self,
            id,
            start_ts,
            reads: Vec::new(),
            writes: Vec::new(),
            meter: Meter::with_probe(thread, self.probe.clone()),
            finished: false,
        })
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn properties(&self) -> StmProperties {
        StmProperties {
            progressive: false, // first-committer-wins can abort after the
            // conflicting peer already committed
            single_version: false,
            invisible_reads: true,
            opaque_by_design: true,
            serializable_by_design: true,
        }
    }
}

impl Tx for MvTx<'_> {
    fn read(&mut self, obj: usize) -> TxResult<i64> {
        self.stm.recorder.inv_read(self.id, obj);
        self.meter.begin_op(OpKind::Read);
        // Read-own-write first.
        if let Some(&(_, v)) = self.writes.iter().find(|(o, _)| *o == obj) {
            self.meter.end_op();
            self.stm.recorder.ret_read(self.id, obj, v);
            return Ok(v);
        }
        // Snapshot read: never fails, never validates the read set.
        let v = self.stm.value_at(obj, self.start_ts, &mut self.meter);
        if !self.reads.contains(&obj) {
            self.reads.push(obj);
        }
        self.meter.end_op();
        self.stm.recorder.ret_read(self.id, obj, v);
        Ok(v)
    }

    fn write(&mut self, obj: usize, v: i64) -> TxResult<()> {
        self.stm.recorder.inv_write(self.id, obj, v);
        self.meter.begin_op(OpKind::Write);
        match self.writes.iter_mut().find(|(o, _)| *o == obj) {
            Some(slot) => slot.1 = v,
            None => self.writes.push((obj, v)),
        }
        self.meter.end_op();
        self.stm.recorder.ret_write(self.id, obj);
        Ok(())
    }

    fn commit(mut self: Box<Self>) -> TxResult<()> {
        self.stm.recorder.try_commit(self.id);
        self.meter.begin_op(OpKind::Commit);
        if self.writes.is_empty() {
            // Read-only transactions commit unconditionally: their snapshot
            // at start_ts is a legal serialization point.
            self.meter.end_op();
            self.finished = true;
            self.stm.recorder.commit(self.id);
            return Ok(());
        }
        self.meter.acquire(CellId::CommitLock);
        let guard = lock(&self.stm.commit_lock);
        // Validation: nothing we read or write was committed past start_ts.
        let stm = self.stm;
        let valid = self
            .reads
            .iter()
            .chain(self.writes.iter().map(|(o, _)| o))
            .all(|&obj| stm.latest_ts(obj, &mut self.meter) <= self.start_ts);
        if !valid {
            drop(guard);
            self.meter.release(CellId::CommitLock);
            self.meter.end_op();
            self.finished = true;
            self.stm.recorder.abort(self.id);
            return Err(Aborted);
        }
        // Publish-last ordering (regression: found by the invariant-checked
        // throughput bench): versions must be installed BEFORE the clock
        // advance makes the new timestamp observable, otherwise a
        // transaction beginning between advance and append adopts a
        // snapshot timestamp whose versions are not yet visible, reads
        // stale data, and still passes first-committer-wins validation — a
        // lost update. The clock's reserve/publish pair expresses exactly
        // this: `reserve` hands out the timestamp without surfacing it,
        // `publish` surfaces it after the appends. We hold the commit
        // lock, satisfying the pair's mutual-exclusion contract.
        let wv = self.stm.clock.reserve(&mut self.meter);
        for &(obj, v) in &self.writes {
            self.meter
                .touch(CellId::Record(obj as u32), AccessKind::Write);
            lock(&stm.objs[obj].versions).push((wv, v));
        }
        self.stm.clock.publish(wv, &mut self.meter);
        drop(guard);
        self.meter.release(CellId::CommitLock);
        self.meter.end_op();
        self.finished = true;
        self.stm.recorder.commit(self.id);
        Ok(())
    }

    fn abort(mut self: Box<Self>) {
        self.stm.recorder.try_abort(self.id);
        self.finished = true;
        self.stm.recorder.abort(self.id);
    }

    fn steps(&self) -> StepReport {
        self.meter.report()
    }

    fn id(&self) -> u32 {
        self.id.0
    }
}

impl Drop for MvTx<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.stm.recorder.try_abort(self.id);
            self.stm.recorder.abort(self.id);
            self.finished = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::run_tx;

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
        assert_eq!(stm.value_at(0, 0, &mut m), 0);
        assert_eq!(stm.value_at(0, 1, &mut m), 1);
        assert_eq!(stm.value_at(0, 2, &mut m), 2);
        assert_eq!(stm.value_at(0, 999, &mut m), 3);
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
