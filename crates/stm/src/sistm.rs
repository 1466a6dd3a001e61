//! A snapshot-isolation TM (SI-STM style) — a *deliberately non-opaque*
//! design point the paper names.
//!
//! Section 1 lists "a version of SI-STM \[26\]" among the implementations that
//! "do not ensure opacity; these, however, explicitly trade safety
//! guarantees, while recognizing the resulting dangers, for improved
//! performance". This module is that trade-off, executable: a multi-version
//! TM whose transactions read the committed snapshot at their begin
//! timestamp (so every *read* is individually consistent — unlike the
//! commit-time-validation TM in [`crate::nonopaque`], no transaction ever
//! observes a fractured state mid-flight) but whose commit validates only
//! the **write set** (first-committer-wins on writes, the classical
//! definition of snapshot isolation [Berenson et al., SIGMOD'95] — the
//! paper's reference \[1\]).
//!
//! The safety gap is *write skew*: two transactions may each read the
//! other's write target from the common snapshot, write disjoint objects,
//! and both commit — producing a committed outcome no sequential execution
//! allows. The recorded histories violate opacity (and even plain
//! serializability of committed transactions), which is why
//! [`StmProperties::opaque_by_design`] and `serializable_by_design` are both
//! `false` here. The separation from [`crate::nonopaque`] is instructive:
//!
//! | TM | live reads consistent? | committed txs serializable? |
//! |----|------------------------|-----------------------------|
//! | `nonopaque` | ✘ (the §2 hazard) | ✔ |
//! | `sistm` | ✔ (snapshot reads) | ✘ (write skew) |
//!
//! Neither is opaque; they fail on *different* conjuncts of Definition 1,
//! which is precisely the paper's argument that opacity is the conjunction
//! users actually need.

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
struct SiObj {
    /// Committed versions `(timestamp, value)`, ascending by timestamp.
    /// Timestamp 0 is the initial value.
    versions: Mutex<Vec<(u64, i64)>>,
}

/// The snapshot-isolation TM over `k` registers.
///
/// ```
/// use tm_stm::{SiStm, Stm, run_tx};
///
/// let stm = SiStm::new(2);
/// // Reads come from the committed snapshot at begin — always consistent.
/// run_tx(&stm, 0, |tx| { tx.write(0, 4)?; tx.write(1, 16) });
/// let mut t = stm.begin(0);
/// assert_eq!(t.read(0).unwrap(), 4);
/// run_tx(&stm, 1, |tx| { tx.write(0, 2)?; tx.write(1, 4) });
/// assert_eq!(t.read(1).unwrap(), 16); // old snapshot, never fractured
/// t.commit().unwrap();
/// assert!(!stm.properties().opaque_by_design); // …but write skew commits
/// ```
#[derive(Debug)]
pub struct SiStm {
    objs: Vec<SiObj>,
    clock: Box<dyn GlobalClock>,
    commit_lock: Mutex<()>,
    recorder: Recorder,
    probe: Option<Arc<dyn StepProbe>>,
}

impl SiStm {
    /// A snapshot-isolation TM with `k` registers initialized to 0
    /// (default configuration).
    pub fn new(k: usize) -> Self {
        Self::with_config(&StmConfig::new(k))
    }

    /// A snapshot-isolation TM built from an explicit configuration.
    pub fn with_config(cfg: &StmConfig) -> Self {
        SiStm {
            objs: (0..cfg.k())
                .map(|_| SiObj {
                    versions: Mutex::new(vec![(0, 0)]),
                })
                .collect(),
            clock: cfg.build_clock(),
            commit_lock: Mutex::new(()),
            recorder: cfg.build_recorder(),
            probe: cfg.step_probe(),
        }
    }

    /// The value of `obj` in the committed snapshot at `ts`.
    fn value_at(&self, obj: usize, ts: u64, m: &mut Meter) -> i64 {
        m.touch(CellId::Record(obj as u32), AccessKind::Read); // version-list access
        let versions = lock(&self.objs[obj].versions);
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

/// A live snapshot-isolation transaction.
pub struct SiTx<'a> {
    stm: &'a SiStm,
    id: TxId,
    /// Snapshot timestamp sampled at begin.
    start_ts: u64,
    /// Redo log. The read set is deliberately *not* tracked: snapshot
    /// isolation never validates reads — that omission is the write-skew
    /// hole.
    writes: Vec<(usize, i64)>,
    meter: Meter,
    finished: bool,
}

impl Stm for SiStm {
    fn name(&self) -> &'static str {
        "sistm"
    }

    fn k(&self) -> usize {
        self.objs.len()
    }

    fn begin(&self, thread: usize) -> Box<dyn Tx + '_> {
        let id = self.recorder.fresh_tx();
        let start_ts = self.clock.peek();
        Box::new(SiTx {
            stm: self,
            id,
            start_ts,
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
            opaque_by_design: false,
            serializable_by_design: false, // write skew
        }
    }
}

impl Tx for SiTx<'_> {
    fn read(&mut self, obj: usize) -> TxResult<i64> {
        self.stm.recorder.inv_read(self.id, obj);
        self.meter.begin_op(OpKind::Read);
        if let Some(&(_, v)) = self.writes.iter().find(|(o, _)| *o == obj) {
            self.meter.end_op();
            self.stm.recorder.ret_read(self.id, obj, v);
            return Ok(v);
        }
        // Snapshot read: never fails, never validates anything.
        let v = self.stm.value_at(obj, self.start_ts, &mut self.meter);
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
            // Read-only transactions commit unconditionally.
            self.meter.end_op();
            self.finished = true;
            self.stm.recorder.commit(self.id);
            return Ok(());
        }
        self.meter.acquire(CellId::CommitLock);
        let guard = lock(&self.stm.commit_lock);
        // First-committer-wins over the WRITE set only (the read set is
        // not consulted — compare MvStm::commit, which also validates
        // reads and is therefore opaque).
        let stm = self.stm;
        let valid = self
            .writes
            .iter()
            .all(|&(obj, _)| stm.latest_ts(obj, &mut self.meter) <= self.start_ts);
        if !valid {
            drop(guard);
            self.meter.release(CellId::CommitLock);
            self.meter.end_op();
            self.finished = true;
            self.stm.recorder.abort(self.id);
            return Err(Aborted);
        }
        // Publish-last ordering, exactly as in MvStm (see the regression
        // note there): reserve the timestamp, install versions, then
        // publish — all under the commit lock, as the clock's
        // reserve/publish contract requires.
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

impl Drop for SiTx<'_> {
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
        let stm = SiStm::new(2);
        let mut tx = stm.begin(0);
        tx.write(0, 3).unwrap();
        assert_eq!(tx.read(0).unwrap(), 3);
        tx.commit().unwrap();
        let mut tx = stm.begin(0);
        assert_eq!(tx.read(0).unwrap(), 3);
        tx.commit().unwrap();
    }

    #[test]
    fn snapshot_reads_are_internally_consistent() {
        // Unlike the commit-time-validation TM, a live SI transaction can
        // never see a fractured two-register invariant: both reads come
        // from the same committed snapshot.
        let stm = SiStm::new(2);
        run_tx(&stm, 0, |tx| {
            tx.write(0, 4)?;
            tx.write(1, 16)
        });
        let mut t1 = stm.begin(0);
        assert_eq!(t1.read(0).unwrap(), 4);
        run_tx(&stm, 1, |tx| {
            tx.write(0, 2)?;
            tx.write(1, 4)
        });
        // The §2 hazard read: under nonopaque this returns 4 (fractured);
        // under SI it returns the old snapshot's 16.
        assert_eq!(t1.read(1).unwrap(), 16, "snapshot must stay consistent");
        t1.commit().unwrap();
    }

    #[test]
    fn write_skew_commits_both() {
        // The canonical SI anomaly: x + y >= 0 as an application invariant,
        // both transactions read (0, 0), each writes one register to -1,
        // write sets are disjoint, both commit — final state (-1, -1)
        // breaks the invariant; no sequential order explains it.
        let stm = SiStm::new(2);
        let mut t1 = stm.begin(0);
        let mut t2 = stm.begin(1);
        assert_eq!(t1.read(0).unwrap(), 0);
        assert_eq!(t1.read(1).unwrap(), 0);
        assert_eq!(t2.read(0).unwrap(), 0);
        assert_eq!(t2.read(1).unwrap(), 0);
        t1.write(0, -1).unwrap();
        t2.write(1, -1).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // a serializable TM would abort this one
        let ((x, y), _) = run_tx(&stm, 0, |tx| Ok((tx.read(0)?, tx.read(1)?)));
        assert_eq!((x, y), (-1, -1), "write skew must materialize");
    }

    #[test]
    fn write_write_conflicts_still_abort() {
        // First-committer-wins on writes: SI is not a free-for-all.
        let stm = SiStm::new(1);
        let mut t1 = stm.begin(0);
        t1.write(0, 1).unwrap();
        let mut t2 = stm.begin(1);
        t2.write(0, 2).unwrap();
        t2.commit().unwrap();
        assert_eq!(t1.commit(), Err(Aborted));
    }

    #[test]
    fn lost_update_prevented() {
        // read-modify-write on one register: the write set covers the read
        // set, so first-committer-wins prevents lost updates even though
        // reads are never validated.
        let stm = SiStm::new(1);
        let mut t1 = stm.begin(0);
        let v1 = t1.read(0).unwrap();
        let mut t2 = stm.begin(1);
        let v2 = t2.read(0).unwrap();
        t1.write(0, v1 + 1).unwrap();
        t2.write(0, v2 + 1).unwrap();
        t1.commit().unwrap();
        assert_eq!(t2.commit(), Err(Aborted), "lost update must be refused");
        let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
        assert_eq!(v, 1);
    }

    #[test]
    fn read_only_tx_never_aborts() {
        let stm = SiStm::new(2);
        let mut t1 = stm.begin(0);
        assert_eq!(t1.read(0).unwrap(), 0);
        for v in 1..=5 {
            run_tx(&stm, 1, |tx| {
                tx.write(0, v)?;
                tx.write(1, v)
            });
        }
        assert_eq!(t1.read(1).unwrap(), 0, "still the begin snapshot");
        t1.commit().unwrap();
    }

    #[test]
    fn recorded_history_well_formed() {
        let stm = SiStm::new(2);
        run_tx(&stm, 0, |tx| tx.write(0, 1));
        let mut t = stm.begin(0);
        let _ = t.read(0).unwrap();
        t.abort();
        let h = stm.recorder().history();
        assert!(tm_model::is_well_formed(&h), "{h}");
    }
}
