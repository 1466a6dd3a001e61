//! The global-lock TM: critical sections dressed as transactions.
//!
//! The semantic reference point of the paper's introduction ("a TM should
//! provide the same semantics as critical sections"): a single lock held
//! from `begin` to completion makes every transaction trivially isolated —
//! histories are sequential, hence opaque — at the price of zero
//! concurrency.

use std::sync::{Mutex, MutexGuard};

use crate::api::{Stm, StmProperties, Tx, TxResult};
use crate::base::{Meter, OpKind, StepReport};
use crate::config::StmConfig;
use crate::lock;
use crate::recorder::Recorder;
use tm_model::TxId;

/// The global-lock TM over `k` registers.
#[derive(Debug)]
pub struct GlockStm {
    store: Mutex<Vec<i64>>,
    recorder: Recorder,
}

impl GlockStm {
    /// A global-lock TM with `k` registers initialized to 0.
    pub fn new(k: usize) -> Self {
        Self::with_config(&StmConfig::new(k))
    }

    /// A global-lock TM built from an explicit configuration.
    pub fn with_config(cfg: &StmConfig) -> Self {
        GlockStm {
            store: Mutex::new(vec![0; cfg.k()]),
            recorder: cfg.build_recorder(),
        }
    }
}

/// A live global-lock transaction: owns the store guard for its entire
/// lifetime.
pub struct GlockTx<'a> {
    stm: &'a GlockStm,
    guard: Option<MutexGuard<'a, Vec<i64>>>,
    undo: Vec<(usize, i64)>,
    id: TxId,
    meter: Meter,
    finished: bool,
}

impl Stm for GlockStm {
    fn name(&self) -> &'static str {
        "glock"
    }

    fn k(&self) -> usize {
        lock(&self.store).len()
    }

    fn begin(&self, _thread: usize) -> Box<dyn Tx + '_> {
        let id = self.recorder.fresh_tx();
        // The lock acquisition is the transaction's single synchronization
        // point; it happens at begin, outside any operation, and costs O(1).
        let guard = lock(&self.store);
        Box::new(GlockTx {
            stm: self,
            guard: Some(guard),
            undo: Vec::new(),
            id,
            meter: Meter::new(),
            finished: false,
        })
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn properties(&self) -> StmProperties {
        StmProperties {
            progressive: true, // never forcefully aborts at all
            single_version: true,
            invisible_reads: false, // the lock word is written at begin
            opaque_by_design: true,
            serializable_by_design: true,
        }
    }

    fn blocking(&self) -> bool {
        true
    }
}

impl Tx for GlockTx<'_> {
    fn read(&mut self, obj: usize) -> TxResult<i64> {
        self.stm.recorder.inv_read(self.id, obj);
        self.meter.begin_op(OpKind::Read);
        self.meter.step(); // one store access
        let v = self.guard.as_ref().expect("live tx holds guard")[obj];
        self.meter.end_op();
        self.stm.recorder.ret_read(self.id, obj, v);
        Ok(v)
    }

    fn write(&mut self, obj: usize, v: i64) -> TxResult<()> {
        self.stm.recorder.inv_write(self.id, obj, v);
        self.meter.begin_op(OpKind::Write);
        self.meter.step();
        let guard = self.guard.as_mut().expect("live tx holds guard");
        self.undo.push((obj, guard[obj]));
        guard[obj] = v;
        self.meter.end_op();
        self.stm.recorder.ret_write(self.id, obj);
        Ok(())
    }

    fn commit(mut self: Box<Self>) -> TxResult<()> {
        self.stm.recorder.try_commit(self.id);
        self.meter.begin_op(OpKind::Commit);
        self.meter.end_op();
        self.guard = None; // release the lock
        self.finished = true;
        self.stm.recorder.commit(self.id);
        Ok(())
    }

    fn abort(mut self: Box<Self>) {
        self.stm.recorder.try_abort(self.id);
        self.rollback();
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

impl GlockTx<'_> {
    fn rollback(&mut self) {
        if let Some(guard) = self.guard.as_mut() {
            // Undo in reverse so earlier values win.
            for (obj, old) in self.undo.drain(..).rev() {
                guard[obj] = old;
            }
        }
        self.guard = None;
    }
}

impl Drop for GlockTx<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Dropped without commit/abort: treat as a voluntary abort so
            // the recorded history stays well-formed and the lock releases.
            self.stm.recorder.try_abort(self.id);
            self.rollback();
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
    fn read_write_commit() {
        let stm = GlockStm::new(4);
        let mut tx = stm.begin(0);
        assert_eq!(tx.read(0).unwrap(), 0);
        tx.write(0, 42).unwrap();
        assert_eq!(tx.read(0).unwrap(), 42);
        tx.commit().unwrap();
        let mut tx2 = stm.begin(0);
        assert_eq!(tx2.read(0).unwrap(), 42);
        tx2.commit().unwrap();
    }

    #[test]
    fn abort_rolls_back() {
        let stm = GlockStm::new(2);
        let tx = {
            let mut tx = stm.begin(0);
            tx.write(0, 9).unwrap();
            tx.write(1, 9).unwrap();
            tx
        };
        tx.abort();
        let mut tx2 = stm.begin(0);
        assert_eq!(tx2.read(0).unwrap(), 0);
        assert_eq!(tx2.read(1).unwrap(), 0);
        tx2.commit().unwrap();
    }

    #[test]
    fn drop_without_completion_aborts() {
        let stm = GlockStm::new(1);
        {
            let mut tx = stm.begin(0);
            tx.write(0, 5).unwrap();
            // dropped here
        }
        let mut tx = stm.begin(0);
        assert_eq!(tx.read(0).unwrap(), 0);
        tx.commit().unwrap();
        let h = stm.recorder().history();
        assert!(tm_model::is_well_formed(&h), "{h}");
    }

    #[test]
    fn recorded_history_is_sequential() {
        let stm = GlockStm::new(2);
        run_tx(&stm, 0, |tx| {
            tx.write(0, 1)?;
            tx.write(1, 2)
        });
        run_tx(&stm, 0, |tx| {
            let a = tx.read(0)?;
            let b = tx.read(1)?;
            assert_eq!((a, b), (1, 2));
            Ok(())
        });
        let h = stm.recorder().history();
        assert!(h.is_sequential());
        assert!(tm_model::is_well_formed(&h));
    }

    #[test]
    fn steps_are_constant_per_op() {
        let stm = GlockStm::new(64);
        let mut tx = stm.begin(0);
        for i in 0..64 {
            tx.read(i).unwrap();
        }
        let r = tx.steps();
        assert_eq!(r.max_of(OpKind::Read), 1);
        tx.commit().unwrap();
    }
}
