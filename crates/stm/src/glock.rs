//! The global-lock TM: critical sections dressed as transactions.
//!
//! The semantic reference point of the paper's introduction ("a TM should
//! provide the same semantics as critical sections"): a single lock held
//! from `begin` to completion makes every transaction trivially isolated —
//! histories are sequential, hence opaque — at the price of zero
//! concurrency.

use std::sync::Mutex;

use crate::api::{StmProperties, TxResult};
use crate::base::Meter;
use crate::config::StmConfig;
use crate::lock;
use crate::txn::{Design, Protocol, Tm};
use tm_model::TxId;

/// The global-lock TM over `k` registers, initialized to 0.
pub type GlockStm = Tm<Glock>;

/// The global-lock TM's base objects: the registers behind one lock.
#[derive(Debug)]
pub struct Glock {
    store: Mutex<Vec<i64>>,
    /// The register count, kept apart from `store`: a live transaction
    /// holds the store's lock until it finishes.
    k: usize,
}

mod state {
    /// A live global-lock transaction's protocol state: the store guard,
    /// held for the transaction's entire lifetime.
    pub struct GlockTx<'a> {
        pub(super) guard: Option<std::sync::MutexGuard<'a, Vec<i64>>>,
        pub(super) undo: Vec<(usize, i64)>,
    }
}

use state::GlockTx;

impl Design for Glock {
    const NAME: &'static str = "glock";
    const PROPERTIES: StmProperties = StmProperties {
        progressive: true, // never forcefully aborts at all
        single_version: true,
        invisible_reads: false, // the lock word is written at begin
        opaque_by_design: true,
        serializable_by_design: true,
    };
    const BLOCKING: bool = true;
    type Args = ();
    type Tx<'a> = GlockTx<'a>;

    fn build(cfg: &StmConfig, (): ()) -> Self {
        Glock {
            store: Mutex::new(vec![0; cfg.k()]),
            k: cfg.k(),
        }
    }

    fn k(&self) -> usize {
        self.k
    }

    fn begin(&self, _: TxId) -> GlockTx<'_> {
        GlockTx {
            // The lock acquisition is the transaction's single
            // synchronization point; it happens at begin, outside any
            // operation, and costs O(1).
            guard: Some(lock(&self.store)),
            undo: Vec::new(),
        }
    }
}

impl GlockTx<'_> {
    fn store(&mut self) -> &mut Vec<i64> {
        self.guard.as_mut().expect("live tx holds guard")
    }
}

impl Protocol for GlockTx<'_> {
    fn read(&mut self, m: &mut Meter, obj: usize) -> TxResult<i64> {
        m.step(); // one store access
        Ok(self.store()[obj])
    }

    fn write(&mut self, m: &mut Meter, obj: usize, v: i64) -> TxResult<()> {
        m.step();
        let old = std::mem::replace(&mut self.store()[obj], v);
        self.undo.push((obj, old));
        Ok(())
    }

    fn commit(&mut self, _m: &mut Meter) -> TxResult<()> {
        self.guard = None; // release the lock
        Ok(())
    }

    /// Rolls the writes back and releases the lock.
    fn aborted(&mut self, _m: &mut Meter) {
        if let Some(guard) = self.guard.as_mut() {
            // Undo in reverse so earlier values win.
            for (obj, old) in self.undo.drain(..).rev() {
                guard[obj] = old;
            }
        }
        self.guard = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Stm};
    use crate::base::OpKind;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

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
    fn k_does_not_wait_for_a_live_transaction() {
        let stm = Arc::new(GlockStm::new(3));
        let tx = stm.begin(0);
        let (done, k) = mpsc::channel();
        let other = Arc::clone(&stm);
        let reader = std::thread::spawn(move || {
            let _ = done.send(other.k());
        });
        assert_eq!(k.recv_timeout(Duration::from_secs(2)), Ok(3));
        tx.commit().unwrap();
        reader.join().expect("k() does not panic");
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
