//! A visible-reads TM (SXM / RSTM invalidate-style).
//!
//! The design point that escapes Theorem 3 by *publishing* reads: every read
//! registers the reader in the object's reader list (a base-object write —
//! reads are visible). A writer arriving at an object eagerly aborts every
//! registered live reader (and a reader aborts a live pending writer), so
//! a transaction's read set can never be silently invalidated:
//! **no read-time or commit-time validation is needed at all**, and every
//! operation costs O(1) steps in `k` (write cost depends on the number of
//! concurrent readers of that object, bounded by the thread count, never by
//! `k`).
//!
//! Opacity: reads always return the latest committed value, and any
//! committer that would change a value read by a live transaction aborts
//! that transaction first, so every live transaction's snapshot remains the
//! current committed state throughout its life.

use std::sync::{Arc, Mutex};

use crate::api::{Aborted, StmProperties, TxResult};
use crate::base::{status, try_abort_tx, Meter, TxDesc};
use crate::config::StmConfig;
use crate::lock;
use crate::trace_cells::{AccessKind, CellId};
use crate::txn::{Design, Protocol, Tm};
use tm_model::TxId;

#[derive(Debug, Default)]
struct VisObj {
    /// Latest committed value.
    committed: i64,
    /// Pending writer and its tentative value.
    writer: Option<(Arc<TxDesc>, i64)>,
    /// Registered readers (the "visible" part).
    readers: Vec<Arc<TxDesc>>,
}

impl VisObj {
    /// Folds a committed/aborted pending writer into the committed value and
    /// prunes completed readers. One logical access (metered by callers).
    fn settle(&mut self, m: &mut Meter) {
        if let Some((d, v)) = &self.writer {
            match m.load_u8(d.status_cell(), &d.status) {
                status::COMMITTED => {
                    self.committed = *v;
                    self.writer = None;
                }
                status::ABORTED => self.writer = None,
                _ => {}
            }
        }
        self.readers.retain(|d| d.status_now() == status::ACTIVE);
    }

    /// Aborts a pending writer other than `me` and folds the outcome.
    fn displace_writer(&mut self, me: &Arc<TxDesc>, m: &mut Meter) {
        if let Some((d, _)) = self.writer.clone() {
            if !Arc::ptr_eq(&d, me) {
                try_abort_tx(&d, m);
                self.settle(m);
            }
        }
    }
}

/// The visible-reads TM over `k` registers, initialized to 0.
pub type VisibleStm = Tm<Visible>;

/// The visible-reads TM's base objects: one lock record per register.
#[derive(Debug)]
pub struct Visible {
    objs: Vec<Mutex<VisObj>>,
}

mod state {
    /// A live visible-reads transaction's protocol state.
    pub struct VisibleTx<'a> {
        pub(super) stm: &'a super::Visible,
        pub(super) desc: std::sync::Arc<crate::base::TxDesc>,
    }
}

use state::VisibleTx;

impl Design for Visible {
    const NAME: &'static str = "visible";
    const PROPERTIES: StmProperties = StmProperties {
        progressive: true,
        single_version: true,
        invisible_reads: false, // readers register themselves
        opaque_by_design: true,
        serializable_by_design: true,
    };
    type Args = ();
    type Tx<'a> = VisibleTx<'a>;

    fn build(cfg: &StmConfig, (): ()) -> Self {
        Visible {
            objs: (0..cfg.k()).map(|_| Mutex::default()).collect(),
        }
    }

    fn k(&self) -> usize {
        self.objs.len()
    }

    fn begin(&self, id: TxId) -> VisibleTx<'_> {
        VisibleTx {
            stm: self,
            desc: Arc::new(TxDesc::new(id.0)),
        }
    }
}

impl VisibleTx<'_> {
    /// One metered status load: has no peer aborted this transaction?
    fn still_active(&self, m: &mut Meter) -> TxResult<()> {
        if m.load_u8(self.desc.status_cell(), &self.desc.status) == status::ACTIVE {
            Ok(())
        } else {
            Err(Aborted)
        }
    }
}

impl Protocol for VisibleTx<'_> {
    fn read(&mut self, m: &mut Meter, obj: usize) -> TxResult<i64> {
        self.still_active(m)?;
        let v = {
            // A visible read *writes* the reader list: model it as one RMW
            // on the object's record.
            m.touch(CellId::Record(obj as u32), AccessKind::Rmw);
            let mut o = lock(&self.stm.objs[obj]);
            m.begin_atomic();
            o.settle(m);
            // A live foreign writer holds the object: abort it.
            o.displace_writer(&self.desc, m);
            // Register as a visible reader (this is a base-object write).
            if !o.readers.iter().any(|d| Arc::ptr_eq(d, &self.desc)) {
                m.step();
                o.readers.push(self.desc.clone());
            }
            let v = match &o.writer {
                Some((d, v)) if Arc::ptr_eq(d, &self.desc) => *v, // own write
                _ => o.committed,
            };
            m.end_atomic();
            v
        };
        // A whole writer may have run between the status check above and
        // the record section, aborting this transaction through an object
        // it read earlier: `v` may then be newer than that earlier read.
        self.still_active(m)?;
        Ok(v)
    }

    fn write(&mut self, m: &mut Meter, obj: usize, v: i64) -> TxResult<()> {
        self.still_active(m)?;
        m.touch(CellId::Record(obj as u32), AccessKind::Rmw); // object access
        let mut o = lock(&self.stm.objs[obj]);
        m.begin_atomic();
        o.settle(m);
        o.displace_writer(&self.desc, m);
        // Abort every live foreign reader — eager invalidation.
        for d in o.readers.iter().filter(|d| !Arc::ptr_eq(d, &self.desc)) {
            if m.load_u8(d.status_cell(), &d.status) == status::ACTIVE {
                try_abort_tx(d, m);
            }
        }
        o.settle(m);
        m.step(); // install the pending write
        o.writer = Some((self.desc.clone(), v));
        m.end_atomic();
        Ok(())
    }

    fn commit(&mut self, m: &mut Meter) -> TxResult<()> {
        // No validation: conflicts were resolved eagerly. One status CAS.
        if m.cas_u8(
            self.desc.status_cell(),
            &self.desc.status,
            status::ACTIVE,
            status::COMMITTED,
        ) {
            Ok(())
        } else {
            Err(Aborted)
        }
    }

    fn aborted(&mut self, _m: &mut Meter) {
        self.desc.force_status(status::ABORTED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Stm};
    use crate::base::OpKind;

    #[test]
    fn roundtrip() {
        let stm = VisibleStm::new(2);
        let mut tx = stm.begin(0);
        tx.write(0, 5).unwrap();
        assert_eq!(tx.read(0).unwrap(), 5);
        tx.commit().unwrap();
        let mut tx = stm.begin(0);
        assert_eq!(tx.read(0).unwrap(), 5);
        tx.commit().unwrap();
    }

    #[test]
    fn writer_aborts_visible_reader() {
        let stm = VisibleStm::new(1);
        let mut t1 = stm.begin(0);
        assert_eq!(t1.read(0).unwrap(), 0);
        let mut t2 = stm.begin(1);
        t2.write(0, 9).unwrap(); // eagerly aborts the registered reader T1
        t2.commit().unwrap();
        assert_eq!(t1.commit(), Err(Aborted));
    }

    #[test]
    fn reader_never_sees_tentative_value() {
        let stm = VisibleStm::new(1);
        let mut t1 = stm.begin(0);
        t1.write(0, 9).unwrap();
        // T2 reads: it aborts T1 (live writer) and sees 0.
        let mut t2 = stm.begin(1);
        assert_eq!(t2.read(0).unwrap(), 0);
        t2.commit().unwrap();
        assert_eq!(t1.commit(), Err(Aborted));
    }

    #[test]
    fn committed_writer_folds_into_committed_value() {
        let stm = VisibleStm::new(1);
        let mut t1 = stm.begin(0);
        t1.write(0, 4).unwrap();
        t1.commit().unwrap();
        let mut t2 = stm.begin(1);
        assert_eq!(t2.read(0).unwrap(), 4);
        t2.commit().unwrap();
    }

    #[test]
    fn read_cost_independent_of_read_set_size() {
        let k = 128;
        let stm = VisibleStm::new(k);
        let mut tx = stm.begin(0);
        let mut max = 0;
        for i in 0..k {
            tx.read(i).unwrap();
            max = max.max(tx.steps().max_of(OpKind::Read));
        }
        // No validation: cost per read is a small constant, never Θ(k).
        assert!(max <= 6, "visible reads must be O(1), saw {max}");
        tx.commit().unwrap();
    }

    #[test]
    fn recorded_history_well_formed() {
        let stm = VisibleStm::new(2);
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
