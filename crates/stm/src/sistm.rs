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

use crate::api::{StmProperties, TxResult};
use crate::base::Meter;
use crate::config::StmConfig;
use crate::mvstm::VersionStore;
use crate::txn::{Design, Protocol, Tm};
use tm_model::TxId;

/// The snapshot-isolation TM over `k` registers, initialized to 0.
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
pub type SiStm = Tm<Si>;

/// The snapshot-isolation TM's base objects.
#[derive(Debug)]
pub struct Si(VersionStore);

mod state {
    /// A live snapshot-isolation transaction's protocol state.
    pub struct SiTx<'a> {
        pub(super) store: &'a crate::mvstm::VersionStore,
        /// Snapshot timestamp sampled at begin.
        pub(super) start_ts: u64,
        /// Redo log. The read set is deliberately *not* tracked: snapshot
        /// isolation never validates reads — that omission is the
        /// write-skew hole.
        pub(super) writes: Vec<(usize, i64)>,
    }
}

use state::SiTx;

impl Design for Si {
    const NAME: &'static str = "sistm";
    const PROPERTIES: StmProperties = StmProperties {
        progressive: false, // first-committer-wins can abort after the
        // conflicting peer already committed
        single_version: false,
        invisible_reads: true,
        opaque_by_design: false,
        serializable_by_design: false, // write skew
    };
    type Args = ();
    type Tx<'a> = SiTx<'a>;

    fn build(cfg: &StmConfig, (): ()) -> Self {
        Si(VersionStore::new(cfg))
    }

    fn k(&self) -> usize {
        self.0.k()
    }

    fn begin(&self, _: TxId) -> SiTx<'_> {
        SiTx {
            store: &self.0,
            start_ts: self.0.start_ts(),
            writes: Vec::new(),
        }
    }
}

impl Protocol for SiTx<'_> {
    fn read(&mut self, m: &mut Meter, obj: usize) -> TxResult<i64> {
        if let Some(&(_, v)) = self.writes.iter().find(|(o, _)| *o == obj) {
            return Ok(v);
        }
        // Snapshot read: never fails, never validates anything.
        Ok(self.store.value_at(obj, self.start_ts, m))
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
            // Read-only transactions commit unconditionally.
            return Ok(());
        }
        // First-committer-wins over the WRITE set only (the read set is
        // not consulted — compare MvStm's commit, which also validates
        // reads and is therefore opaque). Publish-last ordering, exactly
        // as in MvStm.
        let written = self.writes.iter().map(|&(obj, _)| obj);
        self.store.commit(m, self.start_ts, written, &self.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Aborted, Stm};

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
