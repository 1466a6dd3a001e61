//! # tm-stm — the paper's TM design space, executable and instrumented
//!
//! Nine software transactional memories over `k` integer registers, chosen to
//! occupy every cell of the design space that Theorem 3 of Guerraoui &
//! Kapałka (PPoPP 2008) carves out:
//!
//! | TM | progressive | single-version | invisible reads | opaque | steps/read |
//! |----|-------------|----------------|-----------------|--------|------------|
//! | [`dstm::DstmStm`] | ✔ | ✔ | ✔ | ✔ | **Θ(read set)** — the lower bound is tight |
//! | [`astm::AstmStm`] | ✔ | ✔ | ✔ | ✔ | **Θ(read set)** — same point, lazy-acquire protocol |
//! | [`tl2::Tl2Stm`] | ✘ | ✔ | ✔ | ✔ | O(1) |
//! | [`visible::VisibleStm`] | ✔ | ✔ | ✘ | ✔ | O(1) |
//! | [`mvstm::MvStm`] | ✘ | ✘ (multi-version) | ✔ | ✔ | O(log versions) |
//! | [`nonopaque::NonOpaqueStm`] | ✔ | ✔ | ✔ | ✘ | O(1) |
//! | [`sistm::SiStm`] | ✘ | ✘ (multi-version) | ✔ | ✘ (write skew) | O(log versions) |
//! | [`tpl::TplStm`] | ✔ | ✔ | ✘ | ✔ (rigorous) | O(1) |
//! | [`glock::GlockStm`] | ✔ | ✔ | ✘ | ✔ | O(1), zero concurrency |
//!
//! Every implementation is one generic TM shell around its design, so each
//! TM module states only its name, its design-space facts, its base objects
//! and its per-transaction protocol. The shell's transaction lifecycle:
//!
//! * records the paper's transactional events into a [`recorder::Recorder`]
//!   so that recorded executions can be fed to the `tm-opacity` checkers;
//! * meters the protocol's accesses to base shared objects per operation
//!   through [`base::Meter`] — the exact step counts of Theorem 3,
//!   noise-free;
//! * fixes, for every TM alike, where each event falls relative to the
//!   operation's steps: `inv`/`tryC` before the first access, `ret`/`C`
//!   after the last, a forced abort's cleanup inside the operation before
//!   its `A`, and `tryA`, cleanup, `A` for a voluntary abort or a dropped
//!   transaction.
//!
//! # Typed transactional objects
//!
//! The [`objects`] module lifts every TM above from the register universe
//! to the full object universe of `tm_model::objects` — counters, FIFO
//! queues, stacks, sets, CAS registers, key-value maps, priority queues,
//! and append logs — with **zero per-TM changes**: a [`objects::TypedStm`]
//! encodes each object's state into a block of base registers, executes
//! object operations as read-modify-write register programs *through* the
//! transaction, and records the history at the object level, so the
//! `tm-opacity` checkers judge it against the objects' sequential
//! specifications. Which anomalies each object workload can surface:
//!
//! | object workload | anomaly it can expose | convicted TM |
//! |---|---|---|
//! | set / kv-map **write skew** (read both, update one each) | committed outcomes no serial order allows | `sistm` |
//! | counter **torn reads** (`get`/`get` vs `inc`/`inc`) | live transaction observes a mid-flight state | `nonopaque` |
//! | queue / stack / pqueue producer–consumer | reordering, double- or lost dequeues | any broken mutant |
//! | counter **commutative storms** | over-conservative conflict detection (§3.4) | — (a cost, not a bug) |
//!
//! See `DESIGN.md` for the documented substitutions (e.g. locator atomics
//! emulated with short critical sections).
//!
//! # Configured construction
//!
//! Every TM is built from an [`StmConfig`] by the one shell constructor
//! (`new(k)` builds the default configuration), and the [`TmRegistry`]
//! resolves TM names into configured instances with fallible lookup — see
//! [`config`] and [`registry`]. The registry reads each TM's name and
//! design-space facts from its design, without building it. Registers start at 0. The timestamp-based TMs (`tl2`,
//! `mvstm`, `sistm`) all run on TL2's GV1 [`VersionClock`] (see [`clock`]);
//! the conflict-resolving TMs (`dstm`, `visible`) always abort the live
//! enemy. [`run_tx`]/[`try_run_tx`] retry an aborted transaction up to
//! [`MAX_ATTEMPTS`] times.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod api;
pub mod astm;
pub mod base;
pub mod clock;
pub mod config;
pub mod dstm;
pub mod glock;
pub mod mutants;
pub mod mvstm;
pub mod nonopaque;
pub mod objects;
pub mod obs;
pub mod recorder;
pub mod registry;
pub mod sistm;
pub mod tl2;
pub mod tpl;
pub mod trace_cells;
mod txn;
pub mod visible;

pub use api::{
    retry, run_tx, try_run_tx, Aborted, Livelock, RunStats, Stm, StmProperties, Tx, TxResult,
    MAX_ATTEMPTS,
};
pub use astm::AstmStm;
pub use base::{Meter, OpKind, StepReport, TxDesc};
pub use clock::{GlobalClock, VersionClock};
pub use config::StmConfig;
pub use dstm::DstmStm;
pub use glock::GlockStm;
pub use mutants::{MutantStm, Mutation};
pub use mvstm::MvStm;
pub use nonopaque::NonOpaqueStm;
pub use objects::{
    run_typed_tx, try_run_typed_tx, ObjEncoding, TObj, TypedSpace, TypedStm, TypedTx,
};
pub use obs::ObsClock;
pub use recorder::Recorder;
pub use registry::{TmLookupError, TmRegistry, TmSpec};
pub use sistm::SiStm;
pub use tl2::Tl2Stm;
pub use tpl::TplStm;
pub use trace_cells::{AccessEvent, AccessKind, AccessLog, CellId, StepProbe, TraceEvent};
pub use visible::VisibleStm;

/// Locks `m` even if a holder panicked. The race explorer
/// (`tm_harness::dpor`) catches a panic in TM code and lets the run's other
/// threads finish on the same TM, so a poisoned lock must stay usable; the
/// explorer builds a fresh TM for every run.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names of the suite TMs whose properties satisfy `keep`.
    fn names_where(keep: impl Fn(&StmProperties) -> bool) -> Vec<&'static str> {
        let suite = TmRegistry::suite();
        let specs = suite.specs().iter();
        specs
            .filter(|s| keep(&s.properties))
            .map(|s| s.name)
            .collect()
    }

    #[test]
    fn suite_covers_the_design_space() {
        assert_eq!(TmRegistry::suite().specs().len(), 9);
        // Exactly two TMs satisfy all three Theorem-3 hypotheses AND
        // opacity: DSTM and ASTM — the configurations the lower bound
        // binds (and the two systems the paper names for tightness).
        let bound = names_where(|p| {
            p.progressive && p.single_version && p.invisible_reads && p.opaque_by_design
        });
        assert_eq!(bound, vec!["dstm", "astm"]);
        // Exactly one TM has the hypotheses but trades opacity away.
        let escape = names_where(|p| {
            p.progressive && p.single_version && p.invisible_reads && !p.opaque_by_design
        });
        assert_eq!(escape, vec!["nonopaque"]);
    }

    #[test]
    fn opaque_suite_excludes_nonopaque() {
        let names = names_where(|p| p.opaque_by_design);
        assert!(!names.contains(&"nonopaque"));
        assert!(!names.contains(&"sistm"));
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn all_stms_basic_smoke() {
        let cfg = StmConfig::new(3);
        for stm in TmRegistry::suite().specs().iter().map(|s| s.build(&cfg)) {
            let (v, stats) = run_tx(stm.as_ref(), 0, |tx| {
                tx.write(0, 7)?;
                tx.read(0)
            });
            assert_eq!(v, 7, "{}", stm.name());
            assert_eq!(stats.commits, 1);
            let (v2, _) = run_tx(stm.as_ref(), 0, |tx| tx.read(0));
            assert_eq!(v2, 7, "{}", stm.name());
            let h = stm.recorder().history();
            assert!(tm_model::is_well_formed(&h), "{}: {h}", stm.name());
            assert_eq!(h.committed_txs().len(), 2, "{}", stm.name());
        }
    }

    #[test]
    fn poison_is_recovered() {
        let m = Mutex::new(0);
        let _ = std::panic::catch_unwind(|| {
            let _g = lock(&m);
            panic!("poison the mutex");
        });
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
    }
}
