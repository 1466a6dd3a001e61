//! The classical correctness criteria of Section 3, as executable checkers.
//!
//! The paper argues that none of the database/shared-memory criteria capture
//! TM semantics. This module makes each of them executable so that the
//! separations can be *demonstrated on concrete histories*:
//!
//! * [`serializability`] — final-state serializability of committed
//!   transactions (Papadimitriou), object-generic, so it doubles as **global
//!   atomicity** (Weihl) in this model;
//! * [`strict_serializability`] — serializability plus real-time order;
//! * [`recoverability`] — the recoverability family of Hadzilacos:
//!   recoverability proper, avoidance of cascading aborts, strictness, and
//!   rigorousness (Section 3.6's "rigorous scheduling");
//! * [`progress`] — the Section 6.1 progressiveness property (every forced
//!   abort must be justified by a live conflict), used to validate the
//!   Section 6.2 claims about TL2 and DSTM on recorded executions;
//! * [`snapshot_isolation`] — a criterion *derived from opacity's reference
//!   point* (the Section 1 suggestion): what the SI-STM trade-off system
//!   actually guarantees — weaker than opacity (write skew passes),
//!   incomparable with serializability (H1 fails it);
//! * the criteria lattice helper [`classify`], which evaluates a history
//!   against everything at once (used by the separation tests E1/E5/E6 and
//!   the examples).

pub mod progress;
pub mod recoverability;
pub mod serializability;
pub mod snapshot_isolation;
pub mod strict_serializability;

pub use progress::{check_progressive, ProgressReport, ProgressViolation};
pub use recoverability::{RecoverabilityReport, ScheduleProperties};
pub use serializability::{is_serializable, is_serializable_with};
pub use snapshot_isolation::{is_snapshot_isolated, snapshot_isolated, SiReport};
pub use strict_serializability::is_strictly_serializable;

use crate::opacity::is_opaque;
use crate::search::CheckError;
use tm_model::{History, SpecRegistry};

/// A history's position in the criteria lattice: which of the Section 3
/// criteria (and opacity) it satisfies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CriteriaProfile {
    /// Final-state serializability of committed transactions (≙ global
    /// atomicity in this object-generic model).
    pub serializable: bool,
    /// Serializability preserving the real-time order of transactions.
    pub strictly_serializable: bool,
    /// Recoverability (commit order respects reads-from).
    pub recoverable: bool,
    /// Avoids cascading aborts (reads only from committed transactions).
    pub avoids_cascading_aborts: bool,
    /// Strictness (no read/overwrite of dirty data).
    pub strict: bool,
    /// Rigorousness (strict + no overwrite of data read by live
    /// transactions) — Section 3.6's rigorous scheduling.
    pub rigorous: bool,
    /// Opacity (Definition 1).
    pub opaque: bool,
}

/// Evaluates `h` against every criterion at once.
///
/// The recoverability family is register-specific (it needs a reads-from
/// relation); for histories over non-register objects those fields are
/// reported by [`ScheduleProperties`]'s conservative object-level conflict
/// interpretation.
pub fn classify(h: &History, specs: &SpecRegistry) -> Result<CriteriaProfile, CheckError> {
    let sched = ScheduleProperties::of(h);
    Ok(CriteriaProfile {
        serializable: is_serializable(h, specs)?,
        strictly_serializable: is_strictly_serializable(h, specs)?,
        recoverable: sched.recoverable,
        avoids_cascading_aborts: sched.avoids_cascading_aborts,
        strict: sched.strict,
        rigorous: sched.rigorous,
        opaque: is_opaque(h, specs)?.opaque,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::builder::paper;

    #[test]
    fn h1_profile_matches_figure_1_caption() {
        // "A history that satisfies global atomicity (with real-time
        // ordering guarantees) and recoverability, but in which an aborted
        // transaction (T2) accesses an inconsistent state."
        let p = classify(&paper::h1(), &SpecRegistry::registers()).unwrap();
        assert!(p.serializable);
        assert!(p.strictly_serializable);
        assert!(p.recoverable);
        assert!(p.avoids_cascading_aborts);
        assert!(!p.opaque);
    }

    #[test]
    fn h5_profile() {
        let p = classify(&paper::h5(), &SpecRegistry::registers()).unwrap();
        assert!(p.opaque);
        assert!(p.serializable);
        assert!(p.strictly_serializable);
    }
}
