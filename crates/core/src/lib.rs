//! # tm-opacity — opacity and its relatives, executable
//!
//! This crate is the primary contribution of the reproduced paper
//! (Guerraoui & Kapałka, *On the Correctness of Transactional Memory*,
//! PPoPP 2008) in executable form:
//!
//! * [`opacity`] — Definition 1 as a decision procedure with serialization
//!   witnesses;
//! * [`graph`] / [`graphcheck`] — the Section 5.4 graph characterization
//!   (`nonlocal(H)`, consistency, `OPG(H, ≪, V)`, Theorem 2), usable both
//!   to certify witnesses and as an independent decision procedure;
//! * [`criteria`] — the Section 3 comparison criteria (serializability,
//!   strict serializability, global atomicity, the recoverability family,
//!   rigorousness), so the paper's separations are demonstrable on concrete
//!   histories;
//! * [`incremental`] — an online monitor enforcing opacity of every prefix
//!   of a TM-generated history;
//! * [`search`] — the shared memoized serialization-search engine, built
//!   around a **resumable [`SearchCore`]**: the memo table, transaction
//!   metadata, and last witness survive across checks, so the monitor
//!   extends the previous prefix's search state instead of recomputing it.
//!   The core is also **parallel and memory-bounded**: `search_jobs` splits
//!   a check at its root placements across a work-stealing pool of scoped
//!   threads sharing a fingerprint-sharded dead-end memo, and
//!   `memo_capacity` bounds the resident entries with segmented-LRU
//!   eviction (both knobs on [`SearchConfig`]).
//!
//! ## Example: the paper's Figure 1 vs Figure 2
//!
//! ```
//! use tm_model::builder::paper;
//! use tm_model::SpecRegistry;
//! use tm_opacity::opacity::is_opaque;
//! use tm_opacity::criteria::{is_global_atomic, ScheduleProperties};
//!
//! let specs = SpecRegistry::registers();
//!
//! // Figure 1 (H1): globally atomic and recoverable, but NOT opaque.
//! let h1 = paper::h1();
//! assert!(is_global_atomic(&h1, &specs).unwrap());
//! assert!(ScheduleProperties::of(&h1).recoverable);
//! assert!(!is_opaque(&h1, &specs).unwrap().opaque);
//!
//! // Figure 2 (H5): opaque, with the paper's witness S = T2 · T1 · T3.
//! let h5 = paper::h5();
//! let report = is_opaque(&h5, &specs).unwrap();
//! assert!(report.opaque);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod criteria;
pub mod explain;
pub mod graph;
pub mod graphcheck;
pub mod incremental;
mod memo;
pub mod opacity;
pub mod search;
mod state;
mod steal;

pub use criteria::{classify, CriteriaProfile};
pub use explain::{explain_violation, StuckTransaction, ViolationExplanation};
pub use graph::{build_opg, nonlocal, EdgeLabel, NodeLabel, OpacityGraph};
pub use graphcheck::{construct_graph_witness, decide_via_graph, GraphVerdict, GraphWitness};
pub use incremental::{MonitorVerdict, OpacityMonitor};
pub use opacity::{is_opaque, is_opaque_with, witness_history, OpacityReport};
pub use search::{
    CheckError, CheckSession, Placement, SearchConfig, SearchCore, SearchMode, SearchOutcome,
    SearchStats, Witness,
};
