//! # tm-model — the formal model of transactional memory
//!
//! This crate mechanizes Section 4 of Guerraoui & Kapałka, *On the
//! Correctness of Transactional Memory* (PPoPP 2008): transactions, shared
//! objects with arbitrary sequential specifications, transactional events and
//! histories, well-formedness, equivalence, real-time order, completions
//! `Complete(H)`, and legality.
//!
//! The model is the substrate for the `tm-opacity` crate (the opacity
//! checker, its graph characterization, and the comparison criteria) and for
//! the recorded histories produced by the `tm-stm` implementations.
//!
//! ## Quick tour
//!
//! ```
//! use tm_model::builder::HistoryBuilder;
//! use tm_model::spec::SpecRegistry;
//! use tm_model::legal::all_txs_legal;
//! use tm_model::TxId;
//!
//! // A sequential history in which T2 reads T1's committed write:
//! let s = HistoryBuilder::new()
//!     .write(1, "x", 1).try_commit(1).commit(1)
//!     .read(2, "x", 1).try_commit(2).commit(2)
//!     .build();
//! assert!(s.is_sequential());
//! assert!(all_txs_legal(&s, &SpecRegistry::registers()).is_ok());
//! ```
//!
//! The paper's example histories H1–H5 are available in
//! [`builder::paper`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod complete;
pub mod event;
pub mod history;
pub mod legal;
pub mod nesting;
pub mod nontx;
pub mod objects;
pub mod ops;
pub mod realtime;
pub mod spec;
pub mod value;
pub mod wellformed;

pub use builder::HistoryBuilder;
pub use complete::{apply_completion, complete_histories, completions, CommitDecision, Completion};
pub use event::{Event, ObjId, OpName, TxId};
pub use history::History;
pub use legal::{all_txs_legal, sequential_history_legal, tx_legal_in, LegalityError};
pub use nesting::{flatten, NestingInfo, NestingMode};
pub use nontx::NonTxWrapper;
pub use ops::{OpExec, TxStatus, TxView};
pub use realtime::{preserves_real_time, RealTimeOrder};
pub use spec::{ObjStates, SeqSpec, SpecRegistry};
pub use value::Value;
pub use wellformed::{check_well_formed, is_well_formed, WfError};
