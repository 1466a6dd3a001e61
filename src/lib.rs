//! # opacity-tm
//!
//! A comprehensive reproduction of **Guerraoui & Kapałka, “On the
//! Correctness of Transactional Memory”, PPoPP 2008** — the paper that
//! introduced *opacity*, the standard correctness condition for
//! transactional memory.
//!
//! This facade crate re-exports the library member crates:
//!
//! * [`model`] (`tm-model`) — the Section 4 formal model: events, histories,
//!   real-time order, completions, sequential specifications, legality;
//! * [`opacity`] (`tm-opacity`) — Definition 1 as a decision procedure, the
//!   Section 5.4 graph characterization (Theorem 2), the Section 3
//!   comparison criteria, and an online monitor;
//! * [`stm`] (`tm-stm`) — nine instrumented STM implementations spanning
//!   the design space of Theorem 3 (DSTM, ASTM, TL2, visible reads,
//!   multi-version, commit-time-only, snapshot isolation, two-phase
//!   locking, global lock), plus deliberately buggy mutants for
//!   checker-as-bug-finder experiments;
//! * [`harness`] (`tm-harness`) — deterministic interleaving exploration,
//!   random history generation, workloads, and the Ω(k) lower-bound
//!   experiments;
//! * [`trace`] (`tm-trace`) — JSON and text interchange formats for
//!   histories and Chrome-trace span emission (the `tmcheck` CLI in
//!   `tm-cli` builds on them);
//! * [`obs`] (`tm-obs`) — dependency-free metrics registry (counters,
//!   gauges, log2 latency histograms) and span tracing behind a
//!   zero-cost-when-disabled handle, threaded through the search, monitor,
//!   and STM layers (`tmcheck --metrics-out/--trace-out`);
//! * [`serve`] (`tm-serve`) — the streaming opacity-monitoring daemon:
//!   a line-delimited `tm-serve/v1` wire protocol, a session table
//!   multiplexing thousands of resumable check sessions under fair
//!   round-robin scheduling and a global memo-byte budget, and stdin /
//!   replay / unix-socket transports (`tmcheck serve`).
//!
//! ## Quickstart
//!
//! ```
//! use opacity_tm::model::SpecRegistry;
//! use opacity_tm::opacity::opacity::is_opaque;
//! use opacity_tm::stm::{Stm, Tl2Stm, run_tx};
//!
//! // Run two transactions on TL2 and verify the recorded history is opaque.
//! let tm = Tl2Stm::new(4);
//! run_tx(&tm, 0, |tx| { tx.write(0, 1)?; tx.write(1, 2) });
//! run_tx(&tm, 1, |tx| { let a = tx.read(0)?; tx.write(2, a + 10) });
//!
//! let history = tm.recorder().history();
//! let report = is_opaque(&history, &SpecRegistry::registers()).unwrap();
//! assert!(report.opaque);
//! ```
//!
//! See `README.md` for the architecture overview and the examples,
//! `DESIGN.md` for the soundness arguments and design decisions, and
//! `tests/paper_examples.rs` for the paper's worked examples and criteria
//! table as assertions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use tm_harness as harness;
pub use tm_model as model;
pub use tm_obs as obs;
pub use tm_opacity as opacity;
pub use tm_serve as serve;
pub use tm_stm as stm;
pub use tm_trace as trace;
