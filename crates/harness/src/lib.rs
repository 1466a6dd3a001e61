//! # tm-harness — experiment substrate
//!
//! Everything needed to turn the `tm-stm` implementations and the
//! `tm-opacity` checkers into reproducible experiments:
//!
//! * [`script`] / [`sched`] — scripted transactions under deterministic,
//!   exhaustively enumerable interleavings (a miniature schedule explorer);
//! * [`objconformance`] — the typed-object conformance battery: rich
//!   probes (write-skew sets, producer/consumer queues, commutative
//!   counter storms) swept against any TM through `tm_stm::objects`;
//! * [`parallel`] — a dependency-free scoped-thread worker pool with
//!   deterministic index-order merging, powering the parallel checking
//!   pipeline ([`conformance_parallel`], [`cross_validate`],
//!   [`object_conformance`]);
//! * [`randhist`] — random well-formed register histories for the Theorem-2
//!   cross-validation;
//! * [`workload`] — real-thread workloads (bank, counter, read-mostly, and
//!   the per-object-kind typed storms) with semantic invariant checks;
//! * [`complexity`] — the Theorem-3 step-count experiments (E8/E9);
//! * [`dpor`] / [`race`] — step-granular exploration of the *real* TM
//!   implementations: a cooperative stepper yields at every instrumented
//!   base-object access, a sleep-set DFS enumerates interleavings up to
//!   commutation, and a vector-clock checker convicts clock-discipline
//!   violations with replayable schedules;
//! * [`stats`] — tables and ASCII charts for experiment output.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod complexity;
pub mod conformance;
pub mod dpor;
pub mod objconformance;
pub mod parallel;
pub mod race;
pub mod randhist;
pub mod sched;
pub mod script;
pub mod stats;
pub mod workload;

pub use complexity::{fraction_scenario, paper_scenario, solo_scan, sweep, ComplexityRow};
pub use conformance::{
    check_conformance, conformance_observed, conformance_parallel, conformance_parallel_with,
    header as conformance_header, ConformanceReport,
};
pub use dpor::{
    committed_serializable, explore, probed_config, replay_schedule, Conviction, ConvictionKind,
    DporConfig, ExploreResult, LiveRun, RunResult, SharedStm, Step, StepTxOutcome, StmFactory,
};
pub use objconformance::{
    execute_objects, execute_objects_serially, object_conformance, object_conformance_with,
    object_header, ObjExecOutcome, ObjOp, ObjProgram, ObjScript, ObjTxOutcome,
    ObjectConformanceReport, ObjectKind, ObjectProbeReport,
};
pub use parallel::{default_jobs, parallel_map};
pub use race::{check as check_race_trace, RaceViolation};
pub use randhist::{batch, cross_validate, random_history, CrossValReport, GenConfig};
pub use sched::{
    all_schedules, all_schedules_reduced, complete_schedule, execute, inversions, random_schedule,
    shrink_schedule, ExecOutcome, Schedule, TxOutcome,
};
pub use script::{Program, ScriptOp, TxScript};
pub use stats::{ascii_chart, Table};
pub use workload::{bank, counter, read_mostly, typed_storm, WorkloadStats};
