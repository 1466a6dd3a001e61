//! # tm-serve — the streaming opacity-monitoring daemon
//!
//! The paper's checker as a *service*: `tmcheck serve` ingests `tm-trace`
//! event streams from many concurrent client sessions and answers each
//! event with an opacity verdict, multiplexing thousands of independent
//! resumable [`tm_opacity::incremental::OpacityMonitor`]s behind one
//! ingest → session → verdict → artifact pipeline.
//!
//! The crate splits along that pipeline:
//!
//! * [`frame`] — the versioned `tm-serve/v1.1` wire protocol:
//!   line-delimited JSON frames (`open`/`feed`/`close`/`shutdown` in,
//!   `opened`/`verdict`/`ack`/`busy`/`error`/`closed` out), decoded and
//!   rendered in one pass by the [`tm_trace::json`] codec, with no
//!   document tree in between;
//! * [`table`] — the [`SessionTable`]: fair round-robin scheduling under a
//!   per-turn node budget, aggregate memory governance (a global memo-byte
//!   ceiling apportioned across sessions via the monitors' sound
//!   `set_memo_capacity` hook), bounded-inbox backpressure, overload
//!   shedding, idle reaping, and the journal hooks;
//! * [`journal`] — the append-only, fsync-batched session journal and its
//!   torn-tail-tolerant reader, the substrate of `--journal`/`--resume`
//!   crash recovery;
//! * [`faults`] — the seeded fault plane ([`faults::FaultPlan`] /
//!   [`faults::FaultDriver`]): torn and dropped frames, stalls, transient
//!   write failures, budget spikes, and an injected crash, schedulable
//!   from `--fault-plan` and from the chaos tests;
//! * [`daemon`] — the transports (stdin, offline `--replay` for CI, a Unix
//!   socket) and the graceful drain that ends every run;
//! * [`client`] — the resilient client library: seq-tagged idempotent
//!   resends, capped exponential backoff, reconnect-and-re-open recovery.
//!
//! ## The one invariant
//!
//! **Multiplexing is verdict-invisible.** A session's verdict frames are a
//! pure function of its own event stream: scheduling order, node budgets,
//! backpressure, and memory-governance retunes change *when* verdicts are
//! emitted and what they cost, never their bytes. The replay tests pin
//! this by interleaving ≥ 64 sessions and comparing every session's
//! verdict frames byte-for-byte against a standalone monitor run — also
//! under a deliberately starved `--memo-budget`, where the governor is
//! shrinking every session's memo table mid-stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod faults;
pub mod frame;
pub mod journal;
pub mod table;

mod session;

#[cfg(test)]
mod codec_tests;

pub use client::{Backoff, Client, ClientError, FrameLink, SessionOutcome, SocketLink};
pub use daemon::{replay, run, run_reader, Transport, CRASH_EXIT_CODE};
pub use faults::{Fault, FaultDriver, FaultKind, FaultPlan, LineFate};
pub use frame::{
    parse_client_frame, parse_server_frame, render_client_frame, ClientFrame, ServerFrame,
    SessionId, PROTOCOL, PROTOCOL_MINOR, PROTOCOL_VERSION,
};
pub use journal::{read_journal, JournalState, JournalWriter};
pub use table::{Routed, ServeConfig, SessionTable, EST_ENTRY_BYTES, MIN_MEMO_CAP};

use std::sync::OnceLock;
use tm_model::SpecRegistry;

/// The process-wide specification registry sessions check against —
/// `'static` so monitors (which borrow their registry) can live in the
/// session table without lifetime plumbing. Register specs, matching the
/// rest of the `tmcheck` surface.
pub fn specs() -> &'static SpecRegistry {
    static SPECS: OnceLock<SpecRegistry> = OnceLock::new();
    SPECS.get_or_init(SpecRegistry::registers)
}
