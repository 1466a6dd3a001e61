//! The [`SessionTable`]: multiplexing, fair scheduling, memory governance,
//! backpressure, graceful degradation, and the journal hooks — the
//! daemon's brain, independent of any transport.
//!
//! ## Fairness and the node budget
//!
//! Runnable sessions (non-empty inbox) sit in a round-robin queue. One
//! scheduler *turn* ([`SessionTable::pump_one`]) takes the front session
//! and checks events from its inbox until the cumulative search nodes of
//! the turn exceed [`ServeConfig::node_budget`] (checked *after* each
//! event — events are atomic units, so the budget bounds when a session
//! yields, never how much of an event gets checked). A session with work
//! left re-queues at the back. One expensive session therefore delays its
//! peers by at most one budget-slice per turn, and a poisoned or violated
//! session (whose events become near-free) cannot monopolize anything —
//! the per-site-progress discipline the CRDT literature argues for, here
//! applied to check sessions.
//!
//! ## Memory governance
//!
//! With `--memo-budget BYTES` set, the table apportions a global memo-byte
//! ceiling equally across open sessions: each session's monitor gets
//! `budget / EST_ENTRY_BYTES / sessions` memo entries (floored at
//! [`MIN_MEMO_CAP`]), reapplied on every open and close. The retune hook
//! ([`tm_opacity::incremental::OpacityMonitor::set_memo_capacity`]) is
//! verdict-sound — memo entries are pure pruning, so shrinking a session's
//! table mid-stream costs re-exploration, never correctness (the replay
//! property tests pin this frame-for-frame). Budgets can also be retuned
//! at runtime ([`SessionTable::set_memo_budget`],
//! [`SessionTable::set_node_budget`]) — the fault plane's budget-spike
//! hook, sound for the same reason.
//!
//! ## Backpressure and graceful degradation
//!
//! Each inbox holds at most [`ServeConfig::inbox_capacity`] unchecked
//! events. A `feed` into a full inbox is **not** accepted: the table emits
//! a `busy` frame carrying the rejected event's would-be `seq` and the
//! client resends later. Offline replay instead flow-controls the reader
//! (see `daemon.rs`), so replay output never contains `busy` frames and
//! stays byte-stable. Three degradation knobs, all off by default:
//!
//! * [`ServeConfig::queue_watermark`] — when the run queue backs up past
//!   the watermark, further feeds are shed with `busy` frames carrying a
//!   `retry_after_turns` hint (the replay flow-control probe honors the
//!   same watermark, so replay remains busy-free);
//! * [`ServeConfig::memo_watermark_bytes`] — when resident memo exceeds
//!   the watermark, *opens* are shed with the same hinted `busy` (opens,
//!   not feeds: pumping cannot shrink memo, so shedding feeds on memo
//!   pressure could deadlock the replay flow control);
//! * [`ServeConfig::idle_reap_turns`] — sessions with an empty inbox and
//!   no activity for that many scheduler turns are closed by the reaper,
//!   their summary tagged `"reaped":true`.
//!
//! ## Seq-tagged feeds and the journal
//!
//! A feed tagged with `seq` is idempotent: `seq` ≤ the session's accepted
//! count is answered with `ack` (nothing fed twice), a gap is a positioned
//! error. With `--journal DIR`, accepted opens/events, per-session
//! response cursors, and closes are appended to the session journal (see
//! `journal.rs`); [`SessionTable::resume_from`] rebuilds the table from a
//! recovered [`JournalState`] and arranges for a re-fed input stream to
//! skip exactly the already-journaled prefix.

use std::collections::{HashMap, VecDeque};

use tm_model::Event;
use tm_obs::ObsHandle;
use tm_opacity::search::SearchConfig;

use crate::faults::FaultPlan;
use crate::frame::ServerFrame;
use crate::journal::{JournalState, JournalWriter};
use crate::session::Session;

/// Estimated resident bytes per memo entry (mask + canonical states +
/// queue bookkeeping, measured on the register workloads; deliberately
/// conservative so the byte ceiling errs toward under-use).
///
/// Measured: after the exhaustive check of `rt_chain_knot_history(5, 3)`
/// a session holds 1 078 112 live bytes over 2 542 resident entries, 424 B
/// each (`crates/core/tests/monitor_footprint.rs` pins it). That is above
/// this estimate, so on such states the ceiling errs toward over-use.
pub const EST_ENTRY_BYTES: u64 = 256;

/// Per-session memo-capacity floor: below this the table thrashes instead
/// of pruning, so governance degrades gracefully to "tiny but useful"
/// rather than disabling memoization (well above any shard count, so the
/// one-entry-per-shard floor of the sharded table never binds first).
pub const MIN_MEMO_CAP: usize = 64;

/// Daemon-wide configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum concurrently open sessions; `open` beyond it is refused
    /// with an `error` frame.
    pub max_sessions: usize,
    /// Global memo-byte ceiling apportioned across open sessions; `None`
    /// leaves every session at `search.memo_capacity`.
    pub memo_budget_bytes: Option<u64>,
    /// Unchecked events buffered per session before `busy` pushback.
    pub inbox_capacity: usize,
    /// Search nodes one session may burn per scheduler turn before
    /// yielding to the next runnable session.
    pub node_budget: u64,
    /// Base search configuration for every session's monitor.
    pub search: SearchConfig,
    /// Observability handle (sessions gauge, verdict-latency histogram,
    /// backpressure/eviction counters).
    pub obs: ObsHandle,
    /// Reap sessions idle (empty inbox, no accepted feed) for this many
    /// scheduler turns; `None` disables the reaper.
    pub idle_reap_turns: Option<u64>,
    /// Shed feeds with hinted `busy` frames once the run queue reaches
    /// this depth; `None` disables queue shedding.
    pub queue_watermark: Option<usize>,
    /// Shed opens with hinted `busy` frames once resident memo exceeds
    /// this many bytes; `None` disables memo shedding.
    pub memo_watermark_bytes: Option<u64>,
    /// Injected faults for the daemon loops (empty = none).
    pub fault_plan: FaultPlan,
    /// Append the session journal under this directory.
    pub journal_dir: Option<std::path::PathBuf>,
    /// Rebuild the table from `journal_dir`'s journal before serving.
    pub resume: bool,
    /// `sync_data` the journal every this many records.
    pub fsync_every: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 4096,
            memo_budget_bytes: None,
            inbox_capacity: 1024,
            node_budget: 50_000,
            search: SearchConfig::default(),
            obs: ObsHandle::disabled(),
            idle_reap_turns: None,
            queue_watermark: None,
            memo_watermark_bytes: None,
            fault_plan: FaultPlan::new(),
            journal_dir: None,
            resume: false,
            fsync_every: 32,
        }
    }
}

/// A server frame routed to the connection that must receive it.
#[derive(Clone, Debug)]
pub struct Routed {
    /// Transport routing tag (connection index; 0 for single-stream
    /// transports).
    pub conn: usize,
    /// The frame.
    pub frame: ServerFrame,
}

fn routed(conn: usize, frame: ServerFrame) -> Routed {
    Routed { conn, frame }
}

/// Input-stream records `--resume` must skip because their effects are
/// already journaled (the pre-crash prefix of a re-fed stream).
#[derive(Clone, Copy, Debug, Default)]
struct SkipCounts {
    /// Skip the session's (already journaled) `open` line.
    open: bool,
    /// Untagged `feed` lines to swallow (seq-tagged feeds dedup by `seq`
    /// instead, so they never consume skip counts).
    feeds: usize,
    /// Skip the `close` line of a session that completed before the crash.
    close: bool,
}

/// The multiplexer: all open sessions plus the scheduler's run queue.
pub struct SessionTable {
    config: ServeConfig,
    sessions: HashMap<String, Session>,
    /// Round-robin queue of sessions with non-empty inboxes. A session id
    /// appears at most once (enqueued when its inbox becomes non-empty).
    run_queue: VecDeque<String>,
    /// Latched when any session ever poisoned (drives the exit code).
    any_poisoned: bool,
    /// Scheduler clock: one tick per `pump_one` (the reaper's time base).
    clock: u64,
    /// The attached journal writer, if `--journal` is in force. Dropped on
    /// the first write error (graceful degradation: serving continues,
    /// journaling stops, one error frame reports it).
    journal: Option<JournalWriter>,
    /// Per-session skip counts installed by [`SessionTable::resume_from`].
    resume_skip: HashMap<String, SkipCounts>,
}

/// Runs one journal write, disabling journaling (and producing one
/// session-less error frame) on failure — a full disk degrades the daemon
/// to journal-less serving instead of killing sessions. A free function
/// over the journal field, so callers can hold a session borrow meanwhile.
fn write_journal(
    journal: &mut Option<JournalWriter>,
    obs: ObsHandle,
    write: impl FnOnce(&mut JournalWriter) -> std::io::Result<()>,
) -> Option<Routed> {
    let writer = journal.as_mut()?;
    match write(writer) {
        Ok(()) => {
            obs.counter_add("serve.journal_records", 1);
            None
        }
        Err(e) => {
            *journal = None;
            obs.counter_add("serve.journal_failed", 1);
            Some(routed(
                0,
                ServerFrame::Error {
                    session: None,
                    seq: None,
                    message: format!("journal write failed; journaling disabled: {e}"),
                },
            ))
        }
    }
}

impl SessionTable {
    /// An empty table.
    pub fn new(config: ServeConfig) -> Self {
        config.obs.gauge_set("serve.sessions", 0);
        SessionTable {
            config,
            sessions: HashMap::new(),
            run_queue: VecDeque::new(),
            any_poisoned: false,
            clock: 0,
            journal: None,
            resume_skip: HashMap::new(),
        }
    }

    /// Open sessions right now.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Did any session (open or since closed) ever hit a hard error?
    pub fn any_poisoned(&self) -> bool {
        self.any_poisoned
    }

    /// Is there no queued work?
    pub fn idle(&self) -> bool {
        self.run_queue.is_empty()
    }

    /// Scheduler turns taken so far (the reaper's clock).
    pub fn turns(&self) -> u64 {
        self.clock
    }

    /// The per-turn node budget currently in force.
    pub fn node_budget(&self) -> u64 {
        self.config.node_budget
    }

    /// Retunes the per-turn node budget (the fault plane's CPU-spike hook;
    /// scheduling-only, so verdict bytes cannot change).
    pub fn set_node_budget(&mut self, nodes: u64) {
        self.config.node_budget = nodes.max(1);
    }

    /// The global memo budget currently in force.
    pub fn memo_budget(&self) -> Option<u64> {
        self.config.memo_budget_bytes
    }

    /// Retunes the global memo budget and reapportions it across open
    /// sessions (the fault plane's memory-spike hook; memo is pure
    /// pruning, so verdict bytes cannot change).
    pub fn set_memo_budget(&mut self, bytes: Option<u64>) {
        self.config.memo_budget_bytes = bytes;
        self.apply_governor();
    }

    /// Attaches a journal writer; subsequent opens/feeds/cursor
    /// advances/closes are logged through it.
    pub fn attach_journal(&mut self, writer: JournalWriter) {
        self.journal = Some(writer);
    }

    /// Whether a journal is currently attached and healthy.
    pub fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Flushes and syncs the journal (drain, shutdown, injected crash).
    pub fn journal_flush(&mut self) {
        if let Some(w) = self.journal.as_mut() {
            if w.flush_sync().is_err() {
                self.journal = None;
            }
        }
    }

    /// Rebuilds the table from a recovered journal: closed sessions are
    /// skipped entirely (their poisoned flag still feeds the exit code),
    /// live sessions are reconstructed via `Session::recover` with their
    /// unanswered tail back in the inbox. Returns the number of live
    /// sessions recovered. Re-feeding the same input stream afterwards
    /// replays only what the journal had not yet seen: journaled opens,
    /// untagged feeds, and completed closes are skipped by count.
    pub fn resume_from(&mut self, state: &JournalState) -> usize {
        let obs = self.config.obs;
        let mut recovered = 0usize;
        for (id, js) in &state.sessions {
            if js.closed {
                self.any_poisoned |= js.poisoned_at_close;
                self.resume_skip.insert(
                    id.clone(),
                    SkipCounts {
                        open: true,
                        feeds: js.events.len(),
                        close: true,
                    },
                );
                continue;
            }
            let mut search = self.config.search;
            if let Some(cap) = self.governed_capacity(self.sessions.len() + 1) {
                search.memo_capacity = Some(cap);
            }
            obs.counter_add("serve.recovery_events", js.events.len() as u64);
            let session = Session::recover(id.clone(), 0, search, js.events.clone(), js.checked);
            if !session.inbox.is_empty() {
                self.run_queue.push_back(id.clone());
            }
            self.resume_skip.insert(
                id.clone(),
                SkipCounts {
                    open: true,
                    feeds: session.accepted(),
                    close: false,
                },
            );
            self.sessions.insert(id.clone(), session);
            recovered += 1;
        }
        self.apply_governor();
        obs.counter_add("serve.recovered_sessions", recovered as u64);
        obs.gauge_set("serve.sessions", self.sessions.len() as u64);
        recovered
    }

    /// Does `session` exist and have room for one more event? (The replay
    /// driver's flow-control probe; unknown sessions report `true` so the
    /// feed proceeds to its proper error path.) Honors the queue
    /// watermark, so replay under `--queue-watermark` flow-controls
    /// instead of shedding and stays busy-free.
    pub fn can_accept(&self, session: &str) -> bool {
        if let Some(wm) = self.config.queue_watermark {
            if self.run_queue.len() >= wm && self.sessions.contains_key(session) {
                return false;
            }
        }
        self.sessions
            .get(session)
            .map_or(true, |s| s.inbox.len() < self.config.inbox_capacity)
    }

    /// The per-session memo capacity the governor currently mandates
    /// (`None` = no budget configured; fall back to the base config).
    fn governed_capacity(&self, session_count: usize) -> Option<usize> {
        let budget = self.config.memo_budget_bytes?;
        let entries = (budget / EST_ENTRY_BYTES) as usize;
        Some((entries / session_count.max(1)).max(MIN_MEMO_CAP))
    }

    /// Reapplies the governor to every open session (on open/close and on
    /// runtime budget retunes — the points where the fair share changes).
    /// With no budget in force, sessions return to the base capacity (the
    /// spike-restore path needs the explicit reset).
    fn apply_governor(&mut self) {
        match self.governed_capacity(self.sessions.len()) {
            Some(cap) => {
                for s in self.sessions.values_mut() {
                    s.set_memo_capacity(Some(cap));
                }
                self.config
                    .obs
                    .gauge_set("serve.memo_capacity_per_session", cap as u64);
            }
            None => {
                let base = self.config.search.memo_capacity;
                for s in self.sessions.values_mut() {
                    s.set_memo_capacity(base);
                }
            }
        }
    }

    /// The overload hint attached to shed `busy` frames: one full cycle of
    /// the current run queue, after which the shed frame's turn comes up.
    fn retry_hint(&self) -> u64 {
        self.run_queue.len() as u64 + 1
    }

    /// Handles an `open` frame.
    pub fn open(&mut self, id: &str, conn: usize) -> Vec<Routed> {
        if let Some(skip) = self.resume_skip.get_mut(id) {
            if skip.open {
                // The journaled open already happened before the crash;
                // its `opened` frame was delivered then.
                skip.open = false;
                return Vec::new();
            }
        }
        if let Some(session) = self.sessions.get_mut(id) {
            if session.conn != conn {
                // A reconnecting client re-opens to re-bind its session to
                // the new connection; state and seq numbering carry over.
                session.conn = conn;
                self.config.obs.counter_add("serve.rebinds", 1);
                return vec![routed(
                    conn,
                    ServerFrame::Opened {
                        session: id.to_string(),
                    },
                )];
            }
            return vec![routed(
                conn,
                ServerFrame::Error {
                    session: Some(id.to_string()),
                    seq: None,
                    message: format!("session `{id}` is already open"),
                },
            )];
        }
        if self.sessions.len() >= self.config.max_sessions {
            self.config.obs.counter_add("serve.open_refused", 1);
            return vec![routed(
                conn,
                ServerFrame::Error {
                    session: Some(id.to_string()),
                    seq: None,
                    message: format!(
                        "session table full ({} open, --max-sessions {})",
                        self.sessions.len(),
                        self.config.max_sessions
                    ),
                },
            )];
        }
        if let Some(wm) = self.config.memo_watermark_bytes {
            if self.memo_resident() as u64 * EST_ENTRY_BYTES >= wm {
                self.config.obs.counter_add("serve.shed_opens", 1);
                return vec![routed(
                    conn,
                    ServerFrame::Busy {
                        session: id.to_string(),
                        inbox: self.config.inbox_capacity,
                        seq: None,
                        retry_after_turns: Some(self.retry_hint()),
                    },
                )];
            }
        }
        // Construct the monitor already bounded to the governed share so
        // its memo table picks a shard count matching its size class
        // (`set_capacity` keeps shard counts fixed).
        let mut search = self.config.search;
        if let Some(cap) = self.governed_capacity(self.sessions.len() + 1) {
            search.memo_capacity = Some(cap);
        }
        let mut session = Session::new(id.to_string(), conn, search);
        session.last_active = self.clock;
        self.sessions.insert(id.to_string(), session);
        self.apply_governor();
        let obs = self.config.obs;
        obs.counter_add("serve.sessions_opened", 1);
        obs.gauge_set("serve.sessions", self.sessions.len() as u64);
        let mut out = Vec::new();
        if let Some(err) = write_journal(&mut self.journal, self.config.obs, |w| w.open(id)) {
            out.push(err);
        }
        out.push(routed(
            conn,
            ServerFrame::Opened {
                session: id.to_string(),
            },
        ));
        out
    }

    /// Handles a `feed` frame: enqueues the event, or pushes back with
    /// `busy` when the session's inbox is full or the overload governor is
    /// shedding. Seq-tagged feeds are idempotent: duplicates are answered
    /// with `ack`, gaps with a positioned error.
    pub fn feed(&mut self, id: &str, event: Event, seq: Option<usize>, conn: usize) -> Vec<Routed> {
        if seq.is_none() {
            if let Some(skip) = self.resume_skip.get_mut(id) {
                if skip.feeds > 0 {
                    // Journaled before the crash: the event is already in
                    // the recovered monitor/inbox (or the closed summary).
                    skip.feeds -= 1;
                    return Vec::new();
                }
            }
        }
        let inbox_capacity = self.config.inbox_capacity;
        let queue_watermark = self.config.queue_watermark;
        let obs = self.config.obs;
        let clock = self.clock;
        let hint = self.retry_hint();
        let queue_depth = self.run_queue.len();
        let Some(session) = self.sessions.get_mut(id) else {
            return vec![routed(
                conn,
                ServerFrame::Error {
                    session: Some(id.to_string()),
                    seq: None,
                    message: format!("no open session `{id}`"),
                },
            )];
        };
        let would_be = session.accepted() + 1;
        if let Some(seq) = seq {
            if seq < would_be {
                // Idempotent resend of an already-accepted event: ack the
                // acceptance cursor instead of feeding twice.
                obs.counter_add("serve.dup_feeds", 1);
                return vec![routed(
                    conn,
                    ServerFrame::Ack {
                        session: id.to_string(),
                        seq: session.accepted(),
                    },
                )];
            }
            if seq > would_be {
                return vec![routed(
                    conn,
                    ServerFrame::Error {
                        session: Some(id.to_string()),
                        seq: Some(seq),
                        message: format!("feed seq gap: got {seq}, expected {would_be}"),
                    },
                )];
            }
        }
        if session.closing {
            return vec![routed(
                conn,
                ServerFrame::Error {
                    session: Some(id.to_string()),
                    seq: None,
                    message: format!("session `{id}` is closing"),
                },
            )];
        }
        if session.inbox.len() >= inbox_capacity {
            obs.counter_add("serve.busy", 1);
            return vec![routed(
                conn,
                ServerFrame::Busy {
                    session: id.to_string(),
                    inbox: inbox_capacity,
                    seq: Some(would_be),
                    retry_after_turns: None,
                },
            )];
        }
        if let Some(wm) = queue_watermark {
            if queue_depth >= wm {
                obs.counter_add("serve.shed_feeds", 1);
                return vec![routed(
                    conn,
                    ServerFrame::Busy {
                        session: id.to_string(),
                        inbox: inbox_capacity,
                        seq: Some(would_be),
                        retry_after_turns: Some(hint),
                    },
                )];
            }
        }
        // Journal the event before the inbox takes it: no copy is needed.
        let mut out = Vec::new();
        if let Some(err) = write_journal(&mut self.journal, obs, |w| w.event(id, &event)) {
            out.push(err);
        }
        let was_empty = session.inbox.is_empty();
        session.enqueue(event);
        session.last_active = clock;
        obs.counter_add("serve.frames_fed", 1);
        if was_empty {
            self.run_queue.push_back(id.to_string());
        }
        out
    }

    /// Handles a `close` frame: the session drains its inbox through the
    /// scheduler as usual, then emits its `closed` summary and is removed
    /// (immediately, when the inbox is already empty).
    pub fn close(&mut self, id: &str, conn: usize) -> Vec<Routed> {
        if let Some(skip) = self.resume_skip.get_mut(id) {
            if skip.close {
                // The session completed (summary delivered) pre-crash.
                skip.close = false;
                return Vec::new();
            }
        }
        let Some(session) = self.sessions.get_mut(id) else {
            return vec![routed(
                conn,
                ServerFrame::Error {
                    session: Some(id.to_string()),
                    seq: None,
                    message: format!("no open session `{id}`"),
                },
            )];
        };
        session.closing = true;
        if session.inbox.is_empty() {
            return self.finish(id);
        }
        Vec::new()
    }

    /// Removes a fully-drained closing session, emitting its summary.
    fn finish(&mut self, id: &str) -> Vec<Routed> {
        let Some(session) = self.sessions.remove(id) else {
            return Vec::new();
        };
        debug_assert!(session.inbox.is_empty() && session.closing);
        self.any_poisoned |= session.is_poisoned();
        self.apply_governor();
        let obs = self.config.obs;
        obs.counter_add("serve.sessions_closed", 1);
        obs.gauge_set("serve.sessions", self.sessions.len() as u64);
        let mut out = Vec::new();
        if let Some(err) = write_journal(&mut self.journal, self.config.obs, |w| {
            w.close(id, session.is_poisoned())
        }) {
            out.push(err);
        }
        out.push(routed(session.conn, session.summary()));
        out
    }

    /// Closes every session whose inbox is empty and whose last activity
    /// is at least `deadline` turns old (in id order, so reap output is
    /// deterministic). The reaper never touches sessions with queued work:
    /// a backlogged session is busy, not idle.
    fn reap_idle(&mut self, deadline: u64, out: &mut Vec<Routed>) {
        let mut due: Vec<String> = self
            .sessions
            .values()
            .filter(|s| {
                s.inbox.is_empty()
                    && !s.closing
                    && self.clock.saturating_sub(s.last_active) >= deadline
            })
            .map(|s| s.id.clone())
            .collect();
        due.sort();
        for id in due {
            if let Some(session) = self.sessions.get_mut(&id) {
                session.closing = true;
                session.reaped = true;
                self.config.obs.counter_add("serve.reaped", 1);
                out.extend(self.finish(&id));
            }
        }
    }

    /// One fair scheduler turn: the front runnable session checks inbox
    /// events until the turn's node budget is spent or its inbox drains.
    /// Advances the scheduler clock and runs the idle reaper. Returns the
    /// frames the turn produced (empty when idle).
    pub fn pump_one(&mut self) -> Vec<Routed> {
        self.clock += 1;
        let mut out = Vec::new();
        if let Some(deadline) = self.config.idle_reap_turns {
            self.reap_idle(deadline, &mut out);
        }
        let Some(id) = self.run_queue.pop_front() else {
            return out;
        };
        let obs = self.config.obs;
        let node_budget = self.config.node_budget;
        let clock = self.clock;
        let Some(session) = self.sessions.get_mut(&id) else {
            return out;
        };
        let conn = session.conn;
        let mut spent = 0u64;
        while spent < node_budget {
            match session.step(obs) {
                Some((frame, nodes)) => {
                    spent = spent.saturating_add(nodes.max(1));
                    out.push(routed(conn, frame));
                }
                None => break,
            }
        }
        session.last_active = clock;
        let cursor = session.response_cursor();
        let advanced = cursor > session.journaled_cursor;
        if advanced {
            session.journaled_cursor = cursor;
        }
        obs.counter_add("serve.turns", 1);
        let requeue = !session.inbox.is_empty();
        if advanced {
            if let Some(err) = write_journal(&mut self.journal, self.config.obs, |w| {
                w.checked(&id, cursor)
            }) {
                out.push(err);
            }
        }
        if requeue {
            self.run_queue.push_back(id);
        } else if self.sessions.get(&id).is_some_and(|s| s.closing) {
            out.extend(self.finish(&id));
        }
        out
    }

    /// Drains every runnable session to empty (EOF / shutdown): repeated
    /// fair turns, so even the final drain interleaves sessions.
    pub fn pump_all(&mut self) -> Vec<Routed> {
        let mut out = Vec::new();
        while !self.idle() {
            out.extend(self.pump_one());
        }
        out
    }

    /// Drains everything, then closes every still-open session (shutdown's
    /// final sweep: no event is dropped, every session gets its summary).
    /// Summaries are emitted in session-id order so shutdown output is
    /// deterministic even though `HashMap` iteration is not. Ends with a
    /// journal flush so a clean exit leaves a clean journal tail.
    pub fn drain_and_close_all(&mut self) -> Vec<Routed> {
        let mut out = self.pump_all();
        let mut ids: Vec<String> = self.sessions.keys().cloned().collect();
        ids.sort();
        for id in ids {
            if let Some(session) = self.sessions.get_mut(&id) {
                session.closing = true;
            }
            out.extend(self.finish(&id));
        }
        self.journal_flush();
        out
    }

    /// Total memo entries resident across open sessions (telemetry).
    pub fn memo_resident(&self) -> usize {
        self.sessions.values().map(Session::memo_resident).sum()
    }

    /// The per-session memo capacity the governor currently mandates
    /// (`None` when no `--memo-budget` is configured).
    pub fn memo_capacity_per_session(&self) -> Option<usize> {
        self.governed_capacity(self.sessions.len())
    }
}
