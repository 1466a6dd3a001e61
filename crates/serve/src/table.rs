//! The [`SessionTable`]: multiplexing, fair scheduling, memory governance,
//! backpressure, graceful degradation, and the journal hooks — the
//! daemon's brain, independent of any transport.
//!
//! ## Fairness and the node budget
//!
//! Sessions live in a slab, and one map from session id to slab handle is
//! consulted once per routed frame: a feed costs one id lookup and a turn
//! none. Runnable sessions (non-empty inbox) sit in a round-robin queue of
//! handles. One scheduler *turn* ([`SessionTable::pump_one`]) takes the
//! front session and checks events from its inbox until the cumulative
//! search nodes of the turn exceed [`ServeConfig::node_budget`] (checked *after* each
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
//! [`MIN_MEMO_CAP`]); with no budget in force they run at the base
//! capacity. A new session is built at its share, and the open sessions
//! are retuned only when an open, a close or a budget retune changes the
//! share. The retune hook
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
use crate::frame::{ServerFrame, SessionId};
use crate::journal::{JournalState, JournalWriter};
use crate::session::Session;

/// Estimated resident bytes per memo entry: what a session holds per
/// dead end it keeps, once the memo dominates its footprint.
///
/// Measured on the real-time-chained knots of 5 × 3 transactions: a served
/// session that checks them event by event holds 60 452 live bytes over
/// 250 resident entries, 242 B each (`crates/serve/tests/allocations.rs`
/// pins it and holds it under this constant), and the one-shot check of
/// the same knots leaves a session holding 53 496 B, 213 B each
/// (`crates/core/tests/monitor_footprint.rs`). The memo stores 8-byte
/// `(slot, value id)` pairs of the objects that the frontier's unplaced
/// transactions use, and the session numbers each object value once. The
/// figure is per entry, but it includes the transactions, objects and
/// values the session holds anyway: with 250 entries each carries a
/// larger share of them than with the 2 542 entries the same session
/// kept when every object was part of a key (203 B each).
pub const EST_ENTRY_BYTES: u64 = 242;

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

/// A session's slot in the table's slab. A closed session's slot is reused
/// by a later open; a handle in the run queue always names an open session
/// (only sessions with an empty inbox are removed).
pub(crate) type Handle = u32;

/// The multiplexer: all open sessions plus the scheduler's run queue.
pub struct SessionTable {
    config: ServeConfig,
    /// The open sessions, by handle (`None`: a free slot).
    slots: Vec<Option<Session>>,
    /// Free slots, reused most recently freed first.
    free: Vec<Handle>,
    /// The handle of every open session, by id.
    handles: HashMap<SessionId, Handle>,
    /// Round-robin queue of sessions with non-empty inboxes. A session
    /// appears at most once (enqueued when its inbox becomes non-empty).
    run_queue: VecDeque<Handle>,
    /// The memo capacity every open session runs under: the governor's
    /// last decision, or the base capacity.
    memo_capacity: Option<usize>,
    /// Latched when any session ever poisoned (drives the exit code).
    any_poisoned: bool,
    /// Scheduler clock: one tick per turn (the reaper's time base).
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
    out: &mut Vec<Routed>,
    write: impl FnOnce(&mut JournalWriter) -> std::io::Result<()>,
) {
    let Some(writer) = journal.as_mut() else {
        return;
    };
    match write(writer) {
        Ok(()) => obs.counter_add("serve.journal_records", 1),
        Err(e) => {
            *journal = None;
            obs.counter_add("serve.journal_failed", 1);
            out.push(routed(
                0,
                ServerFrame::Error {
                    session: None,
                    seq: None,
                    message: format!("journal write failed; journaling disabled: {e}"),
                },
            ));
        }
    }
}

/// A session-scoped error frame without a position.
fn session_error(conn: usize, id: &str, message: String) -> Routed {
    routed(
        conn,
        ServerFrame::Error {
            session: Some(id.into()),
            seq: None,
            message,
        },
    )
}

/// Runs `apply` on a fresh buffer: the owned-result form of the table's
/// buffer-appending calls.
fn collect(apply: impl FnOnce(&mut Vec<Routed>)) -> Vec<Routed> {
    let mut out = Vec::new();
    apply(&mut out);
    out
}

impl SessionTable {
    /// An empty table.
    pub fn new(config: ServeConfig) -> Self {
        config.obs.gauge_set("serve.sessions", 0);
        SessionTable {
            memo_capacity: config.search.memo_capacity,
            config,
            slots: Vec::new(),
            free: Vec::new(),
            handles: HashMap::new(),
            run_queue: VecDeque::new(),
            any_poisoned: false,
            clock: 0,
            journal: None,
            resume_skip: HashMap::new(),
        }
    }

    /// Open sessions right now.
    pub fn session_count(&self) -> usize {
        self.handles.len()
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

    /// The open sessions, with their handles.
    fn open_sessions(&self) -> impl Iterator<Item = (Handle, &Session)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(h, s)| Some((h as Handle, s.as_ref()?)))
    }

    /// The open session behind `handle`.
    fn session_mut(&mut self, handle: Handle) -> Option<&mut Session> {
        self.slots.get_mut(handle as usize)?.as_mut()
    }

    /// The handle of the open session `id`: the table's one id lookup.
    pub(crate) fn lookup(&self, id: &str) -> Option<Handle> {
        self.handles.get(id).copied()
    }

    /// Stores a new session in a free slot (or a new one) and indexes it.
    fn insert(&mut self, session: Session) -> Handle {
        let id = session.id.clone();
        let handle = match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = Some(session);
                h
            }
            None => {
                self.slots.push(Some(session));
                (self.slots.len() - 1) as Handle
            }
        };
        self.handles.insert(id, handle);
        handle
    }

    /// A new session's search configuration: the base one, bounded to the
    /// fair share it will have once it is open. A monitor built at its
    /// share picks the memo shard count of its size class (`set_capacity`
    /// keeps shard counts fixed), and needs no retune.
    fn new_session_search(&self) -> SearchConfig {
        let mut search = self.config.search;
        if let Some(cap) = self.governed_capacity(self.handles.len() + 1) {
            search.memo_capacity = Some(cap);
        }
        search
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
            let search = self.new_session_search();
            obs.counter_add("serve.recovery_events", js.events.len() as u64);
            let session =
                Session::recover(id.as_str().into(), 0, search, js.events.clone(), js.checked);
            let queued = !session.inbox.is_empty();
            self.resume_skip.insert(
                id.clone(),
                SkipCounts {
                    open: true,
                    feeds: session.accepted(),
                    close: false,
                },
            );
            let handle = self.insert(session);
            if queued {
                self.run_queue.push_back(handle);
            }
            recovered += 1;
        }
        self.apply_governor();
        obs.counter_add("serve.recovered_sessions", recovered as u64);
        obs.gauge_set("serve.sessions", self.handles.len() as u64);
        recovered
    }

    /// Does the session behind `handle` ([`SessionTable::lookup`]'s
    /// answer) have room for one more event? (The replay driver's
    /// flow-control probe; unknown sessions report `true` so the feed
    /// proceeds to its proper error path.) Honors the queue watermark, so
    /// replay under `--queue-watermark` flow-controls instead of shedding
    /// and stays busy-free.
    pub(crate) fn has_room(&self, handle: Option<Handle>) -> bool {
        let Some(session) = handle.and_then(|h| self.slots.get(h as usize)?.as_ref()) else {
            return true;
        };
        if let Some(wm) = self.config.queue_watermark {
            if self.run_queue.len() >= wm {
                return false;
            }
        }
        session.inbox.len() < self.config.inbox_capacity
    }

    /// The per-session memo capacity the governor currently mandates
    /// (`None` = no budget configured; fall back to the base config).
    fn governed_capacity(&self, session_count: usize) -> Option<usize> {
        let budget = self.config.memo_budget_bytes?;
        let entries = (budget / EST_ENTRY_BYTES) as usize;
        Some((entries / session_count.max(1)).max(MIN_MEMO_CAP))
    }

    /// Retunes every open session when the capacity the governor mandates
    /// has changed: on open/close and on runtime budget retunes, the
    /// points where the fair share can change. With no budget in force,
    /// sessions return to the base capacity (the spike-restore path needs
    /// the explicit reset). A new session was built at its share already.
    fn apply_governor(&mut self) {
        let governed = self.governed_capacity(self.handles.len());
        let cap = governed.or(self.config.search.memo_capacity);
        if cap == self.memo_capacity {
            return;
        }
        self.memo_capacity = cap;
        for s in self.slots.iter_mut().flatten() {
            s.set_memo_capacity(cap);
        }
        if let Some(cap) = governed {
            self.config
                .obs
                .gauge_set("serve.memo_capacity_per_session", cap as u64);
        }
    }

    /// The overload hint attached to shed `busy` frames: one full cycle of
    /// the current run queue, after which the shed frame's turn comes up.
    fn retry_hint(&self) -> u64 {
        self.run_queue.len() as u64 + 1
    }

    /// Handles an `open` frame.
    pub fn open(&mut self, id: &str, conn: usize) -> Vec<Routed> {
        collect(|out| self.open_into(id, conn, out))
    }

    /// [`SessionTable::open`], appending its frames to `out`.
    pub(crate) fn open_into(&mut self, id: &str, conn: usize, out: &mut Vec<Routed>) {
        if let Some(skip) = self.resume_skip.get_mut(id) {
            if skip.open {
                // The journaled open already happened before the crash;
                // its `opened` frame was delivered then.
                skip.open = false;
                return;
            }
        }
        if let Some(handle) = self.lookup(id) {
            let obs = self.config.obs;
            let Some(session) = self.session_mut(handle) else {
                return;
            };
            if session.conn != conn {
                // A reconnecting client re-opens to re-bind its session to
                // the new connection; state and seq numbering carry over.
                session.conn = conn;
                obs.counter_add("serve.rebinds", 1);
                let session = session.id.clone();
                out.push(routed(conn, ServerFrame::Opened { session }));
                return;
            }
            out.push(session_error(
                conn,
                id,
                format!("session `{id}` is already open"),
            ));
            return;
        }
        if self.handles.len() >= self.config.max_sessions {
            self.config.obs.counter_add("serve.open_refused", 1);
            let message = format!(
                "session table full ({} open, --max-sessions {})",
                self.handles.len(),
                self.config.max_sessions
            );
            out.push(session_error(conn, id, message));
            return;
        }
        if let Some(wm) = self.config.memo_watermark_bytes {
            if self.memo_resident() as u64 * EST_ENTRY_BYTES >= wm {
                self.config.obs.counter_add("serve.shed_opens", 1);
                out.push(routed(
                    conn,
                    ServerFrame::Busy {
                        session: id.into(),
                        inbox: self.config.inbox_capacity,
                        seq: None,
                        retry_after_turns: Some(self.retry_hint()),
                    },
                ));
                return;
            }
        }
        let mut session = Session::new(id.into(), conn, self.new_session_search());
        session.last_active = self.clock;
        let session_id = session.id.clone();
        self.insert(session);
        self.apply_governor();
        let obs = self.config.obs;
        obs.counter_add("serve.sessions_opened", 1);
        obs.gauge_set("serve.sessions", self.handles.len() as u64);
        write_journal(&mut self.journal, obs, out, |w| w.open(id));
        out.push(routed(
            conn,
            ServerFrame::Opened {
                session: session_id,
            },
        ));
    }

    /// Handles a `feed` frame: enqueues the event, or pushes back with
    /// `busy` when the session's inbox is full or the overload governor is
    /// shedding. Seq-tagged feeds are idempotent: duplicates are answered
    /// with `ack`, gaps with a positioned error.
    pub fn feed(&mut self, id: &str, event: Event, seq: Option<usize>, conn: usize) -> Vec<Routed> {
        let handle = self.lookup(id);
        collect(|out| self.feed_into(handle, id, event, seq, conn, out))
    }

    /// [`SessionTable::feed`] for a session already looked up (`handle` is
    /// [`SessionTable::lookup`]'s answer for `id`), appending its frames to
    /// `out`.
    pub(crate) fn feed_into(
        &mut self,
        handle: Option<Handle>,
        id: &str,
        event: Event,
        seq: Option<usize>,
        conn: usize,
        out: &mut Vec<Routed>,
    ) {
        if seq.is_none() && !self.resume_skip.is_empty() {
            if let Some(skip) = self.resume_skip.get_mut(id) {
                if skip.feeds > 0 {
                    // Journaled before the crash: the event is already in
                    // the recovered monitor/inbox (or the closed summary).
                    skip.feeds -= 1;
                    return;
                }
            }
        }
        let inbox_capacity = self.config.inbox_capacity;
        let queue_watermark = self.config.queue_watermark;
        let obs = self.config.obs;
        let clock = self.clock;
        let hint = self.retry_hint();
        let queue_depth = self.run_queue.len();
        let Some((h, session)) =
            handle.and_then(|h| Some((h, self.slots.get_mut(h as usize)?.as_mut()?)))
        else {
            out.push(session_error(conn, id, format!("no open session `{id}`")));
            return;
        };
        let would_be = session.accepted() + 1;
        if let Some(seq) = seq {
            if seq < would_be {
                // Idempotent resend of an already-accepted event: ack the
                // acceptance cursor instead of feeding twice.
                obs.counter_add("serve.dup_feeds", 1);
                out.push(routed(
                    conn,
                    ServerFrame::Ack {
                        session: session.id.clone(),
                        seq: session.accepted(),
                    },
                ));
                return;
            }
            if seq > would_be {
                out.push(routed(
                    conn,
                    ServerFrame::Error {
                        session: Some(session.id.clone()),
                        seq: Some(seq),
                        message: format!("feed seq gap: got {seq}, expected {would_be}"),
                    },
                ));
                return;
            }
        }
        if session.closing {
            out.push(session_error(
                conn,
                id,
                format!("session `{id}` is closing"),
            ));
            return;
        }
        if session.inbox.len() >= inbox_capacity {
            obs.counter_add("serve.busy", 1);
            out.push(routed(
                conn,
                ServerFrame::Busy {
                    session: session.id.clone(),
                    inbox: inbox_capacity,
                    seq: Some(would_be),
                    retry_after_turns: None,
                },
            ));
            return;
        }
        if let Some(wm) = queue_watermark {
            if queue_depth >= wm {
                obs.counter_add("serve.shed_feeds", 1);
                out.push(routed(
                    conn,
                    ServerFrame::Busy {
                        session: session.id.clone(),
                        inbox: inbox_capacity,
                        seq: Some(would_be),
                        retry_after_turns: Some(hint),
                    },
                ));
                return;
            }
        }
        // Journal the event before the inbox takes it: no copy is needed.
        write_journal(&mut self.journal, obs, out, |w| w.event(id, &event));
        let was_empty = session.inbox.is_empty();
        session.enqueue(event);
        session.last_active = clock;
        obs.counter_add("serve.frames_fed", 1);
        if was_empty {
            self.run_queue.push_back(h);
        }
    }

    /// Handles a `close` frame: the session drains its inbox through the
    /// scheduler as usual, then emits its `closed` summary and is removed
    /// (immediately, when the inbox is already empty).
    pub fn close(&mut self, id: &str, conn: usize) -> Vec<Routed> {
        collect(|out| self.close_into(id, conn, out))
    }

    /// [`SessionTable::close`], appending its frames to `out`.
    pub(crate) fn close_into(&mut self, id: &str, conn: usize, out: &mut Vec<Routed>) {
        if let Some(skip) = self.resume_skip.get_mut(id) {
            if skip.close {
                // The session completed (summary delivered) pre-crash.
                skip.close = false;
                return;
            }
        }
        let Some(handle) = self.lookup(id) else {
            out.push(session_error(conn, id, format!("no open session `{id}`")));
            return;
        };
        let Some(session) = self.session_mut(handle) else {
            return;
        };
        session.closing = true;
        if session.inbox.is_empty() {
            self.finish(handle, out);
        }
    }

    /// Removes a fully-drained closing session, emitting its summary.
    fn finish(&mut self, handle: Handle, out: &mut Vec<Routed>) {
        let Some(session) = self.slots.get_mut(handle as usize).and_then(Option::take) else {
            return;
        };
        debug_assert!(session.inbox.is_empty() && session.closing);
        self.free.push(handle);
        self.handles.remove(&*session.id);
        self.any_poisoned |= session.is_poisoned();
        self.apply_governor();
        let obs = self.config.obs;
        obs.counter_add("serve.sessions_closed", 1);
        obs.gauge_set("serve.sessions", self.handles.len() as u64);
        write_journal(&mut self.journal, obs, out, |w| {
            w.close(&session.id, session.is_poisoned())
        });
        out.push(routed(session.conn, session.summary()));
    }

    /// Closes every session whose inbox is empty and whose last activity
    /// is at least `deadline` turns old (in id order, so reap output is
    /// deterministic). The reaper never touches sessions with queued work:
    /// a backlogged session is busy, not idle.
    fn reap_idle(&mut self, deadline: u64, out: &mut Vec<Routed>) {
        let mut due: Vec<(SessionId, Handle)> = self
            .open_sessions()
            .filter(|(_, s)| {
                s.inbox.is_empty()
                    && !s.closing
                    && self.clock.saturating_sub(s.last_active) >= deadline
            })
            .map(|(h, s)| (s.id.clone(), h))
            .collect();
        due.sort();
        for (_, handle) in due {
            if let Some(session) = self.session_mut(handle) {
                session.closing = true;
                session.reaped = true;
                self.config.obs.counter_add("serve.reaped", 1);
                self.finish(handle, out);
            }
        }
    }

    /// One fair scheduler turn: the front runnable session checks inbox
    /// events until the turn's node budget is spent or its inbox drains.
    /// Advances the scheduler clock and runs the idle reaper. Returns the
    /// frames the turn produced (empty when idle).
    pub fn pump_one(&mut self) -> Vec<Routed> {
        collect(|out| self.pump_into(out))
    }

    /// [`SessionTable::pump_one`], appending the turn's frames to `out` —
    /// the daemon loops reuse one buffer for every turn.
    pub(crate) fn pump_into(&mut self, out: &mut Vec<Routed>) {
        self.clock += 1;
        if let Some(deadline) = self.config.idle_reap_turns {
            self.reap_idle(deadline, out);
        }
        let Some(handle) = self.run_queue.pop_front() else {
            return;
        };
        let obs = self.config.obs;
        let node_budget = self.config.node_budget;
        let clock = self.clock;
        let Some(session) = self.slots.get_mut(handle as usize).and_then(Option::as_mut) else {
            return;
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
        let closing = session.closing;
        if advanced {
            write_journal(&mut self.journal, obs, out, |w| {
                w.checked(&session.id, cursor)
            });
        }
        if requeue {
            self.run_queue.push_back(handle);
        } else if closing {
            self.finish(handle, out);
        }
    }

    /// Drains every runnable session to empty (EOF / shutdown): repeated
    /// fair turns, so even the final drain interleaves sessions.
    pub fn pump_all(&mut self) -> Vec<Routed> {
        collect(|out| {
            while !self.idle() {
                self.pump_into(out);
            }
        })
    }

    /// Drains everything, then closes every still-open session (shutdown's
    /// final sweep: no event is dropped, every session gets its summary).
    /// Summaries are emitted in session-id order so shutdown output is
    /// deterministic whatever slots the sessions occupy. Ends with a
    /// journal flush so a clean exit leaves a clean journal tail.
    pub fn drain_and_close_all(&mut self) -> Vec<Routed> {
        let mut out = self.pump_all();
        let mut open: Vec<(SessionId, Handle)> = self
            .open_sessions()
            .map(|(h, s)| (s.id.clone(), h))
            .collect();
        open.sort();
        for (_, handle) in open {
            if let Some(session) = self.session_mut(handle) {
                session.closing = true;
            }
            self.finish(handle, &mut out);
        }
        self.journal_flush();
        out
    }

    /// Total memo entries resident across open sessions (telemetry).
    pub fn memo_resident(&self) -> usize {
        self.open_sessions().map(|(_, s)| s.memo_resident()).sum()
    }

    /// The per-session memo capacity the governor currently mandates
    /// (`None` when no `--memo-budget` is configured).
    pub fn memo_capacity_per_session(&self) -> Option<usize> {
        self.governed_capacity(self.handles.len())
    }
}
