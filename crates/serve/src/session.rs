//! One multiplexed check session: a resumable [`OpacityMonitor`] plus the
//! bounded inbox that decouples frame ingest from checking.
//!
//! The session is where the daemon's multiplexing discipline bottoms out in
//! the paper's machinery: every accepted `feed` event eventually flows
//! through [`OpacityMonitor::feed`], which drives the same resumable
//! `CheckSession` a standalone caller would — so a session's verdict
//! stream is a pure function of its own event stream. Scheduling (when the
//! inbox drains), memory governance (what `memo_capacity` the monitor runs
//! under), and backpressure (whether a `feed` was accepted at all) can
//! change *when* verdicts appear and how much work they cost, never what
//! they say. That purity is also what makes crash recovery sound: a
//! session rebuilt by [`Session::recover`] from its journaled event prefix
//! is indistinguishable from the one the crash destroyed.

use std::collections::VecDeque;
use std::time::Instant;

use tm_model::Event;
use tm_obs::ObsHandle;
use tm_opacity::incremental::{MonitorVerdict, OpacityMonitor};
use tm_opacity::search::SearchConfig;

use crate::frame::{ServerFrame, SessionId};
use crate::specs;

/// One open session.
pub(crate) struct Session {
    /// The client-chosen identifier, shared by every frame naming the
    /// session.
    pub(crate) id: SessionId,
    /// The resumable checker.
    monitor: OpacityMonitor<'static>,
    /// Accepted-but-unchecked events, bounded by the table's inbox capacity.
    pub(crate) inbox: VecDeque<Event>,
    /// Events accepted over the session's lifetime (inbox + checked).
    accepted: usize,
    /// A `close` frame arrived; emit the summary once the inbox drains.
    pub(crate) closing: bool,
    /// Transport routing tag (which connection opened the session; re-bound
    /// when the client reconnects and re-opens).
    pub(crate) conn: usize,
    /// Scheduler-clock value of the session's last activity (open, accepted
    /// feed, or a turn that drained inbox work) — the idle reaper's input.
    pub(crate) last_active: u64,
    /// The response cursor last written to the journal (events answered).
    pub(crate) journaled_cursor: usize,
    /// Set by the idle reaper so the summary carries `"reaped":true`.
    pub(crate) reaped: bool,
}

impl Session {
    /// Opens a session whose monitor runs under `search` (the governed
    /// `memo_capacity` is already folded in by the table).
    pub(crate) fn new(id: SessionId, conn: usize, search: SearchConfig) -> Self {
        Session {
            id,
            monitor: OpacityMonitor::new(specs()).with_config(search),
            inbox: VecDeque::new(),
            accepted: 0,
            closing: false,
            conn,
            last_active: 0,
            journaled_cursor: 0,
            reaped: false,
        }
    }

    /// Rebuilds a session from its journaled state: the first `checked`
    /// events are re-fed silently through a fresh monitor (their response
    /// frames were delivered before the crash), the rest re-enter the
    /// inbox to be answered normally. `accepted` counts every journaled
    /// event, so `seq` numbering continues exactly where it stopped.
    pub(crate) fn recover(
        id: SessionId,
        conn: usize,
        search: SearchConfig,
        events: Vec<Event>,
        checked: usize,
    ) -> Self {
        let checked = checked.min(events.len());
        let monitor = OpacityMonitor::recover(specs(), search, &events[..checked]);
        let inbox: VecDeque<Event> = events[checked..].iter().cloned().collect();
        Session {
            id,
            monitor,
            inbox,
            accepted: events.len(),
            closing: false,
            conn,
            last_active: 0,
            journaled_cursor: checked,
            reaped: false,
        }
    }

    /// Memo entries resident in the session's search core (telemetry).
    pub(crate) fn memo_resident(&self) -> usize {
        self.monitor.memo_resident()
    }

    /// Events accepted over the session's lifetime.
    pub(crate) fn accepted(&self) -> usize {
        self.accepted
    }

    /// Events already answered with a response frame (the journal's `ck`
    /// cursor): everything accepted that is no longer in the inbox.
    pub(crate) fn response_cursor(&self) -> usize {
        self.accepted - self.inbox.len()
    }

    /// Queues one event (capacity is enforced by the caller — the table
    /// owns the inbox bound so backpressure is observable in one place).
    pub(crate) fn enqueue(&mut self, event: Event) {
        self.inbox.push_back(event);
        self.accepted += 1;
    }

    /// Whether the monitor latched a hard check error (ill-formed event,
    /// engine limit). Poisoned sessions reject further feeds with `error`
    /// frames.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.monitor.is_poisoned()
    }

    /// Retunes the monitor's memo capacity (the governor's hook).
    pub(crate) fn set_memo_capacity(&mut self, capacity: Option<usize>) {
        self.monitor.set_memo_capacity(capacity);
    }

    /// Checks the oldest inbox event, returning the frame to emit and the
    /// search nodes the check cost (the scheduler's budget currency).
    /// Returns `None` when the inbox is empty. The verdict latency is timed
    /// only when `obs` records it.
    pub(crate) fn step(&mut self, obs: ObsHandle) -> Option<(ServerFrame, u64)> {
        let event = self.inbox.pop_front()?;
        let seq = self.accepted - self.inbox.len();
        if self.is_poisoned() {
            // The monitor latches hard errors; don't burn a feed to
            // rediscover one we already reported.
            return Some((
                ServerFrame::Error {
                    session: Some(self.id.clone()),
                    seq: Some(seq),
                    message: "session poisoned by an earlier error".into(),
                },
                0,
            ));
        }
        let start = obs.enabled().then(Instant::now);
        let nodes_before = self.monitor.lifetime_stats().nodes;
        let fed = self.monitor.feed(event);
        match fed {
            Ok(verdict) => {
                if let Some(start) = start {
                    obs.observe("serve.verdict_ns", start.elapsed().as_nanos() as u64);
                }
                obs.counter_add("serve.verdicts", 1);
                // Charge the scheduler for the nodes of the check this feed
                // ran, if any: invocation-skips and sticky repeat-violations
                // run none and are near-free.
                let nodes = (self.monitor.lifetime_stats().nodes - nodes_before) as u64;
                let (verdict, at) = match verdict {
                    MonitorVerdict::OpaqueChecked => ("opaque", None),
                    MonitorVerdict::OpaqueBySkip => ("opaque_skip", None),
                    MonitorVerdict::Violated { at } => ("violated", Some(at)),
                };
                Some((
                    ServerFrame::Verdict {
                        session: self.id.clone(),
                        seq,
                        verdict,
                        at,
                    },
                    nodes,
                ))
            }
            Err(err) => {
                obs.counter_add("serve.poisoned", 1);
                Some((
                    ServerFrame::Error {
                        session: Some(self.id.clone()),
                        seq: Some(seq),
                        message: err.to_string(),
                    },
                    0,
                ))
            }
        }
    }

    /// The end-of-session summary.
    pub(crate) fn summary(&self) -> ServerFrame {
        let (checks, _skipped) = self.monitor.check_counts();
        ServerFrame::Closed {
            session: self.id.clone(),
            events: self.accepted,
            checks,
            violated_at: self.monitor.violated_at(),
            poisoned: self.is_poisoned(),
            reaped: self.reaped,
        }
    }
}
