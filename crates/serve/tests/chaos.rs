//! The chaos property suite: seeded fault plans against the daemon's
//! robustness contract.
//!
//! Three pinned properties:
//!
//! 1. **No generated plan crashes the daemon.** Any plan drawn from the
//!    verdict-preserving kinds (torn frames, dropped lines, stalls, budget
//!    spikes) yields a normal exit — the fault plane degrades, never
//!    panics.
//! 2. **Unaffected sessions are byte-identical.** Sessions whose input no
//!    injected mutation touched produce exactly the frames of the
//!    fault-free run, byte for byte — injected chaos is perfectly
//!    contained to the sessions it hits.
//! 3. **Kill + `--resume` equals the uninterrupted run.** An injected
//!    crash mid-stream (journal flushed, exit 3) followed by a resumed
//!    replay of the same input produces, per session, the same verdict
//!    and summary lines as a run that was never interrupted.
//!
//! Plus the client half of the story: a [`Client`] over a fault-injecting
//! in-memory link reaches the fault-free outcome exactly once despite
//! connection drops, lost responses, and `busy` pushback.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::PathBuf;

use tm_harness::randhist::{random_history, GenConfig};
use tm_model::History;
use tm_serve::faults::VERDICT_PRESERVING_KINDS;
use tm_serve::{
    parse_client_frame, replay, Backoff, Client, ClientFrame, Fault, FaultPlan, FrameLink, Routed,
    ServeConfig, SessionTable, CRASH_EXIT_CODE,
};
use tm_trace::Json;

#[path = "common/streams.rs"]
mod streams;
use streams::interleaved_stream;

/// A fleet of random sessions across the three generator profiles.
fn battery(n: usize, base_seed: u64) -> Vec<(String, History)> {
    let profiles = [
        GenConfig::default(),
        GenConfig {
            txs: 6,
            objs: 2,
            max_ops: 5,
            noise: 0.4,
            commit_pending: 0.3,
            abort: 0.2,
        },
        GenConfig {
            txs: 5,
            objs: 1,
            max_ops: 4,
            noise: 0.6,
            commit_pending: 0.2,
            abort: 0.4,
        },
    ];
    (0..n)
        .map(|i| {
            (
                format!("s{i:02}"),
                random_history(&profiles[i % 3], base_seed * 131 + i as u64),
            )
        })
        .collect()
}

fn run_replay(config: ServeConfig, stream: &str) -> (i32, String) {
    let mut out = Vec::new();
    let code = replay(config, stream, &mut out);
    (
        code,
        String::from_utf8(out).expect("daemon output is UTF-8"),
    )
}

/// Groups output lines by their `session` field (exact bytes, per-session
/// order). `kinds` filters on the `frame` field when non-empty.
fn session_lines(output: &str, kinds: &[&str]) -> BTreeMap<String, Vec<String>> {
    let mut by_session: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in output.lines() {
        let doc = Json::parse(line).expect("daemon emits valid JSON");
        if !kinds.is_empty() {
            match doc.get("frame") {
                Some(Json::Str(k)) if kinds.contains(&k.as_str()) => {}
                _ => continue,
            }
        }
        if let Some(Json::Str(session)) = doc.get("session") {
            by_session
                .entry(session.clone())
                .or_default()
                .push(line.to_string());
        }
    }
    by_session
}

/// A conservative superset of the sessions the plan's input mutations can
/// touch: the session of every torn line and of every line inside a drop
/// span. (Overlapping drops make this a superset of the driver's exact
/// attribution — sound for the "unaffected must be identical" property.)
fn affected_superset(plan: &FaultPlan, stream: &str) -> BTreeSet<String> {
    let lines: Vec<&str> = stream.lines().collect();
    let mut affected = BTreeSet::new();
    let mut mark = |idx: usize| {
        if let Some(line) = lines.get(idx) {
            if let Ok(doc) = Json::parse(line) {
                if let Some(Json::Str(s)) = doc.get("session") {
                    affected.insert(s.clone());
                }
            }
        }
    };
    for (frame, fault) in plan.iter() {
        match fault {
            Fault::Torn { .. } => mark(frame - 1),
            Fault::Drop { frames } => {
                for k in 0..*frames {
                    mark(frame - 1 + k);
                }
            }
            _ => {}
        }
    }
    affected
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tm-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

#[test]
fn generated_fault_plans_never_crash_and_spare_unaffected_sessions() {
    for seed in [11u64, 23, 47] {
        let sessions = battery(36, seed);
        let stream = interleaved_stream(&sessions);
        let total = stream.lines().count();
        let (ref_code, ref_out) = run_replay(ServeConfig::default(), &stream);
        assert!(
            ref_code == 0 || ref_code == 1,
            "seed {seed}: fault-free run exited {ref_code}"
        );
        let reference = session_lines(&ref_out, &[]);

        let plan = FaultPlan::generate(seed, total, 24, VERDICT_PRESERVING_KINDS);
        assert!(!plan.is_empty(), "seed {seed} generated an empty plan");
        let config = ServeConfig {
            fault_plan: plan.clone(),
            ..ServeConfig::default()
        };
        let (code, out) = run_replay(config, &stream);
        assert!(
            code == 0 || code == 1,
            "seed {seed}: injected faults must degrade, not crash (exit {code})"
        );

        let affected = affected_superset(&plan, &stream);
        let got = session_lines(&out, &[]);
        let mut spared = 0usize;
        for (id, _) in &sessions {
            if affected.contains(id) {
                continue;
            }
            spared += 1;
            assert_eq!(
                got.get(id),
                reference.get(id),
                "seed {seed}: unaffected session {id} diverged from the fault-free run"
            );
        }
        assert!(
            spared >= sessions.len() / 2,
            "seed {seed}: a 24-fault plan should leave most of {} sessions untouched \
             (spared {spared})",
            sessions.len()
        );
    }
}

#[test]
fn kill_and_resume_matches_the_uninterrupted_run_per_session() {
    for seed in [3u64, 8, 21] {
        let sessions = battery(32, 1000 + seed);
        let stream = interleaved_stream(&sessions);
        let n = stream.lines().count();
        let (ref_code, ref_out) = run_replay(ServeConfig::default(), &stream);
        let reference = session_lines(&ref_out, &["verdict", "closed"]);

        for crash_at in [n / 4, n / 2, 3 * n / 4] {
            let dir = temp_dir(&format!("resume-{seed}-{crash_at}"));
            let mut plan = FaultPlan::new();
            plan.schedule(crash_at.max(2), Fault::Crash);
            let (code1, out1) = run_replay(
                ServeConfig {
                    fault_plan: plan,
                    journal_dir: Some(dir.clone()),
                    ..ServeConfig::default()
                },
                &stream,
            );
            assert_eq!(
                code1, CRASH_EXIT_CODE,
                "seed {seed}: the guillotine at frame {crash_at} must fire"
            );
            let (code2, out2) = run_replay(
                ServeConfig {
                    journal_dir: Some(dir.clone()),
                    resume: true,
                    ..ServeConfig::default()
                },
                &stream,
            );
            assert_eq!(
                code2, ref_code,
                "seed {seed}: the resumed run's exit code must match the uninterrupted run"
            );
            let stitched = format!("{out1}{out2}");
            assert_eq!(
                session_lines(&stitched, &["verdict", "closed"]),
                reference,
                "seed {seed}: crash at {crash_at} + resume diverged from the \
                 uninterrupted run"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_torn_journal_tail_resumes_from_the_longest_valid_prefix() {
    let sessions = battery(8, 777);
    let stream = interleaved_stream(&sessions);
    let dir = temp_dir("torn-tail");
    let mut plan = FaultPlan::new();
    plan.schedule(stream.lines().count() / 2, Fault::Crash);
    let (code1, _) = run_replay(
        ServeConfig {
            fault_plan: plan,
            journal_dir: Some(dir.clone()),
            fsync_every: 1,
            ..ServeConfig::default()
        },
        &stream,
    );
    assert_eq!(code1, CRASH_EXIT_CODE);

    // Tear the journal mid-record, as a crash inside a write would.
    let path = tm_serve::journal::journal_path(&dir);
    let bytes = std::fs::read(&path).expect("journal exists");
    assert!(bytes.len() > 8, "journal too short to tear");
    std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear journal");
    let state = tm_serve::read_journal(&dir).expect("torn tail still reads");
    assert!(
        state.torn_bytes > 0,
        "the tear must surface as a torn tail, not an error"
    );

    // Resume never panics on a torn tail: the valid prefix recovers, the
    // replay re-feeds the rest, and the run completes normally.
    let (code2, out2) = run_replay(
        ServeConfig {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..ServeConfig::default()
        },
        &stream,
    );
    assert!(
        code2 == 0 || code2 == 1,
        "resume from a torn journal must complete (exit {code2})"
    );
    assert_eq!(
        session_lines(&out2, &["closed"]).len(),
        sessions.len(),
        "every session still reaches its summary"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_sessions_are_reaped_with_a_flagged_summary() {
    let mut table = SessionTable::new(ServeConfig {
        idle_reap_turns: Some(4),
        ..ServeConfig::default()
    });
    table.open("worker", 0);
    table.open("idler", 0);
    let h = random_history(&GenConfig::default(), 1);
    let mut out = Vec::new();
    for e in h.events() {
        out.extend(table.feed("worker", e.clone(), None, 0));
        out.extend(table.pump_one());
    }
    for _ in 0..16 {
        out.extend(table.pump_one());
    }
    let reaped: Vec<&Routed> = out
        .iter()
        .filter(|r| {
            matches!(
                &r.frame,
                tm_serve::ServerFrame::Closed {
                    session,
                    reaped: true,
                    events: 0,
                    ..
                } if session == "idler"
            )
        })
        .collect();
    assert_eq!(
        reaped.len(),
        1,
        "the idle session must be reaped exactly once with reaped:true"
    );
    // The busy session outlived the idler's deadline (feeds kept it
    // active), then idled out itself once its stream went quiet.
    assert_eq!(table.session_count(), 0, "both sessions eventually reaped");
    let worker_summary = out.iter().find(|r| {
        matches!(
            &r.frame,
            tm_serve::ServerFrame::Closed { session, .. } if session == "worker"
        )
    });
    assert!(
        matches!(
            &worker_summary.expect("worker summary").frame,
            tm_serve::ServerFrame::Closed { events, reaped: true, .. } if *events == h.len()
        ),
        "the worker drained all its events before its own reap"
    );
}

#[test]
fn feeds_past_the_queue_watermark_bounce_with_a_retry_hint() {
    let mut table = SessionTable::new(ServeConfig {
        queue_watermark: Some(2),
        ..ServeConfig::default()
    });
    for i in 0..3 {
        table.open(&format!("s{i}"), 0);
    }
    let e = tm_model::Event::TryCommit(tm_model::TxId(1));
    assert!(table.feed("s0", e.clone(), None, 0).is_empty());
    assert!(table.feed("s1", e.clone(), None, 0).is_empty());
    // Two sessions queued: the governor sheds the third with a hint that
    // covers one full cycle of the current queue.
    let shed = table.feed("s2", e.clone(), None, 0);
    assert!(
        matches!(
            &shed[0].frame,
            tm_serve::ServerFrame::Busy {
                session,
                seq: Some(1),
                retry_after_turns: Some(3),
                ..
            } if session == "s2"
        ),
        "expected a shed busy with a retry hint, got {:?}",
        shed[0].frame
    );
    // After the backlog drains, the resend is accepted.
    table.pump_all();
    assert!(table.feed("s2", e, None, 0).is_empty());
}

#[test]
fn opens_are_shed_when_resident_memo_exceeds_the_watermark() {
    let mut table = SessionTable::new(ServeConfig {
        memo_watermark_bytes: Some(tm_serve::EST_ENTRY_BYTES),
        ..ServeConfig::default()
    });
    assert!(matches!(
        table.open("a", 0)[0].frame,
        tm_serve::ServerFrame::Opened { .. }
    ));
    let h = random_history(&GenConfig::default(), 5);
    for e in h.events() {
        table.feed("a", e.clone(), None, 0);
    }
    table.pump_all();
    assert!(table.memo_resident() > 0, "checking must populate the memo");
    let shed = table.open("b", 0);
    assert!(
        matches!(
            &shed[0].frame,
            tm_serve::ServerFrame::Busy {
                session,
                seq: None,
                retry_after_turns: Some(_),
                ..
            } if session == "b"
        ),
        "expected the open to shed under memo pressure, got {:?}",
        shed[0].frame
    );
    // Closing the resident session releases the pressure.
    table.close("a", 0);
    table.pump_all();
    assert!(matches!(
        table.open("b", 0).last().expect("frames").frame,
        tm_serve::ServerFrame::Opened { .. }
    ));
}

// ---------------------------------------------------------------------
// The client half: exactly-once delivery over a faulty link.
// ---------------------------------------------------------------------

/// One splitmix64 step (the same platform-independent mix the fault plane
/// uses; tm-serve carries no `rand`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An in-memory [`FrameLink`] wrapping a [`SessionTable`] directly, with
/// seeded connection failures and response losses. A reconnect bumps the
/// connection index, so frames routed to the old connection are lost
/// exactly as a real daemon loses them — the client must re-open to
/// re-bind before anything flows again.
struct ChaosLink {
    table: SessionTable,
    conn: usize,
    outbox: VecDeque<String>,
    rng: u64,
    send_fail_pct: u64,
    lose_pct: u64,
}

impl ChaosLink {
    fn new(config: ServeConfig, seed: u64, send_fail_pct: u64, lose_pct: u64) -> Self {
        ChaosLink {
            table: SessionTable::new(config),
            conn: 0,
            outbox: VecDeque::new(),
            rng: seed,
            send_fail_pct,
            lose_pct,
        }
    }

    fn roll(&mut self, pct: u64) -> bool {
        pct > 0 && splitmix64(&mut self.rng) % 100 < pct
    }

    fn deliver(&mut self, frames: Vec<Routed>) {
        for r in frames {
            if r.conn != self.conn {
                continue; // routed to a connection that no longer exists
            }
            if self.roll(self.lose_pct) {
                continue; // lost on the wire
            }
            self.outbox.push_back(r.frame.render());
        }
    }
}

impl FrameLink for ChaosLink {
    fn send(&mut self, line: &str) -> io::Result<()> {
        if self.roll(self.send_fail_pct) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected connection failure",
            ));
        }
        let frames = match parse_client_frame(line) {
            Ok(ClientFrame::Open { session }) => self.table.open(&session, self.conn),
            Ok(ClientFrame::Feed {
                session,
                event,
                seq,
            }) => self.table.feed(&session, event, seq, self.conn),
            Ok(ClientFrame::Close { session }) => self.table.close(&session, self.conn),
            Ok(ClientFrame::Shutdown) | Err(_) => Vec::new(),
        };
        // No scheduler turn here: the daemon only drains between reads,
        // so back-to-back sends can fill an inbox and earn real `busy`
        // pushback.
        self.deliver(frames);
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Option<String>> {
        if self.outbox.is_empty() {
            let turn = self.table.pump_one();
            self.deliver(turn);
        }
        Ok(self.outbox.pop_front())
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.conn += 1;
        self.outbox.clear();
        Ok(())
    }

    fn backoff(&mut self, turns: u64) {
        for _ in 0..turns {
            let turn = self.table.pump_one();
            self.deliver(turn);
        }
    }
}

#[test]
fn a_clean_link_needs_no_recovery_machinery() {
    let h = random_history(&GenConfig::default(), 9);
    assert!(h.len() >= 8, "need a non-trivial history");
    let mut link = ChaosLink::new(ServeConfig::default(), 1, 0, 0);
    let outcome = Client::new(Backoff::default())
        .run_session(&mut link, "clean", h.events())
        .expect("clean run");
    assert!(outcome.responses.iter().all(Option::is_some));
    assert!(outcome.summary.is_some());
    assert_eq!(outcome.stats.reconnects, 0);
    assert_eq!(outcome.stats.resends, 0);
}

#[test]
fn the_client_reaches_the_fault_free_outcome_over_a_chaotic_link() {
    let h = random_history(&GenConfig::default(), 9);
    // The fault-free reference outcome.
    let mut clean = ChaosLink::new(ServeConfig::default(), 1, 0, 0);
    let reference = Client::new(Backoff::default())
        .run_session(&mut clean, "s", h.events())
        .expect("reference run");

    // A tiny inbox forces busy pushback on top of the injected failures.
    let policy = Backoff {
        base_turns: 1,
        cap_turns: 8,
        max_attempts: 500,
    };
    let mut totals = tm_serve::client::LinkStats::default();
    for seed in [2u64, 5, 13] {
        let config = ServeConfig {
            inbox_capacity: 2,
            ..ServeConfig::default()
        };
        let mut chaotic = ChaosLink::new(config, seed, 12, 18);
        let outcome = Client::new(policy)
            .run_session(&mut chaotic, "s", h.events())
            .unwrap_or_else(|e| panic!("seed {seed}: client gave up: {e}"));

        // Exactly-once: every response that did arrive is byte-identical
        // to the fault-free run's response for the same seq.
        for (i, got) in outcome.responses.iter().enumerate() {
            if let Some(line) = got {
                assert_eq!(
                    Some(line),
                    reference.responses[i].as_ref(),
                    "seed {seed}: event {} diverged",
                    i + 1
                );
            }
        }
        if let Some(summary) = &outcome.summary {
            assert_eq!(
                Some(summary),
                reference.summary.as_ref(),
                "seed {seed}: the summary must match the fault-free run"
            );
        }
        totals.busy_bounces += outcome.stats.busy_bounces;
        totals.reconnects += outcome.stats.reconnects;
        totals.resends += outcome.stats.resends;
        totals.acks += outcome.stats.acks;
    }
    // The injected faults actually exercised every recovery path.
    assert!(totals.busy_bounces > 0, "no busy pushback was absorbed");
    assert!(totals.reconnects > 0, "no connection failure was recovered");
    assert!(totals.resends > 0, "no lost response triggered a resend");
    assert!(totals.acks > 0, "no duplicate feed was deduped with an ack");
}
