//! Backpressure and memory-governance coverage: a session exceeding its
//! inbox bound receives `busy` and *recovers* (resending after the daemon
//! catches up loses nothing), and shrinking the global memo budget
//! mid-stream — by crowding the table with new sessions — never changes a
//! session's verdicts, frame for frame, whether the shares it leaves each
//! session sit at the floor or between the floor and what the sessions
//! would keep unbounded. Sessions that close and reopen reuse the table's
//! slots without their frames crossing.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tm_harness::randhist::{random_history, GenConfig};
use tm_model::Event;
use tm_obs::ObsHandle;
use tm_opacity::incremental::{MonitorVerdict, OpacityMonitor};
use tm_opacity::search::SearchConfig;
use tm_serve::{Routed, ServeConfig, ServerFrame, SessionTable, EST_ENTRY_BYTES, MIN_MEMO_CAP};

#[path = "../../core/tests/common/knots.rs"]
mod knots;
#[path = "common/served_knots.rs"]
mod served_knots;
use served_knots::served_knot_history;

fn verdict_lines(frames: &[tm_serve::Routed]) -> Vec<String> {
    frames
        .iter()
        .filter(|r| matches!(r.frame, ServerFrame::Verdict { .. }))
        .map(|r| r.frame.render())
        .collect()
}

/// Feeds a whole history through a table, pumping only when pushed back,
/// resending every `busy`-bounced event until accepted. Returns all
/// verdict frames in emission order.
fn feed_with_resends(table: &mut SessionTable, id: &str, events: &[Event]) -> (Vec<String>, usize) {
    let mut verdicts = Vec::new();
    let mut busy_seen = 0usize;
    for e in events {
        loop {
            let frames = table.feed(id, e.clone(), None, 0);
            let accepted = !frames
                .iter()
                .any(|r| matches!(r.frame, ServerFrame::Busy { .. }));
            verdicts.extend(verdict_lines(&frames));
            if accepted {
                break;
            }
            // Bounced: catch up one scheduler turn, then resend.
            busy_seen += 1;
            let turn = table.pump_one();
            verdicts.extend(verdict_lines(&turn));
        }
    }
    let rest = table.pump_all();
    verdicts.extend(verdict_lines(&rest));
    (verdicts, busy_seen)
}

#[test]
fn full_inbox_bounces_busy_and_the_session_recovers() {
    let h = random_history(&GenConfig::default(), 42);
    assert!(h.len() > 6, "need a non-trivial history");

    // Reference: a roomy table that never pushes back.
    let mut roomy = SessionTable::new(ServeConfig::default());
    roomy.open("s", 0);
    let (expected, roomy_busy) = feed_with_resends(&mut roomy, "s", h.events());
    assert_eq!(roomy_busy, 0, "roomy table must not push back");

    // A 3-slot inbox with no pumping between feeds: busy frames are
    // guaranteed, and resending after one turn recovers every event.
    let mut tight = SessionTable::new(ServeConfig {
        inbox_capacity: 3,
        ..ServeConfig::default()
    });
    tight.open("s", 0);
    let (got, tight_busy) = feed_with_resends(&mut tight, "s", h.events());
    assert!(tight_busy > 0, "3-slot inbox must bounce at least once");
    assert_eq!(
        got, expected,
        "recovery after busy lost or reordered events"
    );
}

#[test]
fn governor_shrinks_capacity_as_sessions_crowd_in_and_restores_on_close() {
    // A budget of 4 096 entries: alone, a session gets the full entry
    // allowance; with 63 peers it gets a 64th of it; when they close it
    // grows back.
    let budget = 4096 * tm_serve::EST_ENTRY_BYTES;
    let mut table = SessionTable::new(ServeConfig {
        memo_budget_bytes: Some(budget),
        ..ServeConfig::default()
    });
    table.open("s0", 0);
    let alone = table.memo_capacity_per_session().unwrap();
    for i in 1..64 {
        table.open(&format!("s{i}"), 0);
    }
    let crowded = table.memo_capacity_per_session().unwrap();
    assert!(
        crowded < alone,
        "capacity must shrink under crowding ({alone} -> {crowded})"
    );
    assert!(crowded >= MIN_MEMO_CAP, "floor must hold");
    assert_eq!(crowded, alone / 64);
    for i in 1..64 {
        table.close(&format!("s{i}"), 0);
    }
    table.pump_all();
    assert_eq!(table.session_count(), 1);
    assert_eq!(
        table.memo_capacity_per_session().unwrap(),
        alone,
        "capacity must restore as sessions close"
    );
}

#[test]
fn mid_stream_budget_shrink_never_changes_verdicts() {
    // The satellite's property, frame for frame: session `probe` checks
    // the same history (a) alone on an unbudgeted table, and (b) while 40
    // sessions pile in mid-stream on a starved table — the governor
    // shrinking `probe`'s memo capacity between its feeds. Verdicts must
    // be byte-identical.
    for seed in [7u64, 99, 1234] {
        let h = random_history(
            &GenConfig {
                txs: 6,
                objs: 2,
                max_ops: 5,
                noise: 0.4,
                commit_pending: 0.3,
                abort: 0.2,
            },
            seed,
        );
        let mut plain = SessionTable::new(ServeConfig::default());
        plain.open("probe", 0);
        let (expected, _) = feed_with_resends(&mut plain, "probe", h.events());

        let mut starved = SessionTable::new(ServeConfig {
            memo_budget_bytes: Some(40 * 256),
            ..ServeConfig::default()
        });
        starved.open("probe", 0);
        let mut got = Vec::new();
        for (i, e) in h.events().iter().enumerate() {
            // Crowd the table while the probe session is mid-stream.
            if i == h.len() / 2 {
                for j in 0..40 {
                    starved.open(&format!("crowd{j}"), 0);
                }
            }
            got.extend(verdict_lines(&starved.feed("probe", e.clone(), None, 0)));
            got.extend(verdict_lines(&starved.pump_one()));
        }
        got.extend(verdict_lines(&starved.pump_all()));
        assert_eq!(got, expected, "seed {seed}: budget shrink changed verdicts");
    }
}

#[test]
fn shares_between_the_floor_and_unbounded_move_without_changing_verdicts() {
    // Three sessions stream the 3 × 3 chained knots, each starting a third
    // of a stream after the one before, under a budget of 128 estimated
    // entries per session. Extra sessions open just before the first and
    // the second knot session's final, exhaustive check and close before
    // the third's, so the three heavy checks run under shares of 96, 76
    // and 128 entries: above the 64-entry floor, and below what a session
    // keeps unbounded, so the memos evict.
    let events = served_knot_history(3, 3);
    let n = events.len();
    let offset = n / 3;

    let mut roomy = SessionTable::new(ServeConfig::default());
    roomy.open("alone", 0);
    let mut unbounded = 0;
    for e in &events {
        roomy.feed("alone", e.clone(), None, 0);
        roomy.pump_all();
        unbounded = unbounded.max(roomy.memo_resident());
    }

    let ids = ["k0", "k1", "k2"];
    let obs = ObsHandle::install();
    let mut table = SessionTable::new(ServeConfig {
        memo_budget_bytes: Some(ids.len() as u64 * 128 * EST_ENTRY_BYTES),
        search: SearchConfig {
            obs,
            ..SearchConfig::default()
        },
        ..ServeConfig::default()
    });
    let mut verdicts = vec![Vec::new(); ids.len()];
    let mut file = |frames: Vec<Routed>| {
        for r in frames {
            if let ServerFrame::Verdict { session, .. } = &r.frame {
                let k = ids
                    .iter()
                    .position(|id| session == id)
                    .expect("a knot session");
                verdicts[k].push(r.frame.render());
            }
        }
    };
    let mut shares = BTreeSet::new();
    for id in ids {
        file(table.open(id, 0));
    }
    shares.insert(table.memo_capacity_per_session());
    for round in 0..n + 2 * offset {
        let extras = if round == n - 1 {
            table.open("x0", 0)
        } else if round == n + offset - 1 {
            table.open("x1", 0)
        } else if round == n + 2 * offset - 1 {
            let mut closed = table.close("x0", 0);
            closed.extend(table.close("x1", 0));
            closed
        } else {
            Vec::new()
        };
        if !extras.is_empty() {
            shares.insert(table.memo_capacity_per_session());
        }
        file(extras);
        for (k, id) in ids.iter().enumerate() {
            if let Some(e) = round.checked_sub(k * offset).and_then(|i| events.get(i)) {
                file(table.feed(id, e.clone(), None, 0));
                file(table.pump_all());
            }
        }
    }
    file(table.drain_and_close_all());

    let shares: Vec<usize> = shares.into_iter().map(Option::unwrap).collect();
    assert_eq!(shares, [76, 96, 128], "the governor's shares");
    assert!(
        shares.iter().all(|&s| MIN_MEMO_CAP < s && s < unbounded),
        "unbounded {unbounded}"
    );
    let evictions = obs.snapshot().expect("enabled").counter("memo.evictions");
    assert!(
        evictions > Some(0),
        "the shares bind: {evictions:?} evictions"
    );
    let expected = standalone_verdict_lines("k0", &events);
    assert!(expected.last().is_some_and(|v| v.contains("violated")));
    for (id, got) in ids.iter().zip(&verdicts) {
        assert_eq!(
            got,
            &standalone_verdict_lines(id, &events),
            "session `{id}`"
        );
    }
}

#[test]
fn open_and_feed_errors_are_frames_not_panics() {
    let mut table = SessionTable::new(ServeConfig {
        max_sessions: 2,
        ..ServeConfig::default()
    });
    assert!(matches!(
        table.open("a", 0)[0].frame,
        ServerFrame::Opened { .. }
    ));
    // Duplicate open.
    let dup = table.open("a", 0);
    assert!(
        matches!(&dup[0].frame, ServerFrame::Error { message, .. } if message.contains("already open"))
    );
    // Table full.
    table.open("b", 0);
    let full = table.open("c", 0);
    assert!(
        matches!(&full[0].frame, ServerFrame::Error { message, .. } if message.contains("table full"))
    );
    // Feed/close on unknown sessions.
    let nofeed = table.feed("ghost", Event::TryCommit(tm_model::TxId(1)), None, 0);
    assert!(
        matches!(&nofeed[0].frame, ServerFrame::Error { message, .. } if message.contains("no open session"))
    );
    let noclose = table.close("ghost", 0);
    assert!(matches!(&noclose[0].frame, ServerFrame::Error { .. }));
    // Feeding a closing session is refused.
    table.close("a", 0);
    // "a" had an empty inbox, so it is gone entirely now.
    let closed = table.feed("a", Event::TryCommit(tm_model::TxId(1)), None, 0);
    assert!(matches!(&closed[0].frame, ServerFrame::Error { .. }));
    assert_eq!(table.session_count(), 1);
}

#[test]
fn obs_counters_track_busy_and_sessions() {
    let obs = ObsHandle::install();
    let mut table = SessionTable::new(ServeConfig {
        inbox_capacity: 1,
        obs,
        ..ServeConfig::default()
    });
    table.open("s", 0);
    let e = Event::TryCommit(tm_model::TxId(1));
    table.feed("s", e.clone(), None, 0);
    table.feed("s", e.clone(), None, 0); // bounced: inbox holds 1
    let snap = obs.snapshot().expect("enabled");
    assert_eq!(snap.counter("serve.busy"), Some(1));
    assert_eq!(snap.counter("serve.sessions_opened"), Some(1));
    assert_eq!(snap.counter("serve.frames_fed"), Some(1));
}

/// One lifetime of a session id, from its `open` to its `closed` summary.
struct Incarnation {
    id: &'static str,
    events: Vec<Event>,
    /// Events fed (all accepted: the inbox never fills here).
    fed: usize,
    /// The verdict lines the table answered it with.
    verdicts: Vec<String>,
    /// Its `closed` summary arrived.
    closed: bool,
}

/// The verdict lines a standalone monitor answers `events` with, rendered
/// as the daemon renders them for session `id`.
fn standalone_verdict_lines(id: &str, events: &[Event]) -> Vec<String> {
    let mut monitor = OpacityMonitor::new(tm_serve::specs());
    let mut lines = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let Ok(verdict) = monitor.feed(e.clone()) else {
            break; // poisoned: error frames follow, not verdicts
        };
        let (verdict, at) = match verdict {
            MonitorVerdict::OpaqueChecked => ("opaque", None),
            MonitorVerdict::OpaqueBySkip => ("opaque_skip", None),
            MonitorVerdict::Violated { at } => ("violated", Some(at)),
        };
        let frame = ServerFrame::Verdict {
            session: id.to_string(),
            seq: i + 1,
            verdict,
            at,
        };
        lines.push(frame.render());
    }
    lines
}

/// Files `frames` under the incarnations they answer. `asked` is the id
/// the call that returned them named (`None` for scheduler turns): every
/// frame naming a session must name it. A turn's verdicts and summaries
/// go to their id's open incarnation, which must exist.
fn absorb(
    incarnations: &mut [Incarnation],
    live: &mut [Option<usize>],
    ids: &[&'static str],
    frames: Vec<Routed>,
    asked: Option<&str>,
) -> Result<(), TestCaseError> {
    for r in frames {
        let session = match &r.frame {
            ServerFrame::Opened { session }
            | ServerFrame::Verdict { session, .. }
            | ServerFrame::Ack { session, .. }
            | ServerFrame::Busy { session, .. }
            | ServerFrame::Closed { session, .. } => Some(session),
            ServerFrame::Error { session, .. } => session.as_ref(),
        };
        let Some(session) = session else { continue };
        if let Some(asked) = asked {
            prop_assert_eq!(&**session, asked, "{:?}", r.frame);
        }
        let slot = ids.iter().position(|id| session == id);
        let Some(slot) = slot else {
            return Err(TestCaseError::fail(format!(
                "unknown session in {:?}",
                r.frame
            )));
        };
        let owner = live[slot];
        match &r.frame {
            ServerFrame::Verdict { .. } => {
                let Some(i) = owner else {
                    return Err(TestCaseError::fail(format!(
                        "no open session: {:?}",
                        r.frame
                    )));
                };
                incarnations[i].verdicts.push(r.frame.render());
            }
            ServerFrame::Closed { .. } => {
                let Some(i) = owner else {
                    return Err(TestCaseError::fail(format!(
                        "no open session: {:?}",
                        r.frame
                    )));
                };
                incarnations[i].closed = true;
                live[slot] = None;
            }
            _ => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random open / feed / close / reopen sequences over a few ids: a
    /// closed session's slot is taken by the next open, so slots and run
    /// queue entries are reused under other sessions. Each session's
    /// verdicts equal a standalone monitor's on the events it was fed, and
    /// no frame names a session other than the one it answers.
    #[test]
    fn reused_session_slots_keep_sessions_apart(
        n_ids in 3usize..5,
        seed in 0u64..100_000,
        ops in proptest::collection::vec((0u8..9, 0usize..4), 20..160),
    ) {
        let ids = &["a", "b", "c", "d"][..n_ids];
        let mut table = SessionTable::new(ServeConfig {
            node_budget: 1,
            ..ServeConfig::default()
        });
        let mut incarnations: Vec<Incarnation> = Vec::new();
        // The incarnation each id's frames belong to, until its summary.
        let mut live: Vec<Option<usize>> = vec![None; n_ids];
        // Whether each id's live incarnation was asked to close.
        let mut closing = vec![false; n_ids];
        for (kind, which) in ops {
            let slot = which % n_ids;
            let id = ids[slot];
            let frames = match kind {
                0 | 1 => {
                    if live[slot].is_none() {
                        live[slot] = Some(incarnations.len());
                        closing[slot] = false;
                        let h = random_history(
                            &GenConfig::default(),
                            seed * 131 + incarnations.len() as u64,
                        );
                        incarnations.push(Incarnation {
                            id,
                            events: h.events().to_vec(),
                            fed: 0,
                            verdicts: Vec::new(),
                            closed: false,
                        });
                    }
                    table.open(id, 0)
                }
                2..=5 => match live[slot] {
                    Some(i) if !closing[slot] => {
                        let inc = &mut incarnations[i];
                        let Some(e) = inc.events.get(inc.fed).cloned() else {
                            continue;
                        };
                        inc.fed += 1;
                        table.feed(id, e, None, 0)
                    }
                    // Not open, or closing: refused with an error naming `id`.
                    _ => table.feed(id, Event::TryCommit(tm_model::TxId(1)), None, 0),
                },
                6 => {
                    if live[slot].is_some() {
                        closing[slot] = true;
                    }
                    table.close(id, 0)
                }
                _ => {
                    let turn = table.pump_one();
                    absorb(&mut incarnations, &mut live, ids, turn, None)?;
                    continue;
                }
            };
            absorb(&mut incarnations, &mut live, ids, frames, Some(id))?;
        }
        let last = table.drain_and_close_all();
        absorb(&mut incarnations, &mut live, ids, last, None)?;
        prop_assert_eq!(table.session_count(), 0);
        for inc in &incarnations {
            prop_assert!(inc.closed, "session `{}` never closed", inc.id);
            let expected = standalone_verdict_lines(inc.id, &inc.events[..inc.fed]);
            prop_assert_eq!(&inc.verdicts, &expected, "session `{}`", inc.id);
        }
    }
}
