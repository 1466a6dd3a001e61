//! The daemon's acceptance property: **multiplexing is verdict-identical
//! to standalone checking**. Every history fed as one of ≥ 64 interleaved
//! concurrent sessions through the replay path must yield byte-identical
//! verdict frames to a direct single-session monitor run (which drives the
//! same resumable `CheckSession` a standalone caller would) — including
//! under a constrained memo budget, where the governor is shrinking every
//! session's memo table as sessions come and go.

use proptest::prelude::*;
use tm_harness::randhist::{random_history, GenConfig};
use tm_model::builder::paper;
use tm_model::History;
use tm_opacity::incremental::{MonitorVerdict, OpacityMonitor};
use tm_serve::{render_client_frame, replay, ClientFrame, ServeConfig, ServerFrame};
use tm_trace::Json;

/// Builds a replay stream: all sessions open, then events interleave
/// round-robin one per session per round, then all sessions close.
fn interleaved_stream(sessions: &[(String, History)]) -> String {
    let mut lines = Vec::new();
    for (id, _) in sessions {
        lines.push(render_client_frame(&ClientFrame::Open {
            session: id.clone(),
        }));
    }
    let max_len = sessions.iter().map(|(_, h)| h.len()).max().unwrap_or(0);
    for round in 0..max_len {
        for (id, h) in sessions {
            if let Some(event) = h.events().get(round) {
                lines.push(render_client_frame(&ClientFrame::Feed {
                    session: id.clone(),
                    event: event.clone(),
                    seq: None,
                }));
            }
        }
    }
    for (id, _) in sessions {
        lines.push(render_client_frame(&ClientFrame::Close {
            session: id.clone(),
        }));
    }
    lines.join("\n")
}

/// The reference: one standalone monitor per history, its verdicts
/// rendered through the same frame schema the daemon speaks.
fn reference_verdict_lines(id: &str, h: &History) -> Vec<String> {
    let specs = tm_serve::specs();
    let mut monitor = OpacityMonitor::new(specs);
    let mut lines = Vec::new();
    for (i, e) in h.events().iter().enumerate() {
        match monitor.feed(e.clone()) {
            Ok(verdict) => {
                let (verdict, at) = match verdict {
                    MonitorVerdict::OpaqueChecked => ("opaque", None),
                    MonitorVerdict::OpaqueBySkip => ("opaque_skip", None),
                    MonitorVerdict::Violated { at } => ("violated", Some(at)),
                };
                lines.push(
                    ServerFrame::Verdict {
                        session: id.to_string(),
                        seq: i + 1,
                        verdict,
                        at,
                    }
                    .render(),
                );
            }
            Err(_) => break, // poisoned: no further verdict frames either way
        }
    }
    lines
}

/// Runs the replay and groups its verdict frames by session, preserving
/// per-session order and the exact output bytes.
fn replayed_verdict_lines(config: ServeConfig, stream: &str) -> (i32, Vec<(String, Vec<String>)>) {
    let mut out = Vec::new();
    let code = replay(config, stream, &mut out);
    let text = String::from_utf8(out).expect("daemon output is UTF-8");
    let mut by_session: Vec<(String, Vec<String>)> = Vec::new();
    for line in text.lines() {
        let doc = Json::parse(line).expect("daemon emits valid JSON");
        if doc.get("frame") != Some(&Json::Str("verdict".into())) {
            continue;
        }
        let Some(Json::Str(session)) = doc.get("session") else {
            panic!("verdict frame without session: {line}");
        };
        match by_session.iter_mut().find(|(id, _)| id == session) {
            Some((_, lines)) => lines.push(line.to_string()),
            None => by_session.push((session.clone(), vec![line.to_string()])),
        }
    }
    (code, by_session)
}

fn battery() -> Vec<(String, History)> {
    let mut sessions = Vec::new();
    // The paper's named histories (H2/H3 are not well-formed complete
    // feeds for the monitor in all cases, but H1/H4/H5 are the
    // conformance staples — H1 violates, H4/H5 hold).
    for (name, h) in [
        ("paper-h1", paper::h1()),
        ("paper-h4", paper::h4()),
        ("paper-h5", paper::h5()),
    ] {
        sessions.push((name.to_string(), h));
    }
    // Random well-formed histories across the three generator profiles
    // until the table holds 64+ concurrent sessions.
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
    for seed in 0..64u64 {
        let config = profiles[(seed % 3) as usize];
        sessions.push((
            format!("rand-{seed:02}"),
            random_history(&config, 1000 + seed),
        ));
    }
    sessions
}

fn assert_identical(config: ServeConfig, label: &str) {
    let sessions = battery();
    assert!(sessions.len() >= 64, "battery too small");
    let stream = interleaved_stream(&sessions);
    let (code, by_session) = replayed_verdict_lines(config, &stream);
    assert_eq!(code, 0, "{label}: clean battery must exit 0");
    for (id, h) in &sessions {
        let expected = reference_verdict_lines(id, h);
        let got = by_session
            .iter()
            .find(|(s, _)| s == id)
            .map(|(_, lines)| lines.clone())
            .unwrap_or_default();
        assert_eq!(
            got, expected,
            "{label}: session {id} diverged from the standalone monitor"
        );
    }
}

#[test]
fn sixty_four_interleaved_sessions_match_standalone_monitors() {
    assert_identical(ServeConfig::default(), "unbudgeted");
}

#[test]
fn constrained_memo_budget_is_verdict_invisible() {
    // A deliberately starved budget: 64 sessions share ~128 entries'
    // worth of bytes, so the governor pins everyone at the floor and
    // retunes on every open/close.
    let config = ServeConfig {
        memo_budget_bytes: Some(128 * tm_serve::EST_ENTRY_BYTES),
        ..ServeConfig::default()
    };
    assert_identical(config, "starved-budget");
}

#[test]
fn tiny_node_budget_changes_scheduling_not_verdicts() {
    // One search node per turn: every session yields constantly, the
    // run queue churns — and nothing observable changes.
    let config = ServeConfig {
        node_budget: 1,
        ..ServeConfig::default()
    };
    assert_identical(config, "node-budget-1");
}

#[test]
fn benchmark_fleets_pin_exit_codes_verdicts_and_turns() {
    // Fleets of 16 and 64 random sessions, each replayed unbudgeted,
    // starved at ~4 memo entries' worth of bytes per session (every session
    // pinned at the governor's floor), and starved through a seeded
    // verdict-preserving fault plan. Replay is a pure function of the frame
    // stream, so `(exit code, serve.verdicts, serve.turns)` is pinned
    // exactly; the faulted fleets drop frames, so a session may poison.
    use tm_serve::faults::VERDICT_PRESERVING_KINDS;
    use tm_serve::FaultPlan;
    let pinned = [
        (16usize, [(0, 425, 425), (0, 425, 425), (1, 310, 354)]),
        (64, [(0, 1716, 1716), (0, 1716, 1716), (1, 1582, 1705)]),
    ];
    for (sessions, runs) in pinned {
        let fleet: Vec<(String, History)> = (0..sessions)
            .map(|i| {
                (
                    format!("s{i:03}"),
                    random_history(&GenConfig::default(), 9000 + i as u64),
                )
            })
            .collect();
        let stream = interleaved_stream(&fleet);
        let starved = sessions as u64 * 4 * tm_serve::EST_ENTRY_BYTES;
        let faults = FaultPlan::generate(
            0xC0FFEE ^ sessions as u64,
            stream.lines().count(),
            24,
            VERDICT_PRESERVING_KINDS,
        );
        let configs = [
            ("unbudgeted", None, FaultPlan::new()),
            ("starved", Some(starved), FaultPlan::new()),
            ("starved + faults", Some(starved), faults),
        ];
        for ((label, budget, fault_plan), expected) in configs.into_iter().zip(runs) {
            let obs = tm_obs::ObsHandle::install();
            let config = ServeConfig {
                memo_budget_bytes: budget,
                obs,
                fault_plan,
                ..ServeConfig::default()
            };
            let code = replay(config, &stream, &mut std::io::sink());
            let snap = obs.snapshot().expect("installed sink");
            let counter = |name| snap.counter(name).unwrap_or(0);
            assert_eq!(
                (code, counter("serve.verdicts"), counter("serve.turns")),
                expected,
                "{sessions} sessions, {label}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random small fleets: interleaved replay matches the standalone
    /// monitor for every member, budgeted or not.
    #[test]
    fn random_fleets_are_verdict_identical(
        base_seed in 0u64..5_000,
        fleet in 2usize..8,
        budget_sel in 0usize..2,
    ) {
        let budgeted = budget_sel == 1;
        let sessions: Vec<(String, History)> = (0..fleet)
            .map(|i| {
                (
                    format!("s{i}"),
                    random_history(&GenConfig::default(), base_seed * 31 + i as u64),
                )
            })
            .collect();
        let stream = interleaved_stream(&sessions);
        let config = ServeConfig {
            memo_budget_bytes: budgeted.then_some(64 * tm_serve::EST_ENTRY_BYTES),
            ..ServeConfig::default()
        };
        let (code, by_session) = replayed_verdict_lines(config, &stream);
        prop_assert_eq!(code, 0);
        for (id, h) in &sessions {
            let expected = reference_verdict_lines(id, h);
            let got = by_session
                .iter()
                .find(|(s, _)| s == id)
                .map(|(_, lines)| lines.clone())
                .unwrap_or_default();
            prop_assert_eq!(&got, &expected, "session {} diverged", id);
        }
    }
}
