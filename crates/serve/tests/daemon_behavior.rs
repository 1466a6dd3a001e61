//! Daemon lifecycle coverage: graceful drain on EOF, the `shutdown` frame,
//! exit codes (poisoned sessions → 1), parse-error frames with line
//! numbers, and a live Unix-socket round trip, also under a fault plan.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::thread::JoinHandle;

use tm_model::builder::paper;
use tm_serve::{
    read_journal, render_client_frame, replay, run, ClientFrame, FaultPlan, ServeConfig, Transport,
    CRASH_EXIT_CODE,
};
use tm_trace::Json;

#[path = "common/streams.rs"]
mod streams;
use streams::{frames_of, kind};

fn stream(frames: &[ClientFrame]) -> String {
    frames
        .iter()
        .map(render_client_frame)
        .collect::<Vec<_>>()
        .join("\n")
}

fn open_feed_all(id: &str, h: &tm_model::History) -> Vec<ClientFrame> {
    let mut frames = vec![ClientFrame::Open {
        session: id.to_string(),
    }];
    for e in h.events() {
        frames.push(ClientFrame::Feed {
            session: id.to_string(),
            event: e.clone(),
            seq: None,
        });
    }
    frames
}

#[test]
fn eof_drains_and_emits_closed_summaries_in_id_order() {
    // Two sessions left open at EOF: the drain must still check every
    // queued event and emit both `closed` summaries, sorted by id.
    let mut input = open_feed_all("zeta", &paper::h4());
    input.extend(open_feed_all("alpha", &paper::h5()));
    let mut out = Vec::new();
    let code = replay(ServeConfig::default(), &stream(&input), &mut out);
    assert_eq!(code, 0);
    let frames = frames_of(&out);
    let closed: Vec<&Json> = frames.iter().filter(|f| kind(f) == "closed").collect();
    assert_eq!(closed.len(), 2, "every open session gets a summary at EOF");
    assert_eq!(closed[0].get("session"), Some(&Json::Str("alpha".into())));
    assert_eq!(closed[1].get("session"), Some(&Json::Str("zeta".into())));
    // The summaries account for every fed event as checked work.
    assert_eq!(
        closed[1].get("events"),
        Some(&Json::Int(paper::h4().len() as i64))
    );
    let verdicts = frames.iter().filter(|f| kind(f) == "verdict").count();
    assert_eq!(verdicts, paper::h4().len() + paper::h5().len());
}

#[test]
fn shutdown_frame_stops_ingest_but_finishes_queued_work() {
    // shutdown arrives while feeds are still queued behind it in the file;
    // queued work before the frame completes, frames after it are ignored.
    let mut input = open_feed_all("s", &paper::h4());
    input.push(ClientFrame::Shutdown);
    input.push(ClientFrame::Open {
        session: "late".to_string(),
    });
    let mut out = Vec::new();
    let code = replay(ServeConfig::default(), &stream(&input), &mut out);
    assert_eq!(code, 0);
    let frames = frames_of(&out);
    assert!(
        !frames
            .iter()
            .any(|f| f.get("session") == Some(&Json::Str("late".into()))),
        "frames after shutdown must not be processed"
    );
    let verdicts = frames.iter().filter(|f| kind(f) == "verdict").count();
    assert_eq!(verdicts, paper::h4().len(), "queued feeds still complete");
    assert_eq!(frames.iter().filter(|f| kind(f) == "closed").count(), 1);
}

#[test]
fn poisoned_session_sets_exit_code_one_and_summary_flag() {
    // A malformed stream for the monitor: a `ret` with no matching `inv`
    // is a hard WellFormedness error — the session poisons, later feeds
    // answer with error frames, and the daemon exits 1.
    let bad = tm_model::Event::Ret {
        tx: tm_model::TxId(1),
        obj: tm_model::ObjId::register(0),
        op: tm_model::OpName::Read,
        val: tm_model::Value::Int(0),
    };
    let input = vec![
        ClientFrame::Open {
            session: "bad".to_string(),
        },
        ClientFrame::Feed {
            session: "bad".to_string(),
            event: bad.clone(),
            seq: None,
        },
        ClientFrame::Feed {
            session: "bad".to_string(),
            event: bad,
            seq: None,
        },
        ClientFrame::Close {
            session: "bad".to_string(),
        },
    ];
    let mut out = Vec::new();
    let code = replay(ServeConfig::default(), &stream(&input), &mut out);
    assert_eq!(code, 1, "a poisoned session must surface in the exit code");
    let frames = frames_of(&out);
    let errors = frames.iter().filter(|f| kind(f) == "error").count();
    assert_eq!(errors, 2, "the poisoning event and the poisoned follow-up");
    let closed = frames
        .iter()
        .find(|f| kind(f) == "closed")
        .expect("summary still emitted");
    assert_eq!(closed.get("poisoned"), Some(&Json::Bool(true)));
}

#[test]
fn garbage_lines_become_error_frames_with_line_numbers() {
    let input = format!(
        "{}\nnot json at all\n{{\"frame\":\"warble\"}}\n\n{}",
        render_client_frame(&ClientFrame::Open {
            session: "s".to_string()
        }),
        render_client_frame(&ClientFrame::Close {
            session: "s".to_string()
        }),
    );
    let mut out = Vec::new();
    let code = replay(ServeConfig::default(), &input, &mut out);
    assert_eq!(code, 0, "protocol errors are reported, not fatal");
    let frames = frames_of(&out);
    let errors: Vec<String> = frames
        .iter()
        .filter(|f| kind(f) == "error")
        .map(|f| match f.get("message") {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("error frame without message"),
        })
        .collect();
    assert_eq!(errors.len(), 2);
    assert!(errors[0].starts_with("input line 2:"), "got: {}", errors[0]);
    assert!(errors[1].starts_with("input line 3:"), "got: {}", errors[1]);
    // The blank line 4 is skipped, and the valid close still lands.
    assert!(frames.iter().any(|f| kind(f) == "closed"));
}

#[test]
fn lines_nested_past_the_limit_are_error_frames_and_later_sessions_are_unchanged() {
    // An unclosed 200 000-deep array, and a 50 000-deep one in an unknown
    // field of an otherwise valid frame: the decoders stop at
    // `tm_trace::MAX_NESTING` instead of recursing off the stack.
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let deep = format!(
        "{}\n{{\"frame\":\"open\",\"session\":\"deep\",\"pad\":{}}}",
        "[".repeat(200_000),
        nested(50_000)
    );
    let mut input = open_feed_all("zeta", &paper::h4());
    input.extend(open_feed_all("alpha", &paper::h1()));
    let sessions = stream(&input);
    let mut clean = Vec::new();
    let clean_code = replay(ServeConfig::default(), &sessions, &mut clean);
    let mut out = Vec::new();
    let code = replay(
        ServeConfig::default(),
        &format!("{deep}\n{sessions}"),
        &mut out,
    );
    assert_eq!(code, clean_code);
    let out = String::from_utf8(out).expect("daemon output is UTF-8");
    let mut lines = out.lines();
    for line in 1..=2 {
        let frame = Json::parse(lines.next().expect("an error frame")).expect("valid JSON");
        assert_eq!(kind(&frame), "error");
        assert_eq!(
            frame.get("message"),
            Some(&Json::Str(format!(
                "input line {line}: nesting deeper than {} levels",
                tm_trace::MAX_NESTING
            )))
        );
    }
    let rest: Vec<&str> = lines.collect();
    let clean = String::from_utf8(clean).expect("daemon output is UTF-8");
    assert_eq!(rest, clean.lines().collect::<Vec<_>>());
}

#[test]
fn missing_replay_file_is_a_usage_error() {
    let mut out = Vec::new();
    let code = run(
        Transport::Replay("/nonexistent/frames.jsonl".into()),
        ServeConfig::default(),
        &mut out,
    );
    assert_eq!(code, 2);
    assert!(out.is_empty(), "no frames on a usage failure");
}

/// A daemon serving `config` on a socket in a fresh directory named by
/// `tag`, and a client connection to it: `(directory, daemon thread,
/// connection)`. The daemon thread returns the exit code.
fn serve_on_socket(tag: &str, config: ServeConfig) -> (PathBuf, JoinHandle<i32>, UnixStream) {
    let dir = std::env::temp_dir().join(format!("tm-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("serve.sock");
    let server = {
        let path = path.clone();
        std::thread::spawn(move || run(Transport::Socket(path), config, &mut Vec::new()))
    };
    // The daemon removes stale files then binds; poll until it is up.
    for _ in 0..200 {
        if let Ok(conn) = UnixStream::connect(&path) {
            return (dir, server, conn);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("daemon socket never came up");
}

/// Writes `frames` to the daemon, one line each.
fn send(conn: &UnixStream, frames: &[ClientFrame]) {
    let mut writer = conn;
    for f in frames {
        writeln!(writer, "{}", render_client_frame(f)).expect("write frame");
    }
}

/// Reads response frames up to and including the first `closed` summary.
fn read_until_closed(reader: &mut impl BufRead) -> Vec<Json> {
    let mut got = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read frame") == 0 {
            panic!("socket closed before the session summary: {got:?}");
        }
        let doc = Json::parse(line.trim_end()).expect("server emits valid JSON");
        let closed = kind(&doc) == "closed";
        got.push(doc);
        if closed {
            return got;
        }
    }
}

fn open_feed_close(id: &str, h: &tm_model::History) -> Vec<ClientFrame> {
    let mut frames = open_feed_all(id, h);
    frames.push(ClientFrame::Close {
        session: id.to_string(),
    });
    frames
}

#[test]
fn socket_round_trip_serves_a_session_and_shuts_down() {
    let (dir, server, conn) = serve_on_socket("round-trip", ServeConfig::default());
    let h = paper::h1(); // violates: exercises the full verdict vocabulary
    send(&conn, &open_feed_close("live", &h));
    let got = read_until_closed(&mut BufReader::new(&conn));
    assert_eq!(kind(&got[0]), "opened");
    let verdicts = got.iter().filter(|f| kind(f) == "verdict").count();
    assert_eq!(verdicts, h.len(), "one verdict per fed event");
    assert!(got
        .iter()
        .any(|f| f.get("verdict") == Some(&Json::Str("violated".into()))));

    send(&conn, &[ClientFrame::Shutdown]);
    let code = server.join().expect("daemon thread");
    assert_eq!(code, 0);
    assert!(
        !dir.join("serve.sock").exists(),
        "socket file removed on shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn socket_shutdown_closes_every_connection() {
    // After the drain the daemon shuts each connection down and joins its
    // reader thread: a client still holding its connection reads EOF
    // instead of waiting on a socket nobody serves.
    let (dir, server, conn) = serve_on_socket("eof", ServeConfig::default());
    let other = UnixStream::connect(dir.join("serve.sock")).expect("second client");
    send(&conn, &[ClientFrame::Shutdown]);
    assert_eq!(server.join().expect("daemon thread"), 0);
    for mut client in [&conn, &other] {
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .expect("read timeout");
        let mut buf = [0u8; 64];
        assert_eq!(client.read(&mut buf).expect("EOF, not a timeout"), 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fault_plan_tears_socket_frames_into_positioned_errors() {
    // The plan tears the first frame to 5 bytes: the client is answered
    // with an `error` frame naming its input line 1, and the session it
    // then opens is served whole.
    let config = ServeConfig {
        fault_plan: FaultPlan::parse("torn@1:5").expect("valid plan"),
        ..ServeConfig::default()
    };
    let (dir, server, conn) = serve_on_socket("torn", config);
    let h = paper::h4();
    let mut frames = vec![ClientFrame::Open {
        session: "live".to_string(),
    }];
    frames.extend(open_feed_close("live", &h));
    send(&conn, &frames);
    let got = read_until_closed(&mut BufReader::new(&conn));
    assert_eq!(kind(&got[0]), "error");
    let Some(Json::Str(message)) = got[0].get("message") else {
        panic!("error frame without message: {:?}", got[0]);
    };
    assert!(message.starts_with("input line 1:"), "got: {message}");
    assert_eq!(kind(&got[1]), "opened");
    let verdicts = got.iter().filter(|f| kind(f) == "verdict").count();
    assert_eq!(verdicts, h.len(), "one verdict per fed event");

    send(&conn, &[ClientFrame::Shutdown]);
    assert_eq!(server.join().expect("daemon thread"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_fault_on_the_socket_exits_3_with_the_journal_flushed() {
    // Frame 1 opens the session and frames 2..=5 feed it; the crash fires
    // before frame 6 is applied. The journal, far from its fsync batch,
    // still holds every accepted record.
    let dir = std::env::temp_dir().join(format!(
        "tm-serve-test-crash-journal-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        fault_plan: FaultPlan::parse("crash@6").expect("valid plan"),
        journal_dir: Some(dir.clone()),
        fsync_every: 1000,
        ..ServeConfig::default()
    };
    let (socket_dir, server, conn) = serve_on_socket("crash", config);
    let h = paper::h4();
    assert!(h.len() > 4, "the crash lands mid-session");
    send(&conn, &open_feed_close("live", &h));
    assert_eq!(server.join().expect("daemon thread"), CRASH_EXIT_CODE);
    let state = read_journal(&dir).expect("the crash flushed the journal");
    assert_eq!(state.torn_bytes, 0);
    let [(id, session)] = &state.sessions[..] else {
        panic!("one journaled session expected: {:?}", state.sessions);
    };
    assert_eq!(id, "live");
    assert_eq!(session.events, h.events()[..4]);
    assert!(!session.closed);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&socket_dir);
}
