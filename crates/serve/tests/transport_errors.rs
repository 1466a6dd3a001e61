//! Transport error-path hardening: injected read errors, garbage bytes,
//! torn frames, and abrupt disconnects must degrade into positioned
//! `error` frames or a clean drain — never a panic, never an exit code
//! outside {0, 1}.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;

use tm_harness::randhist::{random_history, GenConfig};
use tm_model::History;
use tm_serve::{
    render_client_frame, run, run_reader, Backoff, Client, ClientFrame, ServeConfig, SocketLink,
    Transport,
};
use tm_trace::Json;

#[path = "common/streams.rs"]
mod streams;
use streams::{frames_of, kind};

/// A reader that follows a script of data chunks and injected errors,
/// then reports EOF. Wrapped in a `BufReader` it feeds the daemon's
/// stdin-style loop exactly the failure sequence under test.
struct ScriptedReader {
    steps: VecDeque<Result<Vec<u8>, io::ErrorKind>>,
}

impl ScriptedReader {
    fn new(steps: Vec<Result<Vec<u8>, io::ErrorKind>>) -> BufReader<ScriptedReader> {
        BufReader::new(ScriptedReader {
            steps: steps.into(),
        })
    }
}

impl Read for ScriptedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.steps.pop_front() {
            Some(Ok(bytes)) => {
                assert!(bytes.len() <= buf.len(), "scripted chunk too large");
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(bytes.len())
            }
            Some(Err(kind)) => Err(io::Error::new(kind, "injected transport error")),
            None => Ok(0),
        }
    }
}

/// A writer that accepts a few bytes per call and fails transiently
/// (`WouldBlock`, `Interrupted`) on a fixed schedule — so response lines
/// are cut off mid-way, after part of them was already accepted.
#[derive(Default)]
struct ScriptedWriter {
    bytes: Vec<u8>,
    calls: u64,
    short_writes: u64,
    transient: u64,
}

impl Write for ScriptedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        match self.calls % 5 {
            2 => {
                self.transient += 1;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            4 if self.calls % 3 == 0 => {
                self.transient += 1;
                return Err(io::ErrorKind::Interrupted.into());
            }
            _ => {}
        }
        let n = buf.len().min(1 + (self.calls % 7) as usize * 3);
        if n < buf.len() {
            self.short_writes += 1;
        }
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn open_feed_close(id: &str, h: &History) -> String {
    let mut lines = vec![render_client_frame(&ClientFrame::Open {
        session: id.to_string(),
    })];
    for e in h.events() {
        lines.push(render_client_frame(&ClientFrame::Feed {
            session: id.to_string(),
            event: e.clone(),
            seq: None,
        }));
    }
    lines.push(render_client_frame(&ClientFrame::Close {
        session: id.to_string(),
    }));
    lines.join("\n") + "\n"
}

fn message(doc: &Json) -> String {
    match doc.get("message") {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

#[test]
fn transient_read_errors_are_retried_and_the_run_completes() {
    let h = random_history(&GenConfig::default(), 4);
    let text = open_feed_close("s", &h);
    let split = text.len() / 2;
    // Interrupted is swallowed by the buffered reader's own retry loop;
    // WouldBlock surfaces to the daemon, which must retry it bounded-ly.
    let input = ScriptedReader::new(vec![
        Ok(text.as_bytes()[..split].to_vec()),
        Err(io::ErrorKind::WouldBlock),
        Err(io::ErrorKind::Interrupted),
        Err(io::ErrorKind::WouldBlock),
        Ok(text.as_bytes()[split..].to_vec()),
    ]);
    let mut out = Vec::new();
    let code = run_reader(ServeConfig::default(), input, &mut out);
    assert_eq!(code, 0, "transient errors must not change the outcome");
    let frames = frames_of(&out);
    assert_eq!(
        frames.iter().filter(|f| kind(f) == "verdict").count(),
        h.len(),
        "every event still gets its verdict"
    );
    assert_eq!(frames.iter().filter(|f| kind(f) == "closed").count(), 1);
}

#[test]
fn short_writes_and_would_block_mid_line_never_duplicate_response_bytes() {
    let h = random_history(&GenConfig::default(), 4);
    let text = open_feed_close("s", &h) + &open_feed_close("t", &h);
    let mut clean = Vec::new();
    let code = run_reader(ServeConfig::default(), io::Cursor::new(&text), &mut clean);
    assert_eq!(code, 0);
    let mut scripted = ScriptedWriter::default();
    let code = run_reader(
        ServeConfig::default(),
        io::Cursor::new(&text),
        &mut scripted,
    );
    assert_eq!(
        code, 0,
        "transient write errors must not change the outcome"
    );
    assert!(
        scripted.short_writes > 10 && scripted.transient > 10,
        "the script must cut lines mid-way: {} short writes, {} transient errors",
        scripted.short_writes,
        scripted.transient
    );
    assert_eq!(
        String::from_utf8_lossy(&scripted.bytes),
        String::from_utf8_lossy(&clean),
        "a retried write resumes where the writer stopped"
    );
}

#[test]
fn a_hard_read_error_mid_stream_drains_accepted_work() {
    let h = random_history(&GenConfig::default(), 4);
    let text = open_feed_close("s", &h);
    // Cut the stream with a broken pipe after the open and two feeds.
    let keep: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
    let input = ScriptedReader::new(vec![
        Ok(keep.into_bytes()),
        Err(io::ErrorKind::BrokenPipe),
        Ok(text.into_bytes()), // never reached: the stream is gone
    ]);
    let mut out = Vec::new();
    let code = run_reader(ServeConfig::default(), input, &mut out);
    assert!(
        code == 0 || code == 1,
        "a broken input is a degraded run, not a failure (exit {code})"
    );
    let frames = frames_of(&out);
    assert!(
        frames
            .iter()
            .any(|f| kind(f) == "error" && message(f).contains("input stream error")),
        "the hard error must be reported on the response stream"
    );
    let closed = frames
        .iter()
        .find(|f| kind(f) == "closed")
        .expect("accepted work still drains to a summary");
    assert_eq!(
        closed.get("events"),
        Some(&Json::Int(2)),
        "both accepted feeds were checked before the summary"
    );
}

#[test]
fn an_unbounded_transient_stream_gives_up_and_drains() {
    let h = random_history(&GenConfig::default(), 4);
    let text = open_feed_close("s", &h);
    // The whole session lands, then the source would-block forever; a
    // frame queued behind the stall must never be processed.
    let mut steps: Vec<Result<Vec<u8>, io::ErrorKind>> = vec![Ok(text.into_bytes())];
    steps.extend((0..80).map(|_| Err(io::ErrorKind::WouldBlock)));
    steps.push(Ok(render_client_frame(&ClientFrame::Open {
        session: "late".to_string(),
    })
    .into_bytes()));
    let mut out = Vec::new();
    let code = run_reader(ServeConfig::default(), ScriptedReader::new(steps), &mut out);
    assert_eq!(code, 0);
    let frames = frames_of(&out);
    assert_eq!(frames.iter().filter(|f| kind(f) == "closed").count(), 1);
    assert!(
        !frames
            .iter()
            .any(|f| f.get("session") == Some(&Json::Str("late".into()))),
        "frames behind an exhausted transient stall must not be processed"
    );
}

#[test]
fn garbage_bytes_mid_frame_become_a_positioned_error() {
    let h = random_history(&GenConfig::default(), 4);
    let mut lines: Vec<String> = open_feed_close("s", &h).lines().map(String::from).collect();
    lines.insert(2, "}{ not a frame \u{1F525}".to_string());
    let text = lines.join("\n") + "\n";
    let input = ScriptedReader::new(vec![Ok(text.into_bytes())]);
    let mut out = Vec::new();
    let code = run_reader(ServeConfig::default(), input, &mut out);
    assert_eq!(code, 0, "garbage is reported, not fatal");
    let frames = frames_of(&out);
    let errors: Vec<String> = frames
        .iter()
        .filter(|f| kind(f) == "error")
        .map(message)
        .collect();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].starts_with("input line 3:"),
        "the error must carry the exact input position: {}",
        errors[0]
    );
    assert_eq!(
        frames.iter().filter(|f| kind(f) == "verdict").count(),
        h.len(),
        "the session around the garbage is untouched"
    );
}

#[test]
fn non_utf8_bytes_end_the_stream_but_drain_accepted_work() {
    let h = random_history(&GenConfig::default(), 4);
    let text = open_feed_close("s", &h);
    let keep: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
    let mut bytes = keep.into_bytes();
    bytes.extend_from_slice(&[0xFF, 0xFE, 0x80, b'\n']);
    let input = ScriptedReader::new(vec![Ok(bytes)]);
    let mut out = Vec::new();
    let code = run_reader(ServeConfig::default(), input, &mut out);
    assert!(code == 0 || code == 1);
    let frames = frames_of(&out);
    assert!(
        frames
            .iter()
            .any(|f| kind(f) == "error" && message(f).contains("input stream error")),
        "invalid UTF-8 is a hard stream error"
    );
    assert_eq!(
        frames.iter().filter(|f| kind(f) == "closed").count(),
        1,
        "the accepted feed still drains to a summary"
    );
}

#[test]
fn eof_inside_a_partial_line_is_parsed_or_reported_in_place() {
    let h = random_history(&GenConfig::default(), 4);
    let text = open_feed_close("s", &h);
    // Keep the open and one feed, then tear the second feed mid-frame and
    // end the stream without a newline.
    let lines: Vec<&str> = text.lines().collect();
    let torn = &lines[2][..lines[2].len() / 2];
    let stream = format!("{}\n{}\n{}", lines[0], lines[1], torn);
    let input = ScriptedReader::new(vec![Ok(stream.into_bytes())]);
    let mut out = Vec::new();
    let code = run_reader(ServeConfig::default(), input, &mut out);
    assert_eq!(code, 0);
    let frames = frames_of(&out);
    let errors: Vec<String> = frames
        .iter()
        .filter(|f| kind(f) == "error")
        .map(message)
        .collect();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].starts_with("input line 3:"),
        "the torn tail is positioned like any bad frame: {}",
        errors[0]
    );
    assert_eq!(
        frames.iter().filter(|f| kind(f) == "closed").count(),
        1,
        "the session still drains at EOF"
    );
}

#[test]
fn socket_sessions_survive_garbage_neighbors_and_reconnect_with_seq_continuity() {
    let dir = std::env::temp_dir().join(format!("tm-serve-transport-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("serve.sock");
    let server = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut banner = Vec::new();
            run(Transport::Socket(path), ServeConfig::default(), &mut banner)
        })
    };
    let connect = || {
        for _ in 0..200 {
            if let Ok(c) = UnixStream::connect(&path) {
                return c;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("daemon socket never came up");
    };

    // A misbehaving neighbor: garbage, then a torn frame cut off by an
    // abrupt disconnect. It gets a positioned error; the daemon serves on.
    {
        let conn = connect();
        let mut writer = conn.try_clone().expect("clone socket");
        let mut reader = BufReader::new(conn);
        writeln!(writer, "not a frame at all").expect("write garbage");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read error frame");
        let doc = Json::parse(line.trim_end()).expect("valid JSON");
        assert_eq!(kind(&doc), "error");
        assert!(message(&doc).starts_with("input line 1:"), "{line}");
        write!(writer, "{{\"frame\":\"fe").expect("write torn frame");
        // Drop both halves mid-frame: the daemon must treat the tail as a
        // torn frame on a gone connection and keep running.
    }

    // A session that survives a client-side crash: feed part of a history
    // on one connection, vanish, reconnect, re-open to re-bind, and finish
    // with continuous seq numbering.
    let h = random_history(&GenConfig::default(), 7);
    assert!(h.len() >= 4, "need a splittable history");
    let split = h.len() / 2;
    let feed_line = |i: usize| {
        render_client_frame(&ClientFrame::Feed {
            session: "phoenix".to_string(),
            event: h.events()[i].clone(),
            seq: Some(i + 1),
        })
    };
    let verdict_seqs = {
        let conn = connect();
        let mut writer = conn.try_clone().expect("clone socket");
        let mut reader = BufReader::new(conn);
        writeln!(
            writer,
            "{}",
            render_client_frame(&ClientFrame::Open {
                session: "phoenix".to_string()
            })
        )
        .expect("open");
        for i in 0..split {
            writeln!(writer, "{}", feed_line(i)).expect("feed");
        }
        let mut seqs = Vec::new();
        while seqs.len() < split {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0);
            let doc = Json::parse(line.trim_end()).expect("valid JSON");
            if kind(&doc) == "verdict" {
                if let Some(Json::Int(s)) = doc.get("seq") {
                    seqs.push(*s);
                }
            }
        }
        seqs
        // Connection dropped here, session left open with work done.
    };
    assert_eq!(verdict_seqs, (1..=split as i64).collect::<Vec<_>>());

    let conn = connect();
    let mut writer = conn.try_clone().expect("clone socket");
    let mut reader = BufReader::new(conn);
    writeln!(
        writer,
        "{}",
        render_client_frame(&ClientFrame::Open {
            session: "phoenix".to_string()
        })
    )
    .expect("re-open");
    for i in split..h.len() {
        writeln!(writer, "{}", feed_line(i)).expect("feed");
    }
    writeln!(
        writer,
        "{}",
        render_client_frame(&ClientFrame::Close {
            session: "phoenix".to_string()
        })
    )
    .expect("close");
    let mut seqs = Vec::new();
    let mut summary = None;
    while summary.is_none() {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "daemon closed before the summary"
        );
        let doc = Json::parse(line.trim_end()).expect("valid JSON");
        match kind(&doc).as_str() {
            "verdict" => {
                if let Some(Json::Int(s)) = doc.get("seq") {
                    seqs.push(*s);
                }
            }
            "closed" => summary = Some(doc),
            _ => {}
        }
    }
    assert_eq!(
        seqs,
        (split as i64 + 1..=h.len() as i64).collect::<Vec<_>>(),
        "seq numbering must continue across the reconnect"
    );
    assert_eq!(
        summary.expect("summary").get("events"),
        Some(&Json::Int(h.len() as i64)),
        "the summary accounts for both connections' feeds"
    );

    // A full client-library run against the same live daemon.
    let mut link = SocketLink::new(path.clone());
    let outcome = Client::new(Backoff::default())
        .run_session(
            &mut link,
            "library",
            random_history(&GenConfig::default(), 8).events(),
        )
        .expect("client session over a live socket");
    assert!(outcome.summary.is_some());
    assert!(outcome.responses.iter().all(Option::is_some));

    let conn = connect();
    let mut writer = conn.try_clone().expect("clone socket");
    writeln!(writer, "{}", render_client_frame(&ClientFrame::Shutdown)).expect("shutdown");
    let code = server.join().expect("daemon thread");
    assert_eq!(code, 0, "a clean shutdown after all that chaos");
    let _ = std::fs::remove_dir_all(&dir);
}
