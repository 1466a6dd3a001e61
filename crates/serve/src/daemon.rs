//! Transports and the daemon loop: stdin, offline replay, and a Unix
//! socket, all driving the same transport-agnostic [`SessionTable`].
//!
//! ## Lifecycle and graceful shutdown
//!
//! Every transport ends the same way: drain every runnable session to
//! empty (fair turns — even the final drain interleaves sessions), close
//! any still-open session with its `closed` summary, and return an exit
//! code of 1 if any session was ever poisoned by a hard error (0
//! otherwise; opacity *violations* are normal verdict output, not
//! failures). The drain triggers on EOF of the input stream or on a
//! `shutdown` frame. A true SIGINT handler is impossible here by design —
//! the workspace forbids `unsafe` and vendors no `libc` — so interactive
//! users get the same guarantee by closing the daemon's stdin or sending
//! `{"frame":"shutdown"}`.
//!
//! ## Replay determinism
//!
//! `--replay FILE` is the CI-facing offline mode: frames are applied in
//! file order with exactly one scheduler turn per input line, and a full
//! inbox *flow-controls the reader* (the daemon runs turns until space
//! frees up) instead of emitting `busy`. Output is therefore a pure
//! function of the file — byte-stable across runs and machines — while
//! still exercising the same multiplexed scheduler the live transports
//! use. The live transports (stdin, socket) cannot stall their input
//! sources, so there `busy` frames carry the backpressure instead.
//!
//! ## Fault plane and crash recovery
//!
//! The stdin and replay loops thread every input line through a
//! [`FaultDriver`] built from [`ServeConfig::fault_plan`], which can tear
//! or drop lines, stall the scheduler, arm transient response-write
//! failures, spike the memo/node budgets, or kill the daemon outright
//! (exit code 3, journal flushed, no drain — the crash-recovery tests'
//! guillotine). With `--journal DIR` the table logs accepted work as it
//! happens; `--resume` rebuilds the table from that journal before
//! serving, so a restarted daemon continues every interrupted session
//! with unchanged `seq` numbering. Input errors degrade instead of
//! aborting: transient kinds (`Interrupted`, `WouldBlock`) are retried a
//! bounded number of times, hard errors end the input and trigger the
//! normal drain — a broken pipe mid-stream loses no accepted work.
//!
//! ## One turn path, reused buffers
//!
//! Every transport handles an input line the same way: decode the frame in
//! place (its session id borrows from the line), route it, take one
//! scheduler turn, and write the frames both produced. The routed and the
//! turn frames are appended to one `Vec` the loop reuses, and every
//! response line is rendered into one reused `String` and written whole: a
//! short write or a transient error resumes from the byte the writer
//! stopped at, so a peer never sees part of a line twice.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc;

use crate::faults::{FaultDriver, LineFate};
use crate::frame::{decode_client_frame, ClientFrameRef, ServerFrame};
use crate::journal::{read_journal, JournalWriter};
use crate::table::{Routed, ServeConfig, SessionTable};

/// Process exit code for an injected [`crate::faults::Fault::Crash`]:
/// distinguishable from a clean drain (0), a poisoned session (1), and a
/// usage/IO failure (2), so harnesses can assert the guillotine fired.
pub const CRASH_EXIT_CODE: i32 = 3;

/// Consecutive transient input/output errors (`Interrupted`,
/// `WouldBlock`) tolerated before the stream is treated as gone.
const MAX_TRANSIENT_RETRIES: u32 = 64;

/// Where the daemon reads client frames from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Line-delimited frames on stdin, responses on the provided writer
    /// (stdout in the CLI). The live single-stream mode.
    Stdin,
    /// Offline deterministic mode: drain a recorded frame file.
    Replay(PathBuf),
    /// A Unix listening socket; every connection is a frame stream and
    /// receives its own sessions' responses.
    Socket(PathBuf),
}

/// Decodes one input line: `None` for a blank line (ignored), else the
/// frame or, on a parse error, the `error` frame answering it, tagged with
/// the input line number.
fn parse_line(
    line: &str,
    lineno: usize,
    conn: usize,
) -> Option<Result<ClientFrameRef<'_>, Routed>> {
    if line.trim().is_empty() {
        return None;
    }
    Some(decode_client_frame(line).map_err(|e| Routed {
        conn,
        frame: ServerFrame::Error {
            session: None,
            seq: None,
            message: format!("input line {lineno}: {}", e.message),
        },
    }))
}

/// Applies one decoded input line (see [`parse_line`]), appending the
/// immediate response frames to `out`. Returns whether the frame requested
/// shutdown.
fn apply(
    table: &mut SessionTable,
    parsed: Option<Result<ClientFrameRef<'_>, Routed>>,
    conn: usize,
    out: &mut Vec<Routed>,
) -> bool {
    let frame = match parsed {
        None => return false,
        Some(Err(error)) => {
            out.push(error);
            return false;
        }
        Some(Ok(frame)) => frame,
    };
    match frame {
        ClientFrameRef::Open { session } => table.open_into(&session, conn, out),
        ClientFrameRef::Feed {
            session,
            event,
            seq,
        } => {
            let handle = table.lookup(&session);
            table.feed_into(handle, &session, event, seq, conn, out);
        }
        ClientFrameRef::Close { session } => table.close_into(&session, conn, out),
        ClientFrameRef::Shutdown => return true,
    }
    false
}

/// Writes one whole response line, resuming after short writes from the
/// byte offset already accepted: a transient error (`Interrupted`,
/// `WouldBlock`) is retried a bounded number of times without re-sending
/// any byte the writer took.
fn write_line(w: &mut dyn Write, line: &[u8]) -> io::Result<()> {
    let mut done = 0;
    let mut retries = 0u32;
    while done < line.len() {
        match w.write(&line[done..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e)
                if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock)
                    && retries < MAX_TRANSIENT_RETRIES =>
            {
                retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The single-stream response side: the writer plus the buffer every
/// response line is rendered into, reused across frames.
struct Responder<'w> {
    out: &'w mut dyn Write,
    line: String,
}

impl Responder<'_> {
    /// Writes response frames and empties `frames`, consulting the fault
    /// driver before each one: an armed transient write failure swallows
    /// that frame (the daemon carries on — a lost response is the client
    /// library's problem to recover, and seq-tagged resends make that
    /// safe).
    fn emit(&mut self, driver: &mut FaultDriver, frames: &mut Vec<Routed>) -> io::Result<()> {
        for r in frames.drain(..) {
            if driver.take_write_failure() {
                continue;
            }
            render_line(&mut self.line, &r.frame);
            write_line(self.out, self.line.as_bytes())?;
        }
        Ok(())
    }
}

/// Renders `frame` plus its newline into the cleared `buf`.
fn render_line(buf: &mut String, frame: &ServerFrame) {
    buf.clear();
    frame.render_into(buf);
    buf.push('\n');
}

/// Builds the table a run starts from: resume from the journal when
/// configured (then keep appending to it), otherwise start a fresh journal
/// (when configured) or none at all. Errors here are startup failures —
/// the caller exits 2 before serving anything.
fn prepare(config: ServeConfig) -> Result<(SessionTable, FaultDriver), i32> {
    let driver = FaultDriver::new(config.fault_plan.clone());
    let journal_dir = config.journal_dir.clone();
    let resume = config.resume;
    let fsync_every = config.fsync_every;
    let mut table = SessionTable::new(config);
    if let Some(dir) = journal_dir {
        if resume {
            match read_journal(&dir) {
                Ok(state) => {
                    table.resume_from(&state);
                }
                Err(e) => {
                    eprintln!(
                        "tmcheck serve: cannot resume from journal in {}: {e}",
                        dir.display()
                    );
                    return Err(2);
                }
            }
        }
        let writer = if resume {
            JournalWriter::append_to(&dir, fsync_every)
        } else {
            JournalWriter::create(&dir, fsync_every)
        };
        match writer {
            Ok(w) => table.attach_journal(w),
            Err(e) => {
                eprintln!(
                    "tmcheck serve: cannot open journal in {}: {e}",
                    dir.display()
                );
                return Err(2);
            }
        }
    }
    Ok((table, driver))
}

/// Runs the daemon until EOF/shutdown and returns the process exit code:
/// 0 on a clean drain, 1 if any session was poisoned by a hard error, 2 on
/// usage/IO failures (unreadable replay file, unbindable socket, broken
/// journal), [`CRASH_EXIT_CODE`] when an injected crash fault fires. For
/// the single-stream transports all responses go to `out`; the socket
/// transport writes to its connections and uses `out` only for the
/// startup banner.
pub fn run(transport: Transport, config: ServeConfig, out: &mut dyn Write) -> i32 {
    let obs = config.obs;
    let (mut table, mut driver) = match prepare(config) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    let code = match transport {
        Transport::Stdin => {
            let stdin = io::stdin();
            run_stream(&mut table, &mut driver, stdin.lock(), out)
        }
        Transport::Replay(path) => match std::fs::read_to_string(&path) {
            Ok(text) => run_replay(&mut table, &mut driver, &text, out),
            Err(e) => {
                eprintln!(
                    "tmcheck serve: cannot read replay file {}: {e}",
                    path.display()
                );
                2
            }
        },
        Transport::Socket(path) => run_socket(&mut table, &path, out),
    };
    obs.gauge_set("serve.memo_resident_final", table.memo_resident() as u64);
    code
}

/// Runs the live single-stream loop over an arbitrary buffered reader —
/// the stdin transport with the input source under test control (the
/// transport-error and chaos suites inject failing readers here). Same
/// exit-code contract as [`run`].
pub fn run_reader(config: ServeConfig, input: impl BufRead, out: &mut dyn Write) -> i32 {
    let (mut table, mut driver) = match prepare(config) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    run_stream(&mut table, &mut driver, input, out)
}

/// The live single-stream loop (stdin): one scheduler turn per input
/// line, backpressure via `busy`, drain on EOF or `shutdown`. Transient
/// read errors are retried; hard read errors end the input and trigger
/// the normal drain (accepted work is never dropped on a broken input).
fn run_stream(
    table: &mut SessionTable,
    driver: &mut FaultDriver,
    mut input: impl BufRead,
    out: &mut dyn Write,
) -> i32 {
    let mut out = Responder {
        out,
        line: String::new(),
    };
    let mut lineno = 0usize;
    let mut buf = String::new();
    let mut frames = Vec::new();
    let mut transient = 0u32;
    let mut eof = false;
    while !eof {
        buf.clear();
        // Read one line, accumulating across transient failures — a
        // WouldBlock mid-line must not discard the prefix already read
        // (`read_line` appends, so retrying completes the line in place).
        let got_line = loop {
            match input.read_line(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break !buf.is_empty();
                }
                Ok(_) => {
                    transient = 0;
                    break true;
                }
                Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {
                    transient += 1;
                    if transient > MAX_TRANSIENT_RETRIES {
                        eof = true;
                        break !buf.is_empty();
                    }
                }
                Err(e) => {
                    // A hard input error ends the stream like EOF would;
                    // the drain below still answers everything accepted.
                    frames.push(Routed {
                        conn: 0,
                        frame: ServerFrame::Error {
                            session: None,
                            seq: None,
                            message: format!("input stream error: {e}"),
                        },
                    });
                    let _ = out.emit(driver, &mut frames);
                    eof = true;
                    break !buf.is_empty();
                }
            }
        };
        if !got_line {
            break;
        }
        lineno += 1;
        let fate = driver.admit(table, buf.trim_end_matches(['\n', '\r']), &mut frames);
        if out.emit(driver, &mut frames).is_err() {
            return 2; // the response stream is gone; nothing left to serve
        }
        let line = match fate {
            LineFate::Deliver(l) => l,
            LineFate::Skip => {
                table.pump_into(&mut frames);
                if out.emit(driver, &mut frames).is_err() {
                    return 2;
                }
                continue;
            }
            LineFate::Crash => return CRASH_EXIT_CODE,
        };
        let shutdown = apply(table, parse_line(line, lineno, 0), 0, &mut frames);
        table.pump_into(&mut frames);
        if out.emit(driver, &mut frames).is_err() {
            return 2;
        }
        if shutdown {
            break;
        }
    }
    let mut last = table.drain_and_close_all();
    if out.emit(driver, &mut last).is_err() {
        return 2;
    }
    i32::from(table.any_poisoned())
}

/// Drains a recorded frame stream deterministically (the engine behind
/// `--replay`, callable on an in-memory string — the bench driver and the
/// replay/chaos tests use this directly). Same exit-code contract as
/// [`run`]; honors `fault_plan`/`journal_dir`/`resume` from `config`.
pub fn replay(config: ServeConfig, text: &str, out: &mut dyn Write) -> i32 {
    let (mut table, mut driver) = match prepare(config) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    run_replay(&mut table, &mut driver, text, out)
}

/// The offline deterministic loop: flow-controls full inboxes instead of
/// emitting `busy`, so output is a pure function of the replay file (and
/// the fault plan, which is part of that function's input).
fn run_replay(
    table: &mut SessionTable,
    driver: &mut FaultDriver,
    text: &str,
    out: &mut dyn Write,
) -> i32 {
    let mut out = Responder {
        out,
        line: String::new(),
    };
    let mut frames = Vec::new();
    let mut shutdown = false;
    for (i, line) in text.lines().enumerate() {
        if shutdown {
            break;
        }
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fate = driver.admit(table, line, &mut frames);
        if out.emit(driver, &mut frames).is_err() {
            return 2;
        }
        let line = match fate {
            LineFate::Deliver(l) => l,
            LineFate::Skip => {
                table.pump_into(&mut frames);
                if out.emit(driver, &mut frames).is_err() {
                    return 2;
                }
                continue;
            }
            LineFate::Crash => return CRASH_EXIT_CODE,
        };
        shutdown = match parse_line(line, lineno, 0) {
            Some(Ok(ClientFrameRef::Feed {
                session,
                event,
                seq,
            })) => {
                // Flow control: a feed into a full inbox (or past the
                // queue watermark) waits for the scheduler instead of
                // bouncing (deterministically — a turn always checks at
                // least one event of a runnable session). Turns only
                // remove sessions, so the handle stays valid or empty.
                let handle = table.lookup(&session);
                while !table.has_room(handle) {
                    table.pump_into(&mut frames);
                    if out.emit(driver, &mut frames).is_err() {
                        return 2;
                    }
                }
                table.feed_into(handle, &session, event, seq, 0, &mut frames);
                false
            }
            parsed => apply(table, parsed, 0, &mut frames),
        };
        table.pump_into(&mut frames);
        if out.emit(driver, &mut frames).is_err() {
            return 2;
        }
    }
    let mut last = table.drain_and_close_all();
    if out.emit(driver, &mut last).is_err() {
        return 2;
    }
    i32::from(table.any_poisoned())
}

/// Messages from the socket threads to the scheduler thread.
enum SocketMsg {
    /// A new client connection (its write half).
    Conn(UnixStream),
    /// One frame line from connection `conn`.
    Line(usize, String),
    /// Connection `conn` reached EOF or a hard read error.
    Gone(usize),
}

/// The per-connection reader loop: forwards complete lines, retries
/// transient errors a bounded number of times, forwards a final partial
/// line without its newline (a torn frame — the parser answers with a
/// positioned `error`), and reports `Gone` on EOF or hard errors. Never
/// panics: a misbehaving client can at worst disconnect itself.
fn run_conn_reader(conn: usize, read_half: UnixStream, tx: mpsc::Sender<SocketMsg>) {
    let mut reader = BufReader::new(read_half);
    let mut buf = String::new();
    let mut transient = 0u32;
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) => break,
            Ok(_) => {
                transient = 0;
                let line = buf.trim_end_matches(['\n', '\r']).to_string();
                if tx.send(SocketMsg::Line(conn, line)).is_err() {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {
                transient += 1;
                if transient > MAX_TRANSIENT_RETRIES {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let _ = tx.send(SocketMsg::Gone(conn));
}

/// The Unix-socket transport: an acceptor thread plus one reader thread
/// per connection feed a channel; this thread owns the table and the
/// write halves, interleaving scheduler turns with frame ingest. Runs
/// until a `shutdown` frame arrives on any connection. Peer failures
/// degrade per-connection — a write error or disconnect marks that
/// connection gone and the daemon serves on.
fn run_socket(table: &mut SessionTable, path: &std::path::Path, out: &mut dyn Write) -> i32 {
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("tmcheck serve: cannot bind {}: {e}", path.display());
            return 2;
        }
    };
    let _ = writeln!(
        out,
        "{} listening on {}",
        crate::frame::PROTOCOL,
        path.display()
    );
    let _ = out.flush();
    let (tx, rx) = mpsc::channel::<SocketMsg>();
    {
        let tx = tx.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                if tx.send(SocketMsg::Conn(stream)).is_err() {
                    return;
                }
            }
        });
    }
    // Write halves by connection index (`None` once the peer is gone),
    // plus per-connection input line counts for error positions.
    let mut writers: Vec<Option<UnixStream>> = Vec::new();
    let mut line_counts: Vec<usize> = Vec::new();
    let mut response = String::new();
    let mut frames = Vec::new();
    let mut route = |writers: &mut Vec<Option<UnixStream>>, frames: &mut Vec<Routed>| {
        for r in frames.drain(..) {
            let Some(slot) = writers.get_mut(r.conn) else {
                continue; // the session's connection is gone; drop the frame
            };
            let Some(w) = slot.as_mut() else {
                continue;
            };
            render_line(&mut response, &r.frame);
            if write_line(w, response.as_bytes()).is_err() {
                *slot = None;
            }
        }
    };
    loop {
        // Idle: block for input. Busy: poll, and spend the gap on turns.
        let msg = if table.idle() {
            match rx.recv() {
                Ok(m) => m,
                Err(_) => break,
            }
        } else {
            match rx.try_recv() {
                Ok(m) => m,
                Err(mpsc::TryRecvError::Empty) => {
                    table.pump_into(&mut frames);
                    route(&mut writers, &mut frames);
                    continue;
                }
                Err(mpsc::TryRecvError::Disconnected) => break,
            }
        };
        match msg {
            SocketMsg::Conn(stream) => {
                let conn = writers.len();
                match stream.try_clone() {
                    Ok(read_half) => {
                        writers.push(Some(stream));
                        line_counts.push(0);
                        let tx = tx.clone();
                        std::thread::spawn(move || run_conn_reader(conn, read_half, tx));
                    }
                    Err(_) => continue,
                }
            }
            SocketMsg::Line(conn, line) => {
                line_counts[conn] += 1;
                let parsed = parse_line(&line, line_counts[conn], conn);
                let shutdown = apply(table, parsed, conn, &mut frames);
                route(&mut writers, &mut frames);
                if shutdown {
                    let mut last = table.drain_and_close_all();
                    route(&mut writers, &mut last);
                    let _ = std::fs::remove_file(path);
                    return i32::from(table.any_poisoned());
                }
                table.pump_into(&mut frames);
                route(&mut writers, &mut frames);
            }
            SocketMsg::Gone(conn) => {
                if let Some(w) = writers.get_mut(conn) {
                    *w = None;
                }
            }
        }
    }
    table.journal_flush();
    let _ = std::fs::remove_file(path);
    i32::from(table.any_poisoned())
}
