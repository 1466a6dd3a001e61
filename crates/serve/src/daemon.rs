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
//! `shutdown` frame. The socket transport then shuts every connection
//! down, so each client reads EOF, and joins the threads it spawned. A true SIGINT handler is impossible here by design —
//! the workspace forbids `unsafe` and vendors no `libc` — so interactive
//! users get the same guarantee by closing the daemon's stdin or sending
//! `{"frame":"shutdown"}`.
//!
//! ## Replay determinism
//!
//! `--replay FILE` is the CI-facing offline mode: frames are applied in
//! file order with exactly one scheduler turn per frame line, and a full
//! inbox *flow-controls the reader* (the daemon runs turns until space
//! frees up) instead of emitting `busy`. Output is therefore a pure
//! function of the file — byte-stable across runs and machines — while
//! still exercising the same multiplexed scheduler the live transports
//! use. The live transports (stdin, socket) cannot stall their input
//! sources, so there `busy` frames carry the backpressure instead.
//!
//! ## Fault plane and crash recovery
//!
//! Every transport threads every input line through a [`FaultDriver`]
//! built from [`ServeConfig::fault_plan`], which can tear
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
//! ## One line path, reused buffers
//!
//! Every transport hands its input lines to one routine. A blank line is
//! not a frame: the fault plan does not count it and it takes no turn,
//! though it still counts in the `input line N` positions of error frames.
//! Any other line passes fault admission, is decoded in place (its session
//! id borrows from the line), is routed, takes one scheduler turn, and the
//! frames both produced are written through the driver's write-failure
//! check. Transports differ only in where lines come from and in the
//! backpressure rule above. The frames are appended to one `Vec` the
//! daemon reuses, and every response line is rendered into one reused
//! `String` and written whole: a short write or a transient error resumes
//! from the byte the writer stopped at, so a peer never sees part of a
//! line twice.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;

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

fn is_transient(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock)
}

/// Reads the next line into the cleared `buf`, retrying transient errors
/// a bounded number of times in a row. A `WouldBlock` mid-line keeps the
/// prefix already read (`read_line` appends, so the retry completes the
/// line in place). `Ok(true)` while more input may follow; at the end of
/// the input — EOF or retries exhausted (`Ok(false)`), or a hard error
/// (`Err`) — `buf` holds whatever final partial line came before it.
fn read_line(input: &mut impl BufRead, buf: &mut String) -> io::Result<bool> {
    buf.clear();
    let mut retries = 0u32;
    loop {
        match input.read_line(buf) {
            Ok(n) => return Ok(n > 0),
            Err(e) if is_transient(&e) => {
                if retries == MAX_TRANSIENT_RETRIES {
                    return Ok(false);
                }
                retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes one whole response line, resuming after short writes from the
/// byte offset already accepted: a transient error (`Interrupted`,
/// `WouldBlock`) is retried a bounded number of times without re-sending
/// any byte the writer took.
fn write_line<W: Write + ?Sized>(w: &mut W, line: &[u8]) -> io::Result<()> {
    let mut done = 0;
    let mut retries = 0u32;
    while done < line.len() {
        match w.write(&line[done..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if is_transient(&e) && retries < MAX_TRANSIENT_RETRIES => retries += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Where response lines go.
trait Sink {
    /// Writes one rendered response line for connection `conn`. An error
    /// means the response stream is gone, which ends the run.
    fn send(&mut self, conn: usize, line: &[u8]) -> io::Result<()>;
}

/// The single-stream transports (stdin, replay) answer on one writer.
impl<W: Write + ?Sized> Sink for &mut W {
    fn send(&mut self, _conn: usize, line: &[u8]) -> io::Result<()> {
        write_line(&mut **self, line)
    }
}

/// The socket answers on each frame's connection (`None` once the peer is
/// gone). Peer failures degrade per connection: a frame for a gone peer is
/// dropped, and a failed write marks that peer gone.
impl Sink for Vec<Option<UnixStream>> {
    fn send(&mut self, conn: usize, line: &[u8]) -> io::Result<()> {
        if let Some(slot) = self.get_mut(conn) {
            if slot.as_mut().is_some_and(|w| write_line(w, line).is_err()) {
                *slot = None;
            }
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

/// An `error` frame about the input itself, not about a session.
fn input_error(conn: usize, message: String) -> Routed {
    let frame = ServerFrame::Error {
        session: None,
        seq: None,
        message,
    };
    Routed { conn, frame }
}

/// One run's serving state, whatever the transport.
struct Daemon {
    table: SessionTable,
    driver: FaultDriver,
    /// Frames produced and not yet written.
    frames: Vec<Routed>,
    /// The response line being written.
    line: String,
    /// Replay flow-controls its reader: a feed into a full inbox waits for
    /// scheduler turns instead of bouncing with `busy`.
    flow_control: bool,
}

impl Daemon {
    /// Builds the table a run starts from: resume from the journal when
    /// configured (then keep appending to it), otherwise start a fresh
    /// journal (when configured) or none at all. Errors here are startup
    /// failures — the caller exits 2 before serving anything.
    fn new(config: ServeConfig, flow_control: bool) -> Result<Daemon, i32> {
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
        Ok(Daemon {
            table,
            driver,
            frames: Vec::new(),
            line: String::new(),
            flow_control,
        })
    }

    /// Writes and empties the pending frames, consulting the fault driver
    /// before each one: an armed transient write failure swallows that
    /// frame (the daemon carries on — a lost response is the client
    /// library's problem to recover, and seq-tagged resends make that
    /// safe). `Err(2)` when the response stream is gone.
    fn emit(&mut self, sink: &mut impl Sink) -> Result<(), i32> {
        for r in self.frames.drain(..) {
            if self.driver.take_write_failure() {
                continue;
            }
            render_line(&mut self.line, &r.frame);
            sink.send(r.conn, self.line.as_bytes()).map_err(|_| 2)?;
        }
        Ok(())
    }

    /// One scheduler turn, its frames written.
    fn turn(&mut self, sink: &mut impl Sink) -> Result<(), i32> {
        self.table.pump_into(&mut self.frames);
        self.emit(sink)
    }

    /// Serves input line `lineno` of connection `conn` (line ending
    /// stripped): the one line path of every transport. Returns whether
    /// the line asked for shutdown; `Err` carries the exit code that ends
    /// the run ([`CRASH_EXIT_CODE`] for a crash fault, 2 when the response
    /// stream is gone).
    fn serve_line(
        &mut self,
        line: &str,
        lineno: usize,
        conn: usize,
        sink: &mut impl Sink,
    ) -> Result<bool, i32> {
        if line.trim().is_empty() {
            return Ok(false);
        }
        let fate = self.driver.admit(&mut self.table, line, &mut self.frames);
        self.emit(sink)?;
        let shutdown = match fate {
            LineFate::Deliver(line) => self.apply(line, lineno, conn, sink)?,
            LineFate::Skip => false,
            LineFate::Crash => return Err(CRASH_EXIT_CODE),
        };
        self.turn(sink)?;
        Ok(shutdown)
    }

    /// Decodes a delivered line in place and routes it, appending the
    /// immediate responses (a parse error answers with an `error` frame
    /// naming the input line). A line a torn fault cut to blank is no
    /// frame. Returns whether the frame was `shutdown`.
    fn apply(
        &mut self,
        line: &str,
        lineno: usize,
        conn: usize,
        sink: &mut impl Sink,
    ) -> Result<bool, i32> {
        if line.trim().is_empty() {
            return Ok(false);
        }
        match decode_client_frame(line) {
            Err(e) => {
                let message = format!("input line {lineno}: {}", e.message);
                self.frames.push(input_error(conn, message));
            }
            Ok(ClientFrameRef::Open { session }) => {
                self.table.open_into(&session, conn, &mut self.frames)
            }
            Ok(ClientFrameRef::Feed {
                session,
                event,
                seq,
            }) => {
                let handle = self.table.lookup(&session);
                // Flow control: a feed into a full inbox (or past the
                // queue watermark) waits for the scheduler instead of
                // bouncing (deterministically — a turn always checks at
                // least one event of a runnable session). Turns only
                // remove sessions, so the handle stays valid or empty.
                while self.flow_control && !self.table.has_room(handle) {
                    self.turn(sink)?;
                }
                self.table
                    .feed_into(handle, &session, event, seq, conn, &mut self.frames);
            }
            Ok(ClientFrameRef::Close { session }) => {
                self.table.close_into(&session, conn, &mut self.frames)
            }
            Ok(ClientFrameRef::Shutdown) => return Ok(true),
        }
        Ok(false)
    }

    /// Drains every session, closes what is open, and returns the exit
    /// code.
    fn finish(&mut self, sink: &mut impl Sink) -> i32 {
        self.frames.extend(self.table.drain_and_close_all());
        match self.emit(sink) {
            Ok(()) => i32::from(self.table.any_poisoned()),
            Err(code) => code,
        }
    }

    /// The single-stream loop (stdin, replay) until EOF or `shutdown`. A
    /// hard read error ends the input like EOF would, after an `error`
    /// frame naming it: the drain still answers everything accepted.
    fn serve_stream(&mut self, mut input: impl BufRead, mut out: &mut dyn Write) -> i32 {
        let mut buf = String::new();
        let mut lineno = 0usize;
        loop {
            let more = read_line(&mut input, &mut buf).unwrap_or_else(|e| {
                let message = format!("input stream error: {e}");
                self.frames.push(input_error(0, message));
                let _ = self.emit(&mut out);
                false
            });
            if buf.is_empty() {
                break;
            }
            lineno += 1;
            match self.serve_line(buf.trim_end_matches(['\n', '\r']), lineno, 0, &mut out) {
                Ok(false) if more => {}
                Ok(_) => break,
                Err(code) => return code,
            }
        }
        self.finish(&mut out)
    }

    /// The Unix-socket transport: an acceptor thread plus one reader
    /// thread per connection feed a channel; this thread owns the table
    /// and the write halves, interleaving scheduler turns with frame
    /// ingest. Runs until a `shutdown` frame arrives on any connection;
    /// after the drain it shuts every connection down, so each client
    /// reads EOF, and joins every thread it spawned.
    fn serve_socket(&mut self, path: &Path, out: &mut dyn Write) -> i32 {
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
        let acceptor = {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming().flatten() {
                    if tx.send(SocketMsg::Conn(stream)).is_err() {
                        return;
                    }
                }
            })
        };
        // Write halves by connection index, plus per-connection input line
        // counts for error positions, and each connection's reader thread
        // with a handle to shut the connection down by.
        let mut writers: Vec<Option<UnixStream>> = Vec::new();
        let mut line_counts: Vec<usize> = Vec::new();
        let mut readers: Vec<(UnixStream, JoinHandle<()>)> = Vec::new();
        loop {
            // Idle: block for input. Busy: poll, and spend the gap on turns.
            let msg = if self.table.idle() {
                let Ok(msg) = rx.recv() else { break };
                msg
            } else {
                match rx.try_recv() {
                    Ok(msg) => msg,
                    Err(mpsc::TryRecvError::Empty) => {
                        let _ = self.turn(&mut writers);
                        continue;
                    }
                    Err(mpsc::TryRecvError::Disconnected) => break,
                }
            };
            match msg {
                SocketMsg::Conn(stream) => {
                    let conn = writers.len();
                    if let (Ok(read_half), Ok(control)) = (stream.try_clone(), stream.try_clone()) {
                        writers.push(Some(stream));
                        line_counts.push(0);
                        let tx = tx.clone();
                        let reader =
                            std::thread::spawn(move || run_conn_reader(conn, read_half, tx));
                        readers.push((control, reader));
                    }
                }
                SocketMsg::Line(conn, line) => {
                    line_counts[conn] += 1;
                    match self.serve_line(&line, line_counts[conn], conn, &mut writers) {
                        Ok(false) => {}
                        Ok(true) => break,
                        Err(code) => return code,
                    }
                }
                SocketMsg::Gone(conn) => writers[conn] = None,
            }
        }
        let code = self.finish(&mut writers);
        // A shut-down connection ends its reader's `read`; with the channel
        // gone, a connection of our own ends the acceptor's `accept`.
        drop(rx);
        for (control, reader) in readers {
            let _ = control.shutdown(Shutdown::Both);
            let _ = reader.join();
        }
        if UnixStream::connect(path).is_ok() {
            let _ = acceptor.join();
        }
        let _ = std::fs::remove_file(path);
        code
    }
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
    let flow_control = matches!(transport, Transport::Replay(_));
    let mut daemon = match Daemon::new(config, flow_control) {
        Ok(daemon) => daemon,
        Err(code) => return code,
    };
    let code = match transport {
        Transport::Stdin => daemon.serve_stream(io::stdin().lock(), out),
        Transport::Replay(path) => match std::fs::read_to_string(&path) {
            Ok(text) => daemon.serve_stream(text.as_bytes(), out),
            Err(e) => {
                eprintln!(
                    "tmcheck serve: cannot read replay file {}: {e}",
                    path.display()
                );
                2
            }
        },
        Transport::Socket(path) => daemon.serve_socket(&path, out),
    };
    obs.gauge_set(
        "serve.memo_resident_final",
        daemon.table.memo_resident() as u64,
    );
    code
}

/// Runs the live single-stream loop over an arbitrary buffered reader —
/// the stdin transport with the input source under test control (the
/// transport-error and chaos suites inject failing readers here). Same
/// exit-code contract as [`run`].
pub fn run_reader(config: ServeConfig, input: impl BufRead, out: &mut dyn Write) -> i32 {
    match Daemon::new(config, false) {
        Ok(mut daemon) => daemon.serve_stream(input, out),
        Err(code) => code,
    }
}

/// Drains a recorded frame stream deterministically (the engine behind
/// `--replay`, callable on an in-memory string — the bench driver and the
/// replay/chaos tests use this directly). Same exit-code contract as
/// [`run`]; honors `fault_plan`/`journal_dir`/`resume` from `config`.
pub fn replay(config: ServeConfig, text: &str, out: &mut dyn Write) -> i32 {
    match Daemon::new(config, true) {
        Ok(mut daemon) => daemon.serve_stream(text.as_bytes(), out),
        Err(code) => code,
    }
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

/// The per-connection reader loop: forwards every line without its line
/// ending — a final partial line too (a torn frame — the parser answers
/// with a positioned `error`) — and reports `Gone` at the end of the
/// input. Never panics: a misbehaving client can at worst disconnect
/// itself.
fn run_conn_reader(conn: usize, read_half: UnixStream, tx: mpsc::Sender<SocketMsg>) {
    let mut reader = BufReader::new(read_half);
    let mut buf = String::new();
    loop {
        let more = read_line(&mut reader, &mut buf).unwrap_or(false);
        if !buf.is_empty() {
            let line = buf.trim_end_matches(['\n', '\r']).to_string();
            if tx.send(SocketMsg::Line(conn, line)).is_err() {
                return;
            }
        }
        if !more {
            break;
        }
    }
    let _ = tx.send(SocketMsg::Gone(conn));
}
