//! The serve workloads. End-to-end numbers come from a closed loop around
//! `tm_serve::run_reader` — the stdin transport — with one client that
//! hands over its next line as soon as the daemon asks for it. Per-layer
//! numbers come from a traced loop that makes the public calls the stdin
//! loop makes, in the same order, with a span around each call, followed
//! by replays that split the checker and the journal out of the table's
//! turns.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::{self, BufRead, Read, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use tm_model::Event;
use tm_opacity::incremental::OpacityMonitor;
use tm_opacity::search::{CheckSession, SearchMode};
use tm_serve::{
    parse_client_frame, render_client_frame, run_reader, specs, ClientFrame, FaultDriver,
    FaultPlan, JournalWriter, LineFate, Routed, ServeConfig, ServerFrame, SessionTable,
};
use tm_trace::{event_from_doc, Json};

use crate::gen::Traffic;
use crate::measure::{median, metric, ratio, Histogram, Metric};
use crate::trace::{Layer, Tracer};

#[derive(Clone, Copy)]
enum Kind {
    Open,
    Feed { slot: usize },
    Close,
}

/// One pass of a workload's traffic as client frame lines, rendered twice:
/// once per session-id generation (`a…`, `b…`). Passes alternate
/// generations, so no id is reopened while its previous incarnation could
/// still be draining.
pub struct Stream {
    lines: [Vec<String>; 2],
    kinds: Vec<Kind>,
    session_of_line: Vec<usize>,
    ids: [Vec<String>; 2],
    /// Every fed event, by slot (`first_slot[session] + seq - 1`).
    events: Vec<Event>,
    first_slot: Vec<usize>,
    session_len: Vec<usize>,
    slot_session: Vec<usize>,
    /// Line ranges of the groups of sessions that are open together.
    groups: Vec<(usize, usize)>,
}

impl Stream {
    pub fn new(traffic: &Traffic) -> Stream {
        let mut s = Stream {
            lines: [Vec::new(), Vec::new()],
            kinds: Vec::new(),
            session_of_line: Vec::new(),
            ids: [Vec::new(), Vec::new()],
            events: Vec::new(),
            first_slot: Vec::new(),
            session_len: Vec::new(),
            slot_session: Vec::new(),
            groups: Vec::new(),
        };
        for group in &traffic.groups {
            let start = s.kinds.len();
            let first = s.first_slot.len();
            for h in group {
                let session = s.first_slot.len();
                for (g, prefix) in ["a", "b"].iter().enumerate() {
                    s.ids[g].push(format!("{prefix}{session:04}"));
                }
                s.first_slot.push(s.events.len());
                s.session_len.push(h.len());
                for e in h.events() {
                    s.events.push(e.clone());
                    s.slot_session.push(session);
                }
                s.push(Kind::Open, session, |id| ClientFrame::Open { session: id });
            }
            let rounds = group.iter().map(|h| h.len()).max().unwrap_or(0);
            for round in 0..rounds {
                for (i, h) in group.iter().enumerate() {
                    if let Some(e) = h.events().get(round) {
                        let session = first + i;
                        let slot = s.first_slot[session] + round;
                        s.push(Kind::Feed { slot }, session, |id| ClientFrame::Feed {
                            session: id,
                            event: e.clone(),
                            seq: None,
                        });
                    }
                }
            }
            for session in first..s.first_slot.len() {
                s.push(Kind::Close, session, |id| ClientFrame::Close {
                    session: id,
                });
            }
            s.groups.push((start, s.kinds.len()));
        }
        s
    }

    /// Appends one line per generation; `frame` builds it from the id.
    fn push(&mut self, kind: Kind, session: usize, frame: impl Fn(String) -> ClientFrame) {
        for g in 0..2 {
            let mut line = render_client_frame(&frame(self.ids[g][session].clone()));
            line.push('\n');
            self.lines[g].push(line);
        }
        self.kinds.push(kind);
        self.session_of_line.push(session);
    }

    pub fn sessions(&self) -> usize {
        self.first_slot.len()
    }

    /// Feed lines (= expected verdicts) per pass.
    pub fn feeds(&self) -> usize {
        self.events.len()
    }

    fn slots(&self) -> usize {
        self.events.len()
    }

    /// The passes `gens` as one input text (for the lockstep check).
    fn text(&self, gens: &[usize]) -> String {
        gens.iter()
            .flat_map(|&g| self.lines[g].iter())
            .map(String::as_str)
            .collect()
    }
}

/// Checks the daemon's output line by line against the verdicts known by
/// construction: every prefix of every session is opaque, so an invocation
/// is answered `opaque_skip` and a response `opaque`, in `seq` order; every
/// session closes unpoisoned, with all its events counted.
pub struct Checker {
    skip: Vec<bool>,
    first_slot: Vec<usize>,
    session_len: Vec<usize>,
    next_seq: Vec<usize>,
    verdicts: u64,
    bad: u64,
    poisoned: u64,
    pub opened: u64,
    pub closed: u64,
    shown: u32,
}

const VERDICT: &[u8] = b"{\"frame\":\"verdict\",\"session\":\"";
const CLOSED: &[u8] = b"{\"frame\":\"closed\",\"session\":\"";
const OPENED: &[u8] = b"{\"frame\":\"opened\",";

/// Splits `bytes` at the first `"`, returning what precedes it and what
/// follows it.
fn until_quote(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let i = bytes.iter().position(|&b| b == b'"')?;
    Some((&bytes[..i], &bytes[i + 1..]))
}

fn number(bytes: &[u8]) -> Option<(usize, &[u8])> {
    let n = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    let v = std::str::from_utf8(&bytes[..n]).ok()?.parse().ok()?;
    Some((v, &bytes[n..]))
}

impl Checker {
    pub fn new(stream: &Stream) -> Checker {
        Checker {
            skip: stream.events.iter().map(Event::is_invocation).collect(),
            first_slot: stream.first_slot.clone(),
            session_len: stream.session_len.clone(),
            next_seq: vec![0; 2 * stream.sessions()],
            verdicts: 0,
            bad: 0,
            poisoned: 0,
            opened: 0,
            closed: 0,
            shown: 0,
        }
    }

    /// `(generation, session)` of an id such as `b0042`.
    fn session(&self, id: &[u8]) -> Option<(usize, usize)> {
        let g = match id.first()? {
            b'a' => 0,
            b'b' => 1,
            _ => return None,
        };
        let (s, rest) = number(&id[1..])?;
        (rest.is_empty() && s < self.first_slot.len()).then_some((g, s))
    }

    /// Checks one output line. For a verdict returns the index
    /// `generation * slots + slot` of the feed it answers.
    pub fn line(&mut self, line: &[u8]) -> Option<usize> {
        let ok = if let Some(rest) = line.strip_prefix(VERDICT) {
            // Counted as an answer even when wrong, so a wrong verdict
            // fails once, not also as a feed without a verdict.
            self.verdicts += 1;
            match self.verdict(rest) {
                Some(index) => return Some(index),
                None => false,
            }
        } else if let Some(rest) = line.strip_prefix(CLOSED) {
            self.closed(rest)
        } else if line.starts_with(OPENED) {
            self.opened += 1;
            true
        } else {
            false
        };
        if !ok {
            self.bad += 1;
            if self.shown < 5 {
                self.shown += 1;
                eprintln!("unexpected output: {}", String::from_utf8_lossy(line));
            }
        }
        None
    }

    fn verdict(&mut self, rest: &[u8]) -> Option<usize> {
        let (id, rest) = until_quote(rest)?;
        let (g, s) = self.session(id)?;
        let (seq, rest) = number(rest.strip_prefix(b",\"seq\":")?)?;
        let (verdict, rest) = until_quote(rest.strip_prefix(b",\"verdict\":\"")?)?;
        let cursor = &mut self.next_seq[g * self.first_slot.len() + s];
        if seq != *cursor + 1 || seq > self.session_len[s] || rest != b"}" {
            return None;
        }
        *cursor = seq;
        let slot = self.first_slot[s] + seq - 1;
        let expected: &[u8] = if self.skip[slot] {
            b"opaque_skip"
        } else {
            b"opaque"
        };
        (verdict == expected).then_some(g * self.skip.len() + slot)
    }

    fn closed(&mut self, rest: &[u8]) -> bool {
        self.closed += 1;
        let Some((id, rest)) = until_quote(rest) else {
            return false;
        };
        let Some((g, s)) = self.session(id) else {
            return false;
        };
        let Some((events, _)) = rest.strip_prefix(b",\"events\":").and_then(number) else {
            return false;
        };
        if rest.ends_with(b"\"poisoned\":true}") {
            self.poisoned += 1;
        }
        let cursor = &mut self.next_seq[g * self.first_slot.len() + s];
        let complete = events == self.session_len[s] && *cursor == events;
        *cursor = 0;
        complete && rest.ends_with(b"\"poisoned\":false}") && !contains(rest, b"violated_at")
    }

    /// Failed operations: wrong or unexpected frames, poisoned sessions,
    /// and feeds that got no verdict.
    pub fn failed(&self, feeds: u64) -> u64 {
        self.bad + self.poisoned + feeds.saturating_sub(self.verdicts)
    }
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// State shared by the closed loop's client halves.
struct Probe {
    t0: Instant,
    handed: Vec<u64>,
    checker: Checker,
    hist: Histogram,
    line: Vec<u8>,
    first_ns: Option<u64>,
    last_ns: u64,
    feeds: u64,
}

impl Probe {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// When the closed loop stops handing lines: after whole passes.
#[derive(Clone, Copy)]
pub enum Stop {
    Passes(u64),
    Deadline(Instant),
}

/// The client's sending half: hands the daemon one line at a time, time
/// stamping each feed as the daemon first asks for it.
struct Feeder {
    stream: Rc<Stream>,
    probe: Rc<RefCell<Probe>>,
    gen: usize,
    line: usize,
    off: usize,
    stamped: bool,
    passes: u64,
    stop: Stop,
    done: bool,
}

impl Read for Feeder {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let src = self.fill_buf()?;
        let n = src.len().min(buf.len());
        buf[..n].copy_from_slice(&src[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feeder {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.done {
            return Ok(&[]);
        }
        if !self.stamped {
            self.stamped = true;
            let mut p = self.probe.borrow_mut();
            let now = p.now();
            p.first_ns.get_or_insert(now);
            if let Kind::Feed { slot } = self.stream.kinds[self.line] {
                let slots = self.stream.slots();
                p.handed[self.gen * slots + slot] = now;
                p.feeds += 1;
            }
        }
        Ok(&self.stream.lines[self.gen][self.line].as_bytes()[self.off..])
    }

    fn consume(&mut self, amt: usize) {
        self.off += amt;
        if self.off < self.stream.lines[self.gen][self.line].len() {
            return;
        }
        self.off = 0;
        self.stamped = false;
        self.line += 1;
        if self.line == self.stream.kinds.len() {
            self.line = 0;
            self.gen ^= 1;
            self.passes += 1;
            self.done = match self.stop {
                Stop::Passes(n) => self.passes >= n,
                Stop::Deadline(t) => Instant::now() >= t,
            };
        }
    }
}

/// The client's receiving half: checks each response line as it is
/// written and times verdicts against their feed's hand-over.
struct Sink(Rc<RefCell<Probe>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut p = self.0.borrow_mut();
        let p = &mut *p;
        let mut rest = buf;
        while let Some(i) = rest.iter().position(|&b| b == b'\n') {
            let now = p.now();
            p.line.extend_from_slice(&rest[..i]);
            if let Some(index) = p.checker.line(&p.line) {
                let handed = p.handed[index];
                p.hist.record(now.saturating_sub(handed));
            }
            p.last_ns = now;
            p.line.clear();
            rest = &rest[i + 1..];
        }
        p.line.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one closed-loop run measured.
pub struct LoopResult {
    pub hist: Histogram,
    pub feeds: u64,
    pub failed: u64,
    /// First line handed to last line written.
    pub wall_s: f64,
    /// The whole `run_reader` call, daemon construction and drain included.
    pub call_s: f64,
}

pub fn serve_config(journal: Option<&Path>) -> ServeConfig {
    ServeConfig {
        journal_dir: journal.map(Path::to_path_buf),
        ..ServeConfig::default()
    }
}

/// Runs the stdin loop over the stream until `stop`, one client, closed
/// loop.
pub fn closed_loop(stream: &Rc<Stream>, journal: Option<&Path>, stop: Stop) -> LoopResult {
    let probe = Rc::new(RefCell::new(Probe {
        t0: Instant::now(),
        handed: vec![0; 2 * stream.slots()],
        checker: Checker::new(stream),
        hist: Histogram::new(),
        line: Vec::new(),
        first_ns: None,
        last_ns: 0,
        feeds: 0,
    }));
    let mut feeder = Feeder {
        stream: Rc::clone(stream),
        probe: Rc::clone(&probe),
        gen: 0,
        line: 0,
        off: 0,
        stamped: false,
        passes: 0,
        stop,
        done: false,
    };
    let mut sink = Sink(Rc::clone(&probe));
    let start = Instant::now();
    let code = run_reader(serve_config(journal), &mut feeder, &mut sink);
    let call_s = start.elapsed().as_secs_f64();
    let passes = feeder.passes;
    drop((sink, feeder));
    let probe = Rc::try_unwrap(probe)
        .ok()
        .expect("the loop's client halves are gone")
        .into_inner();
    let c = &probe.checker;
    let expected_sessions = passes * stream.sessions() as u64;
    let mut failed = c.failed(probe.feeds);
    if code != 0 || c.opened != expected_sessions || c.closed != expected_sessions {
        eprintln!(
            "daemon exit {code}; {} opened, {} closed, {expected_sessions} expected",
            c.opened, c.closed
        );
        failed += 1;
    }
    let wall_ns = probe.last_ns.saturating_sub(probe.first_ns.unwrap_or(0));
    LoopResult {
        hist: probe.hist,
        feeds: probe.feeds,
        failed,
        wall_s: wall_ns as f64 / 1e9,
        call_s,
    }
}

/// A journal record the table wrote, as the traced loop infers it from
/// the frames each call returned.
#[derive(Clone, Copy)]
enum Rec {
    Open(usize),
    Event(usize),
    Checked(usize, usize),
    Close(usize),
}

/// Per-run state of the traced loop.
struct Traced {
    table: SessionTable,
    faults: FaultDriver,
    tracer: Tracer,
    out: Vec<u8>,
    /// Records of the current pass, with whether a turn (not a route) wrote
    /// them.
    recs: Vec<(Rec, bool)>,
    pending: Vec<usize>,
    depth: usize,
    depth_max: usize,
    lines: u64,
    pumps: u64,
    busy_turns: u64,
    frames: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// The session index of an id such as `a0042`.
fn session_index(id: &str) -> usize {
    id[1..].parse().unwrap_or(usize::MAX)
}

impl Traced {
    fn new(stream: &Stream, journal: Option<&Path>) -> Traced {
        let config = serve_config(journal);
        let mut table = SessionTable::new(config.clone());
        if let Some(dir) = journal {
            let writer = JournalWriter::create(dir, config.fsync_every).expect("journal directory");
            table.attach_journal(writer);
        }
        Traced {
            table,
            faults: FaultDriver::new(FaultPlan::new()),
            tracer: Tracer::new(),
            out: Vec::new(),
            recs: Vec::new(),
            pending: vec![0; stream.sessions()],
            depth: 0,
            depth_max: 0,
            lines: 0,
            pumps: 0,
            busy_turns: 0,
            frames: 0,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// One pass, line by line, in the stdin loop's order: read, parse,
    /// route, one scheduler turn, then render and write the frames.
    fn pass(&mut self, stream: &Stream, gen: usize) {
        for (i, raw) in stream.lines[gen].iter().enumerate() {
            let op = i as u32;
            self.lines += 1;
            self.bytes_in += raw.len() as u64;
            let (table, faults) = (&mut self.table, &mut self.faults);
            let (pumped, fate) = self.tracer.span(Layer::DaemonRead, op, || {
                let mut buf = String::new();
                buf.push_str(raw);
                let line = buf.trim_end_matches(['\n', '\r']).to_string();
                faults.on_line(table, &line)
            });
            self.emit(op, &pumped);
            let LineFate::Deliver(line) = fate else {
                continue;
            };
            let parsed = self
                .tracer
                .span(Layer::FrameParse, op, || parse_client_frame(&line));
            let table = &mut self.table;
            let (frames, fed) = self.tracer.span(Layer::TableRoute, op, || match parsed {
                Ok(ClientFrame::Open { session }) => (table.open(&session, 0), None),
                Ok(ClientFrame::Feed {
                    session,
                    event,
                    seq,
                }) => {
                    let s = session_index(&session);
                    (table.feed(&session, event, seq, 0), Some(s))
                }
                Ok(ClientFrame::Close { session }) => (table.close(&session, 0), None),
                Ok(ClientFrame::Shutdown) => (Vec::new(), None),
                Err(e) => (
                    vec![Routed {
                        conn: 0,
                        frame: ServerFrame::Error {
                            session: None,
                            seq: None,
                            message: format!("input line {}: {}", i + 1, e.message),
                        },
                    }],
                    None,
                ),
            });
            let table = &mut self.table;
            let turn = self.tracer.span(Layer::TableTurn, op, || table.pump_one());
            self.pumps += 1;
            if let (Some(s), true) = (fed, frames.is_empty()) {
                if let Kind::Feed { slot } = stream.kinds[i] {
                    self.recs.push((Rec::Event(slot), false));
                }
                if self.pending[s] == 0 {
                    self.depth += 1;
                    self.depth_max = self.depth_max.max(self.depth);
                }
                self.pending[s] += 1;
            }
            self.note(&frames, false);
            if !turn.is_empty() {
                self.busy_turns += 1;
            }
            self.note(&turn, true);
            self.emit(op, &frames);
            self.emit(op, &turn);
        }
    }

    /// The end of input: drain every session and close what is open.
    fn drain(&mut self) {
        let table = &mut self.table;
        let last = self
            .tracer
            .span(Layer::TableTurn, u32::MAX, || table.drain_and_close_all());
        self.note(&last, true);
        self.emit(u32::MAX, &last);
    }

    fn emit(&mut self, op: u32, frames: &[Routed]) {
        for r in frames {
            if self.faults.take_write_failure() {
                continue;
            }
            self.frames += 1;
            let rendered = self
                .tracer
                .span(Layer::FrameRender, op, || r.frame.render());
            let out = &mut self.out;
            self.tracer.span(Layer::DaemonWrite, op, || {
                writeln!(out, "{rendered}").expect("in-memory write")
            });
        }
    }

    /// Infers the journal records and the run-queue depth from the frames
    /// one call returned: `opened` and `closed` frames mean `open` and
    /// `close` records; each run of answers to one session means one
    /// checkpoint record of its response cursor.
    fn note(&mut self, frames: &[Routed], in_turn: bool) {
        let mut cursor: Option<(usize, usize)> = None;
        for r in frames {
            let answered = match &r.frame {
                ServerFrame::Verdict { session, seq, .. } => Some((session, *seq)),
                ServerFrame::Error {
                    session: Some(session),
                    seq: Some(seq),
                    ..
                } => Some((session, *seq)),
                _ => None,
            };
            if let Some((session, seq)) = answered {
                let s = session_index(session);
                if cursor.is_some_and(|(c, _)| c != s) {
                    self.flush_cursor(cursor.take(), in_turn);
                }
                cursor = Some((s, seq));
                if let Some(p) = self.pending.get_mut(s) {
                    *p = p.saturating_sub(1);
                    if *p == 0 {
                        self.depth = self.depth.saturating_sub(1);
                    }
                }
                continue;
            }
            match &r.frame {
                ServerFrame::Opened { session } => {
                    self.recs.push((Rec::Open(session_index(session)), in_turn))
                }
                ServerFrame::Closed { session, .. } => {
                    self.flush_cursor(cursor.take(), in_turn);
                    self.recs
                        .push((Rec::Close(session_index(session)), in_turn));
                }
                _ => {}
            }
        }
        self.flush_cursor(cursor, in_turn);
    }

    fn flush_cursor(&mut self, cursor: Option<(usize, usize)>, in_turn: bool) {
        if let Some((s, n)) = cursor {
            self.recs.push((Rec::Checked(s, n), in_turn));
        }
    }
}

/// Runs the traced loop over `gens` (one pass each), then drains.
/// Returns the output bytes of the whole run (for the lockstep check).
fn traced_output(stream: &Stream, journal: Option<&Path>, gens: &[usize]) -> Vec<u8> {
    let mut t = Traced::new(stream, journal);
    for &g in gens {
        t.pass(stream, g);
    }
    t.drain();
    t.out
}

/// Lockstep self-test: the traced loop's frames must be byte-identical
/// to `run_reader`'s for the same two-pass stream.
pub fn lockstep(stream: &Stream, journal: Option<(&Path, &Path)>) -> bool {
    let text = stream.text(&[0, 1]);
    let mut reference = Vec::new();
    let code = run_reader(
        serve_config(journal.map(|j| j.0)),
        io::Cursor::new(text),
        &mut reference,
    );
    let traced = traced_output(stream, journal.map(|j| j.1), &[0, 1]);
    let same = code == 0 && reference == traced;
    println!(
        "# lockstep: run_reader {} bytes, traced loop {} bytes, {}",
        reference.len(),
        traced.len(),
        if same { "identical" } else { "DIFFERENT" }
    );
    same
}

/// Totals from the replays that split the table's turns into their parts.
#[derive(Default)]
struct Replays {
    monitor_ns: u64,
    search_ns: u64,
    trace_ns: u64,
    journal_route_ns: u64,
    journal_turn_ns: u64,
    journal_records: u64,
    fsync_ns: Vec<f64>,
    feeds: u64,
    checks: u64,
    monitor_nodes: u64,
    search: tm_opacity::search::SearchStats,
}

/// Replays one pass's events through `OpacityMonitor::feed`, then through
/// a bare `CheckSession` (extend, and check on responses), one group at a
/// time, timing only the feeding.
fn replay_checker(stream: &Stream, r: &mut Replays) {
    let config = ServeConfig::default().search;
    for &(start, end) in &stream.groups {
        let mut monitors: Vec<OpacityMonitor<'static>> = Vec::new();
        let mut sessions: Vec<CheckSession<'static>> = Vec::new();
        let mut events = Vec::new();
        for (k, &session) in stream.kinds[start..end]
            .iter()
            .zip(&stream.session_of_line[start..end])
        {
            match *k {
                Kind::Open => {
                    monitors.push(OpacityMonitor::new(specs()).with_config(config));
                    sessions.push(CheckSession::new(specs(), SearchMode::OPACITY, config));
                }
                Kind::Feed { slot } => {
                    let local = session - stream.session_of_line[start];
                    events.push((local, stream.events[slot].clone()));
                }
                Kind::Close => {}
            }
        }
        let fed = events.clone();
        let t = Instant::now();
        for (local, e) in fed {
            black_box(monitors[local].feed(e).ok());
        }
        r.monitor_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        for (local, e) in &events {
            let session = &mut sessions[*local];
            black_box(session.extend(e).ok());
            if e.is_response() {
                black_box(session.check().ok());
            }
        }
        r.search_ns += t.elapsed().as_nanos() as u64;
        r.feeds += events.len() as u64;
        for m in &monitors {
            r.checks += m.check_counts().0 as u64;
            r.monitor_nodes += m.lifetime_stats().nodes as u64;
        }
        for s in &sessions {
            r.search.absorb(&s.lifetime_stats());
        }
    }
}

/// The largest memo a session's monitor holds after any feed, and the
/// largest a bare `CheckSession` holds after any check: one untimed replay
/// of one pass (every pass is the same).
fn memo_peaks(stream: &Stream) -> (usize, usize) {
    let config = ServeConfig::default().search;
    let (mut monitor_max, mut search_max) = (0, 0);
    for &(start, end) in &stream.groups {
        let first = stream.session_of_line[start];
        let mut monitors = Vec::new();
        let mut sessions = Vec::new();
        for (k, &session) in stream.kinds[start..end]
            .iter()
            .zip(&stream.session_of_line[start..end])
        {
            match *k {
                Kind::Open => {
                    monitors.push(OpacityMonitor::new(specs()).with_config(config));
                    sessions.push(CheckSession::new(specs(), SearchMode::OPACITY, config));
                }
                Kind::Feed { slot } => {
                    let e = &stream.events[slot];
                    let monitor = &mut monitors[session - first];
                    let _ = monitor.feed(e.clone());
                    monitor_max = monitor_max.max(monitor.memo_resident());
                    let search = &mut sessions[session - first];
                    let _ = search.extend(e);
                    if e.is_response() {
                        let _ = search.check();
                        search_max = search_max.max(search.memo_resident());
                    }
                }
                Kind::Close => {}
            }
        }
    }
    (monitor_max, search_max)
}

/// Replays one pass's lines through the tm-trace JSON layer that
/// `parse_client_frame` builds on: the document parse, and the event
/// decode for feeds.
fn replay_trace(stream: &Stream, gen: usize, r: &mut Replays) {
    let t = Instant::now();
    for (raw, kind) in stream.lines[gen].iter().zip(&stream.kinds) {
        let doc = Json::parse(raw.trim_end()).expect("rendered frames parse");
        if let Kind::Feed { .. } = kind {
            black_box(event_from_doc(doc.get("event").expect("feed frames carry an event")).ok());
        }
    }
    r.trace_ns += t.elapsed().as_nanos() as u64;
}

/// Replays the records the table journaled in one pass through a
/// `JournalWriter` at the daemon's fsync cadence, timing each record.
fn replay_journal(
    stream: &Stream,
    gen: usize,
    recs: &[(Rec, bool)],
    writer: &mut JournalWriter,
    unsynced: &mut usize,
    r: &mut Replays,
) {
    let every = ServeConfig::default().fsync_every;
    let ids = &stream.ids[gen];
    for &(rec, in_turn) in recs {
        let t = Instant::now();
        let res = match rec {
            Rec::Open(s) => writer.open(&ids[s]),
            Rec::Event(slot) => writer.event(&ids[stream.slot_session[slot]], &stream.events[slot]),
            Rec::Checked(s, n) => writer.checked(&ids[s], n),
            Rec::Close(s) => writer.close(&ids[s], false),
        };
        let ns = t.elapsed().as_nanos() as u64;
        res.expect("journal replay write");
        if in_turn {
            r.journal_turn_ns += ns;
        } else {
            r.journal_route_ns += ns;
        }
        r.journal_records += 1;
        *unsynced += 1;
        if *unsynced >= every {
            *unsynced = 0;
            r.fsync_ns.push(ns as f64);
        }
    }
}

/// The traced run of a serve workload: `passes` passes, each run untraced
/// (for the tracing overhead), then traced, then replayed. Returns the
/// per-layer metrics, the operations attempted, and the failures.
pub fn traced_run(
    stream: &Rc<Stream>,
    journal_on_path: bool,
    work: &Path,
    passes: u64,
    spans_out: &Path,
) -> (Vec<Metric>, u64, u64) {
    let (untraced_journal, traced_journal) = (work.join("untraced"), work.join("traced"));
    let replay_journal_dir = work.join("replay-journal");
    let mut t = Traced::new(stream, journal_on_path.then_some(traced_journal.as_path()));
    let (mut untraced_ns, mut untraced_feeds, mut failed) = (0f64, 0, 0);
    let mut checker = Checker::new(stream);
    let mut writer = JournalWriter::create(&replay_journal_dir, ServeConfig::default().fsync_every)
        .expect("replay journal directory");
    let mut unsynced = 0;
    let mut r = Replays::default();
    let mut traced_ns = 0u64;
    for p in 0..passes {
        // Untraced and traced passes alternate, so drift of the host and
        // warm-up fall on both sides of `bench.trace_overhead` alike.
        let journal = journal_on_path.then_some(untraced_journal.as_path());
        let untraced = closed_loop(stream, journal, Stop::Passes(1));
        untraced_ns += untraced.call_s * 1e9;
        untraced_feeds += untraced.feeds;
        failed += untraced.failed;
        let gen = (p % 2) as usize;
        let start = Instant::now();
        t.pass(stream, gen);
        if p + 1 == passes {
            t.drain();
        }
        traced_ns += start.elapsed().as_nanos() as u64;
        for line in t.out.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            checker.line(line);
        }
        t.bytes_out += t.out.len() as u64;
        t.out.clear();
        let recs = std::mem::take(&mut t.recs);
        replay_journal(stream, gen, &recs, &mut writer, &mut unsynced, &mut r);
        replay_checker(stream, &mut r);
        replay_trace(stream, gen, &mut r);
    }
    let flush = Instant::now();
    writer.flush_sync().expect("journal replay sync");
    let flush_ns = flush.elapsed().as_nanos() as u64;
    r.journal_turn_ns += flush_ns;
    r.fsync_ns.push(flush_ns as f64);
    let journal_bytes = std::fs::metadata(tm_serve::journal::journal_path(&replay_journal_dir))
        .map_or(0, |m| m.len());
    let feeds = passes * stream.feeds() as u64;
    failed += checker.failed(feeds);
    let (monitor_memo_max, search_memo_max) = memo_peaks(stream);
    t.tracer.write_chrome(spans_out);

    let ops = feeds as f64;
    let tr = &t.tracer;
    let journal_ns = (r.journal_route_ns + r.journal_turn_ns) as f64;
    let (j_route, j_turn) = if journal_on_path {
        (r.journal_route_ns as f64, r.journal_turn_ns as f64)
    } else {
        (0.0, 0.0)
    };
    let wall = traced_ns as f64;
    let parse = tr.total(Layer::FrameParse);
    let render = tr.total(Layer::FrameRender);
    let route = tr.total(Layer::TableRoute);
    let turn = tr.total(Layer::TableTurn);
    let daemon = tr.total(Layer::DaemonRead) + tr.total(Layer::DaemonWrite);
    let (monitor, search, trace) = (r.monitor_ns as f64, r.search_ns as f64, r.trace_ns as f64);
    let fsyncs = r.fsync_ns.len() as f64;
    let nodes = r.search.nodes as f64;
    let shares = [
        ("frame.share", parse - trace + render),
        ("trace.share", trace),
        ("table.share", route - j_route + turn - monitor - j_turn),
        ("journal.share", j_route + j_turn),
        ("monitor.share", monitor - search),
        ("search.share", search),
        ("daemon.share", daemon),
    ];
    let mut m = vec![
        metric("frame.parse_ns", ratio(parse, t.lines as f64), "ns"),
        metric("frame.render_ns", ratio(render, t.frames as f64), "ns"),
        metric(
            "frame.bytes_per_op",
            ratio((t.bytes_in + t.bytes_out) as f64, ops),
            "B",
        ),
        metric(
            "table.route_ns",
            ratio(route - j_route, t.lines as f64),
            "ns",
        ),
        metric(
            "table.turn_self_ns",
            ratio(turn - monitor - j_turn, t.pumps as f64 + 1.0),
            "ns",
        ),
        metric(
            "table.turns_per_op",
            ratio(t.busy_turns as f64, ops),
            "count",
        ),
        metric("table.queue_depth_max", t.depth_max as f64, "count"),
        metric("daemon.self_ns_per_op", ratio(daemon, ops), "ns"),
        metric(
            "journal.record_ns",
            ratio(journal_ns - flush_ns as f64, r.journal_records as f64),
            "ns",
        ),
        metric(
            "journal.records_per_op",
            ratio(r.journal_records as f64, ops),
            "count",
        ),
        metric(
            "journal.bytes_per_op",
            ratio(journal_bytes as f64, ops),
            "B",
        ),
        metric(
            "journal.fsyncs_per_kop",
            ratio(1000.0 * fsyncs, ops),
            "count",
        ),
        metric(
            "journal.fsync_us",
            median(r.fsync_ns.clone()) / 1000.0,
            "us",
        ),
        metric("monitor.feed_ns", ratio(monitor, r.feeds as f64), "ns"),
        metric(
            "monitor.check_ratio",
            ratio(r.checks as f64, r.feeds as f64),
            "ratio",
        ),
        metric(
            "monitor.nodes_per_check",
            ratio(r.monitor_nodes as f64, r.checks as f64),
            "count",
        ),
        metric(
            "monitor.memo_resident_max",
            monitor_memo_max as f64,
            "count",
        ),
        metric("search.nodes_per_op", ratio(nodes, ops), "count"),
        metric("search.ns_per_node", ratio(search, nodes), "ns"),
        metric(
            "search.memo_hit_ratio",
            ratio(r.search.memo_hits as f64, nodes),
            "ratio",
        ),
        metric(
            "search.illegal_ratio",
            ratio(r.search.illegal_placements as f64, nodes),
            "ratio",
        ),
        metric(
            "search.clones_per_node",
            ratio(r.search.state_clones as f64, nodes),
            "ratio",
        ),
        metric("search.memo_resident", search_memo_max as f64, "count"),
        metric("search.workers", r.search.workers as f64, "count"),
        metric("trace.parse_ns", ratio(trace, t.lines as f64), "ns"),
    ];
    let attributed: f64 = shares.iter().map(|(_, v)| v).sum();
    for (name, v) in shares {
        m.push(metric(name, ratio(v, wall), "ratio"));
    }
    m.push(metric(
        "layer.unattributed_share",
        ratio(wall - attributed, wall),
        "ratio",
    ));
    m.push(metric(
        "bench.trace_overhead",
        ratio(wall, untraced_ns),
        "ratio",
    ));
    (m, feeds + untraced_feeds, failed)
}
