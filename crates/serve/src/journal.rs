//! The append-only session journal behind `--journal DIR` and crash
//! recovery (`--resume`).
//!
//! ## Record format
//!
//! One record per line in `DIR/serve.journal`, length-prefixed:
//!
//! ```text
//! LEN {"r":"open","s":"s1"}
//! LEN {"r":"ev","s":"s1","event":{"kind":"inv","tx":1,...}}
//! LEN {"r":"ck","s":"s1","n":7}
//! LEN {"r":"close","s":"s1","p":false}
//! ```
//!
//! `LEN` is the byte length of the JSON payload that follows the single
//! space. A crash can only tear the *tail* of an append-only file, and a
//! torn tail cannot satisfy its own length prefix — so recovery reads the
//! longest valid prefix and discards the remainder, never misparsing half
//! a record as a whole one. Event payloads reuse the `tm-trace` event JSON
//! verbatim (`ev` embeds exactly the `events`-array element shape), so a
//! journal is inspectable with the same tooling as any trace artifact.
//!
//! ## What is logged, and why replay-resume is verdict-sound
//!
//! * `open`/`ev` record every accepted session and event, in acceptance
//!   order (`ev` is written *after* the table accepts the feed — rejected
//!   frames, `busy` pushback, and duplicate-`seq` resends never journal).
//! * `ck` checkpoints the per-session *response cursor*: how many of the
//!   session's events have already been answered with a verdict or error
//!   frame. On resume those events are re-fed **silently** through a fresh
//!   monitor (their frames were delivered before the crash) and the rest
//!   re-enter the inbox to be answered normally, so `seq` numbering
//!   continues unchanged and no verdict is emitted twice.
//! * `close` records a completed session (with its poisoned flag, which
//!   feeds the exit code), so resume skips it entirely.
//!
//! Soundness rests on the crate's one invariant: a session's verdicts are
//! a pure function of its own event stream. Re-feeding the journaled
//! prefix through a fresh [`tm_opacity::incremental::OpacityMonitor`]
//! therefore reconstructs exactly the monitor state the crash destroyed —
//! sticky violations and poisoning re-latch at the same indices — and the
//! kill-and-restart suite pins the resumed verdict stream byte-identical
//! to an uninterrupted run.
//!
//! ## Durability
//!
//! Records are buffered and `sync_data`ed every
//! [`ServeConfig::fsync_every`](crate::ServeConfig::fsync_every) records
//! (plus on drain and on injected crashes). A power cut can therefore cost
//! at most the last unsynced batch; within-process crashes (the chaos
//! suite's kill points) lose nothing.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use tm_model::Event;
use tm_trace::json::{read_event, write_int, Lexer, ObjectWriter, Scalar, Token};

/// The journal file inside `--journal DIR`.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("serve.journal")
}

/// The appending writer half: length-prefixed records, fsync-batched.
pub struct JournalWriter {
    file: File,
    /// Records written since the last `sync_data`.
    unsynced: usize,
    /// Sync cadence (records); at least 1.
    fsync_every: usize,
    /// Reused buffers: the record's JSON payload, then its whole line.
    payload: String,
    line: String,
}

impl JournalWriter {
    /// Creates (or truncates) `DIR/serve.journal` for a fresh run.
    pub fn create(dir: &Path, fsync_every: usize) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self::over(File::create(journal_path(dir))?, fsync_every))
    }

    /// Opens `DIR/serve.journal` for appending (the `--resume` path keeps
    /// the recovered prefix and continues after it).
    pub fn append_to(dir: &Path, fsync_every: usize) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(journal_path(dir))?;
        Ok(Self::over(file, fsync_every))
    }

    fn over(file: File, fsync_every: usize) -> Self {
        JournalWriter {
            file,
            unsynced: 0,
            fsync_every: fsync_every.max(1),
            payload: String::new(),
            line: String::new(),
        }
    }

    /// Appends one record, `LEN payload\n`, with a single write.
    fn record(
        &mut self,
        kind: &str,
        session: &str,
        body: impl FnOnce(&mut ObjectWriter<'_>),
    ) -> io::Result<()> {
        self.payload.clear();
        let mut o = ObjectWriter::open(&mut self.payload);
        o.str("r", kind).str("s", session);
        body(&mut o);
        o.close();
        self.line.clear();
        write_int(&mut self.line, self.payload.len() as i64);
        self.line.push(' ');
        self.line.push_str(&self.payload);
        self.line.push('\n');
        self.file.write_all(self.line.as_bytes())?;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.flush_sync()?;
        }
        Ok(())
    }

    /// Journals a session open.
    pub fn open(&mut self, session: &str) -> io::Result<()> {
        self.record("open", session, |_| {})
    }

    /// Journals one accepted event.
    pub fn event(&mut self, session: &str, event: &Event) -> io::Result<()> {
        self.record("ev", session, |o| {
            o.event("event", event);
        })
    }

    /// Journals the response cursor: `n` events answered so far.
    pub fn checked(&mut self, session: &str, n: usize) -> io::Result<()> {
        self.record("ck", session, |o| {
            o.int("n", n as i64);
        })
    }

    /// Journals a completed session (`p` = poisoned, for the exit code).
    pub fn close(&mut self, session: &str, poisoned: bool) -> io::Result<()> {
        self.record("close", session, |o| {
            o.bool("p", poisoned);
        })
    }

    /// Flushes buffered records and `sync_data`s the file.
    pub fn flush_sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }
}

/// One session's journaled state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournaledSession {
    /// Accepted events, in acceptance order.
    pub events: Vec<Event>,
    /// Events already answered before the crash (the response cursor).
    pub checked: usize,
    /// The session completed and emitted its `closed` summary.
    pub closed: bool,
    /// The poisoned flag recorded at close (feeds the exit code).
    pub poisoned_at_close: bool,
}

/// Everything a journal says about a previous run, in session open order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalState {
    /// `(session id, state)` pairs in first-`open` order.
    pub sessions: Vec<(String, JournaledSession)>,
    /// Records recovered from the file's valid prefix.
    pub records: usize,
    /// Bytes of torn tail discarded (0 for a cleanly flushed journal).
    pub torn_bytes: usize,
}

impl JournalState {
    fn session_mut(&mut self, id: &str) -> &mut JournaledSession {
        let i = match self.sessions.iter().position(|(s, _)| s == id) {
            Some(i) => i,
            None => {
                self.sessions
                    .push((id.to_string(), JournaledSession::default()));
                self.sessions.len() - 1
            }
        };
        &mut self.sessions[i].1
    }
}

/// Reads the journal back, tolerating a torn tail: parsing stops at the
/// first record that is incomplete, fails its length prefix, or does not
/// parse — everything before it is the recovered state. A missing journal
/// file is an error (the `--resume` contract is strict: resuming without a
/// journal would silently restart from nothing).
pub fn read_journal(dir: &Path) -> io::Result<JournalState> {
    let bytes = std::fs::read(journal_path(dir))?;
    let mut state = JournalState::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(rel_nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            break; // incomplete final line: torn tail
        };
        let line = &bytes[pos..pos + rel_nl];
        let Some(record) = parse_record(line) else {
            break; // torn or corrupt: keep the prefix before it
        };
        apply_record(&mut state, record);
        state.records += 1;
        pos += rel_nl + 1;
    }
    state.torn_bytes = bytes.len() - pos;
    for (_, s) in &mut state.sessions {
        s.checked = s.checked.min(s.events.len());
    }
    Ok(state)
}

#[derive(Debug, PartialEq)]
pub(crate) enum Record {
    Open(String),
    Event(String, Event),
    Checked(String, usize),
    Close(String, bool),
}

/// Parses one journal line (without its newline), in one pass over the
/// payload; `None` for anything torn, corrupt, or of an unknown kind.
pub(crate) fn parse_record(line: &[u8]) -> Option<Record> {
    let line = std::str::from_utf8(line).ok()?;
    let (len, payload) = line.split_once(' ')?;
    let len: usize = len.parse().ok()?;
    if payload.len() != len {
        return None; // fails its own length prefix: torn
    }
    let mut lx = Lexer::new(payload);
    let Token::Obj(_) = lx.token().ok()? else {
        return None;
    };
    let (mut kind, mut session, mut n, mut p) = (None, None, None, None);
    let mut event = None;
    while let Some(key) = lx.next_key().ok()? {
        let read = match &*key {
            "r" if kind.is_none() => lx.scalar().map(|v| kind = Some(v)),
            "s" if session.is_none() => lx.scalar().map(|v| session = Some(v)),
            "n" if n.is_none() => lx.scalar().map(|v| n = Some(v)),
            "p" if p.is_none() => lx.scalar().map(|v| p = Some(v)),
            // Decoded only while the record can still be an `ev`.
            "event"
                if event.is_none()
                    && (kind.is_none() || matches!(&kind, Some(Scalar::Str(k)) if k == "ev")) =>
            {
                read_event(&mut lx).map(|e| event = Some(e))
            }
            _ => lx.skip(),
        };
        read.ok()?;
    }
    lx.finish().ok()?;
    let (Some(Scalar::Str(kind)), Some(Scalar::Str(session))) = (kind, session) else {
        return None;
    };
    let session = session.into_owned();
    match &*kind {
        "open" => Some(Record::Open(session)),
        "ev" => Some(Record::Event(session, event?.ok()?)),
        "ck" => match n {
            Some(Scalar::Int(n)) if n >= 0 => Some(Record::Checked(session, n as usize)),
            _ => None,
        },
        "close" => match p {
            Some(Scalar::Bool(p)) => Some(Record::Close(session, p)),
            _ => None,
        },
        _ => None, // future record kinds: stop at the unknown prefix
    }
}

fn apply_record(state: &mut JournalState, record: Record) {
    match record {
        Record::Open(id) => {
            state.session_mut(&id);
        }
        Record::Event(id, event) => state.session_mut(&id).events.push(event),
        Record::Checked(id, n) => {
            let s = state.session_mut(&id);
            s.checked = s.checked.max(n);
        }
        Record::Close(id, poisoned) => {
            let s = state.session_mut(&id);
            s.closed = true;
            s.poisoned_at_close = poisoned;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::{ObjId, OpName, TxId, Value};

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tm-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Inv {
                tx: TxId(1),
                obj: ObjId::register(0),
                op: OpName::Write,
                args: vec![Value::Int(7)],
            },
            Event::Ret {
                tx: TxId(1),
                obj: ObjId::register(0),
                op: OpName::Write,
                val: Value::Unit,
            },
            Event::TryCommit(TxId(1)),
            Event::Commit(TxId(1)),
        ]
    }

    #[test]
    fn records_roundtrip_in_open_order() {
        let dir = tmp();
        let mut w = JournalWriter::create(&dir, 2).unwrap();
        let events = sample_events();
        w.open("b").unwrap();
        w.open("a").unwrap();
        for e in &events {
            w.event("b", e).unwrap();
        }
        w.checked("b", 3).unwrap();
        w.close("a", true).unwrap();
        w.flush_sync().unwrap();

        let state = read_journal(&dir).unwrap();
        assert_eq!(state.torn_bytes, 0);
        assert_eq!(state.records, 2 + events.len() + 2);
        assert_eq!(state.sessions.len(), 2);
        assert_eq!(state.sessions[0].0, "b", "open order survives");
        let b = &state.sessions[0].1;
        assert_eq!(b.events, events);
        assert_eq!(b.checked, 3);
        assert!(!b.closed);
        let a = &state.sessions[1].1;
        assert!(a.closed && a.poisoned_at_close && a.events.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_torn_tail_recovers_the_longest_valid_prefix() {
        let dir = tmp();
        let mut w = JournalWriter::create(&dir, 1).unwrap();
        w.open("s").unwrap();
        for e in &sample_events() {
            w.event("s", e).unwrap();
        }
        w.checked("s", 2).unwrap();
        w.flush_sync().unwrap();
        drop(w);
        let full = std::fs::read(journal_path(&dir)).unwrap();
        let whole = read_journal(&dir).unwrap();
        assert_eq!(whole.records, 6);

        let mut last_records = usize::MAX;
        for cut in (0..=full.len()).rev() {
            std::fs::write(journal_path(&dir), &full[..cut]).unwrap();
            let state = read_journal(&dir).unwrap();
            // Recovery is exactly the complete-line prefix: the record
            // count is monotone in the cut, a cut on a newline boundary
            // loses nothing before it, and the cursor is always clamped.
            assert!(state.records <= last_records, "cut {cut} grew the prefix");
            last_records = state.records;
            let complete_lines = full[..cut].iter().filter(|&&b| b == b'\n').count();
            assert_eq!(state.records, complete_lines, "cut {cut}");
            assert_eq!(
                state.torn_bytes,
                cut - full[..cut]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1)
            );
            for (_, s) in &state.sessions {
                assert!(s.checked <= s.events.len(), "cursor clamped at cut {cut}");
            }
        }
        // A full file recovers everything.
        std::fs::write(journal_path(&dir), &full).unwrap();
        assert_eq!(read_journal(&dir).unwrap(), whole);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn length_prefix_detects_mid_record_corruption() {
        let dir = tmp();
        let mut w = JournalWriter::create(&dir, 1).unwrap();
        w.open("s").unwrap();
        w.checked("s", 1).unwrap();
        drop(w);
        let mut bytes = std::fs::read(journal_path(&dir)).unwrap();
        // Corrupt the second record's payload without touching its newline:
        // the length prefix still matches, but the JSON no longer parses.
        let second = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let brace = second + bytes[second..].iter().position(|&b| b == b'{').unwrap();
        bytes[brace] = b'#';
        std::fs::write(journal_path(&dir), &bytes).unwrap();
        let state = read_journal(&dir).unwrap();
        assert_eq!(state.records, 1, "corrupt record ends the valid prefix");
        assert!(state.torn_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_an_error_not_an_empty_state() {
        let dir = tmp().join("never-created");
        assert!(read_journal(&dir).is_err());
    }
}
