#![cfg(test)]
//! The one-pass wire codec against the tree path it replaced.
//!
//! The reference functions below are the decoders and encoders as they
//! were before the codec went single-pass: parse the line into a
//! [`Json`] tree, then walk it with [`Json::get`] (client and server
//! frames, journal records, trace documents, events and values), and
//! build a tree to render it (with the tree renderer and string escaper
//! of that time). The properties hold the codec to them: the same `Ok`
//! value or the same error (line and message) on generated, re-spelled,
//! reordered, duplicated and byte-mutated inputs, and byte-identical
//! renders.

use std::fmt::Write as _;

use proptest::prelude::*;
use proptest::TestRng;
use tm_harness::randhist::{random_history, GenConfig};
use tm_model::{Event, History, ObjId, TxId, Value};
use tm_trace::{event_from_doc, from_json, op_from_str, to_json, to_json_pretty, Json, ParseError};

use crate::frame::{
    parse_client_frame, parse_server_frame, render_client_frame, ClientFrame, ServerFrame,
    SessionId, PROTOCOL_MINOR, PROTOCOL_VERSION,
};
use crate::journal::{journal_path, parse_record, JournalWriter, Record};

// ---------------------------------------------------------------------------
// Reference: tree rendering.

fn ref_compact(j: &Json) -> String {
    let mut out = String::new();
    ref_write_compact(j, &mut out);
    out
}

fn ref_write_compact(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Str(s) => ref_write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ref_write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(_, fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ref_write_string(k, out);
                out.push(':');
                ref_write_compact(v, out);
            }
            out.push('}');
        }
    }
}

fn ref_write_pretty(j: &Json, out: &mut String, indent: usize) {
    const STEP: usize = 2;
    let pad = |out: &mut String, n: usize| out.extend(std::iter::repeat(' ').take(n));
    match j {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + STEP);
                ref_write_pretty(item, out, indent + STEP);
            }
            out.push('\n');
            pad(out, indent);
            out.push(']');
        }
        Json::Obj(_, fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + STEP);
                ref_write_string(k, out);
                out.push_str(": ");
                ref_write_pretty(v, out, indent + STEP);
            }
            out.push('\n');
            pad(out, indent);
            out.push('}');
        }
        other => ref_write_compact(other, out),
    }
}

fn ref_write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        0,
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

// ---------------------------------------------------------------------------
// Reference: events and values.

fn ref_value_doc(v: &Value) -> Json {
    match v {
        Value::Unit => s("unit"),
        Value::Ok => s("ok"),
        Value::Int(i) => obj(vec![("int", Json::Int(*i))]),
        Value::Bool(b) => obj(vec![("bool", Json::Bool(*b))]),
        Value::Pair(a, b) => obj(vec![(
            "pair",
            Json::Arr(vec![ref_value_doc(a), ref_value_doc(b)]),
        )]),
        Value::List(vs) => obj(vec![(
            "list",
            Json::Arr(vs.iter().map(ref_value_doc).collect()),
        )]),
    }
}

fn ref_event_doc(e: &Event) -> Json {
    let tx = |t: &TxId| Json::Int(i64::from(t.0));
    match e {
        Event::Inv {
            tx: t,
            obj: o,
            op,
            args,
        } => {
            let mut fields = vec![
                ("kind", s("inv")),
                ("tx", tx(t)),
                ("obj", s(o.name())),
                ("op", s(&op.to_string())),
            ];
            if !args.is_empty() {
                fields.push(("args", Json::Arr(args.iter().map(ref_value_doc).collect())));
            }
            obj(fields)
        }
        Event::Ret {
            tx: t,
            obj: o,
            op,
            val,
        } => obj(vec![
            ("kind", s("ret")),
            ("tx", tx(t)),
            ("obj", s(o.name())),
            ("op", s(&op.to_string())),
            ("val", ref_value_doc(val)),
        ]),
        Event::TryCommit(t) => obj(vec![("kind", s("try_commit")), ("tx", tx(t))]),
        Event::TryAbort(t) => obj(vec![("kind", s("try_abort")), ("tx", tx(t))]),
        Event::Commit(t) => obj(vec![("kind", s("commit")), ("tx", tx(t))]),
        Event::Abort(t) => obj(vec![("kind", s("abort")), ("tx", tx(t))]),
    }
}

fn ref_value(doc: &Json) -> Result<Value, ParseError> {
    let schema_err = |msg: &str| ParseError {
        line: doc.line(),
        message: format!("invalid value: {msg}"),
    };
    match doc {
        Json::Str(s) => match s.as_str() {
            "unit" => Ok(Value::Unit),
            "ok" => Ok(Value::Ok),
            other => Err(schema_err(&format!("unknown value tag `{other}`"))),
        },
        Json::Obj(_, fields) => {
            let [(tag, body)] = fields.as_slice() else {
                return Err(schema_err("expected exactly one tag field"));
            };
            match (tag.as_str(), body) {
                ("int", Json::Int(i)) => Ok(Value::Int(*i)),
                ("bool", Json::Bool(b)) => Ok(Value::Bool(*b)),
                ("pair", Json::Arr(items)) => match items.as_slice() {
                    [a, b] => Ok(Value::pair(ref_value(a)?, ref_value(b)?)),
                    _ => Err(schema_err("`pair` requires exactly two elements")),
                },
                ("list", Json::Arr(items)) => Ok(Value::List(
                    items.iter().map(ref_value).collect::<Result<_, _>>()?,
                )),
                (other, _) => Err(schema_err(&format!("unknown value tag `{other}`"))),
            }
        }
        _ => Err(schema_err("expected a string tag or a tagged object")),
    }
}

fn ref_event(doc: &Json) -> Result<Event, ParseError> {
    let schema_err = |msg: String| ParseError {
        line: doc.line(),
        message: format!("invalid event: {msg}"),
    };
    let tx_of = |doc: &Json| -> Result<TxId, ParseError> {
        match doc.get("tx") {
            Some(Json::Int(i)) => u32::try_from(*i)
                .map(TxId)
                .map_err(|_| schema_err(format!("transaction id {i} out of range"))),
            _ => Err(schema_err("missing integer `tx` field".into())),
        }
    };
    let str_of = |doc: &Json, key: &str| -> Result<String, ParseError> {
        match doc.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(schema_err(format!("missing string `{key}` field"))),
        }
    };
    let Some(Json::Str(k)) = doc.get("kind") else {
        return Err(schema_err("missing string `kind` field".into()));
    };
    match k.as_str() {
        "inv" => {
            let args = match doc.get("args") {
                None => Vec::new(),
                Some(Json::Arr(items)) => items.iter().map(ref_value).collect::<Result<_, _>>()?,
                Some(_) => return Err(schema_err("`args` must be an array".into())),
            };
            Ok(Event::Inv {
                tx: tx_of(doc)?,
                obj: ObjId::new(&str_of(doc, "obj")?),
                op: op_from_str(&str_of(doc, "op")?),
                args,
            })
        }
        "ret" => Ok(Event::Ret {
            tx: tx_of(doc)?,
            obj: ObjId::new(&str_of(doc, "obj")?),
            op: op_from_str(&str_of(doc, "op")?),
            val: ref_value(
                doc.get("val")
                    .ok_or_else(|| schema_err("missing `val` field".into()))?,
            )?,
        }),
        "try_commit" => Ok(Event::TryCommit(tx_of(doc)?)),
        "try_abort" => Ok(Event::TryAbort(tx_of(doc)?)),
        "commit" => Ok(Event::Commit(tx_of(doc)?)),
        "abort" => Ok(Event::Abort(tx_of(doc)?)),
        other => Err(schema_err(format!("unknown event kind `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Reference: trace documents.

fn ref_trace_doc(h: &History) -> Json {
    obj(vec![
        ("version", Json::Int(1)),
        (
            "events",
            Json::Arr(h.events().iter().map(ref_event_doc).collect()),
        ),
    ])
}

fn ref_from_json(text: &str) -> Result<Vec<Event>, ParseError> {
    let doc = Json::parse(text)?;
    let schema_err = |msg: &str| ParseError {
        line: doc.line(),
        message: format!("invalid trace: {msg}"),
    };
    let version = match doc.get("version") {
        Some(Json::Int(i)) => u32::try_from(*i).map_err(|_| schema_err("version out of range"))?,
        _ => return Err(schema_err("missing integer `version` field")),
    };
    let events = match doc.get("events") {
        Some(Json::Arr(items)) => items.iter().map(ref_event).collect::<Result<_, _>>()?,
        _ => return Err(schema_err("missing `events` array")),
    };
    if version != 1 {
        return Err(ParseError {
            line: 0,
            message: format!("unsupported trace version {version} (this build reads version 1)"),
        });
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Reference: frames.

fn ref_opt_seq(doc: &Json, key: &str) -> Result<Option<usize>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(Json::Int(v)) if *v >= 1 => Ok(Some(*v as usize)),
        Some(_) => Err(format!("`{key}` must be a positive integer")),
    }
}

fn ref_parse_client_frame(line: &str) -> Result<ClientFrame, ParseError> {
    let doc = Json::parse(line)?;
    let frame_err = |msg: String| ParseError {
        line: doc.line(),
        message: format!("invalid frame: {msg}"),
    };
    let Some(Json::Str(kind)) = doc.get("frame") else {
        return Err(frame_err("missing string `frame` field".into()));
    };
    let session_of = |doc: &Json| -> Result<String, ParseError> {
        match doc.get("session") {
            Some(Json::Str(s)) if !s.is_empty() => Ok(s.clone()),
            Some(Json::Str(_)) => Err(frame_err("`session` must be non-empty".into())),
            _ => Err(frame_err("missing string `session` field".into())),
        }
    };
    match kind.as_str() {
        "open" => {
            match doc.get("v") {
                Some(Json::Int(v)) if *v == PROTOCOL_VERSION => {}
                Some(Json::Int(v)) => {
                    return Err(frame_err(format!(
                        "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                    )))
                }
                _ => return Err(frame_err("missing integer `v` field".into())),
            }
            Ok(ClientFrame::Open {
                session: session_of(&doc)?,
            })
        }
        "feed" => {
            let session = session_of(&doc)?;
            let event_doc = doc
                .get("event")
                .ok_or_else(|| frame_err("missing `event` field".into()))?;
            let seq = ref_opt_seq(&doc, "seq").map_err(&frame_err)?;
            Ok(ClientFrame::Feed {
                session,
                event: ref_event(event_doc)?,
                seq,
            })
        }
        "close" => Ok(ClientFrame::Close {
            session: session_of(&doc)?,
        }),
        "shutdown" => Ok(ClientFrame::Shutdown),
        other => Err(frame_err(format!("unknown frame kind `{other}`"))),
    }
}

fn ref_render_client_frame(frame: &ClientFrame) -> String {
    let doc = match frame {
        ClientFrame::Open { session } => obj(vec![
            ("frame", s("open")),
            ("v", Json::Int(PROTOCOL_VERSION)),
            ("minor", Json::Int(PROTOCOL_MINOR)),
            ("session", s(session)),
        ]),
        ClientFrame::Feed {
            session,
            event,
            seq,
        } => {
            let mut fields = vec![
                ("frame", s("feed")),
                ("session", s(session)),
                ("event", ref_event_doc(event)),
            ];
            if let Some(seq) = seq {
                fields.push(("seq", Json::Int(*seq as i64)));
            }
            obj(fields)
        }
        ClientFrame::Close { session } => obj(vec![("frame", s("close")), ("session", s(session))]),
        ClientFrame::Shutdown => obj(vec![("frame", s("shutdown"))]),
    };
    ref_compact(&doc)
}

fn ref_render_server_frame(frame: &ServerFrame) -> String {
    let int = |v: usize| Json::Int(v as i64);
    let doc = match frame {
        ServerFrame::Opened { session } => obj(vec![
            ("frame", s("opened")),
            ("v", Json::Int(PROTOCOL_VERSION)),
            ("minor", Json::Int(PROTOCOL_MINOR)),
            ("session", s(session)),
        ]),
        ServerFrame::Verdict {
            session,
            seq,
            verdict,
            at,
        } => {
            let mut fields = vec![
                ("frame", s("verdict")),
                ("session", s(session)),
                ("seq", int(*seq)),
                ("verdict", s(verdict)),
            ];
            if let Some(at) = at {
                fields.push(("at", int(*at)));
            }
            obj(fields)
        }
        ServerFrame::Ack { session, seq } => obj(vec![
            ("frame", s("ack")),
            ("session", s(session)),
            ("seq", int(*seq)),
        ]),
        ServerFrame::Busy {
            session,
            inbox,
            seq,
            retry_after_turns,
        } => {
            let mut fields = vec![
                ("frame", s("busy")),
                ("session", s(session)),
                ("inbox", int(*inbox)),
            ];
            if let Some(seq) = seq {
                fields.push(("seq", int(*seq)));
            }
            if let Some(turns) = retry_after_turns {
                fields.push(("retry_after_turns", Json::Int(*turns as i64)));
            }
            obj(fields)
        }
        ServerFrame::Error {
            session,
            seq,
            message,
        } => {
            let mut fields = vec![("frame", s("error"))];
            if let Some(session) = session {
                fields.push(("session", s(session)));
            }
            if let Some(seq) = seq {
                fields.push(("seq", int(*seq)));
            }
            fields.push(("message", s(message)));
            obj(fields)
        }
        ServerFrame::Closed {
            session,
            events,
            checks,
            violated_at,
            poisoned,
            reaped,
        } => {
            let mut fields = vec![
                ("frame", s("closed")),
                ("session", s(session)),
                ("events", int(*events)),
                ("checks", int(*checks)),
            ];
            if let Some(at) = violated_at {
                fields.push(("violated_at", int(*at)));
            }
            fields.push(("poisoned", Json::Bool(*poisoned)));
            if *reaped {
                fields.push(("reaped", Json::Bool(true)));
            }
            obj(fields)
        }
    };
    ref_compact(&doc)
}

fn ref_parse_server_frame(line: &str) -> Result<ServerFrame, ParseError> {
    let doc = Json::parse(line)?;
    let frame_err = |msg: String| ParseError {
        line: doc.line(),
        message: format!("invalid server frame: {msg}"),
    };
    let Some(Json::Str(kind)) = doc.get("frame") else {
        return Err(frame_err("missing string `frame` field".into()));
    };
    let session_of = |doc: &Json| -> Result<SessionId, ParseError> {
        match doc.get("session") {
            Some(Json::Str(s)) if !s.is_empty() => Ok(s.as_str().into()),
            _ => Err(frame_err("missing string `session` field".into())),
        }
    };
    let int_of = |doc: &Json, key: &str| -> Result<usize, ParseError> {
        match doc.get(key) {
            Some(Json::Int(v)) if *v >= 0 => Ok(*v as usize),
            _ => Err(frame_err(format!("missing integer `{key}` field"))),
        }
    };
    match kind.as_str() {
        "opened" => Ok(ServerFrame::Opened {
            session: session_of(&doc)?,
        }),
        "verdict" => {
            let verdict = match doc.get("verdict") {
                Some(Json::Str(s)) => match s.as_str() {
                    "opaque" => "opaque",
                    "opaque_skip" => "opaque_skip",
                    "violated" => "violated",
                    other => return Err(frame_err(format!("unknown verdict `{other}`"))),
                },
                _ => return Err(frame_err("missing string `verdict` field".into())),
            };
            let at = match doc.get("at") {
                Some(Json::Int(v)) if *v >= 0 => Some(*v as usize),
                None => None,
                Some(_) => return Err(frame_err("`at` must be a non-negative integer".into())),
            };
            Ok(ServerFrame::Verdict {
                session: session_of(&doc)?,
                seq: int_of(&doc, "seq")?,
                verdict,
                at,
            })
        }
        "ack" => Ok(ServerFrame::Ack {
            session: session_of(&doc)?,
            seq: int_of(&doc, "seq")?,
        }),
        "busy" => Ok(ServerFrame::Busy {
            session: session_of(&doc)?,
            inbox: int_of(&doc, "inbox")?,
            seq: ref_opt_seq(&doc, "seq").map_err(&frame_err)?,
            retry_after_turns: match doc.get("retry_after_turns") {
                Some(Json::Int(v)) if *v >= 0 => Some(*v as u64),
                None => None,
                Some(_) => {
                    return Err(frame_err(
                        "`retry_after_turns` must be a non-negative integer".into(),
                    ))
                }
            },
        }),
        "error" => {
            let session = match doc.get("session") {
                Some(Json::Str(s)) => Some(s.as_str().into()),
                _ => None,
            };
            let message = match doc.get("message") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err(frame_err("missing string `message` field".into())),
            };
            Ok(ServerFrame::Error {
                session,
                seq: ref_opt_seq(&doc, "seq").map_err(&frame_err)?,
                message,
            })
        }
        "closed" => Ok(ServerFrame::Closed {
            session: session_of(&doc)?,
            events: int_of(&doc, "events")?,
            checks: int_of(&doc, "checks")?,
            violated_at: match doc.get("violated_at") {
                Some(Json::Int(v)) if *v >= 0 => Some(*v as usize),
                _ => None,
            },
            poisoned: matches!(doc.get("poisoned"), Some(Json::Bool(true))),
            reaped: matches!(doc.get("reaped"), Some(Json::Bool(true))),
        }),
        other => Err(frame_err(format!("unknown frame kind `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Reference: journal records.

fn ref_record_doc(record: &Record) -> Json {
    match record {
        Record::Open(session) => obj(vec![("r", s("open")), ("s", s(session))]),
        Record::Event(session, event) => obj(vec![
            ("r", s("ev")),
            ("s", s(session)),
            ("event", ref_event_doc(event)),
        ]),
        Record::Checked(session, n) => obj(vec![
            ("r", s("ck")),
            ("s", s(session)),
            ("n", Json::Int(*n as i64)),
        ]),
        Record::Close(session, p) => obj(vec![
            ("r", s("close")),
            ("s", s(session)),
            ("p", Json::Bool(*p)),
        ]),
    }
}

fn ref_record_line(record: &Record) -> String {
    let payload = ref_compact(&ref_record_doc(record));
    format!("{} {payload}\n", payload.len())
}

fn ref_parse_record(line: &[u8]) -> Option<Record> {
    let line = std::str::from_utf8(line).ok()?;
    let (len, payload) = line.split_once(' ')?;
    let len: usize = len.parse().ok()?;
    if payload.len() != len {
        return None;
    }
    let doc = Json::parse(payload).ok()?;
    let Some(Json::Str(kind)) = doc.get("r") else {
        return None;
    };
    let Some(Json::Str(session)) = doc.get("s") else {
        return None;
    };
    let session = session.clone();
    match kind.as_str() {
        "open" => Some(Record::Open(session)),
        "ev" => {
            let event = ref_event(doc.get("event")?).ok()?;
            Some(Record::Event(session, event))
        }
        "ck" => match doc.get("n") {
            Some(Json::Int(n)) if *n >= 0 => Some(Record::Checked(session, *n as usize)),
            _ => None,
        },
        "close" => match doc.get("p") {
            Some(Json::Bool(p)) => Some(Record::Close(session, *p)),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Generators.

struct Gen(TestRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(TestRng::new(seed))
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    /// A name over an alphabet heavy in characters that need escaping or
    /// are multi-byte.
    fn name(&mut self) -> String {
        const ALPHABET: [char; 16] = [
            'a', 'b', 's', '0', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '€',
            '😀', ' ',
        ];
        let len = self.below(6);
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn int(&mut self) -> i64 {
        match self.below(5) {
            0 => 0,
            1 => -(self.below(1000) as i64),
            2 => i64::MAX - self.below(3) as i64,
            3 => i64::MIN + self.below(3) as i64,
            _ => self.below(1000) as i64,
        }
    }

    fn value(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 4 } else { 6 }) {
            0 => Value::Unit,
            1 => Value::Ok,
            2 => Value::Int(self.int()),
            3 => Value::Bool(self.chance(2)),
            4 => Value::pair(self.value(depth - 1), self.value(depth - 1)),
            _ => Value::List((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
        }
    }

    fn event(&mut self, pool: &[Event]) -> Event {
        if !pool.is_empty() && self.chance(2) {
            return pool[self.below(pool.len() as u64) as usize].clone();
        }
        let tx = TxId(if self.chance(4) {
            u32::MAX
        } else {
            self.below(9) as u32
        });
        let obj = ObjId::new(&self.name());
        let op = if self.chance(2) {
            op_from_str(["read", "write", "enq", "cas"][self.below(4) as usize])
        } else {
            op_from_str(&self.name())
        };
        match self.below(6) {
            0 => Event::Inv {
                tx,
                obj,
                op,
                args: (0..self.below(3)).map(|_| self.value(2)).collect(),
            },
            1 => Event::Ret {
                tx,
                obj,
                op,
                val: self.value(2),
            },
            2 => Event::TryCommit(tx),
            3 => Event::TryAbort(tx),
            4 => Event::Commit(tx),
            _ => Event::Abort(tx),
        }
    }

    fn opt(&mut self, v: usize) -> Option<usize> {
        (!self.chance(3)).then_some(v)
    }

    fn count(&mut self) -> usize {
        match self.below(4) {
            0 => 0,
            1 => 1,
            2 => i64::MAX as usize,
            _ => self.below(100_000) as usize,
        }
    }

    fn client_frame(&mut self, pool: &[Event]) -> ClientFrame {
        let session = self.name();
        match self.below(4) {
            0 => ClientFrame::Open { session },
            1 => {
                let seq = self.count().max(1);
                ClientFrame::Feed {
                    session,
                    event: self.event(pool),
                    seq: self.opt(seq),
                }
            }
            2 => ClientFrame::Close { session },
            _ => ClientFrame::Shutdown,
        }
    }

    fn server_frame(&mut self) -> ServerFrame {
        let session: SessionId = self.name().into();
        match self.below(6) {
            0 => ServerFrame::Opened { session },
            1 => {
                let at = self.count();
                ServerFrame::Verdict {
                    session,
                    seq: self.count(),
                    verdict: ["opaque", "opaque_skip", "violated"][self.below(3) as usize],
                    at: self.opt(at),
                }
            }
            2 => ServerFrame::Ack {
                session,
                seq: self.count(),
            },
            3 => {
                let (seq, turns) = (self.count().max(1), self.count());
                ServerFrame::Busy {
                    session,
                    inbox: self.count(),
                    seq: self.opt(seq),
                    retry_after_turns: self.opt(turns).map(|t| t as u64),
                }
            }
            4 => {
                let seq = self.count().max(1);
                ServerFrame::Error {
                    session: (!self.chance(3)).then_some(session),
                    seq: self.opt(seq),
                    message: self.name(),
                }
            }
            _ => {
                let at = self.count();
                ServerFrame::Closed {
                    session,
                    events: self.count(),
                    checks: self.count(),
                    violated_at: self.opt(at),
                    poisoned: self.chance(2),
                    reaped: self.chance(2),
                }
            }
        }
    }

    fn record(&mut self, pool: &[Event]) -> Record {
        let session = self.name();
        match self.below(4) {
            0 => Record::Open(session),
            1 => Record::Event(session, self.event(pool)),
            2 => Record::Checked(session, self.count()),
            _ => Record::Close(session, self.chance(2)),
        }
    }

    fn ws(&mut self, out: &mut String) {
        while self.chance(4) {
            out.push([' ', '\t', '\n', '\r'][self.below(4) as usize]);
        }
    }

    /// A string literal spelled with optional escapes: `\/`, `\u` for
    /// ASCII and BMP characters, surrogate pairs for astral ones.
    fn spell(&mut self, text: &str, out: &mut String) {
        out.push('"');
        for c in text.chars() {
            let code = c as u32;
            if c == '"' || c == '\\' || code < 0x20 || self.chance(5) {
                match (c, self.below(3)) {
                    ('/', 0) => out.push_str("\\/"),
                    _ if code >= 0x10000 => {
                        let v = code - 0x10000;
                        let _ = write!(
                            out,
                            "\\u{:04x}\\u{:04X}",
                            0xD800 + (v >> 10),
                            0xDC00 + (v & 0x3FF)
                        );
                    }
                    _ => {
                        let _ = write!(out, "\\u{code:04x}");
                    }
                }
            } else {
                out.push(c);
            }
        }
        out.push('"');
    }

    fn scalar(&mut self) -> Json {
        match self.below(6) {
            0 => Json::Null,
            1 => Json::Bool(self.chance(2)),
            2 => Json::Int(self.int()),
            3 => Json::Str(self.name()),
            4 => Json::Str(
                ["feed", "open", "ev", "ck", "inv", "ret", "int", "pair"][self.below(8) as usize]
                    .into(),
            ),
            _ => Json::Arr(Vec::new()),
        }
    }

    /// Re-renders `j` with random whitespace and escapes; with `schema`
    /// noise it also reorders, duplicates, drops and retypes fields.
    fn noisy(&mut self, j: &Json, schema: bool, out: &mut String) {
        self.ws(out);
        match j {
            Json::Str(text) => self.spell(text, out),
            Json::Arr(items) => {
                let mut items = items.clone();
                if schema && !items.is_empty() && self.chance(6) {
                    let i = self.below(items.len() as u64) as usize;
                    if self.chance(2) {
                        items.remove(i);
                    } else {
                        items.insert(i, items[i].clone());
                    }
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.ws(out);
                        out.push(',');
                    }
                    self.noisy_member(item, schema, out);
                }
                self.ws(out);
                out.push(']');
            }
            Json::Obj(_, fields) => {
                let mut fields = fields.clone();
                if schema {
                    if fields.len() > 1 && self.chance(3) {
                        let (a, b) = (
                            self.below(fields.len() as u64),
                            self.below(fields.len() as u64),
                        );
                        fields.swap(a as usize, b as usize);
                    }
                    if !fields.is_empty() && self.chance(3) {
                        let i = self.below(fields.len() as u64) as usize;
                        let mut dup = fields[i].clone();
                        if self.chance(2) {
                            dup.1 = self.scalar();
                        }
                        let at = self.below(fields.len() as u64 + 1) as usize;
                        fields.insert(at, dup);
                    }
                    if !fields.is_empty() && self.chance(8) {
                        fields.remove(self.below(fields.len() as u64) as usize);
                    }
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        self.ws(out);
                        out.push(',');
                    }
                    self.ws(out);
                    self.spell(k, out);
                    self.ws(out);
                    out.push(':');
                    self.noisy_member(v, schema, out);
                }
                self.ws(out);
                out.push('}');
            }
            other => ref_write_compact(other, out),
        }
        self.ws(out);
    }

    fn noisy_member(&mut self, j: &Json, schema: bool, out: &mut String) {
        if schema && self.chance(12) {
            let replacement = self.scalar();
            self.noisy(&replacement, false, out);
        } else {
            self.noisy(j, schema, out);
        }
    }

    /// Byte-level damage: truncate, flip one byte, or splice in a chunk of
    /// `other`.
    fn mutate(&mut self, text: &str, other: &str) -> Vec<u8> {
        let mut bytes = text.as_bytes().to_vec();
        let at = self.below(bytes.len() as u64 + 1) as usize;
        match self.below(3) {
            0 => bytes.truncate(at),
            1 if !bytes.is_empty() => {
                let i = at.min(bytes.len() - 1);
                bytes[i] = if self.chance(2) {
                    b"{}[]\":,\\ntfu0-9 \n"[self.below(17) as usize]
                } else {
                    self.below(256) as u8
                };
            }
            _ => {
                let from = self.below(other.len() as u64 + 1) as usize;
                let len = self.below(16) as usize;
                let chunk = &other.as_bytes()[from..(from + len).min(other.len())];
                bytes.splice(at..at, chunk.iter().copied());
            }
        }
        bytes
    }

    /// Inputs derived from one valid rendering: re-spelled, schema-noisy,
    /// and byte-mutated variants.
    fn variants(&mut self, valid: &str, other: &str) -> Vec<String> {
        let mut out = vec![valid.to_string()];
        if let Ok(doc) = Json::parse(valid) {
            for schema in [false, true, true, true] {
                let mut text = String::new();
                self.noisy(&doc, schema, &mut text);
                out.push(text);
            }
        }
        for _ in 0..4 {
            let bytes = self.mutate(valid, other);
            out.push(String::from_utf8_lossy(&bytes).into_owned());
        }
        out
    }
}

fn pool(seed: u64) -> Vec<Event> {
    let config = GenConfig {
        txs: 4,
        objs: 3,
        max_ops: 4,
        noise: 0.3,
        commit_pending: 0.2,
        abort: 0.25,
    };
    random_history(&config, seed).events().to_vec()
}

/// A fallible setup step inside a property: its error fails the case.
fn ok<T, E: std::fmt::Debug>(r: Result<T, E>) -> Result<T, TestCaseError> {
    r.map_err(|e| TestCaseError::fail(format!("{e:?}")))
}

fn scratch_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tm-codec-{tag}-{}-{seed:x}", std::process::id()))
}

// ---------------------------------------------------------------------------
// Properties.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn client_frames_match_the_tree_path(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let pool = pool(seed);
        let frame = g.client_frame(&pool);
        let line = render_client_frame(&frame);
        prop_assert_eq!(&line, &ref_render_client_frame(&frame));
        let other = render_client_frame(&g.client_frame(&pool));
        for input in g.variants(&line, &other) {
            prop_assert_eq!(parse_client_frame(&input), ref_parse_client_frame(&input), "{}", input);
        }
    }

    #[test]
    fn server_frames_match_the_tree_path(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let frame = g.server_frame();
        let line = frame.render();
        prop_assert_eq!(&line, &ref_render_server_frame(&frame));
        let mut appended = String::from("prefix");
        frame.render_into(&mut appended);
        prop_assert_eq!(&appended[6..], line.as_str());
        let other = g.server_frame().render();
        for input in g.variants(&line, &other) {
            prop_assert_eq!(parse_server_frame(&input), ref_parse_server_frame(&input), "{}", input);
        }
    }

    #[test]
    fn journal_records_match_the_tree_path(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let pool = pool(seed);
        let records: Vec<Record> = (0..1 + g.below(6)).map(|_| g.record(&pool)).collect();
        let dir = scratch_dir("journal", seed);
        let mut w = ok(JournalWriter::create(&dir, 3))?;
        for r in &records {
            ok(match r {
                Record::Open(s) => w.open(s),
                Record::Event(s, e) => w.event(s, e),
                Record::Checked(s, n) => w.checked(s, *n),
                Record::Close(s, p) => w.close(s, *p),
            })?;
        }
        ok(w.flush_sync())?;
        let bytes = ok(std::fs::read(journal_path(&dir)))?;
        let _ = std::fs::remove_dir_all(&dir);
        let expected: String = records.iter().map(ref_record_line).collect();
        prop_assert_eq!(String::from_utf8_lossy(&bytes), expected.as_str());
        for (r, line) in records.iter().zip(expected.lines()) {
            let parsed = parse_record(line.as_bytes());
            prop_assert_eq!(parsed.as_ref(), Some(r));
            let payload = line.split_once(' ').map_or("", |(_, p)| p);
            let other = ref_record_line(&g.record(&pool));
            for variant in g.variants(payload, &other) {
                // Re-prefixed so the length check passes and the payload
                // reaches the decoder; the raw form tests the prefix.
                let prefixed = format!("{} {variant}", variant.len());
                for input in [prefixed.as_bytes(), variant.as_bytes()] {
                    prop_assert_eq!(parse_record(input), ref_parse_record(input), "{}", variant);
                }
            }
            let damaged = g.mutate(line, &other);
            prop_assert_eq!(parse_record(&damaged), ref_parse_record(&damaged));
        }
    }

    #[test]
    fn trace_documents_match_the_tree_path(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let pool = pool(seed);
        let h = if g.chance(2) {
            History::from_events(pool.clone())
        } else {
            History::from_events((0..g.below(6)).map(|_| g.event(&pool)).collect())
        };
        let compact = to_json(&h);
        let doc = ref_trace_doc(&h);
        prop_assert_eq!(&compact, &ref_compact(&doc));
        let mut pretty = String::new();
        ref_write_pretty(&doc, &mut pretty, 0);
        prop_assert_eq!(to_json_pretty(&h), pretty.clone());
        let other = to_json(&History::from_events(vec![g.event(&pool)]));
        for input in g.variants(&compact, &other).into_iter().chain([pretty]) {
            let ours = from_json(&input).map(|h| h.events().to_vec());
            prop_assert_eq!(ours, ref_from_json(&input), "{}", input);
            // The public tree decoder agrees with the reference too.
            if let Ok(Json::Obj(_, fields)) = Json::parse(&input) {
                for (_, v) in &fields {
                    if let Json::Arr(items) = v {
                        for item in items {
                            prop_assert_eq!(event_from_doc(item), ref_event(item));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tagged_values_match_the_tree_path(seed in 0u64..u64::MAX) {
        // Deep values under heavy schema noise: tag, arity and element
        // errors in every order.
        let mut g = Gen::new(seed);
        let events: Vec<Event> = (0..8)
            .map(|tx| Event::Ret {
                tx: TxId(tx),
                obj: ObjId::new("x"),
                op: op_from_str("read"),
                val: g.value(3),
            })
            .collect();
        let doc = ok(Json::parse(&to_json(&History::from_events(events))))?;
        for _ in 0..8 {
            let mut input = String::new();
            g.noisy(&doc, true, &mut input);
            let ours = from_json(&input).map(|h| h.events().to_vec());
            prop_assert_eq!(ours, ref_from_json(&input), "{}", input);
        }
    }

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        const JSONISH: &[u8] = b"{}[]\":,\\ntrufalsel0123456789-+.eE \t\n\r/u";
        let len = g.below(96) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if g.chance(3) {
                    g.below(256) as u8
                } else {
                    JSONISH[g.below(JSONISH.len() as u64) as usize]
                }
            })
            .collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_client_frame(&text);
        let _ = parse_server_frame(&text);
        let _ = from_json(&text);
        let _ = parse_record(&bytes);
        let _ = parse_record(format!("{} {text}", text.len()).as_bytes());
    }
}

#[test]
fn a_repeated_session_key_keeps_its_first_value() {
    let line = r#"{"frame":"open","v":1,"session":"first","session":"second"}"#;
    let expected = ClientFrame::Open {
        session: "first".into(),
    };
    assert_eq!(parse_client_frame(line), Ok(expected.clone()));
    assert_eq!(ref_parse_client_frame(line), Ok(expected.clone()));
}

#[test]
fn an_open_frame_ignores_a_schema_invalid_event() {
    let line = r#"{"frame":"open","v":1,"session":"s","event":{"kind":"zap","tx":-1}}"#;
    let expected = ClientFrame::Open {
        session: "s".into(),
    };
    assert_eq!(parse_client_frame(line), Ok(expected.clone()));
    assert_eq!(ref_parse_client_frame(line), Ok(expected.clone()));
    // Before the `frame` field the event is decoded, then ignored.
    let line = r#"{"event":{"kind":"zap"},"frame":"open","v":1,"session":"s"}"#;
    assert_eq!(parse_client_frame(line), Ok(expected.clone()));
}

#[test]
fn a_syntax_error_after_a_schema_error_is_the_one_reported() {
    // `v` is wrong early on, the document is broken at the end: the tree
    // path never got to the schema, and neither does the codec.
    let line = r#"{"frame":"open","v":9,"session":"s","x":[1,}"#;
    let err = parse_client_frame(line).unwrap_err();
    assert_eq!(Err(err.clone()), ref_parse_client_frame(line));
    assert!(err.message.contains("unexpected character `}`"), "{err}");
}
