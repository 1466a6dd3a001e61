//! The `tm-serve/v1.1` wire protocol: versioned, line-delimited JSON frames.
//!
//! One frame per line. Frames are decoded in one pass over the line and
//! rendered straight into a `String` by the [`tm_trace::json`] codec (the
//! same layer the trace format uses — no new dependencies, and `feed`
//! frames embed trace events in exactly the `events`-array element shape
//! of the JSON trace format). No document tree is built on either path;
//! the accepted frames and every error message and line are those of a
//! parse into a [`tm_trace::Json`] tree followed by a schema walk.
//!
//! There is one decoder. The daemon runs it in its borrowed form, whose
//! session id is a slice of the input line, so routing a frame copies no
//! id; [`parse_client_frame`] is the owned wrapper over the same decoder
//! for the client library and tooling. Server frames name their session
//! by its [`SessionId`], one shared allocation per session, so a verdict
//! frame clones a pointer, not the id.
//!
//! ## Client → server
//!
//! ```json
//! {"frame":"open","v":1,"minor":1,"session":"s1"}
//! {"frame":"feed","session":"s1","event":{"kind":"inv","tx":1,"obj":"x","op":"read"},"seq":4}
//! {"frame":"close","session":"s1"}
//! {"frame":"shutdown"}
//! ```
//!
//! `open` carries the protocol version (`"v":1`, minor `1`); the other
//! client frames are version-bound by their session. Re-`open`ing an
//! already-open session from a *different* connection re-binds the session
//! to that connection — the reconnect path; from the same connection it
//! stays an error. `feed` may tag the event with its 1-based `seq` within
//! the session's stream: a tagged feed is **idempotent** (a duplicate of an
//! already-accepted `seq` is answered with `ack` instead of being fed
//! twice), which is what makes client-side resend after a lost response
//! safe. `shutdown` asks the daemon to drain every in-flight session and
//! exit (the line-oriented stand-in for a signal: the workspace forbids
//! `unsafe`, so no signal handler can be installed — EOF on stdin/replay
//! input drains identically).
//!
//! ## Server → client
//!
//! ```json
//! {"frame":"opened","v":1,"minor":1,"session":"s1"}
//! {"frame":"verdict","session":"s1","seq":3,"verdict":"opaque"}
//! {"frame":"verdict","session":"s1","seq":7,"verdict":"violated","at":6}
//! {"frame":"ack","session":"s1","seq":4}
//! {"frame":"busy","session":"s1","inbox":1024,"seq":9,"retry_after_turns":3}
//! {"frame":"error","session":"s1","seq":2,"message":"..."}
//! {"frame":"closed","session":"s1","events":9,"checks":4,"violated_at":6,"poisoned":false}
//! ```
//!
//! One `verdict` frame per fed event, tagged with the 1-based sequence
//! number of that event within the session's stream. `verdict` is
//! `"opaque"` (a fresh check passed), `"opaque_skip"` (the monitor's
//! invocation-skip argument applied — no check was needed), or
//! `"violated"` with the sticky first violation index `at` (0-based, as
//! the monitor reports it). A verdict frame is a pure function of the
//! session's own event stream — never of what other multiplexed sessions
//! are doing — which is the byte-identity contract the replay tests pin.
//!
//! v1.1 additions (all additive; a v1 frame still parses):
//!
//! * `busy` carries the rejected event's would-be `seq` (resend precisely
//!   from there) and, when the overload governor is shedding, a
//!   `retry_after_turns` hint;
//! * `ack` answers a duplicate seq-tagged feed: events through `seq` are
//!   already accepted (their verdicts may have been lost in flight);
//! * session-scoped `error` frames caused by a specific event carry that
//!   event's `seq` (positioned errors);
//! * `closed` carries `"reaped":true` when the session was closed by the
//!   idle-deadline reaper rather than a client `close`.
//!
//! Schema evolution follows the workspace rule: versions only increment,
//! fields are only added, never repurposed.

use std::borrow::{Borrow, Cow};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use tm_model::Event;
use tm_trace::json::{read_event, Lexer, ObjectWriter, Scalar, Schema, Token};
use tm_trace::ParseError;

/// The protocol major version (the `"v"` of `open`/`opened`).
pub const PROTOCOL_VERSION: i64 = 1;

/// The protocol minor version (the `"minor"` of `open`/`opened`): additive
/// schema revisions within a major version. Frames without the field are
/// minor 0.
pub const PROTOCOL_MINOR: i64 = 1;

/// The protocol identifier (for banners and artifact metadata).
pub const PROTOCOL: &str = "tm-serve/v1.1";

/// Bytes reserved up front for a rendered frame: enough for the common
/// frames in one allocation (a `verdict` line is about 70 bytes).
const RENDER_CAPACITY: usize = 128;

/// A parsed client-side frame.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientFrame {
    /// Open a new session under a client-chosen identifier (or re-bind an
    /// open session to a new connection after a reconnect).
    Open {
        /// The session identifier (any non-empty string).
        session: String,
    },
    /// Append one trace event to a session's stream.
    Feed {
        /// The target session.
        session: String,
        /// The event, in the trace format's wire shape.
        event: Event,
        /// The event's 1-based sequence number, when the client wants
        /// idempotent delivery (duplicates answered with `ack`, gaps
        /// rejected). Untagged feeds are accepted in arrival order.
        seq: Option<usize>,
    },
    /// Close a session: its remaining inbox is drained, a `closed` summary
    /// frame is emitted, and its resources are released.
    Close {
        /// The target session.
        session: String,
    },
    /// Drain every in-flight session and exit.
    Shutdown,
}

/// A client frame decoded in place: the daemon's form of [`ClientFrame`].
/// The session id is a slice of the input line (owned only when the line
/// spelled it with escapes), so routing a frame copies no id.
#[derive(Debug)]
pub(crate) enum ClientFrameRef<'a> {
    Open {
        session: Cow<'a, str>,
    },
    Feed {
        session: Cow<'a, str>,
        event: Event,
        seq: Option<usize>,
    },
    Close {
        session: Cow<'a, str>,
    },
    Shutdown,
}

impl ClientFrameRef<'_> {
    /// The owned frame.
    fn into_owned(self) -> ClientFrame {
        match self {
            ClientFrameRef::Open { session } => ClientFrame::Open {
                session: session.into_owned(),
            },
            ClientFrameRef::Feed {
                session,
                event,
                seq,
            } => ClientFrame::Feed {
                session: session.into_owned(),
                event,
                seq,
            },
            ClientFrameRef::Close { session } => ClientFrame::Close {
                session: session.into_owned(),
            },
            ClientFrameRef::Shutdown => ClientFrame::Shutdown,
        }
    }
}

/// A session identifier as the daemon holds it: one shared allocation per
/// session, so every frame naming the session clones a pointer, not the
/// id. Reads as a `str` (it derefs to one and compares equal to one).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(Arc<str>);

impl Deref for SessionId {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for SessionId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for SessionId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for SessionId {
    fn from(id: &str) -> Self {
        SessionId(id.into())
    }
}

impl From<String> for SessionId {
    fn from(id: String) -> Self {
        SessionId(id.into())
    }
}

impl PartialEq<str> for SessionId {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for SessionId {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl fmt::Debug for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// A `seq`-style field: absent, or a positive integer.
fn opt_seq(field: Option<Scalar<'_>>, key: &str) -> Result<Option<usize>, String> {
    match field {
        None => Ok(None),
        Some(Scalar::Int(v)) if v >= 1 => Ok(Some(v as usize)),
        Some(_) => Err(format!("`{key}` must be a positive integer")),
    }
}

/// Parses one client frame from one input line: the owned form of the
/// daemon's decoder, for the client library and tooling.
pub fn parse_client_frame(line: &str) -> Result<ClientFrame, ParseError> {
    decode_client_frame(line).map(ClientFrameRef::into_owned)
}

/// Decodes one client frame from one input line, in one pass: the frame is
/// decoded as it is scanned, and the embedded `event` is decoded only when
/// the frame can still be a `feed` (it is syntax-checked either way).
/// Errors are exactly those of a parse into a [`tm_trace::Json`] tree
/// followed by a schema walk (see [`tm_trace::json`]).
pub(crate) fn decode_client_frame<'a>(line: &'a str) -> Result<ClientFrameRef<'a>, ParseError> {
    let mut lx = Lexer::new(line);
    let (mut kind, mut session, mut v, mut seq) = (None, None, None, None);
    let mut event: Option<Schema<Event>> = None;
    let token = lx.token()?;
    let line = match token {
        Token::Obj(line) => {
            while let Some(key) = lx.next_key()? {
                match &*key {
                    "frame" if kind.is_none() => kind = Some(lx.scalar()?),
                    "session" if session.is_none() => session = Some(lx.scalar()?),
                    "v" if v.is_none() => v = Some(lx.scalar()?),
                    "seq" if seq.is_none() => seq = Some(lx.scalar()?),
                    "event" if event.is_none() && may_feed(&kind) => {
                        event = Some(read_event(&mut lx)?)
                    }
                    _ => lx.skip()?,
                }
            }
            line
        }
        other => {
            lx.drain(&other)?;
            0
        }
    };
    lx.finish()?;
    let frame_err = |msg: String| ParseError {
        line,
        message: format!("invalid frame: {msg}"),
    };
    let Some(Scalar::Str(kind)) = kind else {
        return Err(frame_err("missing string `frame` field".into()));
    };
    let session_of = |session: Option<Scalar<'a>>| match session {
        Some(Scalar::Str(s)) if !s.is_empty() => Ok(s),
        Some(Scalar::Str(_)) => Err(frame_err("`session` must be non-empty".into())),
        _ => Err(frame_err("missing string `session` field".into())),
    };
    match &*kind {
        "open" => {
            match v {
                Some(Scalar::Int(v)) if v == PROTOCOL_VERSION => {}
                Some(Scalar::Int(v)) => {
                    return Err(frame_err(format!(
                        "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                    )))
                }
                _ => return Err(frame_err("missing integer `v` field".into())),
            }
            // `minor` is advisory: minors are additive, so any minor of a
            // supported major parses (v1 frames simply omit the field).
            Ok(ClientFrameRef::Open {
                session: session_of(session)?,
            })
        }
        "feed" => {
            let session = session_of(session)?;
            let event = event.ok_or_else(|| frame_err("missing `event` field".into()))?;
            let seq = opt_seq(seq, "seq").map_err(frame_err)?;
            Ok(ClientFrameRef::Feed {
                session,
                event: event?,
                seq,
            })
        }
        "close" => Ok(ClientFrameRef::Close {
            session: session_of(session)?,
        }),
        "shutdown" => Ok(ClientFrameRef::Shutdown),
        other => Err(frame_err(format!("unknown frame kind `{other}`"))),
    }
}

/// Whether a frame whose `frame` field reads `kind` so far can be a `feed`
/// (an unread field still can: fields arrive in any order).
fn may_feed(kind: &Option<Scalar<'_>>) -> bool {
    match kind {
        None => true,
        Some(Scalar::Str(k)) => k == "feed",
        Some(_) => false,
    }
}

/// Renders a client frame as its wire line (used by the client library,
/// the bench driver, and fixture tooling).
pub fn render_client_frame(frame: &ClientFrame) -> String {
    let mut out = String::with_capacity(RENDER_CAPACITY);
    let mut o = ObjectWriter::open(&mut out);
    match frame {
        ClientFrame::Open { session } => {
            o.str("frame", "open")
                .int("v", PROTOCOL_VERSION)
                .int("minor", PROTOCOL_MINOR)
                .str("session", session);
        }
        ClientFrame::Feed {
            session,
            event,
            seq,
        } => {
            o.str("frame", "feed")
                .str("session", session)
                .event("event", event);
            if let Some(seq) = seq {
                o.int("seq", *seq as i64);
            }
        }
        ClientFrame::Close { session } => {
            o.str("frame", "close").str("session", session);
        }
        ClientFrame::Shutdown => {
            o.str("frame", "shutdown");
        }
    }
    o.close();
    out
}

/// A server-side frame, ready to render. The daemon names sessions by
/// their shared [`SessionId`]; any `str`-like id renders the same bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerFrame<S = SessionId> {
    /// Acknowledges `open` (including a reconnect re-bind).
    Opened {
        /// The session identifier.
        session: S,
    },
    /// The per-event verdict.
    Verdict {
        /// The session identifier.
        session: S,
        /// 1-based index of the event within the session's stream.
        seq: usize,
        /// `"opaque"`, `"opaque_skip"`, or `"violated"`.
        verdict: &'static str,
        /// First violation index (0-based), present iff violated.
        at: Option<usize>,
    },
    /// Answers a duplicate seq-tagged feed: events through `seq` are
    /// already accepted, nothing was fed twice.
    Ack {
        /// The session identifier.
        session: S,
        /// Events accepted so far (the session's acceptance cursor).
        seq: usize,
    },
    /// Backpressure: the frame was NOT accepted — the client must resend
    /// after the daemon catches up.
    Busy {
        /// The session identifier.
        session: S,
        /// The inbox bound in force.
        inbox: usize,
        /// The rejected event's would-be 1-based `seq` — resend from here.
        /// Absent when the rejected frame was an `open`.
        seq: Option<usize>,
        /// Overload-governor hint: scheduler turns to back off before
        /// resending. Absent on plain inbox backpressure.
        retry_after_turns: Option<u64>,
    },
    /// A session-scoped or stream-scoped error. Frame-level errors carry no
    /// session; feed errors on a poisoned session repeat its latched error.
    Error {
        /// The session, when the error is session-scoped.
        session: Option<S>,
        /// The 1-based `seq` of the event that caused the error, when the
        /// error is positioned on a specific accepted event.
        seq: Option<usize>,
        /// Human-readable description.
        message: String,
    },
    /// The end-of-session summary emitted once the inbox is drained.
    Closed {
        /// The session identifier.
        session: S,
        /// Events accepted over the session's lifetime.
        events: usize,
        /// Full checks run (the remainder were invocation-skips).
        checks: usize,
        /// Sticky first violation index, if any.
        violated_at: Option<usize>,
        /// Whether the session was poisoned by a hard error.
        poisoned: bool,
        /// Whether the idle-deadline reaper (not a client `close`) ended
        /// the session.
        reaped: bool,
    },
}

impl<S: AsRef<str>> ServerFrame<S> {
    /// Renders the frame as its compact wire line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(RENDER_CAPACITY);
        self.render_into(&mut out);
        out
    }

    /// Appends the frame's compact wire line (no trailing newline) to
    /// `out` — the daemon renders every response into one reused buffer.
    pub fn render_into(&self, out: &mut String) {
        let mut o = ObjectWriter::open(out);
        match self {
            ServerFrame::Opened { session } => {
                o.str("frame", "opened")
                    .int("v", PROTOCOL_VERSION)
                    .int("minor", PROTOCOL_MINOR)
                    .str("session", session.as_ref());
            }
            ServerFrame::Verdict {
                session,
                seq,
                verdict,
                at,
            } => {
                o.str("frame", "verdict")
                    .str("session", session.as_ref())
                    .int("seq", *seq as i64)
                    .str("verdict", verdict);
                if let Some(at) = at {
                    o.int("at", *at as i64);
                }
            }
            ServerFrame::Ack { session, seq } => {
                o.str("frame", "ack")
                    .str("session", session.as_ref())
                    .int("seq", *seq as i64);
            }
            ServerFrame::Busy {
                session,
                inbox,
                seq,
                retry_after_turns,
            } => {
                o.str("frame", "busy")
                    .str("session", session.as_ref())
                    .int("inbox", *inbox as i64);
                if let Some(seq) = seq {
                    o.int("seq", *seq as i64);
                }
                if let Some(turns) = retry_after_turns {
                    o.int("retry_after_turns", *turns as i64);
                }
            }
            ServerFrame::Error {
                session,
                seq,
                message,
            } => {
                o.str("frame", "error");
                if let Some(session) = session {
                    o.str("session", session.as_ref());
                }
                if let Some(seq) = seq {
                    o.int("seq", *seq as i64);
                }
                o.str("message", message);
            }
            ServerFrame::Closed {
                session,
                events,
                checks,
                violated_at,
                poisoned,
                reaped,
            } => {
                o.str("frame", "closed")
                    .str("session", session.as_ref())
                    .int("events", *events as i64)
                    .int("checks", *checks as i64);
                if let Some(at) = violated_at {
                    o.int("violated_at", *at as i64);
                }
                o.bool("poisoned", *poisoned);
                if *reaped {
                    o.bool("reaped", true);
                }
            }
        }
        o.close();
    }
}

/// The fields a server frame may carry, in [`SERVER_KEYS`] order.
const SERVER_KEYS: [&str; 13] = [
    "frame",
    "session",
    "seq",
    "verdict",
    "at",
    "inbox",
    "retry_after_turns",
    "message",
    "events",
    "checks",
    "violated_at",
    "poisoned",
    "reaped",
];

/// Parses one server frame from one response line — the client library's
/// half of the protocol. Accepts both v1 and v1.1 renders (every v1.1
/// field is optional on parse).
pub fn parse_server_frame(line: &str) -> Result<ServerFrame, ParseError> {
    let mut lx = Lexer::new(line);
    let mut fields: [Option<Scalar<'_>>; 13] = Default::default();
    let token = lx.token()?;
    let line = match token {
        Token::Obj(line) => {
            while let Some(key) = lx.next_key()? {
                match SERVER_KEYS.iter().position(|k| *k == key) {
                    Some(i) if fields[i].is_none() => fields[i] = Some(lx.scalar()?),
                    _ => lx.skip()?,
                }
            }
            line
        }
        other => {
            lx.drain(&other)?;
            0
        }
    };
    lx.finish()?;
    let [kind, session, seq, verdict, at, inbox, retry_after_turns, message, events, checks, violated_at, poisoned, reaped] =
        fields;
    let frame_err = |msg: String| ParseError {
        line,
        message: format!("invalid server frame: {msg}"),
    };
    let Some(Scalar::Str(kind)) = kind else {
        return Err(frame_err("missing string `frame` field".into()));
    };
    let session_of = |session: Option<Scalar<'_>>| match session {
        Some(Scalar::Str(s)) if !s.is_empty() => Ok(SessionId::from(&*s)),
        _ => Err(frame_err("missing string `session` field".into())),
    };
    let int_of = |field: Option<Scalar<'_>>, key: &str| match field {
        Some(Scalar::Int(v)) if v >= 0 => Ok(v as usize),
        _ => Err(frame_err(format!("missing integer `{key}` field"))),
    };
    let opt_int = |field: Option<Scalar<'_>>, key: &str| match field {
        Some(Scalar::Int(v)) if v >= 0 => Ok(Some(v as usize)),
        None => Ok(None),
        Some(_) => Err(frame_err(format!("`{key}` must be a non-negative integer"))),
    };
    match &*kind {
        "opened" => Ok(ServerFrame::Opened {
            session: session_of(session)?,
        }),
        "verdict" => {
            let verdict = match verdict {
                Some(Scalar::Str(s)) => match &*s {
                    "opaque" => "opaque",
                    "opaque_skip" => "opaque_skip",
                    "violated" => "violated",
                    other => return Err(frame_err(format!("unknown verdict `{other}`"))),
                },
                _ => return Err(frame_err("missing string `verdict` field".into())),
            };
            let at = opt_int(at, "at")?;
            Ok(ServerFrame::Verdict {
                session: session_of(session)?,
                seq: int_of(seq, "seq")?,
                verdict,
                at,
            })
        }
        "ack" => Ok(ServerFrame::Ack {
            session: session_of(session)?,
            seq: int_of(seq, "seq")?,
        }),
        "busy" => Ok(ServerFrame::Busy {
            session: session_of(session)?,
            inbox: int_of(inbox, "inbox")?,
            seq: opt_seq(seq, "seq").map_err(frame_err)?,
            retry_after_turns: opt_int(retry_after_turns, "retry_after_turns")?.map(|v| v as u64),
        }),
        "error" => {
            let session = match session {
                Some(Scalar::Str(s)) => Some(SessionId::from(&*s)),
                _ => None,
            };
            let message = match message {
                Some(Scalar::Str(s)) => s.into_owned(),
                _ => return Err(frame_err("missing string `message` field".into())),
            };
            Ok(ServerFrame::Error {
                session,
                seq: opt_seq(seq, "seq").map_err(frame_err)?,
                message,
            })
        }
        "closed" => Ok(ServerFrame::Closed {
            session: session_of(session)?,
            events: int_of(events, "events")?,
            checks: int_of(checks, "checks")?,
            violated_at: match violated_at {
                Some(Scalar::Int(v)) if v >= 0 => Some(v as usize),
                _ => None,
            },
            poisoned: poisoned == Some(Scalar::Bool(true)),
            reaped: reaped == Some(Scalar::Bool(true)),
        }),
        other => Err(frame_err(format!("unknown frame kind `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::TxId;

    #[test]
    fn client_frames_roundtrip_through_render_and_parse() {
        let frames = [
            ClientFrame::Open {
                session: "s1".into(),
            },
            ClientFrame::Feed {
                session: "s1".into(),
                event: Event::TryCommit(TxId(3)),
                seq: None,
            },
            ClientFrame::Feed {
                session: "s1".into(),
                event: Event::TryCommit(TxId(3)),
                seq: Some(7),
            },
            ClientFrame::Close {
                session: "s1".into(),
            },
            ClientFrame::Shutdown,
        ];
        for f in frames {
            let line = render_client_frame(&f);
            assert_eq!(parse_client_frame(&line).unwrap(), f, "{line}");
        }
    }

    #[test]
    fn v1_frames_still_parse_under_v1_1() {
        // Exactly the bytes a v1 peer renders: no `minor`, no `seq`, no
        // `retry_after_turns`, no `reaped`. All must parse, defaulting the
        // v1.1 fields.
        let open = parse_client_frame(r#"{"frame":"open","v":1,"session":"s"}"#).unwrap();
        assert_eq!(
            open,
            ClientFrame::Open {
                session: "s".into()
            }
        );
        let feed = parse_client_frame(
            r#"{"frame":"feed","session":"s","event":{"kind":"try_commit","tx":3}}"#,
        )
        .unwrap();
        assert!(matches!(feed, ClientFrame::Feed { seq: None, .. }));
        let opened = parse_server_frame(r#"{"frame":"opened","v":1,"session":"s"}"#).unwrap();
        assert_eq!(
            opened,
            ServerFrame::Opened {
                session: "s".into()
            }
        );
        let busy = parse_server_frame(r#"{"frame":"busy","session":"s","inbox":1024}"#).unwrap();
        assert_eq!(
            busy,
            ServerFrame::Busy {
                session: "s".into(),
                inbox: 1024,
                seq: None,
                retry_after_turns: None,
            }
        );
        let error = parse_server_frame(r#"{"frame":"error","session":"s","message":"m"}"#).unwrap();
        assert_eq!(
            error,
            ServerFrame::Error {
                session: Some("s".into()),
                seq: None,
                message: "m".into(),
            }
        );
        let closed = parse_server_frame(
            r#"{"frame":"closed","session":"s","events":9,"checks":4,"poisoned":false}"#,
        )
        .unwrap();
        assert!(matches!(closed, ServerFrame::Closed { reaped: false, .. }));
    }

    #[test]
    fn server_frames_roundtrip_through_render_and_parse() {
        let frames = [
            ServerFrame::Opened {
                session: "s1".into(),
            },
            ServerFrame::Verdict {
                session: "s1".into(),
                seq: 7,
                verdict: "violated",
                at: Some(6),
            },
            ServerFrame::Ack {
                session: "s1".into(),
                seq: 4,
            },
            ServerFrame::Busy {
                session: "s1".into(),
                inbox: 8,
                seq: Some(9),
                retry_after_turns: Some(3),
            },
            ServerFrame::Error {
                session: Some("s1".into()),
                seq: Some(2),
                message: "boom".into(),
            },
            ServerFrame::Error {
                session: None,
                seq: None,
                message: "input line 3: bad".into(),
            },
            ServerFrame::Closed {
                session: "s1".into(),
                events: 9,
                checks: 4,
                violated_at: Some(6),
                poisoned: false,
                reaped: true,
            },
        ];
        for f in frames {
            let line = f.render();
            assert_eq!(parse_server_frame(&line).unwrap(), f, "{line}");
        }
    }

    #[test]
    fn open_checks_the_protocol_version() {
        let e = parse_client_frame(r#"{"frame":"open","v":9,"session":"s"}"#).unwrap_err();
        assert!(e.message.contains("unsupported protocol version 9"), "{e}");
        let e = parse_client_frame(r#"{"frame":"open","session":"s"}"#).unwrap_err();
        assert!(e.message.contains("missing integer `v`"), "{e}");
    }

    #[test]
    fn malformed_frames_are_rejected_with_positions() {
        for (bad, needle) in [
            (r#"{"v":1}"#, "missing string `frame`"),
            (r#"{"frame":"zap"}"#, "unknown frame kind `zap`"),
            (r#"{"frame":"feed","session":"s"}"#, "missing `event`"),
            (r#"{"frame":"feed","session":"","event":{}}"#, "non-empty"),
            (r#"{"frame":"close"}"#, "missing string `session`"),
            (
                r#"{"frame":"feed","session":"s","event":{"kind":"zap"}}"#,
                "unknown event kind",
            ),
            (
                r#"{"frame":"feed","session":"s","event":{"kind":"try_commit","tx":3},"seq":0}"#,
                "positive integer",
            ),
            ("not json", "invalid keyword"),
        ] {
            let e = parse_client_frame(bad).unwrap_err();
            assert!(e.message.contains(needle), "{bad}: {e}");
        }
        for (bad, needle) in [
            (r#"{"frame":"warble"}"#, "unknown frame kind"),
            (r#"{"frame":"verdict","session":"s","seq":1}"#, "verdict"),
            (r#"{"frame":"closed","session":"s"}"#, "missing integer"),
        ] {
            let e = parse_server_frame(bad).unwrap_err();
            assert!(e.message.contains(needle), "{bad}: {e}");
        }
    }

    #[test]
    fn server_frames_render_compact_and_stable() {
        assert_eq!(
            ServerFrame::<SessionId>::Verdict {
                session: "s1".into(),
                seq: 7,
                verdict: "violated",
                at: Some(6),
            }
            .render(),
            r#"{"frame":"verdict","session":"s1","seq":7,"verdict":"violated","at":6}"#
        );
        assert_eq!(
            ServerFrame::<SessionId>::Verdict {
                session: "s1".into(),
                seq: 1,
                verdict: "opaque_skip",
                at: None,
            }
            .render(),
            r#"{"frame":"verdict","session":"s1","seq":1,"verdict":"opaque_skip"}"#
        );
        // v1.1 fields stay off the wire when unset, so a `closed` without
        // a reap and a `busy` without a hint render exactly their v1 bytes.
        assert_eq!(
            ServerFrame::<SessionId>::Closed {
                session: "s".into(),
                events: 9,
                checks: 4,
                violated_at: None,
                poisoned: false,
                reaped: false,
            }
            .render(),
            r#"{"frame":"closed","session":"s","events":9,"checks":4,"poisoned":false}"#
        );
        assert_eq!(
            ServerFrame::<SessionId>::Busy {
                session: "s".into(),
                inbox: 8,
                seq: Some(3),
                retry_after_turns: None,
            }
            .render(),
            r#"{"frame":"busy","session":"s","inbox":8,"seq":3}"#
        );
        assert_eq!(
            ServerFrame::<SessionId>::Error {
                session: None,
                seq: None,
                message: "line 3: bad".into(),
            }
            .render(),
            r#"{"frame":"error","message":"line 3: bad"}"#
        );
    }
}
