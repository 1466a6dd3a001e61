//! # tm-trace — history interchange formats
//!
//! The checkers in `tm-opacity` operate on in-memory [`tm_model::History`]
//! values. For a checker to be *usable* — against traces recorded by other
//! TM implementations, in CI pipelines, or from the `tmcheck` command-line
//! tool — histories need a durable surface syntax. This crate provides two:
//!
//! * **JSON** ([`json`]) — a versioned, self-describing format for
//!   machine-to-machine interchange:
//!
//!   ```json
//!   { "version": 1,
//!     "events": [
//!       { "kind": "inv", "tx": 1, "obj": "x", "op": "write", "args": [{"int": 1}] },
//!       { "kind": "ret", "tx": 1, "obj": "x", "op": "write", "val": "ok" },
//!       { "kind": "try_commit", "tx": 1 },
//!       { "kind": "commit", "tx": 1 } ] }
//!   ```
//!
//! * **text** ([`text`]) — a compact line-oriented format for hand-written
//!   histories and test fixtures, one event per line, `#` comments:
//!
//!   ```text
//!   # Figure 1 of the paper
//!   inv  T1 x write 1
//!   ret  T1 x write ok
//!   tryC T1
//!   C    T1
//!   ```
//!
//! Both formats round-trip losslessly through [`tm_model::History`]
//! (property-tested against the random history generator), and both reject
//! malformed input with positioned errors rather than panics.
//!
//! A third, write-only surface ([`spans`]) renders `tm-obs` span records
//! as Chrome Trace Event JSON (`chrome://tracing` / Perfetto) — the
//! `tmcheck … --trace-out` artifact.
//!
//! Dependency note: the JSON surface is a hand-rolled single-pass codec
//! (see [`json`]: a pull lexer that decoders read typed values from
//! directly, and writers that append to a caller's `String`) rather than
//! `serde`/`serde_json` — the build environment is offline and the schema
//! is small. The same codec carries the `tm-serve` wire frames and journal
//! records. The wire format keeps serde's tagging conventions, so traces
//! remain interchangeable with serde-derived readers and the dependency can
//! be reinstated without a format change.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod spans;
pub mod text;

use std::fmt;
use std::sync::Arc;

use tm_model::OpName;

pub use json::{event_from_doc, from_json, to_json, to_json_pretty, Json};
pub use spans::{chrome_trace_json, TRACE_SCHEMA_VERSION};
pub use text::{from_text, to_text};

/// The deepest nesting either decoder accepts: JSON arrays and objects in
/// the JSON codec, list and pair values in the text format. Both decoders
/// recurse once per level, so the limit bounds their stack use; deeper
/// input is a positioned [`ParseError`], not a stack overflow.
pub const MAX_NESTING: usize = 128;

/// The message of a [`ParseError`] for input nested past [`MAX_NESTING`].
fn too_deep() -> String {
    format!("nesting deeper than {MAX_NESTING} levels")
}

/// An error produced while parsing a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 when the format has no line structure, e.g.
    /// a JSON syntax error reported by the underlying parser).
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ParseError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses an operation name; unknown names become [`OpName::Custom`].
pub fn op_from_str(s: &str) -> OpName {
    match s {
        "read" => OpName::Read,
        "write" => OpName::Write,
        "inc" => OpName::Inc,
        "dec" => OpName::Dec,
        "get" => OpName::Get,
        "enq" => OpName::Enq,
        "deq" => OpName::Deq,
        "push" => OpName::Push,
        "pop" => OpName::Pop,
        "insert" => OpName::Insert,
        "remove" => OpName::Remove,
        "contains" => OpName::Contains,
        "cas" => OpName::Cas,
        "append" => OpName::Append,
        other => OpName::Custom(Arc::from(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names_roundtrip_through_display() {
        for name in [
            "read",
            "write",
            "inc",
            "dec",
            "get",
            "enq",
            "deq",
            "push",
            "pop",
            "insert",
            "remove",
            "contains",
            "cas",
            "append",
            "frobnicate",
        ] {
            assert_eq!(op_from_str(name).to_string(), name);
        }
    }

    #[test]
    fn parse_error_display() {
        assert_eq!(ParseError::at(3, "bad").to_string(), "line 3: bad");
        assert_eq!(ParseError::at(0, "syntax").to_string(), "syntax");
    }
}
