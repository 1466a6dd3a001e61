//! The compact line-oriented text trace format.
//!
//! One event per line; `#` starts a comment; blank lines are ignored.
//!
//! ```text
//! # Figure 1 (history H1)
//! inv T1 x write 1
//! ret T1 x write ok
//! tryC T1
//! C T1
//! inv T2 x read
//! ret T2 x read 1
//! ```
//!
//! * Transactions are written `T1` (the bare number `1` is also accepted).
//! * Values: integers (`-3`), `ok`, `unit` (also `_` and `⊥`), `true` /
//!   `false`, lists `[1,2,ok]`, pairs `(1,ok)` — all without internal
//!   whitespace, so events tokenize on spaces.
//! * Commit/abort lines: `tryC T1`, `tryA T1`, `C T1`, `A T1`.

use crate::{op_from_str, too_deep, ParseError, MAX_NESTING};
use tm_model::{Event, History, ObjId, TxId, Value};

/// Renders a value in the text format (ASCII-safe, no internal spaces).
fn value_to_text(v: &Value) -> String {
    match v {
        Value::Unit => "unit".to_string(),
        Value::Ok => "ok".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Pair(a, b) => format!("({},{})", value_to_text(a), value_to_text(b)),
        Value::List(vs) => {
            let inner: Vec<String> = vs.iter().map(value_to_text).collect();
            format!("[{}]", inner.join(","))
        }
    }
}

/// Serializes a history to the line-oriented text format.
pub fn to_text(h: &History) -> String {
    let mut out = String::new();
    for e in h.events() {
        match e {
            Event::Inv { tx, obj, op, args } => {
                out.push_str(&format!("inv T{} {} {}", tx.0, obj.name(), op));
                for a in args {
                    out.push(' ');
                    out.push_str(&value_to_text(a));
                }
            }
            Event::Ret { tx, obj, op, val } => {
                out.push_str(&format!(
                    "ret T{} {} {} {}",
                    tx.0,
                    obj.name(),
                    op,
                    value_to_text(val)
                ));
            }
            Event::TryCommit(tx) => out.push_str(&format!("tryC T{}", tx.0)),
            Event::TryAbort(tx) => out.push_str(&format!("tryA T{}", tx.0)),
            Event::Commit(tx) => out.push_str(&format!("C T{}", tx.0)),
            Event::Abort(tx) => out.push_str(&format!("A T{}", tx.0)),
        }
        out.push('\n');
    }
    out
}

/// Parses the line-oriented text format into a [`History`].
///
/// As with the JSON reader, well-formedness is *not* implicitly enforced —
/// fixtures for negative tests are legitimate inputs.
///
/// ```
/// let h = tm_trace::from_text("
///     inv T1 x write 5     # histories can be written by hand
///     ret T1 x write ok
///     tryC T1
///     C T1
/// ").unwrap();
/// assert!(tm_model::is_well_formed(&h));
/// assert_eq!(h.committed_txs().len(), 1);
/// ```
pub fn from_text(s: &str) -> Result<History, ParseError> {
    let mut events = Vec::new();
    for (i, raw) in s.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        events.push(parse_event(&tokens, line_no)?);
    }
    Ok(History::from_events(events))
}

fn parse_event(tokens: &[&str], line: usize) -> Result<Event, ParseError> {
    let kind = tokens[0];
    match kind {
        "inv" => {
            if tokens.len() < 4 {
                return Err(ParseError::at(
                    line,
                    "inv needs: inv <tx> <obj> <op> [args…]",
                ));
            }
            let tx = parse_tx(tokens[1], line)?;
            let obj = ObjId::new(tokens[2]);
            let op = op_from_str(tokens[3]);
            let args = tokens[4..]
                .iter()
                .map(|t| parse_value(t, line))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Event::Inv { tx, obj, op, args })
        }
        "ret" => {
            if tokens.len() != 5 {
                return Err(ParseError::at(line, "ret needs: ret <tx> <obj> <op> <val>"));
            }
            let tx = parse_tx(tokens[1], line)?;
            let obj = ObjId::new(tokens[2]);
            let op = op_from_str(tokens[3]);
            let val = parse_value(tokens[4], line)?;
            Ok(Event::Ret { tx, obj, op, val })
        }
        "tryC" | "tryA" | "C" | "A" => {
            if tokens.len() != 2 {
                return Err(ParseError::at(
                    line,
                    format!("{kind} needs exactly one transaction"),
                ));
            }
            let tx = parse_tx(tokens[1], line)?;
            Ok(match kind {
                "tryC" => Event::TryCommit(tx),
                "tryA" => Event::TryAbort(tx),
                "C" => Event::Commit(tx),
                _ => Event::Abort(tx),
            })
        }
        other => Err(ParseError::at(
            line,
            format!("unknown event kind '{other}' (expected inv/ret/tryC/tryA/C/A)"),
        )),
    }
}

fn parse_tx(token: &str, line: usize) -> Result<TxId, ParseError> {
    let digits = token.strip_prefix('T').unwrap_or(token);
    digits
        .parse::<u32>()
        .map(TxId)
        .map_err(|_| ParseError::at(line, format!("bad transaction id '{token}'")))
}

/// Parses one value token (recursive descent; no internal whitespace).
fn parse_value(token: &str, line: usize) -> Result<Value, ParseError> {
    let (v, rest) = parse_value_inner(token, line, 0)?;
    if !rest.is_empty() {
        return Err(ParseError::at(
            line,
            format!("trailing input '{rest}' after value"),
        ));
    }
    Ok(v)
}

/// Parses the value at the start of `s`, inside `depth` lists and pairs.
fn parse_value_inner(s: &str, line: usize, depth: usize) -> Result<(Value, &str), ParseError> {
    if depth == MAX_NESTING && s.starts_with(['[', '(']) {
        return Err(ParseError::at(line, too_deep()));
    }
    if let Some(rest) = s.strip_prefix('[') {
        let mut items = Vec::new();
        let mut cur = rest;
        if let Some(r) = cur.strip_prefix(']') {
            return Ok((Value::List(items), r));
        }
        loop {
            let (v, r) = parse_value_inner(cur, line, depth + 1)?;
            items.push(v);
            if let Some(r2) = r.strip_prefix(',') {
                cur = r2;
            } else if let Some(r2) = r.strip_prefix(']') {
                return Ok((Value::List(items), r2));
            } else {
                return Err(ParseError::at(
                    line,
                    format!("expected ',' or ']' in list near '{r}'"),
                ));
            }
        }
    }
    if let Some(rest) = s.strip_prefix('(') {
        let (a, r) = parse_value_inner(rest, line, depth + 1)?;
        let r = r
            .strip_prefix(',')
            .ok_or_else(|| ParseError::at(line, format!("expected ',' in pair near '{r}'")))?;
        let (b, r) = parse_value_inner(r, line, depth + 1)?;
        let r = r
            .strip_prefix(')')
            .ok_or_else(|| ParseError::at(line, format!("expected ')' in pair near '{r}'")))?;
        return Ok((Value::pair(a, b), r));
    }
    // Atom: longest prefix up to a delimiter.
    let end = s.find([',', ']', ')']).unwrap_or(s.len());
    let (atom, rest) = s.split_at(end);
    let v = match atom {
        "ok" => Value::Ok,
        "unit" | "_" | "⊥" => Value::Unit,
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        other => Value::Int(
            other
                .parse::<i64>()
                .map_err(|_| ParseError::at(line, format!("bad value atom '{other}'")))?,
        ),
    };
    Ok((v, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::HistoryBuilder;

    #[test]
    fn roundtrip_simple_history() {
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .try_abort(2)
            .abort(2)
            .build();
        let back = from_text(&to_text(&h)).unwrap();
        assert_eq!(back.events(), h.events());
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let src = "\n# a history\ninv T1 x write 5   # the write\nret T1 x write ok\n\n";
        let h = from_text(src).unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn bare_numeric_tx_ids_accepted() {
        let h = from_text("tryC 3\nC 3\n").unwrap();
        assert_eq!(h.events()[0], Event::TryCommit(TxId(3)));
    }

    #[test]
    fn nested_values_roundtrip() {
        for src in ["[1,2,ok]", "(1,ok)", "[(1,true),[],unit]", "[]"] {
            let v = parse_value(src, 1).unwrap();
            assert_eq!(value_to_text(&v), src);
            let again = parse_value(&value_to_text(&v), 1).unwrap();
            assert_eq!(again, v);
        }
    }

    #[test]
    fn nesting_is_accepted_up_to_the_limit_and_a_positioned_error_past_it() {
        let list = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let v = parse_value(&list(MAX_NESTING), 1).unwrap();
        assert_eq!(value_to_text(&v), list(MAX_NESTING));
        let pairs = format!("{}1{}", "(1,".repeat(MAX_NESTING), ")".repeat(MAX_NESTING));
        assert!(parse_value(&pairs, 1).is_ok());
        let too_deep = ParseError {
            line: 2,
            message: format!("nesting deeper than {MAX_NESTING} levels"),
        };
        for deep in [
            list(MAX_NESTING + 1),
            format!("(1,{pairs})"),
            "[".repeat(200_000),
        ] {
            let src = format!("inv T1 x write 1\nret T1 x write {deep}\n");
            assert_eq!(from_text(&src), Err(too_deep.clone()));
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = from_text("inv T1 x write 1\nret T1 x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("ret needs"));
        let e = from_text("boom T1\n").unwrap_err();
        assert!(e.message.contains("unknown event kind"));
        let e = from_text("inv Tx x read\n").unwrap_err();
        assert!(e.message.contains("bad transaction id"));
        let e = from_text("ret T1 x read 1]\n").unwrap_err();
        assert!(e.message.contains("trailing input"));
    }

    #[test]
    fn unicode_bottom_is_accepted_on_input() {
        let h = from_text("ret T1 q deq ⊥\n").unwrap();
        match &h.events()[0] {
            Event::Ret { val, .. } => assert_eq!(*val, Value::Unit),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn figure1_fixture_parses_and_checks() {
        // The paper's H1 as a text fixture — parsable and well-formed.
        let src = "\
# Figure 1 (H1): global atomicity + recoverability hold, opacity fails
inv T1 x write 1\nret T1 x write ok\ntryC T1\nC T1
inv T2 x read\nret T2 x read 1
inv T3 x write 2\nret T3 x write ok
inv T3 y write 2\nret T3 y write ok\ntryC T3\nC T3
inv T2 y read\nret T2 y read 2\ntryC T2\nA T2\n";
        let h = from_text(src).unwrap();
        assert!(tm_model::is_well_formed(&h));
        assert_eq!(h.committed_txs().len(), 2);
    }
}
