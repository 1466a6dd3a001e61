//! The versioned JSON trace format, and the JSON codec every wire surface
//! of the workspace shares.
//!
//! The build environment vendors no `serde`/`serde_json`, so the codec is
//! hand-rolled, in one pass each way:
//!
//! * **Reading.** A [`Lexer`] walks a `&str` once and hands out
//!   [`Token`]s; strings come back as slices of the input, allocated only
//!   when they contain escapes. Decoders built on it ([`from_json`] here,
//!   the `tm-serve` frame and journal decoders) read a document straight
//!   into its typed form, with no document tree in between. [`Json::parse`]
//!   is built on the same lexer, so the workspace has one JSON grammar.
//! * **Writing.** [`ObjectWriter`] appends compact JSON
//!   straight into a caller-owned `String`.
//!
//! ## Errors
//!
//! Every decoder reports exactly the [`ParseError`] a parse into a [`Json`]
//! tree followed by a walk of that tree would: a syntax error anywhere in
//! the document wins (the decoders finish the syntax scan before reporting
//! a schema error), repeated keys keep their first occurrence (as
//! [`Json::get`] does), and schema errors are checked in a fixed field
//! order, whatever order the fields arrive in. Decoders therefore return
//! `Result<Schema<T>, ParseError>`: the outer error is a syntax error,
//! reported at once; the inner [`Schema`] result is held until the
//! document is known to be well-formed.
//!
//! ## Wire format
//!
//! The format follows the serde conventions the schema was designed with:
//! externally tagged values (`"unit"`, `{"int": 5}`) and internally tagged
//! events (`{"kind": "inv", ...}`), so traces are interchangeable with a
//! serde-derived reader.

use std::borrow::Cow;

use crate::{op_from_str, too_deep, ParseError, MAX_NESTING};
use tm_model::{Event, History, ObjId, TxId, Value};

/// The format version emitted by [`to_json`].
pub const FORMAT_VERSION: u32 = 1;

/// The outcome of a schema check, held back until the syntax scan of the
/// whole document has succeeded (see the module docs).
pub type Schema<T> = Result<T, ParseError>;

// ---------------------------------------------------------------------------
// The lexer.

/// One token of a JSON document, as [`Lexer::token`] reads it.
#[derive(Clone, Debug, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the only number shape the trace formats use).
    Int(i64),
    /// A string: borrowed from the input unless it contains escapes.
    Str(Cow<'a, str>),
    /// An object was opened; read its fields with [`Lexer::next_key`].
    /// Carries the 1-based line of the opening brace.
    Obj(usize),
    /// An array was opened; read its items with [`Lexer::next_item`].
    Arr,
}

/// A value read by [`Lexer::scalar`]: the shapes a flat schema field can
/// take. Containers and `null` are syntax-checked, skipped, and reported
/// as [`Scalar::Other`].
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar<'a> {
    /// A string.
    Str(Cow<'a, str>),
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// `null`, an array, or an object.
    Other,
}

/// A single-pass JSON pull lexer over a `&str`, tracking the current line
/// for error reporting (1-based, as [`ParseError`] documents).
///
/// Protocol: [`token`](Lexer::token) reads one value; when it opens a
/// container, loop on [`next_key`](Lexer::next_key) (then read exactly one
/// value per key) or [`next_item`](Lexer::next_item) (then read exactly
/// one value per `true`) until they report the closing bracket.
/// [`finish`](Lexer::finish) rejects trailing input.
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    /// A container was just opened: the next `next_key`/`next_item` reads
    /// no separator. One flag suffices — closing a container always lands
    /// inside a parent whose first member has been read.
    fresh: bool,
    /// Containers open around the current position (≤ [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            fresh: false,
            depth: 0,
        }
    }

    #[cold]
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    /// Consumes `want` after optional whitespace.
    fn eat(&mut self, want: u8) -> Result<(), ParseError> {
        self.skip_ws();
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(self.err(format!(
                "expected `{}`, found `{}`",
                want as char, b as char
            ))),
            None => Err(self.err(format!("expected `{}`, found end of input", want as char))),
        }
    }

    /// Reads the next value's token: scalars whole, containers opened.
    pub fn token(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.open()?;
                Ok(Token::Obj(self.line))
            }
            Some(b'[') => {
                self.open()?;
                Ok(Token::Arr)
            }
            Some(b'"') => Ok(Token::Str(self.string()?)),
            Some(b't' | b'f' | b'n') => self.keyword(),
            Some(b'-' | b'0'..=b'9') => Ok(Token::Int(self.number()?)),
            Some(b) => Err(self.err(format!("unexpected character `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Consumes the bracket that opens a container, rejecting nesting
    /// deeper than [`MAX_NESTING`]: every decoder recurses once per level.
    fn open(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(too_deep()));
        }
        self.bump();
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Leaves the innermost container; its closing bracket was consumed.
    fn close(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// The next key of the innermost open object, with its `:` consumed
    /// (the caller reads the value next); `None` once the object closes.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        self.skip_ws();
        if std::mem::take(&mut self.fresh) {
            if self.peek() == Some(b'}') {
                self.bump();
                self.close();
                return Ok(None);
            }
        } else {
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                Some(b) => {
                    return Err(self.err(format!(
                        "expected `,` or `}}` in object, found `{}`",
                        b as char
                    )))
                }
                None => return Err(self.err("unterminated object")),
            }
        }
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string object key"));
        }
        let key = self.string()?;
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// Whether the innermost open array has another item (the caller reads
    /// it next); `false` once the array closes.
    pub fn next_item(&mut self) -> Result<bool, ParseError> {
        self.skip_ws();
        if std::mem::take(&mut self.fresh) {
            if self.peek() == Some(b']') {
                self.bump();
                self.close();
                return Ok(false);
            }
            return Ok(true);
        }
        match self.bump() {
            Some(b',') => Ok(true),
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(b) => Err(self.err(format!(
                "expected `,` or `]` in array, found `{}`",
                b as char
            ))),
            None => Err(self.err("unterminated array")),
        }
    }

    /// Syntax-checks and skips the rest of the container `token` opened
    /// (nothing to do for scalars).
    pub fn drain(&mut self, token: &Token<'a>) -> Result<(), ParseError> {
        match token {
            Token::Obj(_) => {
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Token::Arr => {
                while self.next_item()? {
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Syntax-checks and skips one whole value.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        let token = self.token()?;
        self.drain(&token)
    }

    /// Reads one whole value as a [`Scalar`].
    pub fn scalar(&mut self) -> Result<Scalar<'a>, ParseError> {
        Ok(match self.token()? {
            Token::Str(s) => Scalar::Str(s),
            Token::Int(i) => Scalar::Int(i),
            Token::Bool(b) => Scalar::Bool(b),
            Token::Null => Scalar::Other,
            container => {
                self.drain(&container)?;
                Scalar::Other
            }
        })
    }

    /// Ends the document: only whitespace may follow.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek().is_some() {
            return Err(self.err("trailing characters after JSON document"));
        }
        Ok(())
    }

    /// Reads a string literal; the caller has peeked its opening quote.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.pos += 1;
        let start = self.pos;
        // Fast path: no escapes, so the string is a slice of the input.
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = self.slice(start)?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                b'\\' => break,
                b'\n' => self.line += 1,
                _ => {}
            }
            self.pos += 1;
        }
        let mut out = self.slice(start)?.as_bytes().to_vec();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0C),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        let c = match code {
                            // High surrogate: a low surrogate must follow
                            // (the JSON encoding of astral-plane chars).
                            0xD800..=0xDBFF => {
                                if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                    return Err(self.err("unpaired high surrogate in \\u escape"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(self.err("invalid low surrogate in \\u escape"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            }
                            0xDC00..=0xDFFF => {
                                return Err(self.err("unpaired low surrogate in \\u escape"))
                            }
                            c => char::from_u32(c).ok_or_else(|| self.err("invalid \\u escape"))?,
                        };
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    Some(b) => return Err(self.err(format!("invalid escape `\\{}`", b as char))),
                    None => return Err(self.err("unterminated string escape")),
                },
                Some(b) => out.push(b),
            }
        }
        String::from_utf8(out)
            .map(Cow::Owned)
            .map_err(|_| self.err("invalid UTF-8 in string"))
    }

    /// The input from `start` to the current position. Both ends sit next
    /// to an ASCII byte, so the slice is always on character boundaries.
    fn slice(&self, start: usize) -> Result<&'a str, ParseError> {
        self.src
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid UTF-8 in string"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn keyword(&mut self) -> Result<Token<'a>, ParseError> {
        for (word, token) in [
            ("true", Token::Bool(true)),
            ("false", Token::Bool(false)),
            ("null", Token::Null),
        ] {
            if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(token);
            }
        }
        Err(self.err("invalid keyword (expected true/false/null)"))
    }

    fn number(&mut self) -> Result<i64, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("non-integer numbers are not used by the trace format"));
        }
        let text = self.src.get(start..self.pos).unwrap_or_default();
        text.parse::<i64>()
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

// ---------------------------------------------------------------------------
// Writers.

/// Appends `s` as a JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0..=0x1F => "", // the other control bytes: `\u00XX` below
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` is on character boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xF)]));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends `v` in decimal.
pub fn write_int(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut n = v.unsigned_abs();
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    // Decimal digits are ASCII, so the conversion cannot fail.
    out.push_str(std::str::from_utf8(&digits[i..]).unwrap_or_default());
}

/// Appends one compact JSON object to a `String`, field by field, in call
/// order. Keys are written verbatim, so they must need no escaping (every
/// schema key in the workspace is a plain identifier).
pub struct ObjectWriter<'o> {
    out: &'o mut String,
    first: bool,
}

impl<'o> ObjectWriter<'o> {
    /// Starts an object at the end of `out`.
    pub fn open(out: &'o mut String) -> Self {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    /// Writes `key` and its colon; the caller appends the value to the
    /// returned buffer.
    pub fn field(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// A string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_str(self.field(key), value);
        self
    }

    /// An integer field.
    pub fn int(&mut self, key: &str, value: i64) -> &mut Self {
        write_int(self.field(key), value);
        self
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.field(key)
            .push_str(if value { "true" } else { "false" });
        self
    }

    /// An event field, in the trace's `events`-array element shape.
    pub fn event(&mut self, key: &str, event: &Event) -> &mut Self {
        write_event(self.field(key), event);
        self
    }

    /// Ends the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Appends an event in its wire shape — the element shape of the trace's
/// `events` array, also carried by `tm-serve/v1` `feed` frames (e.g.
/// `{"kind":"inv","tx":1,"obj":"x","op":"read"}`; `args` is omitted when
/// empty).
fn write_event(out: &mut String, e: &Event) {
    let mut o = ObjectWriter::open(out);
    match e {
        Event::Inv { tx, obj, op, args } => {
            o.str("kind", "inv")
                .int("tx", i64::from(tx.0))
                .str("obj", obj.name())
                .str("op", op.as_str());
            if !args.is_empty() {
                write_values(o.field("args"), args);
            }
        }
        Event::Ret { tx, obj, op, val } => {
            o.str("kind", "ret")
                .int("tx", i64::from(tx.0))
                .str("obj", obj.name())
                .str("op", op.as_str());
            write_value(o.field("val"), val);
        }
        Event::TryCommit(tx) => {
            o.str("kind", "try_commit").int("tx", i64::from(tx.0));
        }
        Event::TryAbort(tx) => {
            o.str("kind", "try_abort").int("tx", i64::from(tx.0));
        }
        Event::Commit(tx) => {
            o.str("kind", "commit").int("tx", i64::from(tx.0));
        }
        Event::Abort(tx) => {
            o.str("kind", "abort").int("tx", i64::from(tx.0));
        }
    }
    o.close();
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Unit => out.push_str("\"unit\""),
        Value::Ok => out.push_str("\"ok\""),
        Value::Int(i) => {
            out.push_str("{\"int\":");
            write_int(out, *i);
            out.push('}');
        }
        Value::Bool(b) => out.push_str(if *b {
            "{\"bool\":true}"
        } else {
            "{\"bool\":false}"
        }),
        Value::Pair(a, b) => {
            out.push_str("{\"pair\":[");
            write_value(out, a);
            out.push(',');
            write_value(out, b);
            out.push_str("]}");
        }
        Value::List(vs) => {
            out.push_str("{\"list\":");
            write_values(out, vs);
            out.push('}');
        }
    }
}

fn write_values(out: &mut String, vs: &[Value]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_value(out, v);
    }
    out.push(']');
}

/// Re-indents compact JSON (as the writers above produce it) two spaces
/// per level: `"key": value`, one member per line, empty containers kept
/// as `{}`/`[]`.
fn indent(compact: &str, out: &mut String) {
    fn newline(out: &mut String, depth: usize) {
        out.push('\n');
        for _ in 0..2 * depth {
            out.push(' ');
        }
    }
    let mut depth = 0usize;
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                out.push('"');
                while let Some(c) = chars.next() {
                    out.push(c);
                    match c {
                        '\\' => out.extend(chars.next()),
                        '"' => break,
                        _ => {}
                    }
                }
            }
            '{' | '[' => {
                out.push(c);
                let close = if c == '{' { '}' } else { ']' };
                if chars.peek() == Some(&close) {
                    out.extend(chars.next());
                } else {
                    depth += 1;
                    newline(out, depth);
                }
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(out, depth);
                out.push(c);
            }
            ',' => {
                out.push(',');
                newline(out, depth);
            }
            ':' => out.push_str(": "),
            c => out.push(c),
        }
    }
}

// ---------------------------------------------------------------------------
// The JSON document model.
//
// Kept for callers that want a whole document (tests, and perfbench's
// trace-layer replay); the trace, frame and journal codecs do not build it.

/// A parsed JSON document node. Numbers are restricted to `i64`: every
/// number in the trace schema (versions, transaction ids, integer values)
/// fits, and anything else is a schema violation anyway.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the only number shape the trace formats use).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's fields in source order, plus the 1-based source line of
    /// the opening brace so schema errors can point at the offending node
    /// (0 when built by a serializer, which never reports errors).
    Obj(usize, Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object node (`None` for other node shapes and
    /// missing keys).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(_, fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Source line of this node, when known (objects only).
    pub fn line(&self) -> usize {
        match self {
            Json::Obj(line, _) => *line,
            _ => 0,
        }
    }

    /// Parses one JSON document (rejecting trailing input), tracking source
    /// lines for [`ParseError`] positions.
    pub fn parse(s: &str) -> Result<Json, ParseError> {
        let mut lx = Lexer::new(s);
        let doc = Json::read(&mut lx)?;
        lx.finish()?;
        Ok(doc)
    }

    fn read(lx: &mut Lexer<'_>) -> Result<Json, ParseError> {
        Ok(match lx.token()? {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Int(i) => Json::Int(i),
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::Arr => {
                let mut items = Vec::new();
                while lx.next_item()? {
                    items.push(Json::read(lx)?);
                }
                Json::Arr(items)
            }
            Token::Obj(line) => {
                let mut fields = Vec::new();
                while let Some(key) = lx.next_key()? {
                    fields.push((key.into_owned(), Json::read(lx)?));
                }
                Json::Obj(line, fields)
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Decoders.

fn value_err(line: usize, msg: &str) -> ParseError {
    ParseError {
        line,
        message: format!("invalid value: {msg}"),
    }
}

/// Reads one tagged value.
fn read_value(lx: &mut Lexer<'_>) -> Result<Schema<Value>, ParseError> {
    match lx.token()? {
        Token::Str(tag) => Ok(match &*tag {
            "unit" => Ok(Value::Unit),
            "ok" => Ok(Value::Ok),
            other => Err(value_err(0, &format!("unknown value tag `{other}`"))),
        }),
        Token::Obj(line) => {
            let mut fields = 0;
            let mut value = None;
            while let Some(tag) = lx.next_key()? {
                fields += 1;
                if fields == 1 {
                    value = Some(read_tagged(lx, &tag, line)?);
                } else {
                    lx.skip()?;
                }
            }
            Ok(match value {
                Some(value) if fields == 1 => value,
                _ => Err(value_err(line, "expected exactly one tag field")),
            })
        }
        other => {
            lx.drain(&other)?;
            Ok(Err(value_err(
                0,
                "expected a string tag or a tagged object",
            )))
        }
    }
}

/// Reads the body of the one field of a tagged-value object at `line`.
fn read_tagged(lx: &mut Lexer<'_>, tag: &str, line: usize) -> Result<Schema<Value>, ParseError> {
    match (tag, lx.token()?) {
        ("int", Token::Int(i)) => Ok(Ok(Value::Int(i))),
        ("bool", Token::Bool(b)) => Ok(Ok(Value::Bool(b))),
        ("pair", Token::Arr) => {
            let (items, count) = read_items(lx, read_value)?;
            let arity = || value_err(line, "`pair` requires exactly two elements");
            Ok(match items {
                _ if count != 2 => Err(arity()),
                Ok(items) => <[Value; 2]>::try_from(items)
                    .map(|[a, b]| Value::pair(a, b))
                    .map_err(|_| arity()),
                Err(e) => Err(e),
            })
        }
        ("list", Token::Arr) => Ok(read_items(lx, read_value)?.0.map(Value::List)),
        (_, other) => {
            lx.drain(&other)?;
            Ok(Err(value_err(line, &format!("unknown value tag `{tag}`"))))
        }
    }
}

/// Reads the items of an opened array with `read`: the items (or the first
/// item's schema error, after which items are only syntax-checked) and
/// the item count.
fn read_items<T>(
    lx: &mut Lexer<'_>,
    read: fn(&mut Lexer<'_>) -> Result<Schema<T>, ParseError>,
) -> Result<(Schema<Vec<T>>, usize), ParseError> {
    let mut items = Ok(Vec::new());
    let mut count = 0;
    while lx.next_item()? {
        count += 1;
        match &mut items {
            Ok(done) => match read(lx)? {
                Ok(item) => done.push(item),
                Err(e) => items = Err(e),
            },
            Err(_) => lx.skip()?,
        }
    }
    Ok((items, count))
}

/// An event object's fields, first occurrence of each.
#[derive(Default)]
struct EventFields<'a> {
    kind: Option<Scalar<'a>>,
    tx: Option<Scalar<'a>>,
    obj: Option<Scalar<'a>>,
    op: Option<Scalar<'a>>,
    args: Option<Schema<Vec<Value>>>,
    val: Option<Schema<Value>>,
}

/// Reads one event in its wire shape (as [`ObjectWriter::event`] writes
/// it) — the decoder behind [`from_json`] and the `tm-serve` frame and
/// journal decoders.
pub fn read_event(lx: &mut Lexer<'_>) -> Result<Schema<Event>, ParseError> {
    let token = lx.token()?;
    let Token::Obj(line) = token else {
        lx.drain(&token)?;
        return Ok(Err(event_err(0, "missing string `kind` field".into())));
    };
    let mut f = EventFields::default();
    while let Some(key) = lx.next_key()? {
        match &*key {
            "kind" if f.kind.is_none() => f.kind = Some(lx.scalar()?),
            "tx" if f.tx.is_none() => f.tx = Some(lx.scalar()?),
            "obj" if f.obj.is_none() => f.obj = Some(lx.scalar()?),
            "op" if f.op.is_none() => f.op = Some(lx.scalar()?),
            "args" if f.args.is_none() => {
                f.args = Some(match lx.token()? {
                    Token::Arr => read_items(lx, read_value)?.0,
                    other => {
                        lx.drain(&other)?;
                        Err(event_err(line, "`args` must be an array".into()))
                    }
                })
            }
            "val" if f.val.is_none() => f.val = Some(read_value(lx)?),
            _ => lx.skip()?,
        }
    }
    Ok(f.build(line))
}

fn event_err(line: usize, msg: String) -> ParseError {
    ParseError {
        line,
        message: format!("invalid event: {msg}"),
    }
}

impl EventFields<'_> {
    /// The schema check, in the order the format has always applied it:
    /// `kind`, then (for `inv`) `args`, then `tx`, `obj`, `op`, and (for
    /// `ret`) `val`.
    fn build(self, line: usize) -> Schema<Event> {
        let err = |msg: String| event_err(line, msg);
        let EventFields {
            kind,
            tx,
            obj,
            op,
            args,
            val,
        } = self;
        let Some(Scalar::Str(kind)) = kind else {
            return Err(err("missing string `kind` field".into()));
        };
        let tx = || match tx {
            Some(Scalar::Int(i)) => u32::try_from(i)
                .map(TxId)
                .map_err(|_| err(format!("transaction id {i} out of range"))),
            _ => Err(err("missing integer `tx` field".into())),
        };
        match &*kind {
            "inv" => {
                let args = args.unwrap_or(Ok(Vec::new()))?;
                let tx = tx()?;
                Ok(Event::Inv {
                    tx,
                    obj: ObjId::new(name(&obj, "obj", line)?),
                    op: op_from_str(name(&op, "op", line)?),
                    args,
                })
            }
            "ret" => {
                let tx = tx()?;
                let obj = ObjId::new(name(&obj, "obj", line)?);
                let op = op_from_str(name(&op, "op", line)?);
                let val = val.unwrap_or_else(|| Err(err("missing `val` field".into())))?;
                Ok(Event::Ret { tx, obj, op, val })
            }
            "try_commit" => Ok(Event::TryCommit(tx()?)),
            "try_abort" => Ok(Event::TryAbort(tx()?)),
            "commit" => Ok(Event::Commit(tx()?)),
            "abort" => Ok(Event::Abort(tx()?)),
            other => Err(err(format!("unknown event kind `{other}`"))),
        }
    }
}

/// An event's string field, or the schema error for its absence.
fn name<'s>(field: &'s Option<Scalar<'_>>, key: &str, line: usize) -> Schema<&'s str> {
    match field {
        Some(Scalar::Str(s)) => Ok(s),
        _ => Err(event_err(line, format!("missing string `{key}` field"))),
    }
}

/// Parses one model [`Event`] from its wire-format document node.
pub fn event_from_doc(doc: &Json) -> Result<Event, ParseError> {
    let line = doc.line();
    let scalar = |key: &str| {
        doc.get(key).map(|v| match v {
            Json::Str(s) => Scalar::Str(Cow::Borrowed(s.as_str())),
            Json::Int(i) => Scalar::Int(*i),
            Json::Bool(b) => Scalar::Bool(*b),
            _ => Scalar::Other,
        })
    };
    EventFields {
        kind: scalar("kind"),
        tx: scalar("tx"),
        obj: scalar("obj"),
        op: scalar("op"),
        args: doc.get("args").map(|args| match args {
            Json::Arr(items) => items.iter().map(value_from_doc).collect(),
            _ => Err(event_err(line, "`args` must be an array".into())),
        }),
        val: doc.get("val").map(value_from_doc),
    }
    .build(line)
}

fn value_from_doc(doc: &Json) -> Schema<Value> {
    match doc {
        Json::Str(s) => match s.as_str() {
            "unit" => Ok(Value::Unit),
            "ok" => Ok(Value::Ok),
            other => Err(value_err(0, &format!("unknown value tag `{other}`"))),
        },
        Json::Obj(line, fields) => {
            let [(tag, body)] = fields.as_slice() else {
                return Err(value_err(*line, "expected exactly one tag field"));
            };
            match (tag.as_str(), body) {
                ("int", Json::Int(i)) => Ok(Value::Int(*i)),
                ("bool", Json::Bool(b)) => Ok(Value::Bool(*b)),
                ("pair", Json::Arr(items)) => match items.as_slice() {
                    [a, b] => Ok(Value::pair(value_from_doc(a)?, value_from_doc(b)?)),
                    _ => Err(value_err(*line, "`pair` requires exactly two elements")),
                },
                ("list", Json::Arr(items)) => items
                    .iter()
                    .map(value_from_doc)
                    .collect::<Schema<_>>()
                    .map(Value::List),
                (other, _) => Err(value_err(*line, &format!("unknown value tag `{other}`"))),
            }
        }
        _ => Err(value_err(0, "expected a string tag or a tagged object")),
    }
}

// ---------------------------------------------------------------------------
// Trace documents.

/// Serializes a history to the compact JSON trace format.
///
/// ```
/// use tm_model::HistoryBuilder;
/// use tm_trace::{to_json, from_json};
///
/// let h = HistoryBuilder::new().write(1, "x", 1).commit_ok(1).build();
/// let encoded = to_json(&h);
/// assert!(encoded.contains("\"version\":1"));
/// assert_eq!(from_json(&encoded).unwrap().events(), h.events());
/// ```
pub fn to_json(h: &History) -> String {
    let mut out = String::new();
    write_trace(&mut out, h);
    out
}

/// Serializes a history to human-indented JSON.
pub fn to_json_pretty(h: &History) -> String {
    let mut out = String::new();
    indent(&to_json(h), &mut out);
    out
}

fn write_trace(out: &mut String, h: &History) {
    let mut o = ObjectWriter::open(out);
    o.int("version", i64::from(FORMAT_VERSION));
    let events = o.field("events");
    events.push('[');
    for (i, e) in h.events().iter().enumerate() {
        if i > 0 {
            events.push(',');
        }
        write_event(events, e);
    }
    events.push(']');
    o.close();
}

fn read_events(lx: &mut Lexer<'_>, line: usize) -> Result<Schema<Vec<Event>>, ParseError> {
    Ok(match lx.token()? {
        Token::Arr => read_items(lx, read_event)?.0,
        other => {
            lx.drain(&other)?;
            Err(trace_err(line, "missing `events` array"))
        }
    })
}

fn trace_err(line: usize, msg: &str) -> ParseError {
    ParseError {
        line,
        message: format!("invalid trace: {msg}"),
    }
}

/// Parses a JSON trace back into a [`History`].
///
/// Rejects unknown format versions and JSON that does not match the schema.
/// The resulting history is *not* implicitly validated for well-formedness —
/// callers that require it (the checkers do) run
/// [`tm_model::check_well_formed`] themselves, which keeps this crate usable
/// for deliberately ill-formed fixtures.
pub fn from_json(s: &str) -> Result<History, ParseError> {
    let mut lx = Lexer::new(s);
    let mut version = None;
    let mut events = None;
    let token = lx.token()?;
    let line = match token {
        Token::Obj(line) => {
            while let Some(key) = lx.next_key()? {
                match &*key {
                    "version" if version.is_none() => version = Some(lx.scalar()?),
                    "events" if events.is_none() => events = Some(read_events(&mut lx, line)?),
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
    let version = match version {
        Some(Scalar::Int(i)) => {
            u32::try_from(i).map_err(|_| trace_err(line, "version out of range"))?
        }
        _ => return Err(trace_err(line, "missing integer `version` field")),
    };
    let events = events.unwrap_or_else(|| Err(trace_err(line, "missing `events` array")))?;
    if version != FORMAT_VERSION {
        return Err(ParseError {
            line: 0,
            message: format!(
                "unsupported trace version {version} (this build reads version {FORMAT_VERSION})"
            ),
        });
    }
    Ok(History::from_events(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::HistoryBuilder;

    fn sample() -> History {
        HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .try_commit(2)
            .abort(2)
            .build()
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let h = sample();
        for s in [to_json(&h), to_json_pretty(&h)] {
            let back = from_json(&s).unwrap();
            assert_eq!(back.events(), h.events());
        }
    }

    #[test]
    fn version_is_checked() {
        let s = to_json(&sample()).replace("\"version\":1", "\"version\":99");
        let e = from_json(&s).unwrap_err();
        assert!(e.message.contains("unsupported trace version 99"), "{e}");
    }

    #[test]
    fn nesting_is_accepted_up_to_the_limit_and_a_positioned_error_past_it() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_NESTING)).is_ok());
        // An unknown event field is skipped; the document, the events
        // array and the event take three of the levels.
        let trace = |n: usize| {
            format!(
                "{{\"version\": 1, \"events\": [\n{{\"kind\": \"try_commit\", \"tx\": 1, \"pad\": {}}}]}}",
                nested(n)
            )
        };
        let h = from_json(&trace(MAX_NESTING - 3)).unwrap();
        assert_eq!(h.events(), [Event::TryCommit(TxId(1))]);
        let too_deep = ParseError {
            line: 2,
            message: format!("nesting deeper than {MAX_NESTING} levels"),
        };
        assert_eq!(from_json(&trace(MAX_NESTING - 2)), Err(too_deep.clone()));
        // Far past the limit, and never closed: the same error, with the
        // stack untouched.
        let unclosed = format!("\n{}", "[".repeat(200_000));
        assert_eq!(Json::parse(&unclosed), Err(too_deep));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let e = from_json("{\n  \"version\": 1,\n  events: []\n}").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn all_value_shapes_roundtrip() {
        let vals = [
            Value::Unit,
            Value::Ok,
            Value::int(-7),
            Value::Bool(true),
            Value::pair(Value::int(1), Value::Ok),
            Value::List(vec![Value::int(1), Value::Bool(false), Value::Unit]),
        ];
        for v in vals {
            let mut out = String::new();
            write_value(&mut out, &v);
            let mut lx = Lexer::new(&out);
            let back = read_value(&mut lx).unwrap().unwrap();
            lx.finish().unwrap();
            assert_eq!(back, v, "{out}");
            assert_eq!(value_from_doc(&Json::parse(&out).unwrap()).unwrap(), v);
        }
    }

    #[test]
    fn custom_ops_survive() {
        let h = History::from_events(vec![
            Event::Inv {
                tx: TxId(1),
                obj: ObjId::new("widget"),
                op: op_from_str("frobnicate"),
                args: vec![Value::int(3)],
            },
            Event::Ret {
                tx: TxId(1),
                obj: ObjId::new("widget"),
                op: op_from_str("frobnicate"),
                val: Value::Bool(true),
            },
        ]);
        let back = from_json(&to_json(&h)).unwrap();
        assert_eq!(back.events(), h.events());
    }

    #[test]
    fn empty_history_roundtrips() {
        let h = History::new();
        assert_eq!(from_json(&to_json(&h)).unwrap().events(), h.events());
        assert_eq!(
            to_json_pretty(&h),
            "{\n  \"version\": 1,\n  \"events\": []\n}"
        );
    }

    #[test]
    fn args_field_is_optional() {
        let s = r#"{"version":1,"events":[
            {"kind":"inv","tx":1,"obj":"x","op":"read"},
            {"kind":"ret","tx":1,"obj":"x","op":"read","val":{"int":0}}
        ]}"#;
        let h = from_json(s).unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn escaped_strings_roundtrip() {
        let h = History::from_events(vec![Event::Inv {
            tx: TxId(1),
            obj: ObjId::new("a\"b\\c\nd\u{1}é"),
            op: op_from_str("read"),
            args: vec![],
        }]);
        let json = to_json(&h);
        assert!(json.contains(r#""a\"b\\c\nd\u0001é""#), "{json}");
        let back = from_json(&json).unwrap();
        assert_eq!(back.events(), h.events());
        let back = from_json(&to_json_pretty(&h)).unwrap();
        assert_eq!(back.events(), h.events());
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut lx = Lexer::new(r#"["plain","esc\naped"]"#);
        assert_eq!(lx.token().unwrap(), Token::Arr);
        assert!(lx.next_item().unwrap());
        assert!(matches!(
            lx.token().unwrap(),
            Token::Str(Cow::Borrowed("plain"))
        ));
        assert!(lx.next_item().unwrap());
        assert!(matches!(lx.token().unwrap(), Token::Str(Cow::Owned(s)) if s == "esc\naped"));
        assert!(!lx.next_item().unwrap());
        lx.finish().unwrap();
    }

    #[test]
    fn write_int_covers_the_whole_range() {
        for v in [0, 7, -7, 10, -100, i64::MAX, i64::MIN] {
            let mut out = String::new();
            write_int(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // An ASCII-escaping writer (e.g. Python's json.dumps) encodes 😀 as
        // a surrogate pair; interchange requires accepting it.
        let s = r#"{"version":1,"events":[
            {"kind":"inv","tx":1,"obj":"😀","op":"read"}
        ]}"#;
        let h = from_json(s).unwrap();
        match &h.events()[0] {
            Event::Inv { obj, .. } => assert_eq!(obj.name(), "😀"),
            other => panic!("unexpected event {other:?}"),
        }
        // Astral-plane characters emitted raw by to_json round-trip too.
        let back = from_json(&to_json(&h)).unwrap();
        assert_eq!(back.events(), h.events());
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [
            r#"{"version":1,"events":[{"kind":"inv","tx":1,"obj":"\ud83d","op":"read"}]}"#,
            r#"{"version":1,"events":[{"kind":"inv","tx":1,"obj":"\ude00","op":"read"}]}"#,
            r#"{"version":1,"events":[{"kind":"inv","tx":1,"obj":"\ud83dx","op":"read"}]}"#,
        ] {
            let e = from_json(bad).unwrap_err();
            assert!(e.message.contains("surrogate"), "{e}");
        }
    }

    #[test]
    fn schema_errors_carry_the_event_line() {
        // The typo'd event sits on line 4 of the pretty document.
        let s =
            "{\n  \"version\": 1,\n  \"events\": [\n    {\"kind\": \"comit\", \"tx\": 1}\n  ]\n}";
        let e = from_json(s).unwrap_err();
        assert!(e.message.contains("unknown event kind `comit`"), "{e}");
        assert_eq!(e.line, 4, "{e}");
    }

    #[test]
    fn a_later_syntax_error_beats_an_earlier_schema_error() {
        let e = from_json(r#"{"version":1,"events":[{"kind":"zap","tx":1}],"x":tru}"#).unwrap_err();
        assert!(e.message.contains("invalid keyword"), "{e}");
    }

    #[test]
    fn public_doc_api_roundtrips_events_and_framing() {
        // The document-model surface: parse a document, pull an embedded
        // event out by key, convert it to a model event, and render it.
        let doc =
            Json::parse(r#"{"frame":"feed","session":"s1","event":{"kind":"commit","tx":3}}"#)
                .unwrap();
        assert_eq!(doc.get("frame"), Some(&Json::Str("feed".into())));
        let event = event_from_doc(doc.get("event").unwrap()).unwrap();
        assert_eq!(event, Event::Commit(TxId(3)));
        let mut back = String::new();
        write_event(&mut back, &event);
        assert_eq!(back, r#"{"kind":"commit","tx":3}"#);
        // Schema errors out of an embedded event still carry its line.
        let bad = Json::parse("{\n \"event\": {\"kind\": \"zap\"}\n}").unwrap();
        let err = event_from_doc(bad.get("event").unwrap()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn schema_violations_are_rejected() {
        for bad in [
            r#"{"version":1,"events":[{"kind":"zap","tx":1}]}"#,
            r#"{"version":1,"events":[{"kind":"commit"}]}"#,
            r#"{"version":1}"#,
            r#"{"events":[]}"#,
            r#"[1,2,3]"#,
            r#"{"version":1,"events":[{"kind":"ret","tx":1,"obj":"x","op":"read","val":{"nope":1}}]}"#,
        ] {
            assert!(from_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
