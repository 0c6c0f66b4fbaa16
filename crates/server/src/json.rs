//! A minimal, deterministic JSON value tree with a strict parser and a
//! canonical writer.
//!
//! The workspace vendors no serialization crates, so the wire format is
//! hand-rolled here — and kept deliberately *canonical*: objects preserve
//! insertion order (a `Vec` of pairs, never a hash map), floats render via
//! Rust's shortest-round-trip `{}` formatting, and strings escape the same
//! byte sequence every time. Two structurally equal values therefore always
//! serialize to identical bytes, which is what lets the integration tests
//! compare a server response against a serial in-process reference *by
//! bytes* rather than by a lossy structural diff.
//!
//! Writing is idempotent over parsing, `write(parse(write(x))) == write(x)`,
//! with one exception: `Json::Float(-0.0)` writes `-0`, which parses as
//! `Json::Int(0)` and then writes `0`. The writer keeps the `-0` bytes
//! because `tests/tests/wire_properties.rs` pins them to the reference
//! codec's.
//!
//! Cost model. Both ends of the wire spend their codec time in strings, so
//! both string loops work one *run* at a time: a run is the longest stretch
//! of bytes that holds no `"`, `\` or C0 control byte, found with one
//! 256-entry table (`ENDS_RUN`). The parser validates each run as UTF-8
//! once and copies it once (a string with no escape is allocated once, at
//! its exact length); the writer copies each run of a string with one
//! `extend_from_slice` and escapes only the byte that ends it. Numbers are
//! formatted straight into the output buffer. The parser checks each object
//! for a repeated key once, at its closing `}`, by sorting its keys:
//! O(n log n) for n members.
//!
//! The writer's scalar routines are also crate-level functions
//! (`write_str`, `write_display_str`, `write_float`, `write_int`), so a
//! reply can be streamed straight into its frame buffer, with no value
//! tree, in exactly the bytes [`Json::to_bytes`] would write for it
//! ([`crate::protocol::write_result`]).
//!
//! The parser is crate-visible too, for the one reader that walks a frame's
//! layout itself: the `register` decode in [`crate::protocol`] matches the
//! frame's fixed bytes with `Parser::eat` and reads each value it needs with
//! `Parser::value` at the depth a whole-document [`parse`] reads it at, so
//! every value it accepts is the value [`parse`] would have produced.

use std::fmt;
use std::io::Write as _;

/// Hard bound on parser recursion (arrays/objects), against hostile frames.
const MAX_DEPTH: usize = 128;

/// The bytes that end a plain run inside a JSON string: `"`, `\` and the
/// C0 controls. Every other byte, including DEL and all non-ASCII bytes,
/// is copied through verbatim by both the parser and the writer. A table
/// costs one load and one branch per byte; comparing against the three
/// cases instead made escaping 25–80% slower on the benchmark's frames.
const ENDS_RUN: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// Length of the plain run at the start of `bytes`.
fn run_len(bytes: &[u8]) -> usize {
    bytes.iter().position(|&b| ENDS_RUN[usize::from(b)]).unwrap_or(bytes.len())
}

/// A JSON value. Numbers keep the integer/float distinction the wire text
/// had: a literal without `.`/`e` parses as [`Json::Int`], everything else
/// as [`Json::Float`]. Objects are ordered pairs — key order is the
/// insertion (or wire) order, and duplicate keys are rejected by the parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number literal.
    Int(i64),
    /// A fractional or exponent-form number literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: ordered `(key, value)` pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on an object (first match); `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64` (integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a non-negative count.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (either number variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serialize to the canonical compact text (no whitespace).
    pub fn to_text(&self) -> String {
        String::from_utf8(self.to_bytes()).expect("the writer emits UTF-8 only")
    }

    /// Serialize to the canonical compact bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Int(i) => write_int(out, *i),
            Json::Float(f) => write_float(out, *f),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write(out);
                }
                out.push(b']');
            }
            Json::Object(pairs) => {
                out.push(b'{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(out, key);
                    out.push(b':');
                    value.write(out);
                }
                out.push(b'}');
            }
        }
    }
}

/// Append `i` exactly as [`Json::Int`] writes it.
pub(crate) fn write_int(out: &mut Vec<u8>, i: i64) {
    write!(out, "{i}").expect("writing into a Vec cannot fail");
}

/// Append `f` exactly as [`Json::Float`] writes it: `{}` is Rust's shortest
/// round-trip float rendering (the same bytes for the same bits, every
/// time; `-0.0` writes `-0`). JSON has no NaN/Infinity literal; scores are
/// finite by construction, so a non-finite value writes `null`, a
/// defensive degrade rather than a round trip.
pub(crate) fn write_float(out: &mut Vec<u8>, f: f64) {
    if f.is_finite() {
        write!(out, "{f}").expect("writing into a Vec cannot fail");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Append `s` as a string literal, exactly as [`Json::Str`] writes it.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    escape(out, s);
    out.push(b'"');
}

/// Append `value`'s `{}` rendering as a string literal: the bytes of
/// `write_str(out, &value.to_string())`, escaped piece by piece as the
/// formatter produces them, with no intermediate `String`.
pub(crate) fn write_display_str(out: &mut Vec<u8>, value: impl fmt::Display) {
    out.push(b'"');
    fmt::write(&mut Escaper(out), format_args!("{value}"))
        .expect("escaping into a Vec cannot fail");
    out.push(b'"');
}

/// A [`fmt::Write`] sink that escapes every piece it is given. Escaping
/// maps each byte on its own, so escaping the pieces of a string one by one
/// writes the same bytes as escaping it whole.
struct Escaper<'a>(&'a mut Vec<u8>);

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape(self.0, s);
        Ok(())
    }
}

/// Append the body of `s`'s string literal (no quotes): each plain run is
/// copied whole, and only the byte that ends it is escaped.
fn escape(out: &mut Vec<u8>, s: &str) {
    let mut rest = s.as_bytes();
    loop {
        let run = run_len(rest);
        out.extend_from_slice(&rest[..run]);
        let Some(&b) = rest.get(run) else { break };
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0C => out.extend_from_slice(b"\\f"),
            b => write!(out, "\\u{b:04x}").expect("writing into a Vec cannot fail"),
        }
        rest = &rest[run + 1..];
    }
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &[u8]) -> Result<Json, ParseError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing data after the document"));
    }
    Ok(value)
}

/// A cursor over one document. [`parse`] reads the whole document from
/// it; a caller that knows the frame's layout consumes the fixed bytes with
/// [`Parser::eat`] and reads each value with [`Parser::value`].
pub(crate) struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A cursor at the start of `input`.
    pub(crate) fn new(input: &'a [u8]) -> Self {
        Parser { input, pos: 0 }
    }

    /// Byte offset of the cursor.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Whether the cursor is past the last byte.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.input.len()
    }

    /// Consume `bytes` if the input continues with exactly them.
    pub(crate) fn eat(&mut self, bytes: &[u8]) -> bool {
        let found = self.input[self.pos..].starts_with(bytes);
        if found {
            self.pos += bytes.len();
        }
        found
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.input[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    /// The value at the cursor, read as a value nested `depth` levels deep
    /// (the root is depth 0). No whitespace is skipped before or after it.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') if has_duplicate_key(&pairs) => {
                    return Err(self.err("duplicate object key"))
                }
                Some(b'}') => return Ok(Json::Object(pairs)),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// The string literal at the cursor.
    pub(crate) fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        // The first run is copied at its exact length; an escape-free
        // string needs no other allocation.
        let mut out = self.plain_run()?.to_owned();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: a `\uXXXX` low half must follow.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(_) => return Err(self.err("raw control byte in string")),
            }
            out.push_str(self.plain_run()?);
        }
    }

    /// The plain run at the cursor, validated as UTF-8 in one pass. The
    /// cursor moves to the byte that ends the run (or to the end of input).
    /// A bad sequence is reported at its first byte: as truncated when the
    /// input ends inside it, as invalid otherwise.
    fn plain_run(&mut self) -> Result<&'a str, ParseError> {
        let input = self.input;
        let start = self.pos;
        self.pos += run_len(&input[start..]);
        std::str::from_utf8(&input[start..self.pos]).map_err(|e| {
            let truncated = e.error_len().is_none() && self.pos == input.len();
            ParseError {
                message: if truncated { "truncated UTF-8" } else { "invalid UTF-8" }.to_string(),
                offset: start + e.valid_up_to(),
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated unicode escape"))?;
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| ParseError { message: "invalid number".into(), offset: start })
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Json::Int(i)),
                // Magnitude beyond i64: degrade to the float reading.
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| ParseError { message: "invalid number".into(), offset: start }),
            }
        }
    }
}

/// Whether two members of `pairs` share a key: one sort of borrowed keys.
fn has_duplicate_key(pairs: &[(String, Json)]) -> bool {
    if pairs.len() < 2 {
        return false;
    }
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.windows(2).any(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let doc = br#"{"a":1,"b":-2.5,"c":[true,false,null],"d":"x\ny","e":{}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Int(1)));
        assert_eq!(v.get("b"), Some(&Json::Float(-2.5)));
        assert_eq!(v.get("c").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("d").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.to_bytes(), doc.to_vec());
    }

    #[test]
    fn writer_is_idempotent_over_parse() {
        // write(parse(write(x))) == write(x): the property the byte-identity
        // tests lean on when they re-serialize a parsed response.
        for v in [
            Json::Float(2.0),
            Json::Float(0.125),
            Json::Int(-7),
            Json::str("héllo \"q\" \\ tab\t"),
            Json::Array(vec![Json::Null, Json::Bool(true), Json::Float(1e300)]),
        ] {
            let once = v.to_text();
            let twice = parse(once.as_bytes()).unwrap().to_text();
            assert_eq!(once, twice);
        }
        // The one exception: negative zero writes `-0`, an integer literal.
        let once = Json::Float(-0.0).to_text();
        assert_eq!(once, "-0");
        assert_eq!(parse(once.as_bytes()).unwrap(), Json::Int(0));
        assert_eq!(parse(once.as_bytes()).unwrap().to_text(), "0");
    }

    #[test]
    fn unicode_escapes_and_multibyte() {
        let text = "\"é\u{1F600}é\"";
        let v = parse(text.as_bytes()).unwrap();
        assert_eq!(v.as_str(), Some("é\u{1F600}é"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{\"a\":1,}"[..],
            b"[1 2]",
            b"{\"a\":1}x",
            b"\"unterminated",
            b"{\"a\":1,\"a\":2}",
            b"nul",
            b"",
        ] {
            assert!(parse(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn rejects_invalid_utf8_inside_a_run_at_its_first_byte() {
        for (bad, message) in [
            (&b"\xC0\x80"[..], "invalid UTF-8"),
            (b"\xED\xA0\x80", "invalid UTF-8"),
            (b"\xF5\x80\x80\x80", "invalid UTF-8"),
            (b"\x80", "invalid UTF-8"),
            (b"\xE2\x82", "invalid UTF-8"),
        ] {
            let doc = [&b"[\"ok\",\"ab"[..], bad, b"\"]"].concat();
            let err = parse(&doc).unwrap_err();
            assert_eq!((err.message.as_str(), err.offset), (message, 9), "{bad:x?}");
        }
        // Only an input that ends inside the sequence is truncated.
        let err = parse(b"[\"ok\",\"ab\xE2\x82").unwrap_err();
        assert_eq!((err.message.as_str(), err.offset), ("truncated UTF-8", 9));
    }

    #[test]
    fn large_objects_parse_and_still_reject_duplicate_keys() {
        let members: Vec<String> = (0..100_000).map(|i| format!("\"k{i}\":0")).collect();
        let unique = format!("{{{}}}", members.join(","));
        let parsed = parse(unique.as_bytes()).unwrap();
        assert_eq!(parsed.as_object().map(<[_]>::len), Some(100_000));
        assert_eq!(parsed.to_text(), unique);
        let duplicated = format!("{},\"k0\":1}}", &unique[..unique.len() - 1]);
        assert_eq!(parse(duplicated.as_bytes()).unwrap_err().message, "duplicate object key");
    }

    #[test]
    fn depth_is_bounded() {
        let hostile = vec![b'['; 4096];
        assert!(parse(&hostile).is_err());
    }
}
