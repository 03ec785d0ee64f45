//! The workspace's one JSON document model and its one writer.
//!
//! The workspace deliberately carries no serde. Every JSON artifact —
//! the `ObsReport`, the metrics JSONL, forensics findings, the `lab`
//! commands' `--json` rows, `BENCH_<n>.json`, the comparator verdict and
//! the Chrome trace — is built as a [`Json`] value and serialized by
//! [`Json::write`]; the perf observatory also reads its artifacts back
//! through [`parse`]. A report section is therefore described in one
//! place, as a value, and escaping, number formatting and the clamp of
//! non-finite floats happen in exactly one function each.
//!
//! Objects preserve insertion order (they are association lists, not
//! maps) and integers stay apart from floats (`7` vs `7.0`), so
//! `parse(text).write() == text` for any text this module itself
//! produced — the property the round-trip tests pin.

use std::fmt::{self, Write as _};

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A count, written bare (`7`). Parsed from a number that is all
    /// digits and fits a `u64`.
    Int(u64),
    /// Any other number; whole values keep a decimal point (`7.0`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one (integer or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Collects an array from anything that converts to values.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Collects an object from `(key, value)` pairs, in iteration order.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Serializes the value compactly (no whitespace).
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("writing to a String"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v.into())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<&String> for Json {
    fn from(v: &String) -> Json {
        Json::Str(v.clone())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Writes a float: whole values keep a decimal point, so they read back
/// as floats; non-finite values, which JSON cannot carry, clamp to zero.
fn write_num(v: f64, out: &mut String) {
    let written = if !v.is_finite() {
        out.write_str("0.0")
    } else if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{}.0", v.trunc() as i64)
    } else {
        write!(out, "{v}")
    };
    written.expect("writing to a String");
}

/// Writes a string literal: quotes, backslash, `\n` `\r` `\t` escaped,
/// and `\u00XX` for the remaining control characters.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what was expected and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser was looking for.
    pub expected: String,
    /// Byte offset of the failure.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &str) -> ParseError {
        ParseError {
            expected: expected.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("'{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(Json::Obj(pairs));
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("4 hex digits"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("4 hex digits"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("4 hex digits"))?;
                            // Surrogates are not produced by our writers;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("an escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("valid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("a character"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        // All digits and in range is a count; everything else (a sign, a
        // fraction, an exponent, or more than a u64 holds) is a float.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("a number"))
    }
}

/// Convenience: an object builder that keeps insertion order.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    pairs: Vec<(String, Json)>,
}

impl ObjBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ObjBuilder::default()
    }

    /// Appends a field.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.pairs.push((key.into(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.pairs)
    }
}

/// A builder is accepted wherever a value is, so nested objects need no
/// `build()`.
impl From<ObjBuilder> for Json {
    fn from(o: ObjBuilder) -> Json {
        o.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("'single'").is_err());
    }

    #[test]
    fn write_then_parse_is_identity() {
        let v = ObjBuilder::new()
            .field("n", Json::Num(3.25))
            .field("whole", Json::Num(7.0))
            .field("s", Json::Str("quote \" slash \\ nl \n".into()))
            .field(
                "arr",
                Json::Arr(vec![Json::Bool(false), Json::Null, Json::Num(-2.0)]),
            )
            .build();
        let text = v.write();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        // And the writer is deterministic: writing again is byte-identical.
        assert_eq!(back.write(), text);
    }

    #[test]
    fn whole_floats_keep_a_decimal_point_and_counts_do_not() {
        assert_eq!(Json::Num(7.0).write(), "7.0");
        assert_eq!(Json::Num(0.5).write(), "0.5");
        assert_eq!(Json::Int(7).write(), "7");
        assert_eq!(Json::from(u64::MAX).write(), "18446744073709551615");
        assert_eq!(parse("7").unwrap(), Json::Int(7));
        assert_eq!(parse("7.0").unwrap(), Json::Num(7.0));
        assert_eq!(parse("-7").unwrap(), Json::Num(-7.0));
        // One more than a u64 holds is still a number.
        assert_eq!(
            parse("18446744073709551616").unwrap().as_f64(),
            Some(18446744073709551616.0)
        );
        assert_eq!(Json::Int(7).as_f64(), Some(7.0));
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let text = r#"{"z":1,"a":2.0,"n":null}"#;
        assert_eq!(parse(text).unwrap().write(), text);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c\nd").write(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::from("\u{1}\t").write(), r#""\u0001\t""#);
    }

    #[test]
    fn conversions_build_fields_in_one_line() {
        let v = ObjBuilder::new()
            .field("count", 3u32)
            .field("ratio", 0.5)
            .field("ok", true)
            .field("name", "x")
            .field("missing", None::<&str>)
            .field("nested", ObjBuilder::new().field("len", 2usize))
            .field("list", Json::arr(["a", "b"]))
            .field("map", Json::obj([("k", 1u64)]))
            .build();
        assert_eq!(
            v.write(),
            r#"{"count":3,"ratio":0.5,"ok":true,"name":"x","missing":null,"nested":{"len":2},"list":["a","b"],"map":{"k":1}}"#
        );
    }

    /// JSON has no NaN or infinity: a non-finite reading anywhere in an
    /// artifact is written as `0.0`, so the document still parses.
    #[test]
    fn report_with_nan_gauge_still_parses() {
        use crate::forensics::{Finding, ForensicsReport};
        use crate::report::{ConsensusStats, ObsReport};

        assert_eq!(Json::Num(f64::NAN).write(), "0.0");
        assert_eq!(Json::Num(f64::NEG_INFINITY).write(), "0.0");

        let diagnosis = ForensicsReport {
            baseline: "self".into(),
            findings: vec![Finding {
                scenario: "run".into(),
                subject: "utilization".into(),
                prev: f64::NAN,
                new: f64::INFINITY,
                suspects: Vec::new(),
            }],
        };
        for line in diagnosis.to_ndjson().lines() {
            assert_eq!(
                parse(line).expect("finding parses").get("prev"),
                Some(&Json::Num(0.0))
            );
        }
        let report = ObsReport {
            at_ms: f64::INFINITY,
            consensus: Some(ConsensusStats {
                replication_lag_p95: f64::NAN,
                ..Default::default()
            }),
            forensics: Some(diagnosis),
            ..Default::default()
        };
        let doc = parse(&report.render_json()).expect("report parses");
        assert_eq!(doc.get("at_ms"), Some(&Json::Num(0.0)));
        let gauge = doc
            .get("consensus")
            .and_then(|c| c.get("replication_lag_p95"));
        assert_eq!(gauge, Some(&Json::Num(0.0)));
    }
}
