//! Minimal JSON document model, writer and parser.
//!
//! The workspace has no serialization dependency (no registry access), so
//! the exporters carry their own small JSON layer: a [`Json`] value tree, an
//! escaping writer, and a recursive-descent parser. The parser exists so
//! emitted documents can be *read back* — `cargo xtask report` rebuilds
//! the cost table from `trace.json`/`metrics.json`, and the tests validate
//! every exporter by round-tripping its output.
//!
//! Object members preserve insertion order (a `Vec` of pairs, not a map):
//! Chrome's trace viewer and humans both read these files.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; exact for integers below 2⁵³ — byte
    /// counts and timestamps stay well under that).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered members).
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    #[allow(clippy::cast_precision_loss)] // counts stay below 2^53
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds an array from an iterator of values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Member lookup on objects (`None` elsewhere).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` when numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer when it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `&str` when it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items when the value is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte offset + message for the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Integers print without a decimal point (Chrome's viewer treats `ts`
/// either way, but byte counts read better bare).
fn write_number(out: &mut String, v: f64) {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9e15 {
        let _ = write!(out, "{v:.0}");
    } else if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null"); // JSON has no Inf/NaN
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        _ => Err(format!("unexpected byte at {}", *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                }
            }
            _ => {
                // Re-decode the UTF-8 sequence beginning at c.
                let len = utf8_len(c);
                let seq_start = *pos - 1;
                let seq = bytes
                    .get(seq_start..seq_start + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or(format!("bad UTF-8 at byte {seq_start}"))?;
                out.push_str(seq);
                *pos = seq_start + len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let doc = Json::obj(vec![
            ("name", Json::from("conv0 \"quoted\" \\ path\nnewline")),
            ("ts", Json::from(12.5)),
            ("n", Json::from(123_456_789u64)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("items", Json::arr([Json::from(1u64), Json::from(2u64)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let back = Json::parse(&text).expect("parses");
            assert_eq!(back, doc, "text was: {text}");
        }
    }

    #[test]
    fn integers_print_bare() {
        assert_eq!(Json::from(42u64).to_string_compact(), "42");
        assert_eq!(Json::from(0.5).to_string_compact(), "0.5");
    }

    #[test]
    fn unicode_and_control_chars() {
        let doc = Json::from("π ≈ 3.14159 — ℓ=16 \u{1}");
        let text = doc.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn parses_nested_documents() {
        let text = r#"{"traceEvents":[{"name":"x","args":{"b":1}}],"unit":"ms"}"#;
        let doc = Json::parse(text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(events[0].get("args").and_then(|a| a.get("b")).and_then(Json::as_u64), Some(1));
    }
}
