//! A minimal JSON reader for node-to-node payloads.
//!
//! The cluster tier consumes JSON produced exclusively by this
//! workspace's own servers (shard `/cluster/*` responses, `/health`,
//! `/metrics`), so this parser covers exactly the JSON those renderers
//! emit — objects, arrays, strings with the renderer's escape set,
//! numbers, booleans, null. Two deliberate choices:
//!
//! * **Numbers keep their raw text.** Scores travel as `f64` bit
//!   patterns (`score_bits`, full 64-bit integers) which an `f64`-based
//!   number type would silently round; merging and re-rendering must be
//!   lossless, so [`Json::Num`] stores the verbatim token and callers
//!   pick `u64` or `f64` at the use site.
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a map),
//!   so re-rendering a merged document keeps the upstream field order —
//!   deterministic output for tests and humans alike.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what was wrong and the byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one JSON document (trailing whitespace allowed, trailing
    /// garbage is an error).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err("trailing characters after document", pos));
        }
        Ok(value)
    }

    /// Object field lookup (None on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (empty slice for non-arrays).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The string value, if this is a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if it parses exactly.
    pub fn u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Render back to JSON text. Numbers re-emit their raw token, so
    /// `parse(s).render() == s` for canonically-rendered inputs (modulo
    /// insignificant whitespace, which our renderers never emit).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => out.push_str(&tix_server::render::json_string(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&tix_server::render::json_string(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.to_string(),
        offset,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(err("unexpected character", *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err("bad literal", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let raw =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err("number is not UTF-8", start))?;
    if raw.parse::<f64>().is_err() {
        return Err(err("malformed number", start));
    }
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    // Opening quote checked by the caller.
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err("bad \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err("bad \\u escape", *pos))?;
                        // Our renderers only \u-escape control characters
                        // (< 0x20), so surrogate pairs never occur; map
                        // unpaired surrogates to U+FFFD rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // piece. ASCII delimiters are always char boundaries, so
                // every byte of the document is validated exactly once.
                let start = *pos;
                let end = bytes[start..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |run| start + run);
                let run = std::str::from_utf8(&bytes[start..end])
                    .map_err(|_| err("string is not UTF-8", start))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '['
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
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err("expected object key", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err("expected ':'", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_server_shapes() {
        let doc = r#"{"status":"ok","role":"primary","docs":3,"applied_lsn":18446744073709551615,"latency":{"count":2,"buckets":[0,1,1]},"tags":["a","b"],"none":null,"flag":true}"#;
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(parsed.render(), doc);
        assert_eq!(parsed.get("docs").unwrap().u64(), Some(3));
        // Full u64 range survives (an f64 parser would round this).
        assert_eq!(parsed.get("applied_lsn").unwrap().u64(), Some(u64::MAX));
        assert_eq!(parsed.get("status").unwrap().str(), Some("ok"));
        assert_eq!(
            parsed.get("latency").unwrap().get("count").unwrap().u64(),
            Some(2)
        );
        assert_eq!(parsed.get("tags").unwrap().items().len(), 2);
    }

    #[test]
    fn strings_unescape_and_reescape() {
        let doc = "{\"text\":\"a\\\"b\\\\c\\nd\\u0001\"}";
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(parsed.get("text").unwrap().str(), Some("a\"b\\c\nd\u{1}"));
        assert_eq!(parsed.render(), doc);
    }

    #[test]
    fn multi_mib_string_parses_in_linear_time() {
        // 1-, 2-, 3- and 4-byte characters between every escape the
        // renderer emits. A reader that re-validates the rest of the
        // document per character needs hours for this; a linear one
        // well under a second, even unoptimized.
        let chunk = "ab é€𝄞\"\\\n\r\t\u{1}\u{1f}z";
        let text = chunk.repeat((4 << 20) / chunk.len() + 1);
        assert!(text.len() >= 4 << 20);
        let doc = Json::Obj(vec![("text".to_string(), Json::Str(text.clone()))]).render();
        let started = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.get("text").unwrap().str(), Some(text.as_str()));
        assert_eq!(parsed.render(), doc);
        assert!(elapsed.as_secs() < 5, "parse took {elapsed:?}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("--3").is_err());
    }

    #[test]
    fn floats_keep_raw_text() {
        let parsed = Json::parse("[1.5,2.25e-3,-0.0]").unwrap();
        assert_eq!(parsed.render(), "[1.5,2.25e-3,-0.0]");
        let v = parsed.items()[0].f64().unwrap();
        assert!((v - 1.5).abs() < 1e-12);
    }
}
