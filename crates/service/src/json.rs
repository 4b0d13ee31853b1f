//! A minimal JSON reader for the documents the stack writes: the `/stats`
//! object (`duoquest_obs::JsonObject`), traces, and the wire protocol's
//! frames and events.
//!
//! The workspace has no serialization dependency (it builds offline), so
//! emission is hand-rolled string building — this module is the matching
//! reader, used by the round-trip tests and available to scrapers that want
//! typed access without a JSON dependency.
//! It supports the full JSON value grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null) and reads a document in time linear in
//! its length.
//!
//! Since the network front ([`duoquest-net`]) feeds this reader bytes that
//! arrive off a socket, it is hardened against hostile input: malformed,
//! truncated and deeply nested documents all return `Err` — nesting is
//! capped at [`MAX_DEPTH`] so a `[[[[…` bomb cannot blow the parser's
//! stack — and the writer side ([`escape_string`]) produces escapes this
//! reader round-trips exactly, control characters and non-ASCII included.
//!
//! [`duoquest-net`]: https://docs.rs/duoquest-net

/// Maximum nesting depth [`Json::parse`] accepts. Deeper documents return
/// an error instead of recursing toward a stack overflow (which would abort
/// the whole process — unacceptable for a parser fed from a socket).
pub const MAX_DEPTH: usize = 64;

/// The stack's one JSON string escaper, from the obs crate below this one;
/// [`Json::parse`] round-trips its output exactly.
pub use duoquest_obs::escape_json as escape_string;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, with insertion order preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document. Trailing non-whitespace is an error, as is
    /// nesting deeper than [`MAX_DEPTH`] — the parser never panics on
    /// malformed, truncated or hostile input (socket-fed callers rely on
    /// this; `tests` below drive a corpus of broken frames through it).
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", byte as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Number)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escape = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape at byte {pos}"))?;
                        *pos += 4;
                        // Surrogate pairs are not needed by the metric
                        // payloads; map lone surrogates to the replacement
                        // character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("invalid escape '\\{}'", *other as char)),
                }
            }
            Some(_) => {
                // Copy the whole run of plain bytes up to the next quote or
                // escape at once. Both are ASCII, so the run starts and ends
                // on scalar boundaries of the `&str` the bytes came from;
                // checking only the run keeps parsing linear in the input.
                let run = bytes[*pos..].iter().position(|b| matches!(b, b'"' | b'\\'));
                let end = run.map_or(bytes.len(), |len| *pos + len);
                let plain = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                out.push_str(plain);
                *pos = end;
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structure() {
        let doc = r#"{"a":1,"b":-2.5,"c":true,"d":null,"e":"x\ny","f":[1,2,{"g":3}]}"#;
        let json = Json::parse(doc).unwrap();
        assert_eq!(json.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("b").and_then(Json::as_f64), Some(-2.5));
        assert_eq!(json.get("c").and_then(Json::as_bool), Some(true));
        assert!(json.get("d").unwrap().is_null());
        assert_eq!(json.get("e").and_then(Json::as_str), Some("x\ny"));
        let Some(Json::Array(items)) = json.get("f") else { panic!("array expected") };
        assert_eq!(items[2].get("g").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    /// The corpus of broken frames the net front's reader must survive:
    /// every entry is a plausible product of truncation, corruption, or a
    /// hostile client, and every one must come back `Err` — not a panic,
    /// not a stack overflow, not an `Ok` of garbage.
    #[test]
    fn broken_frame_corpus_returns_errors() {
        let corpus: &[&str] = &[
            // Truncations of a well-formed submit frame.
            "",
            "{",
            "{\"",
            "{\"task",
            "{\"task\"",
            "{\"task\":",
            "{\"task\":\"mov",
            "{\"task\":\"movies\"",
            "{\"task\":\"movies\",",
            "{\"task\":\"movies\",\"priority\":",
            "[",
            "[1",
            "[1,",
            "[[1,2],",
            // Broken escapes.
            "\"\\",
            "\"\\q\"",
            "\"\\u\"",
            "\"\\u12\"",
            "\"\\uZZZZ\"",
            // Broken literals and numbers.
            "tru",
            "nul",
            "falsy",
            "+",
            "-",
            ".",
            "1.2.3",
            "0x10",
            "--5",
            "1e",
            // Structural garbage.
            ":",
            ",",
            "}",
            "]",
            "{]",
            "[}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{1:2}",
            "{\"a\":1 \"b\":2}",
            "[1 2]",
            "'single'",
            "{\"a\":1}}",
            "[1][2]",
        ];
        for frame in corpus {
            assert!(Json::parse(frame).is_err(), "expected error for frame {frame:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Far beyond MAX_DEPTH: without the cap this would recurse ~100k
        // frames deep and abort the process.
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
        let bomb = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());

        // One past the cap fails; the cap itself parses.
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&over).is_err());
        let at = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at).is_ok());
    }

    #[test]
    fn escape_string_round_trips_through_the_reader() {
        let cases: &[&str] = &[
            "",
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "line\nbreaks\r\nand\ttabs",
            "control \u{0} \u{1} \u{8} \u{c} \u{1f} chars",
            "non-ASCII: caf\u{e9} \u{4e2d}\u{6587} \u{1f600}",
            "SELECT title FROM movies WHERE note = 'a\nb'",
            "/ solidus needs no escape",
        ];
        for case in cases {
            let literal = escape_string(case);
            let parsed = Json::parse(&literal)
                .unwrap_or_else(|e| panic!("round-trip parse failed for {case:?}: {e}"));
            assert_eq!(parsed.as_str(), Some(*case), "round-trip mismatch for {case:?}");
        }
    }

    #[test]
    fn multi_byte_scalars_next_to_escapes_round_trip() {
        let doc = "\"\u{e9}\\n\u{4e2d}\\\"\u{1f600}\\\\\u{e9}\\u00e9\u{1f680}\"";
        let expected = "\u{e9}\n\u{4e2d}\"\u{1f600}\\\u{e9}\u{e9}\u{1f680}";
        assert_eq!(Json::parse(doc).unwrap().as_str(), Some(expected));
        // Right against the closing quote, and as the whole string.
        assert_eq!(Json::parse("\"\\t\u{4e2d}\"").unwrap().as_str(), Some("\t\u{4e2d}"));
        assert_eq!(Json::parse("\"\u{1f600}\"").unwrap().as_str(), Some("\u{1f600}"));
        assert!(Json::parse("\"\u{4e2d}").is_err(), "unterminated after a multi-byte scalar");
    }

    /// `parse_string` used to re-validate the rest of the document at every
    /// plain character: a `/trace` body of this size took hundreds of
    /// milliseconds. Four times the input may cost about four times the
    /// time, not sixteen.
    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        let document = |bytes: usize| {
            let member = "{\"name\":\"verify:by_column \u{4e2d}\\n\",\"start_us\":12345},";
            let mut doc = String::from("[");
            while doc.len() < bytes {
                doc.push_str(member);
            }
            doc.push_str("\"end\"]");
            doc
        };
        let best_of = |doc: &str| {
            (0..5)
                .map(|_| {
                    let started = std::time::Instant::now();
                    assert!(Json::parse(doc).is_ok());
                    started.elapsed()
                })
                .min()
                .expect("five runs")
        };
        let (small, large) = (document(64 << 10), document(256 << 10));
        let (t_small, t_large) = (best_of(&small), best_of(&large));
        assert!(
            t_large < t_small * 8,
            "{} bytes in {t_small:?}, {} bytes in {t_large:?}",
            small.len(),
            large.len()
        );
    }

    #[test]
    fn escape_string_embeds_in_objects() {
        let text = "task\twith\n\"tricky\" \u{1} content \u{1f680}";
        let doc = format!("{{\"task\":{}}}", escape_string(text));
        let json = Json::parse(&doc).unwrap();
        assert_eq!(json.get("task").and_then(Json::as_str), Some(text));
    }
}
