//! Minimal hand-rolled JSON value: deterministic writer plus a small parser.
//!
//! The workspace deliberately carries no serde; run reports need a stable,
//! byte-deterministic encoding that tests can diff across thread counts. The
//! writer therefore makes every choice explicit:
//!
//! * objects are ordered `Vec`s — keys serialize in insertion order, never
//!   hash order;
//! * floats print with Rust's shortest-roundtrip `{:?}` formatting (so
//!   `1.0` stays `1.0`, not `1`), and non-finite values become `null`;
//! * indentation is fixed two-space pretty printing with `\n` line ends.
//!
//! The parser exists so tests can validate schema structure without string
//! matching; it accepts exactly what the writer emits (plus ordinary JSON).

use std::fmt::Write as _;

/// A JSON value with deterministic serialization.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned integers keep full u64 precision (counters).
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is insertion order — the determinism contract.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Sets a key on an object (panics if `self` is not an object — report
    /// assembly is all static code, so this is a programmer error). An
    /// existing key is replaced in place, keeping its original position, so
    /// objects never carry duplicate keys.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => match fields.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => fields.push((key.to_string(), value)),
            },
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Removes a key from an object, returning its value if present.
    /// Returns `None` (without panicking) on non-objects.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .position(|(k, _)| k == key)
                .map(|i| fields.remove(i).1),
            _ => None,
        }
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Path lookup: `report.path(&["trace", "spans"])`.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for k in keys {
            cur = cur.get(k)?;
        }
        Some(cur)
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indents and a trailing newline. The
    /// output is a pure function of the value — byte-identical across runs,
    /// platforms, and thread counts.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Compact single-line form (no spaces, no trailing newline) for
    /// newline-delimited protocols. Same determinism contract as
    /// [`Json::to_pretty_string`]: the bytes are a pure function of the
    /// value, and `parse` round-trips them losslessly.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Shortest-roundtrip formatting; keeps the ".0" on whole
                    // numbers so floats stay visibly floats.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Errors carry a byte offset for debugging.
    /// Nesting deeper than [`MAX_PARSE_DEPTH`] is rejected (defined
    /// behaviour instead of a stack overflow on adversarial input).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Maximum container nesting depth [`Json::parse`] accepts. The recursive-
/// descent parser would otherwise turn deeply nested input into a stack
/// overflow; real reports nest a handful of levels.
pub const MAX_PARSE_DEPTH: usize = 512;

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} at byte {}",
            *pos
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        visited(1);
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                            .ok_or("bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u codepoint".to_string())?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain bytes up to the next `"` or `\`
                // in one slice. Both are ASCII, so the run ends on a char
                // boundary, and the work is linear in the run's length.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                visited(run);
                let text =
                    std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|e| e.to_string())?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Bytes the string reader has visited on this thread: the count
    /// the linear-time test holds to a multiple of the input length.
    static VISITED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Counts `n` bytes visited by the string reader (tests only).
#[inline]
fn visited(n: usize) {
    #[cfg(test)]
    VISITED.with(|v| v.set(v.get() + n));
    #[cfg(not(test))]
    let _ = n;
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' | b'-' | b'+' => *pos += 1,
            b'.' | b'e' | b'E' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() {
        return Err(format!("expected value at byte {start}"));
    }
    if !is_float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string reader as it was before it copied whole runs: one
    /// scalar per step, each found by validating the rest of the input.
    fn parse_string_reference(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
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
                                .ok_or("bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint".to_string())?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    /// What the string bodies below are drawn from: plain ASCII, every
    /// escape letter, hex digits, the two bytes that end a run, and
    /// scalars of two, three and four bytes.
    const PIECES: [&str; 16] = [
        "a", " ", "\"", "\\", "/", "n", "r", "t", "b", "f", "u", "0", "e9", "é", "€", "😀",
    ];

    // Runs copied whole give the same string, the same end position and
    // the same error as the scalar-at-a-time reader, escapes, multi-byte
    // scalars and truncated input included.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]
        #[test]
        fn strings_read_as_the_scalar_reader_read_them(
            picks in proptest::collection::vec(0..PIECES.len(), 0..32)
        ) {
            let body: String = picks.iter().map(|&i| PIECES[i]).collect();
            let text = format!("\"{body}");
            let (mut a, mut b) = (0, 0);
            let fast = parse_string(text.as_bytes(), &mut a);
            let reference = parse_string_reference(text.as_bytes(), &mut b);
            proptest::prop_assert_eq!(&fast, &reference);
            proptest::prop_assert_eq!(a, b);
        }
    }

    /// Bytes the string reader visits to parse `text`.
    fn visits(text: &str) -> usize {
        VISITED.with(|v| v.set(0));
        Json::parse(text).unwrap();
        VISITED.with(|v| v.get())
    }

    /// A string costs a constant number of byte steps per input byte: a
    /// 1 MiB frame is read as cheaply per byte as a 1 KiB one.
    #[test]
    fn string_reading_is_linear_in_the_input() {
        for len in [1 << 10, 1 << 20] {
            let plain = format!("{{\"k\":\"{}\"}}", "a".repeat(len));
            let mixed = format!("[\"{}\"]", "ab\\n\\u00e9é😀\\\"".repeat(len / 16));
            for text in [plain, mixed] {
                let steps = visits(&text);
                assert!(
                    steps <= 2 * text.len(),
                    "{steps} steps for {} bytes",
                    text.len()
                );
            }
        }
    }

    #[test]
    fn roundtrip_preserves_structure_and_order() {
        let mut obj = Json::obj();
        obj.set("zeta", Json::U64(1));
        obj.set("alpha", Json::Arr(vec![Json::Bool(true), Json::Null]));
        obj.set("pi", Json::F64(3.5));
        let text = obj.to_pretty_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, obj);
        // Insertion order survives serialization (zeta before alpha).
        assert!(text.find("zeta").unwrap() < text.find("alpha").unwrap());
    }

    #[test]
    fn floats_keep_decimal_point_and_roundtrip() {
        let text = Json::F64(1.0).to_pretty_string();
        assert_eq!(text, "1.0\n");
        assert_eq!(
            Json::parse("0.30000000000000004").unwrap(),
            Json::F64(0.1 + 0.2)
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::F64(f64::INFINITY).to_pretty_string(), "null\n");
        assert_eq!(Json::F64(f64::NEG_INFINITY).to_pretty_string(), "null\n");
        assert_eq!(Json::F64(f64::NAN).to_pretty_string(), "null\n");
    }

    #[test]
    fn nested_non_finite_floats_stay_valid_json() {
        // Non-finite values buried in containers must come out as `null`
        // tokens, never bare `NaN` / `inf`, so the document stays parseable.
        let mut obj = Json::obj();
        obj.set(
            "values",
            Json::Arr(vec![
                Json::F64(1.5),
                Json::F64(f64::NAN),
                Json::F64(f64::NEG_INFINITY),
            ]),
        );
        let mut inner = Json::obj();
        inner.set("max", Json::F64(f64::INFINITY));
        obj.set("summary", inner);
        let text = obj.to_pretty_string();
        assert!(!text.contains("NaN") && !text.contains("inf"));
        let back = Json::parse(&text).unwrap();
        let vals = back.get("values").unwrap().as_arr().unwrap();
        assert_eq!(vals[0], Json::F64(1.5));
        assert_eq!(vals[1], Json::Null);
        assert_eq!(vals[2], Json::Null);
        assert_eq!(back.path(&["summary", "max"]), Some(&Json::Null));
    }

    #[test]
    fn bare_non_finite_tokens_are_rejected_by_the_parser() {
        for text in ["NaN", "inf", "-inf", "Infinity", "[1, NaN]"] {
            assert!(Json::parse(text).is_err(), "parsed `{text}`");
        }
    }

    #[test]
    fn long_escape_heavy_strings_roundtrip() {
        let mut s = String::new();
        for i in 0..4096 {
            s.push_str("a\"b\\c\nd\te\r");
            s.push(char::from_u32(1 + (i % 0x1f)).unwrap());
            s.push('\u{1F600}');
        }
        let v = Json::Str(s.clone());
        let text = v.to_pretty_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Control characters must all be escaped (no raw bytes < 0x20
        // besides the pretty-printer's own newlines/indent).
        let inner = text.trim_end();
        assert!(inner.chars().all(|c| c as u32 >= 0x20 || c == '\n'));
    }

    #[test]
    fn deep_nesting_roundtrips_within_the_cap() {
        let mut v = Json::U64(7);
        for _ in 0..256 {
            let mut o = Json::obj();
            o.set("next", Json::Arr(vec![v]));
            v = o;
        }
        let text = v.to_pretty_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parser_rejects_nesting_beyond_the_cap() {
        let deep = "[".repeat(MAX_PARSE_DEPTH + 2) + &"]".repeat(MAX_PARSE_DEPTH + 2);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn set_replaces_existing_keys_in_place() {
        let mut obj = Json::obj();
        obj.set("a", Json::U64(1));
        obj.set("b", Json::U64(2));
        obj.set("a", Json::U64(3));
        assert_eq!(obj.as_obj().unwrap().len(), 2);
        assert_eq!(obj.get("a").and_then(Json::as_u64), Some(3));
        // Position preserved: `a` still serializes before `b`.
        let text = obj.to_pretty_string();
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
        assert_eq!(obj.remove("a"), Some(Json::U64(3)));
        assert_eq!(obj.remove("a"), None);
        assert_eq!(obj.as_obj().unwrap().len(), 1);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = Json::Str("a\"b\\c\nd\u{1}".to_string());
        let text = s.to_pretty_string();
        assert_eq!(Json::parse(&text).unwrap(), s);
    }

    #[test]
    fn path_lookup_descends_objects() {
        let mut inner = Json::obj();
        inner.set("leaf", Json::U64(7));
        let mut outer = Json::obj();
        outer.set("inner", inner);
        assert_eq!(
            outer.path(&["inner", "leaf"]).and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(outer.path(&["missing"]), None);
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn large_u64_counters_do_not_lose_precision() {
        let v = u64::MAX - 1;
        let text = Json::U64(v).to_pretty_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v));
    }
}
