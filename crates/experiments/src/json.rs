//! A small, dependency-free JSON value model with a deterministic writer and a strict
//! parser — the wire format of [`crate::spec::ExperimentSpec`] and the machine-readable
//! [`crate::report::FigureReport`] emitter.
//!
//! The build environment cannot fetch `serde_json` (the workspace's `serde` is an offline
//! marker shim), so this module implements exactly the subset the experiment stack needs:
//!
//! * **Deterministic output** — [`Json::Obj`] preserves insertion order (it is a
//!   `Vec<(String, Json)>`, not a hash map), so serializing the same value always produces
//!   the same bytes: specs can be diffed, cached by content hash, and compared against
//!   committed golden files byte for byte.
//! * **Lossless floats** — numbers are written with Rust's shortest-round-trip `f64`
//!   formatting and parsed with `str::parse::<f64>` (correctly rounded), so
//!   `parse(write(x)) == x` bit for bit for every finite `f64`. Non-finite values have no
//!   JSON representation; writers must map them (reports emit `null` for `NaN` cells) and
//!   the writer panics on a non-finite number as a programming error.
//! * **Strictness** — the parser rejects duplicate object keys, trailing input, and any
//!   non-JSON syntax, with byte offsets in errors. Integer precision: all numbers travel
//!   as `f64`, so integers are exact below `2^53` (the spec layer validates its `u64`
//!   seeds against that bound instead of silently rounding; `2^53` itself is excluded
//!   because `2^53 + 1` would alias onto it).

use std::fmt;

/// A JSON value. Object member order is preserved (and significant for output).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (see the module docs for the integer-precision contract).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from members (a readability helper for writer code).
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Self {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number from a `u64`, panicking when the value exceeds the exact-`f64` range
    /// (callers validate their integers against `2^53`; see the module docs).
    pub fn uint(value: u64) -> Self {
        assert!(value <= MAX_EXACT_INT, "integer {value} exceeds the exact JSON range (2^53)");
        Json::Num(value as f64)
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it is an integer-valued number in
    /// `[0, 2^53)` (see [`MAX_EXACT_INT`] for why the bound is exclusive of `2^53`).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= MAX_EXACT_INT as f64 && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The value as an exact `usize` (see [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline — the canonical form
    /// for committed spec files and golden reports.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                assert!(n.is_finite(), "non-finite numbers have no JSON representation");
                // Rust's f64 Display is the shortest string that parses back to the same
                // bits — the lossless-float contract of this module.
                out.push_str(&format!("{n}"));
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, items.len(), '[', ']', |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, members.len(), '{', '}', |out, i, d| {
                    let (key, value) = &members[i];
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, d);
                });
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed, trailing content not).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after the JSON document"));
        }
        Ok(value)
    }
}

/// Largest integer that round-trips *unambiguously* through an `f64`: `2^53 - 1`.
/// `2^53` itself is representable, but `2^53 + 1` rounds onto it, so admitting `2^53`
/// would let two distinct written integers parse to the same value — the silent rounding
/// this module promises to reject.
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// The 64-bit FNV-1a hash of a byte string.
///
/// This is the content hash behind the shard result cache ([`crate::shard`]): cache keys
/// hash the canonical compact JSON of a shard spec, and the shard document — on the
/// worker pipe and on disk alike — carries the hash of its other members, so truncation
/// or corruption is detected instead of trusted. FNV-1a is deliberate — a tiny,
/// dependency-free, *stable* hash (the constants are part of the wire format, so `std`'s
/// randomized `DefaultHasher` would not do); it is not collision-resistant against
/// adversaries, which is fine for a local result cache.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting depth [`Json::parse`] accepts. Bounds the parser's
/// recursion so a corrupt or adversarial document returns a [`JsonError`] instead of
/// overflowing the stack (mirrors `serde_json`'s default limit).
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs a container parser one nesting level deeper, rejecting depth > [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting exceeds {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_offset,
                    message: format!("duplicate object key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a maximal run of plain (unescaped, non-terminator) bytes at once.
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                if self.peek().is_some_and(|c| c < 0x20) {
                    return Err(self.err("unescaped control character in string"));
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be followed by an
                            // escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
                _ => unreachable!("plain-run loop stops only at '\"', '\\\\', or EOF"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // `from_str_radix` tolerates a leading '+', which JSON does not: require exactly
        // four hex digits by hand.
        if !self.bytes[self.pos..end].iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits in number"));
        }
        // Leading zeros are invalid JSON ("01"), a lone zero is fine.
        if self.bytes[digits_start] == b'0' && self.pos > digits_start + 1 {
            return Err(JsonError {
                offset: digits_start,
                message: "leading zero in number".to_string(),
            });
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        let value: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: format!("number {text:?} does not fit an f64"),
        })?;
        if !value.is_finite() {
            return Err(JsonError {
                offset: start,
                message: format!("number {text:?} overflows an f64"),
            });
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj([
            ("name", Json::Str("fig2 — \"quick\"\n".to_string())),
            ("count", Json::uint(100)),
            ("ratio", Json::Num(0.1)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("values", Json::Arr(vec![Json::Num(-1.5e-9), Json::Num(5.0), Json::Arr(vec![])])),
            ("empty", Json::Obj(vec![])),
        ]);
        for text in [doc.to_compact_string(), doc.to_pretty_string()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "diverged on {text}");
        }
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -2.2250738585072014e-308,
            9.007199254740993e15,
            5.0,
            -0.0,
        ] {
            let text = Json::Num(v).to_compact_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text} -> {back}");
        }
    }

    #[test]
    fn integers_are_exact_up_to_2_pow_53() {
        for v in [0u64, 1, 100, MAX_EXACT_INT - 1, MAX_EXACT_INT] {
            let text = Json::uint(v).to_compact_string();
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v));
        }
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        // 2^53 and 2^53 + 1 are indistinguishable once parsed (the literal rounds onto
        // 2^53), so both must be rejected rather than silently collapsing onto one seed.
        assert_eq!(Json::parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(Json::parse("9007199254740993").unwrap().as_u64(), None);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let mut nested_obj = String::new();
        for _ in 0..(MAX_DEPTH * 4) {
            nested_obj.push_str("{\"k\":");
        }
        assert!(Json::parse(&nested_obj).is_err());
        // Exactly at the limit still parses.
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn strict_parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1 \"b\":2}",
            "{\"a\":1}extra",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "nul",
            "NaN",
            "+1",
            "{\"dup\":1,\"dup\":2}",
            "\"\\ud800\"",
            r#""\u+041""#,
            r#""\u00g1""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let parsed = Json::parse(r#""a\u00e9\n\t\"\\\u0001 \ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str().unwrap(), "aé\n\t\"\\\u{1} 😀");
        let rewritten = parsed.to_compact_string();
        assert_eq!(Json::parse(&rewritten).unwrap(), parsed);
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let err = Json::parse("{\"a\": nope}").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(err.to_string().contains("byte 6"), "{err}");
    }

    #[test]
    fn accessors_select_by_type() {
        let doc = Json::parse(r#"{"s":"x","n":2,"b":false,"a":[1],"o":{}}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("n").unwrap().as_usize(), Some(2));
        assert_eq!(doc.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 1);
        assert!(doc.get("o").unwrap().as_object().unwrap().is_empty());
        assert!(doc.get("missing").is_none());
        assert_eq!(doc.get("s").unwrap().as_f64(), None);
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        // The constants are part of the cache wire format: pin them to the reference
        // FNV-1a 64 vectors so a refactor can never silently re-key every cache.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
        // Sensitive to every byte and to order.
        assert_ne!(fnv1a_64(b"ab"), fnv1a_64(b"ba"));
    }
}
