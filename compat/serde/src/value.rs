//! The JSON value tree shared by the `serde` and `serde_json` stubs.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON number: integer-preserving where the source text (or Rust value)
/// was integral, float otherwise. Integral and float forms compare equal
/// when they denote the same quantity, matching `serde_json` semantics
/// closely enough for the workspace's assertions.
#[derive(Debug, Clone)]
pub enum Number {
    /// An integer that fits i64.
    Int(i64),
    /// An integer above `i64::MAX` that fits u64.
    UInt(u64),
    /// Any other finite number.
    Float(f64),
}

impl Number {
    /// Wraps an i64.
    pub fn from_i64(v: i64) -> Number {
        Number::Int(v)
    }

    /// Wraps an f64, demoting integral values to the integer form so that
    /// `2.0` and `2` compare equal after parsing either spelling.
    pub fn from_f64(v: f64) -> Number {
        if v.fract() == 0.0 && v.is_finite() && v.abs() < 9.0e15 {
            Number::Int(v as i64)
        } else {
            Number::Float(v)
        }
    }

    /// The numeric value as f64.
    pub fn as_f64(&self) -> f64 {
        match self {
            Number::Int(v) => *v as f64,
            Number::UInt(v) => *v as f64,
            Number::Float(v) => *v,
        }
    }

    /// The value as i64 when integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Number::Int(v) => Some(*v),
            Number::UInt(_) | Number::Float(_) => None,
        }
    }

    /// The exact value when integral: the one path integer decoding takes,
    /// so no integer passes through f64.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Number::Int(v) => Some(i128::from(*v)),
            Number::UInt(v) => Some(i128::from(*v)),
            Number::Float(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.as_i128(), other.as_i128()) {
            (Some(a), Some(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(v) => write!(f, "{v}"),
            Number::UInt(v) => write!(f, "{v}"),
            Number::Float(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest round-trippable form, but
                    // always include a decimal marker so the output re-parses
                    // as a float-shaped token.
                    if v.fract() == 0.0 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no inf/nan; serde_json emits null.
                    write!(f, "null")
                }
            }
        }
    }
}

/// An owned JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted keys; good enough for the workspace, which only
    /// compares whole documents and reads fields by name).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The object form, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array form, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string form, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric form as f64, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric form as i64, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The boolean form, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Field access that returns `Null` for missing keys / wrong types,
    /// mirroring `serde_json`'s `Index` behaviour.
    pub fn get_path(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Object(m) => m.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get_path(key)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl Value {
    /// Compact JSON rendering.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Pretty JSON rendering (2-space indent, like `serde_json`).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::String(s) => render_string(s, out),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.render(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    render_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.render(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deep arrays and objects may nest, as in `serde_json`. The parser
/// recurses once per level, so an unbounded depth lets a document of
/// brackets overflow the stack and abort the process.
pub const MAX_DEPTH: usize = 128;

/// A recursive-descent JSON parser for the stub.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value; `depth` is how many more levels may open below it.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    if matches!(c, b'[' | b'{') && depth == 0 {
        return Err(format!(
            "nested deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match c {
        b'n' => expect_lit(b, pos, "null").map(|_| Value::Null),
        b't' => expect_lit(b, pos, "true").map(|_| Value::Bool(true)),
        b'f' => expect_lit(b, pos, "false").map(|_| Value::Bool(false)),
        b'"' => parse_string(b, pos).map(Value::String),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth - 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos, depth - 1)?;
                map.insert(key, value);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        other => Err(format!("unexpected byte {:?} at {pos}", other as char)),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = b.get(*pos) else {
                    return Err("unterminated escape".to_string());
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
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))
                            .map_err(String::from)?;
                        let cp =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        *pos += 4;
                        // Surrogate pairs: only the BMP subset the workspace
                        // emits is handled; lone surrogates become U+FFFD.
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            c if c < 0x80 => out.push(c as char),
            _ => {
                // Multi-byte UTF-8: find the full scalar.
                let start = *pos - 1;
                let len = utf8_len(c);
                let slice = b
                    .get(start..start + len)
                    .ok_or("truncated UTF-8 sequence")?;
                let s = std::str::from_utf8(slice).map_err(|e| e.to_string())?;
                out.push_str(s);
                *pos = start + len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Number(Number::Int(i)));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::Number(Number::UInt(u)));
        }
    }
    text.parse::<f64>()
        .map(|f| Value::Number(Number::from_f64(f)))
        .map_err(|e| format!("bad number `{text}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_round_trip() {
        let doc = r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v["a"][0], Value::Number(Number::Int(1)));
        assert_eq!(v["a"][2], Value::String("x\n".to_string()));
        assert_eq!(v["b"]["c"].as_i64(), Some(-3));
        assert!(v["missing"].is_null());
        let rendered = v.render_compact();
        assert_eq!(parse(&rendered).unwrap(), v);
        let pretty = v.render_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn int_and_float_forms_compare_equal() {
        assert_eq!(parse("2").unwrap(), parse("2.0").unwrap());
        assert_ne!(parse("2").unwrap(), parse("2.5").unwrap());
    }

    #[test]
    fn integers_beyond_f64_precision_stay_exact() {
        for text in [
            "9007199254740993",
            "18446744073709551615",
            "-9223372036854775808",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.render_compact(), text);
        }
        assert_ne!(
            parse("9007199254740993").unwrap(),
            parse("9007199254740992").unwrap()
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nested deeper"));
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn escapes_render_safely() {
        let v = Value::String("a\"b\\c\nd\u{1}".to_string());
        let rendered = v.render_compact();
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse(r#""héllo ☃""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo ☃"));
    }
}
