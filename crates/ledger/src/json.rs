//! A minimal JSON reader/writer: recursive-descent parser plus a
//! canonical renderer.
//!
//! The workspace emits all JSON by hand (no serde anywhere), so the
//! ledger needs an independent reader to load archived [`crate::record::RunRecord`]
//! documents back, and tests use the same parser for schema checks
//! (re-exported as `mos_testutil::json`). This is deliberately small:
//! no escapes beyond `\"`, `\\`, `\/`, `\n`, `\t`, `\r`, `\b`, `\f` and
//! `\uXXXX` (kept verbatim), numbers as `f64`, objects as ordered pairs.
//!
//! [`render`] is the inverse: it prints a [`Value`] compactly with
//! numbers in their shortest round-trip form (whole numbers without a
//! fractional part), so `render(parse(render(v)))` is byte-stable.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Format a number the way [`render`] does: whole numbers print without
/// a fractional part, everything else uses Rust's shortest round-trip
/// `f64` form.
pub fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Render a [`Value`] as one compact JSON document (no whitespace).
/// Strings escape only what [`parse`] unescapes, so the pair round-trips.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    render_into(v, &mut out);
    out
}

fn render_into(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => out.push_str(&fmt_num(*n)),
        Value::Str(s) => render_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(k, out);
                out.push(':');
                render_into(item, out);
            }
            out.push('}');
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
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            other => out.push(other),
        }
    }
    out.push('"');
}

/// Parse one JSON document. Returns an error message with a byte offset
/// on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let b = text.as_bytes();
    let mut pos = 0;
    let v = value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Value::Str(string(b, pos)?)),
        Some(b't') => lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => lit(b, pos, "null", Value::Null),
        Some(_) => number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn lit(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let c = *b.get(*pos).ok_or("unterminated escape")?;
                let unescaped = match c {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        // Keep \uXXXX escapes verbatim; no emitter here
                        // produces them.
                        out.push('\\');
                        'u'
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                };
                out.push(unescaped);
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through unchanged.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(&b[*pos..*pos + ch_len])
                    .map_err(|_| format!("bad utf-8 at byte {pos}"))?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
    Err("unterminated string".into())
}

fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let k = string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        pairs.push((k, value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":"x\ty","d":null},"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ty"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Bool(true)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} garbage").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn whole_number_check_is_strict() {
        assert_eq!(parse("4").unwrap().as_u64(), Some(4));
        assert_eq!(parse("4.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn render_round_trips_byte_stably() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":"x\ty","d":null},"e":true,"f":0.9039}"#;
        let once = render(&parse(doc).unwrap());
        let twice = render(&parse(&once).unwrap());
        assert_eq!(once, doc);
        assert_eq!(once, twice);
    }

    #[test]
    fn fmt_num_shortest_forms() {
        assert_eq!(fmt_num(12345.0), "12345");
        assert_eq!(fmt_num(0.9039), "0.9039");
        assert_eq!(fmt_num(-2.0), "-2");
        assert_eq!(fmt_num(1.0e16), "10000000000000000");
    }
}
