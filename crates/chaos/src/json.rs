//! A minimal, dependency-free JSON value: enough to emit the sweep
//! reports and to parse them back in schema tests. Object member order is
//! preserved (members are a `Vec`, not a map), so reports render
//! deterministically.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Emitted without a fractional part when it is a whole
    /// number (counters), with full precision otherwise (seconds).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number from a `u64` counter.
    pub fn num_u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if whole.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Returns `None` on any syntax error or
    /// trailing garbage. Supports the escapes the emitter produces plus
    /// `\/`, `\b`, `\f` and BMP `\uXXXX`.
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
    let end = *pos + lit.len();
    if b.get(*pos..end)? == lit.as_bytes() {
        *pos = end;
        Some(())
    } else {
        None
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => eat(b, pos, "null").map(|()| Json::Null),
        b't' => eat(b, pos, "true").map(|()| Json::Bool(true)),
        b'f' => eat(b, pos, "false").map(|()| Json::Bool(false)),
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => parse_seq(b, pos, b']', parse_value).map(Json::Arr),
        b'{' => parse_seq(b, pos, b'}', parse_member).map(Json::Obj),
        _ => parse_number(b, pos),
    }
}

/// The comma-separated items between the opening bracket at `pos` and
/// `close`.
fn parse_seq<T>(
    b: &[u8],
    pos: &mut usize,
    close: u8,
    item: fn(&[u8], &mut usize) -> Option<T>,
) -> Option<Vec<T>> {
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return Some(items);
    }
    loop {
        items.push(item(b, pos)?);
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            c if c == close => {
                *pos += 1;
                return Some(items);
            }
            _ => return None,
        }
    }
}

fn parse_member(b: &[u8], pos: &mut usize) -> Option<(String, Json)> {
    skip_ws(b, pos);
    let key = parse_string(b, pos)?;
    skip_ws(b, pos);
    eat(b, pos, ":")?;
    Some((key, parse_value(b, pos)?))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    eat(b, pos, "\"")?;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*pos + 1..*pos + 5)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unchanged).
                let rest = std::str::from_utf8(&b[*pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    if *pos == start {
        return None;
    }
    std::str::from_utf8(&b[start..*pos]).ok()?.parse::<f64>().ok().map(Json::Num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Json::obj([
            ("name", Json::Str("1 fail \"recovery\"".into())),
            ("total_s", Json::Num(1.25)),
            ("recoveries", Json::num_u64(2)),
            ("ok", Json::Bool(true)),
            ("scan", Json::Null),
            ("epochs", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(back, v);
        assert_eq!(back.get("recoveries").and_then(Json::as_u64), Some(2));
        assert_eq!(back.get("total_s").and_then(Json::as_f64), Some(1.25));
        assert_eq!(back.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(back.get("epochs").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::num_u64(42).render(), "42");
        assert_eq!(Json::Num(0.5).render(), "0.5");
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Json::parse("{\"a\":}"), None);
        assert_eq!(Json::parse("[1,2"), None);
        assert_eq!(Json::parse("true false"), None);
        assert_eq!(Json::parse(""), None);
    }

    #[test]
    fn parses_escapes_and_whitespace() {
        let v = Json::parse(" { \"k\" : \"a\\nb\\u0041\" , \"n\" : -2.5e1 } ").unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some("a\nbA"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-25.0));
    }
}
