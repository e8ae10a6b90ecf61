//! Offline stand-in for the parts of `serde_json` 1.x this workspace uses:
//! [`to_string`], [`to_string_pretty`] and [`from_str`], mapped through the
//! serde shim's [`Value`] tree.
//!
//! Non-finite floats (which JSON cannot express) are written as `null`
//! (NaN) or `±1e999` (infinities, which parse back as `±inf`).
//!
//! The parser recurses once per nesting level, so [`from_str`] rejects
//! input nested deeper than 128 levels with an error instead of
//! overflowing the stack (the limit upstream `serde_json` uses).

pub use serde::{Error, Value};

/// Serializes a value to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to human-readable, two-space-indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// The deepest array/object nesting [`from_str`] accepts.
const MAX_DEPTH: usize = 128;

/// Parses a value from JSON text.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    T::from_value(&v)
}

// --- writer --------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => write_compound(
            out,
            indent,
            depth,
            '[',
            ']',
            items.len(),
            |out, i, ind, d| write_value(&items[i], out, ind, d),
        ),
        Value::Map(pairs) => write_compound(
            out,
            indent,
            depth,
            '{',
            '}',
            pairs.len(),
            |out, i, ind, d| {
                write_string(&pairs[i].0, out);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                write_value(&pairs[i].1, out, ind, d)
            },
        ),
    }
}

fn write_compound(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize, Option<usize>, usize),
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
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        write_item(out, i, indent, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_float(f: f64, out: &mut String) {
    if f.is_nan() {
        out.push_str("null");
    } else if f == f64::INFINITY {
        out.push_str("1e999");
    } else if f == f64::NEG_INFINITY {
        out.push_str("-1e999");
    } else {
        // Rust's shortest-roundtrip formatting; integral values print
        // without a fraction ("1"), which is still a valid JSON number.
        out.push_str(&f.to_string());
    }
}

fn write_string(s: &str, out: &mut String) {
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

// --- parser --------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::msg(format!("{msg} at offset {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                self.pos += 1;
                let v = if open == b'[' {
                    self.parse_seq()
                } else {
                    self.parse_map()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// The items of an array whose `[` was just consumed.
    fn parse_seq(&mut self) -> Result<Value, Error> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// The pairs of an object whose `{` was just consumed.
    fn parse_map(&mut self) -> Result<Value, Error> {
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.parse_value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bare escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.parse_hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(i) = stripped.parse::<u64>() {
                    if i == 0 {
                        return Ok(Value::Float(-0.0)); // preserve the sign bit
                    }
                    if i <= i64::MAX as u64 {
                        return Ok(Value::Int(-(i as i64)));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_roundtrip() {
        let v = vec![(1u32, 2.5f64), (3, -0.125)];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[[1,2.5],[3,-0.125]]");
        let back: Vec<(u32, f64)> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_indents() {
        let v = vec![1u32, 2];
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "[\n  1,\n  2\n]");
    }

    #[test]
    fn strings_escape() {
        let s = to_string(&"a\"b\\c\nd\u{1}").unwrap();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let back: String = from_str(&s).unwrap();
        assert_eq!(back, "a\"b\\c\nd\u{1}");
    }

    #[test]
    fn special_floats() {
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "1e999");
        let inf: f64 = from_str("1e999").unwrap();
        assert_eq!(inf, f64::INFINITY);
        let nan: f64 = from_str(&to_string(&f64::NAN).unwrap()).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn float_values_roundtrip_exactly() {
        for x in [0.1f64, 1.0 / 3.0, 1e-300, 123456.789012345, -0.0] {
            let back: f64 = from_str(&to_string(&x).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("1.5trailing").is_err());
        assert!(from_str::<Vec<u32>>("[1,]").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| {
            let outer = depth - 1;
            format!("{}{{}}{}", "{\"k\":".repeat(outer), "}".repeat(outer))
        };
        // At the limit: arrays, objects and a mix all parse.
        assert!(from_str::<Value>(&arrays(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&objects(MAX_DEPTH)).is_ok());
        let half = MAX_DEPTH / 2;
        let mixed = format!("{}{}", "[{\"k\":".repeat(half), "}]".repeat(half));
        assert!(from_str::<Value>(&mixed.replacen(":}", ":0}", 1)).is_ok());
        // One level past it: a parse error, not a stack overflow.
        let err = from_str::<Value>(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        assert!(from_str::<Value>(&objects(MAX_DEPTH + 1)).is_err());
        // Far past it, on a thread with a small stack.
        let deep = "[".repeat(100_000);
        let res = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || from_str::<Value>(&deep).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(res);
    }
}
