//! Offline shim for `serde_json`.
//!
//! Prints and parses standard JSON over the value tree defined by the
//! workspace's `serde` shim. Output matches real serde_json conventions:
//! two-space pretty indentation, integers without a decimal point, shortest
//! round-trip float formatting, and standard string escapes.

pub use serde::{Error, Value};

/// Serializes `value` into a compact JSON string.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` into a pretty JSON string (two-space indent).
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value, Error> {
    Ok(serde::to_value(value))
}

/// Parses a JSON string into any deserializable type.
///
/// Arrays and objects may nest [`RECURSION_LIMIT`] levels deep; deeper input
/// is an error, as in real serde_json, instead of a stack overflow.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(Error::custom(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    T::from_value(&value)
}

/// Builds a [`Value`] in place: `json!(null)`, `json!([a, b])`, and
/// `json!({ "key": expr, ... })` where every value position is an expression
/// (nested objects are written as nested `json!` calls, as the workspace
/// already does).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {{
        #[allow(clippy::vec_init_then_push)]
        let entries: Vec<(String, $crate::Value)> = {
            let mut entries: Vec<(String, $crate::Value)> = Vec::new();
            $crate::json_object_entries!(entries; $($body)*);
            entries
        };
        $crate::Value::Object(entries)
    }};
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![
            $($crate::to_value(&$elem).expect("infallible")),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other).expect("infallible") };
}

/// Internal muncher for `json!` object bodies (handles `null` values).
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_entries {
    ($entries:ident;) => {};
    ($entries:ident; $key:literal : null $(, $($rest:tt)*)?) => {
        $entries.push(($key.to_string(), $crate::Value::Null));
        $crate::json_object_entries!($entries; $($($rest)*)?);
    };
    ($entries:ident; $key:literal : $val:expr $(, $($rest:tt)*)?) => {
        $entries.push(($key.to_string(), $crate::to_value(&$val).expect("infallible")));
        $crate::json_object_entries!($entries; $($($rest)*)?);
    };
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_number(out, *n),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => write_seq(out, items.iter(), indent, depth, ('[', ']'), |out, item, indent, depth| {
            write_value(out, item, indent, depth);
        }),
        Value::Object(entries) => write_seq(
            out,
            entries.iter(),
            indent,
            depth,
            ('{', '}'),
            |out, (key, val), indent, depth| {
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth);
            },
        ),
    }
}

fn write_seq<I: ExactSizeIterator, F>(
    out: &mut String,
    items: I,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    write_item: F,
) where
    F: Fn(&mut String, I::Item, Option<usize>, usize),
{
    out.push(brackets.0);
    let count = items.len();
    if count == 0 {
        out.push(brackets.1);
        return;
    }
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, item, indent, depth + 1);
        if i + 1 < count {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(brackets.1);
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // Real serde_json refuses non-finite numbers; emit null like its
        // lossy writers do.
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        // The i64 fast path below would print -0.0 as "0" and lose the sign
        // bit; real serde_json prints "-0.0", which parses back exactly.
        out.push_str("-0.0");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
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

/// How deep [`from_str`] lets arrays and objects nest: real serde_json's
/// default recursion limit.
pub const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Runs `parse` one nesting level deeper, failing past
    /// [`RECURSION_LIMIT`] levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == RECURSION_LIMIT {
            return Err(Error::custom(format!(
                "recursion limit exceeded at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::custom(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes()[start..self.pos])
            .map_err(|_| Error::custom("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
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
                                .bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::custom("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::custom("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::custom(format!("bad escape {:?}", other)));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so they never sit inside a multi-byte
                    // character and the run is a valid slice of the input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"') | Some(b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom(format!("bad array at offset {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::custom(format!("bad object at offset {}", self.pos)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = json!({
            "name": "fedcross",
            "alpha": 0.99f32,
            "rounds": 2000usize,
            "curve": vec![(0usize, 0.1f32), (10, 0.4)],
            "middleware": Some(vec![vec![1.0f32, 2.0], vec![3.0, 4.0]]),
        });
        let text = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(to_string(&42usize).unwrap(), "42");
        assert_eq!(to_string(&0.5f32).unwrap(), "0.5");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line\nwith \"quotes\" and \\slashes\\ and \tcontrol".to_string();
        let text = to_string(&original).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn corrupt_input_is_an_error() {
        assert!(from_str::<Value>("not json at all").is_err());
        assert!(from_str::<Value>("{\"unterminated\": ").is_err());
        assert!(from_str::<Value>("[1, 2,]").is_err());
        assert!(from_str::<Value>("{} trailing").is_err());
    }

    #[test]
    fn pretty_output_is_indented_like_serde_json() {
        let v = json!({ "a": 1usize, "b": vec![1usize, 2] });
        let text = to_string_pretty(&v).unwrap();
        assert_eq!(text, "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn empty_containers_stay_compact() {
        let v = json!({ "empty_list": Vec::<usize>::new() });
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"empty_list\": []\n}");
    }

    #[test]
    fn unicode_and_u_escapes_parse() {
        let back: String = from_str("\"caf\\u00e9 \\u2713\"").unwrap();
        assert_eq!(back, "café ✓");
    }

    #[test]
    fn multi_byte_characters_and_every_escape_round_trip() {
        let original = "é ✓ 🦀 \" \\ / \n \r \t \u{8} \u{c} \u{1} \u{1f} end".to_string();
        let text = to_string(&original).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, original);
        let escapes: String = from_str(r#""\"\\\/\b\f\n\r\t\u00e9🦀""#).unwrap();
        assert_eq!(escapes, "\"\\/\u{8}\u{c}\n\r\té🦀");
    }

    #[test]
    fn nesting_deeper_than_the_recursion_limit_is_an_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(RECURSION_LIMIT)).is_ok());
        assert!(from_str::<Value>(&nested(RECURSION_LIMIT + 1)).is_err());
        let objects =
            "{\"a\":".repeat(RECURSION_LIMIT + 1) + "1" + &"}".repeat(RECURSION_LIMIT + 1);
        assert!(from_str::<Value>(&objects).is_err());
        // Unclosed, far past any stack: an error, not an abort.
        assert!(from_str::<Value>(&"[".repeat(100_000)).is_err());
    }
}
