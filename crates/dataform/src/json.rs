//! A strict JSON parser and printer (RFC 8259 subset: no duplicate-key
//! detection, `\u` escapes including surrogate pairs, full number grammar).
//!
//! This replaces the off-the-shelf JSON library the paper's Java stack used;
//! the Players API of the motivational use case (Figure 2) is served in JSON.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use crate::value::{Number, Value};

/// The deepest nesting of arrays and objects a document may have. The
/// parser recurses once per level; past this it fails instead of
/// overflowing the thread's stack on a hostile payload or request body.
pub const MAX_DEPTH: usize = 128;

/// A JSON parse error with byte offset and 1-based line/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub line: usize,
    pub column: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document. Trailing non-whitespace input is an error, and
/// so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut parser = JsonParser::new(input);
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.finish()?;
    Ok(value)
}

/// The records of a JSON document, parsed one at a time: the elements of a
/// top-level array, or the document itself when it is not an array. Only
/// the record being parsed is ever held, never the whole tree.
///
/// The stream parses with [`parse`]'s parser and grammar, the top-level
/// array counting as one level of [`MAX_DEPTH`]. It fails where `parse`
/// fails, with the same error at the same line:column, and yields
/// nothing after it. An element is yielded only once the `,` or `]` after it
/// has been read (the last one only once the document is known to end
/// there), so a document cut short yields none of the record it was cut in.
pub fn records(input: &str) -> Records<'_> {
    Records {
        parser: JsonParser::new(input),
        state: Stream::Start,
    }
}

/// The iterator [`records`] returns.
pub struct Records<'a> {
    parser: JsonParser<'a>,
    state: Stream,
}

enum Stream {
    Start,
    Array,
    Done,
}

impl Iterator for Records<'_> {
    type Item = Result<Value, JsonError>;

    fn next(&mut self) -> Option<Self::Item> {
        let parser = &mut self.parser;
        let element = match self.state {
            Stream::Done => return None,
            Stream::Start => {
                parser.skip_ws();
                self.state = Stream::Done;
                if parser.peek() != Some(b'[') {
                    // Not an array: the document is its one record.
                    return Some(parser.parse_value().and_then(|value| {
                        parser.finish()?;
                        Ok(value)
                    }));
                }
                match parser.open_array() {
                    Err(e) => return Some(Err(e)),
                    Ok(true) => return parser.finish().err().map(Err),
                    Ok(false) => self.state = Stream::Array,
                }
                parser.parse_element()
            }
            Stream::Array => parser.parse_element(),
        };
        Some(match element {
            Ok((value, false)) => Ok(value),
            Ok((value, true)) => {
                self.state = Stream::Done;
                parser.finish().map(|()| value)
            }
            Err(e) => {
                self.state = Stream::Done;
                Err(e)
            }
        })
    }
}

/// Prints a value as compact JSON.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Prints a value as pretty JSON with two-space indentation.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !map.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

/// Appends `n` the way the printer writes numbers: integral floats keep a
/// `.0`, non-finite floats degrade to `null`. Exported with
/// [`write_string`] for callers that print rows straight into a response
/// body without building a [`Value`] per cell.
pub fn write_number(out: &mut String, n: Number) {
    // `fmt::Write` for `String` cannot fail.
    let _ = match n {
        Number::Int(i) => write!(out, "{i}"),
        Number::Float(f) if !f.is_finite() => {
            // JSON has no Inf/NaN; degrade to null like most printers.
            out.push_str("null");
            Ok(())
        }
        Number::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => write!(out, "{f:.1}"),
        Number::Float(f) => write!(out, "{f}"),
    };
}

/// Appends `s` as a quoted, escaped JSON string. Each run of bytes that
/// needs no escape is copied whole; the bytes escaped are all ASCII, so a
/// run always ends on a char boundary.
pub fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (at, &byte) in s.as_bytes().iter().enumerate() {
        let control;
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => {
                let hex = |nibble: u8| HEX[usize::from(nibble)];
                control = [b'\\', b'u', b'0', b'0', hex(byte >> 4), hex(byte & 0xf)];
                std::str::from_utf8(&control).expect("an escape is ASCII")
            }
            _ => continue,
        };
        out.push_str(&s[run..at]);
        out.push_str(escape);
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct JsonParser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn new(input: &'a str) -> Self {
        JsonParser {
            input: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Enters the array or object whose bracket is at `pos`.
    fn descend(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// After the document: only whitespace may follow.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.error("trailing characters after document"));
        }
        Ok(())
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        let consumed = &self.input[..self.pos.min(self.input.len())];
        let line = consumed.iter().filter(|&&c| c == b'\n').count() + 1;
        let column = self.pos
            - consumed
                .iter()
                .rposition(|&c| c == b'\n')
                .map_or(0, |p| p + 1)
            + 1;
        JsonError {
            message: message.into(),
            line,
            column,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.peek(),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, JsonError> {
        if self.input[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.error(format!("invalid literal, expected '{kw}'")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.descend()?;
        self.bump(); // '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            self.depth -= 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected string key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                return Err(self.error("expected ':' after key"));
            }
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    self.depth -= 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        let mut items = Vec::new();
        if !self.open_array()? {
            loop {
                let (item, last) = self.parse_element()?;
                items.push(item);
                if last {
                    break;
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Array(items))
    }

    /// Consumes an array's `[`, one level deeper; true when the array is
    /// empty (its `]` consumed too).
    fn open_array(&mut self) -> Result<bool, JsonError> {
        self.descend()?;
        self.bump(); // '['
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(true);
        }
        Ok(false)
    }

    /// One array element and the `,` or `]` after it; true when that was
    /// the `]`.
    fn parse_element(&mut self) -> Result<(Value, bool), JsonError> {
        self.skip_ws();
        let value = self.parse_value()?;
        self.skip_ws();
        match self.bump() {
            Some(b',') => Ok((value, false)),
            Some(b']') => Ok((value, true)),
            _ => Err(self.error("expected ',' or ']' in array")),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.bump(); // '"'
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let first = self.parse_hex4()?;
                        let code = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: require a following \uXXXX low.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("unpaired surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                        } else if (0xDC00..0xE000).contains(&first) {
                            return Err(self.error("unpaired low surrogate"));
                        } else {
                            first
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.error("invalid unicode escape"))?,
                        );
                    }
                    _ => return Err(self.error("invalid escape")),
                },
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(_) => {
                    // Multibyte UTF-8: re-decode from the source slice.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.input[start..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let ch = s.chars().next().expect("non-empty");
                    self.pos = start + ch.len_utf8();
                    out.push(ch);
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => {
                self.bump();
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("digits required in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii");
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| self.error(format!("invalid number '{text}'")))?;
            Ok(Value::float(v))
        } else {
            match text.parse::<i64>() {
                Ok(v) => Ok(Value::int(v)),
                // Overflowing integers degrade to float like serde_json's
                // arbitrary-precision-off behaviour.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::float)
                    .map_err(|_| self.error(format!("invalid number '{text}'"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_players_api_payload() {
        // Figure 2 of the paper, verbatim.
        let doc = r#"{
            "id": 6176,
            "name": "Lionel Messi",
            "height": 170.18,
            "weight": 159,
            "rating": 94,
            "preferred_foot": "left",
            "team_id": 25
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("Lionel Messi"));
        assert_eq!(
            v.get("height").unwrap().as_number().unwrap().as_f64(),
            170.18
        );
        assert_eq!(
            v.get("team_id").unwrap().as_number().unwrap().as_i64(),
            Some(25)
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":null},true],"c":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert!(v
            .get("a")
            .unwrap()
            .at(1)
            .unwrap()
            .get("b")
            .unwrap()
            .is_null());
        assert!(v.get("c").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse("\"a\\\"b\\\\c\\nd\u{00e9}\u{1F600}\"").unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndé😀"));
    }

    #[test]
    fn rejects_unpaired_surrogate() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn number_grammar() {
        assert_eq!(parse("0").unwrap(), Value::int(0));
        assert_eq!(parse("-12").unwrap(), Value::int(-12));
        assert_eq!(parse("3.5").unwrap(), Value::float(3.5));
        assert_eq!(parse("1e3").unwrap(), Value::float(1000.0));
        assert_eq!(parse("-2.5E-1").unwrap(), Value::float(-0.25));
        assert!(parse(".5").is_err());
        assert!(parse("1.").is_err());
        assert!(parse("1e").is_err());
    }

    #[test]
    fn leading_zero_rejected_as_trailing_garbage() {
        // "01" parses "0" then fails on trailing '1'.
        assert!(parse("01").is_err());
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse(r#"{"a":1"#).is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_bad_structure() {
        assert!(parse("{1:2}").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn round_trip_compact() {
        let doc = r#"{"arr":[1,2.5,"x",null,true],"obj":{"k":"v"}}"#;
        let v = parse(doc).unwrap();
        let printed = to_string(&v);
        assert_eq!(parse(&printed).unwrap(), v);
    }

    #[test]
    fn round_trip_pretty() {
        let v = parse(r#"{"a":{"b":[1,2]},"c":"x"}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn float_formatting_round_trips_integral_floats() {
        let v = Value::float(25.0);
        assert_eq!(to_string(&v), "25.0");
        assert_eq!(parse("25.0").unwrap(), v);
    }

    #[test]
    fn huge_integer_degrades_to_float() {
        let v = parse("123456789012345678901234567890").unwrap();
        assert!(matches!(v, Value::Number(Number::Float(_))));
    }

    fn streamed(doc: &str) -> Result<Vec<Value>, JsonError> {
        records(doc).collect()
    }

    #[test]
    fn records_are_the_top_level_elements_or_the_document() {
        assert_eq!(
            streamed(r#" [ {"a":1}, 2, [3] ] "#).unwrap(),
            vec![
                Value::object([("a", Value::int(1))]),
                Value::int(2),
                Value::array([Value::int(3)]),
            ]
        );
        assert_eq!(streamed("[]").unwrap(), vec![]);
        assert_eq!(
            streamed(r#"{"a":[1]}"#).unwrap(),
            vec![parse(r#"{"a":[1]}"#).unwrap()]
        );
        assert_eq!(streamed(" 7 ").unwrap(), vec![Value::int(7)]);
    }

    #[test]
    fn records_fail_as_parse_fails() {
        for doc in [
            "", "[", "[1,", "[1 2]", "[1,2] x", "[] x", "{\"a\":1", "7 8", "[1,x]",
        ] {
            assert_eq!(streamed(doc).unwrap_err(), parse(doc).unwrap_err(), "{doc}");
        }
    }

    /// `depth` levels, alternating arrays and objects, around one number.
    fn nested(depth: usize) -> String {
        let open: String = (0..depth)
            .map(|level| if level % 2 == 0 { "[" } else { "{\"k\":" })
            .collect();
        let close: String = (0..depth)
            .rev()
            .map(|level| if level % 2 == 0 { "]" } else { "}" })
            .collect();
        format!("{open}1{close}")
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(streamed(&nested(MAX_DEPTH)).unwrap().len(), 1);
        let too_deep = nested(MAX_DEPTH + 1);
        let err = parse(&too_deep).unwrap_err();
        assert_eq!(err.message, "nesting deeper than 128 levels");
        // The opening bracket of level 129, after 64 `[` and 64 `{"k":`.
        assert_eq!((err.line, err.column), (1, 64 + 64 * 5 + 1));
        assert_eq!(streamed(&too_deep).unwrap_err(), err);
        // Far past the limit it is the same error, not a stack overflow.
        let hostile = "[".repeat(20_000);
        assert_eq!(parse(&hostile).unwrap_err().column, MAX_DEPTH + 1);
        assert_eq!(streamed(&hostile).unwrap_err().column, MAX_DEPTH + 1);
        // Depth is nesting, not a count of brackets: siblings do not add up.
        let siblings = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert_eq!(streamed(&siblings).unwrap().len(), 3);
    }

    #[test]
    fn a_record_cut_short_is_never_yielded() {
        // "[10,23" cut after "2": the parser reads a complete number 2, but
        // the element has no separator after it.
        let mut stream = records("[10,2");
        assert_eq!(stream.next().unwrap().unwrap(), Value::int(10));
        assert!(stream.next().unwrap().is_err());
        assert!(stream.next().is_none());
        // The last element waits for the end of the document.
        let mut stream = records("[1] x");
        assert!(stream.next().unwrap().is_err());
        assert!(stream.next().is_none());
    }

    #[test]
    fn control_character_rejected() {
        assert!(parse("\"a\u{0001}b\"").is_err());
    }

    #[test]
    fn string_escaping_in_printer() {
        let v = Value::string("a\"b\\c\nd\u{0007}");
        let printed = to_string(&v);
        assert_eq!(printed, "\"a\\\"b\\\\c\\nd\\u0007\"");
        assert_eq!(parse(&printed).unwrap(), v);
    }
}
