//! A strict RFC 8259 pull reader, and the tree parser built on it.
//!
//! [`Reader`] walks JSON text one token at a time: a decoder asks what
//! comes next ([`Reader::peek`]), steps into objects and arrays
//! ([`Reader::begin_object`], [`Reader::next_key`],
//! [`Reader::begin_array`], [`Reader::next_element`]), reads the scalars
//! it wants ([`Reader::string`], [`Reader::number`]) and skips or builds
//! a tree of the rest ([`Reader::skip`], [`Reader::value`]). A decoder
//! can so fill its own columns straight from the text, with no [`Value`]
//! in between. [`parse`] is the same reader building a tree, so the two
//! accept exactly the same documents: UTF-8 text (a `&str`), strict
//! RFC 8259 syntax, nesting no deeper than [`Reader::MAX_DEPTH`], and
//! nothing but whitespace after the document ([`Reader::finish`]).
//!
//! Rejects trailing garbage, trailing commas, unquoted keys, single quotes
//! (with one documented exception below), control characters in strings,
//! and nesting deeper than [`Reader::MAX_DEPTH`]. Reports errors with
//! 1-based line and column.
//!
//! **Paper-compat note:** Fig. 4 of the SensorSafe paper writes privacy
//! rules with single-quoted strings (`'Consumer': ['Bob']`), which is not
//! valid JSON. [`Reader::lenient`] accepts single-quoted strings so the
//! paper's figures parse verbatim; the default [`parse`] entry point stays
//! strict.

use crate::num::EXACT_POW10;
use crate::{Map, Number, Value};
use std::borrow::Cow;

/// A parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column (in bytes) of the offending byte.
    pub column: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document, strictly.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    Reader::new(input).document()
}

/// The kind of value that starts at the reader's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// `{`
    Object,
    /// `[`
    Array,
    /// `"`
    String,
    /// `-` or a digit
    Number,
    /// `true` or `false`
    Bool,
    /// `null`
    Null,
}

/// A pull reader over one JSON document.
///
/// Every value is read by exactly one call: [`peek`](Reader::peek) then
/// [`string`](Reader::string), [`number`](Reader::number),
/// [`value`](Reader::value) or [`skip`](Reader::skip); an object by
/// [`begin_object`](Reader::begin_object) and then
/// [`next_key`](Reader::next_key) until it returns `None`, reading each
/// member's value in between; an array by
/// [`begin_array`](Reader::begin_array) and then
/// [`next_element`](Reader::next_element) until it returns `false`,
/// reading each element in between. Errors are final: a reader that
/// returned one is not read further. A clone reads on independently from
/// where it was taken, so a decoder can come back to a value.
#[derive(Clone)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Nothing of the innermost open container has been read yet (the
    /// next step there needs no comma).
    first: bool,
    allow_single_quotes: bool,
}

impl<'a> Reader<'a> {
    /// Maximum container nesting depth; prevents stack overflow on
    /// adversarial inputs (the query API accepts JSON from the network).
    pub const MAX_DEPTH: usize = 128;

    /// A strict reader.
    pub fn new(input: &'a str) -> Self {
        Reader {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
            allow_single_quotes: false,
        }
    }

    /// A reader that additionally accepts single-quoted strings, as used
    /// in the paper's Fig. 4 rule listing.
    pub fn lenient(input: &'a str) -> Self {
        Reader {
            allow_single_quotes: true,
            ..Reader::new(input)
        }
    }

    /// Reads exactly one value followed by optional whitespace and EOF.
    pub fn document(mut self) -> Result<Value, ParseError> {
        let value = self.value()?;
        self.finish()?;
        Ok(value)
    }

    /// Ends a document whose one value has been read: only whitespace
    /// may follow it.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_whitespace();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters after document"));
        }
        Ok(())
    }

    /// The kind of the next value, or the error for a position where no
    /// value starts.
    pub fn peek(&mut self) -> Result<Token, ParseError> {
        self.skip_whitespace();
        match self.peek_byte() {
            Some(b'{') => Ok(Token::Object),
            Some(b'[') => Ok(Token::Array),
            Some(b'"') => Ok(Token::String),
            Some(b'\'') if self.allow_single_quotes => Ok(Token::String),
            Some(b't' | b'f') => Ok(Token::Bool),
            Some(b'n') => Ok(Token::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Token::Number),
            _ => Err(self.error(format!(
                "expected a value, found {}",
                self.describe_current()
            ))),
        }
    }

    /// Steps into the object that starts here.
    pub fn begin_object(&mut self) -> Result<(), ParseError> {
        self.open(b'{')
    }

    /// The next member's key (its value is read next), or `None` once
    /// the object has closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.step(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_whitespace();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Steps into the array that starts here.
    pub fn begin_array(&mut self) -> Result<(), ParseError> {
        self.open(b'[')
    }

    /// Whether another element follows (it is read next); `false` once
    /// the array has closed.
    pub fn next_element(&mut self) -> Result<bool, ParseError> {
        self.step(b']', "expected ',' or ']' in array")
    }

    /// The string that starts here, borrowed from the text unless it
    /// holds an escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.skip_whitespace();
        let quote = match self.peek_byte() {
            Some(b'"') => b'"',
            Some(b'\'') if self.allow_single_quotes => b'\'',
            _ => {
                return Err(self.error(format!(
                    "expected a string, found {}",
                    self.describe_current()
                )))
            }
        };
        self.pos += 1;
        let start = self.pos;
        loop {
            match self.peek_byte() {
                None => return Err(self.error("unterminated string")),
                Some(b) if b == quote => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                Some(b'\\') => break,
                Some(b) if b < 0x20 => return Err(self.error("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
        // An escape: copy what was scanned, then decode the rest.
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b) if b == quote => break,
                Some(b'\\') => self.parse_escape(&mut out)?,
                Some(b) if b < 0x20 => {
                    self.pos -= 1;
                    return Err(self.error("raw control character in string"));
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(first) => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is whole; copy it.
                    let start = self.pos - 1;
                    self.pos = start + utf8_len(first);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
        Ok(Cow::Owned(out))
    }

    /// The number that starts here: an `Int` when the text is an integer
    /// that fits `i64`, a finite `Float` otherwise.
    pub fn number(&mut self) -> Result<Number, ParseError> {
        self.skip_whitespace();
        let start = self.pos;
        let negative = self.peek_byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // The digits, as one integer while at most 19 of them are read
        // (past that it wraps, and only the text is used).
        let (mut mantissa, mut digits) = (0u64, 0usize);
        // Integer part: a single 0, or [1-9][0-9]*.
        match self.peek_byte() {
            Some(b'0') => {
                self.pos += 1;
                digits = 1;
                if matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                    return Err(self.error("leading zeros are not allowed"));
                }
            }
            Some(b'1'..=b'9') => self.digits(&mut mantissa, &mut digits),
            _ => return Err(self.error("invalid number: missing digits")),
        }
        let mut is_float = false;
        let mut fraction_digits = 0;
        if self.peek_byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number: missing fraction digits"));
            }
            let before = digits;
            self.digits(&mut mantissa, &mut digits);
            fraction_digits = digits - before;
        }
        let mut exponent = 0i64;
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            let negative_exponent = self.peek_byte() == Some(b'-');
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number: missing exponent digits"));
            }
            while let Some(d @ b'0'..=b'9') = self.peek_byte() {
                exponent = (exponent * 10 + (d - b'0') as i64).min(1 << 20);
                self.pos += 1;
            }
            if negative_exponent {
                exponent = -exponent;
            }
        }
        let sign = |x: f64| if negative { -x } else { x };
        if !is_float && digits <= 18 {
            let magnitude = mantissa as i64;
            return Ok(Number::Int(if negative { -magnitude } else { magnitude }));
        }
        // Clinger's fast path: an integer below 2^53 and a power of ten
        // up to 10^22 are both exact, so one multiply or divide rounds
        // the decimal correctly — the standard library's result, bit for
        // bit.
        let scale = exponent - fraction_digits as i64;
        if is_float && digits <= 19 && mantissa <= 1 << 53 && (-22..=22).contains(&scale) {
            let pow10 = EXACT_POW10[scale.unsigned_abs() as usize];
            let magnitude = mantissa as f64;
            return Ok(Number::Float(sign(if scale >= 0 {
                magnitude * pow10
            } else {
                magnitude / pow10
            })));
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
            // Integer overflowing i64: fall through to float.
        }
        let f: f64 = text
            .parse()
            .map_err(|_| self.error("number out of range"))?;
        if f.is_infinite() {
            return Err(self.error("number out of range"));
        }
        Ok(Number::Float(f))
    }

    /// The array that starts here, each element decoded by `read`: every
    /// element, or the first error `read` found in one (the elements
    /// after it are still read past, so the document is checked whole);
    /// `None`, the value read past, when no array starts here.
    pub fn array_of<T, E>(
        &mut self,
        mut read: impl FnMut(&mut Reader<'a>) -> Result<Result<T, E>, ParseError>,
    ) -> Result<Option<Result<Vec<T>, E>>, ParseError> {
        if self.peek()? != Token::Array {
            self.skip()?;
            return Ok(None);
        }
        let mut items = Ok(Vec::new());
        self.begin_array()?;
        while self.next_element()? {
            match &mut items {
                Ok(list) => match read(self)? {
                    Ok(item) => list.push(item),
                    Err(e) => items = Err(e),
                },
                Err(_) => self.skip()?,
            }
        }
        Ok(Some(items))
    }

    /// The value that starts here, as a tree.
    pub fn value(&mut self) -> Result<Value, ParseError> {
        Ok(match self.peek()? {
            Token::Object => {
                self.begin_object()?;
                let mut map = Map::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    map.insert(key.into_owned(), value);
                }
                Value::Object(map)
            }
            Token::Array => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
            Token::String => Value::String(self.string()?.into_owned()),
            Token::Number => Value::Number(self.number()?),
            Token::Bool => Value::Bool(self.literal()?),
            Token::Null => {
                self.literal()?;
                Value::Null
            }
        })
    }

    /// Reads past the value that starts here, checking it as
    /// [`value`](Reader::value) would and building nothing.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        match self.peek()? {
            Token::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Token::Array => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip()?;
                }
            }
            Token::String => drop(self.string()?),
            Token::Number => drop(self.number()?),
            Token::Bool | Token::Null => drop(self.literal()?),
        }
        Ok(())
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            message: message.into(),
            line,
            column: col,
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Reads `[0-9]*` onto `mantissa`, counting the digits in `count`.
    fn digits(&mut self, mantissa: &mut u64, count: &mut usize) {
        while let Some(d @ b'0'..=b'9') = self.peek_byte() {
            *mantissa = mantissa.wrapping_mul(10).wrapping_add((d - b'0') as u64);
            *count += 1;
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek_byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{}', found {}",
                byte as char,
                self.describe_current()
            )))
        }
    }

    fn describe_current(&self) -> String {
        match self.peek_byte() {
            Some(b) if b.is_ascii_graphic() => format!("'{}'", b as char),
            Some(b) => format!("byte 0x{b:02x}"),
            None => "end of input".to_string(),
        }
    }

    /// Opens a container at `bracket`, one level deeper.
    fn open(&mut self, bracket: u8) -> Result<(), ParseError> {
        self.skip_whitespace();
        self.depth += 1;
        if self.depth > Self::MAX_DEPTH {
            return Err(self.error("maximum nesting depth exceeded"));
        }
        self.expect(bracket)?;
        self.first = true;
        Ok(())
    }

    /// Moves to the innermost container's next item: `true` when one
    /// follows, `false` when `close` ends the container.
    fn step(&mut self, close: u8, unexpected: &str) -> Result<bool, ParseError> {
        self.skip_whitespace();
        if std::mem::take(&mut self.first) {
            if self.peek_byte() == Some(close) {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
            return Ok(true);
        }
        match self.bump() {
            Some(b',') => Ok(true),
            Some(b) if b == close => {
                self.depth -= 1;
                Ok(false)
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error(format!("{unexpected}, found {}", self.describe_current())))
            }
        }
    }

    /// `true`, `false` or `null` (as `false`).
    fn literal(&mut self) -> Result<bool, ParseError> {
        self.skip_whitespace();
        let (word, value) = match self.peek_byte() {
            Some(b't') => ("true", true),
            Some(b'f') => ("false", false),
            _ => ("null", false),
        };
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("invalid literal, expected '{word}'")))
        }
    }

    fn parse_escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        match self.bump() {
            Some(b'"') => out.push('"'),
            Some(b'\'') if self.allow_single_quotes => out.push('\''),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hi = self.parse_hex4()?;
                let ch = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require a following \uXXXX low
                    // surrogate and combine.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.error("unpaired high surrogate"));
                    }
                    let lo = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.error("unpaired low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.error("invalid unicode escape"))?
                };
                out.push(ch);
            }
            _ => return Err(self.error("invalid escape sequence")),
        }
        Ok(())
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ok(s: &str) -> Value {
        parse(s).unwrap_or_else(|e| panic!("{s:?} should parse: {e}"))
    }

    fn err(s: &str) -> ParseError {
        match parse(s) {
            Ok(v) => panic!("{s:?} should fail, parsed {v:?}"),
            Err(e) => e,
        }
    }

    #[test]
    fn scalars() {
        assert_eq!(ok("null"), Value::Null);
        assert_eq!(ok("true"), Value::Bool(true));
        assert_eq!(ok("false"), Value::Bool(false));
        assert_eq!(ok("0"), Value::from(0));
        assert_eq!(ok("-1"), Value::from(-1));
        assert_eq!(ok("3.5"), Value::from(3.5));
        assert_eq!(ok("1e3"), Value::from(1000.0));
        assert_eq!(ok("2.5e-2"), Value::from(0.025));
        assert_eq!(ok("\"hi\""), Value::from("hi"));
    }

    #[test]
    fn containers_and_whitespace() {
        assert_eq!(ok(" [ 1 , 2 ] "), json!([1, 2]));
        assert_eq!(ok("{\n\t\"a\": [true]\r}"), json!({"a": [true]}));
        assert_eq!(ok("[]"), json!([]));
        assert_eq!(ok("{}"), json!({}));
        assert_eq!(ok("[[[]]]"), json!([[[]]]));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            ok(r#""\"\\\/\b\f\n\r\t""#),
            Value::from("\"\\/\u{8}\u{c}\n\r\t")
        );
        assert_eq!(ok(r#""A""#), Value::from("A"));
        assert_eq!(ok(r#""é""#), Value::from("é"));
        // Surrogate pair: U+1F600.
        assert_eq!(ok(r#""😀""#), Value::from("😀"));
    }

    #[test]
    fn raw_utf8_passthrough() {
        assert_eq!(ok("\"héllo 世界\""), Value::from("héllo 世界"));
    }

    #[test]
    fn integer_precision() {
        assert_eq!(ok("9007199254740993").as_i64(), Some(9007199254740993));
        assert_eq!(ok("-9223372036854775808").as_i64(), Some(i64::MIN));
    }

    #[test]
    fn huge_integer_degrades_to_float() {
        let v = ok("92233720368547758080");
        assert!(v.as_f64().unwrap() > 9.2e19);
    }

    #[test]
    fn rejects_malformed() {
        err("");
        err("tru");
        err("nulll");
        err("[1,]");
        err("{\"a\":1,}");
        err("{'a':1}"); // single quotes rejected in strict mode
        err("{a:1}");
        err("[1 2]");
        err("\"unterminated");
        err("01");
        err("1.");
        err(".5");
        err("1e");
        err("+1");
        err("[1]]");
        err("{} {}");
        err("\"\x01\"");
        err(r#""\q""#);
        err(r#""\u12"#);
        err(r#""\ud800""#); // unpaired high surrogate
        err(r#""\udc00""#); // unpaired low surrogate
        err("1e99999"); // infinite
    }

    #[test]
    fn error_positions() {
        let e = err("{\n  \"a\": @\n}");
        assert_eq!(e.line, 2);
        assert_eq!(e.column, 8);
        let shown = e.to_string();
        assert!(shown.contains("line 2"), "got: {shown}");
    }

    #[test]
    fn depth_limit() {
        let deep = "[".repeat(Reader::MAX_DEPTH + 1) + &"]".repeat(Reader::MAX_DEPTH + 1);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("depth"));
        let ok_depth = "[".repeat(Reader::MAX_DEPTH) + &"]".repeat(Reader::MAX_DEPTH);
        assert!(parse(&ok_depth).is_ok());
    }

    #[test]
    fn pull_reader_walks_a_document() {
        let text = r#" {"a": [1, 2.5, "x\n"], "b": {}, "c": [[]], "d": null} "#;
        let mut r = Reader::new(text);
        assert_eq!(r.peek().unwrap(), Token::Object);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.number().unwrap(), Number::Int(1));
        // A clone reads on from here, independently.
        let mut again = r.clone();
        assert!(r.next_element().unwrap());
        assert_eq!(r.number().unwrap(), Number::Float(2.5));
        assert!(r.next_element().unwrap());
        assert_eq!(r.string().unwrap(), "x\n");
        assert!(!r.next_element().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
        r.skip().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        assert_eq!(r.value().unwrap(), json!([[]]));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("d"));
        assert_eq!(r.peek().unwrap(), Token::Null);
        r.skip().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
        assert!(again.next_element().unwrap());
        assert_eq!(again.value().unwrap(), Value::from(2.5));
    }

    #[test]
    fn array_of_decodes_until_the_first_error_and_checks_the_rest() {
        let small = |r: &mut Reader<'_>| -> Result<Result<i64, String>, ParseError> {
            Ok(match r.number()? {
                Number::Int(i) if i < 10 => Ok(i),
                n => Err(format!("{n:?}")),
            })
        };
        assert_eq!(
            Reader::new("[1, 2]").array_of(small),
            Ok(Some(Ok(vec![1, 2])))
        );
        assert_eq!(
            Reader::new("[1, 20, 30, 3]").array_of(small),
            Ok(Some(Err("Int(20)".to_string())))
        );
        assert_eq!(Reader::new("{\"a\": [1]}").array_of(small), Ok(None));
        // After the error, what follows is still read as JSON.
        assert!(Reader::new("[20, \"x]").array_of(small).is_err());
    }

    #[test]
    fn strings_without_escapes_are_borrowed() {
        let mut r = Reader::new(r#"["plain é", "esc\"aped"]"#);
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain é")));
        assert!(r.next_element().unwrap());
        assert!(matches!(r.string().unwrap(), Cow::Owned(s) if s == "esc\"aped"));
    }

    #[test]
    fn skip_keeps_every_check() {
        for bad in [
            "[1,]",
            "{\"a\" 1}",
            "\"\\q\"",
            "1e99999",
            "[01]",
            "nul",
            "{\"a\":1,}",
        ] {
            let mut r = Reader::new(bad);
            assert_eq!(
                r.skip().and_then(|()| r.finish()),
                parse(bad).map(drop),
                "{bad}"
            );
        }
        let deep = "[".repeat(Reader::MAX_DEPTH + 1) + &"]".repeat(Reader::MAX_DEPTH + 1);
        assert!(Reader::new(&deep).skip().is_err());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        assert_eq!(ok(r#"{"a":1,"a":2}"#), json!({"a": 2}));
    }

    #[test]
    fn lenient_mode_parses_paper_fig4_style() {
        let text = "{ 'Consumer': ['Bob'], 'Action': 'Allow' }";
        let v = Reader::lenient(text).document().unwrap();
        assert_eq!(v["Consumer"][0].as_str(), Some("Bob"));
        assert_eq!(v["Action"].as_str(), Some("Allow"));
        // Strict mode still refuses it.
        assert!(parse(text).is_err());
    }

    #[test]
    fn lenient_single_quote_escape() {
        let v = Reader::lenient(r"'it\'s'").document().unwrap();
        assert_eq!(v.as_str(), Some("it's"));
    }
}
