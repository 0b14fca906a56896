//! Compact and pretty JSON serializers.
//!
//! Output is valid RFC 8259: strings are escaped, non-finite floats cannot
//! occur (rejected at [`crate::Value`] construction), and integers print
//! exactly. Floats print as their shortest round-trip decimal (see
//! [`crate::write_f64`]), with a trailing `.0` added to integral floats so
//! the float/integer distinction survives a round trip of the *serialized
//! text* (`5.0` stays a float).

use crate::num::{write_f64, write_i64};
use crate::{Number, Value};

/// Serializes compactly (no whitespace).
pub fn to_string(value: &Value) -> String {
    String::from_utf8(to_vec(value)).expect("the serializer emits UTF-8")
}

/// Serializes compactly into bytes (a response body).
pub fn to_vec(value: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Serializes with 2-space indentation, for web-UI display and logs.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = Vec::new();
    write_value(&mut out, value, Some(2), 0);
    String::from_utf8(out).expect("the serializer emits UTF-8")
}

fn write_value(out: &mut Vec<u8>, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(true) => out.extend_from_slice(b"true"),
        Value::Bool(false) => out.extend_from_slice(b"false"),
        Value::Number(Number::Int(i)) => write_i64(out, *i),
        Value::Number(Number::Float(f)) => write_f64(out, *f),
        Value::String(s) => write_str(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.extend_from_slice(b"[]");
                return;
            }
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(b']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.extend_from_slice(b"{}");
                return;
            }
            out.push(b'{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                newline_indent(out, indent, level + 1);
                write_str(out, k);
                out.push(b':');
                if indent.is_some() {
                    out.push(b' ');
                }
                write_value(out, v, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(b'}');
        }
    }
}

fn newline_indent(out: &mut Vec<u8>, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push(b'\n');
        out.resize(out.len() + width * level, b' ');
    }
}

/// Appends `[`, each item through `write` with commas between, and `]`:
/// the array form for callers that write a reply without a [`Value`].
pub fn write_array<I: IntoIterator>(
    out: &mut Vec<u8>,
    items: I,
    mut write: impl FnMut(&mut Vec<u8>, I::Item),
) {
    out.push(b'[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write(out, item);
    }
    out.push(b']');
}

/// Appends `s` as a quoted JSON string. Runs of bytes that need no escape
/// (everything but `"`, `\` and controls below 0x20; multi-byte UTF-8
/// passes through) are copied whole.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0C => out.extend_from_slice(b"\\f"),
            _ => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[(b >> 4) as usize],
                HEX[(b & 15) as usize],
            ]),
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, parse, Value};

    #[test]
    fn compact_output() {
        let v = json!({"a": [1, 2.5, "x"], "b": null});
        assert_eq!(to_string(&v), r#"{"a":[1,2.5,"x"],"b":null}"#);
    }

    #[test]
    fn pretty_output() {
        let v = json!({"a": [1], "b": {}});
        let pretty = to_string_pretty(&v);
        assert_eq!(pretty, "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}");
    }

    #[test]
    fn escaping() {
        let v = Value::from("line1\nline2\t\"quoted\" \\ \u{1}");
        let s = to_string(&v);
        assert_eq!(s, "\"line1\\nline2\\t\\\"quoted\\\" \\\\ \\u0001\"");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn string_escape_table() {
        for (input, want) in [
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("\"", r#""\"""#),
            ("\\", r#""\\""#),
            ("a\"b\\c", r#""a\"b\\c""#),
            ("\n\r\t", r#""\n\r\t""#),
            ("\u{8}\u{c}", r#""\b\f""#),
            ("\u{0}\u{1f}", r#""\u0000\u001f""#),
            ("\u{7f}", "\"\u{7f}\""),
            ("\"\"", r#""\"\"""#),
            ("tail\n", r#""tail\n""#),
            ("\nhead", r#""\nhead""#),
            ("é\u{1}世界\"😀", "\"é\\u0001世界\\\"😀\""),
        ] {
            let mut out = Vec::new();
            write_str(&mut out, input);
            assert_eq!(String::from_utf8(out).unwrap(), want, "{input:?}");
        }
    }

    #[test]
    fn integral_float_keeps_float_form() {
        let v = Value::from(5.0);
        assert_eq!(to_string(&v), "5.0");
        // ...and round-trips numerically equal to the integer 5.
        assert_eq!(parse("5.0").unwrap(), Value::from(5));
    }

    #[test]
    fn integer_exactness() {
        let v = Value::from(i64::MAX);
        assert_eq!(to_string(&v), "9223372036854775807");
        assert_eq!(parse(&to_string(&v)).unwrap().as_i64(), Some(i64::MAX));
    }

    #[test]
    fn unicode_passthrough() {
        let v = Value::from("héllo 世界 😀");
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn empty_containers_stay_compact_even_pretty() {
        assert_eq!(to_string_pretty(&json!([])), "[]");
        assert_eq!(to_string_pretty(&json!({})), "{}");
    }

    #[test]
    fn display_matches_compact() {
        let v = json!({"k": [true, false]});
        assert_eq!(v.to_string(), to_string(&v));
    }
}
