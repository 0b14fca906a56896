//! Property-based round-trip tests for the JSON substrate.

use proptest::prelude::*;
use sensorsafe_json::{
    parse, to_string, to_string_pretty, write_str, Map, Number, ParseError, Reader, Value,
};

/// Strategy for arbitrary JSON values with bounded depth and size.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        any::<i64>().prop_map(Value::from),
        // Finite floats only; NaN is unrepresentable in JSON.
        prop::num::f64::NORMAL.prop_map(Value::from),
        "\\PC{0,20}".prop_map(Value::from),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..8).prop_map(Value::Array),
            prop::collection::vec(("\\PC{0,12}", inner), 0..8)
                .prop_map(|pairs| { Value::Object(pairs.into_iter().collect::<Map>()) }),
        ]
    })
}

/// The string writer as it was before it copied unescaped runs in bulk:
/// one `char` at a time. Kept as the reference the fast one must match.
fn write_str_charwise(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Strings dense in what the writer must escape (quotes, backslashes,
/// every control character) between runs it must copy through untouched
/// (ASCII, DEL, 2-, 3- and 4-byte UTF-8).
fn arb_escapy_string() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        any::<char>(),
        (0u8..0x20).prop_map(char::from),
        Just('"'),
        Just('\\'),
        Just('\u{7f}'),
        Just('é'),
        Just('世'),
        Just('😀'),
    ];
    prop::collection::vec(piece, 0..48).prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    /// Bulk-copying string writer == the char-at-a-time one, byte for
    /// byte, and the text parses back to the input.
    #[test]
    fn string_writer_matches_charwise_reference(s in arb_escapy_string()) {
        let mut fast = Vec::new();
        write_str(&mut fast, &s);
        let mut reference = String::new();
        write_str_charwise(&mut reference, &s);
        prop_assert_eq!(std::str::from_utf8(&fast).unwrap(), reference.as_str());
        prop_assert_eq!(parse(&reference).unwrap(), Value::from(s));
    }

    /// Serialize → parse returns an equal value.
    #[test]
    fn compact_roundtrip(v in arb_value()) {
        let text = to_string(&v);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Pretty serialization parses back to the same value.
    #[test]
    fn pretty_roundtrip(v in arb_value()) {
        let text = to_string_pretty(&v);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Serialization is deterministic: two serializations of the same value
    /// are byte-identical (needed by the broker's rule-mirror comparison).
    #[test]
    fn serialization_deterministic(v in arb_value()) {
        prop_assert_eq!(to_string(&v), to_string(&v));
    }

    /// Parse of serialized text re-serializes to the identical bytes
    /// (canonical-form stability).
    #[test]
    fn reserialization_stable(v in arb_value()) {
        let once = to_string(&v);
        let twice = to_string(&parse(&once).unwrap());
        prop_assert_eq!(once, twice);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_total_on_garbage(s in "\\PC{0,256}") {
        let _ = parse(&s);
    }

    /// A decoder that skips what it does not want accepts exactly the
    /// documents the tree parser accepts, failing with the same error:
    /// over garbage, over valid documents cut at any byte, and over
    /// documents with one byte replaced.
    #[test]
    fn skipping_accepts_exactly_what_parse_accepts(
        garbage in "[\\[\\]{}:,\"0-9a-z. \\\\eE+-]{0,64}",
        v in arb_value(),
        cut in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let skipped = |text: &str| -> Result<(), ParseError> {
            let mut reader = Reader::new(text);
            reader.skip()?;
            reader.finish()
        };
        let text = to_string(&v);
        let at = cut % (text.len() + 1);
        let mut replaced = text.clone().into_bytes();
        if at < replaced.len() && byte.is_ascii() && replaced[at].is_ascii() {
            replaced[at] = byte;
        }
        let replaced = String::from_utf8(replaced).unwrap();
        for doc in [garbage.as_str(), &text, text.get(..at).unwrap_or(""), &replaced] {
            prop_assert_eq!(skipped(doc), parse(doc).map(drop), "{:?}", doc);
        }
    }

    /// A number reads as the standard library reads its text: an `i64`
    /// when it is an integer that fits, else the correctly rounded `f64`
    /// (bit for bit, signed zeros included) or the out-of-range error —
    /// whether or not the reader's exact fast path took it.
    #[test]
    fn numbers_read_as_the_standard_library_reads_them(
        negative in any::<bool>(),
        int in "0|[1-9][0-9]{0,24}",
        fraction in prop::option::of("[0-9]{1,24}"),
        exponent in prop::option::of((any::<bool>(), 0u32..400)),
    ) {
        let mut text = format!("{}{int}", if negative { "-" } else { "" });
        if let Some(fraction) = &fraction {
            text += &format!(".{fraction}");
        }
        if let Some((minus, e)) = exponent {
            text += &format!("e{}{e}", if minus { "-" } else { "+" });
        }
        let read = Reader::new(&text).number().map_err(|e| e.message);
        let reference = match text.parse::<i64>() {
            Ok(i) if fraction.is_none() && exponent.is_none() => Ok(Number::Int(i)),
            _ => match text.parse::<f64>().unwrap() {
                f if f.is_infinite() => Err("number out of range".to_string()),
                f => Ok(Number::Float(f)),
            },
        };
        let bits = |n: Result<Number, String>| n.map(|n| match n {
            Number::Int(i) => (0, i as u64),
            Number::Float(f) => (1, f.to_bits()),
        });
        prop_assert_eq!(bits(read), bits(reference), "{}", text);
    }

    /// Any error reported on structured-ish garbage carries a plausible
    /// position (within the input plus one line).
    #[test]
    fn errors_have_positions(s in "[\\[\\]{}:,\"0-9a-z ]{0,64}") {
        if let Err(e) = parse(&s) {
            prop_assert!(e.line >= 1);
            prop_assert!(e.column >= 1);
        }
    }
}

#[test]
fn fig5_wave_segment_shape_parses() {
    // Structure of the paper's Fig. 5 wave segment (values representative).
    let text = r#"{
        "location": {"latitude": 34.0722, "longitude": -118.4441},
        "sampling_interval": 0.02,
        "start_time": 1311535598327,
        "format": ["ecg", "respiration"],
        "data": [[512, 301], [518, 300], [530, 298]]
    }"#;
    let v = parse(text).unwrap();
    assert_eq!(v["start_time"].as_i64(), Some(1311535598327));
    assert_eq!(
        v["format"].as_string_list().unwrap(),
        ["ecg", "respiration"]
    );
    assert_eq!(v["data"][2][0].as_i64(), Some(530));
}
