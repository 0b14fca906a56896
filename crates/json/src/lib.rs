//! From-scratch JSON support for SensorSafe.
//!
//! The SensorSafe paper represents both privacy rules (Fig. 4) and wave
//! segments (Fig. 5) as JSON documents. This crate provides the JSON data
//! model ([`Value`]), a strict RFC 8259 parser ([`parse`]) built on a
//! pull reader ([`Reader`]) that decoders also use directly, to read a
//! large document straight into their own columns, compact and pretty
//! serializers, and an insertion-ordered object map ([`Map`]) so that
//! documents round-trip byte-stably. The number and string writers
//! the serializers are made of ([`write_f64`], [`write_f32`],
//! [`write_i64`], [`write_str`], [`write_array`]) are public, so a large
//! reply can be written straight into its body buffer without building a
//! [`Value`].
//!
//! # Why not `serde_json`?
//!
//! The reproduction is built only from the small set of vetted offline
//! crates; `serde_json` is not among them, and JSON is load-bearing enough
//! in the paper to deserve a fully tested substrate of its own.
//!
//! # Quickstart
//!
//! ```
//! use sensorsafe_json::{json, parse, Value};
//!
//! let rule = json!({
//!     "Consumer": ["Bob"],
//!     "LocationLabel": ["UCLA"],
//!     "Action": "Allow",
//! });
//! let text = rule.to_string();
//! let back = parse(&text).unwrap();
//! assert_eq!(rule, back);
//! assert_eq!(back["Consumer"][0].as_str(), Some("Bob"));
//! ```

mod map;
mod num;
mod parse;
mod ser;
mod value;

pub use map::Map;
pub use num::{widen_f32, write_f32, write_f64, write_i64};
pub use parse::{parse, ParseError, Reader, Token};
pub use ser::{to_string, to_string_pretty, to_vec, write_array, write_str};
pub use value::{Number, Value};

/// Build a [`Value`] with JSON-like literal syntax.
///
/// Supports nested objects, arrays, string/number/bool/null literals, and
/// arbitrary expressions that implement `Into<Value>`:
///
/// ```
/// use sensorsafe_json::json;
/// let who = "Alice";
/// let v = json!({ "user": who, "ids": [1, 2, 3], "active": true, "note": null });
/// assert_eq!(v["ids"][2].as_i64(), Some(3));
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $( $elem:tt ),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($elem) ),* ])
    };
    ({ $( $key:tt : $val:tt ),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $( map.insert(($key).to_string(), $crate::json!($val)); )*
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod macro_tests {
    use crate::Value;

    #[test]
    fn literals() {
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!(true), Value::Bool(true));
        assert_eq!(json!(false), Value::Bool(false));
        assert_eq!(json!(42), Value::from(42));
        assert_eq!(json!("hi"), Value::from("hi"));
    }

    #[test]
    fn nested() {
        let v = json!({
            "a": [1, {"b": null}, "x"],
            "c": {"d": false},
        });
        assert_eq!(v["a"][1]["b"], Value::Null);
        assert_eq!(v["c"]["d"].as_bool(), Some(false));
    }

    #[test]
    fn expressions_in_macro() {
        let n = 5;
        let v = json!({ "n": n, "twice": (n * 2) });
        assert_eq!(v["twice"].as_i64(), Some(10));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(json!([]), Value::Array(vec![]));
        assert_eq!(json!({}), Value::Object(crate::Map::new()));
    }
}
