//! The JSON data model.

use crate::Map;

/// A JSON number.
///
/// Integers within `i64` range are kept exact (wave-segment timestamps are
/// millisecond epoch integers and must not lose precision); everything else
/// is an `f64`.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    /// An exact signed integer.
    Int(i64),
    /// A double-precision float. Always finite (NaN and the infinities
    /// are not representable in JSON and are rejected at construction).
    Float(f64),
}

impl Number {
    /// The value as `f64` (lossy for very large integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `i64` if it is an integer or an integral float that
    /// fits.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::Int(i) => Some(i),
            Number::Float(f) => {
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f < i64::MAX as f64 {
                    Some(f as i64)
                } else {
                    None
                }
            }
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => a == b,
            // Cross-representation comparison by numeric value, so that a
            // parse of "5" equals a parse of "5.0".
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

/// A JSON value.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (see [`Number`]).
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered members.
    Object(Map),
}

impl Value {
    /// True if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integral `Number`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The unsigned integer payload, if this is a non-negative integral
    /// `Number`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The numeric payload as `f64`, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The string payload, if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutable elements, if this is an `Array`.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The member map, if this is an `Object`.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable member map, if this is an `Object`.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup that tolerates non-objects (returns `None`).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Array element lookup that tolerates non-arrays (returns `None`).
    pub fn at(&self, index: usize) -> Option<&Value> {
        self.as_array().and_then(|a| a.get(index))
    }

    /// Looks up a dotted path, e.g. `v.path("header.start_time")`.
    /// Numeric path components index into arrays.
    pub fn path(&self, dotted: &str) -> Option<&Value> {
        let mut cur = self;
        for part in dotted.split('.') {
            cur = match part.parse::<usize>() {
                Ok(i) => cur.at(i)?,
                Err(_) => cur.get(part)?,
            };
        }
        Some(cur)
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Collects the string elements of an array value; a lone string is
    /// treated as a one-element array (privacy rules in the paper write
    /// both `"Consumer": "Bob"` and `"Consumer": ["Bob"]`).
    pub fn as_string_list(&self) -> Option<Vec<String>> {
        match self {
            Value::String(s) => Some(vec![s.clone()]),
            Value::Array(items) => items
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect(),
            _ => None,
        }
    }
}

/// Panicking indexing for ergonomic test/access code: missing members and
/// out-of-range elements yield `Value::Null` rather than panicking, like
/// `serde_json`.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.at(index).unwrap_or(&NULL)
    }
}

impl std::fmt::Display for Value {
    /// Compact serialization.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::to_string(self))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Number(Number::Int(i as i64))
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Number(Number::Int(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Number(Number::Int(i as i64))
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Self {
        if let Ok(v) = i64::try_from(i) {
            Value::Number(Number::Int(v))
        } else {
            Value::Number(Number::Float(i as f64))
        }
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::from(i as u64)
    }
}
impl From<f64> for Value {
    /// NaN and the infinities are not representable in JSON; mapped to
    /// `null` (documented lossy edge, asserted in tests).
    fn from(f: f64) -> Self {
        if f.is_finite() {
            Value::Number(Number::Float(f))
        } else {
            Value::Null
        }
    }
}
impl From<f32> for Value {
    fn from(f: f32) -> Self {
        Value::from(f as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::String(s.clone())
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Self {
        Value::Array(items.iter().cloned().map(Into::into).collect())
    }
}
impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Object(m)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_equality_across_representations() {
        assert_eq!(Value::from(5), Value::from(5.0));
        assert_ne!(Value::from(5), Value::from(5.5));
        assert_eq!(Value::from(-3.25), Value::from(-3.25));
    }

    #[test]
    fn integer_precision_preserved() {
        let big = 1_311_535_598_327_i64; // a millisecond epoch timestamp
        assert_eq!(Value::from(big).as_i64(), Some(big));
    }

    #[test]
    fn as_i64_from_integral_float() {
        assert_eq!(Value::from(7.0).as_i64(), Some(7));
        assert_eq!(Value::from(7.5).as_i64(), None);
    }

    #[test]
    fn as_u64_rejects_negative() {
        assert_eq!(Value::from(-1).as_u64(), None);
        assert_eq!(Value::from(1).as_u64(), Some(1));
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(Value::from(f64::NAN), Value::Null);
    }

    #[test]
    fn index_missing_yields_null() {
        let v = crate::json!({"a": [1]});
        assert!(v["missing"].is_null());
        assert!(v["a"][5].is_null());
        assert!(v["a"]["not_an_object"].is_null());
    }

    #[test]
    fn path_lookup() {
        let v = crate::json!({"header": {"start": 10, "channels": ["ecg", "rip"]}});
        assert_eq!(v.path("header.start").and_then(Value::as_i64), Some(10));
        assert_eq!(
            v.path("header.channels.1").and_then(Value::as_str),
            Some("rip")
        );
        assert!(v.path("header.missing.deep").is_none());
    }

    #[test]
    fn string_list_accepts_scalar_or_array() {
        assert_eq!(
            crate::json!("Bob").as_string_list(),
            Some(vec!["Bob".to_string()])
        );
        assert_eq!(
            crate::json!(["Bob", "Eve"]).as_string_list(),
            Some(vec!["Bob".to_string(), "Eve".to_string()])
        );
        assert_eq!(crate::json!([1]).as_string_list(), None);
        assert_eq!(crate::json!(42).as_string_list(), None);
    }

    #[test]
    fn option_conversion() {
        assert_eq!(Value::from(Some(3)), Value::from(3));
        assert_eq!(Value::from(None::<i64>), Value::Null);
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(crate::json!({}).type_name(), "object");
        assert_eq!(crate::json!([]).type_name(), "array");
    }
}
