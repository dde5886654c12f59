//! The unified document tree shared by JSON, XML and CSV.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// A numeric value, preserving the integer/float distinction so wrapper
/// attributes keep their source types (e.g. Players API `weight: 159` vs
/// `height: 170.18`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    Int(i64),
    Float(f64),
}

impl Number {
    /// The value as an `f64` (lossless for floats, convertible for ints).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as an `i64` when it is an integer (or an integral float).
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::Int(i) => Some(i),
            Number::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(f as i64),
            Number::Float(_) => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(i) => write!(f, "{i}"),
            Number::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

impl From<i64> for Number {
    fn from(v: i64) -> Self {
        Number::Int(v)
    }
}

impl From<f64> for Number {
    fn from(v: f64) -> Self {
        Number::Float(v)
    }
}

/// A document value: the common shape of parsed JSON, XML and CSV data.
///
/// Objects use a `BTreeMap` so iteration (and therefore flattening, printing
/// and schema extraction) is deterministic — MDM's schema-extraction step
/// relies on stable attribute order when deriving wrapper signatures.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Shorthand integer constructor.
    pub fn int(v: i64) -> Self {
        Value::Number(Number::Int(v))
    }

    /// Shorthand float constructor.
    pub fn float(v: f64) -> Self {
        Value::Number(Number::Float(v))
    }

    /// Shorthand string constructor.
    pub fn string(v: impl Into<String>) -> Self {
        Value::String(v.into())
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Self {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Self {
        Value::Array(items.into_iter().collect())
    }

    /// The object map, when this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The array items, when this value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string content, when this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this value is numeric.
    pub fn as_number(&self) -> Option<Number> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, when this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Looks up a key in an object; `None` for other shapes.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|map| map.get(key))
    }

    /// Indexes into an array; `None` for other shapes or out of range.
    pub fn at(&self, index: usize) -> Option<&Value> {
        self.as_array().and_then(|items| items.get(index))
    }

    /// A scalar rendering for 1NF flattening: numbers/strings/bools render
    /// naturally, null renders as empty, arrays/objects are `None` (they are
    /// not scalars and must be flattened structurally).
    pub fn scalar_text(&self) -> Option<String> {
        Scalar::of(self).map(Scalar::to_text)
    }

    /// A short name for the value's shape, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// One 1NF cell as flattening hands it out: a scalar borrowed from its
/// document (or a CSV field), rendered to text only when a consumer asks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scalar<'a> {
    Null,
    Bool(bool),
    Number(Number),
    Str(&'a str),
}

impl<'a> Scalar<'a> {
    /// `value` as a cell; `None` for arrays and objects, which are not
    /// scalars.
    pub fn of(value: &'a Value) -> Option<Scalar<'a>> {
        match value {
            Value::Null => Some(Scalar::Null),
            Value::Bool(b) => Some(Scalar::Bool(*b)),
            Value::Number(n) => Some(Scalar::Number(*n)),
            Value::String(s) => Some(Scalar::Str(s)),
            Value::Array(_) | Value::Object(_) => None,
        }
    }

    /// The cell's text, as [`Value::scalar_text`] renders it: a string is
    /// borrowed, a number is written into `scratch`, null is empty.
    pub fn text<'s>(self, scratch: &'s mut String) -> &'s str
    where
        'a: 's,
    {
        match self {
            Scalar::Null => "",
            Scalar::Bool(true) => "true",
            Scalar::Bool(false) => "false",
            Scalar::Number(n) => {
                scratch.clear();
                // `fmt::Write` for `String` cannot fail.
                let _ = write!(scratch, "{n}");
                scratch
            }
            Scalar::Str(s) => s,
        }
    }

    /// The cell's text as an owned string.
    pub fn to_text(self) -> String {
        match self {
            Scalar::Number(n) => n.to_string(),
            // Only a number writes into the scratch, so this one stays empty.
            other => other.text(&mut String::new()).to_string(),
        }
    }
}

impl From<Scalar<'_>> for Value {
    fn from(scalar: Scalar<'_>) -> Value {
        match scalar {
            Scalar::Null => Value::Null,
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Number(n) => Value::Number(n),
            Scalar::Str(s) => Value::string(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_preserves_int_float_distinction() {
        assert_eq!(Number::Int(159).as_i64(), Some(159));
        assert_eq!(Number::Float(170.18).as_i64(), None);
        assert_eq!(Number::Float(25.0).as_i64(), Some(25));
        assert_eq!(Number::Int(2).as_f64(), 2.0);
    }

    #[test]
    fn number_display_forms() {
        assert_eq!(Number::Int(42).to_string(), "42");
        assert_eq!(Number::Float(170.18).to_string(), "170.18");
        assert_eq!(Number::Float(25.0).to_string(), "25.0");
    }

    #[test]
    fn object_builder_and_accessors() {
        let player = Value::object([
            ("name", Value::string("Lionel Messi")),
            ("height", Value::float(170.18)),
            ("team_id", Value::int(25)),
        ]);
        assert_eq!(player.get("name").unwrap().as_str(), Some("Lionel Messi"));
        assert_eq!(
            player.get("team_id").unwrap().as_number().unwrap().as_i64(),
            Some(25)
        );
        assert!(player.get("missing").is_none());
    }

    #[test]
    fn array_accessors() {
        let arr = Value::array([Value::int(1), Value::int(2)]);
        assert_eq!(arr.at(1).unwrap().as_number().unwrap().as_i64(), Some(2));
        assert!(arr.at(2).is_none());
        assert!(arr.get("x").is_none());
    }

    #[test]
    fn scalar_text_rules() {
        assert_eq!(Value::Null.scalar_text(), Some(String::new()));
        assert_eq!(Value::Bool(true).scalar_text(), Some("true".into()));
        assert_eq!(Value::string("x").scalar_text(), Some("x".into()));
        assert_eq!(Value::array([]).scalar_text(), None);
        assert_eq!(Value::object::<String>([]).scalar_text(), None);
    }

    #[test]
    fn object_iteration_is_sorted() {
        let v = Value::object([("b", Value::int(1)), ("a", Value::int(2))]);
        let keys: Vec<_> = v.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Null.kind(), "null");
        assert_eq!(Value::int(1).kind(), "number");
        assert_eq!(Value::array([]).kind(), "array");
    }
}
