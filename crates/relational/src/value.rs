//! Relational values and tuples.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::intern::Sym;

/// A dynamically-typed relational value.
///
/// Wrapper rows are dynamically typed (their source APIs are schemaless JSON
/// and XML), so the engine types values per cell. Integers and floats compare
/// and join across types (`25` joins `25.0`): REST APIs routinely disagree on
/// numeric representation across versions, and joins over identifiers must
/// survive that.
///
/// String cells are interned [`Sym`]s, so cloning a value (and therefore a
/// tuple) never allocates: short strings are inline, long strings are
/// refcounted pool entries.
#[derive(Clone, Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Sym),
}

impl Value {
    /// Shorthand string constructor.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Sym::new(s.as_ref()))
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to floats); `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Parses a scalar from the flat text produced by
    /// `mdm_dataform::flatten`: empty → null, then int, float, bool, string.
    pub fn from_text(text: &str) -> Value {
        match TypedText::of(text) {
            TypedText::Null => Value::Null,
            TypedText::Bool(b) => Value::Bool(b),
            TypedText::Int(i) => Value::Int(i),
            TypedText::Float(f) => Value::Float(f),
            TypedText::Str(s) => Value::str(s),
        }
    }

    /// A rank for cross-type ordering: null < bool < numeric < string.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

/// A flat text typed by [`Value::from_text`]'s rules, a string left
/// borrowed: the one typing rule, shared by `from_text` and the term-column
/// builder that types payload text without building a `Value`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum TypedText<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl<'a> TypedText<'a> {
    /// Empty → null, then a canonical int (one that prints back as
    /// `text`), a float (with a `.`, `e` or `E`), a bool, a string.
    pub(crate) fn of(text: &'a str) -> TypedText<'a> {
        if text.is_empty() {
            return TypedText::Null;
        }
        if let Some(i) = canonical_int(text) {
            return TypedText::Int(i);
        }
        if text.contains('.') || text.contains('e') || text.contains('E') {
            if let Ok(f) = text.parse::<f64>() {
                return TypedText::Float(f);
            }
        }
        match text {
            "true" => TypedText::Bool(true),
            "false" => TypedText::Bool(false),
            _ => TypedText::Str(text),
        }
    }
}

/// `text` as an `i64` when `i.to_string() == text`: decimal digits with at
/// most a leading `-`, no `+`, no leading zero and no `-0` — checked on the
/// text, so typing an integer cell allocates nothing.
fn canonical_int(text: &str) -> Option<i64> {
    let i = text.parse::<i64>().ok()?;
    let digits = text.strip_prefix('-').unwrap_or(text);
    let canonical = !text.starts_with('+')
        && (!digits.starts_with('0') || (digits == "0" && digits.len() == text.len()));
    canonical.then_some(i)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            // Cross-type numeric equality via f64.
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            // total_cmp keeps NaN ordered instead of panicking.
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => cmp_int_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

/// The exact order of an int against a float, shared by `Value::cmp` and
/// the term comparator. An int sits at its exact value on `f64::total_cmp`'s
/// line, `0` at `+0.0`: NaNs stay outermost by sign, `-0.0 < 0`, and an int
/// ties a float only when it *is* that float's value. Where `|i| ≤ 2^53`
/// this equals `(i as f64).total_cmp(&f)`. Above it the rounding of
/// `as f64` ties distinct ints to one float (`2^53 == 2^53 as f64 ==
/// (2^53 + 1) as f64`), which is not transitive, and a sort over such a
/// column panics.
pub(crate) fn cmp_int_float(i: i64, f: f64) -> Ordering {
    // 2^63, exact in f64: finite floats in [-2^63, 2^63) truncate to an
    // i64 without loss.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() {
        return if f.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if f >= TWO_63 {
        return Ordering::Less;
    }
    if f < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    i.cmp(&(whole as i64)).then_with(|| {
        let fraction = f - whole;
        if fraction > 0.0 {
            Ordering::Less
        } else if fraction < 0.0 || (i == 0 && f.is_sign_negative()) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    })
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash must agree with the coercing equality: every numeric hashes
        // through its f64 bit pattern (ints are exact in f64 up to 2^53;
        // identifier values are far below that).
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(_) | Value::Float(_) => {
                2u8.hash(state);
                let f = self.as_f64().expect("numeric");
                // Normalise -0.0 to 0.0 so they hash identically (they are ==).
                let f = if f == 0.0 { 0.0 } else { f };
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

/// A row: one value per schema column.
pub type Tuple = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(25), Value::Float(25.0));
        assert_ne!(Value::Int(25), Value::Float(25.5));
        assert_ne!(Value::Int(25), Value::str("25"));
    }

    #[test]
    fn hash_agrees_with_coercing_equality() {
        let mut map: HashMap<Value, &str> = HashMap::new();
        map.insert(Value::Int(25), "team");
        assert_eq!(map.get(&Value::Float(25.0)), Some(&"team"));
    }

    #[test]
    fn ordering_is_total_and_ranked() {
        let mut values = [
            Value::str("z"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
        ];
        values.sort();
        assert!(values[0].is_null());
        assert_eq!(values[1], Value::Bool(true));
        assert_eq!(values[2], Value::Float(0.5));
        assert_eq!(values[3], Value::Int(1));
        assert_eq!(values[4], Value::str("z"));
    }

    #[test]
    fn from_text_types_correctly() {
        assert_eq!(Value::from_text(""), Value::Null);
        assert_eq!(Value::from_text("159"), Value::Int(159));
        assert_eq!(Value::from_text("170.18"), Value::Float(170.18));
        assert_eq!(Value::from_text("true"), Value::Bool(true));
        assert_eq!(Value::from_text("left"), Value::str("left"));
        assert_eq!(Value::from_text("007"), Value::str("007"));
    }

    #[test]
    fn canonical_ints_are_those_that_print_back() {
        for text in [
            "0",
            "-0",
            "00",
            "007",
            "-07",
            "+5",
            "5",
            "-5",
            "10",
            "-",
            "+",
            "",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "1_000",
            " 1",
            "1 ",
            "٣",
        ] {
            let printed_back = text.parse::<i64>().ok().filter(|i| i.to_string() == text);
            assert_eq!(canonical_int(text), printed_back, "{text:?}");
        }
    }

    proptest! {
        #[test]
        fn canonical_int_agrees_with_printing(text in "[-+]?[0-9]{0,20}") {
            let printed_back = text.parse::<i64>().ok().filter(|i| i.to_string() == text);
            prop_assert_eq!(canonical_int(&text), printed_back);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Int(25).to_string(), "25");
        assert_eq!(Value::Float(25.0).to_string(), "25.0");
        assert_eq!(Value::str("FCB").to_string(), "FCB");
    }

    const TWO_53: i64 = 1 << 53;

    /// Floats that `total_cmp` orders specially, and the edges of `i64`.
    const EDGE_FLOATS: [f64; 11] = [
        0.0,
        -0.0,
        0.5,
        -0.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        9_223_372_036_854_775_808.0,
        -9_223_372_036_854_775_808.0,
    ];
    const EDGE_INTS: [i64; 3] = [i64::MIN, i64::MIN + 1, i64::MAX];

    /// Numerics where `as f64` stops being exact (mostly), plus the edge
    /// values. Floats above 2^53 are even, so each one ties one or two ints
    /// under `as f64`.
    fn arb_edge_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            4 => (-1i64..4).prop_map(|k| Value::Int(TWO_53 + k)),
            3 => (0i64..2).prop_map(|k| Value::Float((TWO_53 + 2 * k) as f64)),
            1 => (-3i64..1).prop_map(|k| Value::Int(-TWO_53 + k)),
            1 => (0i64..2).prop_map(|k| Value::Float(-((TWO_53 + 2 * k) as f64))),
            1 => (-2i64..3).prop_map(Value::Int),
            1 => (0..EDGE_INTS.len()).prop_map(|i| Value::Int(EDGE_INTS[i])),
            2 => (0..EDGE_FLOATS.len()).prop_map(|i| Value::Float(EDGE_FLOATS[i])),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `Value::cmp` is a total order where ints and floats meet beyond
        /// 2^53: antisymmetric, transitive in `<`, `==` and mixed chains.
        #[test]
        fn cmp_is_a_total_order_across_int_and_float(
            a in arb_edge_value(),
            b in arb_edge_value(),
            c in arb_edge_value(),
        ) {
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
            prop_assert_eq!(a.cmp(&a), Ordering::Equal);
            if a.cmp(&b).is_eq() && b.cmp(&c).is_eq() {
                prop_assert!(a.cmp(&c).is_eq(), "{:?} = {:?} = {:?}", a, b, c);
            }
            if a.cmp(&b).is_le() && b.cmp(&c).is_le() {
                prop_assert!(a.cmp(&c).is_le(), "{:?} ≤ {:?} ≤ {:?}", a, b, c);
                if a.cmp(&b).is_lt() || b.cmp(&c).is_lt() {
                    prop_assert!(a.cmp(&c).is_lt(), "{:?} < {:?} ≤ {:?}", a, b, c);
                }
            }
        }

        /// A column mixing the two types sorts without the standard
        /// library's total-order panic, into non-decreasing order.
        #[test]
        fn mixed_numeric_columns_sort(values in proptest::collection::vec(arb_edge_value(), 64..96)) {
            let mut values = values;
            values.sort();
            prop_assert!(values.windows(2).all(|w| w[0].cmp(&w[1]).is_le()));
        }
    }

    #[test]
    fn int_float_order_is_exact_beyond_two_to_the_53() {
        let float = Value::Float(TWO_53 as f64);
        assert_eq!(Value::Int(TWO_53).cmp(&float), Ordering::Equal);
        assert_eq!(Value::Int(TWO_53 + 1).cmp(&float), Ordering::Greater);
        assert_eq!(
            Value::Int(-TWO_53 - 1).cmp(&Value::Float(-(TWO_53 as f64))),
            Ordering::Less
        );
        // Within ±2^53 the order is `(i as f64).total_cmp(&f)`, as before.
        assert_eq!(Value::Int(0).cmp(&Value::Float(-0.0)), Ordering::Greater);
        assert_eq!(Value::Int(0).cmp(&Value::Float(0.0)), Ordering::Equal);
        assert_eq!(
            Value::Int(i64::MAX).cmp(&Value::Float(f64::NAN)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(i64::MIN).cmp(&Value::Float(-f64::NAN)),
            Ordering::Greater
        );
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        let mut map: HashMap<Value, ()> = HashMap::new();
        map.insert(Value::Float(0.0), ());
        assert!(map.contains_key(&Value::Float(-0.0)));
        assert!(map.contains_key(&Value::Int(0)));
    }
}
