//! Typed values stored in table cells.
//!
//! The paper's data model draws attribute types from `(string, int, real, …)`.
//! [`Value`] is the dynamically typed cell representation; every value knows its
//! [`DataType`] and values of different types compare deterministically (by type
//! rank first), so values can be used as grouping keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::types::DataType;

/// A single cell value in a relational instance.
///
/// Floats are wrapped so that [`Value`] can implement `Eq`, `Ord` and `Hash`
/// (NaN is normalized to a single representation and totally ordered last among
/// floats). This makes values directly usable as keys in hash maps and B-tree
/// maps, which the matching and classification code relies on heavily.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / missing value.
    Null,
    /// 64-bit signed integer (`int` in the paper).
    Int(i64),
    /// 64-bit float (`real` in the paper).
    Float(f64),
    /// UTF-8 string (`string` / `text` in the paper).
    Str(String),
    /// Boolean flag (the paper's `instock` attribute is boolean).
    Bool(bool),
}

impl Value {
    /// Construct a string value from anything stringifiable.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// The dynamic type of this value; `Null` reports [`DataType::Unknown`].
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Unknown,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Text,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// True when the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Render the value as a plain string (no quoting). NULL renders as the
    /// empty string, which is what instance-based matchers expect when they
    /// tokenize sample data.
    pub fn as_text(&self) -> String {
        self.as_text_cow().into_owned()
    }

    /// [`Value::as_text`] without the copy for values that already are
    /// text: `Str` borrows, every other variant renders into an owned
    /// string. The matchers' profile builders walk millions of values, so
    /// the borrow matters.
    pub fn as_text_cow(&self) -> std::borrow::Cow<'_, str> {
        use std::borrow::Cow;
        match self {
            Value::Str(s) => Cow::Borrowed(s.as_str()),
            other => Cow::Owned(other.render_text()),
        }
    }

    fn render_text(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => format_float(*x),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => {
                if *b {
                    "true".into()
                } else {
                    "false".into()
                }
            }
        }
    }

    /// Numeric interpretation of the value, if it has one.
    ///
    /// Integers, floats and booleans (as 0/1) are numeric. Strings that parse as
    /// numbers are also accepted, because scraped sample data frequently stores
    /// prices or counts as text.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => s.trim().parse::<f64>().ok(),
            Value::Null => None,
        }
    }

    /// Integer interpretation, when exact.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(if *b { 1 } else { 0 }),
            Value::Float(x) if x.fract() == 0.0 => Some(*x as i64),
            Value::Str(s) => s.trim().parse::<i64>().ok(),
            _ => None,
        }
    }

    /// Parse a textual field into the value of the requested type.
    ///
    /// Empty strings parse to NULL for every type, which matches how the sample
    /// loaders treat missing fields.
    pub fn parse_as(text: &str, ty: DataType) -> Result<Value> {
        let t = text.trim();
        if t.is_empty() {
            return Ok(Value::Null);
        }
        match ty {
            DataType::Int => t
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::Parse(format!("cannot parse {t:?} as int"))),
            DataType::Float => t
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::Parse(format!("cannot parse {t:?} as float"))),
            DataType::Bool => match t.to_ascii_lowercase().as_str() {
                "true" | "t" | "yes" | "y" | "1" => Ok(Value::Bool(true)),
                "false" | "f" | "no" | "n" | "0" => Ok(Value::Bool(false)),
                _ => Err(Error::Parse(format!("cannot parse {t:?} as bool"))),
            },
            DataType::Text | DataType::Date | DataType::Unknown => Ok(Value::Str(t.to_string())),
        }
    }

    /// Rank used to order values of different types deterministically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Canonical float bits used for hashing/equality: all NaNs collapse to one
    /// representation and -0.0 is treated as 0.0.
    fn float_bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else if x == 0.0 {
            0.0f64.to_bits()
        } else {
            x.to_bits()
        }
    }
}

/// Render a float the way the sample generators and reports expect: integral
/// floats print without a trailing `.0` noise beyond two decimals.
fn format_float(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{}", x)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => Value::float_bits(*a) == Value::float_bits(*b),
            // Mixed int/float equality: 2 == 2.0, useful when generated data mixes the two.
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *b == *a as f64,
            _ => false,
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
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a
                .partial_cmp(b)
                .unwrap_or_else(|| Value::float_bits(*a).cmp(&Value::float_bits(*b))),
            (Value::Int(a), Value::Float(b)) => {
                (*a as f64).partial_cmp(b).unwrap_or(Ordering::Less)
            }
            (Value::Float(a), Value::Int(b)) => {
                a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Greater)
            }
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                // Hash ints through their float bits when integral so that
                // Int(2) and Float(2.0), which compare equal, hash identically.
                Value::float_bits(*i as f64).hash(state);
            }
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    2u8.hash(state);
                } else {
                    3u8.hash(state);
                }
                Value::float_bits(*x).hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            // SQL's own escape: a quote inside the literal is written twice,
            // so distinct strings always render distinctly.
            Value::Str(s) => {
                f.write_str("'")?;
                for (i, part) in s.split('\'').enumerate() {
                    if i > 0 {
                        f.write_str("''")?;
                    }
                    f.write_str(part)?;
                }
                f.write_str("'")
            }
            other => write!(f, "{}", other.as_text()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
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
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn data_type_of_each_variant() {
        assert_eq!(Value::Null.data_type(), DataType::Unknown);
        assert_eq!(Value::Int(1).data_type(), DataType::Int);
        assert_eq!(Value::Float(1.5).data_type(), DataType::Float);
        assert_eq!(Value::str("x").data_type(), DataType::Text);
        assert_eq!(Value::Bool(true).data_type(), DataType::Bool);
    }

    #[test]
    fn as_text_round_trips_simple_values() {
        assert_eq!(Value::Int(42).as_text(), "42");
        assert_eq!(Value::str("hardcover").as_text(), "hardcover");
        assert_eq!(Value::Bool(false).as_text(), "false");
        assert_eq!(Value::Null.as_text(), "");
    }

    #[test]
    fn numeric_interpretations() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("14.95").as_f64(), Some(14.95));
        assert_eq!(Value::str("abc").as_f64(), None);
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
        assert_eq!(Value::Float(4.0).as_i64(), Some(4));
        assert_eq!(Value::Float(4.5).as_i64(), None);
    }

    #[test]
    fn parse_as_each_type() {
        assert_eq!(Value::parse_as("12", DataType::Int).unwrap(), Value::Int(12));
        assert_eq!(Value::parse_as("3.5", DataType::Float).unwrap(), Value::Float(3.5));
        assert_eq!(Value::parse_as("Y", DataType::Bool).unwrap(), Value::Bool(true));
        assert_eq!(Value::parse_as("no", DataType::Bool).unwrap(), Value::Bool(false));
        assert_eq!(
            Value::parse_as("heart of darkness", DataType::Text).unwrap(),
            Value::str("heart of darkness")
        );
        assert_eq!(Value::parse_as("  ", DataType::Int).unwrap(), Value::Null);
        assert!(Value::parse_as("xyz", DataType::Int).is_err());
        assert!(Value::parse_as("maybe", DataType::Bool).is_err());
    }

    #[test]
    fn int_float_cross_type_equality_and_hash() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert_ne!(Value::Int(2), Value::Float(2.5));
    }

    #[test]
    fn nan_values_are_equal_to_each_other() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn ordering_within_and_across_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::Float(1.5) < Value::Int(2));
        // Null sorts before everything.
        assert!(Value::Null < Value::Int(i64::MIN));
        // Strings sort after numbers by type rank.
        assert!(Value::Int(100) < Value::str("0"));
    }

    #[test]
    fn values_work_as_set_keys() {
        let mut set = HashSet::new();
        set.insert(Value::str("reg"));
        set.insert(Value::str("sale"));
        set.insert(Value::str("reg"));
        assert_eq!(set.len(), 2);
        assert!(set.contains(&Value::str("sale")));
    }

    #[test]
    fn display_quotes_strings_only() {
        assert_eq!(Value::str("cd").to_string(), "'cd'");
        // A quote inside the literal is doubled, as SQL writes it.
        assert_eq!(Value::str("a', 'b").to_string(), "'a'', ''b'");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from(5usize), Value::Int(5));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(String::from("x")), Value::str("x"));
    }
}
