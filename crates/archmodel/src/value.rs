//! Property values.
//!
//! Architectural elements are annotated with a *property list* (§2 of the
//! paper): performance attributes such as `averageLatency`, `bandwidth`, or
//! `load`, plus configuration values such as `replicationCount`. Properties
//! are dynamically typed so the same model machinery serves any architectural
//! style.

use std::fmt;

/// A dynamically typed property value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer value (e.g. replication count, queue length).
    Int(i64),
    /// Floating point value (e.g. latency in seconds, bandwidth in bps).
    Float(f64),
    /// Boolean flag (e.g. `isActive`).
    Bool(bool),
    /// String value (e.g. a host name).
    Str(String),
    /// A set of values (e.g. the set of overloaded server groups).
    Set(Vec<Value>),
}

impl Value {
    /// The value as a float, coercing integers. `None` for other variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an integer. `None` unless it is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a boolean. `None` unless it is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice. `None` unless it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True when the value is numeric (int or float).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Numeric comparison that coerces ints and floats; `None` when either
    /// value is non-numeric and the variants differ.
    pub fn compare(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (a, b) if a.is_numeric() && b.is_numeric() => {
                a.as_f64().unwrap().partial_cmp(&b.as_f64().unwrap())
            }
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Structural equality with int/float coercion.
    pub fn loosely_equals(&self, other: &Value) -> bool {
        match (self, other) {
            (a, b) if a.is_numeric() && b.is_numeric() => {
                (a.as_f64().unwrap() - b.as_f64().unwrap()).abs() < f64::EPSILON
            }
            (a, b) => a == b,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
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
    use std::cmp::Ordering;

    #[test]
    fn numeric_coercion_in_comparison() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).compare(&Value::Int(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn incomparable_values_return_none() {
        assert_eq!(Value::Bool(true).compare(&Value::Int(1)), None);
        assert_eq!(Value::Str("a".into()).compare(&Value::Float(1.0)), None);
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(5).as_f64(), Some(5.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Int(5).as_bool(), None);
    }

    #[test]
    fn loose_equality_coerces_numbers() {
        assert!(Value::Int(3).loosely_equals(&Value::Float(3.0)));
        assert!(!Value::Int(3).loosely_equals(&Value::Float(3.1)));
        assert!(Value::Str("a".into()).loosely_equals(&Value::Str("a".into())));
    }

    #[test]
    fn display_formats_sets() {
        let v = Value::Set(vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(v.to_string(), "{1, \"x\"}");
    }

    #[test]
    fn conversions_from_rust_types() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
    }
}
