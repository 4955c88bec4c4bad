//! Scalar type system: [`DataType`] and [`Value`].
//!
//! The engine supports the five scalar types the paper's examples and the
//! Yahoo! benchmark need. Timestamps are microseconds since the Unix
//! epoch, mirroring Spark SQL's `TimestampType` resolution.
//!
//! [`Value`] implements a *total* order and hash (NaN compares equal to
//! NaN and after all other floats; NULL sorts first) so it can serve as a
//! grouping/join key and a sort key, exactly like Spark SQL's ordering.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{Result, SsError};

/// The type of a column or scalar value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    Boolean,
    Int64,
    Float64,
    Utf8,
    /// Microseconds since the Unix epoch.
    Timestamp,
}

impl DataType {
    /// True if the type is numeric (participates in arithmetic and
    /// `sum`/`avg` aggregation).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }

    /// The common type two operands are coerced to for arithmetic or
    /// comparison, or an error if none exists.
    ///
    /// Coercions: Int64 + Float64 -> Float64; Timestamp and Int64 are
    /// mutually comparable via Int64 microseconds (as in Spark where a
    /// timestamp can be cast to a long).
    pub fn common_type(self, other: DataType) -> Result<DataType> {
        use DataType::*;
        if self == other {
            return Ok(self);
        }
        match (self, other) {
            (Int64, Float64) | (Float64, Int64) => Ok(Float64),
            (Int64, Timestamp) | (Timestamp, Int64) => Ok(Timestamp),
            (a, b) => Err(SsError::Type(format!(
                "no common type for {a:?} and {b:?}"
            ))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Boolean => "BOOLEAN",
            DataType::Int64 => "BIGINT",
            DataType::Float64 => "DOUBLE",
            DataType::Utf8 => "STRING",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A scalar value.
///
/// Strings are `Arc<str>` so cloning rows through joins, state stores and
/// sinks is a reference-count bump, not an allocation (per the Rust
/// Performance Book's guidance on hot `clone` calls).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Boolean(bool),
    Int64(i64),
    Float64(f64),
    Utf8(Arc<str>),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Utf8(Arc::from(s.as_ref()))
    }

    /// The value's type, or `None` for NULL (which is typeless).
    #[inline]
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Utf8(_) => Some(DataType::Utf8),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate heap + inline footprint of this value in bytes, used
    /// by the state store's memory accounting. Strings add their UTF-8
    /// length (the `Arc<str>` payload); everything else is inline in
    /// the enum.
    pub fn approx_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Value>();
        match self {
            Value::Utf8(s) => inline + s.len(),
            _ => inline,
        }
    }

    /// Extract a boolean, treating NULL as `None`.
    pub fn as_bool(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Boolean(b) => Ok(Some(*b)),
            other => Err(SsError::Type(format!("expected BOOLEAN, got {other}"))),
        }
    }

    /// Extract an i64 from Int64 or Timestamp.
    pub fn as_i64(&self) -> Result<Option<i64>> {
        match self {
            Value::Null => Ok(None),
            Value::Int64(v) | Value::Timestamp(v) => Ok(Some(*v)),
            other => Err(SsError::Type(format!("expected BIGINT, got {other}"))),
        }
    }

    /// Extract an f64, widening Int64.
    pub fn as_f64(&self) -> Result<Option<f64>> {
        match self {
            Value::Null => Ok(None),
            Value::Float64(v) => Ok(Some(*v)),
            Value::Int64(v) => Ok(Some(*v as f64)),
            other => Err(SsError::Type(format!("expected DOUBLE, got {other}"))),
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Result<Option<&str>> {
        match self {
            Value::Null => Ok(None),
            Value::Utf8(s) => Ok(Some(s)),
            other => Err(SsError::Type(format!("expected STRING, got {other}"))),
        }
    }

    /// Cast to the target type, following Spark-style cast semantics for
    /// the supported pairs. Casting NULL yields NULL.
    pub fn cast_to(&self, ty: DataType) -> Result<Value> {
        use DataType as T;
        use Value as V;
        Ok(match (self, ty) {
            (V::Null, _) => V::Null,
            (v, t) if v.data_type() == Some(t) => v.clone(),
            (V::Int64(v), T::Float64) => V::Float64(*v as f64),
            (V::Float64(v), T::Int64) => V::Int64(*v as i64),
            (V::Int64(v), T::Timestamp) => V::Timestamp(*v),
            (V::Timestamp(v), T::Int64) => V::Int64(*v),
            (V::Boolean(b), T::Int64) => V::Int64(*b as i64),
            (V::Utf8(s), T::Int64) => V::Int64(
                s.parse::<i64>()
                    .map_err(|e| SsError::Type(format!("cannot cast '{s}' to BIGINT: {e}")))?,
            ),
            (V::Utf8(s), T::Float64) => V::Float64(
                s.parse::<f64>()
                    .map_err(|e| SsError::Type(format!("cannot cast '{s}' to DOUBLE: {e}")))?,
            ),
            (v, T::Utf8) => Value::str(v.to_string()),
            (v, t) => {
                return Err(SsError::Type(format!("cannot cast {v} to {t}")));
            }
        })
    }

    /// Total-order comparison: NULL < everything; NaN == NaN and NaN >
    /// all non-NaN floats; cross-numeric comparisons widen to f64;
    /// Timestamp and Int64 compare by microseconds.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Boolean(a), Boolean(b)) => a.cmp(b),
            (Int64(a), Int64(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Int64(a), Timestamp(b)) | (Timestamp(a), Int64(b)) => a.cmp(b),
            (Float64(a), Float64(b)) => a.total_cmp(b),
            (Int64(a), Float64(b)) => (*a as f64).total_cmp(b),
            (Float64(a), Int64(b)) => a.total_cmp(&(*b as f64)),
            (Utf8(a), Utf8(b)) => a.as_ref().cmp(b.as_ref()),
            // Mixed incomparable types: order by a stable type rank so
            // sorting never panics (the analyzer prevents this case in
            // well-typed plans).
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Boolean(_) => 1,
        Value::Int64(_) => 2,
        Value::Float64(_) => 3,
        Value::Timestamp(_) => 4,
        Value::Utf8(_) => 5,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
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
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Boolean(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int64 and Timestamp hash identically to how they compare.
            Value::Int64(v) | Value::Timestamp(v) => {
                2u8.hash(state);
                v.hash(state);
            }
            Value::Float64(v) => {
                // Hash consistently with total_cmp equality: an integral
                // float must hash like the equal Int64 would, because
                // Int64(2) == Float64(2.0) under total_cmp.
                if v.fract() == 0.0 && *v >= i64::MIN as f64 && *v <= i64::MAX as f64 {
                    2u8.hash(state);
                    (*v as i64).hash(state);
                } else {
                    3u8.hash(state);
                    v.to_bits().hash(state);
                }
            }
            Value::Utf8(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Utf8(s) => f.write_str(s),
            Value::Timestamp(v) => write!(f, "{}", crate::time::format_timestamp(*v)),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Utf8(Arc::from(v.as_str()))
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn common_type_coercions() {
        assert_eq!(
            DataType::Int64.common_type(DataType::Float64).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            DataType::Timestamp.common_type(DataType::Int64).unwrap(),
            DataType::Timestamp
        );
        assert!(DataType::Utf8.common_type(DataType::Int64).is_err());
    }

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int64(1), Value::Null, Value::Int64(-5)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int64(-5));
    }

    #[test]
    fn nan_equals_nan_for_grouping() {
        let a = Value::Float64(f64::NAN);
        let b = Value::Float64(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        // NaN sorts after all other floats under total order.
        assert!(Value::Float64(f64::INFINITY) < a);
    }

    #[test]
    fn cross_numeric_eq_and_hash_agree() {
        let i = Value::Int64(2);
        let f = Value::Float64(2.0);
        assert_eq!(i, f);
        assert_eq!(hash_of(&i), hash_of(&f));
        let t = Value::Timestamp(2);
        assert_eq!(i, t);
        assert_eq!(hash_of(&i), hash_of(&t));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Int64(3).cast_to(DataType::Float64).unwrap(),
            Value::Float64(3.0)
        );
        assert_eq!(
            Value::str("42").cast_to(DataType::Int64).unwrap(),
            Value::Int64(42)
        );
        assert_eq!(Value::Null.cast_to(DataType::Utf8).unwrap(), Value::Null);
        assert!(Value::str("abc").cast_to(DataType::Int64).is_err());
        assert_eq!(
            Value::Boolean(true).cast_to(DataType::Int64).unwrap(),
            Value::Int64(1)
        );
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int64(7).as_i64().unwrap(), Some(7));
        assert_eq!(Value::Timestamp(7).as_i64().unwrap(), Some(7));
        assert_eq!(Value::Null.as_i64().unwrap(), None);
        assert!(Value::str("x").as_i64().is_err());
        assert_eq!(Value::Int64(7).as_f64().unwrap(), Some(7.0));
        assert_eq!(Value::str("x").as_str().unwrap(), Some("x"));
        assert!(Value::Int64(1).as_bool().is_err());
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(1i64), Value::Int64(1));
        assert_eq!(Value::from(Some(2i64)), Value::Int64(2));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from("hi"), Value::str("hi"));
    }

    #[test]
    fn serde_round_trip() {
        let vals = vec![
            Value::Null,
            Value::Boolean(true),
            Value::Int64(-9),
            Value::Float64(1.5),
            Value::str("héllo"),
            Value::Timestamp(1_234_567),
        ];
        let json = serde_json::to_string(&vals).unwrap();
        let back: Vec<Value> = serde_json::from_str(&json).unwrap();
        assert_eq!(vals, back);
    }
}
