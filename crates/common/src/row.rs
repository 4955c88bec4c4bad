//! Row representation.
//!
//! Rows carry boxed [`Value`]s and are used where per-record processing
//! is inherent: state-store entries, grouping keys, stateful-operator
//! UDF inputs/outputs, and the continuous-processing engine's record
//! sink. Execution stays columnar in every engine; `RecordBatch::to_rows`
//! / `from_rows` convert at the boundary.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::types::Value;

/// A single row of values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Row(pub Vec<Value>);

impl Row {
    pub fn new(values: Vec<Value>) -> Row {
        Row(values)
    }

    pub fn empty() -> Row {
        Row(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn values(&self) -> &[Value] {
        &self.0
    }

    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Project a subset of columns into a new row (e.g. extract a
    /// grouping key).
    pub fn project(&self, indices: &[usize]) -> Row {
        Row(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend(self.0.iter().cloned());
        v.extend(other.0.iter().cloned());
        Row(v)
    }

    pub fn push(&mut self, v: Value) {
        self.0.push(v);
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }

    /// Approximate memory footprint: the `Vec` header plus each value's
    /// [`Value::approx_bytes`]. An estimate for budget enforcement, not
    /// an exact allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        Row::approx_bytes_of(&self.0)
    }

    /// [`Row::approx_bytes`] of the row holding `values`.
    pub fn approx_bytes_of(values: &[Value]) -> usize {
        std::mem::size_of::<Row>() + values.iter().map(Value::approx_bytes).sum::<usize>()
    }
}

/// A row borrows as its values (equal, ordered and hashed alike), so a
/// map keyed by rows can be probed with a slice.
impl std::borrow::Borrow<[Value]> for Row {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("]")
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row(v)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row(iter.into_iter().collect())
    }
}

impl IntoIterator for Row {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// Build a [`Row`] from a list of values convertible to [`Value`].
///
/// ```
/// use ss_common::{row, Value};
/// let r = row![1i64, "view", 2.5];
/// assert_eq!(r.get(1), &Value::str("view"));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::row::Row::new(vec![$($crate::types::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_macro_and_accessors() {
        let r = row![1i64, "x", 2.0, true];
        assert_eq!(r.len(), 4);
        assert_eq!(r.get(0), &Value::Int64(1));
        assert_eq!(r.get(3), &Value::Boolean(true));
    }

    #[test]
    fn project_extracts_key() {
        let r = row![10i64, "a", 30i64];
        assert_eq!(r.project(&[2, 0]), row![30i64, 10i64]);
    }

    #[test]
    fn concat_joins_rows() {
        let r = row![1i64].concat(&row!["x"]);
        assert_eq!(r, row![1i64, "x"]);
    }

    #[test]
    fn rows_are_hashable_and_ordered() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(row![1i64, "a"]);
        s.insert(row![1i64, "a"]);
        assert_eq!(s.len(), 1);
        let mut v = [row![2i64], row![Value::Null], row![1i64]];
        v.sort();
        assert_eq!(v[0], row![Value::Null]);
    }

    #[test]
    fn display_renders_values() {
        assert_eq!(row![1i64, "x"].to_string(), "[1, x]");
    }

    #[test]
    fn approx_bytes_counts_string_payloads() {
        let short = row![1i64, "x"];
        let long = row![1i64, "a-much-longer-string-payload"];
        assert!(long.approx_bytes() > short.approx_bytes());
        // Exact accounting: header + per-value inline size + string len.
        let expected = std::mem::size_of::<Row>()
            + 2 * std::mem::size_of::<Value>()
            + "x".len();
        assert_eq!(short.approx_bytes(), expected);
    }
}
