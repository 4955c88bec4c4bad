//! Typed, vectorized columns.
//!
//! [`Column`] is the reproduction's stand-in for Spark's Tungsten
//! columnar format: values of one type stored contiguously with a packed
//! validity bitmap. Expression kernels in `ss-expr` run tight loops over
//! the typed vectors (`Vec<i64>` etc.), which plays the role the paper
//! assigns to runtime code generation — no per-record boxing or dynamic
//! dispatch on the hot path.
//!
//! Selection/shuffle primitives (`filter`, `take`, `take_opt`, `slice`,
//! `concat`) are the building blocks the physical operators in `ss-exec`
//! compose.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bitmap::Bitmap;
use crate::error::{Result, SsError};
use crate::types::{DataType, Value};

/// Values of one type plus a validity bitmap (`None` = all valid;
/// set bit = valid). Null slots hold an arbitrary placeholder value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypedColumn<T> {
    values: Vec<T>,
    nulls: Option<Bitmap>,
}

impl<T: Clone> TypedColumn<T> {
    /// A fully-valid column from raw values.
    pub fn from_values(values: Vec<T>) -> TypedColumn<T> {
        TypedColumn { values, nulls: None }
    }

    /// A column from optional values; `placeholder` fills null slots.
    pub fn from_options(opts: Vec<Option<T>>, placeholder: T) -> TypedColumn<T> {
        let mut col = TypedColumn {
            values: Vec::with_capacity(opts.len()),
            nulls: None,
        };
        let mut nulls = Bitmap::new();
        let mut any_null = false;
        for o in opts {
            match o {
                Some(v) => {
                    col.values.push(v);
                    nulls.push(true);
                }
                None => {
                    col.values.push(placeholder.clone());
                    nulls.push(false);
                    any_null = true;
                }
            }
        }
        if any_null {
            col.nulls = Some(nulls);
        }
        col
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values, including placeholders in null slots.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The validity bitmap; `None` means all slots are valid.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.nulls.as_ref()
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.nulls.as_ref().is_none_or(|n| n.get(i))
    }

    /// Value at `i`, `None` if null.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if self.is_valid(i) {
            Some(&self.values[i])
        } else {
            None
        }
    }

    /// Append a value or null. The placeholder (filling null slots) is
    /// only constructed when actually needed, keeping the hot non-null
    /// path allocation-free.
    #[inline]
    pub fn push(&mut self, v: Option<T>, placeholder: impl FnOnce() -> T) {
        match v {
            Some(v) => {
                if let Some(n) = &mut self.nulls {
                    n.push(true);
                }
                self.values.push(v);
            }
            None => {
                let nulls = self.nulls.get_or_insert_with(|| Bitmap::filled(self.values.len(), true));
                nulls.push(false);
                self.values.push(placeholder());
            }
        }
    }

    /// Append `src[start..end]`: one slice copy of the values, and of
    /// the validity bits only if the range holds a NULL (so a bitmap
    /// appears exactly when value-by-value `push` would create one).
    pub fn extend_from_slice(&mut self, src: &TypedColumn<T>, start: usize, end: usize) {
        let len = self.values.len();
        match &src.nulls {
            Some(s) if (start..end).any(|i| !s.get(i)) => {
                let nulls = self.nulls.get_or_insert_with(|| Bitmap::filled(len, true));
                (start..end).for_each(|i| nulls.push(s.get(i)));
            }
            _ => self.nulls.iter_mut().for_each(|n| (start..end).for_each(|_| n.push(true))),
        }
        self.values.extend_from_slice(&src.values[start..end]);
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> TypedColumn<T> {
        assert_eq!(mask.len(), self.len(), "filter mask length mismatch");
        self.filter_rows(0, mask)
    }

    /// Keep the rows of `[start, start + mask.len())` where `mask` is
    /// true.
    pub fn filter_rows(&self, start: usize, mask: &[bool]) -> TypedColumn<T> {
        let kept = mask.iter().filter(|&&b| b).count();
        let mut values = Vec::with_capacity(kept);
        let mut nulls = self.nulls.as_ref().map(|_| Bitmap::new());
        for (i, &keep) in mask.iter().enumerate() {
            if keep {
                values.push(self.values[start + i].clone());
                if let Some(n) = &mut nulls {
                    n.push(self.is_valid(start + i));
                }
            }
        }
        TypedColumn { values, nulls }
    }

    /// Gather rows by index.
    pub fn take(&self, indices: &[usize]) -> TypedColumn<T> {
        let mut values = Vec::with_capacity(indices.len());
        let mut nulls = self.nulls.as_ref().map(|_| Bitmap::new());
        for &i in indices {
            values.push(self.values[i].clone());
            if let Some(n) = &mut nulls {
                n.push(self.is_valid(i));
            }
        }
        TypedColumn { values, nulls }
    }

    /// Gather rows by optional index; `None` produces a NULL slot (used
    /// for the non-matching side of outer joins).
    pub fn take_opt(&self, indices: &[Option<usize>], placeholder: &T) -> TypedColumn<T> {
        let mut out = TypedColumn {
            values: Vec::with_capacity(indices.len()),
            nulls: None,
        };
        for &i in indices {
            match i {
                Some(i) if self.is_valid(i) => out.push(Some(self.values[i].clone()), || placeholder.clone()),
                _ => out.push(None, || placeholder.clone()),
            }
        }
        out
    }

    /// Contiguous sub-range `[offset, offset+len)`.
    pub fn slice(&self, offset: usize, len: usize) -> TypedColumn<T> {
        let values = self.values[offset..offset + len].to_vec();
        let nulls = self.nulls.as_ref().map(|n| {
            (offset..offset + len).map(|i| n.get(i)).collect::<Bitmap>()
        });
        TypedColumn { values, nulls }
    }

    /// Concatenate multiple columns.
    pub fn concat(cols: &[&TypedColumn<T>]) -> TypedColumn<T> {
        let total: usize = cols.iter().map(|c| c.len()).sum();
        let any_null = cols.iter().any(|c| c.nulls.is_some());
        let mut values = Vec::with_capacity(total);
        let mut nulls = if any_null { Some(Bitmap::new()) } else { None };
        for c in cols {
            values.extend(c.values.iter().cloned());
            if let Some(n) = &mut nulls {
                for i in 0..c.len() {
                    n.push(c.is_valid(i));
                }
            }
        }
        TypedColumn { values, nulls }
    }

    /// Iterate as `Option<&T>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<&T>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// A typed column of values: the unit of vectorized execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    Boolean(TypedColumn<bool>),
    Int64(TypedColumn<i64>),
    Float64(TypedColumn<f64>),
    Utf8(TypedColumn<Arc<str>>),
    Timestamp(TypedColumn<i64>),
}

/// Run `$body` with `$c` bound to the inner [`TypedColumn`], for
/// operations that are uniform across types.
macro_rules! with_typed {
    ($col:expr, $c:ident => $body:expr) => {
        match $col {
            Column::Boolean($c) => $body,
            Column::Int64($c) => $body,
            Column::Float64($c) => $body,
            Column::Utf8($c) => $body,
            Column::Timestamp($c) => $body,
        }
    };
}

/// Same, but rebuilds a `Column` of the same variant from the result.
macro_rules! map_typed {
    ($col:expr, $c:ident => $body:expr) => {
        match $col {
            Column::Boolean($c) => Column::Boolean($body),
            Column::Int64($c) => Column::Int64($body),
            Column::Float64($c) => Column::Float64($body),
            Column::Utf8($c) => Column::Utf8($body),
            Column::Timestamp($c) => Column::Timestamp($body),
        }
    };
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(ty: DataType) -> Column {
        Column::builder(ty).finish()
    }

    /// A column of `len` NULLs of the given type.
    pub fn nulls(ty: DataType, len: usize) -> Column {
        let mut b = Column::builder(ty);
        b.push_nulls(len);
        b.finish()
    }

    /// Build a column of type `ty` from scalar values, checking types.
    pub fn from_values(ty: DataType, values: &[Value]) -> Result<Column> {
        let mut b = Column::builder(ty);
        for v in values {
            b.push(v)?;
        }
        Ok(b.finish())
    }

    /// Repeat a single scalar `len` times (for literal expressions).
    pub fn repeat(value: &Value, ty: DataType, len: usize) -> Result<Column> {
        let mut b = Column::builder(ty);
        for _ in 0..len {
            b.push(value)?;
        }
        Ok(b.finish())
    }

    pub fn builder(ty: DataType) -> ColumnBuilder {
        ColumnBuilder::new(ty)
    }

    #[inline]
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Boolean(_) => DataType::Boolean,
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Utf8(_) => DataType::Utf8,
            Column::Timestamp(_) => DataType::Timestamp,
        }
    }

    pub fn len(&self) -> usize {
        with_typed!(self, c => c.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        with_typed!(self, c => c.is_valid(i))
    }

    /// Scalar value at `i`.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Boolean(c) => c.get(i).map_or(Value::Null, |v| Value::Boolean(*v)),
            Column::Int64(c) => c.get(i).map_or(Value::Null, |v| Value::Int64(*v)),
            Column::Float64(c) => c.get(i).map_or(Value::Null, |v| Value::Float64(*v)),
            Column::Utf8(c) => c.get(i).map_or(Value::Null, |v| Value::Utf8(v.clone())),
            Column::Timestamp(c) => c.get(i).map_or(Value::Null, |v| Value::Timestamp(*v)),
        }
    }

    /// Materialize all values.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    pub fn filter(&self, mask: &[bool]) -> Column {
        map_typed!(self, c => c.filter(mask))
    }

    pub fn filter_rows(&self, start: usize, mask: &[bool]) -> Column {
        map_typed!(self, c => c.filter_rows(start, mask))
    }

    pub fn take(&self, indices: &[usize]) -> Column {
        map_typed!(self, c => c.take(indices))
    }

    /// Gather with `None` producing NULL (outer-join padding).
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Column {
        match self {
            Column::Boolean(c) => Column::Boolean(c.take_opt(indices, &false)),
            Column::Int64(c) => Column::Int64(c.take_opt(indices, &0)),
            Column::Float64(c) => Column::Float64(c.take_opt(indices, &0.0)),
            Column::Utf8(c) => Column::Utf8(c.take_opt(indices, &Arc::from(""))),
            Column::Timestamp(c) => Column::Timestamp(c.take_opt(indices, &0)),
        }
    }

    pub fn slice(&self, offset: usize, len: usize) -> Column {
        map_typed!(self, c => c.slice(offset, len))
    }

    /// Concatenate columns of the same type.
    pub fn concat(cols: &[&Column]) -> Result<Column> {
        let first = cols
            .first()
            .ok_or_else(|| SsError::Internal("concat of zero columns".into()))?;
        let ty = first.data_type();
        if cols.iter().any(|c| c.data_type() != ty) {
            return Err(SsError::Type("concat of mixed column types".into()));
        }
        macro_rules! concat_variant {
            ($variant:ident) => {{
                let typed: Vec<_> = cols
                    .iter()
                    .map(|c| match c {
                        Column::$variant(t) => t,
                        _ => unreachable!("checked above"),
                    })
                    .collect();
                Column::$variant(TypedColumn::concat(&typed))
            }};
        }
        Ok(match first {
            Column::Boolean(_) => concat_variant!(Boolean),
            Column::Int64(_) => concat_variant!(Int64),
            Column::Float64(_) => concat_variant!(Float64),
            Column::Utf8(_) => concat_variant!(Utf8),
            Column::Timestamp(_) => concat_variant!(Timestamp),
        })
    }

    /// Typed access for kernels: Int64 or Timestamp values.
    pub fn as_i64(&self) -> Result<&TypedColumn<i64>> {
        match self {
            Column::Int64(c) | Column::Timestamp(c) => Ok(c),
            other => Err(SsError::Type(format!(
                "expected BIGINT/TIMESTAMP column, got {}",
                other.data_type()
            ))),
        }
    }

    pub fn as_f64(&self) -> Result<&TypedColumn<f64>> {
        match self {
            Column::Float64(c) => Ok(c),
            other => Err(SsError::Type(format!(
                "expected DOUBLE column, got {}",
                other.data_type()
            ))),
        }
    }

    pub fn as_bool(&self) -> Result<&TypedColumn<bool>> {
        match self {
            Column::Boolean(c) => Ok(c),
            other => Err(SsError::Type(format!(
                "expected BOOLEAN column, got {}",
                other.data_type()
            ))),
        }
    }

    pub fn as_utf8(&self) -> Result<&TypedColumn<Arc<str>>> {
        match self {
            Column::Utf8(c) => Ok(c),
            other => Err(SsError::Type(format!(
                "expected STRING column, got {}",
                other.data_type()
            ))),
        }
    }

    /// A boolean column's contents as a selection mask (NULL -> false,
    /// per SQL WHERE semantics).
    pub fn to_mask(&self) -> Result<Vec<bool>> {
        let c = self.as_bool()?;
        Ok((0..c.len())
            .map(|i| c.get(i).copied().unwrap_or(false))
            .collect())
    }
}

/// Incremental [`Column`] construction with type checking.
#[derive(Debug)]
pub struct ColumnBuilder {
    column: Column,
}

impl ColumnBuilder {
    pub fn new(ty: DataType) -> ColumnBuilder {
        Self::with_capacity(ty, 0)
    }

    /// Builder with pre-reserved capacity (avoids growth reallocations
    /// when the row count is known, e.g. source reads).
    pub fn with_capacity(ty: DataType, capacity: usize) -> ColumnBuilder {
        let column = match ty {
            DataType::Boolean => Column::Boolean(TypedColumn::from_values(Vec::with_capacity(capacity))),
            DataType::Int64 => Column::Int64(TypedColumn::from_values(Vec::with_capacity(capacity))),
            DataType::Float64 => Column::Float64(TypedColumn::from_values(Vec::with_capacity(capacity))),
            DataType::Utf8 => Column::Utf8(TypedColumn::from_values(Vec::with_capacity(capacity))),
            DataType::Timestamp => Column::Timestamp(TypedColumn::from_values(Vec::with_capacity(capacity))),
        };
        ColumnBuilder { column }
    }

    #[inline]
    pub fn data_type(&self) -> DataType {
        self.column.data_type()
    }

    pub fn len(&self) -> usize {
        self.column.len()
    }

    pub fn is_empty(&self) -> bool {
        self.column.is_empty()
    }

    /// The column built so far.
    pub fn column(&self) -> &Column {
        &self.column
    }

    /// Append a scalar, coercing NULLs and exact-type matches only.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (&mut self.column, v) {
            (_, Value::Null) => self.push_null(),
            (Column::Boolean(c), Value::Boolean(b)) => c.push(Some(*b), || false),
            (Column::Int64(c), Value::Int64(x)) => c.push(Some(*x), || 0),
            (Column::Float64(c), Value::Float64(x)) => c.push(Some(*x), || 0.0),
            // Int widens to float transparently (literal convenience).
            (Column::Float64(c), Value::Int64(x)) => c.push(Some(*x as f64), || 0.0),
            (Column::Utf8(c), Value::Utf8(s)) => c.push(Some(s.clone()), || Arc::from("")),
            (Column::Timestamp(c), Value::Timestamp(x) | Value::Int64(x)) => c.push(Some(*x), || 0),
            (col, v) => {
                return Err(SsError::Type(format!(
                    "cannot append {v} to {} column",
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// [`ColumnBuilder::push`] of a value the caller gives up: a string
    /// moves in without touching its reference count (everything else
    /// goes through `push`). Inlined into its callers: the bus's append
    /// runs it once per value, where a call (value and `Result` through
    /// memory) costs more than the push.
    #[inline(always)]
    pub fn push_owned(&mut self, v: Value) -> Result<()> {
        match (&mut self.column, v) {
            (Column::Utf8(c), Value::Utf8(s)) => c.push(Some(s), || Arc::from("")),
            (Column::Int64(c), Value::Int64(x)) => c.push(Some(x), || 0),
            (Column::Timestamp(c), Value::Timestamp(x)) => c.push(Some(x), || 0),
            (_, v) => return self.push(&v),
        }
        Ok(())
    }

    /// Append a NULL.
    pub fn push_null(&mut self) {
        match &mut self.column {
            Column::Boolean(c) => c.push(None, || false),
            Column::Int64(c) => c.push(None, || 0),
            Column::Float64(c) => c.push(None, || 0.0),
            Column::Utf8(c) => c.push(None, || Arc::from("")),
            Column::Timestamp(c) => c.push(None, || 0),
        }
    }

    /// Append `n` NULLs.
    pub fn push_nulls(&mut self, n: usize) {
        (0..n).for_each(|_| self.push_null());
    }

    /// Append `src[start..end]`. A column of the builder's own type
    /// (or BIGINT into TIMESTAMP, which share a representation) is a
    /// typed slice copy; anything else goes value by value through
    /// [`ColumnBuilder::push`], whose coercions and type errors apply.
    pub fn extend_from_column(&mut self, src: &Column, start: usize, end: usize) -> Result<()> {
        match (&mut self.column, src) {
            (Column::Boolean(d), Column::Boolean(s)) => d.extend_from_slice(s, start, end),
            (Column::Int64(d), Column::Int64(s))
            | (Column::Timestamp(d), Column::Timestamp(s) | Column::Int64(s)) => {
                d.extend_from_slice(s, start, end)
            }
            (Column::Float64(d), Column::Float64(s)) => d.extend_from_slice(s, start, end),
            (Column::Utf8(d), Column::Utf8(s)) => d.extend_from_slice(s, start, end),
            _ => {
                for i in start..end {
                    self.push(&src.value(i))?;
                }
            }
        }
        Ok(())
    }

    pub fn finish(self) -> Column {
        self.column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: Vec<Option<i64>>) -> Column {
        Column::Int64(TypedColumn::from_options(vals, 0))
    }

    #[test]
    fn from_values_checks_types() {
        let c = Column::from_values(
            DataType::Int64,
            &[Value::Int64(1), Value::Null, Value::Int64(3)],
        )
        .unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int64(1));
        assert_eq!(c.value(1), Value::Null);
        assert!(Column::from_values(DataType::Int64, &[Value::str("x")]).is_err());
    }

    #[test]
    fn filter_keeps_masked_rows_and_nulls() {
        let c = int_col(vec![Some(1), None, Some(3), Some(4)]);
        let f = c.filter(&[true, true, false, true]);
        assert_eq!(f.to_values(), vec![Value::Int64(1), Value::Null, Value::Int64(4)]);
    }

    #[test]
    fn take_and_take_opt() {
        let c = int_col(vec![Some(10), None, Some(30)]);
        let t = c.take(&[2, 0, 2]);
        assert_eq!(
            t.to_values(),
            vec![Value::Int64(30), Value::Int64(10), Value::Int64(30)]
        );
        let t = c.take_opt(&[Some(0), None, Some(1)]);
        assert_eq!(t.to_values(), vec![Value::Int64(10), Value::Null, Value::Null]);
    }

    #[test]
    fn slice_preserves_validity() {
        let c = int_col(vec![Some(1), None, Some(3), None, Some(5)]);
        let s = c.slice(1, 3);
        assert_eq!(s.to_values(), vec![Value::Null, Value::Int64(3), Value::Null]);
    }

    #[test]
    fn concat_checks_types() {
        let a = int_col(vec![Some(1)]);
        let b = int_col(vec![None, Some(2)]);
        let c = Column::concat(&[&a, &b]).unwrap();
        assert_eq!(c.to_values(), vec![Value::Int64(1), Value::Null, Value::Int64(2)]);
        let s = Column::from_values(DataType::Utf8, &[Value::str("x")]).unwrap();
        assert!(Column::concat(&[&a, &s]).is_err());
        assert!(Column::concat(&[]).is_err());
    }

    #[test]
    fn repeat_builds_literal_column() {
        let c = Column::repeat(&Value::str("ca"), DataType::Utf8, 3).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(2), Value::str("ca"));
        let n = Column::repeat(&Value::Null, DataType::Int64, 2).unwrap();
        assert!(!n.is_valid(0) && !n.is_valid(1));
    }

    #[test]
    fn mask_treats_null_as_false() {
        let mut b = Column::builder(DataType::Boolean);
        b.push(&Value::Boolean(true)).unwrap();
        b.push_null();
        b.push(&Value::Boolean(false)).unwrap();
        assert_eq!(b.finish().to_mask().unwrap(), vec![true, false, false]);
    }

    #[test]
    fn builder_widens_int_to_float_and_timestamp() {
        let mut b = Column::builder(DataType::Float64);
        b.push(&Value::Int64(2)).unwrap();
        assert_eq!(b.finish().value(0), Value::Float64(2.0));
        let mut b = Column::builder(DataType::Timestamp);
        b.push(&Value::Int64(5)).unwrap();
        assert_eq!(b.finish().value(0), Value::Timestamp(5));
    }

    #[test]
    fn extend_from_column_copies_slices_and_keeps_validity_canonical() {
        let src = int_col(vec![Some(1), None, Some(3), Some(4), Some(5)]);
        let mut b = Column::builder(DataType::Int64);
        // A range without NULLs creates no bitmap, like `push` would not.
        b.extend_from_column(&src, 2, 5).unwrap();
        assert!(b.column().as_i64().unwrap().validity().is_none());
        // One with a NULL back-fills validity for what came before.
        b.extend_from_column(&src, 0, 3).unwrap();
        b.extend_from_column(&int_col(vec![Some(9)]), 0, 1).unwrap();
        b.push_nulls(2);
        let want = [Some(3), Some(4), Some(5), Some(1), None, Some(3), Some(9), None, None];
        assert_eq!(b.finish(), int_col(want.to_vec()));
    }

    #[test]
    fn extend_from_column_coerces_like_push() {
        let ints = int_col(vec![Some(2), None]);
        let mut f = Column::builder(DataType::Float64);
        f.extend_from_column(&ints, 0, 2).unwrap();
        assert_eq!(f.finish().to_values(), vec![Value::Float64(2.0), Value::Null]);
        let mut t = Column::builder(DataType::Timestamp);
        t.extend_from_column(&ints, 0, 1).unwrap();
        assert_eq!(t.finish().to_values(), vec![Value::Timestamp(2)]);
        // The other way round stays an error, as does any other mix —
        // but only for values actually present.
        let stamps = Column::from_values(DataType::Timestamp, &[Value::Null, Value::Timestamp(5)]).unwrap();
        let mut i = Column::builder(DataType::Int64);
        i.extend_from_column(&stamps, 0, 1).unwrap();
        let err = i.extend_from_column(&stamps, 1, 2).unwrap_err();
        assert!(err.to_string().contains("cannot append"), "{err}");
        assert_eq!(i.finish().to_values(), vec![Value::Null]);
    }

    #[test]
    fn push_owned_moves_the_value_in() {
        let s: Arc<str> = Arc::from("x");
        let mut b = Column::builder(DataType::Utf8);
        b.push_owned(Value::Utf8(s.clone())).unwrap();
        b.push(&Value::Utf8(s.clone())).unwrap();
        assert_eq!(Arc::strong_count(&s), 3);
        assert!(b.push_owned(Value::Int64(1)).is_err());
    }

    #[test]
    fn nulls_constructor() {
        let c = Column::nulls(DataType::Utf8, 4);
        assert_eq!(c.len(), 4);
        assert!(c.to_values().iter().all(|v| v.is_null()));
    }

    #[test]
    fn push_after_nulls_keeps_validity_aligned() {
        let mut c = TypedColumn::from_values(vec![1i64, 2]);
        c.push(None, || 0);
        c.push(Some(4), || 0);
        assert!(c.is_valid(0) && c.is_valid(1) && !c.is_valid(2) && c.is_valid(3));
        assert_eq!(c.get(3), Some(&4));
    }
}
