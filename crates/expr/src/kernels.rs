//! Vectorized compute kernels.
//!
//! Each kernel is a tight loop over the typed value vectors of
//! [`TypedColumn`]s, with validity handled outside the inner arithmetic
//! where possible. These loops are what stands in for Spark's generated
//! bytecode (§5.3): the evaluator dispatches *once per batch*, not once
//! per record.

use std::ops::Range;
use std::sync::Arc;

use ss_common::bitmap::Bitmap;
use ss_common::column::{Column, TypedColumn};
use ss_common::{DataType, Result, SsError};

use crate::expr::BinaryOp;

/// Combined validity of two columns (`None` = all valid).
fn combine_validity<T: Clone, U: Clone>(
    a: &TypedColumn<T>,
    b: &TypedColumn<U>,
) -> Option<Bitmap> {
    match (a.validity(), b.validity()) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.clone()),
        (Some(va), Some(vb)) => Some(va.and(vb)),
    }
}

/// Element-wise binary kernel over raw values; `f` returning `None`
/// produces NULL (e.g. division by zero). Slots already NULL in either
/// input stay NULL.
fn binary_map<T, U, V, F>(
    a: &TypedColumn<T>,
    b: &TypedColumn<U>,
    placeholder: V,
    f: F,
) -> Result<TypedColumn<V>>
where
    T: Copy,
    U: Copy,
    V: Clone,
    F: Fn(T, U) -> Option<V>,
{
    if a.len() != b.len() {
        return Err(SsError::Internal(format!(
            "kernel length mismatch: {} vs {}",
            a.len(),
            b.len()
        )));
    }
    let validity = combine_validity(a, b);
    let av = a.values();
    let bv = b.values();
    let mut out: Vec<Option<V>> = Vec::with_capacity(a.len());
    match &validity {
        None => {
            for i in 0..av.len() {
                out.push(f(av[i], bv[i]));
            }
        }
        Some(valid) => {
            for i in 0..av.len() {
                if valid.get(i) {
                    out.push(f(av[i], bv[i]));
                } else {
                    out.push(None);
                }
            }
        }
    }
    Ok(TypedColumn::from_options(out, placeholder))
}

/// Integer arithmetic. `Divide` yields DOUBLE (Spark `/` semantics);
/// `Modulo`/`Divide` by zero yield NULL. Overflow wraps (release-build
/// semantics), matching the JVM's primitive arithmetic.
pub fn arith_i64(op: BinaryOp, a: &TypedColumn<i64>, b: &TypedColumn<i64>) -> Result<Column> {
    Ok(match op {
        BinaryOp::Plus => Column::Int64(binary_map(a, b, 0, |x, y| Some(x.wrapping_add(y)))?),
        BinaryOp::Minus => Column::Int64(binary_map(a, b, 0, |x, y| Some(x.wrapping_sub(y)))?),
        BinaryOp::Multiply => Column::Int64(binary_map(a, b, 0, |x, y| Some(x.wrapping_mul(y)))?),
        BinaryOp::Modulo => Column::Int64(binary_map(a, b, 0, |x, y| {
            (y != 0).then(|| x.wrapping_rem(y))
        })?),
        BinaryOp::Divide => Column::Float64(binary_map(a, b, 0.0, |x, y| {
            (y != 0).then(|| x as f64 / y as f64)
        })?),
        other => {
            return Err(SsError::Internal(format!(
                "arith_i64 got non-arithmetic op {other:?}"
            )))
        }
    })
}

/// Float arithmetic. Division by zero follows IEEE (inf/NaN), as Spark
/// does for doubles.
pub fn arith_f64(op: BinaryOp, a: &TypedColumn<f64>, b: &TypedColumn<f64>) -> Result<Column> {
    let f: fn(f64, f64) -> Option<f64> = match op {
        BinaryOp::Plus => |x, y| Some(x + y),
        BinaryOp::Minus => |x, y| Some(x - y),
        BinaryOp::Multiply => |x, y| Some(x * y),
        BinaryOp::Divide => |x, y| Some(x / y),
        BinaryOp::Modulo => |x, y| Some(x % y),
        other => {
            return Err(SsError::Internal(format!(
                "arith_f64 got non-arithmetic op {other:?}"
            )))
        }
    };
    Ok(Column::Float64(binary_map(a, b, 0.0, f)?))
}

/// Timestamp arithmetic: ts ± integer-microseconds stays a timestamp.
pub fn arith_timestamp(
    op: BinaryOp,
    a: &TypedColumn<i64>,
    b: &TypedColumn<i64>,
) -> Result<Column> {
    match op {
        BinaryOp::Plus => Ok(Column::Timestamp(binary_map(a, b, 0, |x, y| {
            Some(x.wrapping_add(y))
        })?)),
        BinaryOp::Minus => Ok(Column::Timestamp(binary_map(a, b, 0, |x, y| {
            Some(x.wrapping_sub(y))
        })?)),
        other => Err(SsError::Type(format!(
            "timestamp arithmetic supports only + and -, got {}",
            other.symbol()
        ))),
    }
}

macro_rules! cmp_fn {
    ($op:expr) => {{
        fn check(o: std::cmp::Ordering, op: BinaryOp) -> bool {
            use std::cmp::Ordering::*;
            match op {
                BinaryOp::Eq => o == Equal,
                BinaryOp::NotEq => o != Equal,
                BinaryOp::Lt => o == Less,
                BinaryOp::LtEq => o != Greater,
                BinaryOp::Gt => o == Greater,
                BinaryOp::GtEq => o != Less,
                _ => unreachable!("non-comparison op"),
            }
        }
        move |o| check(o, $op)
    }};
}

/// Integer/timestamp comparison.
pub fn cmp_i64(op: BinaryOp, a: &TypedColumn<i64>, b: &TypedColumn<i64>) -> Result<Column> {
    let check = cmp_fn!(op);
    Ok(Column::Boolean(binary_map(a, b, false, |x, y| {
        Some(check(x.cmp(&y)))
    })?))
}

/// Float comparison (total order, NaN == NaN — consistent with the
/// grouping semantics in `Value::total_cmp`).
pub fn cmp_f64(op: BinaryOp, a: &TypedColumn<f64>, b: &TypedColumn<f64>) -> Result<Column> {
    let check = cmp_fn!(op);
    Ok(Column::Boolean(binary_map(a, b, false, |x, y| {
        Some(check(x.total_cmp(&y)))
    })?))
}

/// Boolean comparison.
pub fn cmp_bool(op: BinaryOp, a: &TypedColumn<bool>, b: &TypedColumn<bool>) -> Result<Column> {
    let check = cmp_fn!(op);
    Ok(Column::Boolean(binary_map(a, b, false, |x, y| {
        Some(check(x.cmp(&y)))
    })?))
}

/// String comparison. Not `binary_map` (strings aren't `Copy`); same
/// validity handling, comparing by `&str`.
pub fn cmp_utf8(
    op: BinaryOp,
    a: &TypedColumn<Arc<str>>,
    b: &TypedColumn<Arc<str>>,
) -> Result<Column> {
    if a.len() != b.len() {
        return Err(SsError::Internal("cmp_utf8 length mismatch".into()));
    }
    let check = cmp_fn!(op);
    let validity = combine_validity(a, b);
    let av = a.values();
    let bv = b.values();
    let mut out = Vec::with_capacity(a.len());
    for i in 0..av.len() {
        if validity.as_ref().is_none_or(|v| v.get(i)) {
            out.push(Some(check(av[i].as_ref().cmp(bv[i].as_ref()))));
        } else {
            out.push(None);
        }
    }
    Ok(Column::Boolean(TypedColumn::from_options(out, false)))
}

/// Column-vs-scalar comparison of rows `rows` of `a`, where `cmp`
/// orders a value against the scalar — the fast path for `col <op>
/// literal` predicates, avoiding materializing the literal as a column
/// (or the row range as a copy).
pub fn cmp_scalar<T: Clone>(
    op: BinaryOp,
    a: &TypedColumn<T>,
    rows: Range<usize>,
    cmp: impl Fn(&T) -> std::cmp::Ordering,
) -> Result<Column> {
    let check = cmp_fn!(op);
    let av = &a.values()[rows.clone()];
    match a.validity() {
        None => {
            let out: Vec<bool> = av.iter().map(|x| check(cmp(x))).collect();
            Ok(Column::Boolean(TypedColumn::from_values(out)))
        }
        Some(valid) => {
            let out: Vec<Option<bool>> = av
                .iter()
                .enumerate()
                .map(|(i, x)| valid.get(rows.start + i).then(|| check(cmp(x))))
                .collect();
            Ok(Column::Boolean(TypedColumn::from_options(out, false)))
        }
    }
}

/// Column-vs-scalar string comparison. For equality the inner loop is
/// a length check plus a memcmp — the shape a code generator would
/// emit for this predicate.
pub fn cmp_utf8_scalar(
    op: BinaryOp,
    a: &TypedColumn<Arc<str>>,
    rows: Range<usize>,
    s: &str,
) -> Result<Column> {
    let av = &a.values()[rows.clone()];
    let all_valid = a.validity().is_none();
    // Specialize the dominant cases.
    let run = |f: &mut dyn FnMut(&str) -> bool| -> Column {
        if all_valid {
            let out: Vec<bool> = av.iter().map(|x| f(x.as_ref())).collect();
            Column::Boolean(TypedColumn::from_values(out))
        } else {
            let valid = a.validity().expect("checked");
            let out: Vec<Option<bool>> = av
                .iter()
                .enumerate()
                .map(|(i, x)| valid.get(rows.start + i).then(|| f(x.as_ref())))
                .collect();
            Column::Boolean(TypedColumn::from_options(out, false))
        }
    };
    Ok(match op {
        BinaryOp::Eq => run(&mut |x| x == s),
        BinaryOp::NotEq => run(&mut |x| x != s),
        BinaryOp::Lt => run(&mut |x| x < s),
        BinaryOp::LtEq => run(&mut |x| x <= s),
        BinaryOp::Gt => run(&mut |x| x > s),
        BinaryOp::GtEq => run(&mut |x| x >= s),
        other => {
            return Err(SsError::Internal(format!(
                "cmp_utf8_scalar got non-comparison op {other:?}"
            )))
        }
    })
}

/// Kleene three-valued AND: `false AND NULL = false`, `true AND NULL =
/// NULL` (SQL semantics).
pub fn and_kleene(a: &TypedColumn<bool>, b: &TypedColumn<bool>) -> Result<Column> {
    if a.len() != b.len() {
        return Err(SsError::Internal("and length mismatch".into()));
    }
    let mut out = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let x = a.get(i).copied();
        let y = b.get(i).copied();
        out.push(match (x, y) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        });
    }
    Ok(Column::Boolean(TypedColumn::from_options(out, false)))
}

/// Kleene three-valued OR: `true OR NULL = true`.
pub fn or_kleene(a: &TypedColumn<bool>, b: &TypedColumn<bool>) -> Result<Column> {
    if a.len() != b.len() {
        return Err(SsError::Internal("or length mismatch".into()));
    }
    let mut out = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let x = a.get(i).copied();
        let y = b.get(i).copied();
        out.push(match (x, y) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        });
    }
    Ok(Column::Boolean(TypedColumn::from_options(out, false)))
}

/// Three-valued NOT: `NOT NULL = NULL`.
pub fn not_kernel(a: &TypedColumn<bool>) -> Column {
    let out: Vec<Option<bool>> = (0..a.len()).map(|i| a.get(i).map(|b| !b)).collect();
    Column::Boolean(TypedColumn::from_options(out, false))
}

/// `IS NULL` / `IS NOT NULL` (never NULL themselves).
pub fn is_null_kernel(c: &Column, negate: bool) -> Column {
    let out: Vec<bool> = (0..c.len()).map(|i| c.is_valid(i) == negate).collect();
    Column::Boolean(TypedColumn::from_values(out))
}

/// Cast a whole column. Fast paths for numeric/timestamp conversions;
/// falls back to per-value casts for string parsing.
pub fn cast_column(c: &Column, to: DataType) -> Result<Column> {
    if c.data_type() == to {
        return Ok(c.clone());
    }
    match (c, to) {
        (Column::Int64(a), DataType::Float64) => {
            let vals: Vec<f64> = a.values().iter().map(|&v| v as f64).collect();
            Ok(Column::Float64(with_validity(vals, a.validity())))
        }
        (Column::Float64(a), DataType::Int64) => {
            let vals: Vec<i64> = a.values().iter().map(|&v| v as i64).collect();
            Ok(Column::Int64(with_validity(vals, a.validity())))
        }
        (Column::Int64(a), DataType::Timestamp) => {
            Ok(Column::Timestamp(with_validity(a.values().to_vec(), a.validity())))
        }
        (Column::Timestamp(a), DataType::Int64) => {
            Ok(Column::Int64(with_validity(a.values().to_vec(), a.validity())))
        }
        _ => {
            // Generic slow path through Value; correct for every
            // supported pair, used for string casts.
            let mut b = Column::builder(to);
            for i in 0..c.len() {
                b.push(&c.value(i).cast_to(to)?)?;
            }
            Ok(b.finish())
        }
    }
}

fn with_validity<T: Clone>(vals: Vec<T>, validity: Option<&Bitmap>) -> TypedColumn<T> {
    match validity {
        None => TypedColumn::from_values(vals),
        Some(v) => {
            let opts: Vec<Option<T>> = vals
                .iter()
                .enumerate()
                .map(|(i, x)| v.get(i).then(|| x.clone()))
                .collect();
            // Placeholder only fills NULL slots; pick the first value or
            // default-construct via clone of an existing one is not
            // possible generically, so reuse a valid slot or the raw
            // value (slot content is ignored when invalid).
            let placeholder = vals
                .first()
                .cloned()
                .expect("with_validity on non-empty column");
            TypedColumn::from_options(opts, placeholder)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::Value;

    fn ints(v: Vec<Option<i64>>) -> TypedColumn<i64> {
        TypedColumn::from_options(v, 0)
    }

    #[test]
    fn int_arithmetic_with_nulls() {
        let a = ints(vec![Some(10), None, Some(7)]);
        let b = ints(vec![Some(3), Some(1), Some(0)]);
        let sum = arith_i64(BinaryOp::Plus, &a, &b).unwrap();
        assert_eq!(
            sum.to_values(),
            vec![Value::Int64(13), Value::Null, Value::Int64(7)]
        );
        // Division yields double; /0 and %0 yield NULL.
        let div = arith_i64(BinaryOp::Divide, &a, &b).unwrap();
        assert_eq!(div.value(0), Value::Float64(10.0 / 3.0));
        assert_eq!(div.value(2), Value::Null);
        let md = arith_i64(BinaryOp::Modulo, &a, &b).unwrap();
        assert_eq!(md.value(0), Value::Int64(1));
        assert_eq!(md.value(2), Value::Null);
    }

    #[test]
    fn float_arithmetic_ieee() {
        let a = TypedColumn::from_values(vec![1.0, -2.0]);
        let b = TypedColumn::from_values(vec![0.0, 4.0]);
        let div = arith_f64(BinaryOp::Divide, &a, &b).unwrap();
        assert_eq!(div.value(0), Value::Float64(f64::INFINITY));
        assert_eq!(div.value(1), Value::Float64(-0.5));
    }

    #[test]
    fn comparisons_propagate_nulls() {
        let a = ints(vec![Some(1), None, Some(3)]);
        let b = ints(vec![Some(2), Some(2), Some(2)]);
        let lt = cmp_i64(BinaryOp::Lt, &a, &b).unwrap();
        assert_eq!(
            lt.to_values(),
            vec![Value::Boolean(true), Value::Null, Value::Boolean(false)]
        );
        let ne = cmp_i64(BinaryOp::NotEq, &a, &b).unwrap();
        assert_eq!(ne.value(2), Value::Boolean(true));
    }

    #[test]
    fn string_comparison() {
        let a = TypedColumn::from_values(vec![Arc::from("view"), Arc::from("click")]);
        let b = TypedColumn::from_values(vec![Arc::from("view"), Arc::from("view")]);
        let eq = cmp_utf8(BinaryOp::Eq, &a, &b).unwrap();
        assert_eq!(eq.to_values(), vec![Value::Boolean(true), Value::Boolean(false)]);
        let lt = cmp_utf8(BinaryOp::Lt, &a, &b).unwrap();
        assert_eq!(lt.value(1), Value::Boolean(true)); // "click" < "view"
    }

    #[test]
    fn kleene_logic() {
        let t = Some(true);
        let f = Some(false);
        let n: Option<bool> = None;
        let a = TypedColumn::from_options(vec![t, t, t, f, f, n, n], false);
        let b = TypedColumn::from_options(vec![t, f, n, f, n, n, t], false);
        let and = and_kleene(&a, &b).unwrap();
        assert_eq!(
            and.to_values(),
            vec![
                Value::Boolean(true),
                Value::Boolean(false),
                Value::Null,
                Value::Boolean(false),
                Value::Boolean(false),
                Value::Null,
                Value::Null,
            ]
        );
        let or = or_kleene(&a, &b).unwrap();
        assert_eq!(
            or.to_values(),
            vec![
                Value::Boolean(true),
                Value::Boolean(true),
                Value::Boolean(true),
                Value::Boolean(false),
                Value::Null,
                Value::Null,
                Value::Boolean(true),
            ]
        );
    }

    #[test]
    fn not_and_is_null() {
        let a = TypedColumn::from_options(vec![Some(true), None, Some(false)], false);
        assert_eq!(
            not_kernel(&a).to_values(),
            vec![Value::Boolean(false), Value::Null, Value::Boolean(true)]
        );
        let c = Column::Boolean(a);
        assert_eq!(
            is_null_kernel(&c, false).to_values(),
            vec![Value::Boolean(false), Value::Boolean(true), Value::Boolean(false)]
        );
        assert_eq!(
            is_null_kernel(&c, true).to_values(),
            vec![Value::Boolean(true), Value::Boolean(false), Value::Boolean(true)]
        );
    }

    #[test]
    fn casts_fast_and_slow_path() {
        let c = Column::Int64(ints(vec![Some(1), None]));
        let f = cast_column(&c, DataType::Float64).unwrap();
        assert_eq!(f.to_values(), vec![Value::Float64(1.0), Value::Null]);
        let ts = cast_column(&c, DataType::Timestamp).unwrap();
        assert_eq!(ts.value(0), Value::Timestamp(1));
        let s = Column::from_values(DataType::Utf8, &[Value::str("42")]).unwrap();
        let i = cast_column(&s, DataType::Int64).unwrap();
        assert_eq!(i.value(0), Value::Int64(42));
        let bad = Column::from_values(DataType::Utf8, &[Value::str("nope")]).unwrap();
        assert!(cast_column(&bad, DataType::Int64).is_err());
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = TypedColumn::from_values(vec![1_000_000i64]);
        let d = TypedColumn::from_values(vec![500_000i64]);
        let r = arith_timestamp(BinaryOp::Plus, &t, &d).unwrap();
        assert_eq!(r.value(0), Value::Timestamp(1_500_000));
        assert!(arith_timestamp(BinaryOp::Multiply, &t, &d).is_err());
    }
}
