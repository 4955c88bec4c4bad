//! Expression evaluation.
//!
//! Two entry points:
//!
//! * [`evaluate`] — vectorized: expression × [`RecordBatch`] → [`Column`].
//!   Used by every engine: batch, microbatch and continuous (§6.3, whose
//!   workers run each poll through it). Dispatch happens once per batch;
//!   inner loops are the typed kernels in [`crate::kernels`].
//! * [`evaluate_row`] — scalar: expression × [`Row`] → [`Value`]. Used by
//!   the optimizer's constant folding, and the reference the kernels are
//!   checked against.
//!
//! Both implement the same SQL semantics (Kleene logic, NULL
//! propagation); a property test in this module asserts they agree.

use std::ops::Range;
use std::sync::Arc;

use ss_common::column::TypedColumn;
use ss_common::time::window_start;
use ss_common::{Column, DataType, RecordBatch, Result, Row, Schema, SsError, Value};

use crate::expr::{BinaryOp, Expr};
use crate::kernels;

/// Evaluate `expr` against every row of `batch`, producing a column of
/// `batch.num_rows()` values.
pub fn evaluate(expr: &Expr, batch: &RecordBatch) -> Result<Column> {
    eval_rows(expr, batch, &(0..batch.num_rows()))
}

/// [`evaluate`] over the row range `rows` of `batch` only, producing
/// `rows.len()` values without copying the range out first.
fn eval_rows(expr: &Expr, batch: &RecordBatch, rows: &Range<usize>) -> Result<Column> {
    match expr {
        Expr::Column(name) => Ok(batch.column_by_name(name)?.slice(rows.start, rows.len())),
        Expr::Literal(v) => {
            let ty = v.data_type().unwrap_or(DataType::Utf8);
            Column::repeat(v, ty, rows.len())
        }
        Expr::BinaryOp { left, op, right } => {
            // Fast path for `expr <cmp> literal`: compare against the
            // scalar directly instead of materializing a repeated
            // literal column (the shape codegen would emit, §5.3).
            if op.is_comparison() {
                if let Expr::Literal(v) = right.as_ref() {
                    if let Some(out) = scalar_compare(*op, left, v, batch, rows)? {
                        return Ok(out);
                    }
                }
                if let Expr::Literal(v) = left.as_ref() {
                    if let Some(out) = scalar_compare(op.flip(), right, v, batch, rows)? {
                        return Ok(out);
                    }
                }
            }
            let l = eval_rows(left, batch, rows)?;
            let r = eval_rows(right, batch, rows)?;
            evaluate_binary(*op, &l, &r)
        }
        Expr::Not(e) => {
            let c = eval_rows(e, batch, rows)?;
            Ok(kernels::not_kernel(c.as_bool()?))
        }
        Expr::IsNull(e) => Ok(kernels::is_null_kernel(&eval_rows(e, batch, rows)?, false)),
        Expr::IsNotNull(e) => Ok(kernels::is_null_kernel(&eval_rows(e, batch, rows)?, true)),
        Expr::Cast { expr, to } => kernels::cast_column(&eval_rows(expr, batch, rows)?, *to),
        Expr::Alias { expr, .. } => eval_rows(expr, batch, rows),
        Expr::Case {
            branches,
            else_expr,
        } => evaluate_case(branches, else_expr.as_deref(), batch, rows),
        Expr::Window {
            time,
            size_us,
            slide_us,
        } => {
            if slide_us != size_us {
                return Err(SsError::Plan(
                    "sliding window() is only valid as a grouping key, \
                     where the aggregate expands rows into windows"
                        .into(),
                ));
            }
            let t = eval_rows(time, batch, rows)?;
            let tc = t.as_i64()?;
            let starts: Vec<i64> = tc
                .values()
                .iter()
                .map(|&ts| window_start(ts, *size_us, 0))
                .collect();
            let col = match tc.validity() {
                None => TypedColumn::from_values(starts),
                Some(v) => TypedColumn::from_options(
                    starts
                        .iter()
                        .enumerate()
                        .map(|(i, &s)| v.get(i).then_some(s))
                        .collect(),
                    0,
                ),
            };
            Ok(Column::Timestamp(col))
        }
        Expr::Function { name, args } => {
            let cols: Vec<Column> = args
                .iter()
                .map(|a| eval_rows(a, batch, rows))
                .collect::<Result<_>>()?;
            evaluate_builtin(name, &cols)
        }
        Expr::Udf { udf, args } => {
            let cols: Vec<Column> = args
                .iter()
                .map(|a| eval_rows(a, batch, rows))
                .collect::<Result<_>>()?;
            let out = (udf.func)(&cols)?;
            if out.len() != rows.len() {
                return Err(SsError::Execution(format!(
                    "UDF `{}` returned {} rows for a {}-row batch",
                    udf.name,
                    out.len(),
                    rows.len()
                )));
            }
            Ok(out)
        }
    }
}

/// Evaluate a predicate to a selection mask (NULL → false).
pub fn evaluate_to_mask(expr: &Expr, batch: &RecordBatch) -> Result<Vec<bool>> {
    evaluate(expr, batch)?.to_mask()
}

/// Column-vs-literal comparison fast path. Returns `None` (fall back
/// to the generic path) when types don't line up exactly.
fn scalar_compare(
    op: BinaryOp,
    expr: &Expr,
    lit: &Value,
    batch: &RecordBatch,
    rows: &Range<usize>,
) -> Result<Option<Column>> {
    if lit.is_null() {
        // NULL comparisons are all-NULL; let the generic path handle it.
        return Ok(None);
    }
    // Bare column references borrow the batch's column directly — no
    // copy of the column data (or of the row range) just to compare it.
    let owned;
    let (col, rows): (&Column, _) = match expr {
        Expr::Column(name) => (batch.column_by_name(name)?, rows.clone()),
        _ => {
            owned = eval_rows(expr, batch, rows)?;
            (&owned, 0..rows.len())
        }
    };
    Ok(match (col, lit) {
        (Column::Int64(c) | Column::Timestamp(c), Value::Int64(s) | Value::Timestamp(s)) => {
            Some(kernels::cmp_scalar(op, c, rows, |x| x.cmp(s))?)
        }
        (Column::Float64(c), Value::Float64(s)) => {
            Some(kernels::cmp_scalar(op, c, rows, |x| x.total_cmp(s))?)
        }
        (Column::Float64(c), Value::Int64(s)) => {
            Some(kernels::cmp_scalar(op, c, rows, |x| x.total_cmp(&(*s as f64)))?)
        }
        (Column::Utf8(c), Value::Utf8(s)) => Some(kernels::cmp_utf8_scalar(op, c, rows, s)?),
        _ => None,
    })
}

fn evaluate_binary(op: BinaryOp, l: &Column, r: &Column) -> Result<Column> {
    if op.is_logical() {
        let (a, b) = (l.as_bool()?, r.as_bool()?);
        return match op {
            BinaryOp::And => kernels::and_kleene(a, b),
            BinaryOp::Or => kernels::or_kleene(a, b),
            _ => unreachable!(),
        };
    }
    // Coerce both sides to the common type.
    let common = l.data_type().common_type(r.data_type())?;
    let l = kernels::cast_column(l, common)?;
    let r = kernels::cast_column(r, common)?;
    if op.is_comparison() {
        match common {
            DataType::Int64 | DataType::Timestamp => {
                kernels::cmp_i64(op, l.as_i64()?, r.as_i64()?)
            }
            DataType::Float64 => kernels::cmp_f64(op, l.as_f64()?, r.as_f64()?),
            DataType::Utf8 => kernels::cmp_utf8(op, l.as_utf8()?, r.as_utf8()?),
            DataType::Boolean => kernels::cmp_bool(op, l.as_bool()?, r.as_bool()?),
        }
    } else {
        match common {
            DataType::Int64 => kernels::arith_i64(op, l.as_i64()?, r.as_i64()?),
            DataType::Float64 => kernels::arith_f64(op, l.as_f64()?, r.as_f64()?),
            DataType::Timestamp => kernels::arith_timestamp(op, l.as_i64()?, r.as_i64()?),
            other => Err(SsError::Type(format!(
                "arithmetic not supported on {other}"
            ))),
        }
    }
}

fn evaluate_case(
    branches: &[(Expr, Expr)],
    else_expr: Option<&Expr>,
    batch: &RecordBatch,
    rows: &Range<usize>,
) -> Result<Column> {
    let masks: Vec<Vec<bool>> = branches
        .iter()
        .map(|(c, _)| eval_rows(c, batch, rows)?.to_mask())
        .collect::<Result<_>>()?;
    let values: Vec<Column> = branches
        .iter()
        .map(|(_, v)| eval_rows(v, batch, rows))
        .collect::<Result<_>>()?;
    let else_col = else_expr.map(|e| eval_rows(e, batch, rows)).transpose()?;
    // Output type: common type across branch values (and ELSE).
    let mut ty = values
        .first()
        .map(|c| c.data_type())
        .or(else_col.as_ref().map(|c| c.data_type()))
        .ok_or_else(|| SsError::Type("CASE with no branches".into()))?;
    for v in values.iter().skip(1) {
        ty = ty.common_type(v.data_type())?;
    }
    if let Some(e) = &else_col {
        ty = ty.common_type(e.data_type())?;
    }
    let mut b = Column::builder(ty);
    'rows: for i in 0..rows.len() {
        for (bi, mask) in masks.iter().enumerate() {
            if mask[i] {
                b.push(&values[bi].value(i).cast_to(ty)?)?;
                continue 'rows;
            }
        }
        match &else_col {
            Some(e) => b.push(&e.value(i).cast_to(ty)?)?,
            None => b.push_null(),
        }
    }
    Ok(b.finish())
}

fn evaluate_builtin(name: &str, cols: &[Column]) -> Result<Column> {
    match name {
        "lower" | "upper" => {
            let c = cols[0].as_utf8()?;
            let out: Vec<Option<Arc<str>>> = c
                .iter()
                .map(|s| {
                    s.map(|s| {
                        let t = if name == "lower" {
                            s.to_lowercase()
                        } else {
                            s.to_uppercase()
                        };
                        Arc::from(t.as_str())
                    })
                })
                .collect();
            Ok(Column::Utf8(TypedColumn::from_options(out, Arc::from(""))))
        }
        "length" => {
            let c = cols[0].as_utf8()?;
            let out: Vec<Option<i64>> = c
                .iter()
                .map(|s| s.map(|s| s.chars().count() as i64))
                .collect();
            Ok(Column::Int64(TypedColumn::from_options(out, 0)))
        }
        "abs" => match &cols[0] {
            Column::Int64(c) => {
                let out: Vec<Option<i64>> =
                    c.iter().map(|v| v.map(|x| x.wrapping_abs())).collect();
                Ok(Column::Int64(TypedColumn::from_options(out, 0)))
            }
            Column::Float64(c) => {
                let out: Vec<Option<f64>> = c.iter().map(|v| v.map(|x| x.abs())).collect();
                Ok(Column::Float64(TypedColumn::from_options(out, 0.0)))
            }
            other => Err(SsError::Type(format!(
                "abs() requires a numeric column, got {}",
                other.data_type()
            ))),
        },
        "coalesce" => {
            let len = cols[0].len();
            let ty = cols
                .iter()
                .map(|c| c.data_type())
                .try_fold(cols[0].data_type(), |a, b| a.common_type(b))?;
            let mut b = Column::builder(ty);
            'rows: for i in 0..len {
                for c in cols {
                    if c.is_valid(i) {
                        b.push(&c.value(i).cast_to(ty)?)?;
                        continue 'rows;
                    }
                }
                b.push_null();
            }
            Ok(b.finish())
        }
        "concat" => {
            let len = cols[0].len();
            let mut out: Vec<Option<Arc<str>>> = Vec::with_capacity(len);
            'rows: for i in 0..len {
                let mut s = String::new();
                for c in cols {
                    if !c.is_valid(i) {
                        out.push(None);
                        continue 'rows;
                    }
                    s.push_str(&c.value(i).to_string());
                }
                out.push(Some(Arc::from(s.as_str())));
            }
            Ok(Column::Utf8(TypedColumn::from_options(out, Arc::from(""))))
        }
        "to_int" => {
            // Strict parse: unlike CAST (which would yield NULL), a
            // malformed string is a *per-record error* — the canonical
            // poison-record shape the quarantine machinery isolates.
            let c = cols[0].as_utf8()?;
            let out: Vec<Option<i64>> = c
                .iter()
                .map(|s| s.map(|s| parse_strict_int(s)).transpose())
                .collect::<Result<_>>()?;
            Ok(Column::Int64(TypedColumn::from_options(out, 0)))
        }
        "like" => {
            let text = cols[0].as_utf8()?;
            let pattern = cols[1].as_utf8()?;
            // The pattern is almost always one repeated literal:
            // precompile it once for the whole batch.
            let uniform: Option<Vec<char>> = match pattern.values() {
                [] => None,
                [first, rest @ ..] if pattern.validity().is_none() => rest
                    .iter()
                    .all(|p| p == first)
                    .then(|| first.chars().collect()),
                _ => None,
            };
            let out: Vec<Option<bool>> = (0..text.len())
                .map(|i| match (text.get(i), &uniform) {
                    (Some(t), Some(p)) => Some(like_chars(t, p)),
                    (Some(t), None) => pattern.get(i).map(|p| like_match(t, p)),
                    (None, _) => None,
                })
                .collect();
            Ok(Column::Boolean(TypedColumn::from_options(out, false)))
        }
        other => Err(SsError::Type(format!("unknown function `{other}`"))),
    }
}

/// Strict string → INT64 parse backing `to_int()`. The error names the
/// offending value so quarantine metadata (and failure fingerprints)
/// identify the poison record precisely.
fn parse_strict_int(s: &str) -> Result<i64> {
    s.trim().parse::<i64>().map_err(|_| {
        SsError::Type(format!("to_int(): cannot parse `{s}` as INT64"))
    })
}

/// [`evaluate`] over the row range `rows` of `batch`, with panics
/// converted into [`SsError::Execution`].
///
/// Expression evaluation is the engine's main per-record attack surface
/// for poison data (UDF panics, kernel bugs on pathological values); a
/// panic here should fail the *epoch*, restartably, not kill the worker
/// thread. The stateless operators route through this wrapper.
pub fn evaluate_guarded(expr: &Expr, batch: &RecordBatch, rows: Range<usize>) -> Result<Column> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        eval_rows(expr, batch, &rows)
    }))
    .unwrap_or_else(|p| {
        Err(SsError::Execution(format!(
            "panic during expression eval: {}",
            ss_common::panic_message(p.as_ref())
        )))
    })
}

/// SQL `LIKE` matching: `%` matches any run (including empty), `_`
/// matches exactly one character. Case-sensitive, as in Spark SQL.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    like_chars(text, &p)
}

/// `LIKE` against a precompiled pattern. Iterative two-pointer
/// wildcard matching with backtracking to the most recent `%` —
/// O(len(text) × len(pattern)) worst case, no recursion.
fn like_chars(text: &str, pattern: &[char]) -> bool {
    let t: Vec<char> = text.chars().collect();
    let (mut ti, mut pi) = (0usize, 0usize);
    // Position of the last `%` seen, and the text position it is
    // currently assumed to cover up to.
    let (mut star, mut star_ti) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < pattern.len() && (pattern[pi] == '_' || pattern[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if pi < pattern.len() && pattern[pi] == '%' {
            star = pi;
            star_ti = ti;
            pi += 1;
        } else if star != usize::MAX {
            // Grow the run the last `%` absorbs and retry.
            star_ti += 1;
            ti = star_ti;
            pi = star + 1;
        } else {
            return false;
        }
    }
    pattern[pi..].iter().all(|&c| c == '%')
}

/// Scalar evaluation of `expr` against a single row with the given
/// schema. Semantics match [`evaluate`] exactly.
pub fn evaluate_row(expr: &Expr, schema: &Schema, row: &Row) -> Result<Value> {
    match expr {
        Expr::Column(name) => Ok(row.get(schema.index_of(name)?).clone()),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::BinaryOp { left, op, right } => {
            let l = evaluate_row(left, schema, row)?;
            let r = evaluate_row(right, schema, row)?;
            scalar_binary(*op, &l, &r)
        }
        Expr::Not(e) => Ok(match evaluate_row(e, schema, row)?.as_bool()? {
            Some(b) => Value::Boolean(!b),
            None => Value::Null,
        }),
        Expr::IsNull(e) => Ok(Value::Boolean(evaluate_row(e, schema, row)?.is_null())),
        Expr::IsNotNull(e) => Ok(Value::Boolean(!evaluate_row(e, schema, row)?.is_null())),
        Expr::Cast { expr, to } => evaluate_row(expr, schema, row)?.cast_to(*to),
        Expr::Alias { expr, .. } => evaluate_row(expr, schema, row),
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                if evaluate_row(c, schema, row)?.as_bool()? == Some(true) {
                    return evaluate_row(v, schema, row);
                }
            }
            match else_expr {
                Some(e) => evaluate_row(e, schema, row),
                None => Ok(Value::Null),
            }
        }
        Expr::Window {
            time,
            size_us,
            slide_us,
        } => {
            if slide_us != size_us {
                return Err(SsError::Plan(
                    "sliding window() is only valid as a grouping key".into(),
                ));
            }
            match evaluate_row(time, schema, row)?.as_i64()? {
                Some(ts) => Ok(Value::Timestamp(window_start(ts, *size_us, 0))),
                None => Ok(Value::Null),
            }
        }
        Expr::Function { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| evaluate_row(a, schema, row))
                .collect::<Result<_>>()?;
            scalar_builtin(name, &vals)
        }
        Expr::Udf { udf, args } => {
            // Build one-row columns and reuse the vectorized UDF.
            let cols: Vec<Column> = args
                .iter()
                .map(|a| {
                    let v = evaluate_row(a, schema, row)?;
                    let ty = v.data_type().unwrap_or(DataType::Utf8);
                    Column::repeat(&v, ty, 1)
                })
                .collect::<Result<_>>()?;
            let out = (udf.func)(&cols)?;
            Ok(out.value(0))
        }
    }
}

fn scalar_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    if op.is_logical() {
        let (a, b) = (l.as_bool()?, r.as_bool()?);
        return Ok(match (op, a, b) {
            (And, Some(false), _) | (And, _, Some(false)) => Value::Boolean(false),
            (And, Some(true), Some(true)) => Value::Boolean(true),
            (Or, Some(true), _) | (Or, _, Some(true)) => Value::Boolean(true),
            (Or, Some(false), Some(false)) => Value::Boolean(false),
            _ => Value::Null,
        });
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l.total_cmp(r);
        let b = match op {
            Eq => ord.is_eq(),
            NotEq => !ord.is_eq(),
            Lt => ord.is_lt(),
            LtEq => ord.is_le(),
            Gt => ord.is_gt(),
            GtEq => ord.is_ge(),
            _ => unreachable!(),
        };
        return Ok(Value::Boolean(b));
    }
    // Arithmetic: mirror the vectorized kernels' type rules.
    let lt = l.data_type().expect("non-null");
    let rt = r.data_type().expect("non-null");
    let common = lt.common_type(rt)?;
    match common {
        DataType::Int64 => {
            let (x, y) = (l.as_i64()?.unwrap(), r.as_i64()?.unwrap());
            Ok(match op {
                Plus => Value::Int64(x.wrapping_add(y)),
                Minus => Value::Int64(x.wrapping_sub(y)),
                Multiply => Value::Int64(x.wrapping_mul(y)),
                Modulo if y == 0 => Value::Null,
                Modulo => Value::Int64(x.wrapping_rem(y)),
                Divide if y == 0 => Value::Null,
                Divide => Value::Float64(x as f64 / y as f64),
                _ => unreachable!(),
            })
        }
        DataType::Float64 => {
            let (x, y) = (l.as_f64()?.unwrap(), r.as_f64()?.unwrap());
            Ok(Value::Float64(match op {
                Plus => x + y,
                Minus => x - y,
                Multiply => x * y,
                Divide => x / y,
                Modulo => x % y,
                _ => unreachable!(),
            }))
        }
        DataType::Timestamp => {
            let (x, y) = (l.as_i64()?.unwrap(), r.as_i64()?.unwrap());
            Ok(match op {
                Plus => Value::Timestamp(x.wrapping_add(y)),
                Minus => Value::Timestamp(x.wrapping_sub(y)),
                other => {
                    return Err(SsError::Type(format!(
                        "timestamp arithmetic supports only + and -, got {}",
                        other.symbol()
                    )))
                }
            })
        }
        other => Err(SsError::Type(format!("arithmetic not supported on {other}"))),
    }
}

fn scalar_builtin(name: &str, vals: &[Value]) -> Result<Value> {
    match name {
        "lower" | "upper" => match vals[0].as_str()? {
            Some(s) => Ok(Value::str(if name == "lower" {
                s.to_lowercase()
            } else {
                s.to_uppercase()
            })),
            None => Ok(Value::Null),
        },
        "length" => match vals[0].as_str()? {
            Some(s) => Ok(Value::Int64(s.chars().count() as i64)),
            None => Ok(Value::Null),
        },
        "abs" => Ok(match &vals[0] {
            Value::Int64(x) => Value::Int64(x.wrapping_abs()),
            Value::Float64(x) => Value::Float64(x.abs()),
            Value::Null => Value::Null,
            other => return Err(SsError::Type(format!("abs() got {other}"))),
        }),
        "coalesce" => Ok(vals
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        "concat" => {
            let mut s = String::new();
            for v in vals {
                if v.is_null() {
                    return Ok(Value::Null);
                }
                s.push_str(&v.to_string());
            }
            Ok(Value::str(s))
        }
        "like" => match (vals[0].as_str()?, vals[1].as_str()?) {
            (Some(t), Some(p)) => Ok(Value::Boolean(like_match(t, p))),
            _ => Ok(Value::Null),
        },
        "to_int" => match vals[0].as_str()? {
            Some(s) => Ok(Value::Int64(parse_strict_int(s)?)),
            None => Ok(Value::Null),
        },
        other => Err(SsError::Type(format!("unknown function `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{col, lit, window};
    use ss_common::{row, Field, Schema};

    fn batch() -> RecordBatch {
        let schema = Schema::of(vec![
            Field::new("a", DataType::Int64),
            Field::new("s", DataType::Utf8),
            Field::new("t", DataType::Timestamp),
        ]);
        RecordBatch::from_rows(
            schema,
            &[
                row![1i64, "view", Value::Timestamp(25_000_000)],
                row![2i64, "click", Value::Timestamp(31_000_000)],
                row![Value::Null, "view", Value::Timestamp(5_000_000)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn to_int_parses_and_rejects_per_row() {
        use crate::dsl::func;
        let schema = Schema::of(vec![Field::new("s", DataType::Utf8)]);
        let good = RecordBatch::from_rows(
            schema.clone(),
            &[row![" 42 "], row![Value::Null], row!["-7"]],
        )
        .unwrap();
        let e = func("to_int", vec![col("s")]);
        let c = evaluate(&e, &good).unwrap();
        assert_eq!(c.value(0), Value::Int64(42));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int64(-7));
        // One bad row poisons the batch with a Type error naming it.
        let bad = RecordBatch::from_rows(schema.clone(), &[row!["1"], row!["oops"]]).unwrap();
        let err = evaluate(&e, &bad).unwrap_err();
        assert!(matches!(err, SsError::Type(_)), "{err:?}");
        assert!(err.to_string().contains("`oops`"), "{err}");
        // Scalar path agrees with the vectorized path.
        assert_eq!(
            evaluate_row(&e, &schema, &row!["5"]).unwrap(),
            Value::Int64(5)
        );
        assert!(evaluate_row(&e, &schema, &row!["bad"]).is_err());
        assert_eq!(
            crate::expr::builtin_return_type("to_int", &[DataType::Utf8]).unwrap(),
            DataType::Int64
        );
        assert!(crate::expr::builtin_return_type("to_int", &[DataType::Int64]).is_err());
    }

    #[test]
    fn guarded_eval_converts_panics_to_errors() {
        use crate::expr::ScalarUdf;
        let b = batch();
        // A well-behaved expression passes through untouched.
        let ok = evaluate_guarded(&col("a"), &b, 0..b.num_rows()).unwrap();
        assert_eq!(ok.value(0), Value::Int64(1));
        // A panicking UDF becomes a restartable Execution error.
        let udf = ScalarUdf {
            name: "boom".into(),
            return_type: DataType::Int64,
            func: Arc::new(|_cols: &[Column]| -> Result<Column> { panic!("poison key") }),
        };
        let e = Expr::Udf {
            udf,
            args: vec![col("a")],
        };
        let err = evaluate_guarded(&e, &b, 0..b.num_rows()).unwrap_err();
        assert!(matches!(err, SsError::Execution(_)), "{err:?}");
        assert!(err.to_string().contains("poison key"), "{err}");
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        let c = evaluate(&col("a"), &b).unwrap();
        assert_eq!(c.value(0), Value::Int64(1));
        let l = evaluate(&lit(7i64), &b).unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.value(2), Value::Int64(7));
    }

    #[test]
    fn predicate_mask_with_null() {
        let b = batch();
        let mask = evaluate_to_mask(&col("a").gt(lit(1i64)), &b).unwrap();
        // NULL > 1 is NULL -> filtered out.
        assert_eq!(mask, vec![false, true, false]);
    }

    #[test]
    fn string_filter_like_yahoo_benchmark() {
        let b = batch();
        let mask = evaluate_to_mask(&col("s").eq(lit("view")), &b).unwrap();
        assert_eq!(mask, vec![true, false, true]);
    }

    #[test]
    fn window_buckets_timestamps() {
        let b = batch();
        let w = window(col("t"), "10 seconds").unwrap();
        let c = evaluate(&w, &b).unwrap();
        assert_eq!(c.value(0), Value::Timestamp(20_000_000));
        assert_eq!(c.value(1), Value::Timestamp(30_000_000));
        assert_eq!(c.value(2), Value::Timestamp(0));
    }

    #[test]
    fn sliding_window_in_expression_position_rejected() {
        let b = batch();
        let w = crate::dsl::window_sliding(col("t"), "10 seconds", "5 seconds").unwrap();
        assert!(evaluate(&w, &b).is_err());
    }

    #[test]
    fn mixed_type_arithmetic_coerces() {
        let b = batch();
        let c = evaluate(&col("a").add(lit(0.5f64)), &b).unwrap();
        assert_eq!(c.value(0), Value::Float64(1.5));
        assert_eq!(c.value(2), Value::Null);
    }

    #[test]
    fn case_expression() {
        let b = batch();
        let e = Expr::Case {
            branches: vec![(col("s").eq(lit("view")), lit(1i64))],
            else_expr: Some(Box::new(lit(0i64))),
        };
        let c = evaluate(&e, &b).unwrap();
        assert_eq!(
            c.to_values(),
            vec![Value::Int64(1), Value::Int64(0), Value::Int64(1)]
        );
    }

    #[test]
    fn builtins() {
        let b = batch();
        let c = evaluate(
            &Expr::Function {
                name: "upper".into(),
                args: vec![col("s")],
            },
            &b,
        )
        .unwrap();
        assert_eq!(c.value(0), Value::str("VIEW"));
        let c = evaluate(
            &Expr::Function {
                name: "coalesce".into(),
                args: vec![col("a"), lit(99i64)],
            },
            &b,
        )
        .unwrap();
        assert_eq!(c.value(2), Value::Int64(99));
        let c = evaluate(
            &Expr::Function {
                name: "concat".into(),
                args: vec![col("s"), lit("!")],
            },
            &b,
        )
        .unwrap();
        assert_eq!(c.value(1), Value::str("click!"));
        let c = evaluate(
            &Expr::Function {
                name: "length".into(),
                args: vec![col("s")],
            },
            &b,
        )
        .unwrap();
        assert_eq!(c.value(0), Value::Int64(4));
    }

    #[test]
    fn udf_roundtrip() {
        use crate::expr::ScalarUdf;
        let b = batch();
        let udf = ScalarUdf {
            name: "double_it".into(),
            return_type: DataType::Int64,
            func: Arc::new(|cols: &[Column]| {
                let c = cols[0].as_i64()?;
                let out: Vec<Option<i64>> = c.iter().map(|v| v.map(|x| x * 2)).collect();
                Ok(Column::Int64(TypedColumn::from_options(out, 0)))
            }),
        };
        let e = Expr::Udf {
            udf,
            args: vec![col("a")],
        };
        let c = evaluate(&e, &b).unwrap();
        assert_eq!(c.value(1), Value::Int64(4));
        assert_eq!(c.value(2), Value::Null);
    }

    #[test]
    fn like_matching() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("", "%"));
        assert!(!like_match("hello", "h"));
        assert!(!like_match("hello", "H%"));
        assert!(!like_match("hello", "h_y%"));
        // Degenerate repeated wildcards terminate.
        assert!(like_match("abc", "%%%c"));
        // Pathological many-% patterns stay fast (no exponential
        // backtracking): 20 wildcards over a 2k-char non-match.
        let long = "a".repeat(2000);
        let hostile = "%a".repeat(20) + "b";
        assert!(!like_match(&long, &hostile));
        assert!(like_match(&(long.clone() + "b"), &hostile));
        // Unicode is matched per character, not per byte.
        assert!(like_match("héllo", "h_llo"));
        assert!(like_match("héllo", "%é%"));
        let b = batch();
        let e = Expr::Function {
            name: "like".into(),
            args: vec![col("s"), lit("v%w")],
        };
        let c = evaluate(&e, &b).unwrap();
        assert_eq!(c.value(0), Value::Boolean(true));  // "view"
        assert_eq!(c.value(1), Value::Boolean(false)); // "click"
    }

    #[test]
    fn row_and_vectorized_agree() {
        let b = batch();
        let schema = b.schema().clone();
        let exprs = vec![
            col("a").add(lit(1i64)),
            col("a").gt(lit(1i64)),
            col("s").eq(lit("view")).and(col("a").is_not_null()),
            col("a").div(lit(0i64)),
            window(col("t"), "10 seconds").unwrap(),
            Expr::Function {
                name: "coalesce".into(),
                args: vec![col("a"), lit(-1i64)],
            },
            col("a").cast(DataType::Utf8),
            Expr::Function {
                name: "like".into(),
                args: vec![col("s"), lit("%ick")],
            },
        ];
        for e in exprs {
            let vec_col = evaluate(&e, &b).unwrap();
            for (i, r) in b.to_rows().iter().enumerate() {
                let scalar = evaluate_row(&e, &schema, r).unwrap();
                assert_eq!(vec_col.value(i), scalar, "expr {e} row {i}");
            }
        }
    }
}
