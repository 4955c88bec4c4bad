//! Stateless per-batch operators: filter, project, sort, limit,
//! distinct.

use std::ops::Range;
use std::sync::Arc;

use rustc_hash::FxHashSet;

use ss_common::{RecordBatch, Result, Row, Schema, SchemaRef};
use ss_expr::eval::{evaluate, evaluate_guarded};
use ss_expr::Expr;
use ss_plan::SortKey;

/// Named fail points in the stateless operator chain.
pub mod failpoints {
    /// Fires inside the engines around each stateless filter/project
    /// application — the injection point for simulated per-record
    /// evaluation failures (the poison-record chaos suite). An
    /// application is one *vector* (16 384 rows) where the operator runs
    /// fused into an aggregate's ingest or in a map task, so a bigger
    /// epoch hits the point once per vector, not once per epoch or
    /// task; every suite but `tests/quarantine.rs`'s big-epoch cases
    /// feeds fewer rows per epoch, so their hit counts are unchanged.
    pub const RECORD_EVAL: &str = "exec.record.eval";
}

/// `WHERE predicate`: keep rows where the predicate is true (NULL
/// counts as false, per SQL). Evaluation is guarded: a panic inside
/// the predicate fails the batch, not the thread.
pub fn filter_batch(batch: &RecordBatch, predicate: &Expr) -> Result<RecordBatch> {
    let all = needed_columns(batch.schema(), &[])?;
    filter_project_rows(batch, 0..batch.num_rows(), predicate, None, &all)
}

/// `SELECT exprs`: evaluate each expression into an output column.
pub fn project_batch(batch: &RecordBatch, exprs: &[Expr]) -> Result<RecordBatch> {
    let in_schema = batch.schema();
    let mut fields = Vec::with_capacity(exprs.len());
    let mut columns = Vec::with_capacity(exprs.len());
    for e in exprs {
        let col = evaluate_guarded(e, batch, 0..batch.num_rows())?;
        fields.push(ss_common::Field {
            name: e.output_name(),
            data_type: col.data_type(),
            nullable: e.nullable(in_schema),
        });
        columns.push(col);
    }
    RecordBatch::try_new(Arc::new(Schema::new(fields)?), columns)
}

/// The columns of `schema` (ascending ordinals) a filter must keep
/// for `exprs` to evaluate over its output: those they reference, or
/// every column when they reference none — no projection, or a
/// pure-literal one whose row count must still come from the filtered
/// batch.
pub fn needed_columns(schema: &Schema, exprs: &[Expr]) -> Result<Vec<usize>> {
    let mut needed: Vec<usize> = Vec::new();
    for name in exprs.iter().flat_map(|e| e.referenced_columns()) {
        needed.push(schema.index_of(&name)?);
    }
    needed.sort_unstable();
    needed.dedup();
    if needed.is_empty() {
        needed.extend(0..schema.len());
    }
    Ok(needed)
}

/// Fused `SELECT exprs WHERE predicate` (every column when `exprs` is
/// `None`) over the row range `rows` of `batch`: evaluates the mask on
/// the range in place, then filters **only** the `needed` columns
/// ([`needed_columns`] of `exprs`, resolved once per operator) before
/// evaluating the projection — columns it drops and rows outside the
/// range are never copied (§5.3-style pipelining of selection into
/// projection).
pub fn filter_project_rows(
    batch: &RecordBatch,
    rows: Range<usize>,
    predicate: &Expr,
    exprs: Option<&[Expr]>,
    needed: &[usize],
) -> Result<RecordBatch> {
    let mask = evaluate_guarded(predicate, batch, rows.clone())?.to_mask()?;
    let narrowed = batch.filter_columns(rows.start, &mask, needed)?;
    match exprs {
        Some(exprs) => project_batch(&narrowed, exprs),
        None => Ok(narrowed),
    }
}

/// `ORDER BY keys`: total sort of the concatenated input.
pub fn sort_batch(batch: &RecordBatch, keys: &[SortKey]) -> Result<RecordBatch> {
    let key_cols: Vec<_> = keys
        .iter()
        .map(|k| evaluate(&k.expr, batch))
        .collect::<Result<Vec<_>>>()?;
    let mut indices: Vec<usize> = (0..batch.num_rows()).collect();
    indices.sort_by(|&a, &b| {
        for (kc, k) in key_cols.iter().zip(keys) {
            let ord = kc.value(a).total_cmp(&kc.value(b));
            let ord = if k.ascending { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    batch.take(&indices)
}

/// `LIMIT n`.
pub fn limit_batch(batch: &RecordBatch, n: usize) -> Result<RecordBatch> {
    if batch.num_rows() <= n {
        Ok(batch.clone())
    } else {
        batch.slice(0, n)
    }
}

/// `SELECT DISTINCT`: keep the first occurrence of each row.
pub fn distinct_batch(batch: &RecordBatch) -> Result<RecordBatch> {
    let mut seen: FxHashSet<Row> = FxHashSet::default();
    let mut keep = Vec::with_capacity(batch.num_rows());
    for i in 0..batch.num_rows() {
        keep.push(seen.insert(batch.row(i)));
    }
    batch.filter(&keep)
}

/// Concatenate a stream of batches into one (operators here work on a
/// single batch; callers concatenate per-partition outputs).
pub fn concat_batches(schema: &SchemaRef, batches: &[RecordBatch]) -> Result<RecordBatch> {
    if batches.is_empty() {
        return Ok(RecordBatch::empty(schema.clone()));
    }
    RecordBatch::concat(batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::{row, DataType, Field, Value};
    use ss_expr::{col, lit};

    fn batch() -> RecordBatch {
        RecordBatch::from_rows(
            Schema::of(vec![
                Field::new("id", DataType::Int64),
                Field::new("kind", DataType::Utf8),
            ]),
            &[
                row![3i64, "view"],
                row![1i64, "click"],
                row![2i64, "view"],
                row![1i64, "click"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let out = filter_batch(&batch(), &col("kind").eq(lit("view"))).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.row(0), row![3i64, "view"]);
    }

    #[test]
    fn project_computes_and_names() {
        let out = project_batch(&batch(), &[col("id").mul(lit(10i64)).alias("x")]).unwrap();
        assert_eq!(out.schema().field_names(), vec!["x"]);
        assert_eq!(out.value(0, 0), Value::Int64(30));
    }

    #[test]
    fn sort_orders_with_direction_and_ties() {
        let out = sort_batch(
            &batch(),
            &[SortKey::asc(col("id")), SortKey::desc(col("kind"))],
        )
        .unwrap();
        let ids: Vec<Value> = (0..4).map(|i| out.value(i, 0)).collect();
        assert_eq!(
            ids,
            vec![Value::Int64(1), Value::Int64(1), Value::Int64(2), Value::Int64(3)]
        );
    }

    #[test]
    fn limit_truncates() {
        assert_eq!(limit_batch(&batch(), 2).unwrap().num_rows(), 2);
        assert_eq!(limit_batch(&batch(), 100).unwrap().num_rows(), 4);
    }

    #[test]
    fn distinct_dedupes_whole_rows() {
        let out = distinct_batch(&batch()).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn concat_handles_empty() {
        let b = batch();
        let empty = concat_batches(b.schema(), &[]).unwrap();
        assert_eq!(empty.num_rows(), 0);
        let two = concat_batches(b.schema(), &[b.clone(), b.clone()]).unwrap();
        assert_eq!(two.num_rows(), 8);
    }
}
