//! Hash equi-joins (inner, left-outer, right-outer).
//!
//! The build side is the right input; the probe side streams the left.
//! NULL join keys never match (SQL equi-join semantics). Output schema
//! is the concatenation of the two inputs, with the null-extended side
//! of an outer join marked nullable — identical to
//! `LogicalPlan::Join::schema`.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use ss_common::{Column, Field, RecordBatch, Result, Row, Schema, SchemaRef};
use ss_expr::eval::evaluate;
use ss_expr::Expr;
use ss_plan::JoinType;

/// The output schema of a join between two inputs.
pub fn join_output_schema(
    left: &Schema,
    right: &Schema,
    join_type: JoinType,
) -> SchemaRef {
    let lf: Vec<Field> = left
        .fields()
        .iter()
        .map(|f| {
            if join_type == JoinType::RightOuter {
                f.as_nullable()
            } else {
                f.clone()
            }
        })
        .collect();
    let rf: Vec<Field> = right
        .fields()
        .iter()
        .map(|f| {
            if join_type == JoinType::LeftOuter {
                f.as_nullable()
            } else {
                f.clone()
            }
        })
        .collect();
    Arc::new(Schema::from(lf).join(&Schema::from(rf)))
}

/// Evaluate the join-key expressions for one side into per-row key
/// rows; a key containing any NULL is `None` (never matches).
pub fn evaluate_keys(batch: &RecordBatch, exprs: &[Expr]) -> Result<Vec<Option<Row>>> {
    let cols = key_columns(batch, exprs.iter())?;
    Ok((0..batch.num_rows()).map(|i| key_row(&cols, i)).collect())
}

fn key_columns<'a>(
    batch: &RecordBatch,
    exprs: impl Iterator<Item = &'a Expr>,
) -> Result<Vec<Column>> {
    exprs.map(|e| evaluate(e, batch)).collect()
}

fn key_row(cols: &[Column], i: usize) -> Option<Row> {
    cols.iter()
        .all(|c| c.is_valid(i))
        .then(|| Row::new(cols.iter().map(|c| c.value(i)).collect()))
}

/// Hash join of two batches on `left_keys[i] = right_keys[i]`.
pub fn hash_join(
    left: &RecordBatch,
    right: &RecordBatch,
    join_type: JoinType,
    on: &[(Expr, Expr)],
) -> Result<RecordBatch> {
    hash_join_projected(left, right, join_type, on, None)
}

/// Hash join that materializes only the projected output columns
/// (indices into the concatenated left+right output schema) — callers
/// that immediately drop the join keys (e.g. an aggregation above the
/// join) skip building them entirely. Builds the right side's
/// [`KeyTable`], then probes it.
pub fn hash_join_projected(
    left: &RecordBatch,
    right: &RecordBatch,
    join_type: JoinType,
    on: &[(Expr, Expr)],
    output_projection: Option<&[usize]>,
) -> Result<RecordBatch> {
    let table = KeyTable::build(right, on, true)?;
    probe_join(left, right, &table, join_type, on, output_projection)
}

/// [`hash_join_projected`] against a `table` already built over
/// `right` with the same `on`: a build side that outlives one call
/// (the static side of a stream–static join) is hashed once.
pub fn probe_join(
    left: &RecordBatch,
    right: &RecordBatch,
    table: &KeyTable,
    join_type: JoinType,
    on: &[(Expr, Expr)],
    output_projection: Option<&[usize]>,
) -> Result<RecordBatch> {
    let cols = key_columns(left, on.iter().map(|(l, _)| l))?;
    let (left_idx, right_idx) = match (&table.heads, &cols[..]) {
        (Heads::I64(heads), [Column::Int64(c) | Column::Timestamp(c)]) => {
            table.probe(left.num_rows(), join_type, |i| c.get(i).and_then(|k| heads.get(k).copied()))
        }
        (Heads::Rows(heads), _) => table.probe(left.num_rows(), join_type, |i| {
            key_row(&cols, i).and_then(|k| heads.get(&k).copied())
        }),
        // Raw integers only ever meet raw integers: a probe key of
        // another type (a DOUBLE equal to a BIGINT) compares as rows.
        (Heads::I64(_), _) => {
            let as_rows = KeyTable::build(right, on, false)?;
            return probe_join(left, right, &as_rows, join_type, on, output_projection);
        }
    };

    let full_schema = join_output_schema(left.schema(), right.schema(), join_type);
    let n_left = left.num_columns();
    let build = |i: usize| {
        if i < n_left {
            left.column(i).take_opt(&left_idx)
        } else {
            right.column(i - n_left).take_opt(&right_idx)
        }
    };
    match output_projection {
        None => {
            let columns = (0..full_schema.len()).map(build).collect();
            RecordBatch::try_new(full_schema, columns)
        }
        Some(idx) => {
            let schema = Arc::new(full_schema.project(idx)?);
            let columns = idx.iter().map(|&i| build(i)).collect();
            RecordBatch::try_new(schema, columns)
        }
    }
}

type JoinIndices = (Vec<Option<usize>>, Vec<Option<usize>>);

/// A build side's join keys, hashed once: key → the rows holding it,
/// in arrival order (`heads` has a key's first row, `next` chains the
/// rest; no per-key allocation).
pub struct KeyTable {
    heads: Heads,
    next: Vec<usize>,
}

/// A single integer-typed key hashes raw `i64`s instead of boxed rows
/// (the Yahoo benchmark's join shape).
enum Heads {
    I64(FxHashMap<i64, usize>),
    Rows(FxHashMap<Row, usize>),
}

/// Chain terminator in [`KeyTable::next`].
const END: usize = usize::MAX;

impl KeyTable {
    /// Hash the right-hand keys of `on` over `right`; `typed` allows
    /// the raw-integer layout when the key is a single integer column.
    pub fn build(right: &RecordBatch, on: &[(Expr, Expr)], typed: bool) -> Result<KeyTable> {
        fn chain<K: std::hash::Hash + Eq>(
            next: &mut [usize],
            key: impl Fn(usize) -> Option<K>,
        ) -> FxHashMap<K, usize> {
            let mut heads = FxHashMap::default();
            // Back to front, so a chain lists its rows front to back.
            for i in (0..next.len()).rev() {
                if let Some(k) = key(i) {
                    next[i] = heads.insert(k, i).unwrap_or(END);
                }
            }
            heads
        }
        let cols = key_columns(right, on.iter().map(|(_, r)| r))?;
        let mut next = vec![END; right.num_rows()];
        let heads = match &cols[..] {
            [Column::Int64(c) | Column::Timestamp(c)] if typed => {
                Heads::I64(chain(&mut next, |i| c.get(i).copied()))
            }
            _ => Heads::Rows(chain(&mut next, |i| key_row(&cols, i))),
        };
        Ok(KeyTable { heads, next })
    }

    /// The join's `(left, right)` row pairs, `head(i)` being the first
    /// build row matching probe row `i`.
    fn probe(
        &self,
        probe_rows: usize,
        join_type: JoinType,
        head: impl Fn(usize) -> Option<usize>,
    ) -> JoinIndices {
        let mut left_idx: Vec<Option<usize>> = Vec::with_capacity(probe_rows);
        let mut right_idx: Vec<Option<usize>> = Vec::with_capacity(probe_rows);
        let mut right_matched = vec![false; self.next.len()];
        for li in 0..probe_rows {
            let mut ri = head(li).unwrap_or(END);
            if ri == END && join_type == JoinType::LeftOuter {
                left_idx.push(Some(li));
                right_idx.push(None);
            }
            while ri != END {
                left_idx.push(Some(li));
                right_idx.push(Some(ri));
                right_matched[ri] = true;
                ri = self.next[ri];
            }
        }
        if join_type == JoinType::RightOuter {
            for (ri, matched) in right_matched.iter().enumerate() {
                if !matched {
                    left_idx.push(None);
                    right_idx.push(Some(ri));
                }
            }
        }
        (left_idx, right_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::{row, DataType, Value};
    use ss_expr::col;

    fn ads() -> RecordBatch {
        RecordBatch::from_rows(
            Schema::of(vec![
                Field::new("ad_id", DataType::Int64),
                Field::new("kind", DataType::Utf8),
            ]),
            &[
                row![1i64, "view"],
                row![2i64, "view"],
                row![9i64, "view"],
                row![Value::Null, "view"],
            ],
        )
        .unwrap()
    }

    fn campaigns() -> RecordBatch {
        RecordBatch::from_rows(
            Schema::of(vec![
                Field::new("c_ad_id", DataType::Int64),
                Field::new("campaign", DataType::Utf8),
            ]),
            &[row![1i64, "c1"], row![2i64, "c2"], row![3i64, "c3"]],
        )
        .unwrap()
    }

    fn on() -> Vec<(Expr, Expr)> {
        vec![(col("ad_id"), col("c_ad_id"))]
    }

    #[test]
    fn inner_join_matches_keys() {
        let out = hash_join(&ads(), &campaigns(), JoinType::Inner, &on()).unwrap();
        assert_eq!(
            out.to_rows(),
            vec![
                row![1i64, "view", 1i64, "c1"],
                row![2i64, "view", 2i64, "c2"],
            ]
        );
    }

    #[test]
    fn left_outer_pads_unmatched_left_rows() {
        let out = hash_join(&ads(), &campaigns(), JoinType::LeftOuter, &on()).unwrap();
        assert_eq!(out.num_rows(), 4);
        // ad_id=9 and the NULL key get NULL campaign columns.
        let r9 = out.to_rows();
        assert_eq!(r9[2], row![9i64, "view", Value::Null, Value::Null]);
        assert_eq!(r9[3], row![Value::Null, "view", Value::Null, Value::Null]);
        // Right fields are nullable in the output schema.
        assert!(out.schema().field(3).nullable);
    }

    #[test]
    fn right_outer_pads_unmatched_right_rows() {
        let out = hash_join(&ads(), &campaigns(), JoinType::RightOuter, &on()).unwrap();
        assert_eq!(out.num_rows(), 3);
        let rows = out.to_rows();
        assert_eq!(rows[2], row![Value::Null, Value::Null, 3i64, "c3"]);
    }

    #[test]
    fn null_keys_never_match() {
        let left = RecordBatch::from_rows(
            Schema::of(vec![Field::new("k", DataType::Int64)]),
            &[row![Value::Null]],
        )
        .unwrap();
        let right = RecordBatch::from_rows(
            Schema::of(vec![Field::new("k2", DataType::Int64)]),
            &[row![Value::Null]],
        )
        .unwrap();
        let out = hash_join(&left, &right, JoinType::Inner, &[(col("k"), col("k2"))]).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn duplicate_build_keys_produce_all_pairs() {
        let right = RecordBatch::from_rows(
            Schema::of(vec![
                Field::new("c_ad_id", DataType::Int64),
                Field::new("campaign", DataType::Utf8),
            ]),
            &[row![1i64, "c1"], row![1i64, "c1b"]],
        )
        .unwrap();
        let out = hash_join(&ads(), &right, JoinType::Inner, &on()).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn prebuilt_table_probes_like_hash_join_for_every_join_type() {
        // Duplicate build keys: matches come back in build-row order.
        let right = RecordBatch::from_rows(
            campaigns().schema().clone(),
            &[row![1i64, "c1"], row![2i64, "c2"], row![1i64, "c1b"], row![Value::Null, "cn"]],
        )
        .unwrap();
        let table = KeyTable::build(&right, &on(), true).unwrap();
        for join_type in [JoinType::Inner, JoinType::LeftOuter, JoinType::RightOuter] {
            // One table serves any number of probe batches.
            for left in [ads(), ads().slice(1, 2).unwrap(), ads().slice(0, 0).unwrap()] {
                let probed = probe_join(&left, &right, &table, join_type, &on(), None).unwrap();
                assert_eq!(probed, hash_join(&left, &right, join_type, &on()).unwrap());
            }
        }
        let out = probe_join(&ads(), &right, &table, JoinType::Inner, &on(), Some(&[3])).unwrap();
        assert_eq!(out.to_rows(), vec![row!["c1"], row!["c1b"], row!["c2"]]);
    }

    #[test]
    fn integer_table_still_matches_a_double_probe_key() {
        let left = RecordBatch::from_rows(
            Schema::of(vec![Field::new("ad_id", DataType::Float64)]),
            &[row![2.0f64], row![2.5f64]],
        )
        .unwrap();
        let table = KeyTable::build(&campaigns(), &on(), true).unwrap();
        let out = probe_join(&left, &campaigns(), &table, JoinType::Inner, &on(), None).unwrap();
        assert_eq!(out.to_rows(), vec![row![2.0f64, 2i64, "c2"]]);
    }

    #[test]
    fn multi_key_join() {
        let left = RecordBatch::from_rows(
            Schema::of(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Utf8),
            ]),
            &[row![1i64, "x"], row![1i64, "y"]],
        )
        .unwrap();
        let right = RecordBatch::from_rows(
            Schema::of(vec![
                Field::new("a2", DataType::Int64),
                Field::new("b2", DataType::Utf8),
            ]),
            &[row![1i64, "x"]],
        )
        .unwrap();
        let out = hash_join(
            &left,
            &right,
            JoinType::Inner,
            &[(col("a"), col("a2")), (col("b"), col("b2"))],
        )
        .unwrap();
        assert_eq!(out.to_rows(), vec![row![1i64, "x", 1i64, "x"]]);
    }

    #[test]
    fn empty_inputs() {
        let empty_left = RecordBatch::empty(ads().schema().clone());
        let out = hash_join(&empty_left, &campaigns(), JoinType::Inner, &on()).unwrap();
        assert_eq!(out.num_rows(), 0);
        let out = hash_join(&empty_left, &campaigns(), JoinType::RightOuter, &on()).unwrap();
        assert_eq!(out.num_rows(), 3);
    }
}
