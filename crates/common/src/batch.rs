//! [`RecordBatch`]: a schema plus equal-length columns.
//!
//! Batches are the unit of data flow in the vectorized engine: sources
//! produce them, operators transform them, sinks consume them. Invariant:
//! every column's length equals `num_rows` and its type matches the
//! schema — enforced at construction.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::column::{Column, ColumnBuilder};
use crate::error::{Result, SsError};
use crate::row::Row;
use crate::schema::SchemaRef;
use crate::types::Value;

/// Rows in a *vector*: the unit the engine moves through a fused chain
/// of operators, sized so one vector's intermediates stay in cache and
/// in the allocator's recycled small blocks. The bus seals its log
/// chunks at the same bound, so vectors of a scan line up with chunks.
pub const VECTOR_ROWS: usize = 16_384;

/// A horizontal slice of a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordBatch {
    schema: SchemaRef,
    columns: Vec<Column>,
    num_rows: usize,
}

impl RecordBatch {
    /// Build a batch, validating column count, lengths, and types.
    pub fn try_new(schema: SchemaRef, columns: Vec<Column>) -> Result<RecordBatch> {
        if schema.len() != columns.len() {
            return Err(SsError::Schema(format!(
                "schema has {} fields but {} columns given",
                schema.len(),
                columns.len()
            )));
        }
        let num_rows = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields().iter().zip(&columns) {
            if c.len() != num_rows {
                return Err(SsError::Schema(format!(
                    "column `{}` has {} rows, expected {num_rows}",
                    f.name,
                    c.len()
                )));
            }
            if c.data_type() != f.data_type {
                return Err(SsError::Schema(format!(
                    "column `{}` has type {}, schema says {}",
                    f.name,
                    c.data_type(),
                    f.data_type
                )));
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            num_rows,
        })
    }

    /// An empty batch of the given schema.
    pub fn empty(schema: SchemaRef) -> RecordBatch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type))
            .collect();
        RecordBatch {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// Build a batch from rows (the slow path; used by sources/tests).
    pub fn from_rows(schema: SchemaRef, rows: &[Row]) -> Result<RecordBatch> {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        for (ri, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(SsError::Schema(format!(
                    "row {ri} has {} values, schema has {} fields",
                    row.len(),
                    schema.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row.iter()) {
                b.push(v)?;
            }
        }
        let columns = builders.into_iter().map(|b| b.finish()).collect();
        RecordBatch::try_new(schema, columns)
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Scalar at (row, col).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Extract one row.
    pub fn row(&self, i: usize) -> Row {
        Row(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Materialize all rows (slow path).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.num_rows).map(|i| self.row(i)).collect()
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<RecordBatch> {
        if mask.len() != self.num_rows {
            return Err(SsError::Execution(format!(
                "filter mask has {} entries for {} rows",
                mask.len(),
                self.num_rows
            )));
        }
        let columns = self.columns.iter().map(|c| c.filter(mask)).collect();
        RecordBatch::try_new(self.schema.clone(), columns)
    }

    /// Filter only the given columns (by index) of the rows from
    /// `start` that `mask` covers, in one pass: the fused filter+project
    /// fast path — columns the projection drops and rows outside the
    /// range are never materialized.
    pub fn filter_columns(
        &self,
        start: usize,
        mask: &[bool],
        indices: &[usize],
    ) -> Result<RecordBatch> {
        if start + mask.len() > self.num_rows {
            return Err(SsError::Execution(format!(
                "filter mask covers rows [{start}, {}) of {}",
                start + mask.len(),
                self.num_rows
            )));
        }
        let schema = Arc::new(self.schema.project(indices)?);
        let columns = indices
            .iter()
            .map(|&i| self.columns[i].filter_rows(start, mask))
            .collect();
        RecordBatch::try_new(schema, columns)
    }

    /// Gather rows by index.
    pub fn take(&self, indices: &[usize]) -> Result<RecordBatch> {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        RecordBatch::try_new(self.schema.clone(), columns)
    }

    /// Project columns by index, producing the projected schema.
    pub fn project(&self, indices: &[usize]) -> Result<RecordBatch> {
        let schema = Arc::new(self.schema.project(indices)?);
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        RecordBatch::try_new(schema, columns)
    }

    /// Contiguous sub-range of rows.
    pub fn slice(&self, offset: usize, len: usize) -> Result<RecordBatch> {
        if offset + len > self.num_rows {
            return Err(SsError::Execution(format!(
                "slice [{offset}, {}) out of range {}",
                offset + len,
                self.num_rows
            )));
        }
        let columns = self.columns.iter().map(|c| c.slice(offset, len)).collect();
        RecordBatch::try_new(self.schema.clone(), columns)
    }

    /// Concatenate batches with identical schemas.
    pub fn concat(batches: &[RecordBatch]) -> Result<RecordBatch> {
        let first = batches
            .first()
            .ok_or_else(|| SsError::Internal("concat of zero batches".into()))?;
        for b in batches {
            if b.schema != first.schema && b.schema.fields() != first.schema.fields() {
                return Err(SsError::Schema("concat of mismatched schemas".into()));
            }
        }
        let mut columns = Vec::with_capacity(first.num_columns());
        for ci in 0..first.num_columns() {
            let cols: Vec<&Column> = batches.iter().map(|b| b.column(ci)).collect();
            columns.push(Column::concat(&cols)?);
        }
        RecordBatch::try_new(first.schema.clone(), columns)
    }

    /// Pretty-print as an ASCII table (for examples and debugging).
    pub fn pretty(&self) -> String {
        let headers: Vec<String> = self.schema.field_names();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rows: Vec<Vec<String>> = (0..self.num_rows)
            .map(|r| {
                (0..self.num_columns())
                    .map(|c| self.value(r, c).to_string())
                    .collect()
            })
            .collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep = |w: &Vec<usize>| {
            let mut s = String::from("+");
            for width in w {
                s.push_str(&"-".repeat(width + 2));
                s.push('+');
            }
            s
        };
        let fmt_row = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
            }
            s
        };
        let mut out = String::new();
        out.push_str(&sep(&widths));
        out.push('\n');
        out.push_str(&fmt_row(&headers));
        out.push('\n');
        out.push_str(&sep(&widths));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&sep(&widths));
        out
    }
}

impl fmt::Display for RecordBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    fn test_schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
    }

    fn test_batch() -> RecordBatch {
        RecordBatch::from_rows(
            test_schema(),
            &[row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let schema = test_schema();
        // Wrong column count.
        assert!(RecordBatch::try_new(schema.clone(), vec![]).is_err());
        // Wrong type.
        let cols = vec![
            Column::from_values(DataType::Utf8, &[Value::str("x")]).unwrap(),
            Column::from_values(DataType::Utf8, &[Value::str("y")]).unwrap(),
        ];
        assert!(RecordBatch::try_new(schema.clone(), cols).is_err());
        // Mismatched lengths.
        let cols = vec![
            Column::from_values(DataType::Int64, &[Value::Int64(1)]).unwrap(),
            Column::from_values(DataType::Utf8, &[]).unwrap(),
        ];
        assert!(RecordBatch::try_new(schema, cols).is_err());
    }

    #[test]
    fn rows_round_trip() {
        let b = test_batch();
        assert_eq!(b.num_rows(), 3);
        let rows = b.to_rows();
        let b2 = RecordBatch::from_rows(b.schema().clone(), &rows).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let err = RecordBatch::from_rows(test_schema(), &[row![1i64]]).unwrap_err();
        assert!(err.to_string().contains("row 0"));
    }

    #[test]
    fn filter_take_project_slice() {
        let b = test_batch();
        let f = b.filter(&[true, false, true]).unwrap();
        assert_eq!(f.to_rows(), vec![row![1i64, "a"], row![3i64, "c"]]);
        let t = b.take(&[2, 2, 0]).unwrap();
        assert_eq!(t.row(0), row![3i64, "c"]);
        assert_eq!(t.num_rows(), 3);
        let p = b.project(&[1]).unwrap();
        assert_eq!(p.schema().field_names(), vec!["name"]);
        let s = b.slice(1, 2).unwrap();
        assert_eq!(s.to_rows(), vec![row![2i64, "b"], row![3i64, "c"]]);
        assert!(b.slice(2, 2).is_err());
    }

    #[test]
    fn concat_of_slices_round_trips() {
        let b = test_batch();
        let c = RecordBatch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(c.num_rows(), 6);
        let chunks = [c.slice(0, 4).unwrap(), c.slice(4, 2).unwrap()];
        assert_eq!(RecordBatch::concat(&chunks).unwrap(), c);
    }

    #[test]
    fn filter_columns_reads_a_row_range_in_place() {
        let b = test_batch();
        let f = b.filter_columns(1, &[true, true], &[1]).unwrap();
        assert_eq!(f.to_rows(), vec![row!["b"], row!["c"]]);
        let f = b.filter_columns(0, &[false, true], &[1, 0]).unwrap();
        assert_eq!(f.to_rows(), vec![row!["b", 2i64]]);
        assert!(b.filter_columns(2, &[true, true], &[0]).is_err());
    }

    #[test]
    fn empty_batch_has_schema() {
        let e = RecordBatch::empty(test_schema());
        assert_eq!(e.num_rows(), 0);
        assert_eq!(e.num_columns(), 2);
    }

    #[test]
    fn column_by_name_and_value() {
        let b = test_batch();
        assert_eq!(b.column_by_name("name").unwrap().value(1), Value::str("b"));
        assert!(b.column_by_name("zzz").is_err());
        assert_eq!(b.value(0, 0), Value::Int64(1));
    }

    #[test]
    fn pretty_prints_a_table() {
        let p = test_batch().pretty();
        assert!(p.contains("| id | name |"));
        assert!(p.contains("| 1  | a    |"));
    }
}
