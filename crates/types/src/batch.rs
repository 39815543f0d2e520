//! Record batches: the unit of data flow.
//!
//! A [`Batch`] is a schema plus one equal-length [`Array`] per field.
//! Operators consume and produce batches; the simulated network ships
//! batches; adapters return batches. Keeping a single unit everywhere
//! makes the byte accounting of the federation experiments exact.

use crate::array::{mask_indices, Array, ArrayBuilder};
use crate::error::{GisError, Result};
use crate::row::Row;
use crate::schema::{Schema, SchemaRef};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A collection of equal-length columns conforming to a schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: SchemaRef,
    columns: Vec<Array>,
    rows: usize,
}

impl Batch {
    /// Builds a batch, validating column count, lengths, and types.
    pub fn try_new(schema: SchemaRef, columns: Vec<Array>) -> Result<Batch> {
        if schema.len() != columns.len() {
            return Err(GisError::Internal(format!(
                "batch has {} columns but schema has {} fields",
                columns.len(),
                schema.len()
            )));
        }
        let rows = columns.first().map_or(0, Array::len);
        for (i, (c, f)) in columns.iter().zip(schema.fields()).enumerate() {
            if c.len() != rows {
                return Err(GisError::Internal(format!(
                    "column {i} has {} rows, expected {rows}",
                    c.len()
                )));
            }
            if c.data_type() != f.data_type {
                return Err(GisError::Internal(format!(
                    "column {i} ('{}') has type {}, schema says {}",
                    f.name,
                    c.data_type(),
                    f.data_type
                )));
            }
        }
        Ok(Batch {
            schema,
            columns,
            rows,
        })
    }

    /// An empty batch (zero rows) of the given schema.
    pub fn empty(schema: SchemaRef) -> Batch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Array::empty(f.data_type))
            .collect();
        Batch {
            schema,
            columns,
            rows: 0,
        }
    }

    /// The same columns (shared, not copied) under another schema —
    /// how an operator installs its output names over rows it did not
    /// change. Column count and types are validated as in
    /// [`Batch::try_new`].
    pub fn with_schema(&self, schema: SchemaRef) -> Result<Batch> {
        Batch::try_new(schema, self.columns.clone())
    }

    /// A batch with zero columns and `rows` rows — the input relation
    /// for a `SELECT` with no `FROM`.
    pub fn placeholder(rows: usize) -> Batch {
        Batch {
            schema: Arc::new(Schema::empty()),
            columns: vec![],
            rows,
        }
    }

    /// Builds a batch from rows of values, coercing to the schema.
    pub fn from_rows(schema: SchemaRef, rows: &[Vec<Value>]) -> Result<Batch> {
        let mut builders: Vec<ArrayBuilder> = schema
            .fields()
            .iter()
            .map(|f| ArrayBuilder::with_capacity(f.data_type, rows.len()))
            .collect();
        for (rn, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(GisError::Internal(format!(
                    "row {rn} has {} values, schema has {} fields",
                    row.len(),
                    schema.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push_value(&v.cast_to(b.data_type())?)?;
            }
        }
        Batch::try_new(
            schema,
            builders.into_iter().map(ArrayBuilder::finish).collect(),
        )
    }

    /// The schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The columns.
    pub fn columns(&self) -> &[Array] {
        &self.columns
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Array {
        &self.columns[i]
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// A borrowed view of row `i`.
    pub fn row(&self, i: usize) -> Row<'_> {
        Row::new(self, i)
    }

    /// Materializes row `i` as values.
    pub fn row_values(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value_at(i)).collect()
    }

    /// All rows materialized (test/debug; O(rows × cols) allocations).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.rows).map(|i| self.row_values(i)).collect()
    }

    /// Keeps rows where `keep` is true.
    pub fn filter(&self, keep: &[bool]) -> Result<Batch> {
        if keep.len() != self.rows {
            return Err(GisError::Internal(format!(
                "filter mask has {} entries for {} rows",
                keep.len(),
                self.rows
            )));
        }
        Ok(self.take(&mask_indices(keep)))
    }

    /// Gathers rows by index (indices may repeat / reorder).
    pub fn take(&self, indices: &[usize]) -> Batch {
        let columns: Vec<Array> = self.columns.iter().map(|c| c.take(indices)).collect();
        Batch {
            schema: self.schema.clone(),
            columns,
            rows: indices.len(),
        }
    }

    /// Rows `[offset, offset+len)` as a new batch.
    pub fn slice(&self, offset: usize, len: usize) -> Batch {
        let len = len.min(self.rows.saturating_sub(offset));
        let columns: Vec<Array> = self.columns.iter().map(|c| c.slice(offset, len)).collect();
        Batch {
            schema: self.schema.clone(),
            columns,
            rows: len,
        }
    }

    /// Projects onto the given column ordinals.
    pub fn project(&self, indices: &[usize]) -> Result<Batch> {
        for &i in indices {
            if i >= self.columns.len() {
                return Err(GisError::Internal(format!(
                    "projection index {i} out of range ({} columns)",
                    self.columns.len()
                )));
            }
        }
        let schema = Arc::new(self.schema.project(indices));
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Ok(Batch {
            schema,
            columns,
            rows: self.rows,
        })
    }

    /// Concatenates batches with identical schemas. A single part
    /// keeps its columns (shared) and only takes on `schema`.
    pub fn concat(schema: SchemaRef, batches: &[Batch]) -> Result<Batch> {
        if batches.is_empty() {
            return Ok(Batch::empty(schema));
        }
        let mut columns = Vec::with_capacity(schema.len());
        for c in 0..schema.len() {
            let parts: Vec<Array> = batches.iter().map(|b| b.columns[c].clone()).collect();
            columns.push(Array::concat(&parts)?);
        }
        Batch::try_new(schema, columns)
    }

    /// Horizontally glues two batches with the same row count
    /// (join output assembly).
    pub fn hstack(&self, right: &Batch) -> Result<Batch> {
        if self.rows != right.rows {
            return Err(GisError::Internal(format!(
                "hstack row mismatch: {} vs {}",
                self.rows, right.rows
            )));
        }
        let schema = Arc::new(self.schema.join(&right.schema));
        let mut columns = self.columns.clone();
        columns.extend(right.columns.iter().cloned());
        Ok(Batch {
            schema,
            columns,
            rows: self.rows,
        })
    }

    /// Approximate bytes on the simulated wire: per-column payload plus
    /// a small frame header per column.
    pub fn wire_size(&self) -> usize {
        8 + self
            .columns
            .iter()
            .map(|c| 4 + c.wire_size())
            .sum::<usize>()
    }

    /// Renders an ASCII table (examples and the bench harness reports).
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rows: Vec<Vec<String>> = (0..self.rows)
            .map(|r| {
                self.columns
                    .iter()
                    .enumerate()
                    .map(|(c, col)| {
                        let s = col.value_at(r).to_string();
                        widths[c] = widths[c].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rows {
            out.push('|');
            for (v, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {v:w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

impl fmt::Display for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Field;

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
        .into_ref()
    }

    fn sample() -> Batch {
        Batch::from_rows(
            schema(),
            &[
                vec![Value::Int64(1), Value::Utf8("ada".into())],
                vec![Value::Int64(2), Value::Null],
                vec![Value::Int64(3), Value::Utf8("grace".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_roundtrip() {
        let b = sample();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.row_values(1), vec![Value::Int64(2), Value::Null]);
    }

    #[test]
    fn try_new_validates_shape() {
        let s = schema();
        let bad_cols = vec![Array::nulls(DataType::Int64, 2)];
        assert!(Batch::try_new(s.clone(), bad_cols).is_err());
        let mismatched = vec![
            Array::nulls(DataType::Int64, 2),
            Array::nulls(DataType::Utf8, 3),
        ];
        assert!(Batch::try_new(s.clone(), mismatched).is_err());
        let wrong_type = vec![
            Array::nulls(DataType::Utf8, 2),
            Array::nulls(DataType::Utf8, 2),
        ];
        assert!(Batch::try_new(s, wrong_type).is_err());
    }

    #[test]
    fn from_rows_coerces_values() {
        let b =
            Batch::from_rows(schema(), &[vec![Value::Int32(7), Value::Utf8("x".into())]]).unwrap();
        assert_eq!(b.row_values(0)[0], Value::Int64(7));
    }

    #[test]
    fn filter_take_slice() {
        let b = sample();
        let f = b.filter(&[true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        let t = b.take(&[2, 2, 0]);
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.row_values(0)[0], Value::Int64(3));
        let s = b.slice(1, 5);
        assert_eq!(s.num_rows(), 2);
    }

    #[test]
    fn project_reorders_columns() {
        let b = sample().project(&[1, 0]).unwrap();
        assert_eq!(b.schema().field(0).name, "name");
        assert_eq!(b.row_values(0)[1], Value::Int64(1));
        assert!(sample().project(&[9]).is_err());
    }

    #[test]
    fn concat_and_hstack() {
        let b = sample();
        let c = Batch::concat(schema(), &[b.clone(), b.clone()]).unwrap();
        assert_eq!(c.num_rows(), 6);
        let empty = Batch::concat(schema(), &[]).unwrap();
        assert_eq!(empty.num_rows(), 0);
        let h = b.hstack(&b).unwrap();
        assert_eq!(h.num_columns(), 4);
        assert!(b.hstack(&b.slice(0, 1)).is_err());
    }

    #[test]
    fn table_rendering_contains_values() {
        let t = sample().to_table();
        assert!(t.contains("ada"));
        assert!(t.contains("NULL"));
        assert!(t.contains("id"));
    }

    #[test]
    fn placeholder_has_rows_without_columns() {
        let p = Batch::placeholder(1);
        assert_eq!(p.num_rows(), 1);
        assert_eq!(p.num_columns(), 0);
    }
}
