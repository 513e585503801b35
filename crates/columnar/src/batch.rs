//! [`RecordBatch`]: a schema plus equal-length column arrays.
//!
//! This is the unit of vectorized execution (Presto's *Page*) and the unit
//! serialized across the storage/compute boundary.

use std::fmt;
use std::sync::Arc;

use crate::array::{Array, ArrayRef};
use crate::datatype::Scalar;
use crate::error::{ColumnarError, Result};
use crate::schema::SchemaRef;

/// An immutable batch of rows in columnar form.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    schema: SchemaRef,
    columns: Vec<ArrayRef>,
    num_rows: usize,
}

impl RecordBatch {
    /// Build a batch, validating schema/column agreement.
    pub fn try_new(schema: SchemaRef, columns: Vec<ArrayRef>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "schema has {} fields but {} columns given",
                schema.len(),
                columns.len()
            )));
        }
        let num_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.data_type() != field.data_type {
                return Err(ColumnarError::SchemaMismatch(format!(
                    "column '{}' declared {} but array is {}",
                    field.name,
                    field.data_type,
                    col.data_type()
                )));
            }
            if col.len() != num_rows {
                return Err(ColumnarError::LengthMismatch {
                    left: num_rows,
                    right: col.len(),
                });
            }
            if !field.nullable && col.null_count() > 0 {
                return Err(ColumnarError::SchemaMismatch(format!(
                    "non-nullable column '{}' contains {} nulls",
                    field.name,
                    col.null_count()
                )));
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            num_rows,
        })
    }

    /// A zero-row batch with the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(crate::builder::ArrayBuilder::new(f.data_type).finish()))
            .collect();
        RecordBatch {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// The batch schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// All columns.
    pub fn columns(&self) -> &[ArrayRef] {
        &self.columns
    }

    /// Consume the batch, handing its columns to the caller.
    pub fn into_columns(self) -> Vec<ArrayRef> {
        self.columns
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &ArrayRef {
        &self.columns[i]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&ArrayRef> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Approximate in-memory byte footprint; drives the data-movement meters.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// A batch with only the columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Result<RecordBatch> {
        let schema = Arc::new(self.schema.project(indices)?);
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        RecordBatch::try_new(schema, columns)
    }

    /// Row `row` as scalars (for tests and display; not a hot path).
    pub fn row(&self, row: usize) -> Vec<Scalar> {
        self.columns.iter().map(|c| c.scalar_at(row)).collect()
    }

    /// All rows as scalar tuples — test helper.
    pub fn rows(&self) -> Vec<Vec<Scalar>> {
        (0..self.num_rows).map(|r| self.row(r)).collect()
    }

    /// Concatenate same-schema batches; a single batch shares its columns.
    pub fn concat(batches: &[RecordBatch]) -> Result<RecordBatch> {
        let first = match batches {
            [] => return Err(ColumnarError::Invalid("concat of zero batches".into())),
            [only] => return Ok(only.clone()),
            [first, ..] => first,
        };
        let schema = first.schema.clone();
        for b in batches {
            if b.schema.as_ref() != schema.as_ref() {
                return Err(ColumnarError::SchemaMismatch(
                    "concat of batches with differing schemas".into(),
                ));
            }
        }
        let mut columns = Vec::with_capacity(schema.len());
        for ci in 0..schema.len() {
            let parts: Vec<&Array> = batches.iter().map(|b| b.column(ci).as_ref()).collect();
            columns.push(Arc::new(Array::concat(&parts)?));
        }
        RecordBatch::try_new(schema, columns)
    }
}

impl fmt::Display for RecordBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        let show = self.num_rows.min(20);
        for r in 0..show {
            let cells: Vec<String> = self.row(r).iter().map(|s| s.to_string()).collect();
            writeln!(f, "[{}]", cells.join(", "))?;
        }
        if show < self.num_rows {
            writeln!(f, "... {} more rows", self.num_rows - show)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Field;
    use crate::schema::Schema;

    fn sample() -> RecordBatch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
        ]));
        RecordBatch::try_new(
            schema,
            vec![
                Arc::new(Array::from_i64(vec![1, 2, 3])),
                Arc::new(Array::from_f64(vec![1.5, 2.5, 3.5])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int64, false)]));
        // Wrong type.
        assert!(
            RecordBatch::try_new(schema.clone(), vec![Arc::new(Array::from_f64(vec![1.0]))])
                .is_err()
        );
        // Wrong column count.
        assert!(RecordBatch::try_new(schema.clone(), vec![]).is_err());
        // Length mismatch.
        let schema2 = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Int64, false),
        ]));
        assert!(RecordBatch::try_new(
            schema2,
            vec![
                Arc::new(Array::from_i64(vec![1])),
                Arc::new(Array::from_i64(vec![1, 2])),
            ]
        )
        .is_err());
    }

    #[test]
    fn nullability_enforced() {
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int64, false)]));
        let mut b = crate::builder::ArrayBuilder::new(DataType::Int64);
        b.push_null();
        assert!(RecordBatch::try_new(schema, vec![Arc::new(b.finish())]).is_err());
    }

    #[test]
    fn projection_and_rows() {
        let batch = sample();
        let p = batch.project(&[1]).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.row(0), vec![Scalar::Float64(1.5)]);
        assert_eq!(batch.column_by_name("v").unwrap().len(), 3);
    }

    #[test]
    fn concat_batches() {
        let b = sample();
        let all = RecordBatch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(all.num_rows(), 6);
        assert_eq!(all.row(5), vec![Scalar::Int64(3), Scalar::Float64(3.5)]);
        let one = RecordBatch::concat(std::slice::from_ref(&b)).unwrap();
        assert!(
            Arc::ptr_eq(one.column(0), b.column(0)),
            "one batch is shared"
        );
    }

    #[test]
    fn empty_batch() {
        let b = sample();
        let e = RecordBatch::empty(b.schema().clone());
        assert_eq!(e.num_rows(), 0);
        assert_eq!(e.num_columns(), 2);
    }
}
