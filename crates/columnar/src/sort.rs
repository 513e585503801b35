//! Multi-key lexicographic sorting and top-N selection.

use crate::array::Array;
use crate::batch::RecordBatch;
use crate::error::{ColumnarError, Result};
use crate::kernels::selection::take_batch;
use std::cmp::Ordering;

/// One `ORDER BY` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column index into the batch being sorted.
    pub column: usize,
    /// Ascending (`ASC`) when true.
    pub ascending: bool,
    /// NULLs first when true (we default to NULLS FIRST for ASC, matching
    /// the engine's null-ordering convention).
    pub nulls_first: bool,
}

impl SortKey {
    /// Ascending key with NULLs first.
    pub fn asc(column: usize) -> Self {
        SortKey {
            column,
            ascending: true,
            nulls_first: true,
        }
    }

    /// Descending key with NULLs last.
    pub fn desc(column: usize) -> Self {
        SortKey {
            column,
            ascending: false,
            nulls_first: false,
        }
    }
}

fn compare_rows(columns: &[&Array], keys: &[SortKey], a: usize, b: usize) -> Ordering {
    for (ki, key) in keys.iter().enumerate() {
        let col = columns[ki];
        let (va, vb) = (col.scalar_at(a), col.scalar_at(b));
        let ord = match (va.is_null(), vb.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if key.nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if key.nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = va.total_cmp(&vb);
                if key.ascending {
                    o
                } else {
                    o.reverse()
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Compute the row permutation that sorts `batch` by `keys` (stable).
pub fn sort_to_indices(batch: &RecordBatch, keys: &[SortKey]) -> Result<Vec<usize>> {
    let columns: Vec<&Array> = keys
        .iter()
        .map(|k| {
            if k.column >= batch.num_columns() {
                Err(ColumnarError::IndexOutOfBounds {
                    index: k.column,
                    len: batch.num_columns(),
                })
            } else {
                Ok(batch.column(k.column).as_ref())
            }
        })
        .collect::<Result<_>>()?;
    let mut indices: Vec<usize> = (0..batch.num_rows()).collect();
    indices.sort_by(|&a, &b| compare_rows(&columns, keys, a, b));
    Ok(indices)
}

/// Sort the whole batch by `keys`.
pub fn sort_batch(batch: &RecordBatch, keys: &[SortKey]) -> Result<RecordBatch> {
    let indices = sort_to_indices(batch, keys)?;
    take_batch(batch, &indices)
}

/// Top-N: the first `n` rows of the sorted order, computed with a bounded
/// partial sort (`select_nth_unstable`-style) instead of a full sort — this
/// is the `ORDER BY … LIMIT n` operator OCS executes in-storage.
pub fn top_n(batch: &RecordBatch, keys: &[SortKey], n: usize) -> Result<RecordBatch> {
    if n == 0 {
        return Ok(RecordBatch::empty(batch.schema().clone()));
    }
    let columns: Vec<&Array> = keys
        .iter()
        .map(|k| {
            if k.column >= batch.num_columns() {
                Err(ColumnarError::IndexOutOfBounds {
                    index: k.column,
                    len: batch.num_columns(),
                })
            } else {
                Ok(batch.column(k.column).as_ref())
            }
        })
        .collect::<Result<_>>()?;
    let mut indices: Vec<usize> = (0..batch.num_rows()).collect();
    if n < indices.len() {
        indices.select_nth_unstable_by(n - 1, |&a, &b| compare_rows(&columns, keys, a, b));
        indices.truncate(n);
    }
    indices.sort_by(|&a, &b| compare_rows(&columns, keys, a, b));
    take_batch(batch, &indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{DataType, Scalar};
    use crate::schema::{Field, Schema};
    use std::sync::Arc;

    fn batch(ids: Vec<i64>, vals: Vec<f64>) -> RecordBatch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
        ]));
        RecordBatch::try_new(
            schema,
            vec![
                Arc::new(Array::from_i64(ids)),
                Arc::new(Array::from_f64(vals)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_key_ascending() {
        let b = batch(vec![3, 1, 2], vec![0.3, 0.1, 0.2]);
        let s = sort_batch(&b, &[SortKey::asc(0)]).unwrap();
        assert_eq!(s.column(0).as_i64().unwrap().values, vec![1, 2, 3]);
    }

    #[test]
    fn single_key_descending() {
        let b = batch(vec![3, 1, 2], vec![0.3, 0.1, 0.2]);
        let s = sort_batch(&b, &[SortKey::desc(1)]).unwrap();
        assert_eq!(s.column(0).as_i64().unwrap().values, vec![3, 2, 1]);
    }

    #[test]
    fn multi_key_lexicographic() {
        let b = batch(vec![1, 2, 1, 2], vec![0.9, 0.1, 0.2, 0.8]);
        let s = sort_batch(&b, &[SortKey::asc(0), SortKey::desc(1)]).unwrap();
        assert_eq!(s.column(0).as_i64().unwrap().values, vec![1, 1, 2, 2]);
        assert_eq!(
            s.column(1).as_f64().unwrap().values,
            vec![0.9, 0.2, 0.8, 0.1]
        );
    }

    #[test]
    fn sort_is_stable() {
        // Equal keys keep input order.
        let b = batch(vec![1, 1, 1], vec![0.1, 0.2, 0.3]);
        let s = sort_batch(&b, &[SortKey::asc(0)]).unwrap();
        assert_eq!(s.column(1).as_f64().unwrap().values, vec![0.1, 0.2, 0.3]);
    }

    #[test]
    fn nulls_first_and_last() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, true)]));
        let mut builder = crate::builder::ArrayBuilder::new(DataType::Int64);
        builder.push_i64(2);
        builder.push_null();
        builder.push_i64(1);
        let b = RecordBatch::try_new(schema, vec![Arc::new(builder.finish())]).unwrap();
        let s = sort_batch(&b, &[SortKey::asc(0)]).unwrap();
        assert_eq!(s.row(0), vec![Scalar::Null]);
        assert_eq!(s.row(1), vec![Scalar::Int64(1)]);
        let s = sort_batch(&b, &[SortKey::desc(0)]).unwrap();
        assert_eq!(s.row(2), vec![Scalar::Null]);
    }

    #[test]
    fn top_n_matches_full_sort_prefix() {
        let n = 7;
        let ids: Vec<i64> = (0..100).map(|i| (i * 37) % 100).collect();
        let vals: Vec<f64> = ids.iter().map(|&i| i as f64 / 3.0).collect();
        let b = batch(ids, vals);
        let keys = [SortKey::asc(1)];
        let full = sort_batch(&b, &keys).unwrap();
        let top = top_n(&b, &keys, n).unwrap();
        assert_eq!(top.num_rows(), n);
        for r in 0..n {
            assert_eq!(top.row(r), full.row(r), "row {r}");
        }
    }

    #[test]
    fn top_n_edge_cases() {
        let b = batch(vec![1, 2], vec![0.1, 0.2]);
        assert_eq!(top_n(&b, &[SortKey::asc(0)], 0).unwrap().num_rows(), 0);
        assert_eq!(top_n(&b, &[SortKey::asc(0)], 10).unwrap().num_rows(), 2);
        assert!(top_n(&b, &[SortKey::asc(9)], 1).is_err());
    }

    /// The distributed combine as the engines perform it: concatenate the
    /// per-split sorted runs, then top-N (or full sort) the lot.
    #[test]
    fn merge_sorted_respects_limit() {
        let b1 = sort_batch(&batch(vec![5, 1, 3], vec![0.0; 3]), &[SortKey::asc(0)]).unwrap();
        let b2 = sort_batch(&batch(vec![4, 2, 6], vec![0.0; 3]), &[SortKey::asc(0)]).unwrap();
        let all = RecordBatch::concat(&[b1, b2]).unwrap();
        let m = top_n(&all, &[SortKey::asc(0)], 4).unwrap();
        assert_eq!(m.column(0).as_i64().unwrap().values, vec![1, 2, 3, 4]);
        let m = sort_batch(&all, &[SortKey::asc(0)]).unwrap();
        assert_eq!(m.column(0).as_i64().unwrap().values, vec![1, 2, 3, 4, 5, 6]);
    }
}
