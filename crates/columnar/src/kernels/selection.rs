//! Selection kernels: `filter` (keep masked rows) and `take` (gather by
//! index). These are the work-horses of predicate evaluation and sorting.

use std::sync::{Arc, OnceLock};

use crate::array::{
    checked_utf8_len, Array, BooleanArray, Date32Array, Float64Array, Int64Array, Utf8Array,
};
use crate::batch::RecordBatch;
use crate::bitmap::Bitmap;
use crate::error::{ColumnarError, Result};
use crate::kernels::boolean::true_bits;

/// The validity bits at `keep`, for gathers that reorder or repeat rows.
fn filtered_validity(validity: Option<&Bitmap>, keep: &[usize]) -> Option<Bitmap> {
    validity.map(|v| keep.iter().map(|&i| v.get(i)).collect())
}

/// Rows that selections gathered, process-wide.
fn rows_gathered() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::metrics().counter("columnar.rows_gathered"))
}

/// How a boolean mask resolves over a row domain: every row survives, no
/// row survives, or the rows whose bits are set.
///
/// Computing this once per mask lets callers reuse it across many columns
/// (instead of re-walking the mask per column) and take the degenerate
/// fast paths: `All` filters are zero-copy at the batch level (shared
/// `Arc` columns) and `None` filters skip row materialization entirely —
/// which is what makes late-materialized scans cheap on low-selectivity
/// predicates. A partial selection keeps its bitmap, not a list of row
/// indices, and every column type gathers from it a 64-row word at a time:
/// values and dictionary codes, validity and Boolean bits, string bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// All rows of a domain of the given length survive.
    All(usize),
    /// No row of a domain of the given length survives.
    None(usize),
    /// The rows whose bits are set survive; `count` of them, at least one
    /// and fewer than the domain.
    Some {
        /// One bit per row of the domain.
        bits: Bitmap,
        /// Number of set bits.
        count: usize,
    },
}

impl Selection {
    /// Resolve a filter mask (valid-and-true rows survive).
    pub fn from_mask(mask: &BooleanArray) -> Selection {
        Selection::from_bitmap(true_bits(mask))
    }

    /// Resolve a plain bitmap (set bits survive).
    pub fn from_bitmap(bits: Bitmap) -> Selection {
        let n = bits.len();
        match bits.count_ones() {
            0 => Selection::None(n),
            ones if ones == n => Selection::All(n),
            count => Selection::Some { bits, count },
        }
    }

    /// Number of surviving rows.
    pub fn count(&self) -> usize {
        match self {
            Selection::All(n) => *n,
            Selection::None(_) => 0,
            Selection::Some { count, .. } => *count,
        }
    }

    /// True when no row survives.
    pub fn is_none(&self) -> bool {
        matches!(self, Selection::None(_))
    }

    /// Apply to a single array. `All` clones the array; `None` produces an
    /// empty array of the same type without touching row data.
    pub fn apply(&self, a: &Array) -> Result<Array> {
        self.gather(&[a]).map(|mut cols| cols.swap_remove(0))
    }

    /// Apply to every column of a batch. `All` is zero-copy (the batch's
    /// `Arc` columns are shared, not re-gathered).
    pub fn apply_batch(&self, batch: &RecordBatch) -> Result<RecordBatch> {
        if let Selection::All(n) = self {
            check_selection_len(batch.num_rows(), *n)?;
            return Ok(batch.clone());
        }
        let columns: Vec<&Array> = batch.columns().iter().map(|c| c.as_ref()).collect();
        let gathered = self.gather(&columns)?;
        RecordBatch::try_new(
            batch.schema().clone(),
            gathered.into_iter().map(Arc::new).collect(),
        )
    }

    /// Rows in the domain the selection resolves.
    fn domain(&self) -> usize {
        match self {
            Selection::All(n) | Selection::None(n) => *n,
            Selection::Some { bits, .. } => bits.len(),
        }
    }

    /// The surviving rows of each of `columns`, each gathered by one walk
    /// over the selection's words.
    fn gather(&self, columns: &[&Array]) -> Result<Vec<Array>> {
        for c in columns {
            check_selection_len(c.len(), self.domain())?;
        }
        let none;
        let (bits, count) = match self {
            Selection::All(_) => return Ok(columns.iter().map(|&c| c.clone()).collect()),
            Selection::None(n) => {
                none = Bitmap::with_value(*n, false);
                (&none, 0)
            }
            Selection::Some { bits, count } => (bits, *count),
        };
        rows_gathered().add(count as u64);
        Ok(columns
            .iter()
            .map(|c| gather_array(c, bits, count))
            .collect())
    }
}

/// The rows of `a` at the `count` set bits of `bits`, in order. Values,
/// codes, validity and Boolean bits all move a word of the selection at a
/// time; a dictionary keeps its entries.
fn gather_array(a: &Array, bits: &Bitmap, count: usize) -> Array {
    let validity = |v: &Option<Bitmap>| v.as_ref().map(|v| gather_bits(v, bits, count));
    match a {
        Array::Int64(x) => Array::Int64(Int64Array {
            values: gather_words(&x.values, bits, count),
            validity: validity(&x.validity),
        }),
        Array::Float64(x) => Array::Float64(Float64Array {
            values: gather_words(&x.values, bits, count),
            validity: validity(&x.validity),
        }),
        Array::Date32(x) => Array::Date32(Date32Array {
            values: gather_words(&x.values, bits, count),
            validity: validity(&x.validity),
        }),
        Array::Boolean(x) => Array::Boolean(BooleanArray {
            values: gather_bits(&x.values, bits, count),
            validity: validity(&x.validity),
        }),
        Array::Utf8(x) => Array::Utf8(gather_utf8(x, bits, count)),
        Array::Dict(x) => Array::Dict(x.gather(bits, count)),
    }
}

/// A word of the selection whose runs of set bits average at least this
/// many rows copies each run as one slice; a word of shorter runs moves its
/// rows one at a time, since a slice copy costs more than a few rows do.
const RUN_ROWS: u32 = 4;

/// The runs of consecutive set bits of `word`, as bit ranges, low to high.
fn word_runs(mut word: u64) -> impl Iterator<Item = std::ops::Range<usize>> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let start = word.trailing_zeros();
            let len = (word >> start).trailing_ones();
            // Adding the lowest set bit carries through its run and clears it.
            word &= word.wrapping_add(word & word.wrapping_neg());
            start as usize..(start + len) as usize
        })
    })
}

/// The `count` values at the set bits of `bits`, a word of 64 rows at a
/// time, into an output sized once. Each word picks its own way from its
/// bits: a word of long runs (a full word is one run of 64) copies each run
/// as a slice, a word of short runs walks its set bits, and an empty word
/// does nothing.
pub(crate) fn gather_words<T: Copy>(values: &[T], bits: &Bitmap, count: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(count);
    for (&word, chunk) in bits.words().iter().zip(values.chunks(64)) {
        let runs = (word & !(word << 1)).count_ones();
        if runs * RUN_ROWS <= word.count_ones() {
            for rows in word_runs(word) {
                out.extend_from_slice(&chunk[rows]);
            }
        } else {
            let mut word = word;
            while word != 0 {
                out.push(chunk[word.trailing_zeros() as usize]);
                word &= word - 1;
            }
        }
    }
    out
}

/// The `count` bits of `src` at the set bits of `bits`, packed in order.
/// Each word of the selection compacts `src`'s word one run of set bits at
/// a time (a full word is one run), and the compacted bits are appended at
/// the running bit position.
pub(crate) fn gather_bits(src: &Bitmap, bits: &Bitmap, count: usize) -> Bitmap {
    let mut words = Vec::with_capacity(count.div_ceil(64));
    let (mut acc, mut fill) = (0u64, 0u32);
    for (&sel, &word) in bits.words().iter().zip(src.words()) {
        let (mut packed, mut n) = (0u64, 0u32);
        for rows in word_runs(sel) {
            let len = rows.len() as u32;
            packed |= ((word >> rows.start) & (u64::MAX >> (64 - len))) << n;
            n += len;
        }
        acc |= packed << fill;
        fill += n;
        if fill >= 64 {
            words.push(acc);
            fill -= 64;
            // The bits of `packed` that did not fit; none when it went in whole.
            acc = packed.checked_shr(n - fill).unwrap_or(0);
        }
    }
    if fill > 0 {
        words.push(acc);
    }
    Bitmap::from_words(words, count)
}

/// Each run of consecutive set bits of `bits` within one word, as a row
/// range, in order.
fn runs(bits: &Bitmap) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    (bits.words().iter().enumerate())
        .flat_map(|(w, &word)| word_runs(word).map(move |r| w * 64 + r.start..w * 64 + r.end))
}

/// The `count` strings at the set bits of `bits`, in two walks over the
/// runs of set bits: one sums their bytes so both buffers are sized once,
/// the other copies each run's bytes as one slice and rebases its offsets.
/// A subset of the rows fits the `u32` offsets that all of them fit.
fn gather_utf8(x: &Utf8Array, bits: &Bitmap, count: usize) -> Utf8Array {
    let offsets = &x.offsets;
    let total: usize = runs(bits)
        .map(|r| (offsets[r.end] - offsets[r.start]) as usize)
        .sum();
    let mut data = Vec::with_capacity(total);
    let mut out = Vec::with_capacity(count + 1);
    out.push(0u32);
    for r in runs(bits) {
        let (from, base) = (offsets[r.start], data.len() as u32);
        data.extend_from_slice(&x.data[from as usize..offsets[r.end] as usize]);
        out.extend(
            offsets[r.start + 1..=r.end]
                .iter()
                .map(|&o| o - from + base),
        );
    }
    Utf8Array {
        offsets: out,
        data: data.into(),
        validity: x.validity.as_ref().map(|v| gather_bits(v, bits, count)),
    }
}

fn check_selection_len(rows: usize, domain: usize) -> Result<()> {
    if rows != domain {
        return Err(ColumnarError::LengthMismatch {
            left: rows,
            right: domain,
        });
    }
    Ok(())
}

/// Keep the rows of `a` where `mask` is valid-and-true.
pub fn filter(a: &Array, mask: &BooleanArray) -> Result<Array> {
    if a.len() != mask.values.len() {
        return Err(ColumnarError::LengthMismatch {
            left: a.len(),
            right: mask.values.len(),
        });
    }
    Selection::from_mask(mask).apply(a)
}

/// Gather rows of `a` at `indices` (may repeat / reorder).
pub fn take_indices(a: &Array, indices: &[usize]) -> Result<Array> {
    let len = a.len();
    if let Some(&bad) = indices.iter().find(|&&i| i >= len) {
        return Err(ColumnarError::IndexOutOfBounds { index: bad, len });
    }
    Ok(match a {
        Array::Int64(x) => Array::Int64(Int64Array {
            values: indices.iter().map(|&i| x.values[i]).collect(),
            validity: filtered_validity(x.validity.as_ref(), indices),
        }),
        Array::Float64(x) => Array::Float64(Float64Array {
            values: indices.iter().map(|&i| x.values[i]).collect(),
            validity: filtered_validity(x.validity.as_ref(), indices),
        }),
        Array::Date32(x) => Array::Date32(Date32Array {
            values: indices.iter().map(|&i| x.values[i]).collect(),
            validity: filtered_validity(x.validity.as_ref(), indices),
        }),
        Array::Boolean(x) => Array::Boolean(BooleanArray {
            values: indices.iter().map(|&i| x.values.get(i)).collect(),
            validity: filtered_validity(x.validity.as_ref(), indices),
        }),
        Array::Utf8(x) => Array::Utf8(take_utf8(x, indices)?),
        Array::Dict(x) => Array::Dict(x.take(indices)?),
    })
}

/// Gather strings in two passes over raw offsets: sum the lengths (indices
/// may repeat, so the sum can pass what `u32` offsets address, which is an
/// error before anything is allocated), then fill exactly-sized buffers.
fn take_utf8(x: &Utf8Array, indices: &[usize]) -> Result<Utf8Array> {
    let total = checked_utf8_len(indices.iter().map(|&i| x.bytes(i).len() as u64).sum())?;
    let mut data = Vec::with_capacity(total as usize);
    let mut offsets = Vec::with_capacity(indices.len() + 1);
    offsets.push(0u32);
    for &i in indices {
        data.extend_from_slice(x.bytes(i));
        offsets.push(data.len() as u32);
    }
    Ok(Utf8Array {
        offsets,
        data: data.into(),
        validity: filtered_validity(x.validity.as_ref(), indices),
    })
}

/// Keep the rows of every column of `batch` where `mask` is valid-and-true.
/// All-true masks return the batch zero-copy; all-false masks skip row
/// gathering; otherwise every column gathers from the one [`Selection`].
pub fn filter_batch(batch: &RecordBatch, mask: &BooleanArray) -> Result<RecordBatch> {
    if batch.num_rows() != mask.values.len() {
        return Err(ColumnarError::LengthMismatch {
            left: batch.num_rows(),
            right: mask.values.len(),
        });
    }
    Selection::from_mask(mask).apply_batch(batch)
}

/// Gather the rows of every column of `batch` at `indices`.
pub fn take_batch(batch: &RecordBatch, indices: &[usize]) -> Result<RecordBatch> {
    let columns = batch
        .columns()
        .iter()
        .map(|c| take_indices(c, indices).map(Arc::new))
        .collect::<Result<Vec<_>>>()?;
    RecordBatch::try_new(batch.schema().clone(), columns)
}

/// Rows `rows` of `batch`. The full range shares the batch's columns (no
/// copy); a range past the end is an error.
pub fn slice_batch(batch: &RecordBatch, rows: std::ops::Range<usize>) -> Result<RecordBatch> {
    if rows == (0..batch.num_rows()) {
        return Ok(batch.clone());
    }
    take_batch(batch, &rows.collect::<Vec<_>>())
}

/// The first `n` rows of `batch` (SQL `LIMIT`).
pub fn limit_batch(batch: &RecordBatch, n: usize) -> Result<RecordBatch> {
    slice_batch(batch, 0..n.min(batch.num_rows()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{DataType, Scalar};
    use crate::schema::{Field, Schema};

    fn mask(bools: &[bool]) -> BooleanArray {
        BooleanArray {
            values: Bitmap::from_bools(bools),
            validity: None,
        }
    }

    #[test]
    fn filter_all_types() {
        let m = mask(&[true, false, true]);
        let a = Array::from_i64(vec![1, 2, 3]);
        assert_eq!(filter(&a, &m).unwrap().rows_i64(), vec![1, 3]);
        let a = Array::from_f64(vec![1.0, 2.0, 3.0]);
        assert_eq!(filter(&a, &m).unwrap().len(), 2);
        let a = Array::from_strs(["a", "bb", "ccc"]);
        let f = filter(&a, &m).unwrap();
        assert_eq!(f.scalar_at(1), Scalar::Utf8("ccc".into()));
        let a = Array::from_bools(vec![true, true, false]);
        let f = filter(&a, &m).unwrap();
        assert_eq!(f.scalar_at(1), Scalar::Boolean(false));
        let a = Array::from_dates(vec![10, 20, 30]);
        let f = filter(&a, &m).unwrap();
        assert_eq!(f.scalar_at(1), Scalar::Date32(30));
    }

    // Small helper on Array for test readability.
    trait RowsI64 {
        fn rows_i64(&self) -> Vec<i64>;
    }
    impl RowsI64 for Array {
        fn rows_i64(&self) -> Vec<i64> {
            self.as_i64().unwrap().values.clone()
        }
    }

    #[test]
    fn filter_respects_mask_nulls() {
        // mask: [T, NULL, T] -> keep rows 0, 2 only.
        let m = BooleanArray {
            values: Bitmap::from_bools(&[true, true, true]),
            validity: Some(Bitmap::from_bools(&[true, false, true])),
        };
        let a = Array::from_i64(vec![1, 2, 3]);
        assert_eq!(filter(&a, &m).unwrap().rows_i64(), vec![1, 3]);
    }

    #[test]
    fn take_reorders_and_repeats() {
        let a = Array::from_strs(["x", "y", "z"]);
        let t = take_indices(&a, &[2, 0, 2]).unwrap();
        assert_eq!(t.scalar_at(0), Scalar::Utf8("z".into()));
        assert_eq!(t.scalar_at(2), Scalar::Utf8("z".into()));
        assert!(take_indices(&a, &[5]).is_err());
    }

    #[test]
    fn utf8_take_past_u32_offsets_is_an_error_before_allocating() {
        // One 64 KiB string taken 65 537 times: 64 KiB past what u32
        // offsets address. Gathered row by row, the offsets would wrap
        // after 4 GiB had been allocated and copied.
        let a = Array::from_strs(["x".repeat(1 << 16).as_str()]);
        let got = take_indices(&a, &vec![0; (1 << 16) + 1]);
        assert!(matches!(got, Err(ColumnarError::Invalid(_))), "{got:?}");
    }

    #[test]
    fn dictionary_take_gathers_codes() {
        use crate::dict::DictArray;
        let entries = Arc::new(Utf8Array::from_strs(["lo", "high"]));
        let validity = Some(Bitmap::from_bools(&[true, false, true]));
        let d = Array::Dict(DictArray::try_new(vec![1, 9, 0], entries, validity).unwrap());
        let t = take_indices(&d, &[2, 1, 0, 0]).unwrap();
        assert_eq!(t.as_dict().unwrap().codes(), &[0, 9, 1, 1]);
        assert_eq!(
            t,
            take_indices(
                &Array::Utf8(d.to_utf8().unwrap().into_owned()),
                &[2, 1, 0, 0]
            )
            .unwrap()
        );
        assert_eq!(filter(&d, &mask(&[false, false, false])).unwrap().len(), 0);
    }

    #[test]
    fn take_preserves_validity() {
        let mut b = crate::builder::ArrayBuilder::new(DataType::Int64);
        b.push_i64(1);
        b.push_null();
        b.push_i64(3);
        let a = b.finish();
        let t = take_indices(&a, &[1, 2, 1]).unwrap();
        assert_eq!(t.scalar_at(0), Scalar::Null);
        assert_eq!(t.scalar_at(1), Scalar::Int64(3));
        assert_eq!(t.scalar_at(2), Scalar::Null);
    }

    #[test]
    fn selection_resolves_extremes() {
        assert_eq!(
            Selection::from_mask(&mask(&[true, true, true])),
            Selection::All(3)
        );
        assert_eq!(
            Selection::from_mask(&mask(&[false, false])),
            Selection::None(2)
        );
        let some = Selection::from_mask(&mask(&[false, true, true, false]));
        assert!(matches!(some, Selection::Some { count: 2, .. }), "{some:?}");
        let Selection::Some { bits, .. } = some else {
            unreachable!()
        };
        assert_eq!(bits, Bitmap::from_bools(&[false, true, true, false]));
        // A mask that is all-true in values but nulled out is all-false.
        let nulled = BooleanArray {
            values: Bitmap::from_bools(&[true, true]),
            validity: Some(Bitmap::from_bools(&[false, false])),
        };
        assert_eq!(Selection::from_mask(&nulled), Selection::None(2));
    }

    #[test]
    fn all_true_filter_is_zero_copy_on_batches() {
        let schema = Arc::new(Schema::new(vec![Field::new("a", DataType::Int64, false)]));
        let col = Arc::new(Array::from_i64(vec![1, 2, 3]));
        let batch = RecordBatch::try_new(schema, vec![col.clone()]).unwrap();
        let f = filter_batch(&batch, &mask(&[true, true, true])).unwrap();
        assert!(
            Arc::ptr_eq(&batch.columns()[0], &f.columns()[0]),
            "all-true filter must share column storage"
        );
    }

    #[test]
    fn all_false_filter_is_empty_same_type() {
        let a = Array::from_strs(["x", "y"]);
        let f = filter(&a, &mask(&[false, false])).unwrap();
        assert_eq!(f.len(), 0);
        assert!(matches!(f, Array::Utf8(_)));
    }

    #[test]
    fn selection_length_mismatch_is_error() {
        let a = Array::from_i64(vec![1, 2, 3]);
        assert!(Selection::All(2).apply(&a).is_err());
        assert!(Selection::None(4).apply(&a).is_err());
    }

    #[test]
    fn selection_apply_matches_filter() {
        let m = mask(&[true, false, true, false, true]);
        let a = Array::from_i64(vec![10, 20, 30, 40, 50]);
        let sel = Selection::from_mask(&m);
        assert_eq!(sel.count(), 3);
        assert_eq!(sel.apply(&a).unwrap().rows_i64(), vec![10, 30, 50]);
    }

    #[test]
    fn batch_filter_and_limit() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("s", DataType::Utf8, false),
        ]));
        let batch = RecordBatch::try_new(
            schema,
            vec![
                Arc::new(Array::from_i64(vec![1, 2, 3, 4])),
                Arc::new(Array::from_strs(["p", "q", "r", "s"])),
            ],
        )
        .unwrap();
        let m = mask(&[false, true, true, false]);
        let f = filter_batch(&batch, &m).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(0), vec![Scalar::Int64(2), Scalar::Utf8("q".into())]);
        let l = limit_batch(&f, 1).unwrap();
        assert_eq!(l.num_rows(), 1);
        // Limit beyond the row count is identity.
        let l = limit_batch(&f, 100).unwrap();
        assert_eq!(l.num_rows(), 2);
    }
}
