//! Comparison kernels producing [`BooleanArray`] masks.
//!
//! Every kernel packs its results 64 rows a word through one packer and
//! matches the operator once, outside the loop, so no row branches on its
//! own result. Float64 compares through `f64::total_cmp`'s integer key, so
//! NaN sorts above +inf and -0.0 below +0.0. A literal stays one scalar and
//! inputs are read in place. `BETWEEN` with literal bounds of the column's
//! type is one fused pass; Boolean columns compare a word at a time.
//!
//! Value bits under NULL slots are the ones the row-at-a-time kernels
//! wrote. A same-type Int64, Float64, Date32 or string compare keeps the
//! bit its value gives and the input's validity. A Boolean or mixed-type
//! compare, and `BETWEEN`, clear the bit and carry a validity bitmap only
//! when some row is NULL. Types no comparison is defined for are an error,
//! unless no row has both sides valid: then every row is NULL, which is how
//! a NULL literal (the engine types it as Boolean) compares with anything.

use crate::array::{Array, BooleanArray};
use crate::bitmap::Bitmap;
use crate::datatype::{DataType, Scalar};
use crate::error::{ColumnarError, Result};
use crate::kernels::boolean::canonical;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CmpOp {
    /// SQL spelling of the operator.
    pub fn sql(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        }
    }

    /// The operator with its operands swapped (`a op b` == `b op.flip() a`).
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }

    #[inline]
    fn eval(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::NotEq => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::LtEq => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::GtEq => ord != Less,
        }
    }
}

/// Combine the validity bitmaps of operands into the output validity.
fn merge_validity(a: Option<&Bitmap>, b: Option<&Bitmap>) -> Option<Bitmap> {
    match (a, b) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.clone()),
        (Some(x), Some(y)) => Some(x.and(y).expect("equal lengths checked by caller")),
    }
}

/// `f64::total_cmp`'s key: two floats compare as their keys do as `i64`.
#[inline]
fn f64_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The `f64::total_cmp` keys of a numeric column's values as `f64`, read in
/// place: how mixed numeric types compare, as `Scalar::total_cmp` does.
fn f64_keys(a: &Array) -> Option<Box<dyn ExactSizeIterator<Item = i64> + '_>> {
    Some(match a {
        Array::Int64(x) => Box::new(x.values.iter().map(|&v| f64_key(v as f64))),
        Array::Float64(x) => Box::new(x.values.iter().map(|&v| f64_key(v))),
        Array::Date32(x) => Box::new(x.values.iter().map(|&v| f64_key(f64::from(v)))),
        _ => return None,
    })
}

/// `l op r` for every pair, packed; the operator is matched once.
fn pack_cmp<T: Ord>(op: CmpOp, pairs: impl ExactSizeIterator<Item = (T, T)>) -> Bitmap {
    match op {
        CmpOp::Eq => Bitmap::pack(pairs.map(|(l, r)| l == r)),
        CmpOp::NotEq => Bitmap::pack(pairs.map(|(l, r)| l != r)),
        CmpOp::Lt => Bitmap::pack(pairs.map(|(l, r)| l < r)),
        CmpOp::LtEq => Bitmap::pack(pairs.map(|(l, r)| l <= r)),
        CmpOp::Gt => Bitmap::pack(pairs.map(|(l, r)| l > r)),
        CmpOp::GtEq => Bitmap::pack(pairs.map(|(l, r)| l >= r)),
    }
}

/// `l op r` over packed Boolean words: each output bit is the operator's
/// truth-table entry for its two input bits.
fn pack_bool_cmp(op: CmpOp, len: usize, words: impl Iterator<Item = (u64, u64)>) -> Bitmap {
    let entry = |l: bool, r: bool| if op.eval(l.cmp(&r)) { u64::MAX } else { 0 };
    let (tt, tf) = (entry(true, true), entry(true, false));
    let (ft, ff) = (entry(false, true), entry(false, false));
    let words = words.map(|(l, r)| (l & r & tt) | (l & !r & tf) | (!l & r & ft) | (!l & !r & ff));
    Bitmap::from_words(words.collect(), len)
}

/// Every word of a Boolean literal.
fn fill(v: bool) -> u64 {
    if v {
        u64::MAX
    } else {
        0
    }
}

/// Operands of types no comparison is defined for. A type error, unless no
/// row has both sides valid (`validity` is theirs merged): then no row is
/// compared and every row is NULL.
fn incomparable(a: &Array, b: Option<DataType>, validity: Option<Bitmap>) -> Result<BooleanArray> {
    let len = a.len();
    if validity.as_ref().map_or(len, Bitmap::count_ones) > 0 {
        let b = b.map_or("NULL".to_string(), |t| t.to_string());
        return Err(ColumnarError::type_mismatch(a.data_type(), b));
    }
    Ok(canonical(Bitmap::with_value(len, false), validity))
}

/// Element-wise comparison of two equal-length arrays.
pub fn compare(a: &Array, b: &Array, op: CmpOp) -> Result<BooleanArray> {
    if a.len() != b.len() {
        return Err(ColumnarError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let values = match (a, b) {
        (Array::Int64(x), Array::Int64(y)) => {
            pack_cmp(op, x.values.iter().zip(&y.values).map(|(&p, &q)| (p, q)))
        }
        (Array::Float64(x), Array::Float64(y)) => {
            let pairs = x.values.iter().zip(&y.values);
            pack_cmp(op, pairs.map(|(&p, &q)| (f64_key(p), f64_key(q))))
        }
        (Array::Date32(x), Array::Date32(y)) => {
            pack_cmp(op, x.values.iter().zip(&y.values).map(|(&p, &q)| (p, q)))
        }
        _ => return compare_other(a, b, op),
    };
    Ok(BooleanArray {
        values,
        validity: merge_validity(a.validity(), b.validity()),
    })
}

/// The pairs [`compare`]'s typed arms leave: Boolean, strings (either
/// encoding) and mixed numeric types. Each result is canonical.
fn compare_other(a: &Array, b: &Array, op: CmpOp) -> Result<BooleanArray> {
    let validity = merge_validity(a.validity(), b.validity());
    let values = match (a, b) {
        (Array::Boolean(x), Array::Boolean(y)) => {
            let words = x.values.words().iter().zip(y.values.words());
            pack_bool_cmp(op, a.len(), words.map(|(&l, &r)| (l, r)))
        }
        (Array::Utf8(_) | Array::Dict(_), Array::Utf8(_) | Array::Dict(_)) => {
            let (x, y) = (a.to_utf8()?, b.to_utf8()?);
            pack_cmp(op, (0..x.len()).map(|i| (x.bytes(i), y.bytes(i))))
        }
        _ => match (f64_keys(a), f64_keys(b)) {
            (Some(x), Some(y)) => pack_cmp(op, x.zip(y)),
            _ => return incomparable(a, Some(b.data_type()), validity),
        },
    };
    Ok(canonical(values, validity))
}

/// Element-wise comparison of an array against a scalar.
pub fn compare_scalar(a: &Array, s: &Scalar, op: CmpOp) -> Result<BooleanArray> {
    if s.is_null() {
        // x <op> NULL is NULL for every row.
        return Ok(BooleanArray {
            values: Bitmap::with_value(a.len(), false),
            validity: Some(Bitmap::with_value(a.len(), false)),
        });
    }
    let values = match (a, s) {
        (Array::Int64(x), Scalar::Int64(v)) => pack_cmp(op, x.values.iter().map(|&p| (p, *v))),
        (Array::Float64(x), Scalar::Float64(v)) => {
            let v = f64_key(*v);
            pack_cmp(op, x.values.iter().map(|&p| (f64_key(p), v)))
        }
        (Array::Date32(x), Scalar::Date32(v)) => pack_cmp(op, x.values.iter().map(|&p| (p, *v))),
        // Strings compare as bytes, which is `str` order for valid UTF-8.
        (Array::Utf8(x), Scalar::Utf8(v)) => {
            pack_cmp(op, (0..x.len()).map(|i| (x.bytes(i), v.as_bytes())))
        }
        // One comparison per entry, then one lookup per row. Under a null
        // the code may be anything and the bit is what "" gives.
        (Array::Dict(x), Scalar::Utf8(v)) => {
            let entries = x.entries();
            let hits: Vec<bool> = (0..entries.len())
                .map(|e| op.eval(entries.bytes(e).cmp(v.as_bytes())))
                .collect();
            let bits = Bitmap::pack(
                x.codes()
                    .iter()
                    .map(|&c| hits.get(c as usize) == Some(&true)),
            );
            match x.validity() {
                None => bits,
                Some(valid) => {
                    let under_null = fill(op.eval(b"".as_slice().cmp(v.as_bytes())));
                    let words = bits.words().iter().zip(valid.words());
                    let words = words.map(|(&b, &m)| (b & m) | (under_null & !m));
                    Bitmap::from_words(words.collect(), x.len())
                }
            }
        }
        (Array::Boolean(x), Scalar::Boolean(v)) => {
            let words = x.values.words().iter().map(|&l| (l, fill(*v)));
            let values = pack_bool_cmp(op, x.values.len(), words);
            return Ok(canonical(values, x.validity.clone()));
        }
        _ => {
            let (Some(x), Some(v)) = (f64_keys(a), s.as_f64()) else {
                return incomparable(a, s.data_type(), a.validity().cloned());
            };
            let v = f64_key(v);
            return Ok(canonical(
                pack_cmp(op, x.map(|p| (p, v))),
                a.validity().cloned(),
            ));
        }
    };
    Ok(BooleanArray {
        values,
        validity: a.validity().cloned(),
    })
}

/// `a > s` mask.
pub fn gt_scalar(a: &Array, s: &Scalar) -> Result<BooleanArray> {
    compare_scalar(a, s, CmpOp::Gt)
}

/// `a BETWEEN lo AND hi` (inclusive both ends), the predicate form in the
/// paper's Laghos query. Bounds of the column's own type take one fused
/// pass; any other bounds compose two comparisons and a Kleene `AND`.
pub fn between_scalar(a: &Array, lo: &Scalar, hi: &Scalar) -> Result<BooleanArray> {
    fn within<T: Ord + Copy>(keys: impl ExactSizeIterator<Item = T>, lo: T, hi: T) -> Bitmap {
        Bitmap::pack(keys.map(|k| (lo <= k) & (k <= hi)))
    }
    let values = match (a, lo, hi) {
        (Array::Int64(x), Scalar::Int64(l), Scalar::Int64(h)) => {
            within(x.values.iter().copied(), *l, *h)
        }
        (Array::Float64(x), Scalar::Float64(l), Scalar::Float64(h)) => within(
            x.values.iter().map(|&v| f64_key(v)),
            f64_key(*l),
            f64_key(*h),
        ),
        (Array::Date32(x), Scalar::Date32(l), Scalar::Date32(h)) => {
            within(x.values.iter().copied(), *l, *h)
        }
        _ => {
            let ge = compare_scalar(a, lo, CmpOp::GtEq)?;
            let le = compare_scalar(a, hi, CmpOp::LtEq)?;
            return super::boolean::and(&ge, &le);
        }
    };
    Ok(canonical(values, a.validity().cloned()))
}

/// Mask of valid (non-NULL) slots — `IS NOT NULL`.
pub fn is_not_null(a: &Array) -> BooleanArray {
    let bits = match a.validity() {
        Some(v) => v.clone(),
        None => Bitmap::with_value(a.len(), true),
    };
    BooleanArray {
        values: bits,
        validity: None,
    }
}

/// Mask of NULL slots — `IS NULL`.
pub fn is_null(a: &Array) -> BooleanArray {
    let nn = is_not_null(a);
    BooleanArray {
        values: nn.values.not(),
        validity: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Int64Array;

    #[test]
    fn scalar_comparisons() {
        let a = Array::from_i64(vec![1, 5, 3, 5]);
        let m = compare_scalar(&a, &Scalar::Int64(3), CmpOp::Gt).unwrap();
        assert_eq!(m.values.set_indices(), vec![1, 3]);
        let m = compare_scalar(&a, &Scalar::Int64(5), CmpOp::Eq).unwrap();
        assert_eq!(m.values.set_indices(), vec![1, 3]);
        let m = compare_scalar(&a, &Scalar::Int64(5), CmpOp::NotEq).unwrap();
        assert_eq!(m.values.set_indices(), vec![0, 2]);
    }

    #[test]
    fn float_comparisons_handle_nan() {
        let a = Array::from_f64(vec![1.0, f64::NAN, 3.0]);
        // total_cmp puts NAN above all numbers, so NAN > 2.0 is true.
        let m = gt_scalar(&a, &Scalar::Float64(2.0)).unwrap();
        assert_eq!(m.values.set_indices(), vec![1, 2]);
    }

    #[test]
    fn between_is_inclusive() {
        let a = Array::from_f64(vec![0.5, 0.8, 2.0, 3.2, 3.3]);
        let m = between_scalar(&a, &Scalar::Float64(0.8), &Scalar::Float64(3.2)).unwrap();
        assert_eq!(m.values.set_indices(), vec![1, 2, 3]);
    }

    #[test]
    fn array_array_comparison() {
        let a = Array::from_i64(vec![1, 2, 3]);
        let b = Array::from_i64(vec![3, 2, 1]);
        let m = compare(&a, &b, CmpOp::Lt).unwrap();
        assert_eq!(m.values.set_indices(), vec![0]);
        let m = compare(&a, &b, CmpOp::Eq).unwrap();
        assert_eq!(m.values.set_indices(), vec![1]);
    }

    #[test]
    fn mixed_numeric_comparison() {
        let a = Array::from_i64(vec![1, 2, 3]);
        let b = Array::from_f64(vec![1.5, 1.5, 1.5]);
        let m = compare(&a, &b, CmpOp::Gt).unwrap();
        assert_eq!(m.values.set_indices(), vec![1, 2]);
    }

    #[test]
    fn null_propagation() {
        let a = Array::Int64(Int64Array {
            values: vec![1, 2, 3],
            validity: Some(Bitmap::from_bools(&[true, false, true])),
        });
        let m = compare_scalar(&a, &Scalar::Int64(0), CmpOp::Gt).unwrap();
        assert_eq!(m.validity.as_ref().unwrap().count_zeros(), 1);
        // Compare against NULL scalar: everything NULL.
        let m = compare_scalar(&a, &Scalar::Null, CmpOp::Eq).unwrap();
        assert_eq!(m.validity.as_ref().unwrap().count_ones(), 0);
    }

    #[test]
    fn utf8_comparison() {
        let a = Array::from_strs(["apple", "banana", "cherry"]);
        let m = compare_scalar(&a, &Scalar::Utf8("banana".into()), CmpOp::GtEq).unwrap();
        assert_eq!(m.values.set_indices(), vec![1, 2]);
    }

    #[test]
    fn dictionary_comparison_matches_its_expansion() {
        use crate::array::Utf8Array;
        use crate::dict::DictArray;
        let entries = std::sync::Arc::new(Utf8Array::from_strs(["b", "", "é"]));
        let validity = Some(Bitmap::from_bools(&[true, false, true, true, true]));
        let d = Array::Dict(DictArray::try_new(vec![0, 8, 2, 1, 0], entries, validity).unwrap());
        let plain = Array::Utf8(d.to_utf8().unwrap().into_owned());
        for op in [CmpOp::Eq, CmpOp::NotEq, CmpOp::Lt, CmpOp::GtEq] {
            for lit in ["", "b", "z"] {
                let lit = Scalar::Utf8(lit.into());
                assert_eq!(
                    compare_scalar(&d, &lit, op).unwrap(),
                    compare_scalar(&plain, &lit, op).unwrap(),
                    "{op:?} {lit}"
                );
            }
        }
    }

    #[test]
    fn is_null_masks() {
        let a = Array::Int64(Int64Array {
            values: vec![1, 2],
            validity: Some(Bitmap::from_bools(&[false, true])),
        });
        assert_eq!(is_null(&a).values.set_indices(), vec![0]);
        assert_eq!(is_not_null(&a).values.set_indices(), vec![1]);
    }

    #[test]
    fn flip_is_involutive_on_strict_ops() {
        for op in [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ] {
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn incomparable_types_are_an_error() {
        let city = Array::from_strs(["oslo", "lima"]);
        let five = Scalar::Int64(5);
        for op in [CmpOp::Eq, CmpOp::NotEq, CmpOp::Lt] {
            assert!(matches!(
                compare_scalar(&city, &five, op),
                Err(ColumnarError::TypeMismatch { .. })
            ));
            let fives = Array::from_i64(vec![5, 5]);
            assert!(compare(&city, &fives, op).is_err());
            assert!(compare(&fives, &city, op).is_err());
        }
        assert!(between_scalar(&city, &Scalar::Int64(1), &Scalar::Int64(2)).is_err());
        assert!(compare_scalar(&Array::from_bools(vec![true]), &five, CmpOp::Eq).is_err());
        // A NULL literal, which the engine types as Boolean, is NULL
        // against anything.
        let null = Array::from_scalar(&Scalar::Null, DataType::Boolean, 2).unwrap();
        let m = compare_scalar(&null, &five, CmpOp::Eq).unwrap();
        assert_eq!(m.validity.unwrap().count_ones(), 0);
        let m = compare(&city, &null, CmpOp::Lt).unwrap();
        assert_eq!(m.validity.unwrap().count_ones(), 0);
    }

    #[test]
    fn length_mismatch_is_error() {
        let a = Array::from_i64(vec![1]);
        let b = Array::from_i64(vec![1, 2]);
        assert!(compare(&a, &b, CmpOp::Eq).is_err());
    }
}
