//! Comparison kernels producing [`BooleanArray`] masks.

use crate::array::{Array, BooleanArray};
use crate::bitmap::Bitmap;
use crate::datatype::Scalar;
use crate::error::{ColumnarError, Result};

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

macro_rules! primitive_cmp {
    ($a:expr, $b:expr, $op:expr, $cmpfn:expr) => {{
        let mut bits = Bitmap::with_value($a.values.len(), false);
        for (i, (x, y)) in $a.values.iter().zip($b.values.iter()).enumerate() {
            if $op.eval($cmpfn(x, y)) {
                bits.set(i, true);
            }
        }
        BooleanArray {
            values: bits,
            validity: merge_validity($a.validity.as_ref(), $b.validity.as_ref()),
        }
    }};
}

/// Element-wise comparison of two equal-length arrays.
pub fn compare(a: &Array, b: &Array, op: CmpOp) -> Result<BooleanArray> {
    if a.len() != b.len() {
        return Err(ColumnarError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(match (a, b) {
        (Array::Int64(x), Array::Int64(y)) => {
            primitive_cmp!(x, y, op, |p: &i64, q: &i64| p.cmp(q))
        }
        (Array::Float64(x), Array::Float64(y)) => {
            primitive_cmp!(x, y, op, |p: &f64, q: &f64| p.total_cmp(q))
        }
        (Array::Date32(x), Array::Date32(y)) => {
            primitive_cmp!(x, y, op, |p: &i32, q: &i32| p.cmp(q))
        }
        // Mixed numeric types: promote via scalar path (rare in practice
        // because the analyzer inserts casts).
        _ => {
            let mut bits = Bitmap::with_value(a.len(), false);
            let mut validity = Bitmap::with_value(a.len(), true);
            let mut any_null = false;
            for i in 0..a.len() {
                let (x, y) = (a.scalar_at(i), b.scalar_at(i));
                if x.is_null() || y.is_null() {
                    validity.set(i, false);
                    any_null = true;
                    continue;
                }
                if op.eval(x.total_cmp(&y)) {
                    bits.set(i, true);
                }
            }
            BooleanArray {
                values: bits,
                validity: any_null.then_some(validity),
            }
        }
    })
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
    let out = match (a, s) {
        (Array::Int64(x), Scalar::Int64(v)) => {
            let mut bits = Bitmap::with_value(x.values.len(), false);
            for (i, p) in x.values.iter().enumerate() {
                if op.eval(p.cmp(v)) {
                    bits.set(i, true);
                }
            }
            BooleanArray {
                values: bits,
                validity: x.validity.clone(),
            }
        }
        (Array::Float64(x), Scalar::Float64(v)) => {
            let mut bits = Bitmap::with_value(x.values.len(), false);
            for (i, p) in x.values.iter().enumerate() {
                if op.eval(p.total_cmp(v)) {
                    bits.set(i, true);
                }
            }
            BooleanArray {
                values: bits,
                validity: x.validity.clone(),
            }
        }
        (Array::Date32(x), Scalar::Date32(v)) => {
            let mut bits = Bitmap::with_value(x.values.len(), false);
            for (i, p) in x.values.iter().enumerate() {
                if op.eval(p.cmp(v)) {
                    bits.set(i, true);
                }
            }
            BooleanArray {
                values: bits,
                validity: x.validity.clone(),
            }
        }
        // Strings compare as bytes, which is `str` order for valid UTF-8.
        (Array::Utf8(x), Scalar::Utf8(v)) => {
            let mut bits = Bitmap::with_value(x.len(), false);
            for i in 0..x.len() {
                if op.eval(x.bytes(i).cmp(v.as_bytes())) {
                    bits.set(i, true);
                }
            }
            BooleanArray {
                values: bits,
                validity: x.validity.clone(),
            }
        }
        // One comparison per entry, then one lookup per row. Under a null
        // the expansion holds no bytes, so the bit is what "" gives.
        (Array::Dict(x), Scalar::Utf8(v)) => {
            let entries = x.entries();
            let hits: Vec<bool> = (0..entries.len())
                .map(|e| op.eval(entries.bytes(e).cmp(v.as_bytes())))
                .collect();
            let under_null = op.eval(b"".as_slice().cmp(v.as_bytes()));
            let mut bits = Bitmap::with_value(x.len(), false);
            for (i, &c) in x.codes().iter().enumerate() {
                let hit = if x.is_valid(i) {
                    hits[c as usize]
                } else {
                    under_null
                };
                if hit {
                    bits.set(i, true);
                }
            }
            BooleanArray {
                values: bits,
                validity: x.validity().cloned(),
            }
        }
        // Mixed numeric scalar: compare through total_cmp.
        _ => {
            let mut bits = Bitmap::with_value(a.len(), false);
            let mut validity = Bitmap::with_value(a.len(), true);
            let mut any_null = false;
            for i in 0..a.len() {
                let x = a.scalar_at(i);
                if x.is_null() {
                    validity.set(i, false);
                    any_null = true;
                    continue;
                }
                if op.eval(x.total_cmp(s)) {
                    bits.set(i, true);
                }
            }
            BooleanArray {
                values: bits,
                validity: any_null.then_some(validity),
            }
        }
    };
    Ok(out)
}

/// `a > s` mask.
pub fn gt_scalar(a: &Array, s: &Scalar) -> Result<BooleanArray> {
    compare_scalar(a, s, CmpOp::Gt)
}

/// `a BETWEEN lo AND hi` (inclusive both ends), the predicate form in the
/// paper's Laghos query.
pub fn between_scalar(a: &Array, lo: &Scalar, hi: &Scalar) -> Result<BooleanArray> {
    let ge = compare_scalar(a, lo, CmpOp::GtEq)?;
    let le = compare_scalar(a, hi, CmpOp::LtEq)?;
    super::boolean::and(&ge, &le)
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
    fn length_mismatch_is_error() {
        let a = Array::from_i64(vec![1]);
        let b = Array::from_i64(vec![1, 2]);
        assert!(compare(&a, &b, CmpOp::Eq).is_err());
    }
}
