//! Casting kernels between numeric/date types and string formatting.

use crate::array::{Array, Date32Array, Float64Array, Int64Array, Utf8Array};
use crate::datatype::DataType;
use crate::error::{ColumnarError, Result};

/// Whether [`cast`] supports `from` → `to`: identity, numeric ↔ numeric,
/// date ↔ int64, date → float64, and anything → utf8. The rule plan
/// typers apply to a `CAST` before it reaches this kernel.
pub fn castable(from: DataType, to: DataType) -> bool {
    use DataType::*;
    from == to
        || to == Utf8
        || matches!(
            (from, to),
            (Int64, Float64)
                | (Float64, Int64)
                | (Date32, Int64)
                | (Int64, Date32)
                | (Date32, Float64)
        )
}

/// Cast `a` to `to`, following SQL cast semantics for the supported pairs.
pub fn cast(a: &Array, to: DataType) -> Result<Array> {
    if a.data_type() == to {
        return Ok(a.clone());
    }
    Ok(match (a, to) {
        (Array::Int64(x), DataType::Float64) => Array::Float64(Float64Array {
            values: x.values.iter().map(|&v| v as f64).collect(),
            validity: x.validity.clone(),
        }),
        (Array::Float64(x), DataType::Int64) => Array::Int64(Int64Array {
            values: x.values.iter().map(|&v| v as i64).collect(),
            validity: x.validity.clone(),
        }),
        (Array::Date32(x), DataType::Int64) => Array::Int64(Int64Array {
            values: x.values.iter().map(|&v| v as i64).collect(),
            validity: x.validity.clone(),
        }),
        (Array::Int64(x), DataType::Date32) => Array::Date32(Date32Array {
            values: x.values.iter().map(|&v| v as i32).collect(),
            validity: x.validity.clone(),
        }),
        (Array::Date32(x), DataType::Float64) => Array::Float64(Float64Array {
            values: x.values.iter().map(|&v| v as f64).collect(),
            validity: x.validity.clone(),
        }),
        (arr, DataType::Utf8) => {
            let mut offsets = vec![0u32];
            let mut data = Vec::new();
            for i in 0..arr.len() {
                if arr.is_valid(i) {
                    let s = arr.scalar_at(i).to_string();
                    // Strip the quotes Display adds to Utf8 scalars.
                    let s = s.trim_matches('\'');
                    data.extend_from_slice(s.as_bytes());
                }
                offsets.push(data.len() as u32);
            }
            Array::Utf8(Utf8Array {
                offsets,
                data: data.into(),
                validity: arr.validity().cloned(),
            })
        }
        (arr, to) => {
            return Err(ColumnarError::Invalid(format!(
                "unsupported cast {} to {to}",
                arr.data_type()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Scalar;

    #[test]
    fn numeric_casts() {
        let a = Array::from_i64(vec![1, -2]);
        let f = cast(&a, DataType::Float64).unwrap();
        assert_eq!(f.scalar_at(1), Scalar::Float64(-2.0));
        let back = cast(&f, DataType::Int64).unwrap();
        assert_eq!(back.scalar_at(1), Scalar::Int64(-2));
    }

    #[test]
    fn float_to_int_truncates() {
        let a = Array::from_f64(vec![2.9, -2.9]);
        let i = cast(&a, DataType::Int64).unwrap();
        assert_eq!(i.scalar_at(0), Scalar::Int64(2));
        assert_eq!(i.scalar_at(1), Scalar::Int64(-2));
    }

    #[test]
    fn to_string_cast() {
        let a = Array::from_i64(vec![42]);
        let s = cast(&a, DataType::Utf8).unwrap();
        assert_eq!(s.scalar_at(0), Scalar::Utf8("42".into()));
    }

    #[test]
    fn identity_cast_is_clone() {
        let a = Array::from_i64(vec![1]);
        assert_eq!(cast(&a, DataType::Int64).unwrap(), a);
    }

    #[test]
    fn invalid_cast_errors() {
        let a = Array::from_bools(vec![true]);
        assert!(cast(&a, DataType::Float64).is_err());
    }

    #[test]
    fn castable_matches_the_kernel() {
        use DataType::*;
        let types = [Int64, Float64, Boolean, Utf8, Date32];
        for from in types {
            let one = Array::from_scalar(&Scalar::Null, from, 1).unwrap();
            for to in types {
                assert_eq!(castable(from, to), cast(&one, to).is_ok(), "{from} -> {to}");
            }
        }
    }

    #[test]
    fn cast_preserves_validity() {
        let mut b = crate::builder::ArrayBuilder::new(DataType::Int64);
        b.push_i64(1);
        b.push_null();
        let a = b.finish();
        let f = cast(&a, DataType::Float64).unwrap();
        assert_eq!(f.scalar_at(1), Scalar::Null);
    }
}
