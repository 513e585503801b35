//! Immutable typed arrays and the dynamically-typed [`Array`] enum.
//!
//! Arrays pair a dense value buffer with an optional validity [`Bitmap`];
//! a missing bitmap means "no nulls", the common fast path.

use std::borrow::Cow;
use std::sync::Arc;

use bytes::Bytes;

use crate::bitmap::Bitmap;
use crate::datatype::{DataType, Scalar};
use crate::dict::DictArray;
use crate::error::{ColumnarError, Result};

/// Shared, immutable handle to an [`Array`].
pub type ArrayRef = Arc<Array>;

/// A primitive array of `i64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Int64Array {
    /// Dense values; slots under a null are unspecified but present.
    pub values: Vec<i64>,
    /// Validity bitmap; `None` means all valid.
    pub validity: Option<Bitmap>,
}

/// A primitive array of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Float64Array {
    /// Dense values.
    pub values: Vec<f64>,
    /// Validity bitmap; `None` means all valid.
    pub validity: Option<Bitmap>,
}

/// A bit-packed boolean array.
#[derive(Debug, Clone, PartialEq)]
pub struct BooleanArray {
    /// Packed truth values.
    pub values: Bitmap,
    /// Validity bitmap; `None` means all valid.
    pub validity: Option<Bitmap>,
}

/// A UTF-8 string array in offsets + data form.
#[derive(Debug, Clone, PartialEq)]
pub struct Utf8Array {
    /// `offsets.len() == len + 1`; string `i` is `data[offsets[i]..offsets[i+1]]`.
    pub offsets: Vec<u32>,
    /// Concatenated UTF-8 bytes. A shared [`Bytes`] view so IPC decode can
    /// alias the wire buffer instead of copying it.
    pub data: Bytes,
    /// Validity bitmap; `None` means all valid.
    pub validity: Option<Bitmap>,
}

/// A date array as days since the UNIX epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Date32Array {
    /// Dense values.
    pub values: Vec<i32>,
    /// Validity bitmap; `None` means all valid.
    pub validity: Option<Bitmap>,
}

/// A dynamically-typed columnar array.
///
/// Equality is by value: a [`Array::Dict`] equals the Utf8 array it
/// expands to.
#[derive(Debug, Clone)]
pub enum Array {
    /// 64-bit integers.
    Int64(Int64Array),
    /// 64-bit floats.
    Float64(Float64Array),
    /// Booleans.
    Boolean(BooleanArray),
    /// UTF-8 strings.
    Utf8(Utf8Array),
    /// Dates.
    Date32(Date32Array),
    /// UTF-8 strings as codes over shared dictionary entries; its
    /// [`DataType`] is `Utf8`.
    Dict(DictArray),
}

impl PartialEq for Array {
    fn eq(&self, other: &Array) -> bool {
        match (self, other) {
            (Array::Int64(a), Array::Int64(b)) => a == b,
            (Array::Float64(a), Array::Float64(b)) => a == b,
            (Array::Boolean(a), Array::Boolean(b)) => a == b,
            (Array::Utf8(a), Array::Utf8(b)) => a == b,
            (Array::Date32(a), Array::Date32(b)) => a == b,
            (Array::Dict(_), _) | (_, Array::Dict(_)) => match (self.to_utf8(), other.to_utf8()) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            },
            _ => false,
        }
    }
}

/// `total` bytes of string data as a `u32` end offset, or an error when
/// offsets of that width cannot address it (4 GiB).
pub(crate) fn checked_utf8_len(total: u64) -> Result<u32> {
    u32::try_from(total).map_err(|_| {
        ColumnarError::Invalid(format!(
            "{total} bytes of string data, past what u32 offsets address"
        ))
    })
}

impl Utf8Array {
    /// The string at `i`, ignoring validity.
    #[inline]
    pub fn value(&self, i: usize) -> &str {
        // Data is validated UTF-8 at construction.
        std::str::from_utf8(self.bytes(i)).expect("utf8 invariant")
    }

    /// The bytes of string `i`, ignoring validity: what byte-only kernels
    /// (hashing, grouping, comparison) read instead of re-validating UTF-8.
    #[inline]
    pub fn bytes(&self, i: usize) -> &[u8] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of strings.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the array holds no strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Build from an iterator of `&str`.
    pub fn from_strs<'a>(items: impl IntoIterator<Item = &'a str>) -> Self {
        let mut offsets = vec![0u32];
        let mut data = Vec::new();
        for s in items {
            data.extend_from_slice(s.as_bytes());
            offsets.push(data.len() as u32);
        }
        Utf8Array {
            offsets,
            data: data.into(),
            validity: None,
        }
    }
}

impl Array {
    /// The array's [`DataType`].
    pub fn data_type(&self) -> DataType {
        match self {
            Array::Int64(_) => DataType::Int64,
            Array::Float64(_) => DataType::Float64,
            Array::Boolean(_) => DataType::Boolean,
            Array::Utf8(_) | Array::Dict(_) => DataType::Utf8,
            Array::Date32(_) => DataType::Date32,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Array::Int64(a) => a.values.len(),
            Array::Float64(a) => a.values.len(),
            Array::Boolean(a) => a.values.len(),
            Array::Utf8(a) => a.len(),
            Array::Date32(a) => a.values.len(),
            Array::Dict(a) => a.len(),
        }
    }

    /// True when the array holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap, if any nulls are tracked.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Array::Int64(a) => a.validity.as_ref(),
            Array::Float64(a) => a.validity.as_ref(),
            Array::Boolean(a) => a.validity.as_ref(),
            Array::Utf8(a) => a.validity.as_ref(),
            Array::Date32(a) => a.validity.as_ref(),
            Array::Dict(a) => a.validity(),
        }
    }

    /// Number of null slots.
    pub fn null_count(&self) -> usize {
        self.validity().map(|v| v.count_zeros()).unwrap_or(0)
    }

    /// True when row `i` is valid (non-null).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity().map(|v| v.get(i)).unwrap_or(true)
    }

    /// The value at row `i` as a [`Scalar`] (NULL-aware).
    pub fn scalar_at(&self, i: usize) -> Scalar {
        if !self.is_valid(i) {
            return Scalar::Null;
        }
        match self {
            Array::Int64(a) => Scalar::Int64(a.values[i]),
            Array::Float64(a) => Scalar::Float64(a.values[i]),
            Array::Boolean(a) => Scalar::Boolean(a.values.get(i)),
            Array::Utf8(a) => Scalar::Utf8(a.value(i).to_string()),
            Array::Date32(a) => Scalar::Date32(a.values[i]),
            Array::Dict(a) => Scalar::Utf8(a.entries().value(a.codes()[i] as usize).to_string()),
        }
    }

    /// Approximate in-memory footprint in bytes (value buffers + validity),
    /// used by the cost model for data-movement accounting. A dictionary
    /// column counts as the Utf8 array it expands to, so billing, cache
    /// admission and stream apportioning do not depend on the encoding.
    pub fn byte_size(&self) -> usize {
        let validity = self.validity().map(|v| v.len().div_ceil(8)).unwrap_or(0);
        validity
            + match self {
                Array::Int64(a) => a.values.len() * 8,
                Array::Float64(a) => a.values.len() * 8,
                Array::Boolean(a) => a.values.len().div_ceil(8),
                Array::Utf8(a) => a.data.len() + a.offsets.len() * 4,
                Array::Date32(a) => a.values.len() * 4,
                Array::Dict(a) => a.data_len() + (a.len() + 1) * 4,
            }
    }

    /// Non-null construction helpers.
    pub fn from_i64(values: Vec<i64>) -> Array {
        Array::Int64(Int64Array {
            values,
            validity: None,
        })
    }

    /// Build a non-null Float64 array.
    pub fn from_f64(values: Vec<f64>) -> Array {
        Array::Float64(Float64Array {
            values,
            validity: None,
        })
    }

    /// Build a non-null Boolean array.
    pub fn from_bools(values: Vec<bool>) -> Array {
        Array::Boolean(BooleanArray {
            values: Bitmap::from_bools(&values),
            validity: None,
        })
    }

    /// Build a non-null Utf8 array.
    pub fn from_strs<'a>(items: impl IntoIterator<Item = &'a str>) -> Array {
        Array::Utf8(Utf8Array::from_strs(items))
    }

    /// Build a non-null Date32 array.
    pub fn from_dates(values: Vec<i32>) -> Array {
        Array::Date32(Date32Array {
            values,
            validity: None,
        })
    }

    /// Build an array of `len` copies of `scalar` of data type `dt`.
    pub fn from_scalar(scalar: &Scalar, dt: DataType, len: usize) -> Result<Array> {
        if !scalar.is_null() && scalar.data_type() != Some(dt) {
            // Allow numeric widening via cast.
            let cast = scalar.cast(dt)?;
            return Array::from_scalar(&cast, dt, len);
        }
        let validity = if scalar.is_null() {
            Some(Bitmap::with_value(len, false))
        } else {
            None
        };
        Ok(match dt {
            DataType::Int64 => Array::Int64(Int64Array {
                values: vec![scalar.as_i64().unwrap_or(0); len],
                validity,
            }),
            DataType::Float64 => Array::Float64(Float64Array {
                values: vec![scalar.as_f64().unwrap_or(0.0); len],
                validity,
            }),
            DataType::Boolean => Array::Boolean(BooleanArray {
                values: Bitmap::with_value(len, matches!(scalar, Scalar::Boolean(true))),
                validity,
            }),
            DataType::Utf8 => {
                let s = match scalar {
                    Scalar::Utf8(s) => s.as_str(),
                    _ => "",
                };
                Array::Utf8(Utf8Array {
                    validity,
                    ..Utf8Array::from_strs(std::iter::repeat_n(s, len))
                })
            }
            DataType::Date32 => Array::Date32(Date32Array {
                values: vec![
                    match scalar {
                        Scalar::Date32(d) => *d,
                        _ => 0,
                    };
                    len
                ],
                validity,
            }),
        })
    }

    /// Borrow as Int64 or error.
    pub fn as_i64(&self) -> Result<&Int64Array> {
        match self {
            Array::Int64(a) => Ok(a),
            other => Err(ColumnarError::type_mismatch("Int64", other.data_type())),
        }
    }

    /// Borrow as Float64 or error.
    pub fn as_f64(&self) -> Result<&Float64Array> {
        match self {
            Array::Float64(a) => Ok(a),
            other => Err(ColumnarError::type_mismatch("Float64", other.data_type())),
        }
    }

    /// Borrow as Boolean or error.
    pub fn as_bool(&self) -> Result<&BooleanArray> {
        match self {
            Array::Boolean(a) => Ok(a),
            other => Err(ColumnarError::type_mismatch("Boolean", other.data_type())),
        }
    }

    /// Borrow as a plain Utf8 array or error (a dictionary-coded column is
    /// not one; [`Array::to_utf8`] takes either).
    pub fn as_utf8(&self) -> Result<&Utf8Array> {
        match self {
            Array::Utf8(a) => Ok(a),
            other => Err(ColumnarError::type_mismatch("Utf8", other.data_type())),
        }
    }

    /// Borrow as dictionary-coded Utf8, if it is that.
    pub fn as_dict(&self) -> Option<&DictArray> {
        match self {
            Array::Dict(a) => Some(a),
            _ => None,
        }
    }

    /// Any Utf8 column as a plain [`Utf8Array`]: borrowed when it is one,
    /// expanded when it is dictionary-coded. The one expansion helper for
    /// every kernel with no dictionary arm of its own.
    pub fn to_utf8(&self) -> Result<Cow<'_, Utf8Array>> {
        match self {
            Array::Utf8(a) => Ok(Cow::Borrowed(a)),
            Array::Dict(a) => Ok(Cow::Owned(a.expand())),
            other => Err(ColumnarError::type_mismatch("Utf8", other.data_type())),
        }
    }

    /// Borrow as Date32 or error.
    pub fn as_date32(&self) -> Result<&Date32Array> {
        match self {
            Array::Date32(a) => Ok(a),
            other => Err(ColumnarError::type_mismatch("Date32", other.data_type())),
        }
    }

    /// Concatenate same-typed arrays into one by copying typed buffers;
    /// dictionary parts expand. The result is what pushing every row
    /// through an [`crate::builder::ArrayBuilder`] gives: a validity bitmap
    /// only when some part holds a null, and the type's zero (no bytes, for
    /// a string) under every null.
    pub fn concat(arrays: &[&Array]) -> Result<Array> {
        let Some(first) = arrays.first() else {
            return Err(ColumnarError::Invalid("concat of zero arrays".into()));
        };
        let dt = first.data_type();
        for a in arrays {
            if a.data_type() != dt {
                return Err(ColumnarError::type_mismatch(dt, a.data_type()));
            }
        }
        let validity = arrays.iter().any(|a| a.null_count() > 0).then(|| {
            arrays
                .iter()
                .flat_map(|a| (0..a.len()).map(|i| a.is_valid(i)))
                .collect()
        });
        Ok(match dt {
            DataType::Int64 => Array::Int64(Int64Array {
                values: concat_values(arrays, |a| Ok(&a.as_i64()?.values))?,
                validity,
            }),
            DataType::Float64 => Array::Float64(Float64Array {
                values: concat_values(arrays, |a| Ok(&a.as_f64()?.values))?,
                validity,
            }),
            DataType::Date32 => Array::Date32(Date32Array {
                values: concat_values(arrays, |a| Ok(&a.as_date32()?.values))?,
                validity,
            }),
            DataType::Boolean => {
                let mut values = Bitmap::new();
                for a in arrays {
                    let x = a.as_bool()?;
                    for i in 0..x.values.len() {
                        values.push(a.is_valid(i) && x.values.get(i));
                    }
                }
                Array::Boolean(BooleanArray { values, validity })
            }
            DataType::Utf8 => {
                let parts = arrays
                    .iter()
                    .map(|a| a.to_utf8())
                    .collect::<Result<Vec<_>>>()?;
                Array::Utf8(concat_utf8(&parts, validity)?)
            }
        })
    }

    /// Min and max non-null values, or `(Null, Null)` for an all-null/empty
    /// array. Drives file-format statistics.
    pub fn min_max(&self) -> (Scalar, Scalar) {
        let mut min = Scalar::Null;
        let mut max = Scalar::Null;
        for i in 0..self.len() {
            let v = self.scalar_at(i);
            if v.is_null() {
                continue;
            }
            if min.is_null() || v.total_cmp(&min).is_lt() {
                min = v.clone();
            }
            if max.is_null() || v.total_cmp(&max).is_gt() {
                max = v;
            }
        }
        (min, max)
    }
}

/// The value buffers of `arrays` end to end, with the type's zero under
/// every null.
fn concat_values<'a, T: Copy + Default + 'a>(
    arrays: &[&'a Array],
    values: impl Fn(&'a Array) -> Result<&'a Vec<T>>,
) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(arrays.iter().map(|a| a.len()).sum());
    for &a in arrays {
        let start = out.len();
        out.extend_from_slice(values(a)?);
        if let Some(v) = a.validity() {
            for i in (0..v.len()).filter(|&i| !v.get(i)) {
                out[start + i] = T::default();
            }
        }
    }
    Ok(out)
}

/// The strings of `parts` end to end, in two passes: sum the bytes the
/// valid slots hold (an error past what `u32` offsets address), then fill
/// exactly-sized buffers.
fn concat_utf8(parts: &[Cow<'_, Utf8Array>], validity: Option<Bitmap>) -> Result<Utf8Array> {
    /// Each row's bytes, `None` under a null.
    fn slots(p: &Utf8Array) -> impl Iterator<Item = Option<&[u8]>> {
        (0..p.len()).map(|i| {
            let valid = p.validity.as_ref().is_none_or(|v| v.get(i));
            valid.then(|| p.bytes(i))
        })
    }
    let total = parts
        .iter()
        .flat_map(|p| slots(p).flatten())
        .map(|s| s.len() as u64)
        .sum();
    let mut data = Vec::with_capacity(checked_utf8_len(total)? as usize);
    let mut offsets = Vec::with_capacity(parts.iter().map(|p| p.len()).sum::<usize>() + 1);
    offsets.push(0);
    for s in parts.iter().flat_map(|p| slots(p)) {
        data.extend_from_slice(s.unwrap_or_default());
        offsets.push(data.len() as u32);
    }
    Ok(Utf8Array {
        offsets,
        data: data.into(),
        validity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_at_and_nulls() {
        let arr = Array::Int64(Int64Array {
            values: vec![1, 2, 3],
            validity: Some(Bitmap::from_bools(&[true, false, true])),
        });
        assert_eq!(arr.scalar_at(0), Scalar::Int64(1));
        assert_eq!(arr.scalar_at(1), Scalar::Null);
        assert_eq!(arr.null_count(), 1);
        assert_eq!(arr.len(), 3);
    }

    #[test]
    fn utf8_layout() {
        let arr = Utf8Array::from_strs(["hello", "", "world"]);
        assert_eq!(arr.len(), 3);
        assert_eq!(arr.value(0), "hello");
        assert_eq!(arr.value(1), "");
        assert_eq!(arr.value(2), "world");
        assert_eq!(arr.offsets, vec![0, 5, 5, 10]);
    }

    #[test]
    fn from_scalar_builds_constant_arrays() {
        let a = Array::from_scalar(&Scalar::Int64(7), DataType::Int64, 4).unwrap();
        assert_eq!(a.scalar_at(3), Scalar::Int64(7));
        let a = Array::from_scalar(&Scalar::Null, DataType::Float64, 2).unwrap();
        assert_eq!(a.null_count(), 2);
        // Numeric widening.
        let a = Array::from_scalar(&Scalar::Int64(2), DataType::Float64, 2).unwrap();
        assert_eq!(a.scalar_at(0), Scalar::Float64(2.0));
    }

    #[test]
    fn concat_arrays() {
        let a = Array::from_i64(vec![1, 2]);
        let b = Array::from_i64(vec![3]);
        let c = Array::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.scalar_at(2), Scalar::Int64(3));
        let bad = Array::from_f64(vec![1.0]);
        assert!(Array::concat(&[&a, &bad]).is_err());
    }

    /// What `concat` did before it copied buffers: one `scalar_at` per row
    /// through a builder.
    fn concat_by_rows(arrays: &[&Array]) -> Array {
        let mut b = crate::builder::ArrayBuilder::new(arrays[0].data_type());
        for a in arrays {
            for i in 0..a.len() {
                b.push(a.scalar_at(i)).unwrap();
            }
        }
        b.finish()
    }

    #[test]
    fn concat_matches_the_row_by_row_builder() {
        let some = |bits: &[bool]| Some(Bitmap::from_bools(bits));
        // Values under nulls are junk, and an all-valid bitmap is present.
        let ints = [
            Array::Int64(Int64Array {
                values: vec![1, 99, 3],
                validity: some(&[true, false, true]),
            }),
            Array::Int64(Int64Array {
                values: vec![4],
                validity: some(&[true]),
            }),
        ];
        let bools = [
            Array::Boolean(BooleanArray {
                values: Bitmap::from_bools(&[true, true]),
                validity: some(&[false, true]),
            }),
            Array::from_bools(vec![false]),
        ];
        // Offsets that do not start at zero, bytes under a null, and a
        // dictionary part.
        let shifted = Array::Utf8(Utf8Array {
            offsets: vec![2, 4, 7],
            data: Bytes::from_static(b"..abxyz"),
            validity: None,
        });
        let junk_under_null = Array::Utf8(Utf8Array {
            validity: some(&[true, false]),
            ..Utf8Array::from_strs(["q", "junk"])
        });
        let entries = Arc::new(Utf8Array::from_strs(["dd", "e"]));
        let dict = Array::Dict(
            DictArray::try_new(vec![1, 0, 5], entries, some(&[true, true, false])).unwrap(),
        );
        for parts in [
            vec![&ints[0], &ints[1]],
            vec![&ints[1], &ints[1]],
            vec![&bools[0], &bools[1]],
            vec![&shifted, &junk_under_null, &dict],
            vec![&shifted, &dict],
            vec![&shifted],
        ] {
            let got = Array::concat(&parts).unwrap();
            let want = concat_by_rows(&parts);
            assert!(got.as_dict().is_none(), "dictionary parts expand");
            assert_eq!((&got, got.validity()), (&want, want.validity()));
        }
    }

    #[test]
    fn min_max_skips_nulls() {
        let arr = Array::Float64(Float64Array {
            values: vec![5.0, -1.0, 9.0],
            validity: Some(Bitmap::from_bools(&[true, true, false])),
        });
        let (min, max) = arr.min_max();
        assert_eq!(min, Scalar::Float64(-1.0));
        assert_eq!(max, Scalar::Float64(5.0));
        let empty = Array::from_i64(vec![]);
        assert_eq!(empty.min_max(), (Scalar::Null, Scalar::Null));
    }

    #[test]
    fn byte_size_counts_buffers() {
        let arr = Array::from_i64(vec![0; 10]);
        assert_eq!(arr.byte_size(), 80);
        let s = Array::from_strs(["ab", "cd"]);
        assert_eq!(s.byte_size(), 4 + 3 * 4);
    }
    #[test]
    fn typed_accessors() {
        let arr = Array::from_i64(vec![1]);
        assert!(arr.as_i64().is_ok());
        assert!(arr.as_f64().is_err());
        assert!(arr.as_bool().is_err());
    }
}
