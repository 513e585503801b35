//! Row hashing for hash aggregation and exchange partitioning.
//!
//! Uses an FxHash-style multiply-xor mix: cheap, stable across platforms,
//! and good enough for power-of-two hash tables. Hashes are *combined*
//! column-by-column so multi-key `GROUP BY` gets one u64 per row.
//!
//! Float values are canonicalized ([`canon_f64`]) before hashing so every
//! SQL-equal value lands in the same group: `-0.0` hashes like `0.0` and
//! every NaN bit pattern hashes like the canonical quiet NaN. NULL slots
//! hash a marker *instead of* whatever bytes sit under the null, so NULLs
//! group together no matter which kernel produced the array.

use crate::array::Array;
use crate::error::{ColumnarError, Result};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The canonical quiet-NaN bit pattern all NaNs normalize to.
const CANON_NAN_BITS: u64 = 0x7ff8_0000_0000_0000;

/// Canonicalize a float for grouping/keying: `-0.0` becomes `0.0` and every
/// NaN becomes the canonical quiet NaN, so SQL-equal values have equal bits.
#[inline]
pub fn canon_f64(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else if v.is_nan() {
        f64::from_bits(CANON_NAN_BITS)
    } else {
        v
    }
}

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(SEED)
}

#[inline]
fn hash_bytes(h: u64, bytes: &[u8]) -> u64 {
    let mut acc = mix(h, bytes.len() as u64);
    let (words, rem) = bytes.as_chunks::<8>();
    for w in words {
        acc = mix(acc, u64::from_le_bytes(*w));
    }
    if !rem.is_empty() {
        acc = mix(acc, le_u64_short(rem));
    }
    acc
}

/// The little-endian word of up to 7 bytes, zero-padded: what copying them
/// into a zeroed `[u8; 8]` gives, assembled from two overlapping loads
/// instead of a copy of the slice's own length (a call per string row).
#[inline]
pub(crate) fn le_u64_short(b: &[u8]) -> u64 {
    let n = b.len();
    debug_assert!(n < 8, "{n} bytes do not fit a short word");
    if n >= 4 {
        let lo = u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        let hi = u64::from(u32::from_le_bytes([b[n - 4], b[n - 3], b[n - 2], b[n - 1]]));
        lo | hi << (8 * (n - 4))
    } else if n > 0 {
        u64::from(b[0])
            | u64::from(b[n / 2]) << (8 * (n / 2))
            | u64::from(b[n - 1]) << (8 * (n - 1))
    } else {
        0
    }
}

/// Marker hashed in place of a value for NULL slots so NULL groups hash
/// consistently.
const NULL_MARK: u64 = 0x6e_75_6c_6c_6e_75_6c_6c;

/// Combine one string slot into `h`: its bytes, or the null marker. Plain
/// and dictionary-coded columns hash each row through this, so the two
/// forms of one value hash alike.
#[inline]
fn hash_str_slot(h: u64, value: Option<&[u8]>) -> u64 {
    match value {
        Some(bytes) => hash_bytes(h, bytes),
        None => mix(h, NULL_MARK),
    }
}

/// Hash each row of `column`, combining into `hashes` (which must have one
/// slot per row, pre-seeded — pass all-zeros for the first column).
///
/// NULL rows mix a fixed null marker in place of the value slot, so the bytes
/// sitting under a null never influence the hash.
pub fn hash_column_into(column: &Array, hashes: &mut [u64]) -> Result<()> {
    if column.len() != hashes.len() {
        return Err(ColumnarError::LengthMismatch {
            left: column.len(),
            right: hashes.len(),
        });
    }
    let validity = column.validity();
    // Per-type value hashing; `valid` closure is only consulted when a
    // validity bitmap exists (the no-nulls fast path skips the branch).
    macro_rules! hash_loop {
        ($iter:expr) => {
            match validity {
                None => {
                    for (h, v) in hashes.iter_mut().zip($iter) {
                        *h = mix(*h, v);
                    }
                }
                Some(bm) => {
                    for (i, (h, v)) in hashes.iter_mut().zip($iter).enumerate() {
                        *h = mix(*h, if bm.get(i) { v } else { NULL_MARK });
                    }
                }
            }
        };
    }
    match column {
        Array::Int64(a) => hash_loop!(a.values.iter().map(|&v| v as u64)),
        Array::Float64(a) => hash_loop!(a.values.iter().map(|&v| canon_f64(v).to_bits())),
        Array::Date32(a) => hash_loop!(a.values.iter().map(|&v| v as u64)),
        Array::Boolean(a) => hash_loop!((0..a.values.len()).map(|i| a.values.get(i) as u64)),
        // Hash raw bytes: `value()` would re-validate UTF-8 on every row,
        // and byte equality is what grouping needs anyway.
        Array::Utf8(a) => {
            for (i, h) in hashes.iter_mut().enumerate() {
                let valid = validity.is_none_or(|bm| bm.get(i));
                *h = hash_str_slot(*h, valid.then(|| a.bytes(i)));
            }
        }
        Array::Dict(a) => {
            for (i, h) in hashes.iter_mut().enumerate() {
                *h = hash_str_slot(*h, a.value(i));
            }
        }
    }
    Ok(())
}

/// Hash whole rows across `columns` (must be equal length).
pub fn hash_rows(columns: &[&Array]) -> Result<Vec<u64>> {
    let len = columns.first().map(|c| c.len()).unwrap_or(0);
    let mut hashes = vec![0u64; len];
    for c in columns {
        hash_column_into(c, &mut hashes)?;
    }
    Ok(hashes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ArrayBuilder;
    use crate::datatype::DataType;

    #[test]
    fn equal_rows_hash_equal() {
        let a = Array::from_i64(vec![1, 2, 1]);
        let b = Array::from_strs(["x", "y", "x"]);
        let h = hash_rows(&[&a, &b]).unwrap();
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
    }

    #[test]
    fn column_order_matters() {
        let a = Array::from_i64(vec![1]);
        let b = Array::from_i64(vec![2]);
        let h1 = hash_rows(&[&a, &b]).unwrap();
        let h2 = hash_rows(&[&b, &a]).unwrap();
        assert_ne!(h1, h2, "(1,2) and (2,1) must hash differently");
    }

    #[test]
    fn negative_zero_equals_zero() {
        let a = Array::from_f64(vec![0.0, -0.0]);
        let h = hash_rows(&[&a]).unwrap();
        assert_eq!(h[0], h[1]);
    }

    #[test]
    fn nan_bit_patterns_hash_equal() {
        // A quiet NaN and a NaN with payload bits are SQL-equal for
        // grouping; canonicalization makes them hash equal.
        let weird_nan = f64::from_bits(0x7ff8_0000_0000_beef);
        assert!(weird_nan.is_nan());
        let a = Array::from_f64(vec![f64::NAN, weird_nan, 1.0]);
        let h = hash_rows(&[&a]).unwrap();
        assert_eq!(h[0], h[1]);
        assert_ne!(h[0], h[2]);
    }

    #[test]
    fn nulls_hash_consistently_but_not_as_values() {
        let mut b1 = ArrayBuilder::new(DataType::Int64);
        b1.push_i64(0);
        b1.push_null();
        b1.push_null();
        let a = b1.finish();
        let h = hash_rows(&[&a]).unwrap();
        assert_eq!(h[1], h[2], "NULL == NULL for grouping");
        assert_ne!(h[0], h[1], "NULL must not collide with the zero value");
    }

    #[test]
    fn null_hash_ignores_bytes_under_the_null() {
        // Two null slots with different garbage in the value buffer must
        // hash identically — kernels (e.g. arithmetic) can leave arbitrary
        // values under a null.
        use crate::array::Int64Array;
        use crate::bitmap::Bitmap;
        let a = Array::Int64(Int64Array {
            values: vec![7, 99],
            validity: Some(Bitmap::from_bools(&[false, false])),
        });
        let h = hash_rows(&[&a]).unwrap();
        assert_eq!(h[0], h[1]);
    }

    #[test]
    fn string_hash_no_prefix_collision() {
        let a = Array::from_strs(["ab", "a"]);
        let b = Array::from_strs(["c", "bc"]);
        let h = hash_rows(&[&a, &b]).unwrap();
        assert_ne!(h[0], h[1], "('ab','c') vs ('a','bc')");
    }

    #[test]
    fn dictionary_rows_hash_like_their_plain_form() {
        use crate::array::Utf8Array;
        use crate::bitmap::Bitmap;
        use crate::dict::DictArray;
        let entries = std::sync::Arc::new(Utf8Array::from_strs(["", "a long entry", "b"]));
        let validity = Some(Bitmap::from_bools(&[true, false, true, true]));
        let dict = Array::Dict(DictArray::try_new(vec![1, 7, 0, 2], entries, validity).unwrap());
        let plain = Array::Utf8(dict.to_utf8().unwrap().into_owned());
        let ints = Array::from_i64(vec![3, 3, 3, 3]);
        assert_eq!(
            hash_rows(&[&ints, &dict]).unwrap(),
            hash_rows(&[&ints, &plain]).unwrap()
        );
        assert!(hash_column_into(&ints, &mut [0; 3]).is_err());
    }

    /// String hashes of 0 to 17 bytes, pinned to what the hash wrote when
    /// it built the tail word by copying the tail into a zeroed buffer:
    /// empty, tail only, one word, a word and a tail, two words and one
    /// more byte.
    #[test]
    fn string_hashes_are_pinned() {
        let text = "The quick brown f";
        let a = Array::from_strs((0..=17).map(|n| &text[..n]));
        let pinned: [u64; 18] = [
            0x0,
            0xca34_fa07_1eff_39d6,
            0xdbdf_e1e1_0a23_5100,
            0x968a_4963_19cb_91f2,
            0x0527_8d3c_2388_e20c,
            0x29ff_f7d5_170f_d05e,
            0x8ed4_a150_a956_3cbd,
            0x7048_7ea9_5ea0_8daf,
            0x9d06_ebef_f13d_1b29,
            0x67d7_0edc_c954_1d39,
            0x379f_e06d_5517_fb3e,
            0x5045_c809_1166_079d,
            0x719a_d2eb_d215_d2b1,
            0xdf3f_15ba_a711_549b,
            0x0d41_6b42_796d_f6a0,
            0x42e1_c891_5e3c_b0de,
            0x29da_4f72_7dc4_d220,
            0xfac7_ca29_b966_5fd8,
        ];
        assert_eq!(hash_rows(&[&a]).unwrap(), pinned);
        for n in 0..8 {
            let mut padded = [0u8; 8];
            padded[..n].copy_from_slice(&text.as_bytes()[..n]);
            assert_eq!(
                le_u64_short(&text.as_bytes()[..n]),
                u64::from_le_bytes(padded)
            );
        }
    }

    #[test]
    fn distribution_sanity() {
        // 10k distinct keys into 1k buckets: no bucket should be empty-ish
        // pathological. Loose check: at least 900 distinct buckets hit.
        let values: Vec<i64> = (0..10_000).collect();
        let a = Array::from_i64(values);
        let h = hash_rows(&[&a]).unwrap();
        let mut buckets = std::collections::HashSet::new();
        for v in h {
            buckets.insert(v % 1024);
        }
        assert!(buckets.len() > 900, "only {} buckets hit", buckets.len());
    }
}
