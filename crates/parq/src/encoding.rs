//! Column chunk encodings: plain and dictionary.
//!
//! A chunk is one column of one row group. Plain encoding reuses the
//! columnar IPC array layout; dictionary encoding factors repeated strings
//! through an index array (chosen automatically for low-cardinality Utf8
//! columns, like Parquet's dictionary pages).

use bytes::{Buf, BufMut, Bytes};
use columnar::builder::ArrayBuilder;
use columnar::ipc;
use columnar::prelude::*;
use std::sync::Arc;

use crate::{ParqError, Result};

/// Chunk encoding tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Values stored directly.
    Plain,
    /// Utf8 values factored through a dictionary + i64 indices.
    Dictionary,
}

impl Encoding {
    /// Stable byte tag.
    pub fn tag(&self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Dictionary => 1,
        }
    }

    /// Inverse of [`Encoding::tag`].
    pub fn from_tag(tag: u8) -> Result<Encoding> {
        Ok(match tag {
            0 => Encoding::Plain,
            1 => Encoding::Dictionary,
            other => return Err(ParqError::Corrupt(format!("unknown encoding tag {other}"))),
        })
    }
}

fn single_column_batch(name: &str, array: Array) -> RecordBatch {
    let field = Field::new(name, array.data_type(), true);
    let schema = Arc::new(Schema::new(vec![field]));
    RecordBatch::try_new(schema, vec![Arc::new(array)]).expect("self-consistent batch")
}

/// Pick the encoding for `array`: dictionary for Utf8 when it at least
/// halves the distinct count, else plain.
pub fn choose_encoding(array: &Array) -> Encoding {
    if let Array::Utf8(a) = array {
        if a.len() >= 16 {
            let mut distinct = std::collections::HashSet::new();
            for i in 0..a.len() {
                distinct.insert(a.value(i));
                if distinct.len() * 2 > a.len() {
                    return Encoding::Plain;
                }
            }
            return Encoding::Dictionary;
        }
    }
    Encoding::Plain
}

/// Encode `array` with `encoding` into bytes.
pub fn encode_chunk(array: &Array, encoding: Encoding) -> Result<Bytes> {
    match encoding {
        Encoding::Plain => Ok(ipc::encode_batch(&single_column_batch("c", array.clone()))),
        Encoding::Dictionary => {
            let a = array.as_utf8().map_err(ParqError::Columnar)?;
            // Build dictionary in first-appearance order. NULL slots get
            // index 0 (masked out by the validity bitmap on decode).
            let mut lookup: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
            let mut dict: Vec<&str> = Vec::new();
            let mut indices: Vec<u32> = Vec::with_capacity(a.len());
            for i in 0..a.len() {
                if !array.is_valid(i) {
                    indices.push(0);
                    continue;
                }
                let s = a.value(i);
                let id = *lookup.entry(s).or_insert_with(|| {
                    dict.push(s);
                    (dict.len() - 1) as u32
                });
                indices.push(id);
            }
            // Indices packed at the narrowest fixed width that fits.
            let width: u8 = match dict.len() {
                0..=0xff => 1,
                0x100..=0xffff => 2,
                _ => 4,
            };
            let mut out = Vec::with_capacity(a.len() * width as usize + 64);
            out.put_u32_le(a.len() as u32);
            match array.validity() {
                Some(v) => {
                    out.put_u8(1);
                    out.put_slice(&v.to_le_bytes());
                }
                None => out.put_u8(0),
            }
            out.put_u8(width);
            for &idx in &indices {
                match width {
                    1 => out.put_u8(idx as u8),
                    2 => out.put_u16_le(idx as u16),
                    _ => out.put_u32_le(idx),
                }
            }
            let dict_bytes = ipc::encode_batch(&single_column_batch(
                "d",
                Array::from_strs(dict.iter().copied()),
            ));
            out.put_u32_le(dict_bytes.len() as u32);
            out.put_slice(&dict_bytes);
            Ok(out.into())
        }
    }
}

fn decode_single(bytes: &Bytes) -> Result<Array> {
    let columns = ipc::decode_batch(bytes)
        .map_err(ParqError::Columnar)?
        .into_columns();
    let Ok([column]) = <[ArrayRef; 1]>::try_from(columns) else {
        return Err(ParqError::Corrupt(
            "chunk batch must have one column".into(),
        ));
    };
    // The batch was decoded a moment ago, so the column is unshared and
    // moves out; the clone is only the fallback `try_unwrap` requires.
    Ok(Arc::try_unwrap(column).unwrap_or_else(|shared| (*shared).clone()))
}

/// Decode a chunk back into an array.
pub fn decode_chunk(bytes: &Bytes, encoding: Encoding) -> Result<Array> {
    match encoding {
        Encoding::Plain => decode_single(bytes),
        Encoding::Dictionary => {
            let mut buf: &[u8] = bytes;
            macro_rules! need {
                ($n:expr) => {
                    if buf.remaining() < $n {
                        return Err(ParqError::Corrupt("truncated dictionary chunk".into()));
                    }
                };
            }
            need!(5);
            let nrows = buf.get_u32_le() as usize;
            let has_validity = buf.get_u8() == 1;
            let validity = if has_validity {
                let nbytes = nrows.div_ceil(64) * 8;
                need!(nbytes);
                let v = columnar::Bitmap::from_le_bytes(&buf[..nbytes], nrows)
                    .map_err(ParqError::Columnar)?;
                buf.advance(nbytes);
                Some(v)
            } else {
                None
            };
            need!(1);
            let width = buf.get_u8() as usize;
            if !matches!(width, 1 | 2 | 4) {
                return Err(ParqError::Corrupt(format!("bad index width {width}")));
            }
            need!(nrows * width);
            let mut indices = Vec::with_capacity(nrows);
            for i in 0..nrows {
                let off = i * width;
                let idx = match width {
                    1 => buf[off] as u32,
                    2 => u16::from_le_bytes([buf[off], buf[off + 1]]) as u32,
                    _ => u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")),
                };
                indices.push(idx);
            }
            buf.advance(nrows * width);
            need!(4);
            let dlen = buf.get_u32_le() as usize;
            need!(dlen);
            let consumed = bytes.len() - buf.len();
            let dict = decode_single(&bytes.slice(consumed..consumed + dlen))?;
            let dict = dict.as_utf8().map_err(ParqError::Columnar)?;
            let mut out = ArrayBuilder::new(DataType::Utf8);
            for (i, &id) in indices.iter().enumerate() {
                if validity.as_ref().map(|v| !v.get(i)).unwrap_or(false) {
                    out.push_null();
                    continue;
                }
                if id as usize >= dict.len() {
                    return Err(ParqError::Corrupt(format!(
                        "dictionary index {id} out of range {}",
                        dict.len()
                    )));
                }
                out.push_str(dict.value(id as usize));
            }
            Ok(out.finish())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_roundtrip_all_types() {
        for arr in [
            Array::from_i64(vec![1, 2, 3]),
            Array::from_f64(vec![0.5, f64::MAX]),
            Array::from_bools(vec![true, false]),
            Array::from_strs(["a", "bb"]),
            Array::from_dates(vec![1, 2]),
        ] {
            let bytes = encode_chunk(&arr, Encoding::Plain).unwrap();
            let back = decode_chunk(&bytes, Encoding::Plain).unwrap();
            assert_eq!(back, arr);
        }
    }

    #[test]
    fn dictionary_roundtrip() {
        let values: Vec<&str> = ["A", "F", "N", "R"]
            .iter()
            .cycle()
            .take(1000)
            .copied()
            .collect();
        let arr = Array::from_strs(values.iter().copied());
        let bytes = encode_chunk(&arr, Encoding::Dictionary).unwrap();
        let back = decode_chunk(&bytes, Encoding::Dictionary).unwrap();
        assert_eq!(back, arr);
        // Dictionary should be much smaller than plain for this data.
        let plain = encode_chunk(&arr, Encoding::Plain).unwrap();
        assert!(
            bytes.len() * 2 < plain.len(),
            "{} vs {}",
            bytes.len(),
            plain.len()
        );
    }

    #[test]
    fn dictionary_with_nulls() {
        let mut b = ArrayBuilder::new(DataType::Utf8);
        for i in 0..100 {
            if i % 10 == 0 {
                b.push_null();
            } else {
                b.push_str(if i % 2 == 0 { "even" } else { "odd" });
            }
        }
        let arr = b.finish();
        let bytes = encode_chunk(&arr, Encoding::Dictionary).unwrap();
        let back = decode_chunk(&bytes, Encoding::Dictionary).unwrap();
        assert_eq!(back, arr);
    }

    #[test]
    fn choose_encoding_heuristic() {
        let low_card = Array::from_strs(["x", "y"].iter().cycle().take(100).copied());
        assert_eq!(choose_encoding(&low_card), Encoding::Dictionary);
        let strings: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let high_card = Array::from_strs(strings.iter().map(|s| s.as_str()));
        assert_eq!(choose_encoding(&high_card), Encoding::Plain);
        let ints = Array::from_i64(vec![1; 100]);
        assert_eq!(choose_encoding(&ints), Encoding::Plain);
        // Short arrays stay plain regardless.
        let short = Array::from_strs(["x", "x", "x"]);
        assert_eq!(choose_encoding(&short), Encoding::Plain);
    }

    #[test]
    fn corrupt_chunks_rejected() {
        assert!(decode_chunk(&Bytes::new(), Encoding::Plain).is_err());
        assert!(decode_chunk(&Bytes::from_static(&[1, 2, 3]), Encoding::Dictionary).is_err());
        assert!(Encoding::from_tag(9).is_err());
    }

    fn with_byte_flipped(page: &Bytes, pos: usize) -> Bytes {
        let mut bad = page.to_vec();
        bad[pos] ^= 0xff;
        Bytes::from(bad)
    }

    #[test]
    fn every_byte_of_a_plain_page_is_checksummed() {
        for arr in [
            Array::from_i64((0..50).collect()),
            Array::from_strs(["alpha", "", "gamma"]),
        ] {
            let page = encode_chunk(&arr, Encoding::Plain).unwrap();
            for pos in 0..page.len() {
                assert!(
                    decode_chunk(&with_byte_flipped(&page, pos), Encoding::Plain).is_err(),
                    "flip at byte {pos} of {} went undetected",
                    page.len()
                );
            }
        }
    }

    #[test]
    fn dictionary_page_corruption_never_panics_and_the_dictionary_is_checksummed() {
        let mut b = ArrayBuilder::new(DataType::Utf8);
        for i in 0..40 {
            if i % 9 == 0 {
                b.push_null();
            } else {
                b.push_str(["a", "bb", "ccc"][i % 3]);
            }
        }
        let arr = b.finish();
        let page = encode_chunk(&arr, Encoding::Dictionary).unwrap();
        // Layout: nrows u32, has_validity u8, validity words, index width u8,
        // one index byte per row, dictionary length u32, dictionary batch.
        let dict_len_at = 4 + 1 + 8 + 1 + arr.len();
        let dict_start = dict_len_at + 4;
        let dict_len = u32::from_le_bytes(page[dict_len_at..dict_start].try_into().unwrap());
        assert_eq!(dict_start + dict_len as usize, page.len());
        for pos in 0..page.len() {
            let got = decode_chunk(&with_byte_flipped(&page, pos), Encoding::Dictionary);
            if pos >= dict_start {
                assert!(
                    got.is_err(),
                    "flip at dictionary byte {pos} went undetected"
                );
            }
            // Before `dict_start` only "no panic" can be required: the row
            // count, validity words, index width, indices and dictionary
            // length carry no checksum, so a flip there may decode to wrong
            // values. Covering them changes page sizes (ROADMAP item 4).
        }
    }
}
