//! Column chunk encodings: plain and dictionary.
//!
//! A chunk is one column of one row group. Plain encoding reuses the
//! columnar IPC array layout; dictionary encoding factors repeated strings
//! through an index array (chosen automatically for low-cardinality Utf8
//! columns, like Parquet's dictionary pages). A dictionary page decodes to
//! a [`DictArray`] over its entries, not to the strings it stands for.
//!
//! Either page ends in one [`ipc::checksum`] over every byte before it, as
//! Parquet's page CRC covers the pages that hold dictionary indices. A plain
//! page is a sealed CIP3 message. A dictionary page is:
//!
//! ```text
//! nrows u32 | has_validity u8 | [validity words] | width u8 |
//! indices (width bytes each) | dict_len u32 | bare CIP3 message of the
//! entries | crc u64
//! ```

use bytes::{Buf, BufMut, Bytes};
use columnar::ipc;
use columnar::prelude::*;
use columnar::{DictArray, Utf8Array};
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

fn single_column_batch(name: &str, array: Array) -> Result<RecordBatch> {
    let field = Field::new(name, array.data_type(), true);
    let schema = Arc::new(Schema::new(vec![field]));
    RecordBatch::try_new(schema, vec![Arc::new(array)]).map_err(ParqError::Columnar)
}

/// Pick the encoding for `array`: dictionary for Utf8 when it at least
/// halves the distinct count, else plain.
pub fn choose_encoding(array: &Array) -> Encoding {
    let Ok(a) = array.to_utf8() else {
        return Encoding::Plain;
    };
    if a.len() < 16 {
        return Encoding::Plain;
    }
    let mut distinct = std::collections::HashSet::new();
    for i in 0..a.len() {
        distinct.insert(a.bytes(i));
        if distinct.len() * 2 > a.len() {
            return Encoding::Plain;
        }
    }
    Encoding::Dictionary
}

/// Encode `array` with `encoding` into bytes.
pub fn encode_chunk(array: &Array, encoding: Encoding) -> Result<Bytes> {
    match encoding {
        Encoding::Plain => Ok(ipc::encode_batch(&single_column_batch("c", array.clone())?)),
        Encoding::Dictionary => {
            let a = array.to_utf8().map_err(ParqError::Columnar)?;
            // Build dictionary in first-appearance order. NULL slots get
            // index 0 (masked out by the validity bitmap on decode).
            let mut lookup: std::collections::HashMap<&[u8], u32> =
                std::collections::HashMap::new();
            let mut dict: Vec<&[u8]> = Vec::new();
            let mut indices: Vec<u32> = Vec::with_capacity(a.len());
            for i in 0..a.len() {
                if !array.is_valid(i) {
                    indices.push(0);
                    continue;
                }
                let s = a.bytes(i);
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
            let entries = Utf8Array {
                offsets: std::iter::once(0)
                    .chain(dict.iter().scan(0u32, |end, e| {
                        *end += e.len() as u32;
                        Some(*end)
                    }))
                    .collect(),
                data: dict.concat().into(),
                validity: None,
            };
            let dict_len_at = out.len();
            out.put_u32_le(0); // set once the message is written
            ipc::put_message(&mut out, &single_column_batch("d", Array::Utf8(entries))?);
            let dict_len = (out.len() - dict_len_at - 4) as u32;
            out[dict_len_at..dict_len_at + 4].copy_from_slice(&dict_len.to_le_bytes());
            ipc::seal(&mut out, 0);
            Ok(out.into())
        }
    }
}

/// The one column of a decoded chunk batch.
fn single_column(batch: RecordBatch) -> Result<Array> {
    let columns = batch.into_columns();
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
        Encoding::Plain => single_column(ipc::decode_batch(bytes)?),
        Encoding::Dictionary => {
            let page = ipc::unseal(bytes)?;
            let mut buf: &[u8] = &page;
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
            let raw = &buf[..nrows * width];
            let indices: Vec<u32> = match width {
                1 => raw.iter().map(|&b| u32::from(b)).collect(),
                2 => raw
                    .as_chunks::<2>()
                    .0
                    .iter()
                    .map(|w| u32::from(u16::from_le_bytes(*w)))
                    .collect(),
                _ => raw
                    .as_chunks::<4>()
                    .0
                    .iter()
                    .map(|w| u32::from_le_bytes(*w))
                    .collect(),
            };
            buf.advance(nrows * width);
            need!(4);
            let dlen = buf.get_u32_le() as usize;
            if buf.remaining() != dlen {
                return Err(ParqError::Corrupt(format!(
                    "dictionary of {dlen} bytes in the last {} of the page",
                    buf.remaining()
                )));
            }
            let consumed = page.len() - buf.len();
            let message = page.slice(consumed..consumed + dlen);
            let entries = match single_column(ipc::decode_message(&message)?)? {
                Array::Utf8(entries) => entries,
                other => {
                    return Err(ParqError::Columnar(ColumnarError::type_mismatch(
                        "Utf8",
                        other.data_type(),
                    )))
                }
            };
            // The page stays codes: the checked constructor is the pass that
            // range-checks the index of every valid slot and bounds the
            // expansion by what u32 offsets address, before anything is
            // built. The index under a null slot is never read (the encoder
            // writes 0 there, even over an empty dictionary). No null, no
            // bitmap: a batch re-encoded from this column then carries no
            // validity words, whatever the page's writer held.
            let validity = validity.filter(|v| v.count_zeros() > 0);
            DictArray::try_new(indices, Arc::new(entries), validity)
                .map(Array::Dict)
                .map_err(|e| ParqError::Corrupt(format!("dictionary page: {e}")))
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
        assert_eq!((&back, back.byte_size()), (&arr, arr.byte_size()));
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

    /// `n` rows cycling through `distinct` strings (one of them empty, some
    /// multi-byte), every `null_every`-th row null.
    fn repeated_strings(n: usize, distinct: usize, null_every: usize) -> Array {
        let mut b = ArrayBuilder::new(DataType::Utf8);
        for i in 0..n {
            match i % distinct {
                _ if i % null_every == 0 => b.push_null(),
                0 => b.push_str(""),
                k if k % 5 == 0 => b.push_str(&format!("ünï{k}")),
                k => b.push_str(&format!("k{k}")),
            }
        }
        b.finish()
    }

    /// The exact page bytes the dictionary encoder writes at index widths 1
    /// and 2, pinned by length and checksum: page sizes feed compressed
    /// sizes and so every `results/*.txt`.
    #[test]
    fn dictionary_page_bytes_are_pinned() {
        for (arr, width, pinned) in [
            (
                repeated_strings(100, 7, 10),
                1,
                (210, 0x639F_4C77_A6A3_AAF6),
            ),
            (
                repeated_strings(700, 300, 13),
                2,
                (4062, 0xAEC6_BB8C_E515_3A3A),
            ),
        ] {
            let page = encode_chunk(&arr, Encoding::Dictionary).unwrap();
            let width_at = 4 + 1 + arr.len().div_ceil(64) * 8;
            assert_eq!(page[width_at], width);
            assert_eq!((page.len(), ipc::checksum(&page)), pinned, "width {width}");
            let back = decode_chunk(&page, Encoding::Dictionary).unwrap();
            assert!(
                back.as_dict().is_some(),
                "a dictionary page decodes to codes"
            );
            assert_eq!(back, arr);
            // `arr` is what the page used to expand to at decode: billing,
            // cache admission and stream apportioning read this size.
            assert_eq!(back.byte_size(), arr.byte_size());
            // Codes written back out are the page and the plain chunk the
            // strings give.
            assert_eq!(choose_encoding(&back), choose_encoding(&arr));
            assert_eq!(encode_chunk(&back, Encoding::Dictionary).unwrap(), page);
            assert_eq!(
                encode_chunk(&back, Encoding::Plain).unwrap(),
                encode_chunk(&arr, Encoding::Plain).unwrap()
            );
        }
    }

    #[test]
    fn dictionary_page_expanding_past_u32_offsets_is_corrupt_before_allocating() {
        // One 64 KiB entry named by 65 537 one-byte indices: a 128 KiB page
        // that expands to 65 537 x 64 KiB, 64 KiB past what u32 offsets
        // address. Expanded row by row, the offsets would wrap after 4 GiB
        // had been allocated and copied.
        let entry = "x".repeat(1 << 16);
        let dict = single_column_batch("d", Array::from_strs([entry.as_str()])).unwrap();
        let mut message = Vec::new();
        ipc::put_message(&mut message, &dict);
        let nrows = (1 << 16) + 1;
        let mut page = Vec::new();
        page.put_u32_le(nrows as u32);
        page.put_u8(0); // no validity
        page.put_u8(1); // index width
        page.resize(page.len() + nrows, 0); // every row names entry 0
        page.put_u32_le(message.len() as u32);
        page.put_slice(&message);
        ipc::seal(&mut page, 0);
        assert!(page.len() < 129 << 10, "{} bytes", page.len());
        let got = decode_chunk(&Bytes::from(page), Encoding::Dictionary);
        assert!(matches!(got, Err(ParqError::Corrupt(_))));
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

    /// The whole dictionary page is under its one checksum: row count,
    /// validity words, index width, indices, dictionary length and
    /// dictionary. No change to one byte decodes, let alone to wrong rows.
    #[test]
    fn every_byte_of_a_dictionary_page_is_checksummed() {
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
        // one index byte per row, dictionary length u32, dictionary message,
        // checksum.
        let dict_len_at = 4 + 1 + 8 + 1 + arr.len();
        let dict_start = dict_len_at + 4;
        let dict_len = u32::from_le_bytes(page[dict_len_at..dict_start].try_into().unwrap());
        assert_eq!(
            dict_start + dict_len as usize + ipc::CHECKSUM_BYTES,
            page.len()
        );
        for pos in 0..page.len() {
            let got = decode_chunk(&with_byte_flipped(&page, pos), Encoding::Dictionary);
            assert!(
                got.is_err(),
                "flip at byte {pos} of {} went undetected",
                page.len()
            );
        }
    }
}
