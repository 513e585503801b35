//! Dictionary-coded strings: [`DictArray`], per-row `u32` codes over a
//! shared [`Utf8Array`] of entries.
//!
//! A `parq` dictionary page decodes to this form instead of a fresh
//! `Utf8Array`, so a low-cardinality string column crosses filter (a gather
//! of codes) and group-by (one probe per distinct code tuple) without its
//! bytes being copied row by row. Its logical type is `Utf8`, and what can
//! be observed of it — equality, [`crate::Array::byte_size`], the IPC bytes —
//! is that of the `Utf8Array` it expands to: row `i` holds entry
//! `codes[i]`, a null slot holds no bytes. [`DictArray::ends`] and
//! [`DictArray::extend_data`] write the expansion's offsets and bytes: IPC
//! encode calls them straight into a message, and [`DictArray::expand`]
//! builds a `Utf8Array` from them for kernels with no dictionary arm.

use std::sync::Arc;

use crate::array::{checked_utf8_len, Utf8Array};
use crate::bitmap::Bitmap;
use crate::error::{ColumnarError, Result};
use crate::kernels::selection::{gather_bits, gather_words};

/// Entries up to this long are copied as one fixed-size block when the
/// expansion is written out ([`DictArray::extend_data`]).
const BLOCK: usize = 16;

/// Dictionary-coded Utf8: `codes[i]` names an entry for every valid slot;
/// the code under a null slot is never read.
#[derive(Debug, Clone)]
pub struct DictArray {
    codes: Vec<u32>,
    entries: Arc<Utf8Array>,
    validity: Option<Bitmap>,
    /// Bytes the expansion holds; fits `u32` offsets by construction.
    data_len: u32,
}

impl DictArray {
    /// Checked constructor: the bitmap (if any) covers every code, every
    /// valid slot's code names an entry, and the expansion fits what `u32`
    /// offsets address (4 GiB). One pass over the codes decides all of it
    /// before the array exists.
    pub fn try_new(
        codes: Vec<u32>,
        entries: Arc<Utf8Array>,
        validity: Option<Bitmap>,
    ) -> Result<DictArray> {
        if let Some(v) = &validity {
            if v.len() != codes.len() {
                return Err(ColumnarError::LengthMismatch {
                    left: codes.len(),
                    right: v.len(),
                });
            }
        }
        let lens = entry_lens(&entries);
        let is_valid = |i: usize| validity.as_ref().is_none_or(|v| v.get(i));
        let mut total = 0u64;
        for (i, &code) in codes.iter().enumerate() {
            if is_valid(i) {
                let c = code as usize;
                total += lens.get(c).ok_or(ColumnarError::IndexOutOfBounds {
                    index: c,
                    len: lens.len(),
                })?;
            }
        }
        let data_len = checked_utf8_len(total)?;
        Ok(DictArray {
            codes,
            entries,
            validity,
            data_len,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the array holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Per-row codes (unspecified under a null slot).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The distinct strings the codes name.
    pub fn entries(&self) -> &Utf8Array {
        &self.entries
    }

    /// Validity bitmap; `None` means all valid.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// True when row `i` is valid (non-null).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// The bytes of row `i`, or `None` for a null slot.
    #[inline]
    pub fn value(&self, i: usize) -> Option<&[u8]> {
        self.is_valid(i)
            .then(|| self.entries.bytes(self.codes[i] as usize))
    }

    /// Bytes the expansion holds: the entry lengths of the valid slots.
    pub fn data_len(&self) -> usize {
        self.data_len as usize
    }

    /// Each row's bytes as the expansion holds them: its entry, or nothing
    /// under a null. The entries are sliced once, not once per row.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        let entries: Vec<&[u8]> = (0..self.entries.len())
            .map(|e| self.entries.bytes(e))
            .collect();
        let validity = self.validity.as_ref();
        self.codes.iter().enumerate().map(move |(i, &c)| {
            if validity.is_none_or(|v| v.get(i)) {
                entries[c as usize]
            } else {
                &[]
            }
        })
    }

    /// The expansion's end offsets, one per row: its offsets after the
    /// leading 0.
    pub fn ends(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        let mut end = 0u32;
        self.rows().map(move |v| {
            end += v.len() as u32;
            end
        })
    }

    /// Append the expansion's bytes to `out`: each valid row's entry, in
    /// row order. When every entry fits in `BLOCK` (16) bytes, a row copies a
    /// whole zero-padded block and moves on by its entry's length, and the
    /// next row overwrites the padding: a fixed-size copy is a few stores,
    /// where a copy of the entry's own length is a call per row. Once a
    /// block no longer fits before the end, the last rows copy exactly.
    pub fn extend_data(&self, out: &mut Vec<u8>) {
        let n = self.entries.len();
        if (0..n).any(|e| self.entries.bytes(e).len() > BLOCK) {
            self.rows().for_each(|v| out.extend_from_slice(v));
            return;
        }
        let blocks: Vec<([u8; BLOCK], usize)> = (0..n)
            .map(|e| {
                let v = self.entries.bytes(e);
                let mut block = [0; BLOCK];
                block[..v.len()].copy_from_slice(v);
                (block, v.len())
            })
            .collect();
        let start = out.len();
        out.resize(start + self.data_len(), 0);
        let dst = &mut out[start..];
        let mut rows = (self.codes.iter().enumerate())
            .filter(|&(i, _)| self.is_valid(i))
            .map(|(_, &c)| &blocks[c as usize]);
        let mut at = 0;
        while at + BLOCK <= dst.len() {
            let Some((block, len)) = rows.next() else {
                break;
            };
            dst[at..at + BLOCK].copy_from_slice(block);
            at += len;
        }
        for (block, len) in rows {
            dst[at..at + len].copy_from_slice(&block[..*len]);
            at += len;
        }
    }

    /// The Utf8 array this one stands for, with the same validity.
    pub fn expand(&self) -> Utf8Array {
        let mut data = Vec::with_capacity(self.data_len());
        self.extend_data(&mut data);
        Utf8Array {
            offsets: std::iter::once(0).chain(self.ends()).collect(),
            data: data.into(),
            validity: self.validity.clone(),
        }
    }

    /// Gather rows at `indices` (in range, may repeat): the codes move, the
    /// entries are shared. Errors when the gathered rows would expand past
    /// what `u32` offsets address.
    pub fn take(&self, indices: &[usize]) -> Result<DictArray> {
        let lens = entry_lens(&self.entries);
        let total = indices
            .iter()
            .filter(|&&i| self.is_valid(i))
            .map(|&i| lens[self.codes[i] as usize])
            .sum();
        let data_len = checked_utf8_len(total)?;
        Ok(DictArray {
            codes: indices.iter().map(|&i| self.codes[i]).collect(),
            entries: self.entries.clone(),
            validity: self
                .validity
                .as_ref()
                .map(|v| indices.iter().map(|&i| v.get(i)).collect()),
            data_len,
        })
    }

    /// The `count` rows at the set bits of `bits`, in order: codes and
    /// validity move a word of the selection at a time, the entries are
    /// shared, and `data_len` is summed from the gathered codes of the
    /// valid rows. A subset of the rows expands to no more bytes than all
    /// of them, so it fits `u32` offsets.
    pub(crate) fn gather(&self, bits: &Bitmap, count: usize) -> DictArray {
        let codes = gather_words(&self.codes, bits, count);
        let validity = self.validity.as_ref().map(|v| gather_bits(v, bits, count));
        let lens = entry_lens(&self.entries);
        let data_len: u64 = match &validity {
            None => codes.iter().map(|&c| lens[c as usize]).sum(),
            Some(v) => (codes.iter().zip(v.iter()))
                .filter(|&(_, valid)| valid)
                .map(|(&c, _)| lens[c as usize])
                .sum(),
        };
        DictArray {
            codes,
            entries: self.entries.clone(),
            validity,
            data_len: data_len as u32,
        }
    }
}

/// Each entry's length, read once per pass over the codes instead of two
/// offsets per row.
fn entry_lens(entries: &Utf8Array) -> Vec<u64> {
    (0..entries.len())
        .map(|e| entries.bytes(e).len() as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;

    fn abc() -> Arc<Utf8Array> {
        Arc::new(Utf8Array::from_strs(["a", "bb", ""]))
    }

    #[test]
    fn constructor_checks_codes_and_ignores_them_under_nulls() {
        let d = DictArray::try_new(vec![1, 0, 2, 1], abc(), None).unwrap();
        assert_eq!(d.data_len(), 5);
        assert_eq!(d.expand(), Utf8Array::from_strs(["bb", "a", "", "bb"]));
        assert!(matches!(
            DictArray::try_new(vec![3], abc(), None),
            Err(ColumnarError::IndexOutOfBounds { index: 3, len: 3 })
        ));
        // Any code under a null, even over an empty dictionary.
        let nulls = Some(Bitmap::from_bools(&[false, false]));
        let empty = Arc::new(Utf8Array::from_strs(std::iter::empty()));
        let d = DictArray::try_new(vec![9, u32::MAX], empty, nulls.clone()).unwrap();
        assert_eq!((d.value(0), d.data_len()), (None, 0));
        assert!(matches!(
            DictArray::try_new(vec![0], abc(), nulls),
            Err(ColumnarError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn array_view_is_the_expansion() {
        let validity = Some(Bitmap::from_bools(&[true, false, true]));
        let d = DictArray::try_new(vec![1, 7, 0], abc(), validity).unwrap();
        let expanded = d.expand();
        assert_eq!(expanded.offsets, vec![0, 2, 2, 3]);
        let (dict, plain) = (Array::Dict(d), Array::Utf8(expanded));
        assert_eq!(dict.byte_size(), plain.byte_size());
        assert_eq!(dict, plain);
        assert_eq!(plain, dict);
        for i in 0..3 {
            assert_eq!(dict.scalar_at(i), plain.scalar_at(i), "row {i}");
        }
        assert_ne!(dict, Array::from_strs(["bb", "", "a"]));
    }

    #[test]
    fn both_copies_write_each_row_entry() {
        // Entries that fit a block (the empty one and one of exactly
        // `BLOCK` bytes included), then one that does not; nulls with junk
        // codes under them. Enough rows that blocks run, then the exact
        // tail does.
        let full = "é".repeat(BLOCK / 2);
        let long = "z".repeat(BLOCK + 1);
        let validity = Bitmap::from_bools(&(0..200).map(|i| i % 7 != 3).collect::<Vec<_>>());
        for entries in [
            vec!["", "a", full.as_str(), "bb"],
            vec!["", "a", long.as_str()],
        ] {
            let n = entries.len() as u32;
            let codes: Vec<u32> = (0..200u32)
                .map(|i| if i % 7 == 3 { u32::MAX } else { i * 5 % n })
                .collect();
            let entries = Arc::new(Utf8Array::from_strs(entries.iter().copied()));
            let d = DictArray::try_new(codes, entries, Some(validity.clone())).unwrap();
            let want: Vec<u8> = (0..d.len())
                .filter_map(|i| d.value(i))
                .flatten()
                .copied()
                .collect();
            let mut got = b"head".to_vec();
            d.extend_data(&mut got);
            assert_eq!(got[4..], want[..]);
            assert_eq!(d.expand().data[..], want[..]);
        }
    }

    #[test]
    fn take_moves_codes_and_bounds_the_expansion() {
        let d = DictArray::try_new(vec![1, 0, 2], abc(), None).unwrap();
        let t = d.take(&[1, 1, 0]).unwrap();
        assert_eq!(t.codes(), &[0, 0, 1]);
        assert_eq!(t.expand(), Utf8Array::from_strs(["a", "a", "bb"]));
        let big = Arc::new(Utf8Array::from_strs(["x".repeat(1 << 16).as_str()]));
        let d = DictArray::try_new(vec![0], big, None).unwrap();
        assert!(d.take(&vec![0; (1 << 16) + 1]).is_err());
    }
}
