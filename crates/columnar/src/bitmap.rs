//! Packed bitmaps used for validity (null) tracking and filter masks.
//!
//! Bits are stored LSB-first within each `u64` word, matching the layout a
//! vectorized engine wants for cheap popcounts and word-at-a-time logic.

use crate::error::{ColumnarError, Result};

/// A growable, packed bitmap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Create an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a bitmap of `len` bits, all set to `value`.
    pub fn with_value(len: usize, value: bool) -> Self {
        let nwords = len.div_ceil(64);
        let fill = if value { u64::MAX } else { 0 };
        let mut bm = Bitmap {
            words: vec![fill; nwords],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Create a bitmap from a slice of booleans.
    pub fn from_bools(bools: &[bool]) -> Self {
        Bitmap::pack(bools.iter().copied())
    }

    /// Pack one bit per item, 64 items a word, with no branch on any item:
    /// the one constructor every comparison kernel fills its mask with.
    pub(crate) fn pack(bits: impl ExactSizeIterator<Item = bool>) -> Self {
        let len = bits.len();
        let mut bits = bits;
        let words = (0..len.div_ceil(64))
            .map(|_| {
                bits.by_ref()
                    .take(64)
                    .enumerate()
                    .fold(0, |word, (j, bit)| word | (u64::from(bit) << j))
            })
            .collect();
        Bitmap { words, len }
    }

    /// A bitmap of `len` bits from `len.div_ceil(64)` packed words; bits
    /// past `len` are cleared.
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        let mut bm = Bitmap { words, len };
        bm.mask_tail();
        bm
    }

    /// Reconstruct a bitmap from its raw little-endian word bytes.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Result<Self> {
        let nwords = len.div_ceil(64);
        if bytes.len() != nwords * 8 {
            return Err(ColumnarError::Corrupt(format!(
                "bitmap byte length {} does not match bit length {len}",
                bytes.len()
            )));
        }
        let words = bytes
            .as_chunks::<8>()
            .0
            .iter()
            .map(|w| u64::from_le_bytes(*w))
            .collect();
        let mut bm = Bitmap { words, len };
        bm.mask_tail();
        Ok(bm)
    }

    /// Serialize the bitmap words as little-endian bytes.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// The packed words, `len.div_ceil(64)` of them, bits past `len` zero:
    /// exactly what [`Bitmap::to_le_bytes`] serializes.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of bounds for len {}",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write bit `i`. Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of bounds for len {}",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Append a bit.
    #[inline]
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            self.set(self.len - 1, true);
        }
    }

    /// Count of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Count of unset bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// True when every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Word-at-a-time logical AND of two equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Result<Bitmap> {
        self.zip_words(other, |a, b| a & b)
    }

    /// Word-at-a-time logical OR of two equal-length bitmaps.
    pub fn or(&self, other: &Bitmap) -> Result<Bitmap> {
        self.zip_words(other, |a, b| a | b)
    }

    /// Word-at-a-time logical XOR of two equal-length bitmaps.
    pub fn xor(&self, other: &Bitmap) -> Result<Bitmap> {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Bitwise NOT (within `len`).
    pub fn not(&self) -> Bitmap {
        let mut out = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Iterate over bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Indices of set bits, in ascending order.
    pub fn set_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut word = w;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                word &= word - 1;
            }
        }
        out
    }

    /// A new bitmap containing bits `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Bitmap> {
        if offset + len > self.len {
            return Err(ColumnarError::IndexOutOfBounds {
                index: offset + len,
                len: self.len,
            });
        }
        let mut out = Bitmap::with_value(len, false);
        for i in 0..len {
            if self.get(offset + i) {
                out.set(i, true);
            }
        }
        Ok(out)
    }

    fn zip_words(&self, other: &Bitmap, f: impl Fn(u64, u64) -> u64) -> Result<Bitmap> {
        if self.len != other.len {
            return Err(ColumnarError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| f(a, b))
            .collect();
        let mut out = Bitmap {
            words,
            len: self.len,
        };
        out.mask_tail();
        Ok(out)
    }

    /// Zero out bits beyond `len` in the last word so equality and popcount
    /// are well-defined.
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        // Drop excess words if any (possible after from_le_bytes of padded data).
        let nwords = self.len.div_ceil(64);
        self.words.truncate(nwords);
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bm = Bitmap::new();
        for b in iter {
            bm.push(b);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        bm.set(1, true);
        assert!(bm.get(1));
        assert_eq!(bm.count_ones(), 67 + 1);
    }

    #[test]
    fn with_value_true_masks_tail() {
        let bm = Bitmap::with_value(70, true);
        assert_eq!(bm.count_ones(), 70);
        assert!(bm.all_set());
        let not = bm.not();
        assert_eq!(not.count_ones(), 0);
    }

    #[test]
    fn logical_ops() {
        let a = Bitmap::from_bools(&[true, true, false, false, true]);
        let b = Bitmap::from_bools(&[true, false, true, false, true]);
        assert_eq!(
            a.and(&b).unwrap(),
            Bitmap::from_bools(&[true, false, false, false, true])
        );
        assert_eq!(
            a.or(&b).unwrap(),
            Bitmap::from_bools(&[true, true, true, false, true])
        );
        assert_eq!(
            a.xor(&b).unwrap(),
            Bitmap::from_bools(&[false, true, true, false, false])
        );
        assert_eq!(
            a.not(),
            Bitmap::from_bools(&[false, false, true, true, false])
        );
    }

    #[test]
    fn logical_ops_length_mismatch_is_error() {
        let a = Bitmap::with_value(3, true);
        let b = Bitmap::with_value(4, true);
        assert!(matches!(
            a.and(&b),
            Err(ColumnarError::LengthMismatch { left: 3, right: 4 })
        ));
    }

    #[test]
    fn set_indices_spans_word_boundaries() {
        let mut bm = Bitmap::with_value(130, false);
        for &i in &[0usize, 63, 64, 65, 127, 128, 129] {
            bm.set(i, true);
        }
        assert_eq!(bm.set_indices(), vec![0, 63, 64, 65, 127, 128, 129]);
    }

    #[test]
    fn bytes_roundtrip() {
        let bm: Bitmap = (0..100).map(|i| i % 7 < 3).collect();
        let bytes = bm.to_le_bytes();
        let back = Bitmap::from_le_bytes(&bytes, 100).unwrap();
        assert_eq!(bm, back);
    }

    #[test]
    fn bytes_wrong_length_is_corrupt() {
        assert!(matches!(
            Bitmap::from_le_bytes(&[0u8; 7], 64),
            Err(ColumnarError::Corrupt(_))
        ));
    }

    #[test]
    fn slice_extracts_window() {
        let bm: Bitmap = (0..100).map(|i| i % 2 == 0).collect();
        let s = bm.slice(63, 10).unwrap();
        for i in 0..10 {
            assert_eq!(s.get(i), (63 + i) % 2 == 0);
        }
        assert!(bm.slice(95, 10).is_err());
    }
}
