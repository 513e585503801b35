//! Bit-granular I/O used by the Huffman entropy stage.
//!
//! Bits are written LSB-first into bytes, matching DEFLATE's convention.
//! Both sides work a word at a time: [`BitWriter`] collects bits in a
//! `u64` and flushes four whole bytes at once; [`BitReader`] keeps the
//! unread bits in a `u64` accumulator that [`BitReader::refill`] tops up
//! with one 8-byte little-endian load, so a decoder looks at the next bits
//! with a mask ([`BitReader::peek`]) and drops them with a shift
//! ([`BitReader::consume`]) instead of re-deriving a byte position and a
//! bit mask for every bit.

use crate::{CodecError, Result};

/// Writes bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet flushed, LSB-first; fewer than 32 between calls.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the low `count` bits of `bits` (count ≤ 32).
    #[inline]
    pub fn write_bits(&mut self, bits: u32, count: u8) {
        debug_assert!(count <= 32);
        let low = u64::from(bits) & ((1u64 << count) - 1);
        self.acc |= low << self.nbits;
        self.nbits += u32::from(count);
        if self.nbits >= 32 {
            self.bytes
                .extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Finish and return the bytes (final partial byte zero-padded).
    pub fn finish(mut self) -> Vec<u8> {
        let tail = self.nbits.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.bytes
    }
}

/// Reads bits LSB-first from a byte slice through a 64-bit accumulator.
///
/// The accumulator's low `nbits` bits are the next unread stream bits.
/// Bits above them are either zero or the stream bits that belong there
/// (`refill` ORs whole words in, so it may write a byte's bits before it
/// counts them); past the last byte they are always zero, which is what
/// makes [`BitReader::peek`] zero-padded.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into the accumulator.
    pos: usize,
    acc: u64,
    /// Stream bits the accumulator holds; never counts padding.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Bits a [`BitReader::refill`] guarantees, unless the stream has fewer
    /// left (then it buffers all of them).
    pub const REFILL_BITS: u32 = 56;

    /// Reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Top the accumulator up to at least [`BitReader::REFILL_BITS`] bits,
    /// or to every bit the stream has left: one 8-byte load while eight
    /// input bytes remain, byte by byte for the tail.
    #[inline]
    pub fn refill(&mut self) {
        if let Some(word) = self.bytes[self.pos..].first_chunk::<8>() {
            // Only the bytes that fit whole are counted; the rest of the
            // word lands above `nbits`, where the next refill ORs the very
            // same bits again.
            self.acc |= u64::from_le_bytes(*word) << self.nbits;
            self.pos += ((63 - self.nbits) >> 3) as usize;
            self.nbits |= 56;
        } else {
            while self.nbits < Self::REFILL_BITS {
                let Some(&b) = self.bytes.get(self.pos) else {
                    break;
                };
                self.acc |= u64::from(b) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Stream bits buffered right now (what [`BitReader::consume`] can take
    /// without a refill).
    #[inline]
    pub fn buffered(&self) -> u32 {
        self.nbits
    }

    /// The next `n` bits (n ≤ 32) without consuming them, zero-padded past
    /// the end of the stream. Only meaningful after a
    /// [`BitReader::refill`] that left at least `n` bits buffered or
    /// reached the end of the stream.
    #[inline]
    pub fn peek(&self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        (self.acc & ((1u64 << n) - 1)) as u32
    }

    /// Drop `n` buffered bits. This is the only place exhaustion is
    /// decided: padding is never counted in the accumulator, so asking for
    /// more than is buffered after a refill means the stream ended.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        if n > self.nbits {
            return Err(exhausted());
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Stream bytes not loaded into the accumulator yet. At eight or more,
    /// a [`BitReader::refill`] leaves at least
    /// [`BitReader::REFILL_BITS`] real stream bits buffered.
    #[inline]
    pub(crate) fn unloaded(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The accumulator: its low [`BitReader::buffered`] bits are the next
    /// stream bits, for a caller that resolves several codes from one
    /// refill.
    #[inline]
    pub(crate) fn window(&self) -> u64 {
        self.acc
    }

    /// Drop `n` bits the caller knows are buffered (a checked
    /// [`BitReader::consume`] without the check).
    #[inline]
    pub(crate) fn skip(&mut self, n: u32) {
        debug_assert!(n <= self.nbits, "skip {n} of {} buffered bits", self.nbits);
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Read `count` bits (count ≤ 32), LSB-first. The zero padding of the
    /// final byte is readable; one bit past the final byte is an error.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Result<u32> {
        let n = u32::from(count);
        if self.nbits < n {
            self.refill();
        }
        let v = self.peek(n);
        self.consume(n)?;
        Ok(v)
    }
}

#[cold]
fn exhausted() -> CodecError {
    CodecError("bit stream exhausted".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::new();
        let values: Vec<(u32, u8)> = vec![
            (1, 1),
            (0, 1),
            (0b101, 3),
            (0xffff_ffff, 32),
            (0, 32),
            (0x1234, 16),
            (0b1, 1),
            (0x7f, 7),
        ];
        for &(v, c) in &values {
            w.write_bits(v, c);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, c) in &values {
            assert_eq!(r.read_bits(c).unwrap(), v, "width {c}");
        }
    }

    #[test]
    fn exhaustion_is_error() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        // Padding bits of the final byte are readable as zeros...
        assert_eq!(r.read_bits(6).unwrap(), 0);
        // ...but past the final byte is an error.
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // bit 0 of byte 0
        w.write_bits(1, 1); // bit 1
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0011]);
    }

    #[test]
    fn crossing_byte_boundaries() {
        let mut w = BitWriter::new();
        w.write_bits(0b111111, 6);
        w.write_bits(0b10_1010_1010, 10); // spans into byte 2
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(6).unwrap(), 0b111111);
        assert_eq!(r.read_bits(10).unwrap(), 0b10_1010_1010);
    }

    #[test]
    fn high_bits_of_the_value_are_masked_off() {
        let mut w = BitWriter::new();
        w.write_bits(0xffff_ffff, 3);
        w.write_bits(0, 5);
        assert_eq!(w.finish(), vec![0b0000_0111]);
    }

    /// Bit `i` of the stream, as the layout defines it.
    fn stream_bit(bytes: &[u8], i: usize) -> u32 {
        u32::from(bytes[i / 8] >> (i % 8) & 1)
    }

    #[test]
    fn refill_with_zero_to_nine_trailing_bytes() {
        // Every length from one word short to one byte over a word, read
        // in widths that leave the accumulator at every fill level.
        let pattern: Vec<u8> = (0..17u8)
            .map(|i| i.wrapping_mul(0x9d).wrapping_add(0x3b))
            .collect();
        for len in 0..=17 {
            let bytes = &pattern[..len];
            for width in [1u8, 3, 7, 8, 13, 32] {
                let mut r = BitReader::new(bytes);
                let mut at = 0usize;
                while at + usize::from(width) <= len * 8 {
                    let want = (0..usize::from(width))
                        .fold(0u32, |v, k| v | stream_bit(bytes, at + k) << k);
                    assert_eq!(r.read_bits(width).unwrap(), want, "len {len} at bit {at}");
                    at += usize::from(width);
                }
                // What is left reads bit by bit, then the stream is over.
                while at < len * 8 {
                    assert_eq!(r.read_bits(1).unwrap(), stream_bit(bytes, at));
                    at += 1;
                }
                assert!(r.read_bits(1).is_err(), "len {len} width {width}");
            }
        }
    }

    #[test]
    fn refill_buffers_56_bits_or_the_whole_tail() {
        for len in 0..=9usize {
            let bytes = vec![0xa5u8; len];
            let mut r = BitReader::new(&bytes);
            r.refill();
            if len >= 8 {
                assert!(r.buffered() >= BitReader::REFILL_BITS, "len {len}");
            } else {
                assert_eq!(r.buffered(), len as u32 * 8, "len {len}");
            }
            // Zero-padded past the end.
            if len < 4 {
                assert_eq!(r.peek(32) >> (len * 8), 0, "len {len}");
            }
        }
    }

    #[test]
    fn read_32_bits_across_the_word_boundary() {
        let bytes: Vec<u8> = (1..=16u8).collect();
        let mut r = BitReader::new(&bytes);
        // 44 bits in, the next 32 straddle bytes 5..=9, i.e. the end of
        // the first 8-byte load.
        assert_eq!(r.read_bits(32).unwrap(), 0x0403_0201);
        assert_eq!(r.read_bits(12).unwrap(), 0x605);
        let want = (0..32).fold(0u32, |v, k| v | stream_bit(&bytes, 44 + k) << k);
        assert_eq!(r.read_bits(32).unwrap(), want);
        assert_eq!(r.read_bits(20).unwrap(), 0x0c0b0a >> 4);
        assert_eq!(r.read_bits(32).unwrap(), 0x100f_0e0d);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn consume_past_the_padding_is_the_error() {
        let mut r = BitReader::new(&[0xff]);
        r.refill();
        assert_eq!(r.peek(15), 0xff, "padding reads as zeros");
        assert!(r.consume(9).is_err());
        assert!(r.consume(8).is_ok());
        assert!(r.consume(1).is_err());
    }
}
