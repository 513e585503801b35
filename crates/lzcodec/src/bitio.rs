//! Bit-granular I/O used by the Huffman entropy stage.
//!
//! Bits are written LSB-first into bytes, matching DEFLATE's convention.

use crate::{CodecError, Result};

/// Writes bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bitpos: u8,
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
        let mut bits = bits as u64;
        let mut count = count;
        while count > 0 {
            if self.bitpos == 0 {
                self.bytes.push(0);
            }
            let space = 8 - self.bitpos;
            let take = count.min(space);
            let mask = (1u64 << take) - 1;
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= ((bits & mask) as u8) << self.bitpos;
            bits >>= take;
            count -= take;
            self.bitpos = (self.bitpos + take) % 8;
        }
    }

    /// Finish and return the bytes (final partial byte zero-padded).
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    bitpos: u8,
}

impl<'a> BitReader<'a> {
    /// Reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            bitpos: 0,
        }
    }

    /// Read `count` bits (count ≤ 32), LSB-first.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Result<u32> {
        debug_assert!(count <= 32);
        let mut out: u64 = 0;
        let mut got: u8 = 0;
        while got < count {
            if self.pos >= self.bytes.len() {
                return Err(CodecError("bit stream exhausted".into()));
            }
            let avail = 8 - self.bitpos;
            let take = (count - got).min(avail);
            let chunk = (self.bytes[self.pos] >> self.bitpos) & (((1u16 << take) - 1) as u8);
            out |= (chunk as u64) << got;
            got += take;
            self.bitpos += take;
            if self.bitpos == 8 {
                self.bitpos = 0;
                self.pos += 1;
            }
        }
        Ok(out as u32)
    }
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
}
