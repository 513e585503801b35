//! Canonical Huffman coding over a byte-ish alphabet (up to 320 symbols so
//! LZ length/distance codes fit alongside literals).
//!
//! The encoder builds optimal code lengths (capped at [`MAX_BITS`]) from
//! symbol frequencies, transmits only the length table (RLE-compressed),
//! and both sides derive the same canonical codes — the classic DEFLATE
//! construction.
//!
//! Canonical codes are MSB-first numbers while the bit stream is LSB-first,
//! so every code goes onto the wire bit-reversed. [`CodeTable`] stores the
//! codes already reversed, which serves both directions: the encoder writes
//! them as they are, and the [`Decoder`] uses them as indices into a lookup
//! table keyed by the next [`PRIMARY_BITS`] stream bits, resolving a symbol
//! with one load instead of one test per code bit.

use crate::bitio::{BitReader, BitWriter};
use crate::{CodecError, Result};

/// Maximum code length; 15 matches DEFLATE and keeps the decode table small.
pub const MAX_BITS: u8 = 15;

/// Stream bits that index the [`Decoder`]'s primary table: 1024 four-byte
/// entries stay in L1 next to the output, and a code longer than this
/// belongs to a symbol seen about once in a thousand or less.
pub const PRIMARY_BITS: u32 = 10;

/// A canonical Huffman code table.
#[derive(Debug, Clone)]
pub struct CodeTable {
    /// Code length per symbol (0 = symbol absent).
    pub lengths: Vec<u8>,
    /// Canonical code per symbol, bit-reversed within its length: the
    /// order the LSB-first stream carries it in.
    codes: Vec<u32>,
}

/// Build optimal (length-capped) code lengths for `freqs` using the
/// package-merge-free heuristic: standard Huffman then length capping with
/// Kraft repair. Exact optimality under a cap is not required for a codec —
/// validity (Kraft equality) is.
pub fn build_lengths(freqs: &[u64]) -> Vec<u8> {
    let n = freqs.len();
    let mut lengths = vec![0u8; n];
    let present: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Standard Huffman via a simple two-queue-ish heap.
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = std::collections::BinaryHeap::new();
    // parent[] over a forest: leaves are 0..n, internal nodes follow.
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    for &i in &present {
        heap.push(Node {
            weight: freqs[i],
            id: i,
        });
    }
    let mut next_id = n;
    while let Some(a) = heap.pop() {
        let Some(b) = heap.pop() else {
            break; // `a` was the root
        };
        parent.push(usize::MAX);
        if a.id >= parent.len() || b.id >= parent.len() {
            unreachable!("forest ids are dense");
        }
        parent[a.id] = next_id;
        parent[b.id] = next_id;
        heap.push(Node {
            weight: a.weight + b.weight,
            id: next_id,
        });
        next_id += 1;
    }

    // Depth of each leaf.
    for &i in &present {
        let mut d = 0u8;
        let mut cur = i;
        while parent[cur] != usize::MAX {
            cur = parent[cur];
            d += 1;
        }
        lengths[i] = d.max(1);
    }

    // Cap at MAX_BITS and repair the Kraft sum.
    let mut overflow = false;
    for &i in &present {
        if lengths[i] > MAX_BITS {
            lengths[i] = MAX_BITS;
            overflow = true;
        }
    }
    if overflow {
        // Kraft: sum 2^-len must be <= 1. Increase lengths of the most
        // frequent short codes until it holds, then tighten.
        let kraft = |lengths: &[u8]| -> i64 {
            let unit = 1i64 << MAX_BITS;
            present.iter().map(|&i| unit >> lengths[i]).sum::<i64>()
        };
        let unit = 1i64 << MAX_BITS;
        let mut order: Vec<usize> = present.clone();
        order.sort_by_key(|&i| freqs[i]); // least frequent first
        let mut k = kraft(&lengths);
        'repair: while k > unit {
            for &i in &order {
                if lengths[i] < MAX_BITS {
                    lengths[i] += 1;
                    k = kraft(&lengths);
                    if k <= unit {
                        break 'repair;
                    }
                }
            }
        }
    }
    lengths
}

impl CodeTable {
    /// Derive canonical codes from lengths.
    pub fn from_lengths(lengths: Vec<u8>) -> Result<CodeTable> {
        let mut bl_count = [0u32; (MAX_BITS + 1) as usize];
        for &l in &lengths {
            if l > MAX_BITS {
                return Err(CodecError(format!("code length {l} exceeds cap")));
            }
            bl_count[l as usize] += 1;
        }
        bl_count[0] = 0;
        let mut next_code = [0u32; (MAX_BITS + 2) as usize];
        let mut code = 0u32;
        for bits in 1..=MAX_BITS as usize {
            code = (code + bl_count[bits - 1]) << 1;
            next_code[bits] = code;
        }
        let mut codes = vec![0u32; lengths.len()];
        for (sym, &len) in lengths.iter().enumerate() {
            if len > 0 {
                let code = next_code[len as usize];
                codes[sym] = code.reverse_bits() >> (32 - u32::from(len));
                next_code[len as usize] += 1;
                if next_code[len as usize] > (1u32 << len) {
                    return Err(CodecError("over-subscribed Huffman code".into()));
                }
            }
        }
        Ok(CodeTable { lengths, codes })
    }

    /// Build from frequencies.
    pub fn from_freqs(freqs: &[u64]) -> Result<CodeTable> {
        CodeTable::from_lengths(build_lengths(freqs))
    }

    /// Encode one symbol into `w`.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, sym: usize) -> Result<()> {
        let len = self.lengths[sym];
        if len == 0 {
            return Err(CodecError(format!("symbol {sym} has no code")));
        }
        w.write_bits(self.codes[sym], len);
        Ok(())
    }

    /// Serialize the length table: u16 symbol count then RLE of lengths
    /// (byte len, byte run).
    pub fn write_table(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.lengths.len() as u16).to_le_bytes());
        let mut i = 0;
        while i < self.lengths.len() {
            let v = self.lengths[i];
            let mut run = 1usize;
            while i + run < self.lengths.len() && self.lengths[i + run] == v && run < 255 {
                run += 1;
            }
            out.push(v);
            out.push(run as u8);
            i += run;
        }
    }

    /// Deserialize a table written by [`CodeTable::write_table`]; returns
    /// the table and the number of bytes consumed.
    pub fn read_table(bytes: &[u8]) -> Result<(CodeTable, usize)> {
        if bytes.len() < 2 {
            return Err(CodecError("truncated Huffman table".into()));
        }
        let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let mut lengths = Vec::with_capacity(n);
        let mut pos = 2;
        while lengths.len() < n {
            if pos + 2 > bytes.len() {
                return Err(CodecError("truncated Huffman RLE".into()));
            }
            let v = bytes[pos];
            let run = bytes[pos + 1] as usize;
            if run == 0 || lengths.len() + run > n {
                return Err(CodecError("bad Huffman RLE run".into()));
            }
            lengths.extend(std::iter::repeat_n(v, run));
            pos += 2;
        }
        Ok((CodeTable::from_lengths(lengths)?, pos))
    }
}

/// A decoder for one canonical code table.
///
/// A symbol whose code has at most [`PRIMARY_BITS`] bits is resolved by one
/// lookup: the next `PRIMARY_BITS` stream bits index `primary`, and because
/// the stream carries codes bit-reversed, a code of length `l` owns every
/// index whose low `l` bits equal its reversed code — the entry is
/// replicated over the `PRIMARY_BITS - l` don't-care high bits. Longer
/// codes (rare by construction) continue the canonical
/// `first_code`/`count` walk over the peeked bits from length
/// `PRIMARY_BITS + 1`. Everything is built once per table, in one pass over
/// the lengths.
#[derive(Debug)]
pub struct Decoder {
    /// `symbol << 4 | length`, or 0 where no code of ≤ `PRIMARY_BITS` bits
    /// matches (a length is never 0, so 0 is free to mean "none"). A fixed
    /// size, so a masked index needs no bounds check.
    primary: Box<[u32; 1 << PRIMARY_BITS]>,
    /// Per code length: the first canonical code, how many codes there
    /// are, and where their symbols start in `symbols`.
    first_code: [u32; MAX_BITS as usize + 1],
    count: [u32; MAX_BITS as usize + 1],
    first_index: [u32; MAX_BITS as usize + 1],
    /// Symbols in canonical order: by (length, symbol).
    symbols: Vec<u16>,
}

impl Decoder {
    /// Build a decoder from a code table.
    pub fn new(table: &CodeTable) -> Decoder {
        let max = MAX_BITS as usize;
        let mut count = [0u32; MAX_BITS as usize + 1];
        for &l in &table.lengths {
            count[l as usize] += 1;
        }
        count[0] = 0;
        let mut first_code = [0u32; MAX_BITS as usize + 1];
        let mut first_index = [0u32; MAX_BITS as usize + 1];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=max {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code += count[len];
            index += count[len];
        }
        let mut primary = Box::new([0u32; 1 << PRIMARY_BITS]);
        let mut symbols = vec![0u16; index as usize];
        let mut next_index = first_index;
        for (sym, (&len, &reversed)) in table.lengths.iter().zip(&table.codes).enumerate() {
            if len == 0 {
                continue;
            }
            symbols[next_index[len as usize] as usize] = sym as u16;
            next_index[len as usize] += 1;
            if u32::from(len) <= PRIMARY_BITS {
                let entry = (sym as u32) << 4 | u32::from(len);
                for slot in primary[reversed as usize..].iter_mut().step_by(1 << len) {
                    *slot = entry;
                }
            }
        }
        Decoder {
            primary,
            first_code,
            count,
            first_index,
            symbols,
        }
    }

    /// Decode one symbol from `r`, refilling it when fewer than
    /// [`MAX_BITS`] bits are buffered.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        if r.buffered() < u32::from(MAX_BITS) {
            r.refill();
        }
        let entry = self.entry(r.window());
        let entry = if entry == 0 {
            self.decode_long(r.peek(u32::from(MAX_BITS)))?
        } else {
            entry
        };
        r.consume(entry & 15)?;
        Ok((entry >> 4) as u16)
    }

    /// The primary entry for the code at the bottom of `bits`:
    /// `symbol << 4 | length`, or 0 when no code of at most
    /// [`PRIMARY_BITS`] bits matches there.
    #[inline]
    pub(crate) fn entry(&self, bits: u64) -> u32 {
        self.primary[(bits & ((1 << PRIMARY_BITS) - 1)) as usize]
    }

    /// The canonical walk over the next [`MAX_BITS`] stream bits, for a
    /// pattern no primary entry claims: a code longer than
    /// [`PRIMARY_BITS`] (answered in the primary table's entry format), or
    /// no code at all.
    #[cold]
    fn decode_long(&self, bits: u32) -> Result<u32> {
        // The first PRIMARY_BITS stream bits, as the MSB-first number the
        // canonical walk has accumulated by then.
        let mut code = (bits << (32 - PRIMARY_BITS)).reverse_bits();
        for len in PRIMARY_BITS as usize + 1..=MAX_BITS as usize {
            code = code << 1 | (bits >> (len - 1) & 1);
            let offset = code.wrapping_sub(self.first_code[len]);
            if offset < self.count[len] {
                let sym = self.symbols[(self.first_index[len] + offset) as usize];
                return Ok(u32::from(sym) << 4 | len as u32);
            }
        }
        Err(CodecError("invalid Huffman code in stream".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_symbols(symbols: &[u16], alphabet: usize) {
        let mut freqs = vec![0u64; alphabet];
        for &s in symbols {
            freqs[s as usize] += 1;
        }
        let table = CodeTable::from_freqs(&freqs).unwrap();
        let mut w = BitWriter::new();
        for &s in symbols {
            table.encode(&mut w, s as usize).unwrap();
        }
        let bytes = w.finish();
        let dec = Decoder::new(&table);
        let mut r = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn roundtrip_text() {
        let data = b"abracadabra abracadabra abracadabra!";
        let symbols: Vec<u16> = data.iter().map(|&b| b as u16).collect();
        roundtrip_symbols(&symbols, 256);
    }

    #[test]
    fn single_symbol_alphabet() {
        let symbols = vec![42u16; 100];
        roundtrip_symbols(&symbols, 256);
    }

    #[test]
    fn two_symbols() {
        let symbols: Vec<u16> = (0..50).map(|i| if i % 3 == 0 { 7 } else { 8 }).collect();
        roundtrip_symbols(&symbols, 16);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95% one symbol -> far fewer bits than 8/symbol.
        let symbols: Vec<u16> = (0..10_000)
            .map(|i| if i % 20 == 0 { (i % 256) as u16 } else { 65 })
            .collect();
        let mut freqs = vec![0u64; 256];
        for &s in &symbols {
            freqs[s as usize] += 1;
        }
        let table = CodeTable::from_freqs(&freqs).unwrap();
        let mut w = BitWriter::new();
        for &s in &symbols {
            table.encode(&mut w, s as usize).unwrap();
        }
        let packed = w.finish().len();
        assert!(packed < 10_000 / 3, "got {packed}");
        roundtrip_symbols(&symbols, 256);
    }

    #[test]
    fn extended_alphabet() {
        let symbols: Vec<u16> = (0..319).chain(std::iter::repeat_n(300, 50)).collect();
        roundtrip_symbols(&symbols, 320);
    }

    #[test]
    fn kraft_holds_under_cap() {
        // Fibonacci-ish frequencies force deep trees; the cap must repair.
        let mut freqs = vec![0u64; 64];
        let mut a = 1u64;
        let mut b = 1u64;
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = build_lengths(&freqs);
        let unit = 1u64 << MAX_BITS;
        let sum: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
        assert!(sum <= unit, "Kraft violated: {sum} > {unit}");
        assert!(lengths.iter().all(|&l| l <= MAX_BITS));
        // And it still decodes.
        let table = CodeTable::from_lengths(lengths).unwrap();
        let dec = Decoder::new(&table);
        let mut w = BitWriter::new();
        table.encode(&mut w, 63).unwrap();
        table.encode(&mut w, 0).unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 63);
        assert_eq!(dec.decode(&mut r).unwrap(), 0);
    }

    #[test]
    fn table_serialization_roundtrip() {
        let mut freqs = vec![0u64; 288];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = ((i * 7) % 13) as u64;
        }
        let table = CodeTable::from_freqs(&freqs).unwrap();
        let mut out = Vec::new();
        table.write_table(&mut out);
        let (back, consumed) = CodeTable::read_table(&out).unwrap();
        assert_eq!(consumed, out.len());
        assert_eq!(back.lengths, table.lengths);
        assert_eq!(back.codes, table.codes);
    }

    #[test]
    fn corrupt_tables_rejected() {
        assert!(CodeTable::read_table(&[]).is_err());
        assert!(CodeTable::read_table(&[5, 0]).is_err());
        // Over-subscribed: three symbols of length 1.
        assert!(CodeTable::from_lengths(vec![1, 1, 1]).is_err());
    }
}
