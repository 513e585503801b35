//! The Huffman-entropy-coded codecs (`Gz` and `Zst` flavors).
//!
//! Token stream → three channels:
//!
//! 1. a Huffman-coded symbol stream over a 256+32+32 alphabet
//!    (literal bytes, length buckets, distance buckets),
//! 2. raw extra bits for lengths/distances interleaved in the same
//!    bit stream (DEFLATE-style),
//! 3. an end-of-block symbol.
//!
//! Frame: `[varint raw_len][huffman table][bit stream]`.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{CodeTable, Decoder, PRIMARY_BITS};
use crate::lz77::{self, LzParams, Token, MIN_MATCH};
use crate::{get_varint, put_varint, CodecError, Result};

pub(crate) const GZ_PARAMS: LzParams = lz77::presets::BALANCED;
pub(crate) const ZST_PARAMS: LzParams = lz77::presets::STRONG;

// Alphabet layout.
const LIT_BASE: usize = 0; // 0..=255 literal bytes
const EOB: usize = 256; // end of block
const LEN_BASE: usize = 257; // 257..=288: 32 length buckets
const DIST_BASE: usize = 289; // 289..=320: 32 distance buckets
const ALPHABET: usize = 321;

/// Bucketize `v` (>= 1) as (bucket, extra_bits, extra_value): bucket k covers
/// [2^k, 2^(k+1)) with k extra bits.
#[inline]
fn bucketize(v: u32) -> (u32, u8, u32) {
    debug_assert!(v >= 1);
    let k = 31 - v.leading_zeros();
    (k, k as u8, v - (1 << k))
}

#[inline]
fn unbucketize(bucket: u32, extra: u32) -> u32 {
    (1u32 << bucket) + extra
}

/// Compress `data` with `params` for the LZ stage.
pub(crate) fn compress(data: &[u8], params: LzParams) -> Vec<u8> {
    encode_frame(data, params).expect("the code table covers every symbol the frame uses")
}

/// [`compress`] with its impossible failures still typed: the table is
/// built from the frequencies of exactly the symbols pass 2 encodes.
fn encode_frame(data: &[u8], params: LzParams) -> Result<Vec<u8>> {
    let tokens = lz77::tokenize(data, params);

    // Pass 1: frequencies.
    let mut freqs = vec![0u64; ALPHABET];
    for t in &tokens {
        match *t {
            Token::Literal(b) => freqs[LIT_BASE + b as usize] += 1,
            Token::Match { len, dist } => {
                let (lb, _, _) = bucketize(len - MIN_MATCH as u32 + 1);
                let (db, _, _) = bucketize(dist);
                freqs[LEN_BASE + lb as usize] += 1;
                freqs[DIST_BASE + db as usize] += 1;
            }
        }
    }
    freqs[EOB] += 1;

    let table = CodeTable::from_freqs(&freqs)?;
    let mut out = Vec::with_capacity(data.len() / 3 + 64);
    put_varint(&mut out, data.len() as u64);
    table.write_table(&mut out);

    // Pass 2: encode.
    let mut w = BitWriter::new();
    for t in &tokens {
        match *t {
            Token::Literal(b) => table.encode(&mut w, LIT_BASE + b as usize)?,
            Token::Match { len, dist } => {
                let (lb, lx, lv) = bucketize(len - MIN_MATCH as u32 + 1);
                table.encode(&mut w, LEN_BASE + lb as usize)?;
                w.write_bits(lv, lx);
                let (db, dx, dv) = bucketize(dist);
                table.encode(&mut w, DIST_BASE + db as usize)?;
                w.write_bits(dv, dx);
            }
        }
    }
    table.encode(&mut w, EOB)?;
    out.extend_from_slice(&w.finish());
    Ok(out)
}

/// Literals one refill can resolve: each code is at most [`PRIMARY_BITS`]
/// bits, and a refill buffers at least [`BitReader::REFILL_BITS`].
const LITERAL_BURST: usize = (BitReader::REFILL_BITS / PRIMARY_BITS) as usize;

/// Decode one whole token from one refill, when it is the common case:
/// up to [`LITERAL_BURST`] literals, or a complete match whose two codes
/// are primary-table codes and whose codes and extra bits all lie in the
/// first [`BitReader::REFILL_BITS`] bits. It runs only while eight stream
/// bytes are unloaded and 16 declared bytes are unwritten, so no bit it
/// takes can be past the stream's end and no literal it writes can
/// overrun the declared length. A match's distance and length are checked
/// before anything is consumed.
///
/// Returns `false`, having consumed and written nothing, for anything
/// else; the per-symbol path then decodes that token the way it always
/// has, and reports any error in its words.
#[inline]
fn decode_token(dec: &Decoder, r: &mut BitReader<'_>, out: &mut Vec<u8>, expected: usize) -> bool {
    if r.unloaded() < 8 || expected - out.len() < 16 {
        return false;
    }
    r.refill();
    let bits = r.window();
    let entry = dec.entry(bits);
    if entry == 0 {
        return false;
    }
    let sym = (entry >> 4) as usize;
    if sym < EOB {
        let mut entry = entry;
        for _ in 1..LITERAL_BURST {
            out.push((entry >> 4) as u8);
            r.skip(entry & 15);
            entry = dec.entry(r.window());
            if entry == 0 || (entry >> 4) as usize >= EOB {
                return true;
            }
        }
        out.push((entry >> 4) as u8);
        r.skip(entry & 15);
        return true;
    }
    if !(LEN_BASE..DIST_BASE).contains(&sym) {
        return false;
    }
    // Bit offsets into `bits`: a code is at most PRIMARY_BITS and an extra
    // field at most 31 bits, so every shift below stays under 64.
    let lb = (sym - LEN_BASE) as u32;
    let at = entry & 15;
    let lv = (bits >> at) as u32 & ((1u64 << lb) - 1) as u32;
    let at = at + lb;
    let dentry = dec.entry(bits >> at);
    let dsym = (dentry >> 4) as usize;
    if dentry == 0 || !(DIST_BASE..ALPHABET).contains(&dsym) {
        return false;
    }
    let db = (dsym - DIST_BASE) as u32;
    let at = at + (dentry & 15);
    if at + db > BitReader::REFILL_BITS {
        return false;
    }
    let dv = (bits >> at) as u32 & ((1u64 << db) - 1) as u32;
    let len = (unbucketize(lb, lv) - 1) as usize + MIN_MATCH;
    // At least 1 by construction, so only the upper end is checked.
    let dist = unbucketize(db, dv) as usize;
    if dist > out.len() || len > expected - out.len() {
        return false;
    }
    r.skip(at + db);
    lz77::copy_match(out, dist, len);
    true
}

/// Decompress a frame produced by [`compress`] (either parameter set —
/// the frame is self-describing).
pub(crate) fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let expected = get_varint(data, &mut pos)? as usize;
    let mut out = crate::reserve_output(expected)?;
    let (table, consumed) = CodeTable::read_table(&data[pos..])?;
    pos += consumed;
    let dec = Decoder::new(&table);
    let mut r = BitReader::new(&data[pos..]);
    loop {
        if decode_token(&dec, &mut r, &mut out, expected) {
            continue;
        }
        // One symbol at a time, every check in place: the stream's tail,
        // long codes, wide extra bits, and every error.
        let sym = dec.decode(&mut r)? as usize;
        if sym < EOB {
            if out.len() == expected {
                return Err(CodecError("output overruns declared length".into()));
            }
            out.push(sym as u8);
            continue;
        }
        if sym == EOB {
            break;
        }
        if !(LEN_BASE..DIST_BASE).contains(&sym) {
            return Err(CodecError(format!("unexpected symbol {sym}")));
        }
        // A bucket number is also its count of extra bits.
        let lb = (sym - LEN_BASE) as u32;
        let lv = r.read_bits(lb as u8)?;
        let len = (unbucketize(lb, lv) - 1) as usize + MIN_MATCH;
        let dsym = dec.decode(&mut r)? as usize;
        if !(DIST_BASE..ALPHABET).contains(&dsym) {
            return Err(CodecError(format!("expected distance symbol, got {dsym}")));
        }
        let db = (dsym - DIST_BASE) as u32;
        let dv = r.read_bits(db as u8)?;
        let dist = unbucketize(db, dv) as usize;
        if dist == 0 || dist > out.len() {
            return Err(CodecError(format!(
                "distance {dist} out of range at {}",
                out.len()
            )));
        }
        if len > expected - out.len() {
            return Err(CodecError("match overruns declared length".into()));
        }
        lz77::copy_match(&mut out, dist, len);
    }
    if out.len() != expected {
        return Err(CodecError(format!(
            "decoded {} bytes, expected {expected}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketize_roundtrip() {
        for v in [1u32, 2, 3, 4, 7, 8, 255, 256, 1 << 20, u32::MAX / 2] {
            let (b, x, e) = bucketize(v);
            assert_eq!(unbucketize(b, e), v);
            assert!(x < 32);
            assert!((b as usize) < 32);
        }
    }

    #[test]
    fn roundtrip_both_params() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            b"z".to_vec(),
            b"mississippi mississippi mississippi".to_vec(),
            vec![42u8; 50_000],
            (0..=255u8).cycle().take(10_000).collect(),
        ];
        for params in [GZ_PARAMS, ZST_PARAMS] {
            for data in &cases {
                let c = compress(data, params);
                assert_eq!(&decompress(&c).unwrap(), data);
            }
        }
    }

    #[test]
    fn entropy_beats_byte_aligned_on_skewed_text() {
        // Mostly-'a' text: Huffman gets literals below 8 bits.
        let data: Vec<u8> = (0..100_000u32)
            .map(|i| if i % 19 == 0 { b'b' } else { b'a' })
            .collect();
        let gz = compress(&data, GZ_PARAMS);
        let snap = crate::snap::compress(&data);
        assert!(
            gz.len() < snap.len(),
            "gz {} vs snap {}",
            gz.len(),
            snap.len()
        );
    }

    #[test]
    fn truncation_and_corruption_rejected() {
        // The last byte of a frame holds at least one bit of the
        // end-of-block code, and no shorter code is a prefix of it, so
        // every strict prefix of a valid frame fails to decode.
        let data = b"a man a plan a canal panama, a man a plan".to_vec();
        for params in [GZ_PARAMS, ZST_PARAMS] {
            let c = compress(&data, params);
            assert_eq!(decompress(&c).unwrap(), data);
            for cut in 0..c.len() {
                assert!(decompress(&c[..cut]).is_err(), "prefix of {cut} bytes");
            }
        }
    }

    /// A hand-built frame declaring `declared` bytes over an alphabet of
    /// `alphabet` symbols; the stream is `ops`, each a symbol followed by
    /// `(value, count)` raw extra bits.
    fn frame(declared: u64, alphabet: usize, ops: &[(usize, u32, u8)]) -> Vec<u8> {
        let mut freqs = vec![0u64; alphabet];
        for &(sym, _, _) in ops {
            freqs[sym] += 1;
        }
        let table = CodeTable::from_freqs(&freqs).unwrap();
        let mut out = Vec::new();
        put_varint(&mut out, declared);
        table.write_table(&mut out);
        let mut w = BitWriter::new();
        for &(sym, extra, count) in ops {
            table.encode(&mut w, sym).unwrap();
            w.write_bits(extra, count);
        }
        out.extend_from_slice(&w.finish());
        out
    }

    fn lit(b: u8) -> (usize, u32, u8) {
        (LIT_BASE + b as usize, 0, 0)
    }

    const END: (usize, u32, u8) = (EOB, 0, 0);

    /// Length symbol then distance symbol for a match of `len` from `dist` back.
    fn copy(len: u32, dist: u32) -> [(usize, u32, u8); 2] {
        let (lb, lx, lv) = bucketize(len - MIN_MATCH as u32 + 1);
        let (db, dx, dv) = bucketize(dist);
        [
            (LEN_BASE + lb as usize, lv, lx),
            (DIST_BASE + db as usize, dv, dx),
        ]
    }

    fn error_of(frame: &[u8]) -> String {
        decompress(frame).expect_err("frame must be rejected").0
    }

    #[test]
    fn hand_built_frames_decode() {
        let [l, d] = copy(9, 2);
        let f = frame(11, ALPHABET, &[lit(b'a'), lit(b'b'), l, d, END]);
        assert_eq!(decompress(&f).unwrap(), b"abababababa");
    }

    #[test]
    fn every_decoder_check_fires() {
        let [l4, d1] = copy(4, 1);
        let [_, d2] = copy(4, 2);
        // Two one-bit codes fill one stream byte; cut it.
        let mut no_stream = frame(1, ALPHABET, &[lit(b'a'), END]);
        no_stream.pop();
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (
                frame(5, ALPHABET, &[lit(b'a'), l4, d2, END]),
                "distance 2 out of range at 1",
            ),
            (
                frame(5, ALPHABET, &[l4, d1, END]),
                "distance 1 out of range at 0",
            ),
            (
                // The widest distance bucket: 31 extra bits after the code.
                frame(5, ALPHABET, &[lit(b'a'), l4, (DIST_BASE + 31, 77, 31), END]),
                "distance 2147483725 out of range at 1",
            ),
            (
                frame(4, ALPHABET, &[lit(b'a'), l4, d1, END]),
                "match overruns declared length",
            ),
            (
                // The widest length bucket, then a distance that is fine.
                frame(5, ALPHABET, &[lit(b'a'), (LEN_BASE + 31, 77, 31), d1, END]),
                "match overruns declared length",
            ),
            (
                frame(1, ALPHABET, &[lit(b'a'), lit(b'b'), END]),
                "output overruns declared length",
            ),
            (
                frame(5, ALPHABET, &[lit(b'a'), l4, lit(b'b'), END]),
                "expected distance symbol, got 98",
            ),
            (
                frame(5, ALPHABET, &[lit(b'a'), l4, END]),
                "expected distance symbol, got 256",
            ),
            (
                frame(5, ALPHABET + 9, &[lit(b'a'), l4, (ALPHABET + 4, 0, 0), END]),
                "expected distance symbol, got 325",
            ),
            (
                frame(5, ALPHABET, &[lit(b'a'), d1, END]),
                "unexpected symbol 289",
            ),
            (
                frame(1, ALPHABET + 9, &[lit(b'a'), (ALPHABET + 4, 0, 0), END]),
                "unexpected symbol 325",
            ),
            (
                frame(2, ALPHABET, &[lit(b'a'), END]),
                "decoded 1 bytes, expected 2",
            ),
            (no_stream, "bit stream exhausted"),
            (
                frame((1 << 34) + 1, ALPHABET, &[END]),
                "implausible frame length 17179869185",
            ),
        ];
        for (f, want) in cases {
            assert_eq!(error_of(&f), want);
        }
    }

    #[test]
    fn single_symbol_table_rejects_the_unassigned_code() {
        // Only end-of-block has a code (`0`, one bit); `1` is unassigned.
        let mut f = frame(0, ALPHABET, &[END]);
        assert_eq!(decompress(&f).unwrap(), b"");
        *f.last_mut().unwrap() = 1;
        assert_eq!(error_of(&f), "invalid Huffman code in stream");
    }

    #[test]
    fn huge_declared_length_is_an_error_not_an_abort() {
        // The largest length the plausibility check lets through, a valid
        // table and an immediate end-of-block: a few bytes of object must
        // not take the node down on a 16 GiB allocation.
        let f = frame(1 << 34, ALPHABET, &[END]);
        let e = error_of(&f);
        assert!(
            e == "decoded 0 bytes, expected 17179869184" || e.starts_with("cannot reserve"),
            "{e}"
        );
    }

    #[test]
    fn length_past_64_bits_is_an_error() {
        // Bit 1 of the tenth byte would be bit 64 of the length; in front
        // of an empty frame it used to be dropped and the frame decoded.
        let empty = compress(b"", ZST_PARAMS);
        assert_eq!(empty[0], 0);
        let mut f = vec![0x80; 9];
        f.push(0x02);
        f.extend_from_slice(&empty[1..]);
        assert_eq!(error_of(&f), "varint overflow");
        f[9] = 0x00;
        assert_eq!(decompress(&f).unwrap(), b"");
    }

    #[test]
    fn checks_fire_inside_the_token_window() {
        // The same checks as above with enough stream on both sides that
        // the whole-token path sees each bad token first: 400 one-bit
        // codes keep eight stream bytes unloaded behind it.
        let a = [lit(b'a'); 20];
        let z = [lit(b'z'); 400];
        let [l4, d1] = copy(4, 1);
        let [l30, _] = copy(30, 1);
        let [_, d21] = copy(4, 21);
        let cases = [
            (120, [l4, d21], "distance 21 out of range at 20"),
            (40, [l30, d1], "match overruns declared length"),
            (120, [l4, lit(b'b')], "expected distance symbol, got 98"),
            (120, [d1, lit(b'b')], "unexpected symbol 289"),
        ];
        for (declared, bad, want) in cases {
            let ops: Vec<_> = a
                .iter()
                .chain(&bad)
                .chain(&z)
                .chain(&[END])
                .copied()
                .collect();
            assert_eq!(error_of(&frame(declared, ALPHABET, &ops)), want);
        }
    }

    /// A decoder over the code lengths in `codes` (every other symbol has
    /// none), and `ops` written with them.
    fn window_case(codes: &[(usize, u8)], ops: &[(usize, u32, u8)]) -> (Decoder, Vec<u8>) {
        let mut lengths = vec![0u8; ALPHABET];
        for &(sym, len) in codes {
            lengths[sym] = len;
        }
        let table = CodeTable::from_lengths(lengths).unwrap();
        let mut w = BitWriter::new();
        for &(sym, extra, count) in ops {
            table.encode(&mut w, sym).unwrap();
            w.write_bits(extra, count);
        }
        (Decoder::new(&table), w.finish())
    }

    /// Two-bit literals `a` and `b` and end-of-block, three-bit shortest
    /// length and distance buckets: a complete code.
    const SHORT: [(usize, u8); 5] = [
        (LIT_BASE + b'a' as usize, 2),
        (LIT_BASE + b'b' as usize, 2),
        (EOB, 2),
        (LEN_BASE, 3),
        (DIST_BASE, 3),
    ];

    #[test]
    fn token_path_resolves_five_literals_per_refill() {
        let mut ops = [lit(b'a'), lit(b'b')].repeat(4);
        ops.extend([END; 100]);
        let (dec, stream) = window_case(&SHORT, &ops);
        let mut r = BitReader::new(&stream);
        let mut out = Vec::with_capacity(64);
        assert!(decode_token(&dec, &mut r, &mut out, 64));
        assert_eq!(out, b"ababa");
        // The burst stops in front of end-of-block, which it leaves.
        assert!(decode_token(&dec, &mut r, &mut out, 64));
        assert_eq!(out, b"abababab");
        assert!(!decode_token(&dec, &mut r, &mut out, 64));
        assert_eq!(dec.decode(&mut r).unwrap() as usize, EOB);
    }

    #[test]
    fn token_path_needs_16_bytes_of_room_and_8_unloaded_stream_bytes() {
        let mut ops = vec![lit(b'a'); 5];
        ops.extend([END; 40]);
        let (dec, stream) = window_case(&SHORT, &ops);
        let mut out = Vec::with_capacity(16);
        assert!(!decode_token(
            &dec,
            &mut BitReader::new(&stream),
            &mut out,
            15
        ));
        assert!(out.is_empty());
        assert!(decode_token(
            &dec,
            &mut BitReader::new(&stream),
            &mut out,
            16
        ));
        assert_eq!(out, b"aaaaa");
        out.clear();
        assert!(!decode_token(
            &dec,
            &mut BitReader::new(&stream[..7]),
            &mut out,
            16
        ));
        assert!(out.is_empty());
        assert!(decode_token(
            &dec,
            &mut BitReader::new(&stream[..8]),
            &mut out,
            16
        ));
        assert_eq!(out, b"aaaaa");
    }

    #[test]
    fn a_match_ending_at_bit_56_is_one_token_and_at_bit_57_is_not() {
        // Ten-bit codes around 18 or 19 extra bits each: 10+18+10+18 = 56.
        let codes = [
            (EOB, 1),
            (LIT_BASE + b'a' as usize, 2),
            (LEN_BASE + 18, 10),
            (LEN_BASE + 19, 10),
            (DIST_BASE + 18, 10),
        ];
        let history: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        for (lb, fits) in [(18u8, true), (19, false)] {
            let ops = [
                (LEN_BASE + usize::from(lb), 2, lb),
                (DIST_BASE + 18, 7, 18),
                END,
                END,
                END,
                END,
                END,
                END,
                END,
                END,
            ];
            let (dec, stream) = window_case(&codes, &ops);
            let len = (1usize << lb) + 2 - 1 + MIN_MATCH;
            let dist = (1usize << 18) + 7;
            let expected = history.len() + len + 16;
            let mut out = Vec::with_capacity(expected);
            out.extend_from_slice(&history);
            let mut r = BitReader::new(&stream);
            assert_eq!(
                decode_token(&dec, &mut r, &mut out, expected),
                fits,
                "lb {lb}"
            );
            if fits {
                let start = history.len() - dist;
                assert_eq!(&out[history.len()..], &history[start..start + len]);
                assert_eq!(dec.decode(&mut r).unwrap() as usize, EOB);
            } else {
                assert_eq!(out.len(), history.len());
                let sym = dec.decode(&mut r).unwrap() as usize;
                assert_eq!(sym, LEN_BASE + usize::from(lb), "nothing consumed");
            }
        }
    }
}
