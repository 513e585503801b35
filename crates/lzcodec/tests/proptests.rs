//! Property-based round-trip tests: every codec must be lossless on
//! arbitrary byte strings, including highly structured and adversarial
//! inputs.

use lzcodec::bitio::{BitReader, BitWriter};
use lzcodec::huffman::{build_lengths, CodeTable, Decoder, MAX_BITS, PRIMARY_BITS};
use lzcodec::lz77::{copy_match, detokenize, tokenize, Token, MIN_MATCH};
use lzcodec::{compress, decompress, CodecKind};
use proptest::prelude::*;

/// The bit reader the crate had before the accumulator: byte position, bit
/// position, and an exhaustion check for every chunk of every read.
struct ReferenceBits<'a> {
    bytes: &'a [u8],
    pos: usize,
    bitpos: u8,
}

impl ReferenceBits<'_> {
    fn read_bits(&mut self, count: u8) -> Result<u32, String> {
        let mut out: u64 = 0;
        let mut got: u8 = 0;
        while got < count {
            if self.pos >= self.bytes.len() {
                return Err("bit stream exhausted".into());
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

/// The Huffman decoder the crate had before the lookup table: one
/// `read_bits(1)` per code bit against the canonical first-code / count
/// arrays, rebuilt here from nothing but the code lengths.
struct ReferenceDecoder {
    first_code: Vec<u32>,
    first_index: Vec<u32>,
    count: Vec<u32>,
    symbols: Vec<u16>,
}

impl ReferenceDecoder {
    fn new(lengths: &[u8]) -> ReferenceDecoder {
        let max = MAX_BITS as usize;
        let mut count = vec![0u32; max + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut symbols: Vec<u16> = (0..lengths.len() as u16)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        symbols.sort_by_key(|&s| (lengths[s as usize], s));
        let mut first_code = vec![0u32; max + 2];
        let mut first_index = vec![0u32; max + 2];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=max {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code += count[len];
            index += count[len];
        }
        ReferenceDecoder {
            first_code,
            first_index,
            count,
            symbols,
        }
    }

    fn decode(&self, r: &mut ReferenceBits<'_>) -> Result<u16, String> {
        let mut code = 0u32;
        for len in 1..=MAX_BITS as usize {
            code = (code << 1) | r.read_bits(1)?;
            let c = self.count[len];
            if c > 0 {
                let first = self.first_code[len];
                if code < first + c && code >= first {
                    let idx = self.first_index[len] + (code - first);
                    return Ok(self.symbols[idx as usize]);
                }
            }
        }
        Err("invalid Huffman code in stream".into())
    }
}

/// The frame's length header, read as the crate reads it: LEB128, and a
/// value wider than 64 bits is an error.
fn reference_varint(data: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = data.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        let bits = (b & 0x7f) as u64;
        if shift >= 64 || (bits << shift) >> shift != bits {
            return Err("varint overflow".into());
        }
        v |= bits << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// The frame decoder the crate had before this one (Gz and Zst share it),
/// check for check and in the same order, with the bytewise match copy. It
/// differs in one thing only: it does not allocate the declared length up
/// front, so a mutated length cannot exhaust the test's memory.
fn reference_decompress(data: &[u8]) -> Result<Vec<u8>, String> {
    const EOB: usize = 256;
    const LEN_BASE: usize = 257;
    const DIST_BASE: usize = 289;
    const ALPHABET: usize = 321;
    let mut pos = 0usize;
    let expected = reference_varint(data, &mut pos)? as usize;
    if expected > (1 << 34) {
        return Err(format!("implausible frame length {expected}"));
    }
    let (table, consumed) = CodeTable::read_table(&data[pos..]).map_err(|e| e.0)?;
    pos += consumed;
    let dec = ReferenceDecoder::new(&table.lengths);
    let mut r = ReferenceBits {
        bytes: &data[pos..],
        pos: 0,
        bitpos: 0,
    };
    let mut out: Vec<u8> = Vec::new();
    loop {
        let sym = dec.decode(&mut r)? as usize;
        if sym < 256 {
            out.push(sym as u8);
        } else if sym == EOB {
            break;
        } else if (LEN_BASE..DIST_BASE).contains(&sym) {
            let lb = (sym - LEN_BASE) as u32;
            let lv = if lb > 0 { r.read_bits(lb as u8)? } else { 0 };
            let len = ((1u32 << lb) + lv - 1) as usize + MIN_MATCH;
            let dsym = dec.decode(&mut r)? as usize;
            if !(DIST_BASE..ALPHABET).contains(&dsym) {
                return Err(format!("expected distance symbol, got {dsym}"));
            }
            let db = (dsym - DIST_BASE) as u32;
            let dv = if db > 0 { r.read_bits(db as u8)? } else { 0 };
            let dist = ((1u32 << db) + dv) as usize;
            if dist == 0 || dist > out.len() {
                return Err(format!("distance {dist} out of range at {}", out.len()));
            }
            if out.len() + len > expected {
                return Err("match overruns declared length".into());
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        } else {
            return Err(format!("unexpected symbol {sym}"));
        }
        if out.len() > expected {
            return Err("output overruns declared length".into());
        }
    }
    if out.len() != expected {
        return Err(format!("decoded {} bytes, expected {expected}", out.len()));
    }
    Ok(out)
}

/// The crate's frame decoder as it was while it decoded one symbol per
/// step: one `Decoder::decode` per symbol, every check in its place and
/// order, built from the crate's public items. Unlike the crate, it does
/// not reserve the declared length up front.
fn per_symbol_decompress(data: &[u8]) -> Result<Vec<u8>, String> {
    const EOB: usize = 256;
    const LEN_BASE: usize = 257;
    const DIST_BASE: usize = 289;
    const ALPHABET: usize = 321;
    let mut pos = 0usize;
    let expected = reference_varint(data, &mut pos)? as usize;
    if expected > (1 << 34) {
        return Err(format!("implausible frame length {expected}"));
    }
    let (table, consumed) = CodeTable::read_table(&data[pos..]).map_err(|e| e.0)?;
    pos += consumed;
    let dec = Decoder::new(&table);
    let mut r = BitReader::new(&data[pos..]);
    let mut out: Vec<u8> = Vec::new();
    loop {
        let sym = dec.decode(&mut r).map_err(|e| e.0)? as usize;
        if sym < EOB {
            if out.len() == expected {
                return Err("output overruns declared length".into());
            }
            out.push(sym as u8);
            continue;
        }
        if sym == EOB {
            break;
        }
        if !(LEN_BASE..DIST_BASE).contains(&sym) {
            return Err(format!("unexpected symbol {sym}"));
        }
        let lb = (sym - LEN_BASE) as u32;
        let lv = r.read_bits(lb as u8).map_err(|e| e.0)?;
        let len = ((1u32 << lb) + lv - 1) as usize + MIN_MATCH;
        let dsym = dec.decode(&mut r).map_err(|e| e.0)? as usize;
        if !(DIST_BASE..ALPHABET).contains(&dsym) {
            return Err(format!("expected distance symbol, got {dsym}"));
        }
        let db = (dsym - DIST_BASE) as u32;
        let dv = r.read_bits(db as u8).map_err(|e| e.0)?;
        let dist = ((1u32 << db) + dv) as usize;
        if dist == 0 || dist > out.len() {
            return Err(format!("distance {dist} out of range at {}", out.len()));
        }
        if len > expected - out.len() {
            return Err("match overruns declared length".into());
        }
        copy_match(&mut out, dist, len);
    }
    if out.len() != expected {
        return Err(format!("decoded {} bytes, expected {expected}", out.len()));
    }
    Ok(out)
}

/// The crate's decoder must give the per-symbol loop's bytes, and its
/// error string word for word. Only a refused reservation of the declared
/// length is the crate's alone.
fn assert_decodes_like_per_symbol_loop(frame: &[u8]) {
    let new = decompress(CodecKind::Zst, frame).map_err(|e| e.0);
    if matches!(&new, Err(e) if e.starts_with("cannot reserve")) {
        return;
    }
    let old = per_symbol_decompress(frame);
    if new != old {
        panic!(
            "decoder: {:?}, per-symbol loop: {:?}",
            new.map(|b| b.len()),
            old.map(|b| b.len())
        );
    }
}

/// A frame, its prefixes of `cuts` bytes, each of `flips` applied alone
/// and with the stream cut behind it, the frame with `tail` appended (with
/// every cut, the mutations [`assert_mutations_decode_like_reference`]
/// makes), and the frame declaring lengths within 40 of its own and at
/// each sixteenth of it.
fn for_each_mutation(
    frame: &[u8],
    cuts: impl IntoIterator<Item = usize>,
    flips: &[(usize, u8)],
    tail: &[u8],
    mut check: impl FnMut(&[u8]),
) {
    check(frame);
    for cut in cuts {
        check(&frame[..cut]);
    }
    for &(at, xor) in flips {
        let mut bad = frame.to_vec();
        let at = at % bad.len();
        bad[at] ^= xor | 1;
        check(&bad);
        check(&bad[..at + 1]);
    }
    let mut longer = frame.to_vec();
    longer.extend_from_slice(tail);
    check(&longer);
    // The same table and stream under each declared length near the true
    // one, and at sixteenths of it: every overrun check meets its edge,
    // with the stream's end near and far.
    let mut at = 0;
    if let Ok(declared) = reference_varint(frame, &mut at) {
        let near = declared.saturating_sub(40)..declared + 40;
        for len in near.chain((0..16).map(|k| declared / 16 * k)) {
            let mut relabeled = Vec::new();
            let mut v = len;
            while v >= 0x80 {
                relabeled.push(v as u8 | 0x80);
                v >>= 7;
            }
            relabeled.push(v as u8);
            relabeled.extend_from_slice(&frame[at..]);
            check(&relabeled);
        }
    }
}

/// The table-driven decoder must accept exactly the frames the reference
/// accepts, and produce the same bytes from them.
fn assert_decodes_like_reference(frame: &[u8]) {
    let reference = reference_decompress(frame);
    // Gz and Zst frames are one self-describing format behind one decoder.
    let new = decompress(CodecKind::Zst, frame);
    match (new, reference) {
        (Ok(new), Ok(reference)) => assert_eq!(new, reference),
        (Err(_), Err(_)) => {}
        (new, reference) => panic!(
            "table-driven decoder: {:?}, reference: {:?}",
            new.map(|b| b.len()),
            reference.map(|b| b.len())
        ),
    }
}

/// Mutations of a valid frame that keep it near-valid: a byte flipped, a
/// strict prefix, a garbage tail.
fn assert_mutations_decode_like_reference(frame: &[u8], flips: &[(usize, u8)], tail: &[u8]) {
    for cut in 0..frame.len() {
        assert_decodes_like_reference(&frame[..cut]);
    }
    for &(at, xor) in flips {
        let mut bad = frame.to_vec();
        let at = at % bad.len();
        bad[at] ^= xor | 1;
        assert_decodes_like_reference(&bad);
        // The same flip with the stream cut short behind it.
        assert_decodes_like_reference(&bad[..at + 1]);
    }
    let mut longer = frame.to_vec();
    longer.extend_from_slice(tail);
    assert_decodes_like_reference(&longer);
}

/// Frequencies whose optimal tree is a vine: symbol `i` gets Fibonacci
/// number `i`, so the code lengths run all the way to the cap.
fn fibonacci_freqs(n: usize) -> Vec<u64> {
    let (mut a, mut b) = (1u64, 1u64);
    (0..n)
        .map(|_| {
            let f = a;
            (a, b) = (b, a + b);
            f
        })
        .collect()
}

#[test]
fn fifteen_bit_codes_roundtrip() {
    let lengths = build_lengths(&fibonacci_freqs(64));
    assert_eq!(lengths.iter().max(), Some(&MAX_BITS));
    assert!(
        lengths
            .iter()
            .filter(|&&l| u32::from(l) > PRIMARY_BITS)
            .count()
            > 8
    );
    let table = CodeTable::from_lengths(lengths.clone()).unwrap();
    // Every symbol next to every other, so short and long codes meet at
    // every accumulator fill level.
    let symbols: Vec<u16> = (0..64u16)
        .flat_map(|a| (0..64u16).flat_map(move |b| [a, b]))
        .collect();
    let mut w = BitWriter::new();
    for &s in &symbols {
        table.encode(&mut w, s as usize).unwrap();
    }
    let bytes = w.finish();
    let dec = Decoder::new(&table);
    let reference = ReferenceDecoder::new(&lengths);
    let mut r = BitReader::new(&bytes);
    let mut rr = ReferenceBits {
        bytes: &bytes,
        pos: 0,
        bitpos: 0,
    };
    for &s in &symbols {
        assert_eq!(dec.decode(&mut r).unwrap(), s);
        assert_eq!(reference.decode(&mut rr).unwrap(), s);
    }
}

#[test]
fn frame_with_long_codes_decodes_like_reference() {
    // Fibonacci byte frequencies, shuffled so the match finder leaves most
    // of them as literals: the frame's own table then has codes longer
    // than the primary table's index.
    let mut data: Vec<u8> = fibonacci_freqs(22)
        .iter()
        .enumerate()
        .flat_map(|(i, &f)| std::iter::repeat_n(i as u8 * 11, f as usize))
        .collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..data.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        data.swap(i, (x % (i as u64 + 1)) as usize);
    }
    for kind in [CodecKind::Gz, CodecKind::Zst] {
        let frame = compress(kind, &data);
        let mut table_at = 0;
        reference_varint(&frame, &mut table_at).unwrap();
        let (table, _) = CodeTable::read_table(&frame[table_at..]).unwrap();
        let longest = table.lengths.iter().copied().max().unwrap();
        assert!(u32::from(longest) > PRIMARY_BITS, "longest code {longest}");
        assert_eq!(decompress(kind, &frame).unwrap(), data);
        assert_decodes_like_reference(&frame);
        // Cuts through the tail, where the long codes of the rare symbols
        // and of end-of-block meet the end of the stream.
        for cut in frame.len() - 64..frame.len() {
            assert_decodes_like_reference(&frame[..cut]);
        }
    }
}

#[test]
fn single_symbol_alphabet_rejects_the_unassigned_code() {
    let mut lengths = vec![0u8; 256];
    lengths[42] = 1;
    let table = CodeTable::from_lengths(lengths.clone()).unwrap();
    let dec = Decoder::new(&table);
    let reference = ReferenceDecoder::new(&lengths);
    // Bit 0 is the one code there is, bit 1 the pattern nothing owns.
    let bytes = [0b10u8];
    let mut r = BitReader::new(&bytes);
    let mut rr = ReferenceBits {
        bytes: &bytes,
        pos: 0,
        bitpos: 0,
    };
    assert_eq!(dec.decode(&mut r).unwrap(), 42);
    assert_eq!(reference.decode(&mut rr).unwrap(), 42);
    assert!(dec.decode(&mut r).is_err());
    assert!(reference.decode(&mut rr).is_err());
}

/// Reference decoder: the straightforward bytewise back-reference copy
/// the chunked `detokenize` implementation must be equivalent to.
fn detokenize_bytewise(tokens: &[Token]) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                for k in 0..len as usize {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    out
}

/// A token stream that is valid by construction: each match distance is
/// drawn within the output produced so far. `(lit, len, dist)` triples
/// are mapped onto the running output length, so overlapping (dist < len)
/// and non-overlapping (dist >= len) matches both occur.
fn valid_tokens(spec: &[(u8, u16, u16)]) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(spec.len() * 2);
    let mut produced: usize = 0;
    for &(lit, len, dist) in spec {
        tokens.push(Token::Literal(lit));
        produced += 1;
        let len = 1 + (len % 300) as u32;
        let dist = 1 + dist as usize % produced;
        tokens.push(Token::Match {
            len,
            dist: dist as u32,
        });
        produced += len as usize;
    }
    tokens
}

/// `n` bytes shaped like one of `codec-scan`'s column chunks, by `shape`:
/// 0 an Int64 sequence (one literal and a 7-byte match 8 back per value),
/// 1 Float64 noise (long literal runs), 2 Date32 values from a few
/// thousand days (short matches far back), 3 all three in a row.
fn column_chunk(shape: u8, seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::with_capacity(n + 8);
    match shape {
        0 => {
            let start = (next() >> 16) as i64;
            for k in 0.. {
                if out.len() >= n {
                    break;
                }
                out.extend_from_slice(&(start + k).to_le_bytes());
            }
        }
        1 => {
            while out.len() < n {
                let v = (next() >> 11) as f64 / (1u64 << 53) as f64 * 1000.0;
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        2 => {
            while out.len() < n {
                let day = 8_000 + (next() % 3_000) as i32;
                out.extend_from_slice(&day.to_le_bytes());
            }
        }
        _ => {
            for part in 0..3 {
                out.extend(column_chunk(part, seed ^ u64::from(part), n / 3));
            }
        }
    }
    out.truncate(n);
    out
}

fn roundtrip(kind: CodecKind, data: &[u8]) {
    let packed = compress(kind, data);
    let back = decompress(kind, &packed).expect("decompress own output");
    assert_eq!(back.as_slice(), data);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snap_roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        roundtrip(CodecKind::Snap, &data);
    }

    #[test]
    fn gz_roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..8_000)) {
        roundtrip(CodecKind::Gz, &data);
    }

    #[test]
    fn zst_roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..8_000)) {
        roundtrip(CodecKind::Zst, &data);
    }

    #[test]
    fn roundtrip_structured(
        seed in any::<u8>(),
        period in 1usize..300,
        reps in 1usize..200,
    ) {
        // Periodic data with every period, stressing match distances.
        let data: Vec<u8> = (0..period * reps)
            .map(|i| seed.wrapping_add((i % period) as u8))
            .collect();
        for kind in CodecKind::ALL {
            roundtrip(kind, &data);
        }
    }

    #[test]
    fn roundtrip_low_entropy(
        byte in any::<u8>(),
        len in 0usize..50_000,
    ) {
        let data = vec![byte; len];
        for kind in CodecKind::ALL {
            roundtrip(kind, &data);
        }
    }

    #[test]
    fn decompress_never_panics_on_garbage(
        kind_tag in 1u8..4,
        data in proptest::collection::vec(any::<u8>(), 0..2_000),
    ) {
        let kind = CodecKind::from_tag(kind_tag).unwrap();
        // Must return Ok or Err, never panic or hang.
        let _ = decompress(kind, &data);
    }

    #[test]
    fn entropy_decoder_equals_reference_on_arbitrary_data(
        data in proptest::collection::vec(any::<u8>(), 0..1_000),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..24),
        tail in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        for kind in [CodecKind::Gz, CodecKind::Zst] {
            let frame = compress(kind, &data);
            assert_decodes_like_reference(&frame);
            assert_mutations_decode_like_reference(&frame, &flips, &tail);
        }
    }

    #[test]
    fn entropy_decoder_equals_reference_on_structured_data(
        seed in any::<u8>(),
        period in 1usize..300,
        reps in 1usize..60,
        noise in proptest::collection::vec(any::<u8>(), 0..200),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..24),
        tail in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        // Periodic data (long and overlapping matches at every distance)
        // around a patch of noise (literals).
        let mut data: Vec<u8> = (0..period * reps)
            .map(|i| seed.wrapping_add((i % period) as u8))
            .collect();
        data.splice(data.len() / 2..data.len() / 2, noise);
        for kind in [CodecKind::Gz, CodecKind::Zst] {
            let frame = compress(kind, &data);
            assert_decodes_like_reference(&frame);
            assert_mutations_decode_like_reference(&frame, &flips, &tail);
        }
    }

    #[test]
    fn entropy_decoder_equals_reference_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..2_000),
    ) {
        assert_decodes_like_reference(&data);
    }

    #[test]
    fn entropy_decoder_equals_per_symbol_loop_on_arbitrary_data(
        data in proptest::collection::vec(any::<u8>(), 0..1_000),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..24),
        tail in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        for kind in [CodecKind::Gz, CodecKind::Zst] {
            let frame = compress(kind, &data);
            for_each_mutation(
                &frame,
                0..frame.len(),
                &flips,
                &tail,
                assert_decodes_like_per_symbol_loop,
            );
        }
    }

    #[test]
    fn entropy_decoder_equals_per_symbol_loop_on_structured_data(
        seed in any::<u8>(),
        period in 1usize..300,
        reps in 1usize..60,
        noise in proptest::collection::vec(any::<u8>(), 0..200),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..24),
        tail in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let mut data: Vec<u8> = (0..period * reps)
            .map(|i| seed.wrapping_add((i % period) as u8))
            .collect();
        data.splice(data.len() / 2..data.len() / 2, noise);
        for kind in [CodecKind::Gz, CodecKind::Zst] {
            let frame = compress(kind, &data);
            for_each_mutation(
                &frame,
                0..frame.len(),
                &flips,
                &tail,
                assert_decodes_like_per_symbol_loop,
            );
        }
    }

    #[test]
    fn entropy_decoder_equals_per_symbol_loop_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..2_000),
    ) {
        assert_decodes_like_per_symbol_loop(&data);
    }

    #[test]
    fn detokenize_chunked_equals_bytewise_on_random_tokens(
        spec in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>()),
            0..200,
        ),
    ) {
        let tokens = valid_tokens(&spec);
        let expected = detokenize_bytewise(&tokens);
        let got = detokenize(&tokens, expected.len()).expect("valid tokens decode");
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn detokenize_chunked_equals_bytewise_on_real_token_streams(
        data in proptest::collection::vec(any::<u8>(), 0..8_000),
        preset in 0usize..3,
    ) {
        let params = [
            lzcodec::lz77::presets::FAST,
            lzcodec::lz77::presets::BALANCED,
            lzcodec::lz77::presets::STRONG,
        ][preset];
        let tokens = tokenize(&data, params);
        let expected = detokenize_bytewise(&tokens);
        prop_assert_eq!(&expected, &data, "reference decoder must invert tokenize");
        let got = detokenize(&tokens, data.len()).expect("tokenizer output decodes");
        prop_assert_eq!(got, data);
    }

    #[test]
    fn compressed_of_compressed_still_roundtrips(
        data in proptest::collection::vec(any::<u8>(), 0..4_000),
    ) {
        // Double compression is a classic corruption amplifier.
        let once = compress(CodecKind::Zst, &data);
        let twice = compress(CodecKind::Gz, &once);
        let back1 = decompress(CodecKind::Gz, &twice).unwrap();
        prop_assert_eq!(&back1, &once);
        let back0 = decompress(CodecKind::Zst, &back1).unwrap();
        prop_assert_eq!(back0, data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chunks of 4-64 KiB shaped like `codec-scan`'s, against both
    /// references. Cutting at every prefix is quadratic in the frame, so
    /// the whole chunk is cut at 64 strides and through its last 64 bytes,
    /// and its first 4 KiB, compressed alone, at every prefix.
    #[test]
    fn entropy_decoder_equals_both_references_on_column_chunks(
        shape in 0u8..4,
        seed in any::<u64>(),
        kib in 4usize..=64,
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..24),
        tail in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let data = column_chunk(shape, seed, kib * 1024);
        let frame = compress(CodecKind::Zst, &data);
        prop_assert_eq!(&decompress(CodecKind::Zst, &frame).unwrap(), &data);
        let cuts = (0..frame.len())
            .step_by(frame.len() / 64 + 1)
            .chain(frame.len().saturating_sub(64)..frame.len());
        for_each_mutation(&frame, cuts, &flips, &tail, |f| {
            assert_decodes_like_reference(f);
            assert_decodes_like_per_symbol_loop(f);
        });
        let head = compress(CodecKind::Zst, &data[..4096]);
        assert_mutations_decode_like_reference(&head, &flips, &tail);
        for_each_mutation(
            &head,
            0..head.len(),
            &flips,
            &tail,
            assert_decodes_like_per_symbol_loop,
        );
    }
}
