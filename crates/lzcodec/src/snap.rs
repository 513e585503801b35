//! The Snappy-like codec: greedy LZ with byte-aligned output, optimized for
//! speed over ratio.
//!
//! Frame layout: varint uncompressed length, then a command stream:
//!
//! * `cmd & 0x3 == 0`: literal run; `cmd >> 2` is `len - 1` when < 60, else
//!   60..63 selects 1..4 extra length bytes (Snappy's exact scheme).
//! * `cmd & 0x3 == 1`: copy; `len - MIN_MATCH` in bits 2..6 (< 60), distance
//!   as a 2-byte LE value when < 65536, otherwise the `== 2` form with a
//!   4-byte distance.

use crate::lz77::{self, presets, Token, MIN_MATCH};
use crate::{get_varint, put_varint, CodecError, Result};

/// Compress with the fast preset and byte-aligned framing.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = lz77::tokenize(data, presets::FAST);
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    put_varint(&mut out, data.len() as u64);

    // Coalesce consecutive literals into runs.
    let mut i = 0usize;
    let mut src_pos = 0usize;
    while i < tokens.len() {
        match tokens[i] {
            Token::Literal(_) => {
                let mut run = 0usize;
                while i + run < tokens.len() && matches!(tokens[i + run], Token::Literal(_)) {
                    run += 1;
                }
                // Emit the run directly from the source slice.
                let mut remaining = run;
                let mut offset = src_pos;
                while remaining > 0 {
                    let chunk = remaining.min(1 << 20);
                    let n = chunk - 1;
                    if n < 60 {
                        out.push((n as u8) << 2);
                    } else {
                        let extra_bytes = (64 - (n as u64).leading_zeros()).div_ceil(8) as usize;
                        out.push(((59 + extra_bytes) as u8) << 2);
                        out.extend_from_slice(&(n as u32).to_le_bytes()[..extra_bytes]);
                    }
                    out.extend_from_slice(&data[offset..offset + chunk]);
                    offset += chunk;
                    remaining -= chunk;
                }
                src_pos += run;
                i += run;
            }
            Token::Match { len, dist } => {
                let mut remaining = len as usize;
                while remaining > 0 {
                    // Cap per-command length so the length field fits.
                    let chunk = remaining.min(MIN_MATCH + 59).max(MIN_MATCH.min(remaining));
                    let chunk = if remaining - chunk > 0 && remaining - chunk < MIN_MATCH {
                        remaining - MIN_MATCH // leave a tail >= MIN_MATCH
                    } else {
                        chunk
                    };
                    let l = chunk - MIN_MATCH;
                    if dist < 65_536 {
                        out.push(((l as u8) << 2) | 1);
                        out.extend_from_slice(&(dist as u16).to_le_bytes());
                    } else {
                        out.push(((l as u8) << 2) | 2);
                        out.extend_from_slice(&dist.to_le_bytes());
                    }
                    remaining -= chunk;
                }
                src_pos += len as usize;
                i += 1;
            }
        }
    }
    out
}

/// Decompress a [`compress`] frame.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let expected = get_varint(data, &mut pos)? as usize;
    let mut out = crate::reserve_output(expected)?;
    while pos < data.len() {
        let cmd = data[pos];
        pos += 1;
        match cmd & 0x3 {
            0 => {
                let n = (cmd >> 2) as usize;
                let len = if n < 60 {
                    n + 1
                } else {
                    let extra = n - 59;
                    if pos + extra > data.len() {
                        return Err(CodecError("truncated literal length".into()));
                    }
                    let mut buf = [0u8; 4];
                    buf[..extra].copy_from_slice(&data[pos..pos + extra]);
                    pos += extra;
                    u32::from_le_bytes(buf) as usize + 1
                };
                if pos + len > data.len() {
                    return Err(CodecError("truncated literal run".into()));
                }
                if len > expected - out.len() {
                    return Err(CodecError("output overruns declared length".into()));
                }
                out.extend_from_slice(&data[pos..pos + len]);
                pos += len;
            }
            tag @ (1 | 2) => {
                let len = ((cmd >> 2) as usize) + MIN_MATCH;
                let dist = if tag == 1 {
                    if pos + 2 > data.len() {
                        return Err(CodecError("truncated copy distance".into()));
                    }
                    let d = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
                    pos += 2;
                    d
                } else {
                    let Some(&d) = data[pos..].first_chunk::<4>() else {
                        return Err(CodecError("truncated copy distance".into()));
                    };
                    pos += 4;
                    u32::from_le_bytes(d) as usize
                };
                if dist == 0 || dist > out.len() {
                    return Err(CodecError(format!(
                        "copy distance {dist} out of range at output {}",
                        out.len()
                    )));
                }
                if len > expected - out.len() {
                    return Err(CodecError("copy overruns frame length".into()));
                }
                lz77::copy_match(&mut out, dist, len);
            }
            _ => return Err(CodecError(format!("bad command byte {cmd:#x}"))),
        }
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
    fn length_past_64_bits_is_an_error() {
        // Bit 1 of the tenth byte would be bit 64 of the length; in front
        // of an empty frame it used to be dropped and the frame decoded.
        let mut f = vec![0x80; 9];
        f.push(0x02);
        assert_eq!(decompress(&f).expect_err("overflow").0, "varint overflow");
        f[9] = 0x00;
        assert_eq!(decompress(&f).unwrap(), b"");
    }

    #[test]
    fn roundtrip_basic() {
        for data in [
            b"".to_vec(),
            b"a".to_vec(),
            b"hello world hello world hello world".to_vec(),
            vec![0u8; 100_000],
            (0..=255u8).cycle().take(70_000).collect::<Vec<u8>>(),
        ] {
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    #[test]
    fn long_literal_runs() {
        // Incompressible run longer than 60 exercises the extended length
        // encoding.
        let mut x = 99u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xff) as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_matches_chunked() {
        // A >63-byte match must split across commands.
        let mut data = b"0123456789abcdefABCDEF~!@#$%".to_vec();
        let head = data.clone();
        for _ in 0..20 {
            data.extend_from_slice(&head);
        }
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncation_rejected() {
        let data = b"hello world hello world".to_vec();
        let c = compress(&data);
        for cut in [0, 1, c.len() / 2, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn fast_on_compressible_data() {
        let data: Vec<u8> = b"abcd".iter().cycle().take(1 << 20).copied().collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 10, "ratio too weak: {}", c.len());
    }

    /// A frame declaring `declared` bytes followed by raw command bytes.
    fn frame(declared: u64, commands: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, declared);
        out.extend_from_slice(commands);
        out
    }

    #[test]
    fn every_decoder_check_fires() {
        // `0 << 2` is a one-byte literal run; `1` is a copy of MIN_MATCH
        // bytes with a two-byte distance, `2` the same with four bytes.
        let cases: [(Vec<u8>, &str); 9] = [
            (
                frame(5, &[0, b'a', 1, 0, 0]),
                "copy distance 0 out of range at output 1",
            ),
            (
                frame(5, &[0, b'a', 1, 2, 0]),
                "copy distance 2 out of range at output 1",
            ),
            (
                frame(5, &[0, b'a', 2, 2, 0, 0, 0]),
                "copy distance 2 out of range at output 1",
            ),
            (frame(4, &[0, b'a', 1, 1, 0]), "copy overruns frame length"),
            (
                frame(1, &[1 << 2, b'a', b'b']),
                "output overruns declared length",
            ),
            (frame(5, &[0, b'a', 1, 1]), "truncated copy distance"),
            (frame(5, &[0, b'a', 2, 1, 0, 0]), "truncated copy distance"),
            (frame(5, &[0, b'a', 3]), "bad command byte 0x3"),
            (frame(2, &[0, b'a']), "decoded 1 bytes, expected 2"),
        ];
        for (f, want) in cases {
            assert_eq!(decompress(&f).expect_err("must be rejected").0, want);
        }
        assert_eq!(
            decompress(&frame(5, &[0, b'a', 2, 1, 0, 0, 0])).unwrap(),
            b"aaaaa"
        );
    }

    #[test]
    fn huge_declared_length_is_an_error_not_an_abort() {
        let e = decompress(&frame(1 << 34, &[])).expect_err("no output").0;
        assert!(
            e == "decoded 0 bytes, expected 17179869184" || e.starts_with("cannot reserve"),
            "{e}"
        );
        assert!(decompress(&frame((1 << 34) + 1, &[])).is_err());
    }
}
