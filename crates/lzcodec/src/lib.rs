//! `lzcodec` — from-scratch lossless compression codecs.
//!
//! Plays the role of Snappy / GZip / Zstd in the paper's Figure 6
//! (compression × pushdown study). Three LZ-family codecs are implemented
//! with the same *relative* speed/ratio ordering as the originals:
//!
//! | codec          | modeled after | design                                          |
//! |----------------|---------------|-------------------------------------------------|
//! | [`CodecKind::Snap`] | Snappy   | greedy LZ, 64 KiB window, byte-aligned output   |
//! | [`CodecKind::Gz`]   | GZip     | lazy LZSS, 32 KiB window, canonical Huffman     |
//! | [`CodecKind::Zst`]  | Zstd     | lazy LZ, 1 MiB window, deep chains + Huffman    |
//!
//! All three share the [`lz77`] match finder (with different parameters)
//! and one back-reference copy ([`lz77::copy_match`]); `Gz` and `Zst` share
//! the [`huffman`] entropy stage and one self-describing frame,
//! `[varint raw_len][RLE code-length table][LSB-first bit stream]`. Every
//! codec is verified lossless by round-trip property tests.
//!
//! The storage node decompresses every column chunk before any pushed-down
//! operator can run, so the decode side is built for speed: [`bitio`]
//! reads the stream through a 64-bit accumulator refilled eight bytes at a
//! time, [`huffman::Decoder`] resolves a symbol with one lookup in a table
//! indexed by the next ten stream bits, and the frame decoder resolves a
//! whole token per refill (up to five literals, or a match with its extra
//! bits) wherever 56 stream bits hold it, falling back to one symbol at a
//! time for the stream's tail, long codes and every error. Short matches
//! clear of their source are copied as one 8- or 16-byte chunk. None of
//! this changes a byte of the frame; `tests/golden.rs` pins the encoder's
//! output, and `tests/proptests.rs` holds the decoder to a bit-at-a-time
//! reference and, error string for error string, to the per-symbol loop,
//! on valid, mutated and truncated frames. Frames come off the object
//! store, so no declared length is trusted: a length header past 64 bits
//! is an error, output space is reserved fallibly, and every match and
//! literal is checked against it before it is written.
//!
//! Each codec also advertises *throughput hints*
//! ([`CodecSpec::compress_gbps`] / [`CodecSpec::decompress_gbps`]) used by
//! the `netsim` cost model to bill (de)compression work to the simulated
//! storage node, mirroring the real codecs' relative speeds.
//!
//! # Example
//!
//! ```
//! use lzcodec::{CodecKind, compress, decompress};
//!
//! let data: Vec<u8> = b"hello ".iter().cycle().take(4096).copied().collect();
//! let packed = compress(CodecKind::Zst, &data);
//! assert!(packed.len() < data.len());
//! assert_eq!(decompress(CodecKind::Zst, &packed).unwrap(), data);
//! ```

#![warn(missing_docs)]

pub mod bitio;
pub mod huffman;
pub mod lz77;

mod entropy_codec;
mod snap;

use std::fmt;

/// Errors from decompression of malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;

/// The available codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// No compression (identity).
    #[default]
    None,
    /// Snappy-like: fastest, lowest ratio.
    Snap,
    /// GZip-like: slow compress, good ratio.
    Gz,
    /// Zstd-like: best ratio, fast decompress.
    Zst,
}

impl CodecKind {
    /// All codecs, in Figure-6 presentation order.
    pub const ALL: [CodecKind; 4] = [
        CodecKind::None,
        CodecKind::Snap,
        CodecKind::Gz,
        CodecKind::Zst,
    ];

    /// Stable one-byte tag for file formats.
    pub fn tag(&self) -> u8 {
        match self {
            CodecKind::None => 0,
            CodecKind::Snap => 1,
            CodecKind::Gz => 2,
            CodecKind::Zst => 3,
        }
    }

    /// Inverse of [`CodecKind::tag`].
    pub fn from_tag(tag: u8) -> Result<CodecKind> {
        Ok(match tag {
            0 => CodecKind::None,
            1 => CodecKind::Snap,
            2 => CodecKind::Gz,
            3 => CodecKind::Zst,
            other => return Err(CodecError(format!("unknown codec tag {other}"))),
        })
    }

    /// Human-readable name (as used in the paper's Figure 6 x-axis).
    pub fn name(&self) -> &'static str {
        match self {
            CodecKind::None => "None",
            CodecKind::Snap => "Snappy",
            CodecKind::Gz => "GZip",
            CodecKind::Zst => "Zstd",
        }
    }

    /// Parse a codec name (case-insensitive; accepts both our names and the
    /// originals').
    pub fn from_name(name: &str) -> Option<CodecKind> {
        Some(match name.to_ascii_lowercase().as_str() {
            "none" | "raw" | "uncompressed" => CodecKind::None,
            "snap" | "snappy" => CodecKind::Snap,
            "gz" | "gzip" => CodecKind::Gz,
            "zst" | "zstd" | "zstandard" => CodecKind::Zst,
            _ => return None,
        })
    }

    /// Throughput/behaviour metadata for the cost model.
    pub fn spec(&self) -> CodecSpec {
        // Relative numbers follow the real codecs' published single-core
        // throughputs (order of magnitude): Snappy ~0.4/1.8 GB/s,
        // gzip ~0.04/0.35 GB/s, zstd ~0.45/1.3 GB/s.
        match self {
            CodecKind::None => CodecSpec {
                kind: *self,
                compress_gbps: f64::INFINITY,
                decompress_gbps: f64::INFINITY,
            },
            CodecKind::Snap => CodecSpec {
                kind: *self,
                compress_gbps: 0.40,
                decompress_gbps: 1.80,
            },
            CodecKind::Gz => CodecSpec {
                kind: *self,
                compress_gbps: 0.04,
                decompress_gbps: 0.35,
            },
            CodecKind::Zst => CodecSpec {
                kind: *self,
                compress_gbps: 0.45,
                decompress_gbps: 1.30,
            },
        }
    }

    /// Single-core seconds the cost model bills for decompressing to
    /// `uncompressed_bytes` of output (zero for [`CodecKind::None`]).
    pub fn decompress_seconds(&self, uncompressed_bytes: u64) -> f64 {
        match self {
            CodecKind::None => 0.0,
            other => uncompressed_bytes as f64 / (other.spec().decompress_gbps * 1e9),
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cost-model metadata for one codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecSpec {
    /// Which codec this describes.
    pub kind: CodecKind,
    /// Single-core compression throughput hint (GB/s of *input*).
    pub compress_gbps: f64,
    /// Single-core decompression throughput hint (GB/s of *output*).
    pub decompress_gbps: f64,
}

/// Append `v` as a LEB128 varint: seven bits a byte, low group first, the
/// high bit set on every byte but the last.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Read a [`put_varint`] value at `*pos` and advance past it. A value that
/// does not fit in 64 bits is an error, never silently cut: the tenth byte
/// may carry one bit, and there is no eleventh.
pub(crate) fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = data
            .get(*pos)
            .ok_or_else(|| CodecError("truncated varint".into()))?;
        *pos += 1;
        let bits = u64::from(b & 0x7f);
        if shift >= 64 || (bits << shift) >> shift != bits {
            return Err(CodecError("varint overflow".into()));
        }
        v |= bits << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// An output buffer with room for the `expected` bytes a frame declares.
/// The length comes from untrusted object bytes: beyond 16 GiB it is
/// implausible, and an allocation the system refuses is a decode error,
/// not an abort of the storage node.
fn reserve_output(expected: usize) -> Result<Vec<u8>> {
    if expected > (1 << 34) {
        return Err(CodecError(format!("implausible frame length {expected}")));
    }
    let mut out = Vec::new();
    out.try_reserve_exact(expected)
        .map_err(|e| CodecError(format!("cannot reserve {expected} bytes of output: {e}")))?;
    Ok(out)
}

/// Compress `data` with `kind`. The output embeds the uncompressed length.
pub fn compress(kind: CodecKind, data: &[u8]) -> Vec<u8> {
    match kind {
        CodecKind::None => data.to_vec(),
        CodecKind::Snap => snap::compress(data),
        CodecKind::Gz => entropy_codec::compress(data, entropy_codec::GZ_PARAMS),
        CodecKind::Zst => entropy_codec::compress(data, entropy_codec::ZST_PARAMS),
    }
}

/// Decompress a buffer produced by [`compress`] with the same `kind`.
pub fn decompress(kind: CodecKind, data: &[u8]) -> Result<Vec<u8>> {
    match kind {
        CodecKind::None => Ok(data.to_vec()),
        CodecKind::Snap => snap::decompress(data),
        CodecKind::Gz => entropy_codec::decompress(data),
        CodecKind::Zst => entropy_codec::decompress(data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repetitive(n: usize) -> Vec<u8> {
        let phrase = b"the quick brown fox jumps over the lazy dog. ";
        phrase.iter().cycle().take(n).copied().collect()
    }

    fn pseudo_random(n: usize) -> Vec<u8> {
        // xorshift so the test is deterministic without rand in deps here.
        let mut x = 0x12345678u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xff) as u8
            })
            .collect()
    }

    #[test]
    fn all_codecs_roundtrip() {
        for kind in CodecKind::ALL {
            for data in [
                Vec::new(),
                vec![0u8],
                vec![7u8; 100_000],
                repetitive(50_000),
                pseudo_random(10_000),
            ] {
                let packed = compress(kind, &data);
                let back = decompress(kind, &packed).unwrap();
                assert_eq!(back, data, "{kind} len {}", data.len());
            }
        }
    }

    #[test]
    fn compression_ratio_ordering_on_text() {
        // On repetitive text, Zst/Gz must beat Snap must beat None —
        // the ordering Figure 6 depends on.
        let data = repetitive(200_000);
        let none = compress(CodecKind::None, &data).len();
        let snap = compress(CodecKind::Snap, &data).len();
        let gz = compress(CodecKind::Gz, &data).len();
        let zst = compress(CodecKind::Zst, &data).len();
        assert!(snap < none, "snap {snap} vs none {none}");
        assert!(gz < snap, "gz {gz} vs snap {snap}");
        assert!(zst <= gz + gz / 4, "zst {zst} should be near/below gz {gz}");
    }

    #[test]
    fn incompressible_data_does_not_explode() {
        let data = pseudo_random(64 * 1024);
        for kind in CodecKind::ALL {
            let packed = compress(kind, &data);
            assert!(
                packed.len() <= data.len() + data.len() / 8 + 64,
                "{kind}: {} vs {}",
                packed.len(),
                data.len()
            );
        }
    }

    #[test]
    fn tags_and_names_roundtrip() {
        for kind in CodecKind::ALL {
            assert_eq!(CodecKind::from_tag(kind.tag()).unwrap(), kind);
            assert_eq!(CodecKind::from_name(kind.name()).unwrap(), kind);
        }
        assert_eq!(CodecKind::from_name("zstd"), Some(CodecKind::Zst));
        assert_eq!(CodecKind::from_name("lz4"), None);
        assert!(CodecKind::from_tag(200).is_err());
    }

    #[test]
    fn specs_preserve_real_codec_ordering() {
        let snap = CodecKind::Snap.spec();
        let gz = CodecKind::Gz.spec();
        let zst = CodecKind::Zst.spec();
        assert!(snap.decompress_gbps > zst.decompress_gbps);
        assert!(zst.decompress_gbps > gz.decompress_gbps);
        assert!(gz.compress_gbps < snap.compress_gbps);
    }

    #[test]
    fn varint_roundtrip_and_overflow() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
        // u64::MAX ends in a tenth byte of 1; anything wider is refused.
        let mut wide = vec![0xff; 9];
        for last in [0x02, 0x7f, 0x81] {
            wide.truncate(9);
            wide.extend([last, 0]);
            assert_eq!(get_varint(&wide, &mut 0).unwrap_err().0, "varint overflow");
        }
        assert_eq!(
            get_varint(&[0x80; 3], &mut 0).unwrap_err().0,
            "truncated varint"
        );
    }

    #[test]
    fn garbage_input_is_an_error_not_a_panic() {
        for kind in [CodecKind::Snap, CodecKind::Gz, CodecKind::Zst] {
            let garbage = pseudo_random(257);
            // Either a clean error or (extremely unlikely) a valid decode —
            // never a panic.
            let _ = decompress(kind, &garbage);
            let _ = decompress(kind, &[]);
            let _ = decompress(kind, &[0xff; 3]);
        }
    }
}
