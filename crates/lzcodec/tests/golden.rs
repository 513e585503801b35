//! Golden frames: the bytes `compress` wrote at the commit before the
//! table-driven decoder (PR 17, `75fc6f4`). Objects already in a store were
//! written by that encoder, so its output is the format's definition: the
//! encoder must still produce exactly these bytes and the decoder must
//! still read them.

use lzcodec::{compress, decompress, CodecKind};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn xorshift_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 0xff) as u8
        })
        .collect()
}

/// Short text; an integer column (small alphabet, short distances); noise,
/// then a long run (overlapping matches), then the noise again (a match
/// 24 KB back).
fn inputs() -> [Vec<u8>; 3] {
    let text = b"a man, a plan, a canal: panama! "
        .iter()
        .cycle()
        .take(150)
        .copied()
        .collect();
    let mut column = Vec::new();
    for i in 0..8192i64 {
        column.extend_from_slice(&(1_000_000 + (i * 37) % 1000 + i / 64).to_le_bytes());
    }
    let mut mixed = xorshift_bytes(0x1234_5678, 4096);
    mixed.extend(std::iter::repeat_n(7u8, 20_000));
    let head = mixed[..3000].to_vec();
    mixed.extend_from_slice(&head);
    [text, column, mixed]
}

const KINDS: [CodecKind; 3] = [CodecKind::Snap, CodecKind::Gz, CodecKind::Zst];

/// `(frame length, FNV-1a 64 of the frame)` per input, per codec in
/// [`KINDS`] order, as printed by the parent's `compress`.
const PARENT_FRAMES: [[(usize, u64); 3]; 3] = [
    [
        (39, 0xcf84_fa19_1466_c0f7),
        (74, 0xebaf_d013_6b4e_06d2),
        (74, 0xebaf_d013_6b4e_06d2),
    ],
    [
        (8900, 0xe70e_5a0d_ae83_cb6a),
        (4411, 0xd49f_55e0_b208_37d1),
        (4375, 0xb618_ea3c_9ca0_cb3f),
    ],
    [
        (5201, 0x1021_cfb5_807a_789e),
        (4266, 0xda90_15f9_f61a_7b2e),
        (4266, 0xda90_15f9_f61a_7b2e),
    ],
];

/// The parent's frames for the text input, byte for byte.
const PARENT_TEXT_FRAMES: [&str; 3] = [
    "96012861206d616e2c206120706c0908003863616e616c3a2070616e616d612120ed2000cd2000",
    "96014101002003010501000a0501000d0501002602010001050100080402030100010401008f0501000105010004\
     0501001c050100010401001a28f114aab83f3626960a930cbdb9c101",
    "96014101002003010501000a0501000d0501002602010001050100080402030100010401008f0501000105010004\
     0501001c050100010401001a28f114aab83f3626960a930cbdb9c101",
];

fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| (b as char).to_digit(16).expect("hex digit") as u8)
        .collect();
    digits.chunks(2).map(|d| d[0] << 4 | d[1]).collect()
}

#[test]
fn compress_output_is_what_the_parent_wrote() {
    for (input, frames) in inputs().iter().zip(PARENT_FRAMES) {
        for (kind, (len, hash)) in KINDS.into_iter().zip(frames) {
            let packed = compress(kind, input);
            assert_eq!(packed.len(), len, "{kind} frame length");
            assert_eq!(fnv1a64(&packed), hash, "{kind} frame bytes");
            assert_eq!(&decompress(kind, &packed).unwrap(), input, "{kind}");
        }
    }
}

#[test]
fn parent_written_frames_decode() {
    let text = &inputs()[0];
    for (kind, hex) in KINDS.into_iter().zip(PARENT_TEXT_FRAMES) {
        let frame = unhex(hex);
        assert_eq!(&decompress(kind, &frame).unwrap(), text, "{kind}");
        assert_eq!(compress(kind, text), frame, "{kind}");
    }
}
