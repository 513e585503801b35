//! IPC wire format for [`RecordBatch`]es — the role Apache Arrow IPC plays
//! in the paper: a compact, columnar, self-describing binary encoding used
//! to return OCS results to the engine.
//!
//! Two layers live here:
//!
//! * the **message** — one self-describing `b"CIP3"` encoding of a batch.
//!   `encode_batch`/`decode_batch` seal it with its own checksum: that is a
//!   plain `parq` page. [`put_message`]/[`decode_message`] leave it bare,
//!   for containers that checksum it together with their own bytes;
//! * the **frame stream** (`encode_schema_frame`/`encode_batch_frame`/
//!   `encode_trailer_frame` + [`FrameDecoder`]) — the streaming boundary's
//!   unit of transfer: a schema frame, then one frame per batch as the
//!   storage executor emits them, then a trailer frame carrying the
//!   request's execution statistics. Frames are length-prefixed,
//!   bound-checked and individually checksummed so a consumer can decode
//!   incrementally as bytes arrive and fail structurally (never panic) on
//!   truncation or corruption. A batch frame carries a bare message.
//!
//! Every container that crosses a trust boundary — a plain page, a
//! dictionary page and a file footer in `parq`, a frame here — ends in one
//! little-endian `u64` [`checksum`] of every byte before it, and no byte is
//! under two checksums. [`seal`] writes it and [`unseal`] verifies it;
//! [`checksum`] documents what it guarantees. There is one wire version and
//! one decoder.
//!
//! Message layout (all integers little-endian):
//!
//! ```text
//! magic   : 4 bytes  b"CIP3"
//! ncols   : u32
//! nrows   : u64
//! fields  : per column — name_len u32, name bytes, type tag u8, nullable u8
//! columns : per column — has_validity u8, [validity bytes], value buffers
//! [crc]   : u64 (checksum over everything before it; sealed messages only)
//! ```
//!
//! Frame layout:
//!
//! ```text
//! magic   : 4 bytes  b"CFR3"
//! kind    : u8 (1 = schema, 2 = batch, 3 = trailer)
//! len     : u32 payload length (bound-checked against MAX_FRAME_BYTES)
//! payload : len bytes (schema fields / one bare CIP3 message / opaque stats)
//! crc     : u64 (checksum over magic..payload)
//! ```

use bytes::{BufMut, Bytes};
use std::sync::{Arc, OnceLock};

use crate::array::{Array, BooleanArray, Date32Array, Float64Array, Int64Array, Utf8Array};
use crate::batch::RecordBatch;
use crate::bitmap::Bitmap;
use crate::datatype::DataType;
use crate::error::{ColumnarError, Result};
use crate::schema::{Field, Schema, SchemaRef};

const MAGIC: &[u8; 4] = b"CIP3";

/// Width of the checksum that ends every sealed container.
pub const CHECKSUM_BYTES: usize = 8;

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// XXH64's round: a bijection of `acc` for a fixed `word`, and of `word`
/// for a fixed `acc` (the multipliers are odd).
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

/// The integrity checksum of every page, frame and footer: XXH64 (seed 0)
/// with its lanes merged by rotate-and-add, as XXH32 merges its lanes.
///
/// Input is consumed in 32-byte stripes, one little-endian `u64` word into
/// each of four independent accumulators, so the four multiplies of a
/// stripe overlap instead of queueing behind one another. Words, a half
/// word and bytes left after the last stripe are folded in one at a time,
/// then the result is avalanched. Every step is XXH64's except the merge:
/// XXH64 then mixes each lane into the sum a second time, which this hash
/// leaves out. Below 32 bytes there is no merge, so the hash *is* XXH64
/// there and its published vectors pin it.
///
/// Guarantee the corruption tests rely on: every step (stripe round, tail
/// word, half word, tail byte) is a bijection of its accumulator in the
/// input it absorbs, and everything after it — later rounds of the same
/// lane, the rotate-and-add merge (a bijection of each lane with the others
/// fixed), the length fold, later tail steps, the final avalanche — is a
/// bijection of that accumulator. Two inputs of equal length that differ
/// only inside one 8-byte word (or one tail half word or byte) therefore
/// never collide; in particular every single-byte change is detected.
/// XXH64's merge rounds would break the chain: after them a lane enters the
/// sum twice, and no step is a bijection of it alone. Damage spread over
/// several words is caught with probability 1 - 2^-64.
pub fn checksum(bytes: &[u8]) -> u64 {
    bytes_hashed().add(bytes.len() as u64);
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        PRIME64_5
    } else {
        let mut v = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            0u64.wrapping_sub(PRIME64_1),
        ];
        for stripe in stripes {
            v[0] = round(v[0], le_u64(&stripe[0..8]));
            v[1] = round(v[1], le_u64(&stripe[8..16]));
            v[2] = round(v[2], le_u64(&stripe[16..24]));
            v[3] = round(v[3], le_u64(&stripe[24..32]));
        }
        v[0].rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18))
    };
    h = h.wrapping_add(bytes.len() as u64);
    let (words, tail) = tail.as_chunks::<8>();
    for word in words {
        h = (h ^ round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
    }
    let (halves, tail) = tail.as_chunks::<4>();
    for half in halves {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
    }
    for &byte in tail {
        h = (h ^ u64::from(byte).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// Append the [`checksum`] of `buf[start..]` to `buf`: the container that
/// starts at `start` is sealed.
pub fn seal(buf: &mut Vec<u8>, start: usize) {
    let crc = checksum(&buf[start..]);
    buf.put_u64_le(crc);
}

/// Verify the checksum that ends `sealed` and return the bytes it covers,
/// as a view of the same buffer.
pub fn unseal(sealed: &Bytes) -> Result<Bytes> {
    let Some(body_len) = sealed.len().checked_sub(CHECKSUM_BYTES) else {
        return Err(ColumnarError::Corrupt(format!(
            "{} bytes cannot hold a checksum",
            sealed.len()
        )));
    };
    if checksum(&sealed[..body_len]) != le_u64(&sealed[body_len..]) {
        return Err(ColumnarError::Corrupt("checksum mismatch".into()));
    }
    Ok(sealed.slice(..body_len))
}

/// Bytes that went through [`checksum`], process-wide.
fn bytes_hashed() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::metrics().counter("columnar.bytes_hashed"))
}

/// Little-endian u32 from the first four bytes of a length-checked slice.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Little-endian u64 from the first eight bytes of a length-checked slice.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Append `values` as `W`-byte little-endian words: one resize for the
/// whole buffer, then a fill over exact-size chunks that compiles to a
/// straight copy loop instead of one bounds-checked append per value.
fn put_words<T, const W: usize>(
    buf: &mut Vec<u8>,
    values: impl ExactSizeIterator<Item = T>,
    to_le: impl Fn(T) -> [u8; W],
) {
    let start = buf.len();
    buf.resize(start + values.len() * W, 0);
    for (dst, v) in buf[start..].chunks_exact_mut(W).zip(values) {
        dst.copy_from_slice(&to_le(v));
    }
}

fn put_validity(buf: &mut Vec<u8>, validity: Option<&Bitmap>) {
    match validity {
        Some(v) => {
            buf.put_u8(1);
            put_words(buf, v.words().iter().copied(), u64::to_le_bytes);
        }
        None => buf.put_u8(0),
    }
}

fn put_array(buf: &mut Vec<u8>, array: &Array) {
    put_validity(buf, array.validity());
    match array {
        Array::Int64(a) => put_words(buf, a.values.iter().copied(), i64::to_le_bytes),
        Array::Float64(a) => put_words(buf, a.values.iter().copied(), f64::to_le_bytes),
        Array::Date32(a) => put_words(buf, a.values.iter().copied(), i32::to_le_bytes),
        Array::Boolean(a) => put_words(buf, a.values.words().iter().copied(), u64::to_le_bytes),
        Array::Utf8(a) => {
            put_words(buf, a.offsets.iter().copied(), u32::to_le_bytes);
            buf.put_u32_le(a.data.len() as u32);
            buf.put_slice(&a.data);
        }
        // The expanded Utf8 layout, written straight from codes and
        // entries: the wire does not know the column was a dictionary.
        Array::Dict(a) => {
            buf.put_u32_le(0);
            put_words(buf, a.ends(), u32::to_le_bytes);
            buf.put_u32_le(a.data_len() as u32);
            a.extend_data(buf);
        }
    }
}

/// Serialize one batch as a sealed message: the message, then its checksum.
pub fn encode_batch(batch: &RecordBatch) -> Bytes {
    let _t = obs::KernelTimer::start("columnar.ipc.encode_s");
    let mut buf = Vec::with_capacity(message_room(batch) + CHECKSUM_BYTES);
    write_message(&mut buf, batch);
    seal(&mut buf, 0);
    buf.into()
}

/// Append the bare CIP3 message of `batch` to `buf`, for a container that
/// checksums it with its own bytes (a batch frame, a dictionary page).
pub fn put_message(buf: &mut Vec<u8>, batch: &RecordBatch) {
    let _t = obs::KernelTimer::start("columnar.ipc.encode_s");
    write_message(buf, batch);
}

/// An upper bound on the bare CIP3 message of `batch`: past `byte_size`,
/// the message costs 16 bytes, each field its name plus six bytes, and each
/// column at most 15 (the validity flag, and up to 7 bytes of word padding
/// on each of two bitmaps, or the Utf8 data length).
fn message_room(batch: &RecordBatch) -> usize {
    let names: usize = batch.schema().fields().iter().map(|f| f.name.len()).sum();
    16 + names + 21 * batch.num_columns() + batch.byte_size()
}

fn write_message(buf: &mut Vec<u8>, batch: &RecordBatch) {
    let start = buf.len();
    let room = message_room(batch);
    buf.put_slice(MAGIC);
    buf.put_u32_le(batch.num_columns() as u32);
    buf.put_u64_le(batch.num_rows() as u64);
    for field in batch.schema().fields() {
        buf.put_u32_le(field.name.len() as u32);
        buf.put_slice(field.name.as_bytes());
        buf.put_u8(field.data_type.tag());
        buf.put_u8(field.nullable as u8);
    }
    for col in batch.columns() {
        put_array(buf, col);
    }
    debug_assert!(
        buf.len() - start <= room,
        "a CIP3 message outgrew its {room}-byte estimate"
    );
}

/// Position-tracking cursor over a shared [`Bytes`] buffer: fixed-width
/// reads borrow, while [`Reader::bytes_shared`] hands out zero-copy
/// sub-views that keep the wire buffer alive.
struct Reader<'a> {
    src: &'a Bytes,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.src.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.remaining() < n {
            Err(ColumnarError::Corrupt(format!(
                "unexpected end of IPC stream: need {n}, have {}",
                self.remaining()
            )))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8> {
        self.need(1)?;
        let v = self.src[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(le_u32(self.bytes(4)?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(le_u64(self.bytes(8)?))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)?;
        let head = &self.src[self.pos..self.pos + n];
        self.pos += n;
        Ok(head)
    }

    /// Like [`Reader::bytes`], but returns a shared view of the underlying
    /// buffer instead of a borrow — the zero-copy receive path.
    fn bytes_shared(&mut self, n: usize) -> Result<Bytes> {
        self.need(n)?;
        let view = self.src.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(view)
    }

    fn validity(&mut self, nrows: usize) -> Result<Option<Bitmap>> {
        if self.u8()? == 1 {
            let nbytes = nrows.div_ceil(64) * 8;
            Ok(Some(Bitmap::from_le_bytes(self.bytes(nbytes)?, nrows)?))
        } else {
            Ok(None)
        }
    }

    /// `count` little-endian `W`-byte words, decoded a whole buffer at a
    /// time: `as_chunks` hands out `[u8; W]` arrays, so the conversion has
    /// no length check left in it and the loop vectorises. `count` comes
    /// from the wire, so the byte length is checked before it is compared
    /// with what is left of the buffer.
    fn words<T, const W: usize>(
        &mut self,
        count: usize,
        from_le: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>> {
        let n = count.checked_mul(W).ok_or_else(|| {
            ColumnarError::Corrupt(format!("implausible value count {count} in IPC message"))
        })?;
        let raw = self.bytes(n)?;
        Ok(raw.as_chunks::<W>().0.iter().map(|w| from_le(*w)).collect())
    }

    fn array(&mut self, dt: DataType, nrows: usize) -> Result<Array> {
        let validity = self.validity(nrows)?;
        Ok(match dt {
            DataType::Int64 => Array::Int64(Int64Array {
                values: self.words(nrows, i64::from_le_bytes)?,
                validity,
            }),
            DataType::Float64 => Array::Float64(Float64Array {
                values: self.words(nrows, f64::from_le_bytes)?,
                validity,
            }),
            DataType::Date32 => Array::Date32(Date32Array {
                values: self.words(nrows, i32::from_le_bytes)?,
                validity,
            }),
            DataType::Boolean => {
                let nbytes = nrows.div_ceil(64) * 8;
                let values = Bitmap::from_le_bytes(self.bytes(nbytes)?, nrows)?;
                Array::Boolean(BooleanArray { values, validity })
            }
            DataType::Utf8 => {
                let offsets = self.words(nrows.saturating_add(1), u32::from_le_bytes)?;
                let data_len = self.u32()? as usize;
                if let Some(&last) = offsets.last() {
                    if last as usize != data_len {
                        return Err(ColumnarError::Corrupt(
                            "utf8 offsets do not terminate at data length".into(),
                        ));
                    }
                }
                let data = self.bytes_shared(data_len)?;
                let text = std::str::from_utf8(&data)
                    .map_err(|e| ColumnarError::Corrupt(format!("invalid utf8: {e}")))?;
                // Offsets must be monotone, in range, and cut the data only
                // between characters (`Utf8Array::value` slices by them).
                for w in offsets.windows(2) {
                    if w[0] > w[1] {
                        return Err(ColumnarError::Corrupt("non-monotone utf8 offsets".into()));
                    }
                    if !text.is_char_boundary(w[0] as usize) {
                        return Err(ColumnarError::Corrupt(
                            "utf8 offset splits a code point".into(),
                        ));
                    }
                }
                Array::Utf8(Utf8Array {
                    offsets,
                    data,
                    validity,
                })
            }
        })
    }
}

/// Deserialize one sealed message: verify its checksum, then decode it.
///
/// Takes the shared [`Bytes`] wire buffer so variable-length payloads
/// (Utf8 data) can be aliased zero-copy instead of re-allocated.
pub fn decode_batch(bytes: &Bytes) -> Result<RecordBatch> {
    let _t = obs::KernelTimer::start("columnar.ipc.decode_s");
    read_message(&unseal(bytes)?)
}

/// Deserialize one bare message, whose bytes a container's checksum has
/// already verified. Zero-copy as [`decode_batch`] is.
pub fn decode_message(body: &Bytes) -> Result<RecordBatch> {
    let _t = obs::KernelTimer::start("columnar.ipc.decode_s");
    read_message(body)
}

fn read_message(body: &Bytes) -> Result<RecordBatch> {
    let mut r = Reader { src: body, pos: 0 };
    if r.bytes(4)? != MAGIC {
        return Err(ColumnarError::Corrupt("bad IPC magic".into()));
    }
    let ncols = r.u32()? as usize;
    let nrows = usize::try_from(r.u64()?)
        .map_err(|_| ColumnarError::Corrupt("row count exceeds the address space".into()))?;
    if ncols > 65_536 {
        return Err(ColumnarError::Corrupt(format!(
            "implausible column count {ncols}"
        )));
    }
    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name_len = r.u32()? as usize;
        let name = std::str::from_utf8(r.bytes(name_len)?)
            .map_err(|e| ColumnarError::Corrupt(format!("field name not utf8: {e}")))?
            .to_string();
        let dt = DataType::from_tag(r.u8()?)?;
        let nullable = r.u8()? == 1;
        fields.push(Field::new(name, dt, nullable));
    }
    let schema = Arc::new(Schema::new(fields));
    let mut columns = Vec::with_capacity(ncols);
    for i in 0..ncols {
        let dt = schema.field(i).data_type;
        columns.push(Arc::new(r.array(dt, nrows)?));
    }
    if r.remaining() != 0 {
        return Err(ColumnarError::Corrupt(format!(
            "{} trailing bytes after IPC payload",
            r.remaining()
        )));
    }
    // Columns that contradict the schema they arrived with (nulls under a
    // non-nullable field) are damage on the wire like any other.
    RecordBatch::try_new(schema, columns)
        .map_err(|e| ColumnarError::Corrupt(format!("inconsistent IPC batch: {e}")))
}

// ---------------------------------------------------------------------------
// Frame stream: the streaming boundary's unit of transfer.
// ---------------------------------------------------------------------------

const FRAME_MAGIC: &[u8; 4] = b"CFR3";
/// Fixed frame header size: magic + kind + payload length.
const FRAME_HEADER: usize = 4 + 1 + 4;
/// Upper bound on a single frame's payload — rejects absurd length
/// prefixes before any allocation happens.
pub const MAX_FRAME_BYTES: usize = 1 << 28;

const KIND_SCHEMA: u8 = 1;
const KIND_BATCH: u8 = 2;
const KIND_TRAILER: u8 = 3;

/// One decoded frame of a streaming response.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Stream header: the schema every following batch conforms to.
    Schema(SchemaRef),
    /// One record batch.
    Batch(RecordBatch),
    /// Stream footer: an opaque stats payload (the wire layer above
    /// decides its encoding) marking a complete, well-terminated stream.
    Trailer(Bytes),
}

/// A frame of `kind` whose payload `put_payload` appends, built in one
/// buffer of `capacity` bytes: header, payload, then the checksum over
/// both.
fn build_frame(kind: u8, capacity: usize, put_payload: impl FnOnce(&mut Vec<u8>)) -> Bytes {
    let mut buf = Vec::with_capacity(capacity);
    buf.put_slice(FRAME_MAGIC);
    buf.put_u8(kind);
    buf.put_u32_le(0); // payload length, set once the payload is written
    put_payload(&mut buf);
    let len = (buf.len() - FRAME_HEADER) as u32;
    buf[5..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
    seal(&mut buf, 0);
    buf.into()
}

fn encode_frame(kind: u8, payload: &[u8]) -> Bytes {
    build_frame(kind, FRAME_HEADER + payload.len() + CHECKSUM_BYTES, |buf| {
        buf.put_slice(payload)
    })
}

/// Encode a schema frame (the first frame of every stream).
pub fn encode_schema_frame(schema: &Schema) -> Bytes {
    let mut payload = Vec::new();
    payload.put_u32_le(schema.fields().len() as u32);
    for field in schema.fields() {
        payload.put_u32_le(field.name.len() as u32);
        payload.put_slice(field.name.as_bytes());
        payload.put_u8(field.data_type.tag());
        payload.put_u8(field.nullable as u8);
    }
    encode_frame(KIND_SCHEMA, &payload)
}

/// Encode one batch frame. The payload is the bare CIP3 message, written
/// straight into the frame's buffer, and the frame's checksum is the only
/// one over its bytes.
pub fn encode_batch_frame(batch: &RecordBatch) -> Bytes {
    let capacity = FRAME_HEADER + message_room(batch) + CHECKSUM_BYTES;
    build_frame(KIND_BATCH, capacity, |buf| put_message(buf, batch))
}

/// Encode the trailer frame closing a stream. The payload is opaque to
/// this layer (the OCS wire protocol stores its encoded `ExecStats` here).
pub fn encode_trailer_frame(payload: &[u8]) -> Bytes {
    encode_frame(KIND_TRAILER, payload)
}

fn decode_schema_payload(payload: &Bytes) -> Result<SchemaRef> {
    let mut r = Reader {
        src: payload,
        pos: 0,
    };
    let ncols = r.u32()? as usize;
    if ncols > 65_536 {
        return Err(ColumnarError::Corrupt(format!(
            "implausible column count {ncols} in schema frame"
        )));
    }
    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name_len = r.u32()? as usize;
        let name = std::str::from_utf8(r.bytes(name_len)?)
            .map_err(|e| ColumnarError::Corrupt(format!("field name not utf8: {e}")))?
            .to_string();
        let dt = DataType::from_tag(r.u8()?)?;
        let nullable = r.u8()? == 1;
        fields.push(Field::new(name, dt, nullable));
    }
    if r.remaining() != 0 {
        return Err(ColumnarError::Corrupt(
            "trailing bytes after schema frame".into(),
        ));
    }
    Ok(Arc::new(Schema::new(fields)))
}

/// Incremental frame decoder: feed it wire bytes in arbitrary chunks and
/// pull complete [`Frame`]s out as they become available.
///
/// `next_frame` returns `Ok(None)` while the buffered bytes do not yet
/// form a complete frame; a malformed prefix (bad magic, oversized length,
/// checksum mismatch, unknown kind) is a structured [`ColumnarError`] —
/// never a panic. [`FrameDecoder::finish`] reports bytes left dangling
/// after the producer claims the stream is complete (truncation check).
///
/// Complete frames fed while nothing is buffered are sliced out of the fed
/// [`Bytes`] without a copy, so a decoded batch's Utf8 data aliases the
/// producer's frame. Bytes fed while undecoded ones remain (the start of a
/// partial frame, when frames are drained between feeds) are copied, with
/// those, into one growing buffer until it drains.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Fed bytes not yet decoded, when they arrived with nothing buffered.
    fed: Bytes,
    /// Fed bytes not yet decoded, when a partial frame was buffered as
    /// more arrived. At most one of `fed` and `partial` holds bytes.
    partial: Vec<u8>,
}

impl FrameDecoder {
    /// New decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append wire bytes (any chunking, including byte-at-a-time).
    pub fn feed(&mut self, bytes: Bytes) {
        if self.fed.is_empty() && self.partial.is_empty() {
            self.fed = bytes;
        } else {
            let fed = std::mem::take(&mut self.fed);
            self.partial.extend_from_slice(&fed);
            self.partial.extend_from_slice(&bytes);
        }
    }

    /// Try to decode the next complete frame. `Ok(None)` means "need more
    /// bytes"; errors are fatal for the stream.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        let buf: &[u8] = if self.partial.is_empty() {
            &self.fed
        } else {
            &self.partial
        };
        if buf.len() < FRAME_HEADER {
            return Ok(None);
        }
        if &buf[..4] != FRAME_MAGIC {
            return Err(ColumnarError::Corrupt("bad frame magic".into()));
        }
        let kind = buf[4];
        let payload_len = le_u32(&buf[5..9]) as usize;
        if payload_len > MAX_FRAME_BYTES {
            return Err(ColumnarError::Corrupt(format!(
                "frame payload of {payload_len} bytes exceeds the {MAX_FRAME_BYTES} byte bound"
            )));
        }
        let total = FRAME_HEADER + payload_len + CHECKSUM_BYTES;
        if buf.len() < total {
            return Ok(None);
        }
        let frame = if self.partial.is_empty() {
            let frame = self.fed.slice(..total);
            self.fed = self.fed.slice(total..);
            frame
        } else {
            let rest = self.partial.split_off(total);
            Bytes::from(std::mem::replace(&mut self.partial, rest))
        };
        let payload = unseal(&frame)?.slice(FRAME_HEADER..);
        match kind {
            KIND_SCHEMA => Ok(Some(Frame::Schema(decode_schema_payload(&payload)?))),
            KIND_BATCH => Ok(Some(Frame::Batch(decode_message(&payload)?))),
            KIND_TRAILER => Ok(Some(Frame::Trailer(payload))),
            other => Err(ColumnarError::Corrupt(format!(
                "unknown frame kind {other}"
            ))),
        }
    }

    /// Assert the stream ended cleanly: no partial frame left in the
    /// buffer. Call after the producer signals end-of-stream.
    pub fn finish(&self) -> Result<()> {
        let dangling = self.fed.len() + self.partial.len();
        if dangling == 0 {
            Ok(())
        } else {
            Err(ColumnarError::Corrupt(format!(
                "{dangling} dangling bytes after end of frame stream (truncated frame)"
            )))
        }
    }
}

/// Decode a fully-buffered frame sequence (convenience over
/// [`FrameDecoder`] for tests).
pub fn decode_frames(bytes: &Bytes) -> Result<Vec<Frame>> {
    let mut dec = FrameDecoder::new();
    dec.feed(bytes.clone());
    let mut out = Vec::new();
    while let Some(f) = dec.next_frame()? {
        out.push(f);
    }
    dec.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ArrayBuilder;
    use crate::datatype::Scalar;
    use proptest::prelude::*;

    fn mixed_batch() -> RecordBatch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("i", DataType::Int64, true),
            Field::new("f", DataType::Float64, false),
            Field::new("b", DataType::Boolean, false),
            Field::new("s", DataType::Utf8, true),
            Field::new("d", DataType::Date32, false),
        ]));
        let mut i = ArrayBuilder::new(DataType::Int64);
        i.push_i64(1);
        i.push_null();
        i.push_i64(-7);
        i.push_i64(i64::MIN);
        let mut s = ArrayBuilder::new(DataType::Utf8);
        s.push_str("hello");
        s.push_null();
        s.push_str("");
        s.push_str("naïve 日本");
        RecordBatch::try_new(
            schema,
            vec![
                Arc::new(i.finish()),
                Arc::new(Array::from_f64(vec![0.5, f64::NAN, -1.0, f64::INFINITY])),
                Arc::new(Array::from_bools(vec![true, false, true, true])),
                Arc::new(s.finish()),
                Arc::new(Array::from_dates(vec![0, 10561, -365, i32::MAX])),
            ],
        )
        .unwrap()
    }

    /// The exact bytes `encode_batch` writes, pinned by length and checksum.
    /// Page and frame sizes feed compressed sizes and so every
    /// `results/*.txt`; a wire change must be declared, never slipped in by
    /// an encoder rewrite.
    #[test]
    fn encoded_mixed_batch_bytes_are_pinned() {
        let enc = encode_batch(&mixed_batch());
        assert_eq!((enc.len(), checksum(&enc)), PINNED_MIXED_BATCH);
    }

    const PINNED_MIXED_BATCH: (usize, u64) = (210, 0xE27B_442B_16E5_2EDA);

    /// A dictionary-coded column is its expansion on the wire: same
    /// length, same checksum as the pin above, and it decodes to plain Utf8.
    #[test]
    fn a_dictionary_column_encodes_as_its_expansion() {
        let plain = mixed_batch();
        let entries = Arc::new(Utf8Array::from_strs(["naïve 日本", "", "hello"]));
        let validity = plain.column(3).validity().cloned();
        let dict = crate::dict::DictArray::try_new(vec![2, 99, 1, 0], entries, validity).unwrap();
        let mut columns = plain.columns().to_vec();
        columns[3] = Arc::new(Array::Dict(dict));
        let b = RecordBatch::try_new(plain.schema().clone(), columns).unwrap();
        // (Whole batches never compare equal here: column "f" holds a NaN.)
        assert_eq!(b.column(3), plain.column(3));
        assert_eq!(b.byte_size(), plain.byte_size());
        let enc = encode_batch(&b);
        assert_eq!((enc.len(), checksum(&enc)), PINNED_MIXED_BATCH);
        let back = decode_batch(&enc).unwrap();
        assert_eq!(
            back.column(3).as_utf8().unwrap(),
            plain.column(3).as_utf8().unwrap()
        );
    }

    /// XXH64 (seed 0) written out in full, the merge rounds included when
    /// `merge` is set: the reference the checksum is held against.
    fn reference_xxh64(bytes: &[u8], merge: bool) -> u64 {
        let word = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().unwrap());
        let mut rest = bytes;
        let mut h = if bytes.len() >= 32 {
            let mut v = [
                PRIME64_1.wrapping_add(PRIME64_2),
                PRIME64_2,
                0,
                0u64.wrapping_sub(PRIME64_1),
            ];
            while rest.len() >= 32 {
                for (lane, acc) in v.iter_mut().enumerate() {
                    *acc = round(*acc, word(&rest[8 * lane..]));
                }
                rest = &rest[32..];
            }
            let mut h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            if merge {
                for lane in v {
                    h = (h ^ round(0, lane))
                        .wrapping_mul(PRIME64_1)
                        .wrapping_add(PRIME64_4);
                }
            }
            h
        } else {
            PRIME64_5
        };
        h = h.wrapping_add(bytes.len() as u64);
        while rest.len() >= 8 {
            h ^= round(0, word(rest));
            h = h
                .rotate_left(27)
                .wrapping_mul(PRIME64_1)
                .wrapping_add(PRIME64_4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let half = u32::from_le_bytes(rest[..4].try_into().unwrap());
            h ^= u64::from(half).wrapping_mul(PRIME64_1);
            h = h
                .rotate_left(23)
                .wrapping_mul(PRIME64_2)
                .wrapping_add(PRIME64_3);
            rest = &rest[4..];
        }
        for &byte in rest {
            h ^= u64::from(byte).wrapping_mul(PRIME64_5);
            h = h.rotate_left(11).wrapping_mul(PRIME64_1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME64_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME64_3);
        h ^ (h >> 32)
    }

    /// Published XXH64 (seed 0) vectors: below 32 bytes the checksum is
    /// XXH64. The python-xxhash README string (39 bytes: one stripe, then a
    /// word, a half word and three bytes) pins the full reference above,
    /// merge rounds included; without them the reference is the checksum at
    /// every length from 0 to 300 bytes. Longer inputs are pinned by this
    /// crate's own values.
    #[test]
    fn checksum_matches_reference_vectors() {
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        let spam = b"Nobody inspects the spammish repetition";
        assert_eq!(reference_xxh64(spam, true), 0xFBCE_A83C_8A37_8BF1);
        let mut gen: u64 = 2_654_435_761;
        let data: Vec<u8> = (0..300)
            .map(|_| {
                let byte = (gen >> 56) as u8;
                gen = gen.wrapping_mul(11_400_714_785_074_694_797);
                byte
            })
            .collect();
        for n in 0..=data.len() {
            assert_eq!(
                checksum(&data[..n]),
                reference_xxh64(&data[..n], false),
                "{n} bytes"
            );
        }
        assert_eq!(checksum(spam), 0x97E6_6BF8_9758_34BE);
        assert_eq!(checksum(&data[..32]), 0x935A_4442_8FFF_185E);
        assert_eq!(checksum(&data), 0x0146_D276_B174_9D99);
    }

    /// The one-flip guarantee, exhaustively over small inputs: every byte
    /// position, every nonzero xor mask, at lengths that put the flip in a
    /// stripe word, a tail word, a half word and a tail byte.
    #[test]
    fn every_single_byte_change_changes_the_checksum() {
        for len in [1usize, 5, 13, 32, 45, 71] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let clean = checksum(&data);
            for pos in 0..len {
                let mut bad = data.clone();
                for mask in 1..=255u8 {
                    bad[pos] = data[pos] ^ mask;
                    assert_ne!(
                        checksum(&bad),
                        clean,
                        "len {len}, byte {pos}, mask {mask:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_mixed_batch() {
        let b = mixed_batch();
        let enc = encode_batch(&b);
        let back = decode_batch(&enc).unwrap();
        assert_eq!(back.schema(), b.schema());
        assert_eq!(back.num_rows(), b.num_rows());
        for r in 0..b.num_rows() {
            for c in 0..b.num_columns() {
                let (x, y) = (b.column(c).scalar_at(r), back.column(c).scalar_at(r));
                match (&x, &y) {
                    (Scalar::Float64(a), Scalar::Float64(b)) if a.is_nan() => {
                        assert!(b.is_nan())
                    }
                    _ => assert_eq!(x, y, "row {r} col {c}"),
                }
            }
        }
    }

    #[test]
    fn roundtrip_empty_batch() {
        let b = RecordBatch::empty(mixed_batch().schema().clone());
        let back = decode_batch(&encode_batch(&b)).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.num_columns(), 5);
    }

    #[test]
    fn corruption_detected() {
        let b = mixed_batch();
        let mut enc = encode_batch(&b).to_vec();
        let mid = enc.len() / 2;
        enc[mid] ^= 0xff;
        let enc = Bytes::from(enc);
        assert!(matches!(decode_batch(&enc), Err(ColumnarError::Corrupt(_))));
    }

    #[test]
    fn truncation_detected() {
        let b = mixed_batch();
        let enc = encode_batch(&b);
        assert!(decode_batch(&enc.slice(..enc.len() - 8)).is_err());
        assert!(decode_batch(&Bytes::new()).is_err());
    }

    #[test]
    fn decode_aliases_wire_buffer() {
        // The Utf8 data buffer of a decoded batch must be a view of the
        // encoded bytes, not a copy.
        let b = mixed_batch();
        let enc = encode_batch(&b);
        let back = decode_batch(&enc).unwrap();
        let utf8 = back.column(3).as_utf8().unwrap();
        let data_ptr = utf8.data.as_ptr() as usize;
        let enc_start = enc.as_ptr() as usize;
        assert!(
            data_ptr >= enc_start && data_ptr + utf8.data.len() <= enc_start + enc.len(),
            "utf8 data was copied out of the wire buffer"
        );
    }

    #[test]
    fn wire_size_tracks_byte_size() {
        let b = mixed_batch();
        let enc = encode_batch(&b);
        // Wire size should be within a small constant + buffer sizes.
        assert!(enc.len() >= b.byte_size());
        assert!(enc.len() <= b.byte_size() + 512);
    }

    fn stream_bytes(batches: usize) -> (Vec<u8>, RecordBatch) {
        let b = mixed_batch();
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_schema_frame(b.schema()));
        for _ in 0..batches {
            wire.extend_from_slice(&encode_batch_frame(&b));
        }
        wire.extend_from_slice(&encode_trailer_frame(b"stats-payload"));
        (wire, b)
    }

    #[test]
    fn frame_stream_roundtrip_under_random_chunking() {
        let (wire, b) = stream_bytes(3);
        // Feed in deterministic-but-odd chunk sizes, including 1-byte.
        for chunk in [1usize, 3, 7, 64, 1009, wire.len()] {
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(Bytes::from(piece.to_vec()));
                while let Some(f) = dec.next_frame().unwrap() {
                    frames.push(f);
                }
            }
            dec.finish().unwrap();
            assert_eq!(frames.len(), 5, "chunk size {chunk}");
            assert!(matches!(&frames[0], Frame::Schema(s) if **s == **b.schema()));
            for f in &frames[1..4] {
                match f {
                    Frame::Batch(back) => assert_eq!(back.num_rows(), b.num_rows()),
                    other => panic!("expected batch frame, got {other:?}"),
                }
            }
            assert!(matches!(&frames[4], Frame::Trailer(t) if t.as_ref() == b"stats-payload"));
        }
    }

    #[test]
    fn frame_truncation_is_detected_not_panicked() {
        let (wire, _) = stream_bytes(2);
        // Every proper prefix either yields fewer frames + a finish error,
        // or a structured decode error — never a panic.
        for cut in [1usize, 8, 9, wire.len() / 2, wire.len() - 1] {
            let mut dec = FrameDecoder::new();
            dec.feed(Bytes::from(wire[..cut].to_vec()));
            let mut ok = true;
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                assert!(dec.finish().is_err(), "cut at {cut} looked complete");
            }
        }
    }

    /// Any change to one byte of a schema, batch or trailer frame is a
    /// `Corrupt` error, whichever byte and however it changes.
    #[test]
    fn frame_bitflips_are_structured_errors() {
        let (wire, _) = stream_bytes(1);
        for pos in 0..wire.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut bad = wire.clone();
                bad[pos] ^= mask;
                match decode_frames(&Bytes::from(bad)) {
                    Err(ColumnarError::Corrupt(_)) => {}
                    other => panic!("flip {mask:#x} at byte {pos}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(FRAME_MAGIC);
        frame.push(KIND_BATCH);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(Bytes::from(frame));
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn unknown_frame_kind_is_rejected() {
        let enc = encode_frame(9, b"zzz");
        let mut dec = FrameDecoder::new();
        dec.feed(enc);
        assert!(matches!(dec.next_frame(), Err(ColumnarError::Corrupt(_))));
    }

    #[test]
    fn decode_frames_convenience() {
        let (wire, _) = stream_bytes(2);
        let frames = decode_frames(&Bytes::from(wire)).unwrap();
        assert_eq!(frames.len(), 4);
        assert!(decode_frames(&Bytes::from_static(b"CFR3")).is_err());
        assert!(decode_frames(&Bytes::new()).unwrap().is_empty());
    }

    /// Recompute the trailing checksum after tampering with the body, so
    /// the decoder's structural checks are what the input has to get past.
    fn reseal(msg: &mut Vec<u8>) {
        msg.truncate(msg.len() - CHECKSUM_BYTES);
        seal(msg, 0);
    }

    /// The bare message inside a sealed one: what a batch frame carries.
    fn bare(sealed: &[u8]) -> &[u8] {
        &sealed[..sealed.len() - CHECKSUM_BYTES]
    }

    /// `(offset, width)` of every count, length, tag and flag field in
    /// `encode_batch(b)` (`encoded_len` bytes long): everything the decoder
    /// sizes or dispatches on.
    fn header_fields(b: &RecordBatch, encoded_len: usize) -> Vec<(usize, usize)> {
        let mut out = vec![(4, 4), (8, 8)]; // ncols, nrows
        let mut pos = 16;
        for f in b.schema().fields() {
            out.push((pos, 4)); // name_len
            pos += 4 + f.name.len();
            out.push((pos, 1)); // type tag
            out.push((pos + 1, 1)); // nullable
            pos += 2;
        }
        for col in b.columns() {
            out.push((pos, 1)); // has_validity
            pos += 1 + col.validity().map_or(0, |v| v.to_le_bytes().len());
            pos += match col.as_ref() {
                Array::Int64(a) => a.values.len() * 8,
                Array::Float64(a) => a.values.len() * 8,
                Array::Date32(a) => a.values.len() * 4,
                Array::Boolean(a) => a.values.to_le_bytes().len(),
                Array::Utf8(a) => {
                    pos += a.offsets.len() * 4;
                    out.push((pos, 4)); // data_len
                    4 + a.data.len()
                }
                Array::Dict(_) => unreachable!("the fixtures hold no dictionary column"),
            };
        }
        assert_eq!(pos + CHECKSUM_BYTES, encoded_len, "layout walk drifted");
        out
    }

    /// Overwrite the `width`-byte little-endian field at `at`.
    fn set_field(msg: &mut [u8], (at, width): (usize, usize), value: u64) {
        msg[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    }

    fn field_value(msg: &[u8], (at, width): (usize, usize)) -> u64 {
        let mut raw = [0u8; 8];
        raw[..width].copy_from_slice(&msg[at..at + width]);
        u64::from_le_bytes(raw)
    }

    /// Values that make length arithmetic wrap or run off the buffer, then
    /// neighbours of the true value, then anything.
    fn hostile_value(original: u64, choice: usize, raw: u64) -> u64 {
        const EDGES: [u64; 8] = [
            0,
            1 << 61,       // * 8 wraps to 0
            1 << 62,       // * 4 wraps to 0
            (1 << 62) - 1, // (n + 1) * 4 wraps to 0
            u64::MAX,      // n + 1 wraps to 0
            u32::MAX as u64,
            1 << 31,
            0xff,
        ];
        match choice {
            0..=7 => EDGES[choice],
            8 => original.wrapping_add(1),
            9 => original.wrapping_sub(1),
            _ => raw,
        }
    }

    fn assert_ok_or_corrupt<T>(what: &str, got: Result<T>) {
        match got {
            Ok(_) | Err(ColumnarError::Corrupt(_)) => {}
            Err(e) => panic!("{what}: unexpected error class: {e}"),
        }
    }

    /// A zero-row batch with one non-nullable column: with no validity
    /// words and no values, the row count is the only thing sizing a read.
    fn empty_column(dt: DataType) -> RecordBatch {
        RecordBatch::empty(Arc::new(Schema::new(vec![Field::new("c", dt, false)])))
    }

    #[test]
    fn resealed_row_count_overflow_is_corrupt_not_empty() {
        // Each count makes the column's byte length wrap to zero, which a
        // zero-row message satisfies: without checked arithmetic it decodes
        // as an empty batch in release builds and panics in debug builds.
        for (dt, nrows) in [
            (DataType::Int64, 1u64 << 61),
            (DataType::Float64, 1 << 61),
            (DataType::Date32, 1 << 62),
            (DataType::Utf8, (1 << 62) - 1),
            (DataType::Utf8, u64::MAX),
        ] {
            let mut msg = encode_batch(&empty_column(dt)).to_vec();
            set_field(&mut msg, (8, 8), nrows);
            reseal(&mut msg);
            assert!(
                matches!(
                    decode_batch(&Bytes::from(msg)),
                    Err(ColumnarError::Corrupt(_))
                ),
                "{dt} column, nrows = {nrows:#x}"
            );
        }
    }

    #[test]
    fn resealed_utf8_offset_inside_a_code_point_is_corrupt() {
        // Two rows over the data "é": whole-buffer UTF-8 validity, monotone
        // offsets and the right end offset all hold for [0, 1, 2] as well,
        // and `Utf8Array::value` would then panic in whichever operator
        // reads the column first.
        let schema = Arc::new(Schema::new(vec![Field::new("s", DataType::Utf8, false)]));
        let column = Arc::new(Array::from_strs(["é", ""]));
        let b = RecordBatch::try_new(schema, vec![column]).unwrap();
        let mut msg = encode_batch(&b).to_vec();
        let back = decode_batch(&Bytes::from(msg.clone())).unwrap();
        assert_eq!(back.rows(), b.rows(), "a valid multi-byte column decodes");

        // Tail of the message: offsets 3 x u32 | data_len u32 | "é" | crc.
        let offsets_at = msg.len() - CHECKSUM_BYTES - "é".len() - 4 - 12;
        assert_eq!(field_value(&msg, (offsets_at + 4, 4)), 2);
        set_field(&mut msg, (offsets_at + 4, 4), 1);
        reseal(&mut msg);
        for got in [
            decode_batch(&Bytes::from(msg.clone())).map(|_| ()),
            decode_frames(&encode_frame(KIND_BATCH, bare(&msg))).map(|_| ()),
        ] {
            assert!(matches!(got, Err(ColumnarError::Corrupt(_))), "{got:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bit-flip tests stop at the checksum. Here a header field of a
        /// valid message is overwritten and the message re-sealed, so every
        /// length and tag check behind the checksum is what answers.
        #[test]
        fn resealed_header_mutations_never_panic(
            which in 0usize..5,
            pick in 0usize..1000,
            choice in 0usize..14,
            raw in any::<u64>(),
        ) {
            let b = match which {
                0 => mixed_batch(),
                1 => empty_column(DataType::Int64),
                2 => empty_column(DataType::Date32),
                3 => empty_column(DataType::Utf8),
                _ => empty_column(DataType::Boolean),
            };
            let mut msg = encode_batch(&b).to_vec();
            let fields = header_fields(&b, msg.len());
            let field = fields[pick % fields.len()];
            let value = hostile_value(field_value(&msg, field), choice, raw);
            set_field(&mut msg, field, value);
            reseal(&mut msg);
            let what = format!("field {field:?} = {value:#x}");
            // The same damage inside a frame whose own checksum is good.
            assert_ok_or_corrupt(&what, decode_frames(&encode_frame(KIND_BATCH, bare(&msg))));
            assert_ok_or_corrupt(&what, decode_batch(&Bytes::from(msg)));
        }

        #[test]
        fn resealed_frame_mutations_never_panic(
            pick in 0usize..1000,
            choice in 0usize..14,
            raw in any::<u64>(),
        ) {
            // Schema frame: header (kind, len) and payload fields.
            let b = mixed_batch();
            let mut fields = vec![(4, 1), (5, 4), (FRAME_HEADER, 4)]; // kind, len, ncols
            let mut pos = FRAME_HEADER + 4;
            for f in b.schema().fields() {
                fields.extend([(pos, 4), (pos + 4 + f.name.len(), 1)]); // name_len, tag
                pos += 4 + f.name.len() + 2;
            }
            let schema_field = fields[pick % fields.len()];
            // Batch frame: header only, over an intact CIP message.
            let batch_field = [(4, 1), (5, 4)][pick % 2];
            for (frame, field) in [
                (encode_schema_frame(b.schema()), schema_field),
                (encode_batch_frame(&b), batch_field),
            ] {
                let mut frame = frame.to_vec();
                let value = hostile_value(field_value(&frame, field), choice, raw);
                set_field(&mut frame, field, value);
                // A changed payload length moves the checksum: cut or zero-pad
                // the payload to the declared size (bounded, so nothing huge
                // is allocated here) and seal that.
                let declared = field_value(&frame, (5, 4)) as usize;
                if declared <= 4096 {
                    frame.resize(FRAME_HEADER + declared + CHECKSUM_BYTES, 0);
                }
                reseal(&mut frame);
                assert_ok_or_corrupt(
                    &format!("frame kind {} field {field:?} = {value:#x}", frame[4]),
                    decode_frames(&Bytes::from(frame)),
                );
            }
        }
    }

    #[test]
    fn batch_frames_alias_wire_buffer() {
        // Zero-copy must survive the framing layer: a decoded batch's Utf8
        // data points into the frame bytes fed to the decoder.
        let b = mixed_batch();
        let frame = encode_batch_frame(&b);
        let mut dec = FrameDecoder::new();
        dec.feed(frame.clone());
        let decoded = match dec.next_frame().unwrap() {
            Some(Frame::Batch(batch)) => batch,
            other => panic!("expected batch, got {other:?}"),
        };
        let utf8 = decoded.column(3).as_utf8().unwrap();
        assert_eq!(std::str::from_utf8(&utf8.data).unwrap(), "hellonaïve 日本");
        let (data, wire) = (utf8.data.as_ptr() as usize, frame.as_ptr() as usize);
        assert!(
            data >= wire && data + utf8.data.len() <= wire + frame.len(),
            "utf8 data was copied out of the frame"
        );
    }

    /// A batch frame is the bare message framed: the frame's checksum is
    /// the only one over its bytes, for a batch with every column type and
    /// for an empty one.
    #[test]
    fn batch_frame_is_the_framed_message() {
        for b in [
            mixed_batch(),
            RecordBatch::empty(mixed_batch().schema().clone()),
        ] {
            let sealed = encode_batch(&b);
            let frame = encode_batch_frame(&b);
            assert_eq!(frame, encode_frame(KIND_BATCH, bare(&sealed)));
            assert_eq!(frame.len(), FRAME_HEADER + sealed.len());
        }
    }

    /// A frame split across feeds is gathered in the decoder's own buffer,
    /// and the frames after it are sliced from the fed bytes again.
    #[test]
    fn split_frame_then_whole_frames() {
        let (wire, _) = stream_bytes(3);
        let wire = Bytes::from(wire);
        let schema_len = encode_schema_frame(mixed_batch().schema()).len();
        let mut dec = FrameDecoder::new();
        dec.feed(wire.slice(..schema_len + 5));
        assert!(matches!(dec.next_frame().unwrap(), Some(Frame::Schema(_))));
        assert!(dec.next_frame().unwrap().is_none());
        let frame_len = encode_batch_frame(&mixed_batch()).len();
        dec.feed(wire.slice(schema_len + 5..schema_len + frame_len));
        assert!(matches!(dec.next_frame().unwrap(), Some(Frame::Batch(_))));
        let rest = wire.slice(schema_len + frame_len..);
        dec.feed(rest.clone());
        match dec.next_frame().unwrap() {
            Some(Frame::Batch(batch)) => {
                let data = batch.column(3).as_utf8().unwrap().data.as_ptr() as usize;
                let start = rest.as_ptr() as usize;
                assert!(data >= start && data < start + rest.len(), "copied");
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert!(matches!(dec.next_frame().unwrap(), Some(Frame::Batch(_))));
        assert!(matches!(dec.next_frame().unwrap(), Some(Frame::Trailer(_))));
        dec.finish().unwrap();
    }
}
