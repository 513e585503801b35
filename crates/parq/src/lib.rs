//! `parq` — a Parquet-like columnar file format.
//!
//! Provides the storage-format properties the paper's system relies on:
//!
//! * **row groups** of configurable size, each holding one **column chunk**
//!   per column, so readers fetch only the columns a query references;
//! * per-chunk **statistics** (min/max, null count, distinct-value
//!   estimate) feeding both row-group pruning and the connector's
//!   Selectivity Analyzer (the paper's Hive-metastore statistics);
//! * **plain** and **dictionary** page encodings;
//! * pluggable **compression** per file via [`lzcodec`] (None / Snap / Gz /
//!   Zst), the knob Figure 6 sweeps.
//!
//! Layout:
//!
//! ```text
//! magic "PQL2"
//! column chunk data (compressed pages), row group by row group
//! footer: schema, codec, row-group directory with per-chunk
//!         offsets/lengths/encodings/statistics
//! footer length u32 | crc u64 (over footer and length) | magic "PQL2"
//! ```
//!
//! Each page and the footer end in one `columnar::ipc::checksum` of their
//! own bytes (a compressed page's checksum is inside it, over the bytes it
//! decompresses to). [`ParqReader::open`] verifies the footer once, so a
//! damaged statistic can never prune a row group that holds matches.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use columnar::prelude::*;
//! use parq::{ParqReader, ParqWriter, WriteOptions};
//!
//! let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, false)]));
//! let batch = RecordBatch::try_new(
//!     schema.clone(),
//!     vec![Arc::new(Array::from_i64((0..100).collect()))],
//! ).unwrap();
//!
//! let mut w = ParqWriter::new(schema, WriteOptions::default());
//! w.write(&batch).unwrap();
//! let bytes = w.finish().unwrap();
//!
//! let r = ParqReader::open(bytes.into()).unwrap();
//! assert_eq!(r.total_rows(), 100);
//! let back = r.read_all(None).unwrap();
//! assert_eq!(back[0].num_rows(), 100);
//! ```

#![warn(missing_docs)]

pub mod encoding;
pub mod reader;
pub mod stats;
pub mod writer;

/// The codec vocabulary of [`WriteOptions::codec`] and
/// [`ParqReader::codec`], re-exported so layers above need not name
/// `lzcodec` to carry a file's codec around.
pub use lzcodec::CodecKind;
pub use reader::{ParqReader, RangePredicate};
pub use stats::ColumnStats;
pub use writer::{ParqWriter, WriteOptions};

use std::fmt;

/// Magic bytes bracketing every file.
pub const MAGIC: &[u8; 4] = b"PQL2";

/// Errors from reading/writing parq files.
#[derive(Debug)]
pub enum ParqError {
    /// Structurally invalid file.
    Corrupt(String),
    /// Error from the columnar layer.
    Columnar(columnar::ColumnarError),
    /// Error from the compression layer.
    Codec(lzcodec::CodecError),
    /// API misuse (e.g. schema mismatch on write).
    Invalid(String),
}

impl fmt::Display for ParqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParqError::Corrupt(m) => write!(f, "corrupt parq file: {m}"),
            ParqError::Columnar(e) => write!(f, "columnar error: {e}"),
            ParqError::Codec(e) => write!(f, "codec error: {e}"),
            ParqError::Invalid(m) => write!(f, "invalid parq operation: {m}"),
        }
    }
}

impl std::error::Error for ParqError {}

impl From<columnar::ColumnarError> for ParqError {
    fn from(e: columnar::ColumnarError) -> Self {
        ParqError::Columnar(e)
    }
}

impl From<lzcodec::CodecError> for ParqError {
    fn from(e: lzcodec::CodecError) -> Self {
        ParqError::Codec(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, ParqError>;
