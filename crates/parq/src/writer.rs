//! Writing parq files.

use bytes::BufMut;
use columnar::ipc;
use columnar::prelude::*;
use lzcodec::CodecKind;

use crate::encoding::{choose_encoding, encode_chunk, Encoding};
use crate::stats::ColumnStats;
use crate::{ParqError, Result, MAGIC};

/// Writer configuration.
#[derive(Debug, Clone)]
pub struct WriteOptions {
    /// Compression codec applied to every column chunk.
    pub codec: CodecKind,
    /// Maximum rows per row group.
    pub row_group_rows: usize,
    /// Allow dictionary encoding for low-cardinality string columns.
    pub enable_dictionary: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            codec: CodecKind::None,
            row_group_rows: 128 * 1024,
            enable_dictionary: true,
        }
    }
}

/// Metadata of one column chunk as recorded in the footer.
#[derive(Debug, Clone)]
pub(crate) struct ChunkMeta {
    pub offset: u64,
    pub compressed_len: u64,
    pub uncompressed_len: u64,
    pub encoding: Encoding,
    pub stats: ColumnStats,
}

/// Metadata of one row group.
#[derive(Debug, Clone)]
pub(crate) struct RowGroupMeta {
    pub rows: u64,
    pub chunks: Vec<ChunkMeta>,
}

/// Streaming writer producing the file bytes in memory.
#[derive(Debug)]
pub struct ParqWriter {
    schema: SchemaRef,
    options: WriteOptions,
    data: Vec<u8>,
    row_groups: Vec<RowGroupMeta>,
    pending: Vec<RecordBatch>,
    pending_rows: usize,
    finished: bool,
}

impl ParqWriter {
    /// New writer for `schema`.
    pub fn new(schema: SchemaRef, options: WriteOptions) -> Self {
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        ParqWriter {
            schema,
            options,
            data,
            row_groups: Vec::new(),
            pending: Vec::new(),
            pending_rows: 0,
            finished: false,
        }
    }

    /// Append a batch (buffered; row groups flush at the configured size).
    pub fn write(&mut self, batch: &RecordBatch) -> Result<()> {
        if self.finished {
            return Err(ParqError::Invalid("writer already finished".into()));
        }
        if batch.schema().as_ref() != self.schema.as_ref() {
            return Err(ParqError::Invalid(format!(
                "batch schema {} does not match writer schema {}",
                batch.schema(),
                self.schema
            )));
        }
        self.pending.push(batch.clone());
        self.pending_rows += batch.num_rows();
        while self.pending_rows >= self.options.row_group_rows {
            self.flush_row_group(self.options.row_group_rows)?;
        }
        Ok(())
    }

    fn take_rows(&mut self, rows: usize) -> Result<RecordBatch> {
        // Concatenate pending and split off `rows`.
        let all = RecordBatch::concat(&self.pending)?;
        self.pending.clear();
        self.pending_rows = 0;
        if all.num_rows() > rows {
            let head: Vec<usize> = (0..rows).collect();
            let tail: Vec<usize> = (rows..all.num_rows()).collect();
            let head_batch = columnar::kernels::selection::take_batch(&all, &head)?;
            let tail_batch = columnar::kernels::selection::take_batch(&all, &tail)?;
            self.pending_rows = tail_batch.num_rows();
            self.pending.push(tail_batch);
            Ok(head_batch)
        } else {
            Ok(all)
        }
    }

    fn flush_row_group(&mut self, rows: usize) -> Result<()> {
        if self.pending_rows == 0 {
            return Ok(());
        }
        let group = self.take_rows(rows.min(self.pending_rows))?;
        let mut chunks = Vec::with_capacity(group.num_columns());
        for col in group.columns() {
            let encoding = if self.options.enable_dictionary {
                choose_encoding(col)
            } else {
                Encoding::Plain
            };
            let raw = encode_chunk(col, encoding)?;
            let compressed = lzcodec::compress(self.options.codec, &raw);
            let offset = self.data.len() as u64;
            self.data.extend_from_slice(&compressed);
            chunks.push(ChunkMeta {
                offset,
                compressed_len: compressed.len() as u64,
                uncompressed_len: raw.len() as u64,
                encoding,
                stats: ColumnStats::compute(col),
            });
        }
        self.row_groups.push(RowGroupMeta {
            rows: group.num_rows() as u64,
            chunks,
        });
        Ok(())
    }

    /// Flush pending rows, write the footer and return the file bytes.
    pub fn finish(mut self) -> Result<Vec<u8>> {
        self.flush_row_group(usize::MAX)?;
        self.finished = true;

        let footer_start = self.data.len();
        let footer = &mut self.data;
        // Schema.
        footer.put_u32_le(self.schema.len() as u32);
        for f in self.schema.fields() {
            footer.put_u32_le(f.name.len() as u32);
            footer.put_slice(f.name.as_bytes());
            footer.put_u8(f.data_type.tag());
            footer.put_u8(f.nullable as u8);
        }
        footer.put_u8(self.options.codec.tag());
        footer.put_u32_le(self.row_groups.len() as u32);
        for rg in &self.row_groups {
            footer.put_u64_le(rg.rows);
            for ch in &rg.chunks {
                footer.put_u64_le(ch.offset);
                footer.put_u64_le(ch.compressed_len);
                footer.put_u64_le(ch.uncompressed_len);
                footer.put_u8(ch.encoding.tag());
                ch.stats.write(footer);
            }
        }
        let footer_len = (footer.len() - footer_start) as u32;
        footer.put_u32_le(footer_len);
        ipc::seal(footer, footer_start);
        footer.extend_from_slice(MAGIC);
        Ok(self.data)
    }
}

/// Convenience: write `batches` (all sharing `schema`) into file bytes.
pub fn write_file(
    schema: SchemaRef,
    batches: &[RecordBatch],
    options: WriteOptions,
) -> Result<Vec<u8>> {
    let mut w = ParqWriter::new(schema, options);
    for b in batches {
        w.write(b)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("name", DataType::Utf8, false),
        ]))
    }

    fn batch(n: usize, offset: i64) -> RecordBatch {
        let ids: Vec<i64> = (0..n as i64).map(|i| i + offset).collect();
        let names: Vec<String> = ids.iter().map(|i| format!("row{}", i % 3)).collect();
        RecordBatch::try_new(
            schema(),
            vec![
                Arc::new(Array::from_i64(ids)),
                Arc::new(Array::from_strs(names.iter().map(|s| s.as_str()))),
            ],
        )
        .unwrap()
    }

    #[test]
    fn writes_file_with_magic_and_footer() {
        let bytes = write_file(schema(), &[batch(10, 0)], WriteOptions::default()).unwrap();
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(&bytes[bytes.len() - 4..], MAGIC);
    }

    #[test]
    fn row_group_splitting() {
        let opts = WriteOptions {
            row_group_rows: 16,
            ..Default::default()
        };
        let mut w = ParqWriter::new(schema(), opts);
        w.write(&batch(40, 0)).unwrap(); // flushes 16 + 16, 8 pending
        w.write(&batch(10, 40)).unwrap(); // 18 pending -> flushes 16, 2 pending
        assert_eq!(w.row_groups.len(), 3, "groups flushed eagerly at 16 rows");
        let bytes = w.finish().unwrap();
        let r = crate::reader::ParqReader::open(bytes.into()).unwrap();
        assert_eq!(r.num_row_groups(), 4, "finish flushes the 2-row tail");
        assert_eq!(r.total_rows(), 50);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let other = Arc::new(Schema::new(vec![Field::new("z", DataType::Float64, false)]));
        let bad = RecordBatch::try_new(other, vec![Arc::new(Array::from_f64(vec![1.0]))]).unwrap();
        let mut w = ParqWriter::new(schema(), WriteOptions::default());
        assert!(w.write(&bad).is_err());
    }

    #[test]
    fn empty_file_is_valid() {
        let bytes = write_file(schema(), &[], WriteOptions::default()).unwrap();
        assert!(bytes.len() >= 12);
    }

    #[test]
    fn compression_shrinks_repetitive_data() {
        let b = batch(10_000, 0);
        let raw = write_file(schema(), std::slice::from_ref(&b), WriteOptions::default()).unwrap();
        let zst = write_file(
            schema(),
            &[b],
            WriteOptions {
                codec: CodecKind::Zst,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(zst.len() < raw.len() / 2, "{} vs {}", zst.len(), raw.len());
    }
}
