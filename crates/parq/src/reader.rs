//! Reading parq files: footer parsing, projected column reads, and
//! statistics-based row-group pruning.

use bytes::{Buf, Bytes};
use columnar::expr::{ExprTree, Node};
use columnar::ipc::{self, CHECKSUM_BYTES};
use columnar::kernels::cmp::CmpOp;
use columnar::prelude::*;
use lzcodec::CodecKind;
use std::sync::Arc;

use crate::encoding::{decode_chunk, Encoding};
use crate::stats::ColumnStats;
use crate::{ParqError, Result, MAGIC};

/// `column op literal`: the one simple-conjunct form, which footer
/// statistics prune row groups with.
#[derive(Debug, Clone, PartialEq)]
pub struct RangePredicate {
    /// Column index in the file schema.
    pub column: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Scalar,
}

impl RangePredicate {
    /// Lower the top-level conjunction of `e` into range predicates:
    /// `column op literal` in either operand order (a literal on the left
    /// flips the operator), `column BETWEEN literal AND literal` as `>=`
    /// and `<=`, and a literal `TRUE` as nothing. `file_columns` maps the
    /// columns `e` references (scan-output positions) to file ordinals;
    /// `None` means they already are file ordinals.
    ///
    /// Conjuncts of any other shape, and columns outside `file_columns`,
    /// are left out: the result may prune row groups, never replace the
    /// filter.
    pub fn lower<E: ExprTree>(e: &E, file_columns: Option<&[usize]>) -> Vec<Self> {
        let mut out = Vec::new();
        Self::lower_into(e, file_columns, &mut out);
        out
    }

    fn lower_into<E: ExprTree>(e: &E, map: Option<&[usize]>, out: &mut Vec<Self>) {
        let mut push = |column: usize, op: CmpOp, value: &Scalar| {
            let column = match map {
                Some(m) => m.get(column).copied(),
                None => Some(column),
            };
            out.extend(column.map(|column| RangePredicate {
                column,
                op,
                value: value.clone(),
            }));
        };
        match e.node() {
            Node::And(a, b) => {
                Self::lower_into(a, map, out);
                Self::lower_into(b, map, out);
            }
            Node::Cmp(op, left, right) => match (left.node(), right.node()) {
                (Node::Column(c), Node::Literal(v)) => push(c, op, v),
                (Node::Literal(v), Node::Column(c)) => push(c, op.flip(), v),
                _ => {}
            },
            Node::Between(x, lo, hi) => {
                if let (Node::Column(c), Node::Literal(lo), Node::Literal(hi)) =
                    (x.node(), lo.node(), hi.node())
                {
                    push(c, CmpOp::GtEq, lo);
                    push(c, CmpOp::LtEq, hi);
                }
            }
            _ => {}
        }
    }

    /// Can a chunk with these stats contain a matching row? Conservative:
    /// returns `true` when unsure.
    pub fn may_match(&self, stats: &ColumnStats) -> bool {
        if stats.row_count == 0 {
            return false;
        }
        if stats.min.is_null() || stats.max.is_null() || self.value.is_null() {
            return true; // all-null chunk or null literal: don't prune
        }
        let lo = &stats.min;
        let hi = &stats.max;
        let v = &self.value;
        match self.op {
            CmpOp::Eq => lo.total_cmp(v).is_le() && hi.total_cmp(v).is_ge(),
            CmpOp::NotEq => {
                // Prunable only if every value equals v.
                !(lo.total_cmp(v).is_eq() && hi.total_cmp(v).is_eq())
            }
            CmpOp::Lt => lo.total_cmp(v).is_lt(),
            CmpOp::LtEq => lo.total_cmp(v).is_le(),
            CmpOp::Gt => hi.total_cmp(v).is_gt(),
            CmpOp::GtEq => hi.total_cmp(v).is_ge(),
        }
    }
}

#[derive(Debug, Clone)]
struct ChunkInfo {
    offset: u64,
    compressed_len: u64,
    uncompressed_len: u64,
    encoding: Encoding,
    stats: ColumnStats,
}

#[derive(Debug, Clone)]
struct RowGroupInfo {
    rows: u64,
    chunks: Vec<ChunkInfo>,
}

/// An open parq file (zero-copy over `Bytes`).
#[derive(Debug, Clone)]
pub struct ParqReader {
    bytes: Bytes,
    schema: SchemaRef,
    codec: CodecKind,
    row_groups: Vec<RowGroupInfo>,
}

/// What follows the footer: its length, the checksum, the closing magic.
const TAIL: usize = 4 + CHECKSUM_BYTES + 4;

impl ParqReader {
    /// Verify the footer of `bytes` against its checksum, then parse it.
    pub fn open(bytes: Bytes) -> Result<ParqReader> {
        let n = bytes.len();
        if n < 4 + TAIL || &bytes[..4] != MAGIC || &bytes[n - 4..] != MAGIC {
            return Err(ParqError::Corrupt("missing parq magic".into()));
        }
        let footer_len = (&bytes[n - TAIL..]).get_u32_le() as usize;
        if footer_len > n - 4 - TAIL {
            return Err(ParqError::Corrupt(format!(
                "footer length {footer_len} exceeds file size {n}"
            )));
        }
        let footer_start = n - TAIL - footer_len;
        let sealed = ipc::unseal(&bytes.slice(footer_start..n - 4))?;
        let mut buf = &sealed[..footer_len];

        macro_rules! need {
            ($n:expr) => {
                if buf.remaining() < $n {
                    return Err(ParqError::Corrupt("truncated footer".into()));
                }
            };
        }

        need!(4);
        let ncols = buf.get_u32_le() as usize;
        if ncols > 65_536 {
            return Err(ParqError::Corrupt(format!(
                "implausible column count {ncols}"
            )));
        }
        let mut fields = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            need!(4);
            let nlen = buf.get_u32_le() as usize;
            need!(nlen + 2);
            let name = std::str::from_utf8(&buf[..nlen])
                .map_err(|e| ParqError::Corrupt(format!("field name: {e}")))?
                .to_string();
            buf.advance(nlen);
            let dt = DataType::from_tag(buf.get_u8()).map_err(ParqError::Columnar)?;
            let nullable = buf.get_u8() == 1;
            fields.push(Field::new(name, dt, nullable));
        }
        need!(5);
        let codec = CodecKind::from_tag(buf.get_u8()).map_err(ParqError::Codec)?;
        let ngroups = buf.get_u32_le() as usize;
        if ngroups > 10_000_000 {
            return Err(ParqError::Corrupt(format!(
                "implausible row-group count {ngroups}"
            )));
        }
        let mut row_groups = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            need!(8);
            let rows = buf.get_u64_le();
            let mut chunks = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                need!(25);
                let offset = buf.get_u64_le();
                let compressed_len = buf.get_u64_le();
                let uncompressed_len = buf.get_u64_le();
                let encoding = Encoding::from_tag(buf.get_u8())?;
                let stats = ColumnStats::read(&mut buf)?;
                // Checked under the checksum too: a sum that wraps must not
                // slip under the bound.
                let in_data = offset
                    .checked_add(compressed_len)
                    .is_some_and(|end| end <= footer_start as u64);
                if !in_data {
                    return Err(ParqError::Corrupt("chunk extends past data section".into()));
                }
                chunks.push(ChunkInfo {
                    offset,
                    compressed_len,
                    uncompressed_len,
                    encoding,
                    stats,
                });
            }
            row_groups.push(RowGroupInfo { rows, chunks });
        }
        if !buf.is_empty() {
            return Err(ParqError::Corrupt("trailing footer bytes".into()));
        }
        Ok(ParqReader {
            bytes,
            schema: Arc::new(Schema::new(fields)),
            codec,
            row_groups,
        })
    }

    /// The file schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The file's compression codec.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// Number of row groups.
    pub fn num_row_groups(&self) -> usize {
        self.row_groups.len()
    }

    /// Total row count.
    pub fn total_rows(&self) -> u64 {
        self.row_groups.iter().map(|g| g.rows).sum()
    }

    /// Statistics of column `col` in row group `rg`.
    pub fn chunk_stats(&self, rg: usize, col: usize) -> Result<&ColumnStats> {
        self.row_groups
            .get(rg)
            .and_then(|g| g.chunks.get(col))
            .map(|c| &c.stats)
            .ok_or_else(|| ParqError::Invalid(format!("no chunk ({rg}, {col})")))
    }

    /// Table-level merged statistics for column `col`.
    pub fn column_stats(&self, col: usize) -> Result<ColumnStats> {
        let mut acc = ColumnStats::empty();
        for rg in 0..self.row_groups.len() {
            acc = acc.merge(self.chunk_stats(rg, col)?);
        }
        Ok(acc)
    }

    fn chunk_info(&self, rg: usize, col: usize) -> Result<&ChunkInfo> {
        self.row_groups
            .get(rg)
            .ok_or_else(|| ParqError::Invalid(format!("row group {rg} out of range")))?
            .chunks
            .get(col)
            .ok_or_else(|| ParqError::Invalid(format!("column {col} out of range")))
    }

    /// Row count of row group `rg` from footer metadata (no decoding).
    pub fn row_group_rows(&self, rg: usize) -> Result<u64> {
        self.row_groups
            .get(rg)
            .map(|g| g.rows)
            .ok_or_else(|| ParqError::Invalid(format!("row group {rg} out of range")))
    }

    /// Compressed on-disk size of one column chunk (what a selective reader
    /// pulls off the disk when it decodes exactly this chunk).
    pub fn chunk_compressed_bytes(&self, rg: usize, col: usize) -> Result<u64> {
        Ok(self.chunk_info(rg, col)?.compressed_len)
    }

    /// Encoded-but-uncompressed size of one column chunk, from footer
    /// metadata. Lets callers account for decode work skipped (e.g. chunks
    /// a selection mask proved unnecessary) without decoding them.
    pub fn chunk_uncompressed_bytes(&self, rg: usize, col: usize) -> Result<u64> {
        Ok(self.chunk_info(rg, col)?.uncompressed_len)
    }

    /// Compressed on-disk size of the chunks a projection touches in one
    /// row group (what a reader must pull off the disk).
    pub fn projected_compressed_bytes(&self, rg: usize, projection: &[usize]) -> Result<u64> {
        let mut total = 0;
        for &c in projection {
            total += self.chunk_compressed_bytes(rg, c)?;
        }
        Ok(total)
    }

    /// Read one column chunk.
    pub fn read_chunk(&self, rg: usize, col: usize) -> Result<Array> {
        let g = self
            .row_groups
            .get(rg)
            .ok_or_else(|| ParqError::Invalid(format!("row group {rg} out of range")))?;
        let ch = g
            .chunks
            .get(col)
            .ok_or_else(|| ParqError::Invalid(format!("column {col} out of range")))?;
        let start = ch.offset as usize;
        let end = start + ch.compressed_len as usize;
        // An uncompressed chunk is a view of the object: Utf8 data decoded
        // from it aliases the object buffer instead of a copy.
        let raw: Bytes = match self.codec {
            CodecKind::None => self.bytes.slice(start..end),
            codec => lzcodec::decompress(codec, &self.bytes[start..end])?.into(),
        };
        // Decode work and late-materialization savings are billed from the
        // footer's length, so it has to be the length that was decoded.
        if raw.len() as u64 != ch.uncompressed_len {
            return Err(ParqError::Corrupt(format!(
                "chunk decompressed to {} bytes, footer declares {}",
                raw.len(),
                ch.uncompressed_len
            )));
        }
        let array = decode_chunk(&raw, ch.encoding)?;
        if array.len() as u64 != g.rows {
            return Err(ParqError::Corrupt(format!(
                "chunk has {} rows, row group declares {}",
                array.len(),
                g.rows
            )));
        }
        Ok(array)
    }

    /// Read row group `rg` with an optional column projection (`None` =
    /// all columns, in schema order).
    pub fn read_row_group(&self, rg: usize, projection: Option<&[usize]>) -> Result<RecordBatch> {
        let indices: Vec<usize> = match projection {
            Some(p) => p.to_vec(),
            None => (0..self.schema.len()).collect(),
        };
        let schema = Arc::new(self.schema.project(&indices)?);
        let mut columns = Vec::with_capacity(indices.len());
        for &c in &indices {
            columns.push(Arc::new(self.read_chunk(rg, c)?));
        }
        RecordBatch::try_new(schema, columns).map_err(ParqError::Columnar)
    }

    /// Row-group indices that may contain rows matching every predicate.
    pub fn prune_row_groups(&self, predicates: &[RangePredicate]) -> Vec<usize> {
        (0..self.row_groups.len())
            .filter(|&rg| {
                predicates.iter().all(|p| {
                    self.row_groups[rg]
                        .chunks
                        .get(p.column)
                        .map(|c| p.may_match(&c.stats))
                        .unwrap_or(true)
                })
            })
            .collect()
    }

    /// Read every row group (optionally projected), one batch per group.
    pub fn read_all(&self, projection: Option<&[usize]>) -> Result<Vec<RecordBatch>> {
        (0..self.row_groups.len())
            .map(|rg| self.read_row_group(rg, projection))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_file, WriteOptions};

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
            Field::new("tag", DataType::Utf8, false),
        ]))
    }

    fn make_file(codec: CodecKind, rg_rows: usize, total: usize) -> Vec<u8> {
        let ids: Vec<i64> = (0..total as i64).collect();
        let vs: Vec<f64> = ids.iter().map(|&i| i as f64 * 0.5).collect();
        let tags: Vec<String> = ids.iter().map(|i| format!("t{}", i % 4)).collect();
        let batch = RecordBatch::try_new(
            schema(),
            vec![
                Arc::new(Array::from_i64(ids)),
                Arc::new(Array::from_f64(vs)),
                Arc::new(Array::from_strs(tags.iter().map(|s| s.as_str()))),
            ],
        )
        .unwrap();
        write_file(
            schema(),
            &[batch],
            WriteOptions {
                codec,
                row_group_rows: rg_rows,
                enable_dictionary: true,
            },
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_multi_row_group() {
        for codec in CodecKind::ALL {
            let bytes = make_file(codec, 100, 350);
            let r = ParqReader::open(bytes.into()).unwrap();
            assert_eq!(r.num_row_groups(), 4);
            assert_eq!(r.total_rows(), 350);
            assert_eq!(r.codec(), codec);
            let batches = r.read_all(None).unwrap();
            let all = RecordBatch::concat(&batches).unwrap();
            assert_eq!(all.num_rows(), 350);
            assert_eq!(all.column(0).scalar_at(349), Scalar::Int64(349));
            assert_eq!(all.column(2).scalar_at(5), Scalar::Utf8("t1".into()));
        }
    }

    #[test]
    fn projection_reads_subset() {
        let bytes = make_file(CodecKind::Snap, 1000, 100);
        let r = ParqReader::open(bytes.into()).unwrap();
        let b = r.read_row_group(0, Some(&[2, 0])).unwrap();
        assert_eq!(b.schema().names(), vec!["tag", "id"]);
        assert_eq!(b.num_rows(), 100);
        // Projected compressed bytes < full width.
        let partial = r.projected_compressed_bytes(0, &[0]).unwrap();
        let full = r.projected_compressed_bytes(0, &[0, 1, 2]).unwrap();
        assert!(partial < full);
    }

    #[test]
    fn chunk_byte_accounting_matches_projections() {
        let bytes = make_file(CodecKind::Gz, 100, 250);
        let r = ParqReader::open(bytes.into()).unwrap();
        for rg in 0..r.num_row_groups() {
            let per_chunk: u64 = (0..3)
                .map(|c| r.chunk_compressed_bytes(rg, c).unwrap())
                .sum();
            assert_eq!(
                per_chunk,
                r.projected_compressed_bytes(rg, &[0, 1, 2]).unwrap()
            );
            let per_chunk_raw: u64 = (0..3)
                .map(|c| r.chunk_uncompressed_bytes(rg, c).unwrap())
                .sum();
            // Uncompressed is never smaller than... not guaranteed per
            // codec, but must be nonzero for non-empty groups.
            assert!(per_chunk_raw > 0);
        }
        assert_eq!(r.row_group_rows(0).unwrap(), 100);
        assert_eq!(r.row_group_rows(2).unwrap(), 50);
        assert!(r.row_group_rows(3).is_err());
        assert!(r.chunk_compressed_bytes(0, 9).is_err());
        assert!(r.chunk_uncompressed_bytes(9, 0).is_err());
    }

    #[test]
    fn stats_populated_and_merged() {
        let bytes = make_file(CodecKind::None, 100, 250);
        let r = ParqReader::open(bytes.into()).unwrap();
        let s0 = r.chunk_stats(0, 0).unwrap();
        assert_eq!(s0.min, Scalar::Int64(0));
        assert_eq!(s0.max, Scalar::Int64(99));
        let merged = r.column_stats(0).unwrap();
        assert_eq!(merged.min, Scalar::Int64(0));
        assert_eq!(merged.max, Scalar::Int64(249));
        assert_eq!(merged.row_count, 250);
        let tags = r.column_stats(2).unwrap();
        assert!(
            tags.distinct >= 4 && tags.distinct <= 8,
            "{}",
            tags.distinct
        );
    }

    #[test]
    fn pruning_skips_nonmatching_groups() {
        let bytes = make_file(CodecKind::None, 100, 400); // groups [0,99],[100,199],...
        let r = ParqReader::open(bytes.into()).unwrap();
        let pred = RangePredicate {
            column: 0,
            op: CmpOp::Gt,
            value: Scalar::Int64(250),
        };
        assert_eq!(r.prune_row_groups(&[pred]), vec![2, 3]);
        let pred = RangePredicate {
            column: 0,
            op: CmpOp::Eq,
            value: Scalar::Int64(150),
        };
        assert_eq!(r.prune_row_groups(&[pred]), vec![1]);
        let pred = RangePredicate {
            column: 0,
            op: CmpOp::Lt,
            value: Scalar::Int64(0),
        };
        assert!(r.prune_row_groups(&[pred]).is_empty());
        // Conjunction.
        let preds = [
            RangePredicate {
                column: 0,
                op: CmpOp::GtEq,
                value: Scalar::Int64(100),
            },
            RangePredicate {
                column: 0,
                op: CmpOp::Lt,
                value: Scalar::Int64(200),
            },
        ];
        assert_eq!(r.prune_row_groups(&preds), vec![1]);
    }

    /// The node kinds the lowering looks at, plus one (`Add`) it must not
    /// see through.
    enum T {
        Col(usize),
        Lit(Scalar),
        Cmp(CmpOp, Box<T>, Box<T>),
        And(Box<T>, Box<T>),
        Or(Box<T>, Box<T>),
        Between(Box<T>, Box<T>, Box<T>),
        Add(Box<T>, Box<T>),
    }

    impl ExprTree for T {
        fn node(&self) -> Node<'_, T> {
            match self {
                T::Col(i) => Node::Column(*i),
                T::Lit(s) => Node::Literal(s),
                T::Cmp(op, l, r) => Node::Cmp(*op, l, r),
                T::And(a, b) => Node::And(a, b),
                T::Or(a, b) => Node::Or(a, b),
                T::Between(x, lo, hi) => Node::Between(x, lo, hi),
                T::Add(l, r) => Node::Arith(columnar::kernels::arith::ArithOp::Add, l, r),
            }
        }
    }

    fn col(i: usize) -> Box<T> {
        Box::new(T::Col(i))
    }

    fn int(v: i64) -> Box<T> {
        Box::new(T::Lit(Scalar::Int64(v)))
    }

    fn range(column: usize, op: CmpOp, v: i64) -> RangePredicate {
        RangePredicate {
            column,
            op,
            value: Scalar::Int64(v),
        }
    }

    #[test]
    fn lowering_flips_a_literal_on_the_left() {
        for (op, flipped) in [
            (CmpOp::Eq, CmpOp::Eq),
            (CmpOp::NotEq, CmpOp::NotEq),
            (CmpOp::Lt, CmpOp::Gt),
            (CmpOp::LtEq, CmpOp::GtEq),
            (CmpOp::Gt, CmpOp::Lt),
            (CmpOp::GtEq, CmpOp::LtEq),
        ] {
            let direct = RangePredicate::lower(&T::Cmp(op, col(2), int(7)), None);
            assert_eq!(direct, vec![range(2, op, 7)]);
            let literal_first = RangePredicate::lower(&T::Cmp(op, int(7), col(2)), None);
            assert_eq!(literal_first, vec![range(2, flipped, 7)]);
        }
    }

    #[test]
    fn lowering_splits_between_and_keeps_what_it_can() {
        // c0 BETWEEN 1 AND 9 AND TRUE AND c1 < 5: all of it lowers.
        let all = T::And(
            Box::new(T::And(
                Box::new(T::Between(col(0), int(1), int(9))),
                Box::new(T::Lit(Scalar::Boolean(true))),
            )),
            Box::new(T::Cmp(CmpOp::Lt, col(1), int(5))),
        );
        let expect = vec![
            range(0, CmpOp::GtEq, 1),
            range(0, CmpOp::LtEq, 9),
            range(1, CmpOp::Lt, 5),
        ];
        assert_eq!(RangePredicate::lower(&all, None), expect);

        // One conjunct that does not lower, on either side: the others are
        // still there for pruning.
        let hidden = || Box::new(T::Cmp(CmpOp::Lt, Box::new(T::Add(col(0), int(1))), int(5)));
        let simple = || Box::new(T::Cmp(CmpOp::Gt, col(1), int(3)));
        for e in [T::And(hidden(), simple()), T::And(simple(), hidden())] {
            let kept = vec![range(1, CmpOp::Gt, 3)];
            assert_eq!(RangePredicate::lower(&e, None), kept);
        }

        // Nothing under an OR, a column-to-column comparison, a non-literal
        // bound or a bare FALSE is a range.
        for e in [
            T::Or(simple(), simple()),
            T::Cmp(CmpOp::Lt, col(0), col(1)),
            T::Between(col(0), int(1), col(1)),
            T::Between(Box::new(T::Add(col(0), int(1))), int(1), int(2)),
            T::Lit(Scalar::Boolean(false)),
        ] {
            assert_eq!(RangePredicate::lower(&e, None), vec![]);
        }
    }

    #[test]
    fn lowering_maps_scan_output_to_file_ordinals() {
        // The scan emits file columns (5, 2); the filter speaks positions.
        let e = T::And(
            Box::new(T::Cmp(CmpOp::Gt, col(1), int(3))),
            Box::new(T::Between(col(0), int(1), int(9))),
        );
        let expect = vec![
            range(2, CmpOp::Gt, 3),
            range(5, CmpOp::GtEq, 1),
            range(5, CmpOp::LtEq, 9),
        ];
        assert_eq!(RangePredicate::lower(&e, Some(&[5, 2])), expect);
        // A column outside the projection is dropped.
        let outside = T::And(
            Box::new(T::Cmp(CmpOp::Gt, col(1), int(3))),
            Box::new(T::Between(col(2), int(1), int(9))),
        );
        let kept = vec![range(2, CmpOp::Gt, 3)];
        assert_eq!(RangePredicate::lower(&outside, Some(&[5, 2])), kept);
    }

    #[test]
    fn pruning_is_conservative_not_exact() {
        // Pruning may keep groups without matches, never drop groups with
        // matches: verify by exhaustive check.
        let bytes = make_file(CodecKind::None, 64, 300);
        let r = ParqReader::open(bytes.into()).unwrap();
        for threshold in [-5i64, 0, 63, 64, 150, 299, 500] {
            let pred = RangePredicate {
                column: 0,
                op: CmpOp::Gt,
                value: Scalar::Int64(threshold),
            };
            let kept = r.prune_row_groups(std::slice::from_ref(&pred));
            for rg in 0..r.num_row_groups() {
                let b = r.read_row_group(rg, Some(&[0])).unwrap();
                let has_match = (0..b.num_rows())
                    .any(|i| b.column(0).scalar_at(i).as_i64().unwrap() > threshold);
                if has_match {
                    assert!(
                        kept.contains(&rg),
                        "group {rg} wrongly pruned at {threshold}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_files_rejected() {
        assert!(ParqReader::open(Bytes::from_static(b"nope")).is_err());
        let bytes = make_file(CodecKind::None, 100, 100);
        // Break the tail magic.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] = b'X';
        assert!(ParqReader::open(bad.into()).is_err());
        // Break the footer length.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - TAIL..n - TAIL + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ParqReader::open(bad.into()).is_err());
    }

    /// Where the footer of `file` starts.
    fn footer_start(file: &[u8]) -> usize {
        let n = file.len();
        let footer_len = u32::from_le_bytes(file[n - TAIL..n - TAIL + 4].try_into().unwrap());
        n - TAIL - footer_len as usize
    }

    /// Recompute the footer checksum after tampering with the footer, so
    /// the structural checks behind it are what the file has to get past.
    fn reseal_footer(file: &mut [u8]) {
        let (start, n) = (footer_start(file), file.len());
        let crc = ipc::checksum(&file[start..n - 4 - CHECKSUM_BYTES]);
        file[n - 4 - CHECKSUM_BYTES..n - 4].copy_from_slice(&crc.to_le_bytes());
    }

    /// A damaged statistic would prune a row group that holds matches:
    /// every byte of the footer and what follows it is checked at `open`.
    #[test]
    fn every_byte_of_the_footer_is_checksummed() {
        let bytes = make_file(CodecKind::None, 100, 400);
        let keeps_group_1 = RangePredicate {
            column: 0,
            op: CmpOp::Eq,
            value: Scalar::Int64(150),
        };
        let r = ParqReader::open(bytes.clone().into()).unwrap();
        assert_eq!(
            r.prune_row_groups(std::slice::from_ref(&keeps_group_1)),
            vec![1]
        );
        for pos in footer_start(&bytes)..bytes.len() {
            for mask in [0x01, 0xff] {
                let mut bad = bytes.clone();
                bad[pos] ^= mask;
                assert!(
                    ParqReader::open(bad.into()).is_err(),
                    "flip {mask:#x} at byte {pos} of {} went undetected",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn wrapping_chunk_extent_in_footer_is_rejected() {
        let bytes = make_file(CodecKind::None, 100, 100);
        // Footer: ncols, three fields (name_len, name, tag, nullable), codec,
        // ngroups, then row group 0: rows, and chunk 0's offset.
        let offset_at = footer_start(&bytes) + 4 + (4 + 2 + 2) + (4 + 1 + 2) + (4 + 3 + 2) + 5 + 8;
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!(field(offset_at), 4, "chunk 0 starts right after the magic");
        let compressed_len = field(offset_at + 8);
        // offset + compressed_len wraps to 4, well inside the data section.
        let mut bad = bytes.clone();
        bad[offset_at..offset_at + 8]
            .copy_from_slice(&(4u64.wrapping_sub(compressed_len)).to_le_bytes());
        reseal_footer(&mut bad);
        assert!(matches!(
            ParqReader::open(bad.into()),
            Err(ParqError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_uncompressed_len_in_footer_is_rejected() {
        for codec in [CodecKind::None, CodecKind::Zst] {
            let bytes = make_file(codec, 100, 100);
            // Same walk as above, two fields further: chunk 0's offset,
            // compressed_len, then uncompressed_len.
            let len_at =
                footer_start(&bytes) + 4 + (4 + 2 + 2) + (4 + 1 + 2) + (4 + 3 + 2) + 5 + 8 + 16;
            let declared = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
            let r = ParqReader::open(bytes.clone().into()).unwrap();
            assert_eq!(r.chunk_uncompressed_bytes(0, 0).unwrap(), declared);
            assert!(r.read_chunk(0, 0).is_ok());
            for off_by_one in [declared - 1, declared + 1] {
                let mut bad = bytes.clone();
                bad[len_at..len_at + 8].copy_from_slice(&off_by_one.to_le_bytes());
                assert!(ParqReader::open(bad.clone().into()).is_err());
                reseal_footer(&mut bad);
                let r = ParqReader::open(bad.into()).unwrap();
                assert!(
                    matches!(r.read_chunk(0, 0), Err(ParqError::Corrupt(_))),
                    "{codec}: footer says {off_by_one}, chunk holds {declared}"
                );
                assert!(r.read_chunk(0, 1).is_ok(), "other chunks are untouched");
            }
        }
    }

    #[test]
    fn uncompressed_utf8_chunk_aliases_the_object_buffer() {
        let schema = Arc::new(Schema::new(vec![Field::new("s", DataType::Utf8, false)]));
        let strs: Vec<String> = (0..200).map(|i| format!("value-{i}")).collect();
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![Arc::new(Array::from_strs(strs.iter().map(|s| s.as_str())))],
        )
        .unwrap();
        for (codec, aliases) in [(CodecKind::None, true), (CodecKind::Zst, false)] {
            let options = WriteOptions {
                codec,
                row_group_rows: 200,
                enable_dictionary: false,
            };
            let object: Bytes = write_file(schema.clone(), std::slice::from_ref(&batch), options)
                .unwrap()
                .into();
            let chunk = ParqReader::open(object.clone())
                .unwrap()
                .read_chunk(0, 0)
                .unwrap();
            let data = &chunk.as_utf8().unwrap().data;
            let inside = object.as_ptr_range().contains(&data.as_ptr())
                && data.as_ptr_range().end <= object.as_ptr_range().end;
            assert_eq!(inside, aliases, "{codec}");
            assert_eq!(chunk, *batch.column(0).as_ref());
        }
    }

    #[test]
    fn empty_file_roundtrip() {
        let bytes = write_file(schema(), &[], WriteOptions::default()).unwrap();
        let r = ParqReader::open(bytes.into()).unwrap();
        assert_eq!(r.num_row_groups(), 0);
        assert_eq!(r.total_rows(), 0);
        assert!(r.read_all(None).unwrap().is_empty());
    }
}
