//! The S3-Select-like scan API: **projection + conjunctive filtering only**.
//!
//! This is the capability ceiling of conventional object storage that the
//! paper's introduction describes — the reason aggregation and top-N must
//! normally run at the compute layer. The `ocs` crate's embedded engine is
//! the contrast: it accepts full Substrait plans.
//!
//! A conjunct is a [`parq::RangePredicate`] (`column op literal`), the one
//! simple-predicate form: the value a caller lowers its filter into
//! ([`RangePredicate::lower`]) is the value that prunes row groups from
//! footer statistics and the value evaluated here against the rows read.
//! The read itself is eager — every needed column of every surviving row
//! group is decoded, then filtered.

use columnar::kernels::{boolean, cmp, selection};
use columnar::prelude::*;
use parq::{ParqReader, RangePredicate};

use crate::{ObjectStore, Result, StoreError};

/// A select request: which columns to return, which rows to keep.
#[derive(Debug, Clone, Default)]
pub struct SelectRequest {
    /// Columns to return, in order; `None` = all columns.
    pub projection: Option<Vec<String>>,
    /// Conjunctive predicates (all must hold) over file column ordinals.
    pub predicates: Vec<RangePredicate>,
}

/// Accounting for one select call, consumed by the caller's cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelectStats {
    /// Compressed bytes pulled off the (simulated) disk.
    pub disk_bytes: u64,
    /// Uncompressed bytes materialized after decompression.
    pub uncompressed_bytes: u64,
    /// Rows scanned (after row-group pruning).
    pub rows_scanned: u64,
    /// Rows returned after filtering.
    pub rows_returned: u64,
    /// Bytes of the result batches (what would cross the network).
    pub returned_bytes: u64,
}

/// A select result: filtered/projected batches plus accounting.
#[derive(Debug, Clone)]
pub struct SelectResponse {
    /// One batch per surviving row group.
    pub batches: Vec<RecordBatch>,
    /// Resource accounting.
    pub stats: SelectStats,
    /// Compression codec of the scanned object (for decompression billing).
    pub codec: parq::CodecKind,
}

fn sel_err(e: impl std::fmt::Display) -> StoreError {
    StoreError::Select(e.to_string())
}

/// Run a select against one parq object. Only projection and conjunctive
/// comparison/range filters are expressible — by design.
pub fn select(
    store: &ObjectStore,
    bucket: &str,
    key: &str,
    request: &SelectRequest,
) -> Result<SelectResponse> {
    let bytes = store.get_object(bucket, key)?;
    let reader = ParqReader::open(bytes).map_err(sel_err)?;
    let schema = reader.schema().clone();

    // Read set: the requested columns, then the predicate columns they
    // lack. Each predicate remembers where its column sits in the batches
    // read; projecting onto the leading positions drops the filter-only
    // columns again.
    let mut read_set: Vec<usize> = match &request.projection {
        Some(names) => names
            .iter()
            .map(|n| schema.index_of(n).map_err(sel_err))
            .collect::<Result<_>>()?,
        None => (0..schema.len()).collect(),
    };
    let out_pos: Vec<usize> = (0..read_set.len()).collect();
    let mut pred_pos = Vec::with_capacity(request.predicates.len());
    for p in &request.predicates {
        if p.column >= schema.len() {
            return Err(sel_err(format!("no column #{} to filter on", p.column)));
        }
        let known = read_set.iter().position(|&c| c == p.column);
        pred_pos.push(known.unwrap_or_else(|| {
            read_set.push(p.column);
            read_set.len() - 1
        }));
    }

    // Row-group pruning from footer statistics.
    let groups = reader.prune_row_groups(&request.predicates);

    let mut stats = SelectStats::default();
    let mut batches = Vec::with_capacity(groups.len());
    for rg in groups {
        stats.disk_bytes += reader
            .projected_compressed_bytes(rg, &read_set)
            .map_err(sel_err)?;
        let batch = reader
            .read_row_group(rg, Some(&read_set))
            .map_err(sel_err)?;
        stats.uncompressed_bytes += batch.byte_size() as u64;
        stats.rows_scanned += batch.num_rows() as u64;

        // Evaluate the conjunction.
        let mut mask: Option<columnar::BooleanArray> = None;
        for (p, &pos) in request.predicates.iter().zip(&pred_pos) {
            let m = cmp::compare_scalar(batch.column(pos), &p.value, p.op).map_err(sel_err)?;
            mask = Some(match mask {
                Some(acc) => boolean::and(&acc, &m).map_err(sel_err)?,
                None => m,
            });
        }
        let filtered = match mask {
            Some(m) => selection::filter_batch(&batch, &m).map_err(sel_err)?,
            None => batch,
        };
        let result = filtered.project(&out_pos).map_err(sel_err)?;
        stats.rows_returned += result.num_rows() as u64;
        stats.returned_bytes += result.byte_size() as u64;
        if result.num_rows() > 0 {
            batches.push(result);
        }
    }
    Ok(SelectResponse {
        batches,
        stats,
        codec: reader.codec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use columnar::kernels::cmp::CmpOp;
    use lzcodec::CodecKind;
    use parq::WriteOptions;
    use std::sync::Arc;

    fn store_with_table(codec: CodecKind) -> ObjectStore {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
            Field::new("tag", DataType::Utf8, false),
        ]));
        let ids: Vec<i64> = (0..1000).collect();
        let vs: Vec<f64> = ids.iter().map(|&i| i as f64 / 100.0).collect();
        let tags: Vec<String> = ids.iter().map(|i| format!("g{}", i % 5)).collect();
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![
                Arc::new(Array::from_i64(ids)),
                Arc::new(Array::from_f64(vs)),
                Arc::new(Array::from_strs(tags.iter().map(|s| s.as_str()))),
            ],
        )
        .unwrap();
        let bytes = parq::writer::write_file(
            schema,
            &[batch],
            WriteOptions {
                codec,
                row_group_rows: 100,
                enable_dictionary: true,
            },
        )
        .unwrap();
        let s = ObjectStore::new();
        s.create_bucket("lake").unwrap();
        s.put_object("lake", "t/part-0", Bytes::from(bytes))
            .unwrap();
        s
    }

    #[test]
    fn full_scan_no_predicates() {
        let s = store_with_table(CodecKind::None);
        let resp = select(&s, "lake", "t/part-0", &SelectRequest::default()).unwrap();
        let total: usize = resp.batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 1000);
        assert_eq!(resp.stats.rows_scanned, 1000);
        assert_eq!(resp.stats.rows_returned, 1000);
    }

    #[test]
    fn filter_and_project() {
        let s = store_with_table(CodecKind::Snap);
        let req = SelectRequest {
            projection: Some(vec!["v".into(), "id".into()]),
            predicates: vec![RangePredicate {
                column: 0,
                op: CmpOp::GtEq,
                value: Scalar::Int64(950),
            }],
        };
        let resp = select(&s, "lake", "t/part-0", &req).unwrap();
        assert_eq!(resp.stats.rows_returned, 50);
        // Pruning means only the last row group is scanned.
        assert_eq!(resp.stats.rows_scanned, 100);
        let b = &resp.batches[0];
        assert_eq!(b.schema().names(), vec!["v", "id"]);
        // Returned bytes reflect the filtered, projected payload only.
        assert!(resp.stats.returned_bytes < resp.stats.uncompressed_bytes);
    }

    #[test]
    fn between_predicate() {
        let s = store_with_table(CodecKind::None);
        let req = SelectRequest {
            projection: Some(vec!["id".into()]),
            predicates: vec![
                RangePredicate {
                    column: 1,
                    op: CmpOp::GtEq,
                    value: Scalar::Float64(1.0),
                },
                RangePredicate {
                    column: 1,
                    op: CmpOp::LtEq,
                    value: Scalar::Float64(1.05),
                },
            ],
        };
        let resp = select(&s, "lake", "t/part-0", &req).unwrap();
        // v in [1.0, 1.05] -> ids 100..=105.
        assert_eq!(resp.stats.rows_returned, 6);
        let ids: Vec<i64> = resp
            .batches
            .iter()
            .flat_map(|b| b.column(0).as_i64().unwrap().values.clone())
            .collect();
        assert_eq!(ids, vec![100, 101, 102, 103, 104, 105]);
    }

    #[test]
    fn predicate_on_unprojected_column() {
        let s = store_with_table(CodecKind::None);
        let req = SelectRequest {
            projection: Some(vec!["tag".into()]),
            predicates: vec![RangePredicate {
                column: 0,
                op: CmpOp::Lt,
                value: Scalar::Int64(3),
            }],
        };
        let resp = select(&s, "lake", "t/part-0", &req).unwrap();
        assert_eq!(resp.stats.rows_returned, 3);
        assert_eq!(resp.batches[0].schema().names(), vec!["tag"]);
    }

    #[test]
    fn string_equality_filter() {
        let s = store_with_table(CodecKind::Zst);
        let req = SelectRequest {
            projection: Some(vec!["id".into()]),
            predicates: vec![RangePredicate {
                column: 2,
                op: CmpOp::Eq,
                value: Scalar::Utf8("g3".into()),
            }],
        };
        let resp = select(&s, "lake", "t/part-0", &req).unwrap();
        assert_eq!(resp.stats.rows_returned, 200);
        assert_eq!(resp.codec, CodecKind::Zst);
    }

    #[test]
    fn compression_reduces_disk_bytes() {
        let raw = store_with_table(CodecKind::None);
        let zst = store_with_table(CodecKind::Zst);
        let req = SelectRequest::default();
        let a = select(&raw, "lake", "t/part-0", &req).unwrap().stats;
        let b = select(&zst, "lake", "t/part-0", &req).unwrap().stats;
        assert!(
            b.disk_bytes < a.disk_bytes,
            "{} vs {}",
            b.disk_bytes,
            a.disk_bytes
        );
        assert_eq!(a.rows_returned, b.rows_returned);
    }

    #[test]
    fn errors_are_clean() {
        let s = store_with_table(CodecKind::None);
        // Unknown column.
        let req = SelectRequest {
            projection: Some(vec!["nope".into()]),
            predicates: vec![],
        };
        assert!(matches!(
            select(&s, "lake", "t/part-0", &req),
            Err(StoreError::Select(_))
        ));
        // Predicate on a column the file does not have.
        let req = SelectRequest {
            projection: None,
            predicates: vec![RangePredicate {
                column: 3,
                op: CmpOp::Eq,
                value: Scalar::Int64(0),
            }],
        };
        assert!(matches!(
            select(&s, "lake", "t/part-0", &req),
            Err(StoreError::Select(_))
        ));
        // Not a parq object.
        s.put_object("lake", "junk", Bytes::from_static(b"not parquet"))
            .unwrap();
        assert!(select(&s, "lake", "junk", &SelectRequest::default()).is_err());
        // Missing object.
        assert!(matches!(
            select(&s, "lake", "missing", &SelectRequest::default()),
            Err(StoreError::NoSuchKey(_))
        ));
    }

    /// Row-group pruning and the conjunction evaluated per group must
    /// agree with the conjunction evaluated row by row on the whole,
    /// unpruned object — for every codec, since pruning reads only the
    /// footer and must not depend on what the pages look like.
    #[test]
    fn pruned_select_matches_unpruned_evaluation() {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ];
        // SplitMix64: seeded, dependency-free.
        let mut state = 0x0c5_5eed_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let mut pruned = 0;
        for codec in [CodecKind::None, CodecKind::Snap, CodecKind::Zst] {
            let s = store_with_table(codec);
            let whole = ParqReader::open(s.get_object("lake", "t/part-0").unwrap()).unwrap();
            let whole = RecordBatch::concat(&whole.read_all(None).unwrap()).unwrap();
            for case in 0..60 {
                let predicates: Vec<RangePredicate> = (0..1 + next(3))
                    .map(|_| {
                        // Literals a little past both ends of each column.
                        let at = next(1100) as i64 - 50;
                        let (column, value) = match next(3) {
                            0 => (0, Scalar::Int64(at)),
                            1 => (1, Scalar::Float64(at as f64 / 100.0)),
                            _ => (2, Scalar::Utf8(format!("g{}", at.rem_euclid(7)))),
                        };
                        RangePredicate {
                            column,
                            op: OPS[next(6) as usize],
                            value,
                        }
                    })
                    .collect();
                let holds = |row: usize, p: &RangePredicate| {
                    let ord = whole.column(p.column).scalar_at(row).total_cmp(&p.value);
                    match p.op {
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::NotEq => ord.is_ne(),
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::LtEq => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::GtEq => ord.is_ge(),
                    }
                };
                let expect: Vec<i64> = (0..whole.num_rows())
                    .filter(|&row| predicates.iter().all(|p| holds(row, p)))
                    .map(|row| row as i64)
                    .collect();
                let req = SelectRequest {
                    projection: Some(vec!["id".into()]),
                    predicates,
                };
                let resp = select(&s, "lake", "t/part-0", &req).unwrap();
                let got: Vec<i64> = resp
                    .batches
                    .iter()
                    .flat_map(|b| b.column(0).as_i64().unwrap().values.clone())
                    .collect();
                assert_eq!(got, expect, "{codec:?} case {case}: {:?}", req.predicates);
                assert!(resp.stats.rows_scanned >= expect.len() as u64);
                pruned += (resp.stats.rows_scanned < 1000) as usize;
            }
        }
        assert!(pruned > 30, "only {pruned} of 180 cases pruned a row group");
    }
}
