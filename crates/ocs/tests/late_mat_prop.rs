//! Property test: the late-materialized scan pipeline is observationally
//! identical to the naive read-everything-then-filter reference on random
//! data, random projections, and random range predicates — while never
//! reading or decoding more bytes than an eager scan of the row groups
//! that survive statistics pruning. The same scan with no filter is
//! exactly that eager scan, and a constant predicate over it changes the
//! rows, never the scan.

use std::sync::Arc;

use columnar::kernels::cmp::CmpOp;
use columnar::kernels::selection;
use columnar::prelude::*;
use netsim::CostParams;
use ocs::exec::{Executor, ExecutorStats};
use parq::{ParqReader, RangePredicate};
use proptest::prelude::*;
use substrait_ir::{Expr, Plan, Rel};

fn base_schema() -> Schema {
    Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("b", DataType::Float64, false),
        Field::new("c", DataType::Int64, false),
    ])
}

/// Deterministic pseudo-random table split into 32-row groups.
fn make_reader(seed: u64, rows: usize) -> ParqReader {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut a = Vec::with_capacity(rows);
    let mut b = Vec::with_capacity(rows);
    let mut c = Vec::with_capacity(rows);
    for _ in 0..rows {
        let v = next();
        a.push((v % 200) as i64);
        b.push((next() % 1000) as f64 / 10.0);
        c.push((next() % 5) as i64);
    }
    let schema = Arc::new(base_schema());
    let batch = RecordBatch::try_new(
        schema.clone(),
        vec![
            Arc::new(Array::from_i64(a)),
            Arc::new(Array::from_f64(b)),
            Arc::new(Array::from_i64(c)),
        ],
    )
    .unwrap();
    let bytes = parq::writer::write_file(
        schema,
        &[batch],
        parq::WriteOptions {
            row_group_rows: 32,
            ..Default::default()
        },
    )
    .unwrap();
    ParqReader::open(bytes.into()).unwrap()
}

/// A range predicate over output position `pos` whose literal type matches
/// the underlying file column.
fn make_predicate(pos: usize, file_col: usize, op: usize, lo: i64, span: i64) -> Expr {
    let lit = |v: i64| {
        if file_col == 1 {
            Expr::lit(Scalar::Float64(v as f64))
        } else {
            Expr::lit(Scalar::Int64(v))
        }
    };
    match op {
        0 => Expr::cmp(CmpOp::Lt, Expr::field(pos), lit(lo)),
        1 => Expr::cmp(CmpOp::GtEq, Expr::field(pos), lit(lo)),
        2 => Expr::cmp(CmpOp::Eq, Expr::field(pos), lit(lo)),
        _ => Expr::Between {
            expr: Box::new(Expr::field(pos)),
            lo: Box::new(lit(lo)),
            hi: Box::new(lit(lo + span)),
        },
    }
}

/// The read projections every property draws from.
fn projection(pick: usize) -> Option<Vec<usize>> {
    [None, Some(vec![0, 1, 2]), Some(vec![2, 0]), Some(vec![1])][pick].clone()
}

fn run(reader: &ParqReader, root: Rel) -> (Vec<RecordBatch>, ExecutorStats) {
    let plan = Plan::new(root);
    let verified = substrait_ir::planck::verify_untrusted(&plan).unwrap();
    Executor::new(reader, &CostParams::default())
        .run(&verified)
        .unwrap()
}

/// `[rows_scanned, uncompressed_bytes, disk_bytes]`, as [`eager_bounds`].
fn scan_counters(s: &ExecutorStats) -> [u64; 3] {
    [s.wire.rows_scanned, s.uncompressed_bytes, s.wire.disk_bytes]
}

fn flat_rows(batches: &[RecordBatch]) -> Vec<Vec<Scalar>> {
    batches
        .iter()
        .flat_map(|b| (0..b.num_rows()).map(|r| b.row(r)).collect::<Vec<_>>())
        .collect()
}

/// The naive reference: decode every projected column of every row group
/// (no pruning, no late materialization), then filter each batch.
fn naive_scan(
    reader: &ParqReader,
    projection: Option<&[usize]>,
    predicate: &Expr,
) -> Vec<Vec<Scalar>> {
    let batches = reader.read_all(projection).unwrap();
    let mut out = Vec::new();
    for b in &batches {
        let mask = predicate.eval(b).unwrap();
        let mask = mask.as_bool().unwrap();
        let f = selection::filter_batch(b, mask).unwrap();
        if f.num_rows() > 0 {
            out.push(f);
        }
    }
    flat_rows(&out)
}

/// What an eager scan costs, from the reader alone: every projected chunk
/// of every row group `prune_row_groups` keeps is read and decoded before
/// the filter runs. `[rows_scanned, uncompressed_bytes, disk_bytes]`.
fn eager_bounds(reader: &ParqReader, projection: Option<&[usize]>, predicate: &Expr) -> [u64; 3] {
    let prune = RangePredicate::lower(predicate, projection);
    let cols: Vec<usize> = projection.map_or_else(|| (0..3).collect(), <[usize]>::to_vec);
    let mut bounds = [0u64; 3];
    for rg in reader.prune_row_groups(&prune) {
        bounds[0] += reader.row_group_rows(rg).unwrap();
        bounds[1] += reader.read_row_group(rg, projection).unwrap().byte_size() as u64;
        bounds[2] += reader.projected_compressed_bytes(rg, &cols).unwrap();
    }
    bounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn late_mat_equals_naive_read_then_filter(
        seed in any::<u64>(),
        rows in 40usize..300,
        proj_pick in 0usize..4,
        filter_pick in 0usize..3,
        op in 0usize..4,
        lo in -50i64..250,
        span in 0i64..150,
    ) {
        let reader = make_reader(seed, rows);
        let projection = projection(proj_pick);
        let out_len = projection.as_ref().map_or(3, |p| p.len());
        let pos = filter_pick % out_len;
        let file_col = projection.as_ref().map_or(pos, |p| p[pos]);
        let predicate = make_predicate(pos, file_col, op, lo, span);

        let (late, late_stats) = run(&reader, Rel::Filter {
            input: Box::new(Rel::read("t", base_schema(), projection.clone())),
            predicate: predicate.clone(),
        });
        let [eager_scanned, eager_decoded, eager_disk] =
            eager_bounds(&reader, projection.as_deref(), &predicate);

        let expected = naive_scan(&reader, projection.as_deref(), &predicate);
        prop_assert_eq!(&flat_rows(&late), &expected);
        prop_assert_eq!(late_stats.wire.rows_returned, expected.len() as u64);
        prop_assert_eq!(late_stats.wire.rows_scanned, eager_scanned);
        prop_assert!(
            late_stats.uncompressed_bytes <= eager_decoded,
            "late path decoded more: {} vs {}",
            late_stats.uncompressed_bytes,
            eager_decoded
        );
        prop_assert!(
            late_stats.wire.disk_bytes <= eager_disk,
            "late path read more: {} vs {}",
            late_stats.wire.disk_bytes,
            eager_disk
        );
    }

    #[test]
    fn plain_read_is_the_eager_scan(
        seed in any::<u64>(),
        rows in 40usize..300,
        proj_pick in 0usize..4,
    ) {
        let reader = make_reader(seed, rows);
        let projection = projection(proj_pick);
        let (batches, stats) = run(&reader, Rel::read("t", base_schema(), projection.clone()));
        let all = reader.read_all(projection.as_deref()).unwrap();
        prop_assert_eq!(flat_rows(&batches), flat_rows(&all));
        // A literal TRUE lowers to no pruning predicate: every group.
        let every_group = Expr::lit(Scalar::Boolean(true));
        prop_assert_eq!(
            scan_counters(&stats),
            eager_bounds(&reader, projection.as_deref(), &every_group)
        );
        prop_assert_eq!(stats.scan_work.len(), reader.num_row_groups());
    }

    #[test]
    fn constant_predicate_scans_like_plain_read(
        seed in any::<u64>(),
        rows in 40usize..300,
        proj_pick in 0usize..4,
        keep in any::<bool>(),
    ) {
        let reader = make_reader(seed, rows);
        let projection = projection(proj_pick);
        let read = Rel::read("t", base_schema(), projection.clone());
        let (_, plain) = run(&reader, read.clone());
        let (batches, stats) = run(&reader, Rel::Filter {
            input: Box::new(read),
            predicate: Expr::lit(Scalar::Boolean(keep)),
        });
        let expected = match keep {
            true => flat_rows(&reader.read_all(projection.as_deref()).unwrap()),
            false => Vec::new(),
        };
        prop_assert_eq!(flat_rows(&batches), expected);
        prop_assert_eq!(scan_counters(&stats), scan_counters(&plain));
        prop_assert_eq!(&stats.scan_work, &plain.scan_work);
    }
}
