//! Late-materialization scan pipeline, old vs new path, across the
//! selectivity × projection grid:
//!
//! * selectivity 0.1 % — the Laghos shape: a clustered match region that
//!   statistics pruning cannot see (the predicate wraps the column in
//!   arithmetic), so the win comes entirely from mask-skipped groups;
//! * selectivity 18 %  — uniform matches in every group: no group skips,
//!   measuring the overhead of the two-phase scan;
//! * selectivity 100 % — all-true mask: the zero-copy `Selection::All`
//!   passthrough.
//!
//! Each selectivity runs under a full projection (all 4 columns) and a
//! filter-column-only projection. The harness also verifies the headline
//! acceptance number: >= 2x decoded-bytes reduction (via `ExecStats`) on
//! the low-selectivity full-projection scan.

use std::sync::Arc;

use columnar::kernels::arith::ArithOp;
use columnar::kernels::cmp::CmpOp;
use columnar::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::CostParams;
use ocs::exec::Executor;
use parq::{ParqReader, WriteOptions};
use substrait_ir::{Expr, Plan, Rel};

const ROWS: usize = 100_000;
const GROUP_ROWS: usize = 5_000;

fn base_schema() -> Schema {
    Schema::new(vec![
        Field::new("ts", DataType::Int64, false),
        Field::new("v", DataType::Float64, false),
        Field::new("zone", DataType::Int64, false),
        Field::new("w", DataType::Float64, false),
    ])
}

/// A Laghos-shaped object: a monotone timestep column, two payload value
/// columns, and a pseudo-random measurement column spanning [0, 1000) in
/// every row group (so min/max statistics never prune on `v`).
fn make_reader() -> ParqReader {
    let schema = Arc::new(base_schema());
    let ts: Vec<i64> = (0..ROWS as i64).collect();
    let v: Vec<f64> = (0..ROWS)
        .map(|i| (i.wrapping_mul(2654435761) % 1000) as f64)
        .collect();
    let zone: Vec<i64> = (0..ROWS).map(|i| (i % 64) as i64).collect();
    let w: Vec<f64> = (0..ROWS).map(|i| i as f64 * 0.25).collect();
    let batch = RecordBatch::try_new(
        schema.clone(),
        vec![
            Arc::new(Array::from_i64(ts)),
            Arc::new(Array::from_f64(v)),
            Arc::new(Array::from_i64(zone)),
            Arc::new(Array::from_f64(w)),
        ],
    )
    .unwrap();
    let bytes = parq::writer::write_file(
        schema,
        &[batch],
        WriteOptions {
            row_group_rows: GROUP_ROWS,
            ..Default::default()
        },
    )
    .unwrap();
    ParqReader::open(bytes.into()).unwrap()
}

/// Selectivity knobs. Every predicate wraps `ts` in arithmetic so row-group
/// statistics cannot prune: the benchmark isolates mask-driven skipping.
fn predicate(selectivity: &str) -> Expr {
    let ts_mod = |m: i64| Expr::arith(ArithOp::Mod, Expr::field(0), Expr::lit(Scalar::Int64(m)));
    match selectivity {
        // Rows 0..100 of 100_000 — all inside the first row group.
        "0.1pct" => Expr::cmp(
            CmpOp::Lt,
            ts_mod(ROWS as i64),
            Expr::lit(Scalar::Int64(100)),
        ),
        // `ts % 100 < 18`: 18% of every group matches; nothing skips.
        "18pct" => Expr::cmp(CmpOp::Lt, ts_mod(100), Expr::lit(Scalar::Int64(18))),
        // `ts % 100 < 100`: everything matches; all-true fast path.
        "100pct" => Expr::cmp(CmpOp::Lt, ts_mod(100), Expr::lit(Scalar::Int64(100))),
        other => panic!("unknown selectivity {other}"),
    }
}

fn scan_plan(selectivity: &str, projection: Option<Vec<usize>>) -> Plan {
    Plan::new(Rel::Filter {
        input: Box::new(Rel::read("t", base_schema(), projection)),
        predicate: predicate(selectivity),
    })
}

fn run(reader: &ParqReader, cost: &CostParams, plan: &Plan, late_mat: bool) -> u64 {
    let (batches, stats) = Executor::new(reader, cost)
        .late_materialization(late_mat)
        .run(plan)
        .unwrap();
    batches.iter().map(|b| b.num_rows() as u64).sum::<u64>() + stats.uncompressed_bytes
}

fn bench_late_mat(c: &mut Criterion) {
    let reader = make_reader();
    let cost = CostParams::default();

    // Acceptance gate: the Laghos-shaped low-selectivity scan must decode
    // less than half the bytes of the eager path (measured via ExecStats).
    let gate = scan_plan("0.1pct", None);
    let (_, late) = Executor::new(&reader, &cost).run(&gate).unwrap();
    let (_, eager) = Executor::new(&reader, &cost)
        .late_materialization(false)
        .run(&gate)
        .unwrap();
    assert!(
        late.uncompressed_bytes * 2 <= eager.uncompressed_bytes,
        "late materialization must halve decoded bytes: {} vs {}",
        late.uncompressed_bytes,
        eager.uncompressed_bytes
    );
    println!(
        "late_mat decoded-bytes check: {} vs {} eager ({:.1}x reduction, \
         {} of {} groups skipped, {} encoded bytes never decoded)",
        late.uncompressed_bytes,
        eager.uncompressed_bytes,
        eager.uncompressed_bytes as f64 / late.uncompressed_bytes as f64,
        late.wire.row_groups_skipped,
        ROWS / GROUP_ROWS,
        late.wire.decoded_bytes_avoided,
    );
    ocs_bench::record_gate(
        "late_mat_decoded_bytes_reduction",
        eager.uncompressed_bytes as f64 / late.uncompressed_bytes as f64,
    );

    let mut g = c.benchmark_group("late_mat");
    g.throughput(Throughput::Elements(ROWS as u64));
    for selectivity in ["0.1pct", "18pct", "100pct"] {
        for (proj_name, projection) in [("all_cols", None), ("filter_col_only", Some(vec![0]))] {
            let plan = scan_plan(selectivity, projection);
            g.bench_function(
                BenchmarkId::new(format!("{selectivity}/{proj_name}"), "eager"),
                |b| b.iter(|| run(&reader, &cost, &plan, false)),
            );
            g.bench_function(
                BenchmarkId::new(format!("{selectivity}/{proj_name}"), "late"),
                |b| b.iter(|| run(&reader, &cost, &plan, true)),
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_late_mat
}
criterion_main!(benches);
