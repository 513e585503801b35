//! Criterion micro-benchmarks for the columnar compute kernels — the hot
//! path of both the engine's workers and the OCS embedded executor.

use columnar::agg::AggFunc;
use columnar::kernels::{arith, cmp, selection};
use columnar::ops::Aggregation;
use columnar::prelude::*;
use columnar::sort::{top_n, SortKey};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

fn batch(n: usize) -> RecordBatch {
    let schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64, false),
        Field::new("v", DataType::Float64, false),
    ]));
    RecordBatch::try_new(
        schema,
        vec![
            Arc::new(Array::from_i64((0..n as i64).map(|i| i % 97).collect())),
            Arc::new(Array::from_f64(
                (0..n).map(|i| (i as f64 * 0.37) % 100.0).collect(),
            )),
        ],
    )
    .unwrap()
}

fn bench_kernels(c: &mut Criterion) {
    let n = 1 << 16;
    let b = batch(n);
    let mut g = c.benchmark_group("kernels");
    g.throughput(Throughput::Elements(n as u64));

    g.bench_function(BenchmarkId::new("filter_gt", n), |bench| {
        let col = b.column(1);
        bench.iter(|| {
            let mask = cmp::gt_scalar(col, &Scalar::Float64(50.0)).unwrap();
            selection::filter_batch(&b, &mask).unwrap()
        })
    });

    g.bench_function(BenchmarkId::new("between", n), |bench| {
        let col = b.column(1);
        bench.iter(|| cmp::between_scalar(col, &Scalar::Float64(10.0), &Scalar::Float64(60.0)))
    });

    g.bench_function(BenchmarkId::new("arith_mod_div", n), |bench| {
        let col = b.column(0);
        bench.iter(|| {
            let m = arith::arith_scalar(col, &Scalar::Int64(50), arith::ArithOp::Mod).unwrap();
            arith::arith_scalar(&m, &Scalar::Int64(7), arith::ArithOp::Div).unwrap()
        })
    });

    g.bench_function(BenchmarkId::new("hash_agg", n), |bench| {
        let key = dsq::expr::ScalarExpr::col(0, "id", DataType::Int64);
        let arg = dsq::expr::ScalarExpr::col(1, "v", DataType::Float64);
        let out_schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64, true),
            Field::new("s", DataType::Float64, true),
        ]));
        bench.iter(|| {
            let mut agg = Aggregation::new(
                [(&key, DataType::Int64)],
                [(AggFunc::Sum, Some((&arg, DataType::Float64)))],
            )
            .unwrap();
            agg.update(&b).unwrap();
            agg.finish(out_schema.clone()).unwrap()
        })
    });

    g.bench_function(BenchmarkId::new("top_100", n), |bench| {
        bench.iter(|| top_n(&b, &[SortKey::asc(1)], 100).unwrap())
    });

    g.bench_function(BenchmarkId::new("ipc_roundtrip", n), |bench| {
        bench.iter(|| {
            let bytes = columnar::ipc::encode_batch(&b);
            columnar::ipc::decode_batch(&bytes).unwrap()
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
