//! Property test for the near-storage caching subsystem: on randomized
//! plan/data sequences interleaved with writes, a cache-enabled
//! deployment is observationally identical to a cold one.
//!
//! Two deployments receive the same object writes and execute the same
//! plans; the cached side may serve row groups or whole pushdown results
//! from memory, but every query must return exactly the rows the cold
//! side returns — including immediately after an overwrite, which is
//! what catches stale-cache bugs.

use std::sync::Arc;

use columnar::agg::AggFunc;
use columnar::kernels::cmp::CmpOp;
use columnar::prelude::*;
use objstore::ObjectStore;
use ocs::{Ocs, OcsConfig};
use proptest::prelude::*;
use substrait_ir::{Expr, Measure, Plan, Rel};

fn base_schema() -> Schema {
    Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("b", DataType::Float64, false),
        Field::new("c", DataType::Int64, false),
    ])
}

/// Deterministic pseudo-random parq file bytes, multiple row groups.
fn object_bytes(seed: u64, rows: usize) -> Vec<u8> {
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
    parq::writer::write_file(
        schema,
        &[batch],
        parq::WriteOptions {
            row_group_rows: 32,
            ..Default::default()
        },
    )
    .unwrap()
}

fn deployment(config: OcsConfig) -> (Arc<ObjectStore>, Ocs) {
    let store = Arc::new(ObjectStore::new());
    store.create_bucket("lake").unwrap();
    let ocs = Ocs::new(store.clone(), config);
    (store, ocs)
}

/// A randomized plan over the shared schema (same family as
/// `stream_prop.rs`): projected read, optionally filtered, fetched, or
/// aggregated.
fn make_plan(shape: usize, proj_pick: usize, op: usize, lo: i64, span: i64) -> Plan {
    let projections: [Option<Vec<usize>>; 4] =
        [None, Some(vec![0, 1, 2]), Some(vec![2, 0]), Some(vec![1])];
    let projection = projections[proj_pick % 4].clone();
    let out_len = projection.as_ref().map_or(3, |p| p.len());
    let pos = op % out_len;
    let file_col = projection.as_ref().map_or(pos, |p| p[pos]);
    let lit = |v: i64| {
        if file_col == 1 {
            Expr::lit(Scalar::Float64(v as f64))
        } else {
            Expr::lit(Scalar::Int64(v))
        }
    };
    let read = Rel::read("t", base_schema(), projection);
    let filtered = Rel::Filter {
        input: Box::new(read.clone()),
        predicate: match op % 3 {
            0 => Expr::cmp(CmpOp::Lt, Expr::field(pos), lit(lo)),
            1 => Expr::cmp(CmpOp::GtEq, Expr::field(pos), lit(lo)),
            _ => Expr::Between {
                expr: Box::new(Expr::field(pos)),
                lo: Box::new(lit(lo)),
                hi: Box::new(lit(lo + span)),
            },
        },
    };
    Plan::new(match shape % 4 {
        0 => read,
        1 => filtered,
        2 => Rel::Fetch {
            input: Box::new(filtered),
            offset: 0,
            limit: 7,
        },
        _ => Rel::Aggregate {
            input: Box::new(filtered),
            group_by: vec![],
            measures: vec![Measure {
                func: AggFunc::Count,
                arg: None,
                name: "n".into(),
            }],
        },
    })
}

fn rows_of(batches: &[RecordBatch]) -> Vec<Vec<Scalar>> {
    batches
        .iter()
        .flat_map(|b| (0..b.num_rows()).map(|r| b.row(r)).collect::<Vec<_>>())
        .collect()
}

/// One step of the interleaved sequence, decoded from proptest tuples.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Overwrite one of the two objects with fresh data.
    Write { obj: usize, seed: u64, rows: usize },
    /// Execute a plan (drawn from a small pool so repeats — and
    /// therefore cache hits — actually happen) against one object.
    Query { obj: usize, pick: usize },
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_execution_equals_cold_execution(
        init_seed in any::<u64>(),
        plan_pool in proptest::collection::vec(
            (0usize..4, 0usize..4, 0usize..6, -50i64..250, 0i64..150),
            3..4,
        ),
        raw_ops in proptest::collection::vec(
            (0usize..5, 0usize..2, any::<u64>(), 40usize..120),
            1..24,
        ),
    ) {
        let plans: Vec<Plan> = plan_pool
            .iter()
            .map(|&(s, p, o, lo, span)| make_plan(s, p, o, lo, span))
            .collect();
        let ops: Vec<Op> = raw_ops
            .iter()
            .map(|&(kind, obj, seed, rows)| {
                if kind == 0 {
                    Op::Write { obj, seed, rows }
                } else {
                    Op::Query { obj, pick: (kind - 1) % plans.len() }
                }
            })
            .collect();

        // Same initial objects in both worlds.
        let (warm_store, warm) = deployment(OcsConfig::paper_testbed());
        let (cold_store, cold) = deployment(OcsConfig::paper_testbed_uncached());
        for obj in 0..2 {
            let bytes = object_bytes(init_seed ^ obj as u64, 64 + 32 * obj);
            warm_store
                .put_object("lake", &format!("t/{obj}"), bytes.clone().into())
                .unwrap();
            cold_store
                .put_object("lake", &format!("t/{obj}"), bytes.into())
                .unwrap();
        }

        let warm_client = warm.client();
        let cold_client = cold.client();
        for op in ops {
            match op {
                Op::Write { obj, seed, rows } => {
                    let bytes = object_bytes(seed, rows);
                    warm_store
                        .put_object("lake", &format!("t/{obj}"), bytes.clone().into())
                        .unwrap();
                    cold_store
                        .put_object("lake", &format!("t/{obj}"), bytes.into())
                        .unwrap();
                }
                Op::Query { obj, pick } => {
                    let plan = &plans[pick];
                    let key = format!("t/{obj}");
                    let w = warm_client.execute(plan, "lake", &key).unwrap();
                    let c = cold_client.execute(plan, "lake", &key).unwrap();
                    prop_assert_eq!(rows_of(&w.batches), rows_of(&c.batches));
                    prop_assert_eq!(w.report.stats.rows_returned, c.report.stats.rows_returned);
                    // The cold deployment must never report cache traffic.
                    prop_assert_eq!(c.report.stats.rg_cache_hits, 0);
                    prop_assert_eq!(c.report.stats.result_cache_hits, 0);
                    prop_assert_eq!(c.report.stats.cache_bytes_avoided, 0);
                }
            }
        }
    }

    #[test]
    fn warm_replay_is_exact_not_just_equivalent(
        seed in any::<u64>(),
        rows in 40usize..200,
        shape in 0usize..4,
        proj_pick in 0usize..4,
        op in 0usize..6,
        lo in -50i64..250,
        span in 0i64..150,
    ) {
        // The same plan twice against an unchanged object: the second
        // execution must reproduce the first byte-for-byte at the row
        // level while touching zero storage bytes.
        let (store, ocs) = deployment(OcsConfig::paper_testbed());
        store
            .put_object("lake", "t/0", object_bytes(seed, rows).into())
            .unwrap();
        let client = ocs.client();
        let plan = make_plan(shape, proj_pick, op, lo, span);
        let first = client.execute(&plan, "lake", "t/0").unwrap();
        let second = client.execute(&plan, "lake", "t/0").unwrap();
        prop_assert_eq!(rows_of(&first.batches), rows_of(&second.batches));
        prop_assert_eq!(second.report.stats.result_cache_hits, 1);
        prop_assert_eq!(second.report.stats.disk_bytes, 0);
        prop_assert_eq!(second.report.stats.storage_cpu_s, 0.0);
        // The replay saves at least what the cold run paid in disk reads
        // (zero only when zone maps pruned the entire scan).
        prop_assert!(second.report.stats.cache_bytes_avoided >= first.report.stats.disk_bytes);
    }
}
