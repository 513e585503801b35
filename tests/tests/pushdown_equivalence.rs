//! Property-based connector invariant: for randomly generated queries over
//! a random dataset, the OCS connector at ANY pushdown depth returns
//! exactly what the raw no-pushdown path returns. This is the key
//! correctness contract of the paper's design ("maintaining seamless
//! compatibility with the existing ecosystem").

use std::sync::Arc;

use columnar::prelude::*;
use dsq::catalog::{ObjectLocation, TableMeta, TableStats};
use dsq::{Engine, EngineBuilder};
use objstore::ObjectStore;
use ocs_connector::{register_ocs_stack, OcsConnector, PushdownPolicy};
use parq::ColumnStats;
use proptest::prelude::*;

/// Deterministically generate a 3-column table from a seed, split over
/// `files` objects, and register it.
fn setup(seed: u64, files: usize, rows_per_file: usize) -> Engine {
    let engine = EngineBuilder::new().build();
    let store = Arc::new(ObjectStore::new());
    store.create_bucket("lake").unwrap();
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64, false),
        Field::new("v", DataType::Float64, false),
        Field::new("w", DataType::Int64, false),
    ]));
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut objects = Vec::new();
    let mut stats_cols = vec![ColumnStats::empty(); 3];
    let mut total = 0u64;
    for f in 0..files {
        let mut ks = Vec::new();
        let mut vs = Vec::new();
        let mut ws = Vec::new();
        for _ in 0..rows_per_file {
            ks.push((next() % 7) as i64);
            vs.push((next() % 1000) as f64 / 10.0);
            ws.push((next() % 100) as i64);
        }
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![
                Arc::new(Array::from_i64(ks)),
                Arc::new(Array::from_f64(vs)),
                Arc::new(Array::from_i64(ws)),
            ],
        )
        .unwrap();
        for (c, stat) in stats_cols.iter_mut().enumerate() {
            *stat = stat.merge(&ColumnStats::compute(batch.column(c)));
        }
        let bytes = parq::writer::write_file(schema.clone(), &[batch], Default::default()).unwrap();
        let key = format!("t/{f}");
        objects.push(ObjectLocation {
            bucket: "lake".into(),
            key: key.clone(),
            rows: rows_per_file as u64,
            bytes: bytes.len() as u64,
            ..Default::default()
        });
        total += rows_per_file as u64;
        store.put_object("lake", &key, bytes.into()).unwrap();
    }
    engine.metastore().register(TableMeta {
        name: "t".into(),
        connector: "ocs".into(),
        schema,
        objects,
        stats: TableStats {
            row_count: total,
            columns: stats_cols,
        },
    });
    let ocs = register_ocs_stack(&engine, store, PushdownPolicy::all());
    for (name, policy) in [
        ("p-none", PushdownPolicy::none()),
        ("p-filter", PushdownPolicy::filter_only()),
        ("p-fp", PushdownPolicy::filter_project()),
        ("p-fpa", PushdownPolicy::filter_project_aggregate()),
    ] {
        engine.register_connector(Arc::new(OcsConnector::new(
            name,
            ocs.clone(),
            engine.cluster().clone(),
            engine.cost_params().clone(),
            policy,
        )));
    }
    engine
}

/// Build a random (but valid) query from proptest-chosen knobs.
#[derive(Debug, Clone)]
struct QuerySpec {
    filter: Option<(String, String, f64)>, // col, op, literal
    agg: bool,
    project_expr: bool,
    order_desc: bool,
    limit: Option<u64>,
}

fn render(q: &QuerySpec) -> String {
    let mut sql = String::from("SELECT ");
    if q.agg {
        if q.project_expr {
            sql.push_str("k, sum(v * 2 + 1) AS s, avg(w % 10) AS a, count(*) AS n");
        } else {
            sql.push_str("k, sum(v) AS s, min(w) AS a, count(*) AS n");
        }
        sql.push_str(" FROM t");
    } else if q.project_expr {
        sql.push_str("k, v * 2 + 1 AS s, w % 10 AS m FROM t");
    } else {
        sql.push_str("k, v, w FROM t");
    }
    if let Some((col, op, lit)) = &q.filter {
        sql.push_str(&format!(" WHERE {col} {op} {lit}"));
    }
    if q.agg {
        sql.push_str(" GROUP BY k");
        sql.push_str(" ORDER BY ");
        sql.push_str(if q.order_desc { "s DESC, k" } else { "k" });
    } else if q.project_expr {
        // ORDER BY resolves against the SELECT output (engine contract).
        sql.push_str(" ORDER BY ");
        sql.push_str(if q.order_desc {
            "s DESC, k, m"
        } else {
            "s, k, m"
        });
    } else {
        sql.push_str(" ORDER BY ");
        sql.push_str(if q.order_desc {
            "v DESC, k, w"
        } else {
            "v, k, w"
        });
    }
    if let Some(n) = q.limit {
        sql.push_str(&format!(" LIMIT {n}"));
    }
    sql
}

fn canonical(engine: &Engine, sql: &str) -> Vec<Vec<String>> {
    let r = engine.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    (0..r.batch.num_rows())
        .map(|i| {
            r.batch
                .row(i)
                .iter()
                .map(|s| match s {
                    Scalar::Float64(v) => format!("{v:.6}"),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_pushdown_depth_matches_raw(
        seed in any::<u64>(),
        files in 1usize..4,
        filter_col in 0usize..3,
        filter_op in 0usize..3,
        filter_lit in 0.0f64..100.0,
        has_filter in any::<bool>(),
        agg in any::<bool>(),
        project_expr in any::<bool>(),
        order_desc in any::<bool>(),
        limit in proptest::option::of(1u64..20),
    ) {
        let engine = setup(seed, files, 256);
        let cols = ["k", "v", "w"];
        let ops = ["<", ">=", "="];
        let spec = QuerySpec {
            filter: has_filter.then(|| (
                cols[filter_col].to_string(),
                ops[filter_op].to_string(),
                filter_lit.floor(),
            )),
            agg,
            project_expr,
            order_desc,
            limit,
        };
        let sql = render(&spec);
        engine.metastore().rebind_connector("t", "raw").unwrap();
        let expected = canonical(&engine, &sql);
        for connector in ["p-none", "p-filter", "p-fp", "p-fpa", "ocs"] {
            engine.metastore().rebind_connector("t", connector).unwrap();
            let got = canonical(&engine, &sql);
            prop_assert_eq!(&got, &expected, "{} diverged on {}", connector, sql);
        }
    }
}
