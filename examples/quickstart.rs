//! Quickstart: stand up the whole stack — object store, OCS, engine,
//! connectors — load a small dataset and run a SQL query with full
//! operator pushdown.
//!
//! ```sh
//! cargo run -p examples --example quickstart
//! ```

use std::sync::Arc;

use columnar::prelude::*;
use dsq::catalog::{ObjectLocation, TableMeta, TableStats};
use dsq::EngineBuilder;
use objstore::ObjectStore;
use ocs_connector::{register_ocs_stack, PushdownPolicy};
use parq::ColumnStats;

fn main() {
    // 1. An engine modeled on the paper's testbed (64-core compute node,
    //    16-core storage node, 10 GbE between them).
    let engine = EngineBuilder::new().build();

    // 2. An object store holding one parq table of a million points.
    let store = Arc::new(ObjectStore::new());
    store.create_bucket("lake").unwrap();
    let schema = Arc::new(Schema::new(vec![
        Field::new("sensor", DataType::Int64, false),
        Field::new("reading", DataType::Float64, false),
    ]));
    let n: i64 = 1_000_000;
    let sensors: Vec<i64> = (0..n).map(|i| i % 50).collect();
    let readings: Vec<f64> = (0..n).map(|i| ((i * 37) % 1000) as f64 / 10.0).collect();
    let batch = RecordBatch::try_new(
        schema.clone(),
        vec![
            Arc::new(Array::from_i64(sensors)),
            Arc::new(Array::from_f64(readings.clone())),
        ],
    )
    .unwrap();
    let file = parq::writer::write_file(schema.clone(), &[batch], Default::default()).unwrap();
    let file_len = file.len() as u64;
    store
        .put_object("lake", "points/part-0.parq", file.into())
        .unwrap();

    // 3. Register the table in the metastore (schema + statistics, like a
    //    Hive metastore entry).
    let reading_stats = ColumnStats {
        min: Scalar::Float64(0.0),
        max: Scalar::Float64(99.9),
        null_count: 0,
        row_count: n as u64,
        distinct: 1000,
    };
    let sensor_stats = ColumnStats {
        min: Scalar::Int64(0),
        max: Scalar::Int64(49),
        null_count: 0,
        row_count: n as u64,
        distinct: 50,
    };
    engine.metastore().register(TableMeta {
        name: "points".into(),
        connector: "ocs".into(),
        schema,
        objects: vec![ObjectLocation {
            bucket: "lake".into(),
            key: "points/part-0.parq".into(),
            rows: n as u64,
            bytes: file_len,
            ..Default::default()
        }],
        stats: TableStats {
            row_count: n as u64,
            columns: vec![sensor_stats, reading_stats],
        },
    });

    // 4. Register the OCS and raw connectors (the paper's comparison
    //    stack) with full pushdown enabled on OCS.
    register_ocs_stack(&engine, store, PushdownPolicy::all());

    // 5. Run a query. The connector pushes the filter and the aggregation
    //    into storage; only 50 aggregated rows cross the simulated network.
    let sql = "SELECT sensor, avg(reading) AS avg_r, count(*) AS n \
               FROM points WHERE reading > 90 GROUP BY sensor \
               ORDER BY avg_r DESC LIMIT 5";
    let result = engine.execute(sql).expect("query runs");

    println!("query: {sql}\n");
    println!("optimized plan:\n{}", result.optimized_plan);
    println!("operator chain: {}", result.chain);
    println!("\nresult ({} rows):", result.batch.num_rows());
    print!("{}", result.batch);
    println!(
        "\nsimulated execution time: {:.4} s",
        result.simulated_seconds
    );
    println!(
        "data moved storage → compute: {} (of {} stored)",
        netsim::meter::human_bytes(result.moved_bytes),
        netsim::meter::human_bytes(file_len),
    );
    println!("\nper-phase breakdown:");
    for (label, secs, share) in result.ledger.breakdown() {
        println!("  {label:<30} {secs:>9.4} s  {share:>5.1} %");
    }
}
