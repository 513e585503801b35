//! Writing a custom connector against the engine's SPI — the
//! extensibility story the paper's design leans on ("Presto supports a
//! flexible connector-based interface").
//!
//! This example implements a miniature connector from scratch: an
//! in-memory table served by a `PageSourceProvider` (the engine hands it
//! one split per object), with a `ConnectorPlanOptimizer` that performs
//! its own (filter-only) pushdown and reports what it did.
//!
//! ```sh
//! cargo run -p examples --example custom_connector
//! ```

use std::any::Any;
use std::sync::{Arc, Mutex};

use columnar::kernels::{boolean, cmp, selection};
use columnar::prelude::*;
use dsq::catalog::{ObjectLocation, TableMeta, TableStats};
use dsq::error::{EResult, EngineError};
use dsq::expr::ScalarExpr;
use dsq::plan::{LogicalPlan, TableScanNode};
use dsq::spi::{
    BufferedPageStream, Connector, ConnectorPlanOptimizer, OptimizerContext, PageSourceProvider,
    PageSourceResult, Split, TableHandle,
};
use dsq::EngineBuilder;

/// Our connector's private scan handle: the pushed-down predicate.
#[derive(Debug, Clone)]
struct MemHandle {
    predicate: Option<ScalarExpr>,
}

impl TableHandle for MemHandle {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn describe(&self) -> String {
        match &self.predicate {
            Some(p) => format!("mem pushed-filter=[{p}]"),
            None => "mem".into(),
        }
    }
}

/// The connector: one in-memory batch, filter pushdown, a pushdown log.
struct MemConnector {
    data: RecordBatch,
    log: Arc<Mutex<Vec<String>>>,
}

struct MemOptimizer {
    log: Arc<Mutex<Vec<String>>>,
}

impl MemOptimizer {
    /// Recursively find a Filter sitting directly on our scan, anywhere in
    /// the chain, and fold its predicate into the scan handle. The
    /// engine-side Filter node is kept, demonstrating that residual
    /// re-filtering of already-filtered pages is harmless.
    fn rewrite(&self, plan: &LogicalPlan) -> LogicalPlan {
        if let LogicalPlan::Filter { input, predicate } = plan {
            if let LogicalPlan::TableScan(scan) = input.as_ref() {
                if scan.connector == "mem" {
                    self.log
                        .lock()
                        .expect("connector log lock")
                        .push(format!("pushed filter: {predicate}"));
                    return plan.with_input(LogicalPlan::TableScan(TableScanNode {
                        handle: Arc::new(MemHandle {
                            predicate: Some(predicate.clone()),
                        }),
                        ..scan.clone()
                    }));
                }
            }
        }
        match plan.input() {
            Some(child) => plan.with_input(self.rewrite(child)),
            None => plan.clone(),
        }
    }
}

impl ConnectorPlanOptimizer for MemOptimizer {
    fn optimize(&self, plan: LogicalPlan, _ctx: &OptimizerContext<'_>) -> EResult<LogicalPlan> {
        Ok(self.rewrite(&plan))
    }
}

struct MemPages {
    data: RecordBatch,
}

impl PageSourceProvider for MemPages {
    fn create(&self, split: &Split) -> EResult<PageSourceResult> {
        let mut batch = self.data.clone();
        if let Some(h) = split.handle.as_any().downcast_ref::<MemHandle>() {
            if let Some(p) = &h.predicate {
                let mask = p.eval(&batch)?;
                let mask = mask.as_bool().map_err(EngineError::Columnar)?;
                batch = selection::filter_batch(&batch, mask).map_err(EngineError::Columnar)?;
            }
        }
        let bytes = batch.byte_size() as u64;
        // A connector that materializes its whole result wraps it in a
        // buffered stream, whose `finish()` reports the split as
        // `netsim::SplitReport::monolithic` (one indivisible frame);
        // streaming connectors implement `PageStream` themselves, yield
        // frame-at-a-time and return a report with one timing per frame.
        Ok(PageSourceResult {
            stream: BufferedPageStream::whole_result(
                vec![batch],
                Default::default(),
                bytes,
                1,
                0.0,
            ),
            substrait_gen_s: 0.0,
        })
    }
}

impl Connector for MemConnector {
    fn name(&self) -> &str {
        "mem"
    }
    fn plan_optimizer(&self) -> Option<Arc<dyn ConnectorPlanOptimizer>> {
        Some(Arc::new(MemOptimizer {
            log: self.log.clone(),
        }))
    }
    fn page_source_provider(&self) -> Arc<dyn PageSourceProvider> {
        Arc::new(MemPages {
            data: self.data.clone(),
        })
    }
}

fn main() {
    // Build the in-memory table.
    let schema = Arc::new(Schema::new(vec![
        Field::new("city", DataType::Utf8, false),
        Field::new("temp", DataType::Float64, false),
    ]));
    let cities = ["tokyo", "zurich", "austin", "tokyo", "zurich", "austin"];
    let temps = [29.0, 18.5, 35.2, 31.1, 16.9, 38.0];
    let data = RecordBatch::try_new(
        schema.clone(),
        vec![
            Arc::new(Array::from_strs(cities)),
            Arc::new(Array::from_f64(temps.to_vec())),
        ],
    )
    .unwrap();

    // Stand up the engine and register the table + connector.
    let engine = EngineBuilder::new().build();
    engine.metastore().register(TableMeta {
        name: "weather".into(),
        connector: "mem".into(),
        schema,
        objects: vec![ObjectLocation {
            bucket: "mem".into(),
            key: "weather".into(),
            rows: data.num_rows() as u64,
            bytes: data.byte_size() as u64,
            ..Default::default()
        }],
        stats: TableStats {
            row_count: data.num_rows() as u64,
            columns: vec![],
        },
    });
    let log = Arc::new(Mutex::new(Vec::new()));
    engine.register_connector(Arc::new(MemConnector {
        data,
        log: log.clone(),
    }));

    let sql = "SELECT city, avg(temp) AS avg_temp FROM weather \
               WHERE temp > 20 GROUP BY city ORDER BY avg_temp DESC";
    let result = engine.execute(sql).expect("query");
    println!("query: {sql}\n");
    println!("plan:\n{}", result.optimized_plan);
    print!("result:\n{}", result.batch);
    println!("\nconnector log:");
    for line in log.lock().expect("connector log lock").iter() {
        println!("  {line}");
    }

    // The mask-evaluation helpers are also directly usable:
    let demo = Array::from_f64(vec![1.0, 25.0, 40.0]);
    let mask = cmp::gt_scalar(&demo, &Scalar::Float64(20.0)).unwrap();
    let kept = boolean::true_count(&mask);
    println!("\n(kernel demo: {kept} of 3 values above 20)");
}
