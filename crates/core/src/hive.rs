//! The Hive-connector baseline: filter + column-projection pushdown only,
//! at the S3-Select/MinIO-Select capability level (paper §2.4).
//!
//! Its plan optimizer hands a filter to the object store's restricted
//! `select()` API when — and only when — the whole conjunction lowers to
//! [`RangePredicate`]s (`col op literal`; `col BETWEEN a AND b` is two),
//! the same lowering that picks OCS's row-group pruning predicates.
//! Anything richer — expression projection, aggregation, top-N — stays at
//! the compute layer, which is exactly the limitation the paper's OCS
//! connector removes.

use std::any::Any;
use std::sync::Arc;

use columnar::SchemaRef;
use dsq::error::{EResult, EngineError};
use dsq::plan::{LogicalPlan, TableScanNode};
use dsq::spi::{
    BufferedPageStream, Connector, ConnectorPlanOptimizer, DefaultSplitManager, DefaultTableHandle,
    OptimizerContext, PageSourceProvider, PageSourceResult, Split, SplitManager, TableHandle,
};
use netsim::{ClusterSpec, CostParams, ExecStats, Work};
use objstore::{ObjectStore, SelectRequest};
use parq::RangePredicate;

/// Scan handle carrying the select-API request.
#[derive(Debug, Clone)]
pub struct HiveTableHandle {
    /// Projected column names (select API takes names).
    pub projection_names: Vec<String>,
    /// File-column ordinals of the projection (for stats lookups).
    pub projection: Vec<usize>,
    /// The pushed filter: a complete conjunction over file ordinals.
    pub predicates: Vec<RangePredicate>,
    /// Schema the scan emits.
    pub output_schema: SchemaRef,
}

impl TableHandle for HiveTableHandle {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn describe(&self) -> String {
        format!(
            "hive columns={:?} filters={}",
            self.projection,
            self.predicates.len()
        )
    }
}

struct HivePlanOptimizer {
    connector: String,
}

impl ConnectorPlanOptimizer for HivePlanOptimizer {
    fn optimize(&self, plan: LogicalPlan, ctx: &OptimizerContext<'_>) -> EResult<LogicalPlan> {
        let scan = plan.scan().clone();
        if scan.connector != self.connector
            || scan
                .handle
                .as_any()
                .downcast_ref::<HiveTableHandle>()
                .is_some()
        {
            return Ok(plan);
        }
        let table = ctx.metastore.table(&scan.table)?;
        let projection: Vec<usize> = scan
            .handle
            .as_any()
            .downcast_ref::<DefaultTableHandle>()
            .and_then(|h| h.projection.clone())
            .unwrap_or_else(|| (0..table.schema.len()).collect());
        let projection_names: Vec<String> = projection
            .iter()
            .map(|&i| table.schema.field(i).name.clone())
            .collect();

        // The node directly above the scan must be the filter (if any).
        let mut chain: Vec<LogicalPlan> = Vec::new();
        {
            let mut cur = &plan;
            while let Some(next) = cur.input() {
                chain.push(cur.clone());
                cur = next;
            }
            chain.reverse();
        }
        // Expressible at the S3-Select ceiling = every conjunct lowered.
        let mut predicates = Vec::new();
        let mut drop_first_filter = false;
        if let Some(LogicalPlan::Filter { predicate, .. }) = chain.first() {
            let (lowered, complete) = RangePredicate::lower(predicate, Some(&projection));
            if complete {
                predicates = lowered;
                drop_first_filter = true;
            }
        }

        let handle = HiveTableHandle {
            projection_names,
            projection,
            predicates,
            output_schema: scan.output_schema.clone(),
        };
        let mut rebuilt = LogicalPlan::TableScan(TableScanNode {
            table: scan.table,
            connector: scan.connector,
            output_schema: scan.output_schema,
            handle: Arc::new(handle),
        });
        for (i, node) in chain.iter().enumerate() {
            if i == 0 && drop_first_filter {
                continue;
            }
            rebuilt = node.with_input(rebuilt);
        }
        rebuilt.validate()?;
        Ok(rebuilt)
    }
}

struct HivePageSourceProvider {
    store: Arc<ObjectStore>,
    cluster: ClusterSpec,
    cost: CostParams,
}

impl PageSourceProvider for HivePageSourceProvider {
    fn create(&self, split: &Split) -> EResult<PageSourceResult> {
        let handle = split
            .handle
            .as_any()
            .downcast_ref::<HiveTableHandle>()
            .ok_or_else(|| {
                EngineError::Connector(format!(
                    "hive connector received an unknown handle: {}",
                    split.handle.describe()
                ))
            })?;
        let request = SelectRequest {
            projection: Some(handle.projection_names.clone()),
            predicates: handle.predicates.clone(),
        };
        let resp = objstore::select(&self.store, &split.bucket, &split.key, &request)
            .map_err(|e| EngineError::Connector(e.to_string()))?;

        // Storage side: decode + filter evaluation (that is the "Select"
        // compute the storage layer performs), one unit per comparison.
        let filter_weight = handle.predicates.len() as f64;
        let storage_work = Work {
            decode: resp.stats.uncompressed_bytes as f64 * self.cost.byte_decode
                + resp.stats.returned_bytes as f64 * self.cost.byte_ser,
            vector: resp.stats.rows_scanned as f64 * (self.cost.row_overhead + filter_weight),
            expr: 0.0,
        };
        let storage_cpu_s = self.cluster.storage.core_seconds_for(storage_work);
        let storage_decompress_s = resp.codec.decompress_seconds(resp.stats.uncompressed_bytes);
        let compute_deser_s = self.cluster.compute.core_seconds_for(Work::decode(
            resp.stats.returned_bytes as f64 * self.cost.byte_deser,
        ));

        let rows_returned: u64 = resp.batches.iter().map(|b| b.num_rows() as u64).sum();
        // The select API hands back one monolithic response — a single
        // indivisible frame as far as the pipeline scheduler is concerned.
        Ok(PageSourceResult {
            stream: BufferedPageStream::whole_result(
                resp.batches,
                ExecStats {
                    storage_cpu_s,
                    storage_decompress_s,
                    disk_bytes: resp.stats.disk_bytes,
                    rows_scanned: resp.stats.rows_scanned,
                    rows_returned,
                    ..Default::default()
                },
                resp.stats.returned_bytes,
                1,
                compute_deser_s,
            ),
            substrait_gen_s: 0.0,
        })
    }
}

/// The Hive/S3-Select-level connector.
pub struct HiveConnector {
    name: String,
    optimizer: Arc<HivePlanOptimizer>,
    splits: Arc<DefaultSplitManager>,
    pages: Arc<HivePageSourceProvider>,
}

impl HiveConnector {
    /// Build a Hive connector over `store`.
    pub fn new(
        name: impl Into<String>,
        store: Arc<ObjectStore>,
        cluster: ClusterSpec,
        cost: CostParams,
    ) -> Self {
        let name = name.into();
        HiveConnector {
            optimizer: Arc::new(HivePlanOptimizer {
                connector: name.clone(),
            }),
            splits: Arc::new(DefaultSplitManager),
            pages: Arc::new(HivePageSourceProvider {
                store,
                cluster,
                cost,
            }),
            name,
        }
    }
}

impl Connector for HiveConnector {
    fn name(&self) -> &str {
        &self.name
    }

    fn plan_optimizer(&self) -> Option<Arc<dyn ConnectorPlanOptimizer>> {
        Some(self.optimizer.clone())
    }

    fn split_manager(&self) -> Arc<dyn SplitManager> {
        self.splits.clone()
    }

    fn page_source_provider(&self) -> Arc<dyn PageSourceProvider> {
        self.pages.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::kernels::cmp::CmpOp;
    use columnar::{DataType, Field, Scalar, Schema};
    use dsq::expr::ScalarExpr;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("x", DataType::Float64, false),
            Field::new("tag", DataType::Utf8, false),
        ]))
    }

    fn range(column: usize, op: CmpOp, value: Scalar) -> RangePredicate {
        RangePredicate { column, op, value }
    }

    #[test]
    fn converts_simple_conjunctions() {
        let pred = ScalarExpr::And(
            Arc::new(ScalarExpr::Between {
                expr: Arc::new(ScalarExpr::col(0, "x", DataType::Float64)),
                lo: Arc::new(ScalarExpr::lit(Scalar::Float64(0.8))),
                hi: Arc::new(ScalarExpr::lit(Scalar::Float64(3.2))),
            }),
            Arc::new(ScalarExpr::Cmp {
                op: CmpOp::Eq,
                left: Arc::new(ScalarExpr::col(1, "tag", DataType::Utf8)),
                right: Arc::new(ScalarExpr::lit(Scalar::Utf8("a".into()))),
            }),
        );
        // The scan emits (x, tag) as file columns (3, 1).
        let (out, complete) = RangePredicate::lower(&pred, Some(&[3, 1]));
        assert!(complete);
        assert_eq!(
            out,
            vec![
                range(3, CmpOp::GtEq, Scalar::Float64(0.8)),
                range(3, CmpOp::LtEq, Scalar::Float64(3.2)),
                range(1, CmpOp::Eq, Scalar::Utf8("a".into())),
            ]
        );
    }

    #[test]
    fn rejects_inexpressible_predicates() {
        // OR is beyond the restricted API.
        let pred = ScalarExpr::Or(
            Arc::new(ScalarExpr::lit(Scalar::Boolean(true))),
            Arc::new(ScalarExpr::lit(Scalar::Boolean(false))),
        );
        assert!(!RangePredicate::lower(&pred, None).1);
        // Column-to-column comparison too.
        let pred = ScalarExpr::Cmp {
            op: CmpOp::Lt,
            left: Arc::new(ScalarExpr::col(0, "x", DataType::Float64)),
            right: Arc::new(ScalarExpr::col(0, "x", DataType::Float64)),
        };
        assert!(!RangePredicate::lower(&pred, None).1);
        // Flipped literal-first comparison is fine.
        let pred = ScalarExpr::Cmp {
            op: CmpOp::Gt,
            left: Arc::new(ScalarExpr::lit(Scalar::Float64(0.1))),
            right: Arc::new(ScalarExpr::col(0, "x", DataType::Float64)),
        };
        let (out, complete) = RangePredicate::lower(&pred, None);
        assert!(complete);
        assert_eq!(out, vec![range(0, CmpOp::Lt, Scalar::Float64(0.1))]);
    }

    /// Decompression is billed from the codec the select call saw — one
    /// open of the object, and never silently zero for a compressed file.
    #[test]
    fn compressed_split_bills_storage_decompression() {
        use lzcodec::CodecKind;

        let store = Arc::new(ObjectStore::new());
        store.create_bucket("lake").unwrap();
        let schema = schema();
        let batch = columnar::RecordBatch::try_new(
            schema.clone(),
            vec![
                Arc::new(columnar::Array::from_f64(
                    (0..4000).map(|i| i as f64 / 7.0).collect(),
                )),
                Arc::new(columnar::Array::from_strs((0..4000).map(|i| {
                    if i % 2 == 0 {
                        "a"
                    } else {
                        "b"
                    }
                }))),
            ],
        )
        .unwrap();
        let bytes = parq::writer::write_file(
            schema.clone(),
            &[batch],
            parq::WriteOptions {
                codec: CodecKind::Zst,
                ..Default::default()
            },
        )
        .unwrap();
        store.put_object("lake", "t/0", bytes.into()).unwrap();

        let provider = HivePageSourceProvider {
            store: store.clone(),
            cluster: ClusterSpec::paper_testbed(),
            cost: CostParams::default(),
        };
        let request = SelectRequest {
            projection: Some(vec!["x".into()]),
            predicates: vec![],
        };
        let run = |handle: HiveTableHandle| {
            let page = provider
                .create(&Split {
                    connector: "hive".into(),
                    table: "t".into(),
                    bucket: "lake".into(),
                    key: "t/0".into(),
                    schema: schema.clone(),
                    handle: Arc::new(handle),
                    seq: 0,
                })
                .unwrap();
            let mut stream = page.stream;
            let mut rows = 0;
            while let Some(b) = stream.next_batch().unwrap() {
                rows += b.num_rows();
            }
            (rows, stream.finish().unwrap())
        };
        let (_, report) = run(HiveTableHandle {
            projection_names: vec!["x".into()],
            projection: vec![0],
            predicates: vec![],
            output_schema: schema.clone(),
        });

        let scanned = objstore::select(&store, "lake", "t/0", &request).unwrap();
        assert_eq!(scanned.codec, CodecKind::Zst);
        assert!(report.stats.storage_decompress_s > 0.0);
        assert_eq!(
            report.stats.storage_decompress_s,
            CodecKind::Zst.decompress_seconds(scanned.stats.uncompressed_bytes)
        );

        // `x BETWEEN 100 AND 400 AND tag = 'a'`: the storage CPU bill is the
        // bit pattern captured when this was a 2.0-weight `Between` plus a
        // 1.0-weight `Compare` — three range predicates weigh the same.
        let (rows, report) = run(HiveTableHandle {
            projection_names: vec!["x".into(), "tag".into()],
            projection: vec![0, 1],
            predicates: vec![
                range(0, CmpOp::GtEq, Scalar::Float64(100.0)),
                range(0, CmpOp::LtEq, Scalar::Float64(400.0)),
                range(1, CmpOp::Eq, Scalar::Utf8("a".into())),
            ],
            output_schema: schema.clone(),
        });
        assert_eq!((rows, report.stats.rows_scanned), (1051, 4000));
        assert_eq!(report.stats.storage_cpu_s.to_bits(), 0x3f42_a0f2_b7a6_5852);
    }
}
