//! The Connector Service Provider Interface (SPI) — the seam the paper's
//! connector plugs into, mirroring Presto's `ConnectorPlanOptimizer` and
//! `ConnectorPageSourceProvider`. Split enumeration is one split per
//! storage object for every connector ([`splits`]).

use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::Arc;

use columnar::{RecordBatch, SchemaRef};
use netsim::{CostParams, ExecStats, SplitReport};

use crate::catalog::{Metastore, TableMeta};
use crate::error::EResult;
use crate::plan::{LogicalPlan, TableScanNode};

/// Connector-private scan state attached to a [`TableScanNode`]. The OCS
/// connector stores the whole pushed-down operator chain in its handle —
/// the paper's "modified TableScan operator \[that\] encapsulates the
/// pushdown operators".
pub trait TableHandle: Send + Sync + Debug {
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// One-line description for plan display.
    fn describe(&self) -> String;
    /// True when the handle carries operators pushed into storage. The
    /// default handle never does; the OCS handle reports its actual
    /// pushdown state so listeners don't have to sniff [`Self::describe`].
    fn pushes_operators(&self) -> bool {
        false
    }
}

/// The default handle: a plain scan, optionally with a column projection
/// (ordinals into the table schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefaultTableHandle {
    /// Columns the scan should emit (None = all).
    pub projection: Option<Vec<usize>>,
}

impl DefaultTableHandle {
    /// A handle emitting every column.
    pub fn all_columns() -> Self {
        DefaultTableHandle { projection: None }
    }

    /// A handle emitting the given column ordinals.
    pub fn projected(projection: Vec<usize>) -> Self {
        DefaultTableHandle {
            projection: Some(projection),
        }
    }
}

impl TableHandle for DefaultTableHandle {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn describe(&self) -> String {
        match &self.projection {
            None => "columns=*".into(),
            Some(p) => format!("columns={p:?}"),
        }
    }
}

/// A unit of parallel scan work: one storage object.
#[derive(Debug, Clone)]
pub struct Split {
    /// Serving connector.
    pub connector: String,
    /// Table name.
    pub table: String,
    /// Object bucket.
    pub bucket: String,
    /// Object key.
    pub key: String,
    /// The table's base schema (so providers can serve plain projected
    /// reads even from a never-rewritten default handle).
    pub schema: SchemaRef,
    /// Scan handle (shared with the scan node).
    pub handle: Arc<dyn TableHandle>,
    /// Sequence number for deterministic ordering.
    pub seq: usize,
}

/// A lazy batch stream for one split: the engine's split workers pull
/// batches one at a time through the streaming operator path, overlapping
/// consumption with production instead of materializing the whole result.
pub trait PageStream: Send {
    /// Next decoded batch, or `None` at end of stream.
    fn next_batch(&mut self) -> EResult<Option<RecordBatch>>;
    /// Consume the stream and return the split's report. Call after
    /// `next_batch` returns `None`.
    fn finish(self: Box<Self>) -> EResult<SplitReport>;
}

/// What a page source returns for one split: a lazy batch stream plus the
/// plan-generation cost paid before the request was issued.
pub struct PageSourceResult {
    /// The scan output, streamed batch-at-a-time.
    pub stream: Box<dyn PageStream>,
    /// Core-seconds of Substrait IR generation (billed to the compute
    /// node, Table 3's "Substrait IR Generation" row). Zero for
    /// connectors that ship no plan.
    pub substrait_gen_s: f64,
}

/// Stream for whole-result connectors (a raw GET of the object): every
/// batch is materialized up front and the split reports as
/// [`SplitReport::monolithic`] — one indivisible frame, which is exactly
/// how a monolithic fetch behaves.
#[derive(Debug)]
pub struct BufferedPageStream {
    batches: VecDeque<RecordBatch>,
    report: SplitReport,
}

impl BufferedPageStream {
    /// Wrap an already-materialized result. `stats` carries the
    /// storage/frontend accounting; the whole payload counts as one frame.
    pub fn whole_result(
        batches: Vec<RecordBatch>,
        stats: ExecStats,
        network_bytes: u64,
        network_requests: u64,
        compute_deser_s: f64,
    ) -> Box<Self> {
        Box::new(BufferedPageStream {
            batches: batches.into(),
            report: SplitReport::monolithic(
                stats,
                network_bytes,
                network_requests,
                compute_deser_s,
            ),
        })
    }
}

impl PageStream for BufferedPageStream {
    fn next_batch(&mut self) -> EResult<Option<RecordBatch>> {
        Ok(self.batches.pop_front())
    }

    fn finish(self: Box<Self>) -> EResult<SplitReport> {
        Ok(self.report)
    }
}

/// Creates page sources for splits (Presto's `ConnectorPageSourceProvider`).
pub trait PageSourceProvider: Send + Sync {
    /// Open (and possibly storage-side execute) one split as a stream.
    fn create(&self, split: &Split) -> EResult<PageSourceResult>;
}

/// The splits of a scan: one per storage object, numbered in object order.
pub fn splits(table: &TableMeta, scan: &TableScanNode) -> Vec<Split> {
    table
        .objects
        .iter()
        .enumerate()
        .map(|(seq, obj)| Split {
            connector: scan.connector.clone(),
            table: table.name.clone(),
            bucket: obj.bucket.clone(),
            key: obj.key.clone(),
            schema: table.schema.clone(),
            handle: scan.handle.clone(),
            seq,
        })
        .collect()
}

/// Context handed to connector plan optimizers.
pub struct OptimizerContext<'a> {
    /// The metastore (for statistics).
    pub metastore: &'a Metastore,
    /// Cost parameters in force.
    pub cost: &'a CostParams,
}

/// The connector-specific local-optimizer hook (Presto's
/// `ConnectorPlanOptimizer`): inspect the plan after global optimization
/// and rewrite the subtree it owns.
pub trait ConnectorPlanOptimizer: Send + Sync {
    /// Return the (possibly rewritten) plan.
    fn optimize(&self, plan: LogicalPlan, ctx: &OptimizerContext<'_>) -> EResult<LogicalPlan>;
}

/// A storage connector: the unit of pluggability.
pub trait Connector: Send + Sync {
    /// Registry name (matched against `TableMeta::connector`).
    fn name(&self) -> &str;
    /// Optional plan-optimizer hook.
    fn plan_optimizer(&self) -> Option<Arc<dyn ConnectorPlanOptimizer>> {
        None
    }
    /// Page sources.
    fn page_source_provider(&self) -> Arc<dyn PageSourceProvider>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ObjectLocation, TableStats};
    use columnar::{DataType, Field, Schema};

    #[test]
    fn one_split_per_object() {
        let schema = Arc::new(Schema::new(vec![Field::new("a", DataType::Int64, false)]));
        let meta = TableMeta {
            name: "t".into(),
            connector: "raw".into(),
            schema: schema.clone(),
            objects: (0..3)
                .map(|i| ObjectLocation {
                    bucket: "b".into(),
                    key: format!("t/{i}"),
                    rows: 10,
                    bytes: 100,
                    ..Default::default()
                })
                .collect(),
            stats: TableStats::default(),
        };
        let scan = TableScanNode {
            table: "t".into(),
            connector: "raw".into(),
            output_schema: schema,
            handle: Arc::new(DefaultTableHandle::all_columns()),
        };
        let splits = splits(&meta, &scan);
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[2].key, "t/2");
        assert_eq!(splits[2].seq, 2);
    }

    #[test]
    fn handle_downcast() {
        let h: Arc<dyn TableHandle> = Arc::new(DefaultTableHandle::projected(vec![1, 3]));
        let back = h
            .as_any()
            .downcast_ref::<DefaultTableHandle>()
            .expect("downcast");
        assert_eq!(back.projection, Some(vec![1, 3]));
        assert!(h.describe().contains("[1, 3]"));
    }
}
