//! The OCS table handle: the "modified TableScan operator" that
//! encapsulates the pushed-down operator chain (paper §4, Local Optimizer:
//! "The corresponding PlanNodes are merged into a modified TableScan
//! operator").

use std::any::Any;

use columnar::agg::AggFunc;
use columnar::sort::SortKey;
use columnar::SchemaRef;
use dsq::expr::ScalarExpr;
use dsq::spi::TableHandle;
use substrait_ir::Plan;

/// One pushed-down partial aggregate.
///
/// `AVG` is decomposed into `SUM` + `COUNT` partials at extraction time, so
/// `func` here is always decomposable (Count/Sum/Min/Max).
#[derive(Debug, Clone, PartialEq)]
pub struct PushedAggregate {
    /// The partial function executed in storage.
    pub func: AggFunc,
    /// Argument (None = `COUNT(*)`), in scan-output coordinates.
    pub arg: Option<ScalarExpr>,
    /// Name of the partial column the scan will emit.
    pub output_name: String,
}

/// Named group-key expressions of a pushed aggregation.
pub type GroupKeys = Vec<(ScalarExpr, String)>;

/// The operators captured by the Operator Extractor, in execution order.
///
/// All expressions are in the coordinates of the (column-pruned) scan
/// output — the same coordinates the generated Substrait `ReadRel`
/// emits.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PushedOps {
    /// `WHERE` predicate.
    pub filter: Option<ScalarExpr>,
    /// Expression projection (replaces columns when present).
    pub project: Option<Vec<(ScalarExpr, String)>>,
    /// Pushed aggregation: group keys + measures (partial form unless
    /// [`PushedOps::aggregate_is_full`]).
    pub aggregate: Option<(GroupKeys, Vec<PushedAggregate>)>,
    /// True when the aggregation is pushed in FULL form (per-object
    /// complete aggregation; requires object-disjoint group keys).
    pub aggregate_is_full: bool,
    /// Bare sort (pushed only on already-reduced data).
    pub sort: Option<Vec<SortKey>>,
    /// Top-N: sort keys + limit.
    pub topn: Option<(Vec<SortKey>, u64)>,
}

impl PushedOps {
    /// Names of the pushed operator classes, in execution order (drives
    /// the monitoring output and plan display).
    pub fn pushed_names(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.filter.is_some() {
            v.push("Filter");
        }
        if self.project.is_some() {
            v.push("Project");
        }
        if self.aggregate.is_some() {
            v.push(if self.aggregate_is_full {
                "Aggregation(full)"
            } else {
                "Aggregation(partial)"
            });
        }
        if self.sort.is_some() {
            v.push("Sort");
        }
        if self.topn.is_some() {
            v.push("TopN");
        }
        v
    }

    /// True when nothing is pushed beyond column projection.
    pub fn is_empty(&self) -> bool {
        self.filter.is_none()
            && self.project.is_none()
            && self.aggregate.is_none()
            && self.sort.is_none()
            && self.topn.is_none()
    }
}

/// The connector-private scan handle.
#[derive(Debug, Clone)]
pub struct OcsTableHandle {
    /// Catalog table name.
    pub table: String,
    /// Full stored schema of the table.
    pub base_schema: SchemaRef,
    /// Column pruning: file-column ordinals the `ReadRel` emits.
    pub projection: Vec<usize>,
    /// The captured operator chain.
    pub pushed: PushedOps,
    /// Schema the modified scan emits back to the engine.
    pub output_schema: SchemaRef,
    /// The Substrait plan the connector optimizer verified; every split ships it.
    pub plan: Plan,
    /// IR nodes generated translating `plan` (billed per split).
    pub ir_nodes: u64,
}

impl TableHandle for OcsTableHandle {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn describe(&self) -> String {
        let pushed = self.pushed.pushed_names();
        if pushed.is_empty() {
            format!("ocs columns={:?}", self.projection)
        } else {
            format!(
                "ocs columns={:?} pushed=[{}]",
                self.projection,
                pushed.join(", ")
            )
        }
    }

    fn pushes_operators(&self) -> bool {
        !self.pushed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{DataType, Field, Schema};
    use std::sync::Arc;

    #[test]
    fn describe_lists_pushed_ops() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, false)]));
        let mut h = OcsTableHandle {
            table: "t".into(),
            base_schema: schema.clone(),
            projection: vec![0],
            pushed: PushedOps::default(),
            output_schema: schema.clone(),
            plan: Plan::new(substrait_ir::Rel::read(
                "t",
                (*schema).clone(),
                Some(vec![0]),
            )),
            ir_nodes: 2,
        };
        assert!(h.pushed.is_empty());
        assert!(!h.pushes_operators());
        assert_eq!(h.describe(), "ocs columns=[0]");
        h.pushed.filter = Some(ScalarExpr::lit(columnar::Scalar::Boolean(true)));
        h.pushed.topn = Some((vec![], 10));
        assert_eq!(h.pushed.pushed_names(), vec!["Filter", "TopN"]);
        assert!(h.pushes_operators());
        assert!(h.describe().contains("pushed=[Filter, TopN]"));
        // Downcast through the SPI trait works.
        let dynh: Arc<dyn TableHandle> = Arc::new(h);
        assert!(dynh.as_any().downcast_ref::<OcsTableHandle>().is_some());
    }
}
