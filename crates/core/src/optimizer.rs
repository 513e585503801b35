//! The connector's local optimizer: Selectivity Analyzer + Operator
//! Extractor + plan rewrite (paper §3.4 step 1 and §4 "Local Optimizer").
//!
//! Walks the optimized logical plan bottom-up from the scan, decides
//! per-operator pushdown eligibility (policy flags × estimated data
//! reduction × expression complexity), folds the eligible prefix into an
//! [`OcsTableHandle`], and reconstructs the residual engine plan:
//!
//! * pushed **filters/projections** disappear from the engine plan
//!   entirely (they are complete in storage);
//! * a pushed **aggregation** becomes *partial* in storage and *final* at
//!   the engine (with `AVG` recombined from `SUM`/`COUNT` partials by a
//!   generated projection), so groups spanning objects merge correctly;
//! * pushed **top-N/sort/limit** keep their engine-side node as the final
//!   merge over per-object results.

use std::sync::Arc;

use columnar::agg::AggFunc;
use columnar::kernels::arith::ArithOp;
use columnar::{DataType, Field, Schema, SchemaRef};
use dsq::error::{EResult, EngineError};
use dsq::expr::{AggregateCall, ScalarExpr};
use dsq::plan::{LogicalPlan, TableScanNode};
use dsq::spi::{ConnectorPlanOptimizer, DefaultTableHandle, OptimizerContext};

use crate::handle::{OcsTableHandle, PushedAggregate, PushedOps};
use crate::policy::PushdownPolicy;
use crate::selectivity::SelectivityAnalyzer;

/// Rows below which a bare `ORDER BY` is cheap enough to offload.
const SORT_PUSHDOWN_ROW_BOUND: f64 = 100_000.0;

/// Can the optimizer *prove*, from per-object (partition-level) min/max
/// statistics, that the aggregation's group keys never span storage
/// objects? True when some plain-column group key has pairwise
/// non-overlapping value ranges across all objects (then every group tuple
/// is confined to one object). This is what makes pushing top-N above a
/// FULL in-storage aggregation exact — e.g. Laghos files cover disjoint
/// vertex-id ranges and each Deep Water file is one timestep.
pub fn groups_object_disjoint(
    table: &dsq::catalog::TableMeta,
    projection: &[usize],
    group_by: &[(ScalarExpr, String)],
) -> bool {
    if group_by.is_empty() || table.objects.len() <= 1 {
        // A global aggregate's single "group" spans objects by definition
        // (unless there is only one object); plain-column disjointness
        // cannot help it.
        return table.objects.len() <= 1;
    }
    'keys: for (expr, _) in group_by {
        let ScalarExpr::Column { index, .. } = expr else {
            continue;
        };
        let Some(&file_col) = projection.get(*index) else {
            continue;
        };
        // Gather per-object (min, max); every object must have stats.
        let mut ranges = Vec::with_capacity(table.objects.len());
        for obj in &table.objects {
            match obj.columns.get(file_col) {
                Some(s) if !s.min.is_null() && !s.max.is_null() => {
                    ranges.push((s.min.clone(), s.max.clone()));
                }
                // All-null/empty objects contribute no key values.
                Some(s) if s.row_count == 0 || s.null_count == s.row_count => {}
                _ => continue 'keys,
            }
        }
        ranges.sort_by(|a, b| a.0.total_cmp(&b.0));
        let disjoint = ranges.windows(2).all(|w| w[0].1.total_cmp(&w[1].0).is_lt());
        if disjoint {
            return true;
        }
    }
    false
}

/// The `ConnectorPlanOptimizer` implementation for OCS.
pub struct OcsPlanOptimizer {
    connector: String,
    policy: PushdownPolicy,
}

impl OcsPlanOptimizer {
    /// New optimizer for the connector registered as `connector`.
    pub fn new(connector: String, policy: PushdownPolicy) -> Self {
        OcsPlanOptimizer { connector, policy }
    }
}

/// What happens to each captured operator on the engine side.
enum Residual {
    /// Node removed entirely (complete in storage).
    Removed,
    /// Node kept as-is (final merge over per-object results).
    Kept(LogicalPlan),
    /// Aggregation: replaced by final-agg (+ AVG recombination project).
    FinalAggregate {
        group_by: Vec<(ScalarExpr, String)>,
        finals: Vec<AggregateCall>,
        avg_project: Option<Vec<(ScalarExpr, String)>>,
    },
}

impl ConnectorPlanOptimizer for OcsPlanOptimizer {
    fn optimize(&self, plan: LogicalPlan, ctx: &OptimizerContext<'_>) -> EResult<LogicalPlan> {
        let scan = plan.scan().clone();
        if scan.connector != self.connector {
            return Ok(plan);
        }
        // Already rewritten (idempotence).
        if scan
            .handle
            .as_any()
            .downcast_ref::<OcsTableHandle>()
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
        let analyzer = SelectivityAnalyzer::new(&table, &projection);

        // Chain above the scan, leaf→root, owned.
        let mut chain: Vec<LogicalPlan> = Vec::new();
        {
            let mut cur = &plan;
            while let Some(next) = cur.input() {
                chain.push(cur.clone());
                cur = next;
            }
            chain.reverse();
        }

        let mut pushed = PushedOps::default();
        let mut residuals: Vec<Residual> = Vec::new();
        let mut scan_output: SchemaRef = scan.output_schema.clone();
        let mut est_rows = analyzer.row_count() as f64;
        let mut capturing = true;
        let mut aggregate_is_full = false;

        for (idx, op) in chain.iter().enumerate() {
            if !capturing {
                residuals.push(Residual::Kept(op.clone()));
                continue;
            }
            // Lookahead: is the next operator a top-N we intend to push?
            // If so the aggregate must be pushed in FULL form (per-object
            // complete aggregation), because the top-N sort key (e.g. an
            // AVG) does not exist in partial-state form. Full form is
            // exact only when groups never span objects — either *proven*
            // from per-object min/max statistics, or asserted by the
            // policy's explicit override.
            let next_is_topn = matches!(chain.get(idx + 1), Some(LogicalPlan::TopN { .. }));
            match op {
                LogicalPlan::Filter { predicate, .. }
                    if self.policy.filter && pushed.aggregate.is_none() =>
                {
                    let sel = analyzer.filter_selectivity(predicate);
                    if sel <= self.policy.selectivity_threshold {
                        pushed.filter = Some(match pushed.filter.take() {
                            None => predicate.clone(),
                            Some(prev) => {
                                ScalarExpr::And(Arc::new(prev), Arc::new(predicate.clone()))
                            }
                        });
                        est_rows *= sel;
                        residuals.push(Residual::Removed);
                    } else {
                        capturing = false;
                        residuals.push(Residual::Kept(op.clone()));
                    }
                }
                LogicalPlan::Project { exprs, .. }
                    if self.policy.project
                        && pushed.project.is_none()
                        && pushed.aggregate.is_none() =>
                {
                    let weight: u32 = exprs.iter().map(|(e, _)| e.weight()).sum();
                    if weight <= self.policy.max_project_weight {
                        pushed.project = Some(exprs.clone());
                        scan_output = Arc::new(Schema::new(
                            exprs
                                .iter()
                                .map(|(e, n)| Field::new(n.clone(), e.data_type(), true))
                                .collect(),
                        ));
                        residuals.push(Residual::Removed);
                    } else {
                        capturing = false;
                        residuals.push(Residual::Kept(op.clone()));
                    }
                }
                LogicalPlan::Aggregate { group_by, aggs, .. }
                    if self.policy.aggregate && pushed.aggregate.is_none() =>
                {
                    let sel = analyzer.aggregate_selectivity(group_by);
                    if sel <= self.policy.selectivity_threshold {
                        est_rows = analyzer.aggregate_output_rows(group_by) as f64;
                        let full_mode_ok = self.policy.topn
                            && groups_object_disjoint(&table, &projection, group_by);
                        if next_is_topn && full_mode_ok {
                            // FULL aggregation in storage: the scan emits
                            // the original aggregate output schema and the
                            // engine-side Aggregate node disappears.
                            let partials = aggs
                                .iter()
                                .map(|a| PushedAggregate {
                                    func: a.func,
                                    arg: a.arg.clone(),
                                    output_name: a.output_name.clone(),
                                })
                                .collect();
                            pushed.aggregate = Some((group_by.clone(), partials));
                            pushed.aggregate_is_full = true;
                            scan_output = op.schema()?;
                            aggregate_is_full = true;
                            residuals.push(Residual::Removed);
                        } else {
                            let (partials, finals, avg_project, partial_schema) =
                                decompose_aggregate(group_by, aggs)?;
                            pushed.aggregate = Some((group_by.clone(), partials));
                            scan_output = partial_schema;
                            residuals.push(Residual::FinalAggregate {
                                group_by: group_by.clone(),
                                finals,
                                avg_project,
                            });
                        }
                    } else {
                        capturing = false;
                        residuals.push(Residual::Kept(op.clone()));
                    }
                }
                LogicalPlan::TopN { keys, limit, .. }
                    if self.policy.topn && (pushed.aggregate.is_none() || aggregate_is_full) =>
                {
                    pushed.topn = Some((keys.clone(), *limit));
                    est_rows = est_rows.min(*limit as f64);
                    // Final merge stays engine-side.
                    residuals.push(Residual::Kept(op.clone()));
                    capturing = false; // nothing meaningful above a top-N
                }
                LogicalPlan::Sort { keys, .. }
                    if self.policy.sort
                        && (pushed.aggregate.is_none() || aggregate_is_full)
                        && est_rows <= SORT_PUSHDOWN_ROW_BOUND =>
                {
                    pushed.sort = Some(keys.clone());
                    residuals.push(Residual::Kept(op.clone()));
                    capturing = false;
                }
                LogicalPlan::Limit { limit, .. } if self.policy.topn => {
                    pushed.topn = Some((Vec::new(), *limit));
                    est_rows = est_rows.min(*limit as f64);
                    residuals.push(Residual::Kept(op.clone()));
                    capturing = false;
                }
                other => {
                    capturing = false;
                    residuals.push(Residual::Kept(other.clone()));
                }
            }
        }

        // The engine-side check, once per query in every build: translate
        // and verify the exact Substrait plan the handle ships to every
        // split. The analyzer has typed the query with the same `columnar`
        // rules, so a rejection here is a rewrite bug in this optimizer.
        let (plan, ir_nodes) =
            crate::translate::to_substrait(&scan.table, &table.schema, &projection, &pushed)
                .map_err(EngineError::connector)?;

        // Rebuild: modified scan + residual chain.
        let handle = OcsTableHandle {
            table: scan.table.clone(),
            base_schema: table.schema.clone(),
            projection,
            pushed,
            output_schema: scan_output.clone(),
            plan,
            ir_nodes,
        };

        let mut rebuilt = LogicalPlan::TableScan(TableScanNode {
            table: scan.table.clone(),
            connector: scan.connector.clone(),
            output_schema: scan_output,
            handle: Arc::new(handle),
        });
        for r in residuals {
            rebuilt = match r {
                Residual::Removed => rebuilt,
                Residual::Kept(node) => node.with_input(rebuilt),
                Residual::FinalAggregate {
                    group_by,
                    finals,
                    avg_project,
                } => {
                    // Final aggregation keys reference the partial scan
                    // output: keys are columns 0..k by construction.
                    let final_keys: Vec<(ScalarExpr, String)> = group_by
                        .iter()
                        .enumerate()
                        .map(|(i, (e, n))| {
                            (ScalarExpr::col(i, n.clone(), e.data_type()), n.clone())
                        })
                        .collect();
                    let mut node = LogicalPlan::Aggregate {
                        input: Box::new(rebuilt),
                        group_by: final_keys,
                        aggs: finals,
                    };
                    if let Some(exprs) = avg_project {
                        node = LogicalPlan::Project {
                            input: Box::new(node),
                            exprs,
                        };
                    }
                    node
                }
            };
        }
        rebuilt.validate()?;
        Ok(rebuilt)
    }
}

/// Decompose an aggregation into storage partials + engine finals.
///
/// Returns `(partials, final calls, optional AVG-recombination projection,
/// partial scan output schema)`.
#[allow(clippy::type_complexity)]
pub fn decompose_aggregate(
    group_by: &[(ScalarExpr, String)],
    aggs: &[AggregateCall],
) -> EResult<(
    Vec<PushedAggregate>,
    Vec<AggregateCall>,
    Option<Vec<(ScalarExpr, String)>>,
    SchemaRef,
)> {
    let k = group_by.len();
    let mut partials: Vec<PushedAggregate> = Vec::new();
    let mut finals: Vec<AggregateCall> = Vec::new();
    let mut needs_avg = false;

    // Partial scan output schema: keys first.
    let mut fields: Vec<Field> = group_by
        .iter()
        .map(|(e, n)| Field::new(n.clone(), e.data_type(), true))
        .collect();

    for (i, a) in aggs.iter().enumerate() {
        match a.func {
            AggFunc::Count => {
                let name = format!("__p{i}_count");
                partials.push(PushedAggregate {
                    func: AggFunc::Count,
                    arg: a.arg.clone(),
                    output_name: name.clone(),
                });
                fields.push(Field::new(name.clone(), DataType::Int64, true));
                finals.push(AggregateCall {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::col(
                        k + partials.len() - 1,
                        name,
                        DataType::Int64,
                    )),
                    output_name: a.output_name.clone(),
                });
            }
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                let dt = a.output_type()?;
                let name = format!("__p{i}_{}", a.func.sql());
                partials.push(PushedAggregate {
                    func: a.func,
                    arg: a.arg.clone(),
                    output_name: name.clone(),
                });
                fields.push(Field::new(name.clone(), dt, true));
                finals.push(AggregateCall {
                    func: a.func,
                    arg: Some(ScalarExpr::col(k + partials.len() - 1, name, dt)),
                    output_name: a.output_name.clone(),
                });
            }
            AggFunc::Avg => {
                needs_avg = true;
                let arg = a
                    .arg
                    .clone()
                    .ok_or_else(|| EngineError::Analysis("AVG requires an argument".into()))?;
                // Partial SUM must accumulate in f64 so the final division
                // is exact SQL AVG semantics even for integer inputs.
                let sum_arg = if arg.data_type() == DataType::Float64 {
                    arg.clone()
                } else {
                    ScalarExpr::Cast {
                        expr: Arc::new(arg.clone()),
                        to: DataType::Float64,
                    }
                };
                let sum_name = format!("__p{i}_sum");
                let cnt_name = format!("__p{i}_count");
                partials.push(PushedAggregate {
                    func: AggFunc::Sum,
                    arg: Some(sum_arg),
                    output_name: sum_name.clone(),
                });
                fields.push(Field::new(sum_name.clone(), DataType::Float64, true));
                finals.push(AggregateCall {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::col(
                        k + partials.len() - 1,
                        sum_name,
                        DataType::Float64,
                    )),
                    output_name: format!("__f{i}_sum"),
                });
                partials.push(PushedAggregate {
                    func: AggFunc::Count,
                    arg: Some(arg),
                    output_name: cnt_name.clone(),
                });
                fields.push(Field::new(cnt_name.clone(), DataType::Int64, true));
                finals.push(AggregateCall {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::col(
                        k + partials.len() - 1,
                        cnt_name,
                        DataType::Int64,
                    )),
                    output_name: format!("__f{i}_count"),
                });
            }
        }
    }

    // AVG recombination projection, reproducing the ORIGINAL aggregate
    // output schema (keys…, agg outputs…) so upstream sort keys stay valid.
    let avg_project = if needs_avg {
        let mut exprs: Vec<(ScalarExpr, String)> = Vec::with_capacity(k + aggs.len());
        // Final agg output: keys 0..k, then finals in order.
        for (j, (e, n)) in group_by.iter().enumerate() {
            exprs.push((ScalarExpr::col(j, n.clone(), e.data_type()), n.clone()));
        }
        let mut fpos = k;
        for a in aggs {
            match a.func {
                AggFunc::Avg => {
                    let sum =
                        ScalarExpr::col(fpos, format!("{}__s", a.output_name), DataType::Float64);
                    let cnt =
                        ScalarExpr::col(fpos + 1, format!("{}__c", a.output_name), DataType::Int64);
                    exprs.push((
                        ScalarExpr::Arith {
                            op: ArithOp::Div,
                            left: Arc::new(sum),
                            right: Arc::new(ScalarExpr::Cast {
                                expr: Arc::new(cnt),
                                to: DataType::Float64,
                            }),
                        },
                        a.output_name.clone(),
                    ));
                    fpos += 2;
                }
                _ => {
                    exprs.push((
                        ScalarExpr::col(fpos, a.output_name.clone(), a.output_type()?),
                        a.output_name.clone(),
                    ));
                    fpos += 1;
                }
            }
        }
        Some(exprs)
    } else {
        None
    };

    Ok((partials, finals, avg_project, Arc::new(Schema::new(fields))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq::catalog::{Metastore, ObjectLocation, TableMeta};
    use netsim::CostParams;
    use substrait_ir::{DiagCode, Diagnostic};

    #[test]
    fn an_ill_typed_pushed_filter_is_a_rejected_storage_plan() {
        // A rewrite bug stand-in: a filter whose predicate is Int64. The
        // analyzer never builds one; if a rewrite did, the plan shipped to
        // storage fails planck, in every build, as a typed error.
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, false)]));
        let metastore = Metastore::new();
        metastore.register(TableMeta {
            name: "t".into(),
            connector: "ocs".into(),
            schema: schema.clone(),
            objects: vec![ObjectLocation {
                bucket: "lake".into(),
                key: "t/0".into(),
                rows: 10,
                bytes: 100,
                ..Default::default()
            }],
            stats: Default::default(),
        });
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::TableScan(TableScanNode {
                table: "t".into(),
                connector: "ocs".into(),
                output_schema: schema,
                handle: Arc::new(DefaultTableHandle::all_columns()),
            })),
            predicate: ScalarExpr::col(0, "x", DataType::Int64),
        };
        let ctx = OptimizerContext {
            metastore: &metastore,
            cost: &CostParams::default(),
        };
        let optimizer = OcsPlanOptimizer::new("ocs".into(), PushdownPolicy::all());
        match optimizer.optimize(plan, &ctx) {
            Err(EngineError::Connector(e)) => {
                let d = e.downcast_ref::<Diagnostic>().expect("a planck diagnostic");
                assert_eq!(d.code, DiagCode::FilterNotBoolean, "{d}");
            }
            other => panic!("expected a rejected storage plan, got {other:?}"),
        }
    }

    fn call(func: AggFunc, col: usize, dt: DataType, name: &str) -> AggregateCall {
        AggregateCall {
            func,
            arg: Some(ScalarExpr::col(col, format!("c{col}"), dt)),
            output_name: name.into(),
        }
    }

    #[test]
    fn decompose_simple_functions() {
        let keys = vec![(ScalarExpr::col(0, "g", DataType::Int64), "g".into())];
        let aggs = vec![
            call(AggFunc::Min, 1, DataType::Float64, "lo"),
            call(AggFunc::Sum, 1, DataType::Float64, "s"),
            AggregateCall {
                func: AggFunc::Count,
                arg: None,
                output_name: "n".into(),
            },
        ];
        let (partials, finals, avg_proj, schema) = decompose_aggregate(&keys, &aggs).unwrap();
        assert_eq!(partials.len(), 3);
        assert!(avg_proj.is_none());
        assert_eq!(
            schema.names(),
            vec!["g", "__p0_min", "__p1_sum", "__p2_count"]
        );
        // Finals preserve original output names; COUNT becomes SUM of counts.
        assert_eq!(finals[2].func, AggFunc::Sum);
        assert_eq!(finals[2].output_name, "n");
        assert_eq!(finals[0].func, AggFunc::Min);
    }

    #[test]
    fn decompose_avg_splits_into_sum_count() {
        let keys = vec![(ScalarExpr::col(0, "g", DataType::Int64), "g".into())];
        let aggs = vec![
            call(AggFunc::Avg, 1, DataType::Float64, "a"),
            call(AggFunc::Max, 1, DataType::Float64, "m"),
        ];
        let (partials, finals, avg_proj, schema) = decompose_aggregate(&keys, &aggs).unwrap();
        assert_eq!(partials.len(), 3, "avg → sum+count, max → max");
        assert_eq!(
            schema.names(),
            vec!["g", "__p0_sum", "__p0_count", "__p1_max"]
        );
        assert_eq!(finals.len(), 3);
        let proj = avg_proj.expect("avg requires projection");
        // Projection output order matches the original aggregate schema.
        let names: Vec<&str> = proj.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["g", "a", "m"]);
        // The AVG expression divides final sum by final count.
        assert!(matches!(
            proj[1].0,
            ScalarExpr::Arith {
                op: ArithOp::Div,
                ..
            }
        ));
    }

    #[test]
    fn decompose_avg_of_integers_casts_to_float() {
        let keys = vec![];
        let aggs = vec![call(AggFunc::Avg, 0, DataType::Int64, "a")];
        let (partials, _, _, schema) = decompose_aggregate(&keys, &aggs).unwrap();
        assert!(matches!(
            partials[0].arg.as_ref().unwrap(),
            ScalarExpr::Cast {
                to: DataType::Float64,
                ..
            }
        ));
        assert_eq!(schema.field(0).data_type, DataType::Float64);
    }
}
