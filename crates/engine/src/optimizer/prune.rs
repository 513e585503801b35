//! Projection pruning: narrow the scan to the columns the query touches
//! and remap every scan-schema reference.
//!
//! Column pruning is the one storage optimization *every* configuration in
//! the paper benefits from (columnar formats make it nearly free), so it
//! lives in the global optimizer, not in any connector.

use std::sync::Arc;

use columnar::sort::SortKey;

use crate::error::EResult;
use crate::expr::AggregateCall;
use crate::plan::{LogicalPlan, TableScanNode};
use crate::spi::DefaultTableHandle;

/// Narrow the scan of a linear plan chain.
pub fn prune_projection(plan: LogicalPlan) -> EResult<LogicalPlan> {
    // Collect the chain root→leaf.
    let mut chain: Vec<&LogicalPlan> = Vec::new();
    let mut cur = &plan;
    loop {
        chain.push(cur);
        match cur.input() {
            Some(next) => cur = next,
            None => break,
        }
    }
    // chain.last() is the scan; walk upward (reverse) collecting the nodes
    // that consume the *scan* schema: every node up to and including the
    // first schema-changing node (Project or Aggregate).
    let scan = match chain.last() {
        Some(LogicalPlan::TableScan(s)) => s.clone(),
        _ => return Ok(plan), // defensive: unknown shape, leave untouched
    };
    // Only prune scans still carrying the default (unprojected) handle —
    // re-running the rule or running it after a connector rewrite must be
    // a no-op.
    let already = scan
        .handle
        .as_any()
        .downcast_ref::<DefaultTableHandle>()
        .map(|h| h.projection.is_some())
        .unwrap_or(true);
    if already {
        return Ok(plan);
    }

    let mut needed: Vec<usize> = Vec::new();
    let mut saw_changer = false;
    for node in chain.iter().rev().skip(1) {
        match node {
            LogicalPlan::Filter { predicate, .. } if !saw_changer => {
                predicate.referenced_columns(&mut needed);
            }
            LogicalPlan::Project { exprs, .. } if !saw_changer => {
                for (e, _) in exprs {
                    e.referenced_columns(&mut needed);
                }
                saw_changer = true;
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } if !saw_changer => {
                for (e, _) in group_by {
                    e.referenced_columns(&mut needed);
                }
                for a in aggs {
                    if let Some(arg) = &a.arg {
                        arg.referenced_columns(&mut needed);
                    }
                }
                saw_changer = true;
            }
            LogicalPlan::Sort { keys, .. } | LogicalPlan::TopN { keys, .. } if !saw_changer => {
                for k in keys {
                    if !needed.contains(&k.column) {
                        needed.push(k.column);
                    }
                }
            }
            _ => {}
        }
    }
    if !saw_changer {
        // No Project/Aggregate: the query emits scan columns directly
        // (shouldn't happen with our analyzer, which always inserts one);
        // leave the plan alone rather than risk dropping output columns.
        return Ok(plan);
    }
    needed.sort_unstable();
    needed.dedup();
    if needed.is_empty() {
        // Nothing reads a column (`COUNT(*)`, `WHERE 1 = 1`, `SELECT 1`),
        // but the rows still count, and a zero-column batch has none: keep
        // one column to carry them.
        needed.push(0);
    }
    if needed.len() == scan.output_schema.len() {
        return Ok(plan); // nothing to prune
    }
    let new_schema = Arc::new(scan.output_schema.project(&needed)?);
    // Old index → new index. By construction every column the chain
    // references is in `needed` (the collection pass above walked the same
    // nodes), so the lookup cannot miss; if a future edit breaks that, the
    // sentinel makes the reference out-of-range and the per-rule invariant
    // check in [`super::optimize`] reports a structured error naming this
    // rule instead of panicking mid-rewrite.
    let needed_for_map = needed.clone();
    let map = move |old: usize| -> usize {
        needed_for_map
            .iter()
            .position(|&c| c == old)
            .unwrap_or(usize::MAX)
    };

    // Rebuild the chain bottom-up.
    let mut rebuilt = LogicalPlan::TableScan(TableScanNode {
        table: scan.table.clone(),
        connector: scan.connector.clone(),
        output_schema: new_schema,
        handle: Arc::new(DefaultTableHandle::projected(needed)),
    });
    let mut saw_changer = false;
    for node in chain.iter().rev().skip(1) {
        rebuilt = if saw_changer {
            (*node).with_input(rebuilt)
        } else {
            match node {
                LogicalPlan::Filter { predicate, .. } => LogicalPlan::Filter {
                    input: Box::new(rebuilt),
                    predicate: predicate.remap_columns(&map),
                },
                LogicalPlan::Project { exprs, .. } => {
                    saw_changer = true;
                    LogicalPlan::Project {
                        input: Box::new(rebuilt),
                        exprs: exprs
                            .iter()
                            .map(|(e, n)| (e.remap_columns(&map), n.clone()))
                            .collect(),
                    }
                }
                LogicalPlan::Aggregate { group_by, aggs, .. } => {
                    saw_changer = true;
                    LogicalPlan::Aggregate {
                        input: Box::new(rebuilt),
                        group_by: group_by
                            .iter()
                            .map(|(e, n)| (e.remap_columns(&map), n.clone()))
                            .collect(),
                        aggs: aggs
                            .iter()
                            .map(|a| AggregateCall {
                                func: a.func,
                                arg: a.arg.as_ref().map(|e| e.remap_columns(&map)),
                                output_name: a.output_name.clone(),
                            })
                            .collect(),
                    }
                }
                LogicalPlan::Sort { keys, .. } => LogicalPlan::Sort {
                    input: Box::new(rebuilt),
                    keys: keys
                        .iter()
                        .map(|k| SortKey {
                            column: map(k.column),
                            ..*k
                        })
                        .collect(),
                },
                LogicalPlan::TopN { keys, limit, .. } => LogicalPlan::TopN {
                    input: Box::new(rebuilt),
                    keys: keys
                        .iter()
                        .map(|k| SortKey {
                            column: map(k.column),
                            ..*k
                        })
                        .collect(),
                    limit: *limit,
                },
                LogicalPlan::Limit { limit, .. } => LogicalPlan::Limit {
                    input: Box::new(rebuilt),
                    limit: *limit,
                },
                LogicalPlan::TableScan(_) => unreachable!("scan handled above"),
            }
        };
    }
    Ok(rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;
    use columnar::agg::AggFunc;
    use columnar::kernels::cmp::CmpOp;
    use columnar::{DataType, Field, Scalar, Schema};

    fn wide_scan() -> LogicalPlan {
        LogicalPlan::TableScan(TableScanNode {
            table: "t".into(),
            connector: "raw".into(),
            output_schema: Arc::new(Schema::new(
                (0..10)
                    .map(|i| Field::new(format!("c{i}"), DataType::Float64, false))
                    .collect(),
            )),
            handle: Arc::new(DefaultTableHandle::all_columns()),
        })
    }

    fn col(i: usize) -> ScalarExpr {
        ScalarExpr::col(i, format!("c{i}"), DataType::Float64)
    }

    #[test]
    fn prunes_to_referenced_columns() {
        // Filter on c7, aggregate arg c2, key c5 → scan needs {2, 5, 7}.
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(wide_scan()),
                predicate: ScalarExpr::Cmp {
                    op: CmpOp::Gt,
                    left: Arc::new(col(7)),
                    right: Arc::new(ScalarExpr::lit(Scalar::Float64(0.0))),
                },
            }),
            group_by: vec![(col(5), "c5".into())],
            aggs: vec![AggregateCall {
                func: AggFunc::Sum,
                arg: Some(col(2)),
                output_name: "s".into(),
            }],
        };
        let out = prune_projection(plan).unwrap();
        let scan = out.scan();
        assert_eq!(scan.output_schema.names(), vec!["c2", "c5", "c7"]);
        let h = scan
            .handle
            .as_any()
            .downcast_ref::<DefaultTableHandle>()
            .unwrap();
        assert_eq!(h.projection, Some(vec![2, 5, 7]));
        // Expressions were remapped to the narrow schema.
        out.validate().unwrap();
        match &out {
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                assert!(matches!(group_by[0].0, ScalarExpr::Column { index: 1, .. }));
                assert!(matches!(
                    aggs[0].arg.as_ref().unwrap(),
                    ScalarExpr::Column { index: 0, .. }
                ));
            }
            _ => panic!("expected aggregate root"),
        }
    }

    #[test]
    fn idempotent() {
        let plan = LogicalPlan::Project {
            input: Box::new(wide_scan()),
            exprs: vec![(col(3), "c3".into())],
        };
        let once = prune_projection(plan).unwrap();
        let twice = prune_projection(once.clone()).unwrap();
        assert_eq!(once.scan().output_schema, twice.scan().output_schema);
        once.validate().unwrap();
    }

    #[test]
    fn full_width_reference_is_noop() {
        let plan = LogicalPlan::Project {
            input: Box::new(wide_scan()),
            exprs: (0..10).map(|i| (col(i), format!("c{i}"))).collect(),
        };
        let out = prune_projection(plan).unwrap();
        assert_eq!(out.scan().output_schema.len(), 10);
    }
}
