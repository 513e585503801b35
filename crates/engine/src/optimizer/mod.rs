//! The global (rule-based) optimizer — step 3 of the coordinator pipeline.
//!
//! Rules, applied in order:
//!
//! 1. [`fold_constants`] — literal-only subexpressions become literals
//!    (e.g. `DATE '1998-12-01' - INTERVAL '90' DAY` and `500*500`);
//! 2. [`merge_sort_limit`] — `Limit(Sort(x))` becomes `TopN(x)`, the
//!    operator OCS can execute in-storage;
//! 3. [`prune_projection`] — the scan is narrowed to the columns the query
//!    actually references (column pruning, which even conventional object
//!    stores support and every configuration in the paper enjoys).
//!
//! Connector-specific optimization (the paper's local-optimizer hook) runs
//! *after* these, from [`crate::session::Engine`].

mod const_fold;
pub mod invariant;
mod prune;

pub use const_fold::fold_constants;
pub use invariant::{check_rewrite, checked};
pub use prune::prune_projection;

use crate::error::EResult;
use crate::plan::LogicalPlan;

/// `Limit(Sort(x), n)` → `TopN(x, keys, n)`.
pub fn merge_sort_limit(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Limit { input, limit } => match *input {
            LogicalPlan::Sort { input, keys } => LogicalPlan::TopN {
                input: Box::new(merge_sort_limit(*input)),
                keys,
                limit,
            },
            other => LogicalPlan::Limit {
                input: Box::new(merge_sort_limit(other)),
                limit,
            },
        },
        LogicalPlan::TableScan(s) => LogicalPlan::TableScan(s),
        other => {
            let input = merge_sort_limit(other.input().expect("non-leaf").clone());
            other.with_input(input)
        }
    }
}

/// Run the full global rule pipeline.
///
/// Every rule runs under the differential [`invariant`] check: the
/// rewritten plan must re-validate and its inferred output schema must be
/// unchanged, so a broken rule is caught at the rule that introduced it
/// (the trailing whole-plan `validate()` this pipeline used to run could
/// only say *that* something broke, never *which rule* broke it).
pub fn optimize(plan: LogicalPlan) -> EResult<LogicalPlan> {
    let baseline = plan.schema()?;
    let plan = checked("fold_constants", &baseline, fold_constants(plan)?)?;
    let plan = checked("merge_sort_limit", &baseline, merge_sort_limit(plan))?;
    let plan = checked("prune_projection", &baseline, prune_projection(plan)?)?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::TableScanNode;
    use crate::spi::DefaultTableHandle;
    use columnar::sort::SortKey;
    use columnar::{DataType, Field, Schema};
    use std::sync::Arc;

    fn scan() -> LogicalPlan {
        LogicalPlan::TableScan(TableScanNode {
            table: "t".into(),
            connector: "raw".into(),
            output_schema: Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int64, false),
                Field::new("b", DataType::Float64, false),
            ])),
            handle: Arc::new(DefaultTableHandle::all_columns()),
        })
    }

    #[test]
    fn limit_of_sort_becomes_topn() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan()),
                keys: vec![SortKey {
                    column: 0,
                    ascending: true,
                    nulls_first: true,
                }],
            }),
            limit: 10,
        };
        let out = merge_sort_limit(plan);
        assert_eq!(out.chain_description(), "TableScan -> TopN");
        match out {
            LogicalPlan::TopN { limit, keys, .. } => {
                assert_eq!(limit, 10);
                assert_eq!(keys.len(), 1);
            }
            other => panic!("got {}", other.name()),
        }
    }

    #[test]
    fn lone_limit_untouched() {
        let plan = LogicalPlan::Limit {
            input: Box::new(scan()),
            limit: 3,
        };
        let out = merge_sort_limit(plan);
        assert_eq!(out.chain_description(), "TableScan -> Limit");
    }

    #[test]
    fn lone_sort_untouched() {
        let plan = LogicalPlan::Sort {
            input: Box::new(scan()),
            keys: vec![SortKey {
                column: 1,
                ascending: false,
                nulls_first: false,
            }],
        };
        let out = merge_sort_limit(plan);
        assert_eq!(out.chain_description(), "TableScan -> Sort");
    }
}
