//! Logical plan nodes (Presto's `PlanNode` tree).

use std::fmt;
use std::sync::Arc;

use columnar::sort::SortKey;
use columnar::{Field, Schema, SchemaRef};

use crate::error::{EResult, EngineError};
use crate::expr::{AggregateCall, ScalarExpr};
use crate::spi::TableHandle;

/// The table-scan leaf. `handle` is connector-private state; after
/// connector optimization it may encode an entire pushed-down operator
/// chain (the paper's "modified TableScan operator").
#[derive(Debug, Clone)]
pub struct TableScanNode {
    /// Catalog table name.
    pub table: String,
    /// Serving connector name.
    pub connector: String,
    /// Schema this scan emits (changes when operators are folded in).
    pub output_schema: SchemaRef,
    /// Connector-specific handle.
    pub handle: Arc<dyn TableHandle>,
}

/// The logical plan tree. All plans in this dialect are linear chains over
/// a single scan (joins are future work, as in the paper's evaluation).
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Leaf scan.
    TableScan(TableScanNode),
    /// Row filter.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Boolean predicate.
        predicate: ScalarExpr,
    },
    /// Expression projection (replaces columns).
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// `(expr, output name)` pairs.
        exprs: Vec<(ScalarExpr, String)>,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// Group-by expressions with output names.
        group_by: Vec<(ScalarExpr, String)>,
        /// Aggregate calls.
        aggs: Vec<AggregateCall>,
    },
    /// Full sort.
    Sort {
        /// Input.
        input: Box<LogicalPlan>,
        /// Keys, major first, as column ordinals of the input.
        keys: Vec<SortKey>,
    },
    /// Bounded sort (`ORDER BY … LIMIT n`).
    TopN {
        /// Input.
        input: Box<LogicalPlan>,
        /// Keys.
        keys: Vec<SortKey>,
        /// Row bound.
        limit: u64,
    },
    /// Plain limit.
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// Row bound.
        limit: u64,
    },
}

impl LogicalPlan {
    /// The node's input, if any.
    pub fn input(&self) -> Option<&LogicalPlan> {
        match self {
            LogicalPlan::TableScan(_) => None,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::TopN { input, .. }
            | LogicalPlan::Limit { input, .. } => Some(input),
        }
    }

    /// Replace this node's input (panics on a leaf — callers check).
    pub fn with_input(&self, new_input: LogicalPlan) -> LogicalPlan {
        match self {
            LogicalPlan::TableScan(_) => panic!("TableScan has no input"),
            LogicalPlan::Filter { predicate, .. } => LogicalPlan::Filter {
                input: Box::new(new_input),
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { exprs, .. } => LogicalPlan::Project {
                input: Box::new(new_input),
                exprs: exprs.clone(),
            },
            LogicalPlan::Aggregate { group_by, aggs, .. } => LogicalPlan::Aggregate {
                input: Box::new(new_input),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            LogicalPlan::Sort { keys, .. } => LogicalPlan::Sort {
                input: Box::new(new_input),
                keys: keys.clone(),
            },
            LogicalPlan::TopN { keys, limit, .. } => LogicalPlan::TopN {
                input: Box::new(new_input),
                keys: keys.clone(),
                limit: *limit,
            },
            LogicalPlan::Limit { limit, .. } => LogicalPlan::Limit {
                input: Box::new(new_input),
                limit: *limit,
            },
        }
    }

    /// The scan leaf of the chain.
    pub fn scan(&self) -> &TableScanNode {
        match self {
            LogicalPlan::TableScan(s) => s,
            other => other.input().expect("non-leaf has input").scan(),
        }
    }

    /// Compute the output schema.
    pub fn schema(&self) -> EResult<SchemaRef> {
        match self {
            LogicalPlan::TableScan(s) => Ok(s.output_schema.clone()),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::TopN { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Project { input, exprs } => {
                input.schema()?; // validate below
                let fields = exprs
                    .iter()
                    .map(|(e, name)| Field::new(name.clone(), e.data_type(), true))
                    .collect();
                Ok(Arc::new(Schema::new(fields)))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                input.schema()?;
                let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
                for (e, name) in group_by {
                    fields.push(Field::new(name.clone(), e.data_type(), true));
                }
                for a in aggs {
                    fields.push(Field::new(a.output_name.clone(), a.output_type()?, true));
                }
                Ok(Arc::new(Schema::new(fields)))
            }
        }
    }

    /// Operator-name chain from leaf to root, e.g.
    /// `TableScan → Filter → Aggregation → TopN` (the paper's Table 2
    /// "Execution Plan" column).
    pub fn chain_description(&self) -> String {
        let mut names = Vec::new();
        let mut cur = Some(self);
        while let Some(node) = cur {
            names.push(node.name());
            cur = node.input();
        }
        names.reverse();
        names.join(" -> ")
    }

    /// Node display name (Presto's naming).
    pub fn name(&self) -> &'static str {
        match self {
            LogicalPlan::TableScan(_) => "TableScan",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Aggregate { .. } => "Aggregation",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::TopN { .. } => "TopN",
            LogicalPlan::Limit { .. } => "Limit",
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        1 + self.input().map(|i| i.node_count()).unwrap_or(0)
    }

    /// Validate plan shape: sort keys and expression column references in
    /// range of the input arity, non-empty Project/Aggregate.
    pub fn validate(&self) -> EResult<()> {
        if let Some(input) = self.input() {
            input.validate()?;
        }
        match self {
            LogicalPlan::Sort { input, keys } | LogicalPlan::TopN { input, keys, .. } => {
                let arity = input.schema()?.len();
                for k in keys {
                    if k.column >= arity {
                        return Err(EngineError::Analysis(format!(
                            "sort key #{} out of range for arity {arity}",
                            k.column
                        )));
                    }
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                expr_refs_in_range(predicate, input.schema()?.len(), "filter predicate")?;
            }
            LogicalPlan::Project { input, exprs } => {
                if exprs.is_empty() {
                    return Err(EngineError::Analysis("empty projection".into()));
                }
                let arity = input.schema()?.len();
                for (e, _) in exprs {
                    expr_refs_in_range(e, arity, "projection")?;
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                if group_by.is_empty() && aggs.is_empty() {
                    return Err(EngineError::Analysis("empty aggregation".into()));
                }
                let arity = input.schema()?.len();
                for (e, _) in group_by {
                    expr_refs_in_range(e, arity, "group-by key")?;
                }
                for a in aggs {
                    if let Some(arg) = &a.arg {
                        expr_refs_in_range(arg, arity, "aggregate argument")?;
                    }
                }
            }
            _ => {}
        }
        self.schema().map(|_| ())
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::TableScan(s) => writeln!(
                f,
                "{pad}TableScan[{} via {}] {}",
                s.table,
                s.connector,
                s.handle.describe()
            ),
            LogicalPlan::Filter { input, predicate } => {
                writeln!(f, "{pad}Filter[{predicate}]")?;
                input.fmt_indent(f, depth + 1)
            }
            LogicalPlan::Project { input, exprs } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{n}:={e}")).collect();
                writeln!(f, "{pad}Project[{}]", cols.join(", "))?;
                input.fmt_indent(f, depth + 1)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let keys: Vec<String> = group_by.iter().map(|(e, n)| format!("{n}:={e}")).collect();
                let calls: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{}:={a}", a.output_name))
                    .collect();
                writeln!(
                    f,
                    "{pad}Aggregation[keys=({}) aggs=({})]",
                    keys.join(", "),
                    calls.join(", ")
                )?;
                input.fmt_indent(f, depth + 1)
            }
            LogicalPlan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("#{}{}", k.column, if k.ascending { "" } else { " DESC" }))
                    .collect();
                writeln!(f, "{pad}Sort[{}]", ks.join(", "))?;
                input.fmt_indent(f, depth + 1)
            }
            LogicalPlan::TopN { input, keys, limit } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("#{}{}", k.column, if k.ascending { "" } else { " DESC" }))
                    .collect();
                writeln!(f, "{pad}TopN[{} limit={limit}]", ks.join(", "))?;
                input.fmt_indent(f, depth + 1)
            }
            LogicalPlan::Limit { input, limit } => {
                writeln!(f, "{pad}Limit[{limit}]")?;
                input.fmt_indent(f, depth + 1)
            }
        }
    }
}

/// Every column `e` references must be `< arity` (the engine-side mirror
/// of the storage verifier's field-bounds pass).
fn expr_refs_in_range(e: &ScalarExpr, arity: usize, node: &str) -> EResult<()> {
    let mut refs = Vec::new();
    e.referenced_columns(&mut refs);
    if let Some(&bad) = refs.iter().find(|&&c| c >= arity) {
        return Err(EngineError::Analysis(format!(
            "{node} references column #{bad} but its input has arity {arity}"
        )));
    }
    Ok(())
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spi::DefaultTableHandle;
    use columnar::agg::AggFunc;
    use columnar::{DataType, Scalar};

    fn scan() -> LogicalPlan {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("x", DataType::Float64, false),
        ]));
        LogicalPlan::TableScan(TableScanNode {
            table: "t".into(),
            connector: "raw".into(),
            output_schema: schema,
            handle: Arc::new(DefaultTableHandle::all_columns()),
        })
    }

    fn filter_plan() -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: ScalarExpr::Cmp {
                op: columnar::kernels::cmp::CmpOp::Gt,
                left: Arc::new(ScalarExpr::col(1, "x", DataType::Float64)),
                right: Arc::new(ScalarExpr::lit(Scalar::Float64(0.0))),
            },
        }
    }

    #[test]
    fn schema_through_chain() {
        let agg = LogicalPlan::Aggregate {
            input: Box::new(filter_plan()),
            group_by: vec![(ScalarExpr::col(0, "id", DataType::Int64), "id".into())],
            aggs: vec![AggregateCall {
                func: AggFunc::Avg,
                arg: Some(ScalarExpr::col(1, "x", DataType::Float64)),
                output_name: "avg_x".into(),
            }],
        };
        let s = agg.schema().unwrap();
        assert_eq!(s.names(), vec!["id", "avg_x"]);
        assert_eq!(
            agg.chain_description(),
            "TableScan -> Filter -> Aggregation"
        );
        assert_eq!(agg.node_count(), 3);
        assert_eq!(agg.scan().table, "t");
        agg.validate().unwrap();
    }

    #[test]
    fn sort_key_validation() {
        let bad = LogicalPlan::TopN {
            input: Box::new(scan()),
            keys: vec![SortKey {
                column: 7,
                ascending: true,
                nulls_first: true,
            }],
            limit: 5,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn with_input_replaces_child() {
        let f = filter_plan();
        let replaced = f.with_input(scan());
        assert_eq!(replaced.node_count(), 2);
        assert!(matches!(replaced, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn display_shows_structure() {
        let p = filter_plan();
        let text = p.to_string();
        assert!(text.contains("Filter[(x > 0)]"));
        assert!(text.contains("TableScan[t via raw]"));
    }
}
