//! Translation of the engine's internal representations into Substrait IR
//! — the paper's "complex mappings: SQL clauses become Substrait
//! relations, expressions are transformed with proper type casting, and
//! Presto's function signatures map to Substrait's standardized
//! namespace".

use columnar::{sort::SortKey, Schema};
use dsq::expr::ScalarExpr;
use substrait_ir::planck;
use substrait_ir::{Expr, Measure, Plan, Rel, SortField};

use crate::handle::{OcsTableHandle, PushedOps};

/// Translate one engine expression. Returns the IR expression and the
/// number of IR nodes generated (for Table-3-style overhead billing).
pub fn translate_expr(e: &ScalarExpr) -> (Expr, u64) {
    match e {
        ScalarExpr::Column { index, .. } => (Expr::FieldRef(*index), 1),
        ScalarExpr::Literal(s) => (Expr::Literal(s.clone()), 1),
        ScalarExpr::Cmp { op, left, right } => {
            let (l, nl) = translate_expr(left);
            let (r, nr) = translate_expr(right);
            (
                Expr::Cmp {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                },
                1 + nl + nr,
            )
        }
        ScalarExpr::Arith { op, left, right } => {
            let (l, nl) = translate_expr(left);
            let (r, nr) = translate_expr(right);
            (
                Expr::Arith {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                },
                1 + nl + nr,
            )
        }
        ScalarExpr::And(a, b) => {
            let (l, nl) = translate_expr(a);
            let (r, nr) = translate_expr(b);
            (Expr::And(Box::new(l), Box::new(r)), 1 + nl + nr)
        }
        ScalarExpr::Or(a, b) => {
            let (l, nl) = translate_expr(a);
            let (r, nr) = translate_expr(b);
            (Expr::Or(Box::new(l), Box::new(r)), 1 + nl + nr)
        }
        ScalarExpr::Not(x) => {
            let (i, n) = translate_expr(x);
            (Expr::Not(Box::new(i)), 1 + n)
        }
        ScalarExpr::Between { expr, lo, hi } => {
            let (e1, n1) = translate_expr(expr);
            let (e2, n2) = translate_expr(lo);
            let (e3, n3) = translate_expr(hi);
            (
                Expr::Between {
                    expr: Box::new(e1),
                    lo: Box::new(e2),
                    hi: Box::new(e3),
                },
                1 + n1 + n2 + n3,
            )
        }
        ScalarExpr::Cast { expr, to } => {
            let (i, n) = translate_expr(expr);
            (
                Expr::Cast {
                    expr: Box::new(i),
                    to: *to,
                },
                1 + n,
            )
        }
        ScalarExpr::Negate(x) => {
            let (i, n) = translate_expr(x);
            (Expr::Negate(Box::new(i)), 1 + n)
        }
        ScalarExpr::IsNull(x) => {
            let (i, n) = translate_expr(x);
            (Expr::IsNull(Box::new(i)), 1 + n)
        }
        ScalarExpr::IsNotNull(x) => {
            let (i, n) = translate_expr(x);
            (Expr::IsNotNull(Box::new(i)), 1 + n)
        }
    }
}

fn translate_sort_keys(keys: &[SortKey]) -> (Vec<SortField>, u64) {
    let fields = keys
        .iter()
        .map(|k| SortField {
            expr: Expr::FieldRef(k.column),
            ascending: k.ascending,
            nulls_first: k.nulls_first,
        })
        .collect::<Vec<_>>();
    let nodes = 2 * keys.len() as u64;
    (fields, nodes)
}

/// Build the Substrait plan of a pushed-down scan (`table`'s `projection`
/// of `base_schema`, then the `pushed` chain) and verify it with planck's
/// pushdown rules: the one engine-side check on what the connector ships,
/// made once per query by the connector optimizer. Returns the plan and
/// its IR node count, or the primary diagnostic.
pub fn to_substrait(
    table: &str,
    base_schema: &Schema,
    projection: &[usize],
    pushed: &PushedOps,
) -> Result<(Plan, u64), planck::Diagnostic> {
    let mut nodes: u64 = 1; // ReadRel
    let mut rel = Rel::Read {
        table: table.to_string(),
        base_schema: base_schema.clone(),
        projection: Some(projection.to_vec()),
    };
    nodes += projection.len() as u64;

    if let Some(filter) = &pushed.filter {
        let (pred, n) = translate_expr(filter);
        nodes += 1 + n;
        rel = Rel::Filter {
            input: Box::new(rel),
            predicate: pred,
        };
    }
    if let Some(project) = &pushed.project {
        let mut exprs = Vec::with_capacity(project.len());
        for (e, name) in project {
            let (ie, n) = translate_expr(e);
            nodes += n;
            exprs.push((ie, name.clone()));
        }
        nodes += 1;
        rel = Rel::Project {
            input: Box::new(rel),
            exprs,
        };
    }
    if let Some((group_by, partials)) = &pushed.aggregate {
        let mut keys = Vec::with_capacity(group_by.len());
        for (e, name) in group_by {
            let (ie, n) = translate_expr(e);
            nodes += n;
            keys.push((ie, name.clone()));
        }
        let mut measures = Vec::with_capacity(partials.len());
        for p in partials {
            let arg = match &p.arg {
                None => None,
                Some(a) => {
                    let (ie, n) = translate_expr(a);
                    nodes += n;
                    Some(ie)
                }
            };
            nodes += 1;
            measures.push(Measure {
                func: p.func,
                arg,
                name: p.output_name.clone(),
            });
        }
        nodes += 1;
        rel = Rel::Aggregate {
            input: Box::new(rel),
            group_by: keys,
            measures,
        };
    }
    if let Some(keys) = &pushed.sort {
        let (fields, n) = translate_sort_keys(keys);
        nodes += 1 + n;
        rel = Rel::Sort {
            input: Box::new(rel),
            keys: fields,
        };
    }
    if let Some((keys, limit)) = &pushed.topn {
        // Empty keys = a bare LIMIT (Fetch without an ordering).
        let input = if keys.is_empty() {
            rel
        } else {
            let (fields, n) = translate_sort_keys(keys);
            nodes += 1 + n;
            Rel::Sort {
                input: Box::new(rel),
                keys: fields,
            }
        };
        nodes += 1;
        rel = Rel::Fetch {
            input: Box::new(input),
            offset: 0,
            limit: *limit,
        };
    }
    let plan = Plan::new(rel);
    planck::verify_pushdown(&plan).map_err(planck::primary)?;
    Ok((plan, nodes))
}

/// [`to_substrait`] of the scan `h` describes: the plan it carries,
/// translated anew (the per-layer probe times translation).
pub fn to_substrait_verified(h: &OcsTableHandle) -> Result<(Plan, u64), planck::Diagnostic> {
    to_substrait(&h.table, &h.base_schema, &h.projection, &h.pushed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::PushedAggregate;
    use columnar::agg::AggFunc;
    use columnar::kernels::cmp::CmpOp;
    use columnar::{DataType, Field, Scalar};
    use std::sync::Arc;

    fn base() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("x", DataType::Float64, false),
            Field::new("e", DataType::Float64, false),
        ])
    }

    fn pushed() -> PushedOps {
        PushedOps {
            aggregate_is_full: false,
            filter: Some(ScalarExpr::Between {
                expr: Arc::new(ScalarExpr::col(1, "x", DataType::Float64)),
                lo: Arc::new(ScalarExpr::lit(Scalar::Float64(0.8))),
                hi: Arc::new(ScalarExpr::lit(Scalar::Float64(3.2))),
            }),
            project: None,
            aggregate: Some((
                vec![(ScalarExpr::col(0, "id", DataType::Int64), "id".into())],
                vec![
                    PushedAggregate {
                        func: AggFunc::Min,
                        arg: Some(ScalarExpr::col(1, "x", DataType::Float64)),
                        output_name: "__p0_min".into(),
                    },
                    PushedAggregate {
                        func: AggFunc::Sum,
                        arg: Some(ScalarExpr::col(2, "e", DataType::Float64)),
                        output_name: "__p1_sum".into(),
                    },
                    PushedAggregate {
                        func: AggFunc::Count,
                        arg: Some(ScalarExpr::col(2, "e", DataType::Float64)),
                        output_name: "__p1_count".into(),
                    },
                ],
            )),
            sort: None,
            topn: Some((
                vec![SortKey {
                    column: 2,
                    ascending: true,
                    nulls_first: true,
                }],
                100,
            )),
        }
    }

    #[test]
    fn builds_verifying_plan() {
        let (plan, nodes) = to_substrait("laghos", &base(), &[0, 1, 2], &pushed())
            .expect("generated plan must verify");
        let verified = planck::verify_pushdown(&plan).expect("pushdown-legal");
        let schema = verified.schema();
        // Read → Filter → Aggregate → Sort → Fetch.
        assert_eq!(plan.root.operator_count(), 5);
        assert!(nodes > 10);
        assert_eq!(
            schema.names(),
            vec!["id", "__p0_min", "__p1_sum", "__p1_count"]
        );
        // And it survives the wire.
        let bytes = substrait_ir::encode(&plan);
        assert_eq!(substrait_ir::decode(&bytes).unwrap(), plan);
    }

    #[test]
    fn expression_translation_counts_nodes() {
        let e = ScalarExpr::Cmp {
            op: CmpOp::Gt,
            left: Arc::new(ScalarExpr::col(0, "a", DataType::Float64)),
            right: Arc::new(ScalarExpr::lit(Scalar::Float64(0.1))),
        };
        let (ie, n) = translate_expr(&e);
        assert_eq!(n, 3);
        assert_eq!(ie.to_string(), "($0 > 0.1)");
    }

    #[test]
    fn plain_projection_scan() {
        let (plan, nodes) =
            to_substrait("laghos", &base(), &[0, 1, 2], &PushedOps::default()).unwrap();
        assert_eq!(plan.root.operator_count(), 1);
        assert_eq!(nodes, 4); // ReadRel + 3 projection entries
    }
}
