//! Semantic analysis: AST → logical plan (step 2 of the coordinator
//! pipeline in the paper's Figure 3).
//!
//! Resolves names against the metastore, types every expression, detects
//! aggregation queries, and produces the node shapes the paper's Table 2
//! reports (e.g. Laghos: `TableScan → Filter → Aggregation → TopN` with no
//! Project because all aggregate arguments are plain columns, Deep Water:
//! `TableScan → Filter → Project → Aggregation` because `MAX` is applied
//! to an arithmetic expression).

use std::sync::Arc;

use columnar::agg::AggFunc;
use columnar::kernels::arith::{negate_type, ArithOp};
use columnar::kernels::cmp::CmpOp;
use columnar::sort::SortKey;
use columnar::{DataType, Scalar, Schema, SchemaRef};
use sqlparse::ast::{AstExpr, BinaryOp, Query, UnaryOp};

use crate::catalog::Metastore;
use crate::error::{EResult, EngineError};
use crate::expr::{AggregateCall, ScalarExpr};
use crate::plan::{LogicalPlan, TableScanNode};
use crate::spi::DefaultTableHandle;

/// A fully analyzed query: the plan plus the output mapping (Presto's
/// OutputNode: which plan columns, under which names, in which order).
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// The logical plan chain.
    pub plan: LogicalPlan,
    /// For each SELECT item: the plan-output column it maps to.
    pub output_columns: Vec<usize>,
    /// Client-visible column names.
    pub output_names: Vec<String>,
}

impl AnalyzedQuery {
    /// The client-visible schema.
    pub fn output_schema(&self) -> EResult<SchemaRef> {
        let plan_schema = self.plan.schema()?;
        let fields = self
            .output_columns
            .iter()
            .zip(&self.output_names)
            .map(|(&i, name)| {
                let f = plan_schema.field(i);
                columnar::Field::new(name.clone(), f.data_type, f.nullable)
            })
            .collect();
        Ok(Arc::new(Schema::new(fields)))
    }
}

/// Analyze a parsed query against the metastore.
pub fn analyze(query: &Query, metastore: &Metastore) -> EResult<AnalyzedQuery> {
    let table = metastore.table(&query.from.name)?;
    let scan_schema = table.schema.clone();
    let mut plan = LogicalPlan::TableScan(TableScanNode {
        table: table.name.clone(),
        connector: table.connector.clone(),
        output_schema: scan_schema.clone(),
        handle: Arc::new(DefaultTableHandle::all_columns()),
    });

    // WHERE.
    if let Some(w) = &query.where_clause {
        let predicate = resolve(w, &scan_schema)?;
        if predicate.data_type() != DataType::Boolean {
            return Err(EngineError::Analysis(format!(
                "WHERE clause has type {}, expected Boolean",
                predicate.data_type()
            )));
        }
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    let is_aggregate = !query.group_by.is_empty()
        || query
            .select
            .iter()
            .any(|item| contains_aggregate(&item.expr));

    let (mut plan, output_columns, output_names) = if is_aggregate {
        build_aggregate(query, plan, &scan_schema)?
    } else {
        build_projection(query, plan, &scan_schema)?
    };

    // ORDER BY against the current plan output (aliases resolve naturally
    // because aggregate/project outputs carry their aliases as names).
    if !query.order_by.is_empty() {
        let schema = plan.schema()?;
        let mut keys = Vec::with_capacity(query.order_by.len());
        for item in &query.order_by {
            let column = resolve_order_key(&item.expr, &schema, query)?;
            keys.push(SortKey {
                column,
                ascending: item.ascending,
                nulls_first: item.ascending, // ASC ⇒ NULLS FIRST convention
            });
        }
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }

    if let Some(limit) = query.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            limit,
        };
    }

    plan.validate()?;
    Ok(AnalyzedQuery {
        plan,
        output_columns,
        output_names,
    })
}

/// Build the aggregate path. Returns (plan, output mapping, names).
fn build_aggregate(
    query: &Query,
    input: LogicalPlan,
    scan_schema: &SchemaRef,
) -> EResult<(LogicalPlan, Vec<usize>, Vec<String>)> {
    // Resolve group keys.
    let mut group_by: Vec<(ScalarExpr, String)> = Vec::with_capacity(query.group_by.len());
    for (i, g) in query.group_by.iter().enumerate() {
        let e = resolve(g, scan_schema)?;
        let name = match &e {
            ScalarExpr::Column { name, .. } => name.clone(),
            _ => format!("group_{i}"),
        };
        group_by.push((e, name));
    }

    // Resolve select items into measures / key references.
    let mut aggs: Vec<AggregateCall> = Vec::new();
    let mut output_columns = Vec::with_capacity(query.select.len());
    let mut output_names = Vec::with_capacity(query.select.len());
    for (i, item) in query.select.iter().enumerate() {
        match &item.expr {
            AstExpr::Func { name, args, star } if AggFunc::from_name(name).is_some() => {
                let func = AggFunc::from_name(name).expect("checked");
                let arg = if *star {
                    None
                } else {
                    if args.len() != 1 {
                        return Err(EngineError::Analysis(format!(
                            "{name} takes exactly one argument"
                        )));
                    }
                    Some(resolve(&args[0], scan_schema)?)
                };
                func.result_type(arg.as_ref().map(ScalarExpr::data_type))
                    .map_err(analysis)?;
                let output_name = item
                    .alias
                    .clone()
                    .unwrap_or_else(|| format!("{}_{i}", func.sql()));
                // Output position: after all group keys.
                output_columns.push(group_by.len() + aggs.len());
                output_names.push(output_name.clone());
                aggs.push(AggregateCall {
                    func,
                    arg,
                    output_name,
                });
            }
            other => {
                // Must match a group key.
                let e = resolve(other, scan_schema)?;
                let pos = group_by.iter().position(|(g, _)| *g == e).ok_or_else(|| {
                    EngineError::Analysis(format!(
                        "select item '{other}' is neither aggregated nor in GROUP BY"
                    ))
                })?;
                let name = item
                    .alias
                    .clone()
                    .unwrap_or_else(|| group_by[pos].1.clone());
                // Rename the key if aliased.
                if item.alias.is_some() {
                    group_by[pos].1 = name.clone();
                }
                output_columns.push(pos);
                output_names.push(name);
            }
        }
    }

    // If any key or argument is a non-trivial expression, materialize a
    // Project beneath the aggregation (the Table 2 "Project" node).
    let needs_project = group_by
        .iter()
        .map(|(e, _)| e)
        .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
        .any(|e| !matches!(e, ScalarExpr::Column { .. }));

    let input = if needs_project {
        let mut proj_exprs: Vec<(ScalarExpr, String)> = Vec::new();
        let intern = |e: &ScalarExpr, hint: String, proj: &mut Vec<(ScalarExpr, String)>| {
            if let Some(pos) = proj.iter().position(|(p, _)| p == e) {
                pos
            } else {
                proj.push((e.clone(), hint));
                proj.len() - 1
            }
        };
        // Rebind keys and args to projected columns.
        let mut new_group: Vec<(ScalarExpr, String)> = Vec::new();
        for (e, name) in &group_by {
            let pos = intern(e, name.clone(), &mut proj_exprs);
            new_group.push((
                ScalarExpr::col(pos, proj_exprs[pos].1.clone(), e.data_type()),
                name.clone(),
            ));
        }
        let mut new_aggs: Vec<AggregateCall> = Vec::new();
        for (i, a) in aggs.iter().enumerate() {
            let arg = match &a.arg {
                None => None,
                Some(e) => {
                    let pos = intern(e, format!("expr_{i}"), &mut proj_exprs);
                    Some(ScalarExpr::col(
                        pos,
                        proj_exprs[pos].1.clone(),
                        e.data_type(),
                    ))
                }
            };
            new_aggs.push(AggregateCall {
                func: a.func,
                arg,
                output_name: a.output_name.clone(),
            });
        }
        group_by = new_group;
        aggs = new_aggs;
        LogicalPlan::Project {
            input: Box::new(input),
            exprs: proj_exprs,
        }
    } else {
        input
    };

    let plan = LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by,
        aggs,
    };
    Ok((plan, output_columns, output_names))
}

/// Build the non-aggregate path: a Project of the select list.
fn build_projection(
    query: &Query,
    input: LogicalPlan,
    scan_schema: &SchemaRef,
) -> EResult<(LogicalPlan, Vec<usize>, Vec<String>)> {
    let mut exprs = Vec::with_capacity(query.select.len());
    let mut output_columns = Vec::with_capacity(query.select.len());
    let mut output_names = Vec::with_capacity(query.select.len());
    for (i, item) in query.select.iter().enumerate() {
        let e = resolve(&item.expr, scan_schema)?;
        let name = item.alias.clone().unwrap_or_else(|| match &e {
            ScalarExpr::Column { name, .. } => name.clone(),
            _ => format!("col_{i}"),
        });
        output_columns.push(i);
        output_names.push(name.clone());
        exprs.push((e, name));
    }
    let plan = LogicalPlan::Project {
        input: Box::new(input),
        exprs,
    };
    Ok((plan, output_columns, output_names))
}

/// Resolve an ORDER BY key: by output-schema name first, then (for
/// aggregates) by matching a select alias.
fn resolve_order_key(expr: &AstExpr, schema: &SchemaRef, query: &Query) -> EResult<usize> {
    if let AstExpr::Ident(name) = expr {
        if let Ok(i) = schema.index_of(name) {
            return Ok(i);
        }
        // Alias of a select item → its plan column (aliases were already
        // written into aggregate/project output names, so reaching here
        // means the name simply doesn't exist).
        let _ = query;
        return Err(EngineError::Analysis(format!(
            "ORDER BY column '{name}' not found in output {schema}"
        )));
    }
    Err(EngineError::Analysis(format!(
        "ORDER BY only supports output column references, got '{expr}'"
    )))
}

/// True if the expression contains an aggregate function call.
fn contains_aggregate(e: &AstExpr) -> bool {
    match e {
        AstExpr::Func { name, .. } => AggFunc::from_name(name).is_some(),
        AstExpr::Binary { left, right, .. } => {
            contains_aggregate(left) || contains_aggregate(right)
        }
        AstExpr::Unary { expr, .. } => contains_aggregate(expr),
        AstExpr::Between { expr, lo, hi, .. } => {
            contains_aggregate(expr) || contains_aggregate(lo) || contains_aggregate(hi)
        }
        AstExpr::IsNull { expr, .. } => contains_aggregate(expr),
        _ => false,
    }
}

/// Resolve an AST expression against `schema`.
pub fn resolve(e: &AstExpr, schema: &SchemaRef) -> EResult<ScalarExpr> {
    Ok(match e {
        AstExpr::Ident(name) => {
            let idx = schema.index_of(name).map_err(|_| {
                EngineError::Analysis(format!("unknown column '{name}' in {schema}"))
            })?;
            ScalarExpr::col(idx, name.clone(), schema.field(idx).data_type)
        }
        AstExpr::Int(v) => ScalarExpr::lit(Scalar::Int64(*v)),
        AstExpr::Float(v) => ScalarExpr::lit(Scalar::Float64(*v)),
        AstExpr::Str(s) => ScalarExpr::lit(Scalar::Utf8(s.clone())),
        AstExpr::Date(d) => ScalarExpr::lit(Scalar::Date32(*d)),
        AstExpr::Bool(b) => ScalarExpr::lit(Scalar::Boolean(*b)),
        AstExpr::Null => ScalarExpr::lit(Scalar::Null),
        AstExpr::IntervalDays(n) => ScalarExpr::lit(Scalar::Int64(*n)),
        AstExpr::Binary { op, left, right } => {
            let l = resolve(left, schema)?;
            let r = resolve(right, schema)?;
            match op {
                BinaryOp::And => ScalarExpr::And(Arc::new(boolean(l)?), Arc::new(boolean(r)?)),
                BinaryOp::Or => ScalarExpr::Or(Arc::new(boolean(l)?), Arc::new(boolean(r)?)),
                BinaryOp::Eq => cmp(CmpOp::Eq, l, r)?,
                BinaryOp::NotEq => cmp(CmpOp::NotEq, l, r)?,
                BinaryOp::Lt => cmp(CmpOp::Lt, l, r)?,
                BinaryOp::LtEq => cmp(CmpOp::LtEq, l, r)?,
                BinaryOp::Gt => cmp(CmpOp::Gt, l, r)?,
                BinaryOp::GtEq => cmp(CmpOp::GtEq, l, r)?,
                BinaryOp::Add => arith(ArithOp::Add, l, r)?,
                BinaryOp::Sub => arith(ArithOp::Sub, l, r)?,
                BinaryOp::Mul => arith(ArithOp::Mul, l, r)?,
                BinaryOp::Div => arith(ArithOp::Div, l, r)?,
                BinaryOp::Mod => arith(ArithOp::Mod, l, r)?,
            }
        }
        AstExpr::Unary { op, expr } => {
            let inner = resolve(expr, schema)?;
            match op {
                UnaryOp::Neg => {
                    negate_type(inner.data_type()).map_err(analysis)?;
                    ScalarExpr::Negate(Arc::new(inner))
                }
                UnaryOp::Not => ScalarExpr::Not(Arc::new(boolean(inner)?)),
            }
        }
        AstExpr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let (expr, lo, hi) = (
                resolve(expr, schema)?,
                resolve(lo, schema)?,
                resolve(hi, schema)?,
            );
            comparable(&expr, &lo)?;
            comparable(&expr, &hi)?;
            let b = ScalarExpr::Between {
                expr: Arc::new(expr),
                lo: Arc::new(lo),
                hi: Arc::new(hi),
            };
            if *negated {
                ScalarExpr::Not(Arc::new(b))
            } else {
                b
            }
        }
        AstExpr::IsNull { expr, negated } => {
            let inner = Arc::new(resolve(expr, schema)?);
            if *negated {
                ScalarExpr::IsNotNull(inner)
            } else {
                ScalarExpr::IsNull(inner)
            }
        }
        AstExpr::Func { name, .. } => {
            return Err(EngineError::Analysis(format!(
                "function '{name}' is not valid in this context \
                 (aggregates belong in the SELECT list)"
            )));
        }
    })
}

fn cmp(op: CmpOp, l: ScalarExpr, r: ScalarExpr) -> EResult<ScalarExpr> {
    comparable(&l, &r)?;
    Ok(ScalarExpr::Cmp {
        op,
        left: Arc::new(l),
        right: Arc::new(r),
    })
}

/// Reject a comparison (or `BETWEEN` bound) whose operands
/// [`columnar::expr::comparable`] rejects.
fn comparable(l: &ScalarExpr, r: &ScalarExpr) -> EResult<()> {
    let (lt, rt) = (l.data_type(), r.data_type());
    if columnar::expr::comparable((l, lt), (r, rt)) {
        return Ok(());
    }
    Err(EngineError::Analysis(format!(
        "cannot compare {lt} with {rt}"
    )))
}

/// `e` as an operand of AND, OR or NOT, which must be Boolean.
fn boolean(e: ScalarExpr) -> EResult<ScalarExpr> {
    match e.data_type() {
        DataType::Boolean => Ok(e),
        t => Err(EngineError::Analysis(format!(
            "boolean operator over {t} operand '{e}'"
        ))),
    }
}

fn arith(op: ArithOp, l: ScalarExpr, r: ScalarExpr) -> EResult<ScalarExpr> {
    // Validate typing eagerly for a friendly error.
    op.result_type(l.data_type(), r.data_type())
        .map_err(analysis)?;
    Ok(ScalarExpr::Arith {
        op,
        left: Arc::new(l),
        right: Arc::new(r),
    })
}

/// A `columnar` typing rule's rejection as an analysis error.
fn analysis(e: columnar::ColumnarError) -> EngineError {
    EngineError::Analysis(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ObjectLocation, TableMeta, TableStats};
    use columnar::Field;

    fn metastore() -> Metastore {
        let m = Metastore::new();
        m.register(TableMeta {
            name: "points".into(),
            connector: "raw".into(),
            schema: Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("x", DataType::Float64, false),
                Field::new("y", DataType::Float64, false),
                Field::new("tag", DataType::Utf8, false),
                Field::new("d", DataType::Date32, false),
            ])),
            objects: vec![ObjectLocation {
                bucket: "lake".into(),
                key: "points/0".into(),
                rows: 100,
                bytes: 1000,
                ..Default::default()
            }],
            stats: TableStats::default(),
        });
        m
    }

    fn plan_for(sql: &str) -> AnalyzedQuery {
        let q = sqlparse::parse(sql).unwrap();
        analyze(&q, &metastore()).unwrap()
    }

    #[test]
    fn simple_projection_plan() {
        let a = plan_for("SELECT x, id FROM points WHERE x > 0.5");
        assert_eq!(a.plan.chain_description(), "TableScan -> Filter -> Project");
        assert_eq!(a.output_names, vec!["x", "id"]);
        assert_eq!(a.output_schema().unwrap().names(), vec!["x", "id"]);
    }

    #[test]
    fn laghos_shape_has_no_project() {
        let a = plan_for(
            "SELECT min(id) AS vid, avg(x) AS e FROM points \
             WHERE x BETWEEN 0.8 AND 3.2 GROUP BY id ORDER BY e LIMIT 100",
        );
        // Plain-column agg args → Aggregation sits directly on the Filter.
        assert_eq!(
            a.plan.chain_description(),
            "TableScan -> Filter -> Aggregation -> Sort -> Limit"
        );
    }

    #[test]
    fn deepwater_shape_has_project() {
        let a =
            plan_for("SELECT MAX((id % 250000)/500), tag FROM points WHERE x > 0.1 GROUP BY tag");
        assert_eq!(
            a.plan.chain_description(),
            "TableScan -> Filter -> Project -> Aggregation"
        );
        // Output order: MAX first, key second.
        assert_eq!(a.output_columns, vec![1, 0]);
    }

    #[test]
    fn group_key_alias_and_order() {
        let a =
            plan_for("SELECT tag AS t, count(*) AS n FROM points GROUP BY tag ORDER BY n DESC, t");
        let schema = a.plan.schema().unwrap();
        assert_eq!(schema.names(), vec!["t", "n"]);
        match &a.plan {
            LogicalPlan::Sort { keys, .. } => {
                assert_eq!(keys[0].column, 1);
                assert!(!keys[0].ascending);
                assert_eq!(keys[1].column, 0);
            }
            other => panic!("expected sort at root, got {}", other.name()),
        }
    }

    #[test]
    fn date_interval_arithmetic_resolves() {
        let a = plan_for("SELECT id FROM points WHERE d <= DATE '1998-12-01' - INTERVAL '90' DAY");
        assert!(a.plan.chain_description().contains("Filter"));
    }

    #[test]
    fn errors() {
        let m = metastore();
        let bad = |sql: &str| {
            let q = sqlparse::parse(sql).unwrap();
            analyze(&q, &m).unwrap_err()
        };
        assert!(matches!(
            bad("SELECT a FROM ghost"),
            EngineError::UnknownTable(_)
        ));
        assert!(bad("SELECT nope FROM points").to_string().contains("nope"));
        assert!(bad("SELECT x FROM points WHERE x + 1")
            .to_string()
            .contains("Boolean"));
        assert!(bad("SELECT x, count(*) FROM points GROUP BY id")
            .to_string()
            .contains("neither aggregated"));
        assert!(bad("SELECT count(*) FROM points ORDER BY ghost")
            .to_string()
            .contains("ghost"));
        assert!(bad("SELECT median(x) FROM points GROUP BY id")
            .to_string()
            .contains("median"));
        // String arithmetic is rejected at analysis.
        assert!(bad("SELECT tag + 1 FROM points")
            .to_string()
            .contains("arithmetic"));
        // So is every operand the `columnar` rules planck applies to a
        // shipped plan reject: boolean connectives, negation, measures.
        for sql in [
            "SELECT id FROM points WHERE NOT x",
            "SELECT id FROM points WHERE x AND id > 1",
            "SELECT id FROM points WHERE id > 1 OR tag",
            "SELECT -tag FROM points",
            "SELECT -d FROM points",
            "SELECT avg(tag) FROM points",
            "SELECT avg(*) FROM points",
            "SELECT sum(d) FROM points",
            "SELECT min(*) FROM points",
        ] {
            assert!(matches!(bad(sql), EngineError::Analysis(_)), "{sql}");
        }
        plan_for("SELECT -x, -id FROM points WHERE NOT (x > 1) AND NULL IS NULL");
    }

    #[test]
    fn comparisons_need_comparable_operands() {
        let m = metastore();
        let analyzed = |sql: &str| analyze(&sqlparse::parse(sql).unwrap(), &m);
        for sql in [
            "SELECT id FROM points WHERE tag = 5",
            "SELECT id FROM points WHERE 5 <> tag",
            "SELECT id FROM points WHERE tag BETWEEN 1 AND 2",
            "SELECT id FROM points WHERE x BETWEEN 1 AND 'z'",
            "SELECT id FROM points WHERE d < 'z'",
        ] {
            let err = analyzed(sql).unwrap_err();
            assert!(matches!(err, EngineError::Analysis(_)), "{sql}: {err}");
            assert!(err.to_string().contains("cannot compare"), "{sql}: {err}");
        }
        // Same type, both numeric (Date32 included), or a NULL literal.
        for sql in [
            "SELECT id FROM points WHERE tag = 'a'",
            "SELECT id FROM points WHERE x < id AND d > 3",
            "SELECT id FROM points WHERE x BETWEEN 1 AND 2.5",
            "SELECT id FROM points WHERE tag = NULL OR NULL < x",
            "SELECT id FROM points WHERE tag BETWEEN NULL AND 'b'",
        ] {
            analyzed(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn count_star_global_aggregate() {
        let a = plan_for("SELECT count(*) FROM points");
        assert_eq!(a.plan.chain_description(), "TableScan -> Aggregation");
        let s = a.plan.schema().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.field(0).data_type, DataType::Int64);
    }
}
