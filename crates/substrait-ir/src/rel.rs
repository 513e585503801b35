//! Relational operators and whole plans.

use columnar::Schema;
use std::fmt;

use crate::expr::{Expr, Measure, SortField};

/// A relational operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Rel {
    /// Scan a named table. The base schema is carried inline (like
    /// Substrait's `ReadRel.base_schema`) so plans are self-contained; an
    /// optional projection restricts and orders the emitted columns.
    Read {
        /// Table name the storage side resolves to objects.
        table: String,
        /// Full schema of the stored table.
        base_schema: Schema,
        /// Emitted column indices (None = all).
        projection: Option<Vec<usize>>,
    },
    /// Keep rows where `predicate` is true.
    Filter {
        /// Input relation.
        input: Box<Rel>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Compute named expressions (replaces the input columns).
    Project {
        /// Input relation.
        input: Box<Rel>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Group-by + measures. Output = group keys then measures.
    Aggregate {
        /// Input relation.
        input: Box<Rel>,
        /// Grouping expressions with output names.
        group_by: Vec<(Expr, String)>,
        /// Aggregate measures.
        measures: Vec<Measure>,
    },
    /// Total order by keys.
    Sort {
        /// Input relation.
        input: Box<Rel>,
        /// Sort keys, major first.
        keys: Vec<SortField>,
    },
    /// Keep `limit` rows after skipping `offset` (stacked directly on a
    /// [`Rel::Sort`] this is the top-N operator).
    Fetch {
        /// Input relation.
        input: Box<Rel>,
        /// Rows to skip.
        offset: u64,
        /// Rows to keep.
        limit: u64,
    },
}

impl Rel {
    /// Shorthand for a `Read`.
    pub fn read(
        table: impl Into<String>,
        base_schema: Schema,
        projection: Option<Vec<usize>>,
    ) -> Rel {
        Rel::Read {
            table: table.into(),
            base_schema,
            projection,
        }
    }

    /// The input relation, if any.
    pub fn input(&self) -> Option<&Rel> {
        match self {
            Rel::Read { .. } => None,
            Rel::Filter { input, .. }
            | Rel::Project { input, .. }
            | Rel::Aggregate { input, .. }
            | Rel::Sort { input, .. }
            | Rel::Fetch { input, .. } => Some(input),
        }
    }

    /// Depth-first count of operators (for plan-size metrics).
    pub fn operator_count(&self) -> usize {
        1 + self.input().map(|r| r.operator_count()).unwrap_or(0)
    }

    /// Name of this operator for display / metrics.
    pub fn name(&self) -> &'static str {
        match self {
            Rel::Read { .. } => "Read",
            Rel::Filter { .. } => "Filter",
            Rel::Project { .. } => "Project",
            Rel::Aggregate { .. } => "Aggregate",
            Rel::Sort { .. } => "Sort",
            Rel::Fetch { .. } => "Fetch",
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            Rel::Read {
                table, projection, ..
            } => writeln!(
                f,
                "{pad}Read[{table}]{}",
                match projection {
                    Some(p) => format!(" projection={p:?}"),
                    None => String::new(),
                }
            ),
            Rel::Filter { input, predicate } => {
                writeln!(f, "{pad}Filter[{predicate}]")?;
                input.fmt_indent(f, depth + 1)
            }
            Rel::Project { input, exprs } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{n}={e}")).collect();
                writeln!(f, "{pad}Project[{}]", cols.join(", "))?;
                input.fmt_indent(f, depth + 1)
            }
            Rel::Aggregate {
                input,
                group_by,
                measures,
            } => {
                let keys: Vec<String> = group_by.iter().map(|(e, n)| format!("{n}={e}")).collect();
                let ms: Vec<String> = measures
                    .iter()
                    .map(|m| {
                        format!(
                            "{}={}({})",
                            m.name,
                            m.func.sql(),
                            m.arg
                                .as_ref()
                                .map(|a| a.to_string())
                                .unwrap_or_else(|| "*".into())
                        )
                    })
                    .collect();
                writeln!(
                    f,
                    "{pad}Aggregate[keys=({}) measures=({})]",
                    keys.join(", "),
                    ms.join(", ")
                )?;
                input.fmt_indent(f, depth + 1)
            }
            Rel::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{} {}", k.expr, if k.ascending { "ASC" } else { "DESC" }))
                    .collect();
                writeln!(f, "{pad}Sort[{}]", ks.join(", "))?;
                input.fmt_indent(f, depth + 1)
            }
            Rel::Fetch {
                input,
                offset,
                limit,
            } => {
                writeln!(f, "{pad}Fetch[offset={offset} limit={limit}]")?;
                input.fmt_indent(f, depth + 1)
            }
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// A complete plan: a version stamp plus the root relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// IR version (for wire compatibility checks).
    pub version: u32,
    /// Root of the operator tree.
    pub root: Rel,
}

/// Current IR version.
pub const IR_VERSION: u32 = 1;

impl Plan {
    /// Wrap a relation tree as a plan.
    pub fn new(root: Rel) -> Plan {
        Plan {
            version: IR_VERSION,
            root,
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planck::{verify_untrusted, DiagCode};
    use columnar::agg::AggFunc;
    use columnar::kernels::cmp::CmpOp;
    use columnar::{DataType, Field, Scalar, SchemaRef};

    /// Typing is planck's: the output schema of `rel` as a whole plan, or
    /// the first diagnostic code.
    fn verified_schema(rel: Rel) -> Result<SchemaRef, DiagCode> {
        let plan = Plan::new(rel);
        let verified = verify_untrusted(&plan).map_err(|ds| ds[0].code)?;
        Ok(verified.schema().clone())
    }

    fn base() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("x", DataType::Float64, false),
            Field::new("tag", DataType::Utf8, false),
        ])
    }

    #[test]
    fn read_schema_with_projection() {
        let r = Rel::read("t", base(), Some(vec![2, 0]));
        let s = verified_schema(r).unwrap();
        assert_eq!(s.names(), vec!["tag", "id"]);
        let r = Rel::read("t", base(), None);
        assert_eq!(verified_schema(r).unwrap().len(), 3);
    }

    #[test]
    fn filter_requires_boolean() {
        let bad = Rel::Filter {
            input: Box::new(Rel::read("t", base(), None)),
            predicate: Expr::field(0),
        };
        assert_eq!(verified_schema(bad), Err(DiagCode::FilterNotBoolean));
        let good = Rel::Filter {
            input: Box::new(Rel::read("t", base(), None)),
            predicate: Expr::cmp(CmpOp::Gt, Expr::field(1), Expr::lit(Scalar::Float64(0.5))),
        };
        assert_eq!(verified_schema(good).unwrap().len(), 3);
    }

    #[test]
    fn aggregate_schema() {
        let agg = Rel::Aggregate {
            input: Box::new(Rel::read("t", base(), None)),
            group_by: vec![(Expr::field(2), "tag".into())],
            measures: vec![
                Measure {
                    func: AggFunc::Avg,
                    arg: Some(Expr::field(1)),
                    name: "avg_x".into(),
                },
                Measure {
                    func: AggFunc::Count,
                    arg: None,
                    name: "n".into(),
                },
            ],
        };
        let s = verified_schema(agg).unwrap();
        assert_eq!(s.names(), vec!["tag", "avg_x", "n"]);
        assert_eq!(s.field(1).data_type, DataType::Float64);
        assert_eq!(s.field(2).data_type, DataType::Int64);
    }

    #[test]
    fn structural_validation() {
        // Empty project / sort / aggregate rejected.
        let empty_proj = Rel::Project {
            input: Box::new(Rel::read("t", base(), None)),
            exprs: vec![],
        };
        assert_eq!(verified_schema(empty_proj), Err(DiagCode::ProjectEmpty));
        let empty_sort = Rel::Sort {
            input: Box::new(Rel::read("t", base(), None)),
            keys: vec![],
        };
        assert_eq!(verified_schema(empty_sort), Err(DiagCode::SortEmpty));
        let empty_agg = Rel::Aggregate {
            input: Box::new(Rel::read("t", base(), None)),
            group_by: vec![],
            measures: vec![],
        };
        assert_eq!(verified_schema(empty_agg), Err(DiagCode::AggregateEmpty));
        let plan = Plan::new(Rel::read("t", base(), None));
        assert!(verify_untrusted(&plan).is_ok());
        let mut bad = plan.clone();
        bad.version = 99;
        assert!(verify_untrusted(&bad).is_err());
    }

    #[test]
    fn laghos_shaped_plan_validates() {
        // SELECT min(id), avg(x) ... WHERE x BETWEEN .. GROUP BY id ORDER BY e LIMIT 100
        let plan = Plan::new(Rel::Fetch {
            input: Box::new(Rel::Sort {
                input: Box::new(Rel::Aggregate {
                    input: Box::new(Rel::Filter {
                        input: Box::new(Rel::read("laghos", base(), None)),
                        predicate: Expr::Between {
                            expr: Box::new(Expr::field(1)),
                            lo: Box::new(Expr::lit(Scalar::Float64(0.8))),
                            hi: Box::new(Expr::lit(Scalar::Float64(3.2))),
                        },
                    }),
                    group_by: vec![(Expr::field(0), "id".into())],
                    measures: vec![Measure {
                        func: AggFunc::Avg,
                        arg: Some(Expr::field(1)),
                        name: "e".into(),
                    }],
                }),
                keys: vec![SortField {
                    expr: Expr::field(1),
                    ascending: true,
                    nulls_first: true,
                }],
            }),
            offset: 0,
            limit: 100,
        });
        let s = verify_untrusted(&plan).unwrap().schema().clone();
        assert_eq!(s.names(), vec!["id", "e"]);
        assert_eq!(plan.root.operator_count(), 5);
        // Pretty printer shows the chain.
        let text = plan.to_string();
        assert!(text.contains("Fetch"));
        assert!(text.contains("Aggregate"));
        assert!(text.contains("Read[laghos]"));
    }
}
