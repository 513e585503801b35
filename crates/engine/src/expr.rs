//! The engine's internal scalar expression representation.
//!
//! This is deliberately a *separate* type from `substrait_ir::Expr`: Presto
//! evaluates its own `RowExpression`s, and the Presto-OCS connector's job
//! (implemented in the `ocs-connector` crate) is to *translate* these into
//! Substrait IR — the translation whose overhead the paper's Table 3
//! quantifies. Evaluation, cost weight and column references are not
//! separate: both IRs go through the one walker in [`columnar::expr`].

use std::fmt;
use std::sync::Arc;

use columnar::expr::{self, ExprTree, Node};
use columnar::kernels::arith::ArithOp;
use columnar::kernels::cmp::CmpOp;
use columnar::prelude::*;

use crate::error::{EResult, EngineError};

/// A typed, resolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Reference to input column `index` (name and type kept for display
    /// and translation).
    Column {
        /// Ordinal in the input schema.
        index: usize,
        /// Resolved column name.
        name: String,
        /// Resolved type.
        dtype: DataType,
    },
    /// A literal.
    Literal(Scalar),
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Arc<ScalarExpr>,
        /// Right operand.
        right: Arc<ScalarExpr>,
    },
    /// Arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: Arc<ScalarExpr>,
        /// Right operand.
        right: Arc<ScalarExpr>,
    },
    /// Kleene AND.
    And(Arc<ScalarExpr>, Arc<ScalarExpr>),
    /// Kleene OR.
    Or(Arc<ScalarExpr>, Arc<ScalarExpr>),
    /// NOT.
    Not(Arc<ScalarExpr>),
    /// Inclusive range test.
    Between {
        /// Tested expression.
        expr: Arc<ScalarExpr>,
        /// Lower bound.
        lo: Arc<ScalarExpr>,
        /// Upper bound.
        hi: Arc<ScalarExpr>,
    },
    /// Cast.
    Cast {
        /// Input.
        expr: Arc<ScalarExpr>,
        /// Target type.
        to: DataType,
    },
    /// Unary minus.
    Negate(Arc<ScalarExpr>),
    /// IS NULL.
    IsNull(Arc<ScalarExpr>),
    /// IS NOT NULL.
    IsNotNull(Arc<ScalarExpr>),
}

impl ScalarExpr {
    /// Shorthand column reference.
    pub fn col(index: usize, name: impl Into<String>, dtype: DataType) -> ScalarExpr {
        ScalarExpr::Column {
            index,
            name: name.into(),
            dtype,
        }
    }

    /// Shorthand literal.
    pub fn lit(s: Scalar) -> ScalarExpr {
        ScalarExpr::Literal(s)
    }

    /// The expression's output type (inputs were resolved at analysis).
    pub fn data_type(&self) -> DataType {
        match self {
            ScalarExpr::Column { dtype, .. } => *dtype,
            ScalarExpr::Literal(s) => expr::literal_type(s),
            ScalarExpr::Cmp { .. }
            | ScalarExpr::And(..)
            | ScalarExpr::Or(..)
            | ScalarExpr::Not(..)
            | ScalarExpr::Between { .. }
            | ScalarExpr::IsNull(..)
            | ScalarExpr::IsNotNull(..) => DataType::Boolean,
            ScalarExpr::Arith { op, left, right } => op
                .result_type(left.data_type(), right.data_type())
                .unwrap_or(DataType::Float64),
            ScalarExpr::Cast { to, .. } => *to,
            ScalarExpr::Negate(e) => e.data_type(),
        }
    }

    /// Evaluate over a batch, producing one array of `batch.num_rows()`.
    pub fn eval(&self, batch: &RecordBatch) -> EResult<ArrayRef> {
        expr::eval(self, batch).map_err(EngineError::Columnar)
    }

    /// Column indices this expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        expr::referenced_columns(self, out)
    }

    /// Rewrite column indices through `map` (old → new).
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> ScalarExpr {
        match self {
            ScalarExpr::Column { index, name, dtype } => ScalarExpr::Column {
                index: map(*index),
                name: name.clone(),
                dtype: *dtype,
            },
            ScalarExpr::Literal(s) => ScalarExpr::Literal(s.clone()),
            ScalarExpr::Cmp { op, left, right } => ScalarExpr::Cmp {
                op: *op,
                left: Arc::new(left.remap_columns(map)),
                right: Arc::new(right.remap_columns(map)),
            },
            ScalarExpr::Arith { op, left, right } => ScalarExpr::Arith {
                op: *op,
                left: Arc::new(left.remap_columns(map)),
                right: Arc::new(right.remap_columns(map)),
            },
            ScalarExpr::And(a, b) => ScalarExpr::And(
                Arc::new(a.remap_columns(map)),
                Arc::new(b.remap_columns(map)),
            ),
            ScalarExpr::Or(a, b) => ScalarExpr::Or(
                Arc::new(a.remap_columns(map)),
                Arc::new(b.remap_columns(map)),
            ),
            ScalarExpr::Not(e) => ScalarExpr::Not(Arc::new(e.remap_columns(map))),
            ScalarExpr::Between { expr, lo, hi } => ScalarExpr::Between {
                expr: Arc::new(expr.remap_columns(map)),
                lo: Arc::new(lo.remap_columns(map)),
                hi: Arc::new(hi.remap_columns(map)),
            },
            ScalarExpr::Cast { expr, to } => ScalarExpr::Cast {
                expr: Arc::new(expr.remap_columns(map)),
                to: *to,
            },
            ScalarExpr::Negate(e) => ScalarExpr::Negate(Arc::new(e.remap_columns(map))),
            ScalarExpr::IsNull(e) => ScalarExpr::IsNull(Arc::new(e.remap_columns(map))),
            ScalarExpr::IsNotNull(e) => ScalarExpr::IsNotNull(Arc::new(e.remap_columns(map))),
        }
    }

    /// Complexity weight per row — by construction the number
    /// `substrait_ir::Expr::op_weight` returns for the translated tree.
    pub fn weight(&self) -> u32 {
        expr::weight(self)
    }
}

impl ExprTree for ScalarExpr {
    fn node(&self) -> Node<'_, Self> {
        match self {
            ScalarExpr::Column { index, .. } => Node::Column(*index),
            ScalarExpr::Literal(s) => Node::Literal(s),
            ScalarExpr::Cmp { op, left, right } => Node::Cmp(*op, left, right),
            ScalarExpr::Arith { op, left, right } => Node::Arith(*op, left, right),
            ScalarExpr::And(a, b) => Node::And(a, b),
            ScalarExpr::Or(a, b) => Node::Or(a, b),
            ScalarExpr::Not(e) => Node::Not(e),
            ScalarExpr::Between { expr, lo, hi } => Node::Between(expr, lo, hi),
            ScalarExpr::Cast { expr, to } => Node::Cast(expr, *to),
            ScalarExpr::Negate(e) => Node::Negate(e),
            ScalarExpr::IsNull(e) => Node::IsNull(e),
            ScalarExpr::IsNotNull(e) => Node::IsNotNull(e),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column { name, .. } => write!(f, "{name}"),
            ScalarExpr::Literal(s) => write!(f, "{s}"),
            ScalarExpr::Cmp { op, left, right } => {
                write!(f, "({left} {} {right})", op.sql())
            }
            ScalarExpr::Arith { op, left, right } => {
                write!(f, "({left} {} {right})", op.sql())
            }
            ScalarExpr::And(a, b) => write!(f, "({a} AND {b})"),
            ScalarExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            ScalarExpr::Not(e) => write!(f, "(NOT {e})"),
            ScalarExpr::Between { expr, lo, hi } => {
                write!(f, "({expr} BETWEEN {lo} AND {hi})")
            }
            ScalarExpr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            ScalarExpr::Negate(e) => write!(f, "(-{e})"),
            ScalarExpr::IsNull(e) => write!(f, "({e} IS NULL)"),
            ScalarExpr::IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
        }
    }
}

/// One aggregate call in an `Aggregate` plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateCall {
    /// The function.
    pub func: columnar::agg::AggFunc,
    /// Argument expression (None = `COUNT(*)`).
    pub arg: Option<ScalarExpr>,
    /// Output column name.
    pub output_name: String,
}

impl AggregateCall {
    /// Output type of this call.
    pub fn output_type(&self) -> EResult<DataType> {
        self.func
            .result_type(self.arg.as_ref().map(|a| a.data_type()))
            .map_err(EngineError::Columnar)
    }
}

impl fmt::Display for AggregateCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({})",
            self.func.sql(),
            self.arg
                .as_ref()
                .map(|a| a.to_string())
                .unwrap_or_else(|| "*".into())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    fn batch() -> RecordBatch {
        let schema = StdArc::new(Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("x", DataType::Float64, false),
        ]));
        RecordBatch::try_new(
            schema,
            vec![
                StdArc::new(Array::from_i64(vec![1, 2, 3, 4])),
                StdArc::new(Array::from_f64(vec![0.5, 1.5, 2.5, 3.5])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn data_type_agrees_with_evaluated_type() {
        // Evaluation itself is `columnar::expr` (tested there); what this
        // type adds is the statically resolved output type.
        let b = batch();
        let a = || Arc::new(ScalarExpr::col(0, "a", DataType::Int64));
        let x = || Arc::new(ScalarExpr::col(1, "x", DataType::Float64));
        let lit = |s| Arc::new(ScalarExpr::lit(s));
        let cases = [
            (
                ScalarExpr::And(
                    Arc::new(ScalarExpr::Cmp {
                        op: CmpOp::Gt,
                        left: a(),
                        right: lit(Scalar::Int64(1)),
                    }),
                    Arc::new(ScalarExpr::Between {
                        expr: x(),
                        lo: lit(Scalar::Float64(1.0)),
                        hi: lit(Scalar::Float64(3.0)),
                    }),
                ),
                DataType::Boolean,
            ),
            (
                // (a % 3) / 2 over ints.
                ScalarExpr::Arith {
                    op: ArithOp::Div,
                    left: Arc::new(ScalarExpr::Arith {
                        op: ArithOp::Mod,
                        left: a(),
                        right: lit(Scalar::Int64(3)),
                    }),
                    right: lit(Scalar::Int64(2)),
                },
                DataType::Int64,
            ),
            (
                ScalarExpr::Arith {
                    op: ArithOp::Add,
                    left: a(),
                    right: x(),
                },
                DataType::Float64,
            ),
            (
                ScalarExpr::Cast {
                    expr: a(),
                    to: DataType::Float64,
                },
                DataType::Float64,
            ),
            (ScalarExpr::Negate(x()), DataType::Float64),
        ];
        for (e, dt) in cases {
            assert_eq!(e.data_type(), dt, "{e}");
            assert_eq!(e.eval(&b).unwrap().data_type(), dt, "{e}");
        }
    }

    #[test]
    fn referenced_and_remap() {
        let e = ScalarExpr::Arith {
            op: ArithOp::Add,
            left: Arc::new(ScalarExpr::col(3, "p", DataType::Int64)),
            right: Arc::new(ScalarExpr::col(1, "q", DataType::Int64)),
        };
        let mut refs = Vec::new();
        e.referenced_columns(&mut refs);
        assert_eq!(refs, vec![3, 1]);
        let r = e.remap_columns(&|i| i * 10);
        let mut refs = Vec::new();
        r.referenced_columns(&mut refs);
        assert_eq!(refs, vec![30, 10]);
    }
}
