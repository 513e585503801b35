//! Typed expression trees.

use columnar::agg::AggFunc;
use columnar::expr::{self, ExprTree, Node};
use columnar::kernels::arith::ArithOp;
use columnar::kernels::cmp::CmpOp;
use columnar::{ArrayRef, DataType, RecordBatch, Scalar};
use std::fmt;

/// A scalar expression evaluated row-wise against an input schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to input column `i`.
    FieldRef(usize),
    /// A literal value.
    Literal(Scalar),
    /// Comparison producing Boolean.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical AND (Kleene).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (Kleene).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// `expr BETWEEN lo AND hi` (inclusive).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        lo: Box<Expr>,
        /// Upper bound.
        hi: Box<Expr>,
    },
    /// Type cast.
    Cast {
        /// Input expression.
        expr: Box<Expr>,
        /// Target type.
        to: DataType,
    },
    /// Unary minus.
    Negate(Box<Expr>),
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<Expr>),
}

impl Expr {
    /// Shorthand: field reference.
    pub fn field(i: usize) -> Expr {
        Expr::FieldRef(i)
    }

    /// Shorthand: literal.
    pub fn lit(s: Scalar) -> Expr {
        Expr::Literal(s)
    }

    /// Shorthand: comparison.
    pub fn cmp(op: CmpOp, left: Expr, right: Expr) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Shorthand: arithmetic.
    pub fn arith(op: ArithOp, left: Expr, right: Expr) -> Expr {
        Expr::Arith {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Evaluate over a batch with the walker the engine's own expressions
    /// use ([`columnar::expr::eval`]).
    pub fn eval(&self, batch: &RecordBatch) -> columnar::Result<ArrayRef> {
        expr::eval(self, batch)
    }

    /// All field indices referenced by this expression.
    pub fn referenced_fields(&self, out: &mut Vec<usize>) {
        expr::referenced_columns(self, out)
    }

    /// Rewrite every field reference through `map` (old index → new index).
    /// Used when folding operators into a projected scan.
    pub fn remap_fields(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::FieldRef(i) => Expr::FieldRef(map(*i)),
            Expr::Literal(s) => Expr::Literal(s.clone()),
            Expr::Cmp { op, left, right } => Expr::Cmp {
                op: *op,
                left: Box::new(left.remap_fields(map)),
                right: Box::new(right.remap_fields(map)),
            },
            Expr::Arith { op, left, right } => Expr::Arith {
                op: *op,
                left: Box::new(left.remap_fields(map)),
                right: Box::new(right.remap_fields(map)),
            },
            Expr::And(a, b) => {
                Expr::And(Box::new(a.remap_fields(map)), Box::new(b.remap_fields(map)))
            }
            Expr::Or(a, b) => {
                Expr::Or(Box::new(a.remap_fields(map)), Box::new(b.remap_fields(map)))
            }
            Expr::Not(e) => Expr::Not(Box::new(e.remap_fields(map))),
            Expr::Between { expr, lo, hi } => Expr::Between {
                expr: Box::new(expr.remap_fields(map)),
                lo: Box::new(lo.remap_fields(map)),
                hi: Box::new(hi.remap_fields(map)),
            },
            Expr::Cast { expr, to } => Expr::Cast {
                expr: Box::new(expr.remap_fields(map)),
                to: *to,
            },
            Expr::Negate(e) => Expr::Negate(Box::new(e.remap_fields(map))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.remap_fields(map))),
            Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(e.remap_fields(map))),
        }
    }

    /// A rough cost weight: how many primitive operations one row costs.
    /// Feeds the connector's computational-complexity threshold.
    pub fn op_weight(&self) -> u32 {
        expr::weight(self)
    }
}

impl ExprTree for Expr {
    fn node(&self) -> Node<'_, Self> {
        match self {
            Expr::FieldRef(i) => Node::Column(*i),
            Expr::Literal(s) => Node::Literal(s),
            Expr::Cmp { op, left, right } => Node::Cmp(*op, left, right),
            Expr::Arith { op, left, right } => Node::Arith(*op, left, right),
            Expr::And(a, b) => Node::And(a, b),
            Expr::Or(a, b) => Node::Or(a, b),
            Expr::Not(e) => Node::Not(e),
            Expr::Between { expr, lo, hi } => Node::Between(expr, lo, hi),
            Expr::Cast { expr, to } => Node::Cast(expr, *to),
            Expr::Negate(e) => Node::Negate(e),
            Expr::IsNull(e) => Node::IsNull(e),
            Expr::IsNotNull(e) => Node::IsNotNull(e),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::FieldRef(i) => write!(f, "${i}"),
            Expr::Literal(s) => write!(f, "{s}"),
            Expr::Cmp { op, left, right } => write!(f, "({left} {} {right})", op.sql()),
            Expr::Arith { op, left, right } => write!(f, "({left} {} {right})", op.sql()),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Between { expr, lo, hi } => write!(f, "({expr} BETWEEN {lo} AND {hi})"),
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Negate(e) => write!(f, "(-{e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
        }
    }
}

/// One aggregate measure of an `Aggregate` relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Measure {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument (None = `COUNT(*)`).
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

/// One sort key of a `Sort` relation.
#[derive(Debug, Clone, PartialEq)]
pub struct SortField {
    /// Key expression (usually a field reference).
    pub expr: Expr,
    /// Ascending order.
    pub ascending: bool,
    /// NULLs first.
    pub nulls_first: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planck::{self, DiagCode};
    use crate::{Plan, Rel};
    use columnar::{Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Float64, false),
            Field::new("s", DataType::Utf8, false),
        ])
    }

    #[test]
    fn typing_rules() {
        // Typing is planck's: an expression's type is that of a one-column
        // projection over (Int64, Float64, Utf8).
        let type_of = |e: Expr| {
            let read = Rel::read("t", schema(), None);
            let plan = Plan::new(Rel::Project {
                input: Box::new(read),
                exprs: vec![(e, "y".into())],
            });
            let t = planck::verify_untrusted(&plan).map(|v| v.schema().field(0).data_type);
            t.map_err(|ds| ds[0].code)
        };
        assert_eq!(type_of(Expr::field(0)), Ok(DataType::Int64));
        assert_eq!(
            type_of(Expr::cmp(CmpOp::Lt, Expr::field(0), Expr::field(1))),
            Ok(DataType::Boolean)
        );
        assert_eq!(
            type_of(Expr::arith(ArithOp::Add, Expr::field(0), Expr::field(1))),
            Ok(DataType::Float64)
        );
        // Comparing string with number is a type error.
        assert_eq!(
            type_of(Expr::cmp(CmpOp::Eq, Expr::field(2), Expr::field(0))),
            Err(DiagCode::CmpTypeMismatch)
        );
        // Boolean ops need boolean inputs.
        assert_eq!(
            type_of(Expr::And(
                Box::new(Expr::field(0)),
                Box::new(Expr::field(0))
            )),
            Err(DiagCode::BoolOperandNotBoolean)
        );
        assert_eq!(
            type_of(Expr::Not(Box::new(Expr::field(1)))),
            Err(DiagCode::BoolOperandNotBoolean)
        );
        // Negation is numeric only.
        assert_eq!(
            type_of(Expr::Negate(Box::new(Expr::field(1)))),
            Ok(DataType::Float64)
        );
        assert_eq!(
            type_of(Expr::Negate(Box::new(Expr::field(2)))),
            Err(DiagCode::NegateNonNumeric)
        );
        // Out-of-range reference.
        assert_eq!(type_of(Expr::field(9)), Err(DiagCode::FieldOutOfRange));
        // An untyped NULL literal is Boolean, and casts only where a
        // Boolean casts.
        assert_eq!(type_of(Expr::lit(Scalar::Null)), Ok(DataType::Boolean));
        let cast_null = |to| Expr::Cast {
            expr: Box::new(Expr::lit(Scalar::Null)),
            to,
        };
        assert_eq!(type_of(cast_null(DataType::Utf8)), Ok(DataType::Utf8));
        assert_eq!(
            type_of(cast_null(DataType::Int64)),
            Err(DiagCode::CastIllegal)
        );
        assert_eq!(
            type_of(Expr::IsNull(Box::new(Expr::field(2)))),
            Ok(DataType::Boolean)
        );
    }

    #[test]
    fn remap_rewrites_refs() {
        let e = Expr::arith(ArithOp::Mul, Expr::field(2), Expr::field(5));
        let r = e.remap_fields(&|i| i - 2);
        let mut refs = Vec::new();
        r.referenced_fields(&mut refs);
        assert_eq!(refs, vec![0, 3]);
    }

    #[test]
    fn literal_on_the_left_takes_the_flipped_scalar_kernel() {
        // 2 < a  ==  a > 2, bit for bit — evaluation, weight and field
        // references are `columnar::expr` (tested there); this pins the
        // delegation and the one case the storage side used to evaluate
        // through a different kernel than the engine.
        let batch = columnar::RecordBatch::try_new(
            std::sync::Arc::new(Schema::new(vec![Field::new("a", DataType::Int64, true)])),
            vec![std::sync::Arc::new(columnar::Array::from_i64(vec![
                1, 2, 3, 4,
            ]))],
        )
        .unwrap();
        let flipped = Expr::cmp(CmpOp::Lt, Expr::lit(Scalar::Int64(2)), Expr::field(0));
        let direct = Expr::cmp(CmpOp::Gt, Expr::field(0), Expr::lit(Scalar::Int64(2)));
        let out = flipped.eval(&batch).unwrap();
        assert_eq!(out.as_bool().unwrap().values.set_indices(), vec![2, 3]);
        assert_eq!(out, direct.eval(&batch).unwrap());
        assert_eq!(flipped.op_weight(), direct.op_weight());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::Between {
            expr: Box::new(Expr::field(1)),
            lo: Box::new(Expr::lit(Scalar::Float64(0.8))),
            hi: Box::new(Expr::lit(Scalar::Float64(3.2))),
        };
        assert_eq!(e.to_string(), "($1 BETWEEN 0.8 AND 3.2)");
    }
}
