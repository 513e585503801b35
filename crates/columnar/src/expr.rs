//! The one expression walker: evaluation, cost weight and column
//! references for any tree made of the twelve scalar node kinds.
//!
//! The query engine (`dsq::ScalarExpr`) and the OCS storage executor
//! (`substrait_ir::Expr`) keep separate expression IRs — translating one
//! into the other is the overhead the paper's Table 3 measures — but a
//! pushed-down operator must compute, and be billed, exactly what it would
//! at the compute layer. Each IR therefore implements [`ExprTree`] (one
//! match exposing its node as a borrowed [`Node`]) and everything recursive
//! is written once, here.

use std::sync::Arc;

use crate::array::{Array, ArrayRef, BooleanArray};
use crate::batch::RecordBatch;
use crate::datatype::{DataType, Scalar};
use crate::error::{ColumnarError, Result};
use crate::kernels::arith::{self, ArithOp};
use crate::kernels::cmp::{self, CmpOp};
use crate::kernels::{boolean, cast};

/// A borrowed view of one expression node and its children.
pub enum Node<'a, E> {
    /// Reference to input column `i`.
    Column(usize),
    /// A literal.
    Literal(&'a Scalar),
    /// `left op right`, producing Boolean.
    Cmp(CmpOp, &'a E, &'a E),
    /// `left op right` arithmetic.
    Arith(ArithOp, &'a E, &'a E),
    /// Kleene AND.
    And(&'a E, &'a E),
    /// Kleene OR.
    Or(&'a E, &'a E),
    /// NOT.
    Not(&'a E),
    /// `expr BETWEEN lo AND hi`, inclusive.
    Between(&'a E, &'a E, &'a E),
    /// Cast of `expr` to a type.
    Cast(&'a E, DataType),
    /// Unary minus.
    Negate(&'a E),
    /// `IS NULL`.
    IsNull(&'a E),
    /// `IS NOT NULL`.
    IsNotNull(&'a E),
}

impl<'a, E> Node<'a, E> {
    /// The node's operands, left to right.
    fn children(&self) -> impl Iterator<Item = &'a E> {
        match *self {
            Node::Column(_) | Node::Literal(_) => [None, None, None],
            Node::Cmp(_, l, r) | Node::Arith(_, l, r) | Node::And(l, r) | Node::Or(l, r) => {
                [Some(l), Some(r), None]
            }
            Node::Between(x, lo, hi) => [Some(x), Some(lo), Some(hi)],
            Node::Not(x)
            | Node::Negate(x)
            | Node::Cast(x, _)
            | Node::IsNull(x)
            | Node::IsNotNull(x) => [Some(x), None, None],
        }
        .into_iter()
        .flatten()
    }
}

/// An expression IR the shared walker can traverse.
pub trait ExprTree: Sized {
    /// This node's kind, payload and children.
    fn node(&self) -> Node<'_, Self>;
}

fn mask(b: BooleanArray) -> ArrayRef {
    Arc::new(Array::Boolean(b))
}

/// Evaluate `e` over `batch`, producing one array of `batch.num_rows()`.
///
/// Column references, and a cast to the type a value already has, share
/// their input array (no copy). A literal operand of a comparison, of
/// `BETWEEN` bounds, or on either side of an arithmetic operator stays
/// scalar; a literal on the left of a comparison flips the operator so it
/// takes the same scalar kernel.
pub fn eval<E: ExprTree>(e: &E, batch: &RecordBatch) -> Result<ArrayRef> {
    Ok(match e.node() {
        Node::Column(i) => {
            let column = batch.columns().get(i).cloned();
            column.ok_or(ColumnarError::IndexOutOfBounds {
                index: i,
                len: batch.num_columns(),
            })?
        }
        Node::Literal(s) => Arc::new(Array::from_scalar(s, literal_type(s), batch.num_rows())?),
        Node::Cmp(op, left, right) => mask(match (left.node(), right.node()) {
            (_, Node::Literal(s)) => cmp::compare_scalar(&*eval(left, batch)?, s, op)?,
            (Node::Literal(s), _) => cmp::compare_scalar(&*eval(right, batch)?, s, op.flip())?,
            _ => cmp::compare(&*eval(left, batch)?, &*eval(right, batch)?, op)?,
        }),
        Node::Arith(op, left, right) => Arc::new(match (left.node(), right.node()) {
            (_, Node::Literal(s)) => arith::arith_scalar(&*eval(left, batch)?, s, op)?,
            (Node::Literal(s), _) => arith::scalar_arith(s, &*eval(right, batch)?, op)?,
            _ => arith::arith(&*eval(left, batch)?, &*eval(right, batch)?, op)?,
        }),
        Node::And(a, b) => {
            let (x, y) = (eval(a, batch)?, eval(b, batch)?);
            mask(boolean::and(x.as_bool()?, y.as_bool()?)?)
        }
        Node::Or(a, b) => {
            let (x, y) = (eval(a, batch)?, eval(b, batch)?);
            mask(boolean::or(x.as_bool()?, y.as_bool()?)?)
        }
        Node::Not(x) => mask(boolean::not(eval(x, batch)?.as_bool()?)),
        Node::Between(expr, lo, hi) => {
            let x = eval(expr, batch)?;
            mask(match (lo.node(), hi.node()) {
                (Node::Literal(l), Node::Literal(h)) => cmp::between_scalar(&x, l, h)?,
                _ => {
                    let ge = cmp::compare(&x, &*eval(lo, batch)?, CmpOp::GtEq)?;
                    let le = cmp::compare(&x, &*eval(hi, batch)?, CmpOp::LtEq)?;
                    boolean::and(&ge, &le)?
                }
            })
        }
        Node::Cast(expr, to) => {
            let x = eval(expr, batch)?;
            if x.data_type() == to {
                x
            } else {
                Arc::new(cast::cast(&x, to)?)
            }
        }
        Node::Negate(x) => Arc::new(arith::negate(&*eval(x, batch)?)?),
        Node::IsNull(x) => mask(cmp::is_null(&*eval(x, batch)?)),
        Node::IsNotNull(x) => mask(cmp::is_not_null(&*eval(x, batch)?)),
    })
}

/// The type of a literal: its value's, or Boolean for the untyped `NULL`,
/// which is how [`eval`] materializes it and how every typer types it.
pub fn literal_type(s: &Scalar) -> DataType {
    s.data_type().unwrap_or(DataType::Boolean)
}

/// The comparison rule for two operands with their types: a comparison's
/// sides, or a `BETWEEN`'s tested expression and one bound. The types must
/// be [`DataType::comparable_with`] each other, with one exception: the
/// untyped `NULL` literal, Boolean by [`literal_type`], compares with any
/// type (the result is NULL).
pub fn comparable<E: ExprTree>((l, lt): (&E, DataType), (r, rt): (&E, DataType)) -> bool {
    let null = |e: &E| matches!(e.node(), Node::Literal(Scalar::Null));
    lt.comparable_with(rt) || null(l) || null(r)
}

/// Primitive operations one row costs. Both sides of the pushdown boundary
/// bill `CostParams::eval_work` from this number, and the connector's
/// `max_project_weight` threshold compares against it.
pub fn weight<E: ExprTree>(e: &E) -> u32 {
    let node = e.node();
    let own = match node {
        Node::Column(_) | Node::Literal(_) => 0,
        // Division/modulo are several times pricier than add/mul.
        Node::Arith(ArithOp::Div | ArithOp::Mod, ..) => 4,
        Node::Between(..) => 2,
        _ => 1,
    };
    own + node.children().map(weight).sum::<u32>()
}

/// Append the column indices `e` reads to `out`, each once, in first-use
/// order.
pub fn referenced_columns<E: ExprTree>(e: &E, out: &mut Vec<usize>) {
    match e.node() {
        Node::Column(i) if out.contains(&i) => {}
        Node::Column(i) => out.push(i),
        node => node.children().for_each(|c| referenced_columns(c, out)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::{Field, Schema};

    /// A minimal IR: the walker needs nothing from a tree but `node()`.
    /// [`crate::ops`]'s tests build their expressions from it too.
    #[derive(Debug)]
    pub(crate) enum T {
        Col(usize),
        Lit(Scalar),
        Cmp(CmpOp, Box<T>, Box<T>),
        Arith(ArithOp, Box<T>, Box<T>),
        And(Box<T>, Box<T>),
        Or(Box<T>, Box<T>),
        Not(Box<T>),
        Between(Box<T>, Box<T>, Box<T>),
        Cast(Box<T>, DataType),
        Negate(Box<T>),
        IsNull(Box<T>),
        IsNotNull(Box<T>),
    }

    impl ExprTree for T {
        fn node(&self) -> Node<'_, T> {
            match self {
                T::Col(i) => Node::Column(*i),
                T::Lit(s) => Node::Literal(s),
                T::Cmp(op, left, right) => Node::Cmp(*op, left, right),
                T::Arith(op, left, right) => Node::Arith(*op, left, right),
                T::And(a, b) => Node::And(a, b),
                T::Or(a, b) => Node::Or(a, b),
                T::Not(e) => Node::Not(e),
                T::Between(expr, lo, hi) => Node::Between(expr, lo, hi),
                T::Cast(expr, to) => Node::Cast(expr, *to),
                T::Negate(e) => Node::Negate(e),
                T::IsNull(e) => Node::IsNull(e),
                T::IsNotNull(e) => Node::IsNotNull(e),
            }
        }
    }

    pub(crate) fn col(i: usize) -> Box<T> {
        Box::new(T::Col(i))
    }

    pub(crate) fn int(v: i64) -> Box<T> {
        Box::new(T::Lit(Scalar::Int64(v)))
    }

    pub(crate) fn float(v: f64) -> Box<T> {
        Box::new(T::Lit(Scalar::Float64(v)))
    }

    /// `a` = 1..=4 (Int64), `x` = 0.5..=3.5 (Float64).
    fn batch() -> RecordBatch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("x", DataType::Float64, false),
        ]));
        RecordBatch::try_new(
            schema,
            vec![
                Arc::new(Array::from_i64(vec![1, 2, 3, 4])),
                Arc::new(Array::from_f64(vec![0.5, 1.5, 2.5, 3.5])),
            ],
        )
        .unwrap()
    }

    fn set_rows(e: &T) -> Vec<usize> {
        let out = eval(e, &batch()).unwrap();
        out.as_bool().unwrap().values.set_indices()
    }

    #[test]
    fn comparison_and_boolean() {
        // a > 1 AND x < 3.0
        let e = T::And(
            Box::new(T::Cmp(CmpOp::Gt, col(0), int(1))),
            Box::new(T::Cmp(CmpOp::Lt, col(1), float(3.0))),
        );
        assert_eq!(set_rows(&e), vec![1, 2]);
        let either = T::Or(
            Box::new(T::Cmp(CmpOp::Lt, col(0), int(2))),
            Box::new(T::Cmp(CmpOp::Gt, col(1), float(3.0))),
        );
        assert_eq!(set_rows(&either), vec![0, 3]);
        assert_eq!(set_rows(&T::Not(Box::new(either))), vec![1, 2]);
    }

    #[test]
    fn arithmetic_expression() {
        // (a % 3) / 2 over ints.
        let e = T::Arith(
            ArithOp::Div,
            Box::new(T::Arith(ArithOp::Mod, col(0), int(3))),
            int(2),
        );
        let out = eval(&e, &batch()).unwrap();
        assert_eq!(out.as_i64().unwrap().values, vec![0, 1, 0, 0]);
        assert!(weight(&e) >= 8, "division-heavy expr weight {}", weight(&e));
        // Array ⊕ array, and unary minus.
        let sum = T::Negate(Box::new(T::Arith(ArithOp::Add, col(0), col(0))));
        let out = eval(&sum, &batch()).unwrap();
        assert_eq!(out.as_i64().unwrap().values, vec![-2, -4, -6, -8]);
    }

    #[test]
    fn literal_on_the_left_flips_the_comparison() {
        // 2 < a  ==  a > 2.
        assert_eq!(set_rows(&T::Cmp(CmpOp::Lt, int(2), col(0))), vec![2, 3]);
        assert_eq!(set_rows(&T::Cmp(CmpOp::Gt, col(0), int(2))), vec![2, 3]);
        for op in [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ] {
            let flipped = eval(&T::Cmp(op, float(2.5), col(1)), &batch()).unwrap();
            let direct = eval(&T::Cmp(op.flip(), col(1), float(2.5)), &batch()).unwrap();
            assert_eq!(flipped, direct, "{op:?}");
        }
    }

    #[test]
    fn literal_on_the_left_of_arithmetic_stays_scalar() {
        // 1 - x, 10 / a, 10 % a: the mirror of the right-literal kernels.
        let e = T::Arith(ArithOp::Sub, float(1.0), col(1));
        let out = eval(&e, &batch()).unwrap();
        assert_eq!(out.as_f64().unwrap().values, vec![0.5, -0.5, -1.5, -2.5]);
        let e = T::Arith(ArithOp::Div, int(10), col(0));
        assert_eq!(
            eval(&e, &batch()).unwrap().as_i64().unwrap().values,
            vec![10, 5, 3, 2]
        );
        let e = T::Arith(ArithOp::Mod, int(10), col(0));
        assert_eq!(
            eval(&e, &batch()).unwrap().as_i64().unwrap().values,
            vec![0, 0, 1, 2]
        );
        // Int64 literal, Float64 column: promoted like the right-hand form.
        let left = eval(&T::Arith(ArithOp::Mul, int(2), col(1)), &batch()).unwrap();
        let right = eval(&T::Arith(ArithOp::Mul, col(1), int(2)), &batch()).unwrap();
        assert_eq!(left, right);
    }

    #[test]
    fn same_type_cast_shares_its_input() {
        let b = batch();
        for (i, dt) in [(0, DataType::Int64), (1, DataType::Float64)] {
            let out = eval(&T::Cast(col(i), dt), &b).unwrap();
            assert!(Arc::ptr_eq(&out, b.column(i)), "no deep copy");
        }
        let widened = eval(&T::Cast(col(0), DataType::Float64), &b).unwrap();
        assert_eq!(widened.as_f64().unwrap().values, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn between_and_cast() {
        let e = T::Between(col(1), float(1.0), float(3.0));
        assert_eq!(set_rows(&e), vec![1, 2]);
        // Non-literal bounds take the array kernels and agree.
        let wide = T::Between(col(1), Box::new(T::Cast(int(1), DataType::Float64)), col(1));
        assert_eq!(set_rows(&wide), vec![1, 2, 3]);
        let c = T::Cast(col(0), DataType::Float64);
        assert_eq!(eval(&c, &batch()).unwrap().data_type(), DataType::Float64);
    }

    #[test]
    fn nulls_and_null_tests() {
        let null_cmp = T::Cmp(CmpOp::Eq, col(0), Box::new(T::Lit(Scalar::Null)));
        let out = eval(&null_cmp, &batch()).unwrap();
        assert_eq!(out.null_count(), 4, "x = NULL is NULL on every row");
        assert_eq!(set_rows(&T::IsNull(Box::new(null_cmp))), vec![0, 1, 2, 3]);
        assert_eq!(set_rows(&T::IsNotNull(col(0))), vec![0, 1, 2, 3]);
    }

    #[test]
    fn column_references_share_the_batch_array() {
        let b = batch();
        let out = eval(&T::Col(1), &b).unwrap();
        assert!(Arc::ptr_eq(&out, b.column(1)), "no deep copy");
        assert_eq!(
            eval(&T::Col(7), &b).unwrap_err(),
            ColumnarError::IndexOutOfBounds { index: 7, len: 2 }
        );
    }

    #[test]
    fn referenced_columns_dedup_in_first_use_order() {
        // (c3 + c1 > 0) AND (c1 BETWEEN c3 AND c5)
        let e = T::And(
            Box::new(T::Cmp(
                CmpOp::Gt,
                Box::new(T::Arith(ArithOp::Add, col(3), col(1))),
                int(0),
            )),
            Box::new(T::Between(col(1), col(3), col(5))),
        );
        let mut refs = Vec::new();
        referenced_columns(&e, &mut refs);
        assert_eq!(refs, vec![3, 1, 5]);
    }

    #[test]
    fn weight_orders_complexity() {
        let cheap = T::Cmp(CmpOp::Gt, col(0), int(1));
        // The Deep Water projection: (rowid % 250000) / 500 — two divisions.
        let pricey = T::Arith(
            ArithOp::Div,
            Box::new(T::Arith(ArithOp::Mod, col(0), int(250_000))),
            int(500),
        );
        assert_eq!(weight(&cheap), 1);
        assert_eq!(weight(&pricey), 8);
        assert_eq!(weight(&T::Between(col(0), int(1), int(2))), 2);
        assert_eq!(weight(&T::Col(0)), 0);
    }
}
