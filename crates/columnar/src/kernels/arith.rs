//! Arithmetic kernels (`+ - * / %`) over numeric arrays and literals.
//!
//! Int64 ⊕ Int64 stays Int64 (wrapping on overflow, with `%` and `/`
//! defined as in SQL integer arithmetic); any Float64 operand promotes the
//! result to Float64; a Date32 ± Int64 days stays Date32. Integer division
//! or modulo by zero yields a NULL slot holding 0 rather than an error,
//! which matches how the engine's expression evaluator surfaces row-level
//! faults; a literal zero divisor makes every row NULL.
//!
//! Operands are read in place: no input is copied and a literal on either
//! side ([`arith_scalar`], [`scalar_arith`]) stays one scalar, never an
//! n-row array. The operator is matched once, outside the loop. Value bits
//! under NULL slots are what the operator gives on the values there.

use crate::array::{Array, Date32Array, Float64Array, Int64Array};
use crate::bitmap::Bitmap;
use crate::datatype::{DataType, Scalar};
use crate::error::{ColumnarError, Result};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl ArithOp {
    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }

    /// Result type for operand types `a` and `b`.
    pub fn result_type(&self, a: DataType, b: DataType) -> Result<DataType> {
        match (a, b) {
            (DataType::Int64, DataType::Int64) => Ok(DataType::Int64),
            (DataType::Float64, DataType::Float64)
            | (DataType::Int64, DataType::Float64)
            | (DataType::Float64, DataType::Int64) => Ok(DataType::Float64),
            // Date arithmetic: date ± int = date (day granularity).
            (DataType::Date32, DataType::Int64) if matches!(self, ArithOp::Add | ArithOp::Sub) => {
                Ok(DataType::Date32)
            }
            (x, y) => Err(ColumnarError::Invalid(format!(
                "arithmetic {} not defined for {x} and {y}",
                self.sql()
            ))),
        }
    }
}

fn merge_validity(a: Option<&Bitmap>, b: Option<&Bitmap>) -> Option<Bitmap> {
    match (a, b) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.clone()),
        (Some(x), Some(y)) => Some(x.and(y).expect("caller checked lengths")),
    }
}

/// One operand: an array, or a literal that stays scalar.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Array(&'a Array),
    Scalar(&'a Scalar),
}

/// An operand's values of one physical type, borrowed in place.
#[derive(Clone, Copy)]
enum Values<'a, T> {
    Slice(&'a [T]),
    One(T),
}

/// The Float64 view of an operand: its `f64` or `i64` values.
enum F64Values<'a> {
    F64(Values<'a, f64>),
    I64(Values<'a, i64>),
}

/// A value arithmetic promotes to `f64`.
trait ToF64: Copy {
    fn to_f64(self) -> f64;
}

impl ToF64 for f64 {
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

impl ToF64 for i64 {
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl<'a> Operand<'a> {
    /// The operand's type; a NULL literal types as Int64.
    fn data_type(self) -> DataType {
        match self {
            Operand::Array(a) => a.data_type(),
            Operand::Scalar(s) => s.data_type().unwrap_or(DataType::Int64),
        }
    }

    fn validity(self) -> Option<&'a Bitmap> {
        match self {
            Operand::Array(a) => a.validity(),
            Operand::Scalar(_) => None,
        }
    }

    fn mismatch(self, expected: DataType) -> ColumnarError {
        ColumnarError::type_mismatch(expected, self.data_type())
    }

    fn i64s(self) -> Result<Values<'a, i64>> {
        match self {
            Operand::Array(Array::Int64(x)) => Ok(Values::Slice(&x.values)),
            Operand::Scalar(Scalar::Int64(v)) => Ok(Values::One(*v)),
            _ => Err(self.mismatch(DataType::Int64)),
        }
    }

    fn dates(self) -> Result<Values<'a, i32>> {
        match self {
            Operand::Array(Array::Date32(x)) => Ok(Values::Slice(&x.values)),
            Operand::Scalar(Scalar::Date32(v)) => Ok(Values::One(*v)),
            _ => Err(self.mismatch(DataType::Date32)),
        }
    }

    fn f64s(self) -> Result<F64Values<'a>> {
        match self {
            Operand::Array(Array::Float64(x)) => Ok(F64Values::F64(Values::Slice(&x.values))),
            Operand::Scalar(Scalar::Float64(v)) => Ok(F64Values::F64(Values::One(*v))),
            _ => self.i64s().map(F64Values::I64),
        }
    }
}

/// `f(l, r)` for each of `len` rows, reading both sides in place.
fn map2<A: Copy, B: Copy, T: Clone>(
    l: Values<'_, A>,
    r: Values<'_, B>,
    len: usize,
    f: impl Fn(A, B) -> T,
) -> Vec<T> {
    match (l, r) {
        (Values::Slice(x), Values::Slice(y)) => x.iter().zip(y).map(|(&p, &q)| f(p, q)).collect(),
        (Values::Slice(x), Values::One(q)) => x.iter().map(|&p| f(p, q)).collect(),
        (Values::One(p), Values::Slice(y)) => y.iter().map(|&q| f(p, q)).collect(),
        (Values::One(p), Values::One(q)) => vec![f(p, q); len],
    }
}

/// Float64 arithmetic on two sides that promote to `f64`.
fn float<A: ToF64, B: ToF64>(
    op: ArithOp,
    l: Values<'_, A>,
    r: Values<'_, B>,
    len: usize,
) -> Vec<f64> {
    match op {
        ArithOp::Add => map2(l, r, len, |p, q| p.to_f64() + q.to_f64()),
        ArithOp::Sub => map2(l, r, len, |p, q| p.to_f64() - q.to_f64()),
        ArithOp::Mul => map2(l, r, len, |p, q| p.to_f64() * q.to_f64()),
        ArithOp::Div => map2(l, r, len, |p, q| p.to_f64() / q.to_f64()),
        ArithOp::Mod => map2(l, r, len, |p, q| p.to_f64() % q.to_f64()),
    }
}

/// Int64 arithmetic, and the rows a zero divisor faults (0 in the value).
fn int(
    op: ArithOp,
    l: Values<'_, i64>,
    r: Values<'_, i64>,
    len: usize,
) -> (Vec<i64>, Option<Bitmap>) {
    let values = match op {
        ArithOp::Add => map2(l, r, len, i64::wrapping_add),
        ArithOp::Sub => map2(l, r, len, i64::wrapping_sub),
        ArithOp::Mul => map2(l, r, len, i64::wrapping_mul),
        ArithOp::Div => map2(l, r, len, |p, q| if q == 0 { 0 } else { p.wrapping_div(q) }),
        ArithOp::Mod => map2(l, r, len, |p, q| if q == 0 { 0 } else { p.wrapping_rem(q) }),
    };
    let faults = match (op, r) {
        (ArithOp::Add | ArithOp::Sub | ArithOp::Mul, _) => None,
        (_, Values::One(q)) => (q == 0).then(|| Bitmap::with_value(len, false)),
        (_, Values::Slice(y)) => y
            .contains(&0)
            .then(|| Bitmap::pack(y.iter().map(|&q| q != 0))),
    };
    (values, faults)
}

/// `l ⊕ r` over `len` rows; at least one side is an array of `len` rows.
fn binary(l: Operand<'_>, r: Operand<'_>, op: ArithOp, len: usize) -> Result<Array> {
    let (lt, rt) = (l.data_type(), r.data_type());
    let null = |o: Operand<'_>| matches!(o, Operand::Scalar(Scalar::Null));
    if null(l) || null(r) {
        // NULL on every row, of the type an Int64 literal would give (the
        // array's own when that is undefined).
        let own = if null(l) { rt } else { lt };
        return Array::from_scalar(&Scalar::Null, op.result_type(lt, rt).unwrap_or(own), len);
    }
    let validity = merge_validity(l.validity(), r.validity());
    Ok(match op.result_type(lt, rt)? {
        DataType::Int64 => {
            let (values, faults) = int(op, l.i64s()?, r.i64s()?, len);
            let validity = match (validity, faults) {
                (Some(v), Some(f)) => Some(v.and(&f)?),
                (v, f) => v.or(f),
            };
            Array::Int64(Int64Array { values, validity })
        }
        DataType::Float64 => {
            let values = match (l.f64s()?, r.f64s()?) {
                (F64Values::F64(x), F64Values::F64(y)) => float(op, x, y, len),
                (F64Values::F64(x), F64Values::I64(y)) => float(op, x, y, len),
                (F64Values::I64(x), F64Values::F64(y)) => float(op, x, y, len),
                (F64Values::I64(x), F64Values::I64(y)) => float(op, x, y, len),
            };
            Array::Float64(Float64Array { values, validity })
        }
        DataType::Date32 => {
            let (days, n) = (l.dates()?, r.i64s()?);
            let values = match op {
                ArithOp::Add => map2(days, n, len, |d, n| d.wrapping_add(n as i32)),
                _ => map2(days, n, len, |d, n| d.wrapping_sub(n as i32)),
            };
            Array::Date32(Date32Array { values, validity })
        }
        _ => unreachable!("result_type only returns numeric types"),
    })
}

/// Element-wise `a ⊕ b` on equal-length arrays.
pub fn arith(a: &Array, b: &Array, op: ArithOp) -> Result<Array> {
    if a.len() != b.len() {
        return Err(ColumnarError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    binary(Operand::Array(a), Operand::Array(b), op, a.len())
}

/// Element-wise `a ⊕ scalar`; the scalar is never widened into an array.
pub fn arith_scalar(a: &Array, s: &Scalar, op: ArithOp) -> Result<Array> {
    binary(Operand::Array(a), Operand::Scalar(s), op, a.len())
}

/// Element-wise `scalar ⊕ a`, such as `1 - discount`; the mirror of
/// [`arith_scalar`].
pub fn scalar_arith(s: &Scalar, a: &Array, op: ArithOp) -> Result<Array> {
    binary(Operand::Scalar(s), Operand::Array(a), op, a.len())
}

/// The type of `-x` for an `x` of type `t`: Int64 and Float64 negate to
/// themselves, and nothing else negates. The rule [`negate`] implements.
pub fn negate_type(t: DataType) -> Result<DataType> {
    match t {
        DataType::Int64 | DataType::Float64 => Ok(t),
        other => Err(ColumnarError::Invalid(format!(
            "negate not defined for {other}"
        ))),
    }
}

/// Unary negation.
pub fn negate(a: &Array) -> Result<Array> {
    match a {
        Array::Int64(x) => Ok(Array::Int64(Int64Array {
            values: x.values.iter().map(|v| v.wrapping_neg()).collect(),
            validity: x.validity.clone(),
        })),
        Array::Float64(x) => Ok(Array::Float64(Float64Array {
            values: x.values.iter().map(|v| -v).collect(),
            validity: x.validity.clone(),
        })),
        other => Err(ColumnarError::Invalid(format!(
            "negate not defined for {}",
            other.data_type()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arith() {
        let a = Array::from_i64(vec![10, 20, 30]);
        let b = Array::from_i64(vec![3, 4, 5]);
        let sum = arith(&a, &b, ArithOp::Add).unwrap();
        assert_eq!(sum.scalar_at(0), Scalar::Int64(13));
        let rem = arith(&a, &b, ArithOp::Mod).unwrap();
        assert_eq!(rem.scalar_at(1), Scalar::Int64(0));
        let div = arith(&a, &b, ArithOp::Div).unwrap();
        assert_eq!(div.scalar_at(2), Scalar::Int64(6));
    }

    #[test]
    fn int_div_by_zero_yields_null() {
        let a = Array::from_i64(vec![10, 20]);
        let b = Array::from_i64(vec![2, 0]);
        let div = arith(&a, &b, ArithOp::Div).unwrap();
        assert_eq!(div.scalar_at(0), Scalar::Int64(5));
        assert_eq!(div.scalar_at(1), Scalar::Null);
        let rem = arith(&a, &b, ArithOp::Mod).unwrap();
        assert_eq!(rem.scalar_at(1), Scalar::Null);
    }

    #[test]
    fn mixed_promotes_to_float() {
        let a = Array::from_i64(vec![1, 2]);
        let b = Array::from_f64(vec![0.5, 0.5]);
        let out = arith(&a, &b, ArithOp::Mul).unwrap();
        assert_eq!(out.data_type(), DataType::Float64);
        assert_eq!(out.scalar_at(1), Scalar::Float64(1.0));
    }

    #[test]
    fn scalar_arith_deep_water_projection() {
        // The paper's Deep Water projection: (rowid % (500*500)) / 500.
        let rowid = Array::from_i64(vec![0, 499, 500, 250_000, 250_500]);
        let m = arith_scalar(&rowid, &Scalar::Int64(500 * 500), ArithOp::Mod).unwrap();
        let out = arith_scalar(&m, &Scalar::Int64(500), ArithOp::Div).unwrap();
        let got: Vec<Scalar> = (0..5).map(|i| out.scalar_at(i)).collect();
        assert_eq!(
            got,
            vec![
                Scalar::Int64(0),
                Scalar::Int64(0),
                Scalar::Int64(1),
                Scalar::Int64(0),
                Scalar::Int64(1),
            ]
        );
    }

    #[test]
    fn tpch_q1_expression() {
        // extendedprice * (1 - discount) * (1 + tax)
        let price = Array::from_f64(vec![100.0]);
        let discount = Array::from_f64(vec![0.05]);
        let tax = Array::from_f64(vec![0.07]);
        let one_minus = arith_scalar(
            &negate(&discount).unwrap(),
            &Scalar::Float64(1.0),
            ArithOp::Add,
        )
        .unwrap();
        let one_plus = arith_scalar(&tax, &Scalar::Float64(1.0), ArithOp::Add).unwrap();
        let out = arith(
            &arith(&price, &one_minus, ArithOp::Mul).unwrap(),
            &one_plus,
            ArithOp::Mul,
        )
        .unwrap();
        let v = out.scalar_at(0).as_f64().unwrap();
        assert!((v - 100.0 * 0.95 * 1.07).abs() < 1e-9);
    }

    #[test]
    fn date_arithmetic() {
        let d = Array::from_dates(vec![10561]);
        let out = arith_scalar(&d, &Scalar::Int64(90), ArithOp::Sub).unwrap();
        assert_eq!(out.scalar_at(0), Scalar::Date32(10561 - 90));
        assert_eq!(out.data_type(), DataType::Date32);
    }

    #[test]
    fn invalid_types_error() {
        let a = Array::from_strs(["x"]);
        let b = Array::from_i64(vec![1]);
        assert!(arith(&a, &b, ArithOp::Add).is_err());
    }

    #[test]
    fn null_propagates() {
        let mut builder = crate::builder::ArrayBuilder::new(DataType::Int64);
        builder.push_i64(1);
        builder.push_null();
        let a = builder.finish();
        let out = arith_scalar(&a, &Scalar::Int64(1), ArithOp::Add).unwrap();
        assert_eq!(out.scalar_at(0), Scalar::Int64(2));
        assert_eq!(out.scalar_at(1), Scalar::Null);
    }
}
