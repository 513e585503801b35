//! Differential tests: every word-packed comparison, Boolean, arithmetic
//! and selection kernel against a row-at-a-time reference that states the
//! semantics one row at a time: `Scalar::total_cmp` per row, the Kleene
//! truth table, SQL arithmetic with NULL on integer division by zero, and
//! the kept rows in order.
//!
//! Outputs are compared whole, validity and the value bits under NULL slots
//! included (Float64 values by their bits, every NaN as one).

use super::arith::{self, ArithOp};
use super::boolean;
use super::cmp::{self, CmpOp};
use super::selection::Selection;
use crate::array::{Array, BooleanArray, Date32Array, Float64Array, Int64Array, Utf8Array};
use crate::batch::RecordBatch;
use crate::bitmap::Bitmap;
use crate::datatype::{DataType, Scalar};
use crate::dict::DictArray;
use crate::schema::{Field, Schema};
use std::sync::Arc;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];

const ARITH: [ArithOp; 5] = [
    ArithOp::Add,
    ArithOp::Sub,
    ArithOp::Mul,
    ArithOp::Div,
    ArithOp::Mod,
];

/// Fixed lengths around the word boundaries, then random ones.
const LENGTHS: [usize; 7] = [0, 1, 63, 64, 65, 127, 129];

/// A small deterministic generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len())]
    }

    fn i64(&mut self) -> i64 {
        match self.below(4) {
            0 => self.pick(&[i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]),
            _ => self.below(9) as i64 - 4,
        }
    }

    fn f64(&mut self) -> f64 {
        match self.below(4) {
            0 => self.pick(&[
                f64::NAN,
                -f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::MIN,
            ]),
            _ => (self.below(9) as f64 - 4.0) / 2.0,
        }
    }

    fn date(&mut self) -> i32 {
        match self.below(4) {
            0 => self.pick(&[i32::MIN, -1, 0, 1, i32::MAX]),
            _ => self.below(9) as i32 - 4,
        }
    }

    /// No bitmap, an all-valid bitmap, or a bitmap with NULL rows.
    fn validity(&mut self, len: usize) -> Option<Bitmap> {
        match self.below(3) {
            0 => None,
            1 => Some(Bitmap::with_value(len, true)),
            _ => Some((0..len).map(|_| self.below(4) != 0).collect()),
        }
    }

    fn array(&mut self, dt: DataType, len: usize) -> Array {
        let validity = self.validity(len);
        match dt {
            DataType::Int64 => Array::Int64(Int64Array {
                values: (0..len).map(|_| self.i64()).collect(),
                validity,
            }),
            DataType::Float64 => Array::Float64(Float64Array {
                values: (0..len).map(|_| self.f64()).collect(),
                validity,
            }),
            DataType::Date32 => Array::Date32(Date32Array {
                values: (0..len).map(|_| self.date()).collect(),
                validity,
            }),
            DataType::Boolean => Array::Boolean(BooleanArray {
                values: (0..len).map(|_| self.below(2) == 1).collect(),
                validity,
            }),
            DataType::Utf8 => {
                let words = ["", "a", "ab", "b", "é"];
                let strs: Vec<&str> = (0..len).map(|_| self.pick(&words)).collect();
                Array::Utf8(Utf8Array {
                    validity,
                    ..Utf8Array::from_strs(strs)
                })
            }
        }
    }

    /// Dictionary-coded strings over a few entries, one longer than a
    /// copy block. The code under a NULL slot names an entry or none.
    fn dict(&mut self, len: usize) -> Array {
        let entries = ["", "a", "bb", "é", "an entry longer than sixteen bytes"];
        let validity = self.validity(len);
        let codes = (0..len)
            .map(|i| match validity.as_ref().is_none_or(|v| v.get(i)) {
                true => self.below(entries.len()) as u32,
                false => self.pick(&[0, 4, u32::MAX]),
            })
            .collect();
        let entries = Arc::new(Utf8Array::from_strs(entries));
        Array::Dict(DictArray::try_new(codes, entries, validity).unwrap())
    }

    /// A selection over `len` rows whose words are, at random, empty,
    /// full, sparse (at most 16 set bits) or dense.
    fn mask(&mut self, len: usize) -> Bitmap {
        let words = (0..len.div_ceil(64))
            .map(|_| {
                let sparse = (0..self.below(17)).fold(0u64, |w, _| w | 1 << self.below(64));
                match self.below(5) {
                    0 => 0,
                    1 => u64::MAX,
                    2 => sparse,
                    3 => !sparse,
                    _ => self.next() | self.next(),
                }
            })
            .collect();
        Bitmap::from_words(words, len)
    }

    fn scalar(&mut self, dt: DataType) -> Scalar {
        match dt {
            DataType::Int64 => Scalar::Int64(self.i64()),
            DataType::Float64 => Scalar::Float64(self.f64()),
            DataType::Date32 => Scalar::Date32(self.date()),
            DataType::Boolean => Scalar::Boolean(self.below(2) == 1),
            DataType::Utf8 => Scalar::Utf8(self.pick(&["", "a", "b"]).into()),
        }
    }

    fn lengths(&mut self) -> Vec<usize> {
        let mut lengths = LENGTHS.to_vec();
        lengths.extend((0..4).map(|_| self.below(300)));
        lengths
    }
}

/// The value in slot `i`, valid or not.
fn raw(a: &Array, i: usize) -> Scalar {
    match a {
        Array::Int64(x) => Scalar::Int64(x.values[i]),
        Array::Float64(x) => Scalar::Float64(x.values[i]),
        Array::Date32(x) => Scalar::Date32(x.values[i]),
        Array::Boolean(x) => Scalar::Boolean(x.values.get(i)),
        Array::Utf8(x) => Scalar::Utf8(x.value(i).into()),
        Array::Dict(_) => unreachable!("not generated"),
    }
}

/// Whole-array equality, Float64 values by their bits. Every NaN counts as
/// one: Rust leaves the sign and payload of a NaN that arithmetic produces
/// unspecified, and vectorised code may swap the operands of `+` and `*`.
fn assert_same(got: &Array, want: &Array, what: &str) {
    match (got, want) {
        (Array::Float64(g), Array::Float64(w)) => {
            let bit = |x: &f64| if x.is_nan() { f64::NAN } else { *x }.to_bits();
            let bits = |v: &[f64]| v.iter().map(bit).collect::<Vec<_>>();
            assert_eq!(bits(&g.values), bits(&w.values), "{what}: values");
            assert_eq!(g.validity, w.validity, "{what}: validity");
        }
        _ => assert_eq!(got, want, "{what}"),
    }
}

/// A mask from per-row slots, in the canonical form: value bit cleared
/// under NULL, validity only when some row is NULL.
fn canonical(slots: &[Option<bool>]) -> BooleanArray {
    let validity: Bitmap = slots.iter().map(Option::is_some).collect();
    BooleanArray {
        values: slots.iter().map(|s| *s == Some(true)).collect(),
        validity: (!validity.all_set()).then_some(validity),
    }
}

fn slots(m: &BooleanArray) -> Vec<Option<bool>> {
    let valid = |i| m.validity.as_ref().is_none_or(|v| v.get(i));
    (0..m.values.len())
        .map(|i| valid(i).then(|| m.values.get(i)))
        .collect()
}

/// Same-type Int64, Float64 and Date32 compares, and a string column
/// against a string literal, keep the bit of the value under a NULL and the
/// input validity; every other pair is canonical.
fn keeps_raw_bits(a: DataType, b: DataType, literal: bool) -> bool {
    a == b && (a.is_numeric() || (literal && a == DataType::Utf8))
}

/// Row-at-a-time `a op s`, or `s op a` when `scalar_left`.
fn ref_compare_scalar(a: &Array, s: &Scalar, op: CmpOp, scalar_left: bool) -> Option<BooleanArray> {
    let n = a.len();
    if s.is_null() {
        return Some(BooleanArray {
            values: Bitmap::with_value(n, false),
            validity: Some(Bitmap::with_value(n, false)),
        });
    }
    let bit = |i| {
        let (l, r) = (raw(a, i), s.clone());
        let ord = if scalar_left {
            r.total_cmp(&l)
        } else {
            l.total_cmp(&r)
        };
        op_holds(op, ord)
    };
    if keeps_raw_bits(a.data_type(), s.data_type().unwrap(), true) {
        return Some(BooleanArray {
            values: (0..n).map(bit).collect(),
            validity: a.validity().cloned(),
        });
    }
    let slots: Vec<Option<bool>> = (0..n).map(|i| a.is_valid(i).then(|| bit(i))).collect();
    let compared = slots.iter().any(Option::is_some);
    (a.data_type().comparable_with(s.data_type().unwrap()) || !compared).then(|| canonical(&slots))
}

/// Row-at-a-time `a op b`.
fn ref_compare(a: &Array, b: &Array, op: CmpOp) -> Option<BooleanArray> {
    let n = a.len();
    let bit = |i| op_holds(op, raw(a, i).total_cmp(&raw(b, i)));
    let both = |i| a.is_valid(i) && b.is_valid(i);
    if keeps_raw_bits(a.data_type(), b.data_type(), false) {
        let validity = match (a.validity(), b.validity()) {
            (None, None) => None,
            _ => Some((0..n).map(both).collect()),
        };
        return Some(BooleanArray {
            values: (0..n).map(bit).collect(),
            validity,
        });
    }
    let slots: Vec<Option<bool>> = (0..n).map(|i| both(i).then(|| bit(i))).collect();
    let compared = slots.iter().any(Option::is_some);
    (a.data_type().comparable_with(b.data_type()) || !compared).then(|| canonical(&slots))
}

fn op_holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::NotEq => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::LtEq => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::GtEq => ord != Less,
    }
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Row-at-a-time `l ⊕ r`: the value (also under a NULL) and whether the
/// row faulted on an integer division by zero.
fn ref_arith_row(l: &Scalar, r: &Scalar, op: ArithOp) -> (Scalar, bool) {
    match (l, r) {
        (Scalar::Int64(p), Scalar::Int64(q)) => {
            let v = match op {
                ArithOp::Add => Some(p.wrapping_add(*q)),
                ArithOp::Sub => Some(p.wrapping_sub(*q)),
                ArithOp::Mul => Some(p.wrapping_mul(*q)),
                ArithOp::Div => (*q != 0).then(|| p.wrapping_div(*q)),
                ArithOp::Mod => (*q != 0).then(|| p.wrapping_rem(*q)),
            };
            (Scalar::Int64(v.unwrap_or(0)), v.is_none())
        }
        (Scalar::Date32(d), Scalar::Int64(n)) => {
            let v = match op {
                ArithOp::Add => d.wrapping_add(*n as i32),
                _ => d.wrapping_sub(*n as i32),
            };
            (Scalar::Date32(v), false)
        }
        _ => {
            let (p, q) = (l.as_f64().unwrap(), r.as_f64().unwrap());
            let v = match op {
                ArithOp::Add => p + q,
                ArithOp::Sub => p - q,
                ArithOp::Mul => p * q,
                ArithOp::Div => p / q,
                ArithOp::Mod => p % q,
            };
            (Scalar::Float64(v), false)
        }
    }
}

/// An operand of the reference: an array or a literal.
enum Side<'a> {
    Array(&'a Array),
    Scalar(&'a Scalar),
}

impl Side<'_> {
    fn data_type(&self) -> DataType {
        match self {
            Side::Array(a) => a.data_type(),
            Side::Scalar(s) => s.data_type().unwrap_or(DataType::Int64),
        }
    }

    fn raw(&self, i: usize) -> Scalar {
        match self {
            Side::Array(a) => raw(a, i),
            Side::Scalar(s) => (*s).clone(),
        }
    }

    fn is_valid(&self, i: usize) -> bool {
        match self {
            Side::Array(a) => a.is_valid(i),
            Side::Scalar(s) => !s.is_null(),
        }
    }

    fn has_validity(&self) -> bool {
        matches!(self, Side::Array(a) if a.validity().is_some())
    }
}

/// Row-at-a-time `l ⊕ r` over `n` rows; `None` when the types admit no
/// arithmetic.
fn ref_arith(l: &Side, r: &Side, op: ArithOp, n: usize) -> Option<Array> {
    let (lt, rt) = (l.data_type(), r.data_type());
    if matches!(l, Side::Scalar(Scalar::Null)) || matches!(r, Side::Scalar(Scalar::Null)) {
        let own = if matches!(l, Side::Array(_)) { lt } else { rt };
        let dt = op.result_type(lt, rt).unwrap_or(own);
        return Some(Array::from_scalar(&Scalar::Null, dt, n).unwrap());
    }
    let dt = op.result_type(lt, rt).ok()?;
    let rows: Vec<(Scalar, bool)> = (0..n)
        .map(|i| ref_arith_row(&l.raw(i), &r.raw(i), op))
        .collect();
    let any_fault = rows.iter().any(|(_, fault)| *fault);
    let validity = (l.has_validity() || r.has_validity() || any_fault).then(|| {
        (0..n)
            .map(|i| l.is_valid(i) && r.is_valid(i) && !rows[i].1)
            .collect()
    });
    let values = rows.into_iter().map(|(v, _)| v);
    Some(match dt {
        DataType::Int64 => Array::Int64(Int64Array {
            values: values.map(|v| v.as_i64().unwrap()).collect(),
            validity,
        }),
        DataType::Float64 => Array::Float64(Float64Array {
            values: values.map(|v| v.as_f64().unwrap()).collect(),
            validity,
        }),
        _ => Array::Date32(Date32Array {
            values: values
                .map(|v| match v {
                    Scalar::Date32(d) => d,
                    other => panic!("not a date: {other:?}"),
                })
                .collect(),
            validity,
        }),
    })
}

const TYPES: [DataType; 5] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Date32,
    DataType::Boolean,
    DataType::Utf8,
];

#[test]
fn compare_scalar_matches_row_at_a_time() {
    let mut g = Gen(1);
    for len in g.lengths() {
        for dt in TYPES {
            let a = g.array(dt, len);
            let mut literals: Vec<Scalar> = TYPES.iter().map(|&t| g.scalar(t)).collect();
            literals.push(Scalar::Null);
            for s in &literals {
                for op in OPS {
                    let what = format!("{dt} {op:?} {s} len {len}");
                    let got = cmp::compare_scalar(&a, s, op).ok();
                    let want = ref_compare_scalar(&a, s, op, false);
                    assert_eq!(got, want, "{what}");
                    // A literal on the left flips the operator.
                    let got = cmp::compare_scalar(&a, s, op.flip()).ok();
                    let want = ref_compare_scalar(&a, s, op, true);
                    assert_eq!(got, want, "{what}, literal on the left");
                }
            }
        }
    }
}

#[test]
fn compare_matches_row_at_a_time() {
    let mut g = Gen(2);
    for len in g.lengths() {
        for lt in TYPES {
            for rt in TYPES {
                let (a, b) = (g.array(lt, len), g.array(rt, len));
                for op in OPS {
                    let got = cmp::compare(&a, &b, op).ok();
                    assert_eq!(got, ref_compare(&a, &b, op), "{lt} {op:?} {rt} len {len}");
                }
            }
        }
    }
}

#[test]
fn between_matches_two_compares_and_kleene_and() {
    let mut g = Gen(3);
    for len in g.lengths() {
        for dt in TYPES {
            let a = g.array(dt, len);
            let mut bounds: Vec<Scalar> = (0..3).map(|_| g.scalar(dt)).collect();
            bounds.push(Scalar::Null);
            if dt.is_numeric() {
                bounds.push(g.scalar(DataType::Float64));
                bounds.push(g.scalar(DataType::Int64));
            }
            for lo in &bounds {
                for hi in &bounds {
                    let got = cmp::between_scalar(&a, lo, hi).ok();
                    let want = ref_compare_scalar(&a, lo, CmpOp::GtEq, false).and_then(|ge| {
                        let le = ref_compare_scalar(&a, hi, CmpOp::LtEq, false)?;
                        let rows = slots(&ge).into_iter().zip(slots(&le));
                        Some(canonical(
                            &rows.map(|(x, y)| kleene_and(x, y)).collect::<Vec<_>>(),
                        ))
                    });
                    assert_eq!(got, want, "{dt} BETWEEN {lo} AND {hi} len {len}");
                }
            }
        }
    }
}

#[test]
fn and_or_match_the_kleene_truth_table() {
    let mut g = Gen(4);
    for len in g.lengths() {
        for _ in 0..8 {
            let (a, b) = (
                g.array(DataType::Boolean, len),
                g.array(DataType::Boolean, len),
            );
            let (a, b) = (a.as_bool().unwrap(), b.as_bool().unwrap());
            let rows = || slots(a).into_iter().zip(slots(b));
            let and: Vec<_> = rows().map(|(x, y)| kleene_and(x, y)).collect();
            let or: Vec<_> = rows().map(|(x, y)| kleene_or(x, y)).collect();
            assert_eq!(
                boolean::and(a, b).unwrap(),
                canonical(&and),
                "AND len {len}"
            );
            assert_eq!(boolean::or(a, b).unwrap(), canonical(&or), "OR len {len}");
        }
    }
}

#[test]
fn arith_matches_row_at_a_time() {
    let numeric = [DataType::Int64, DataType::Float64, DataType::Date32];
    let mut g = Gen(5);
    for len in g.lengths() {
        for lt in numeric {
            for rt in numeric {
                let (a, b) = (g.array(lt, len), g.array(rt, len));
                let (s, t) = (g.scalar(lt), g.scalar(rt));
                for op in ARITH {
                    let what = format!("{lt} {} {rt} len {len}", op.sql());
                    let cases = [
                        (arith::arith(&a, &b, op), Side::Array(&a), Side::Array(&b)),
                        (
                            arith::arith_scalar(&a, &t, op),
                            Side::Array(&a),
                            Side::Scalar(&t),
                        ),
                        (
                            arith::scalar_arith(&s, &b, op),
                            Side::Scalar(&s),
                            Side::Array(&b),
                        ),
                        (
                            arith::arith_scalar(&a, &Scalar::Null, op),
                            Side::Array(&a),
                            Side::Scalar(&Scalar::Null),
                        ),
                        (
                            arith::scalar_arith(&Scalar::Null, &b, op),
                            Side::Scalar(&Scalar::Null),
                            Side::Array(&b),
                        ),
                    ];
                    for (case, (got, l, r)) in cases.into_iter().enumerate() {
                        let want = ref_arith(&l, &r, op, len);
                        match (got, want) {
                            (Ok(got), Some(want)) => {
                                assert_same(&got, &want, &format!("{what}, case {case}"))
                            }
                            (Err(_), None) => {}
                            (got, want) => panic!("{what}, case {case}: {got:?} vs {want:?}"),
                        }
                    }
                }
            }
        }
    }
}

/// The rows of `a` at `kept`, built one row at a time; the value under a
/// NULL slot moves too, and a dictionary comes out expanded.
fn ref_gather(a: &Array, kept: &[usize]) -> Array {
    let validity = a
        .validity()
        .map(|v| kept.iter().map(|&i| v.get(i)).collect());
    match a {
        Array::Int64(x) => Array::Int64(Int64Array {
            values: kept.iter().map(|&i| x.values[i]).collect(),
            validity,
        }),
        Array::Float64(x) => Array::Float64(Float64Array {
            values: kept.iter().map(|&i| x.values[i]).collect(),
            validity,
        }),
        Array::Date32(x) => Array::Date32(Date32Array {
            values: kept.iter().map(|&i| x.values[i]).collect(),
            validity,
        }),
        Array::Boolean(x) => Array::Boolean(BooleanArray {
            values: kept.iter().map(|&i| x.values.get(i)).collect(),
            validity,
        }),
        Array::Utf8(x) => Array::Utf8(Utf8Array {
            validity,
            ..Utf8Array::from_strs(kept.iter().map(|&i| x.value(i)))
        }),
        Array::Dict(x) => Array::Utf8(Utf8Array {
            validity,
            ..Utf8Array::from_strs(kept.iter().map(|&i| match x.is_valid(i) {
                true => x.entries().value(x.codes()[i] as usize),
                false => "",
            }))
        }),
    }
}

/// `got` holds the rows of `a` at `kept`, in order: row by row as
/// `scalar_at` reads them (Float64 by its bits), whole against the
/// row-at-a-time reference, with its validity and `byte_size`. A
/// dictionary stays one, over the same entries.
fn assert_selected(got: &Array, a: &Array, kept: &[usize], what: &str) {
    assert_eq!(got.len(), kept.len(), "{what}: rows");
    for (k, &i) in kept.iter().enumerate() {
        match (got.scalar_at(k), a.scalar_at(i)) {
            (Scalar::Float64(g), Scalar::Float64(w)) => {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}: row {k}")
            }
            (g, w) => assert_eq!(g, w, "{what}: row {k}"),
        }
    }
    let want = ref_gather(a, kept);
    match (got, &want) {
        (Array::Float64(g), Array::Float64(w)) => {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&g.values), bits(&w.values), "{what}: values");
        }
        _ => assert_eq!(got, &want, "{what}"),
    }
    assert_eq!(got.validity(), want.validity(), "{what}: validity");
    assert_eq!(got.byte_size(), want.byte_size(), "{what}: byte_size");
    if let Array::Dict(d) = a {
        let g = got
            .as_dict()
            .unwrap_or_else(|| panic!("{what}: not a dictionary"));
        assert!(std::ptr::eq(g.entries(), d.entries()), "{what}: entries");
    }
}

#[test]
fn selection_keeps_the_set_rows_in_order() {
    let mut g = Gen(6);
    let mut lengths = vec![0, 1, 63, 64, 65];
    lengths.extend((0..3).map(|_| 2000 + g.below(3000)));
    for len in lengths {
        // Every type, the dictionary as `None`, each drawn until one column
        // without a bitmap and one with a NULL are in.
        let mut columns = Vec::new();
        for kind in TYPES.map(Some).into_iter().chain([None]) {
            let (mut plain, mut nulls) = (false, len == 0);
            while !(plain && nulls) {
                let c = match kind {
                    Some(dt) => g.array(dt, len),
                    None => g.dict(len),
                };
                plain |= c.validity().is_none();
                nulls |= c.null_count() > 0;
                columns.push(c);
            }
        }
        let fields = (columns.iter().enumerate())
            .map(|(i, c)| Field::new(format!("c{i}"), c.data_type(), true))
            .collect();
        let arcs = columns.iter().cloned().map(Arc::new).collect();
        let batch = RecordBatch::try_new(Arc::new(Schema::new(fields)), arcs).unwrap();
        let mut masks: Vec<Bitmap> = (0..6).map(|_| g.mask(len)).collect();
        masks.push(Bitmap::with_value(len, false));
        masks.push(Bitmap::with_value(len, true));
        for (m, mask) in masks.into_iter().enumerate() {
            let kept: Vec<usize> = (0..len).filter(|&i| mask.get(i)).collect();
            let sel = Selection::from_bitmap(mask);
            let what =
                |c: usize| format!("{} column {c}, len {len}, mask {m}", columns[c].data_type());
            for (c, a) in columns.iter().enumerate() {
                assert_selected(&sel.apply(a).unwrap(), a, &kept, &what(c));
            }
            let out = sel.apply_batch(&batch).unwrap();
            for (c, a) in columns.iter().enumerate() {
                assert_selected(&out.columns()[c], a, &kept, &format!("{}, batch", what(c)));
            }
        }
    }
}
