//! Differential property test for the one-walker contract: a random engine
//! expression and its Substrait translation evaluate to the same array,
//! carry the same cost weight and read the same columns — on either side
//! of the pushdown boundary an operator computes, and is billed, the same.
//!
//! Both IRs delegate to `columnar::expr`, so this pins the two `node()`
//! mappings and `translate_expr` against each other over all twelve node
//! kinds, NULLs, mixed int/float operands, literals on either side of a
//! comparison and integer division by zero.

use std::sync::Arc;

use columnar::kernels::arith::ArithOp;
use columnar::kernels::cmp::CmpOp;
use columnar::prelude::*;
use dsq::expr::ScalarExpr;
use ocs_connector::translate::translate_expr;
use proptest::prelude::*;
use rand::{Rng, RngCore};

/// SplitMix64: the tree and batch generators draw from one seeded stream.
struct SplitMix(u64);

impl RngCore for SplitMix {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const COLUMNS: [(&str, DataType); 4] = [
    ("i", DataType::Int64),
    ("f", DataType::Float64),
    ("s", DataType::Utf8),
    ("b", DataType::Boolean),
];
const WORDS: [&str; 4] = ["", "ab", "abc", "zz"];

/// `rows` rows over [`COLUMNS`], roughly one value in five NULL.
fn random_batch(rng: &mut SplitMix, rows: usize) -> RecordBatch {
    let fields = COLUMNS
        .iter()
        .map(|(n, t)| Field::new(*n, *t, true))
        .collect::<Vec<_>>();
    let columns = COLUMNS
        .iter()
        .map(|(_, dt)| {
            let mut b = ArrayBuilder::new(*dt);
            for _ in 0..rows {
                let v = if rng.gen_bool(0.2) {
                    Scalar::Null
                } else {
                    match dt {
                        DataType::Int64 => Scalar::Int64(rng.gen_range(-5i64..6)),
                        DataType::Float64 => Scalar::Float64(rng.gen_range(-8i64..9) as f64 / 2.0),
                        DataType::Utf8 => Scalar::Utf8(WORDS[rng.gen_range(0usize..4)].into()),
                        _ => Scalar::Boolean(rng.gen_bool(0.5)),
                    }
                };
                b.push(v).unwrap();
            }
            Arc::new(b.finish())
        })
        .collect();
    RecordBatch::try_new(Arc::new(Schema::new(fields)), columns).unwrap()
}

/// The kind of value a generated subtree produces.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Float,
    Str,
    Bool,
}

fn column(k: Kind) -> ScalarExpr {
    let index = match k {
        Kind::Int => 0,
        Kind::Float => 1,
        Kind::Str => 2,
        Kind::Bool => 3,
    };
    ScalarExpr::col(index, COLUMNS[index].0, COLUMNS[index].1)
}

fn literal(rng: &mut SplitMix, k: Kind) -> ScalarExpr {
    ScalarExpr::lit(if rng.gen_bool(0.1) {
        Scalar::Null
    } else {
        match k {
            // 0 included: `x / 0` and `x % 0` are NULL, not a fault.
            Kind::Int => Scalar::Int64(rng.gen_range(-3i64..4)),
            Kind::Float => Scalar::Float64(rng.gen_range(-6i64..7) as f64 / 2.0),
            Kind::Str => Scalar::Utf8(WORDS[rng.gen_range(0usize..4)].into()),
            Kind::Bool => Scalar::Boolean(rng.gen_bool(0.5)),
        }
    })
}

/// Int or Float: comparisons, arithmetic and BETWEEN mix the two freely.
fn numeric(rng: &mut SplitMix) -> Kind {
    if rng.gen_bool(0.5) {
        Kind::Int
    } else {
        Kind::Float
    }
}

fn any_kind(rng: &mut SplitMix) -> Kind {
    [Kind::Int, Kind::Float, Kind::Str, Kind::Bool][rng.gen_range(0usize..4)]
}

fn sub(rng: &mut SplitMix, k: Kind, depth: u32) -> Arc<ScalarExpr> {
    Arc::new(random_expr(rng, k, depth))
}

fn sub_numeric(rng: &mut SplitMix, depth: u32) -> Arc<ScalarExpr> {
    let k = numeric(rng);
    sub(rng, k, depth)
}

fn random_expr(rng: &mut SplitMix, k: Kind, depth: u32) -> ScalarExpr {
    if depth == 0 || rng.gen_bool(0.15) {
        return if rng.gen_bool(0.5) {
            column(k)
        } else {
            literal(rng, k)
        };
    }
    let d = depth - 1;
    match k {
        Kind::Int | Kind::Float => match rng.gen_range(0u32..4) {
            0 => ScalarExpr::Negate(sub(rng, k, d)),
            1 => ScalarExpr::Cast {
                expr: sub_numeric(rng, d),
                to: if k == Kind::Int {
                    DataType::Int64
                } else {
                    DataType::Float64
                },
            },
            _ => {
                let op = [
                    ArithOp::Add,
                    ArithOp::Sub,
                    ArithOp::Mul,
                    ArithOp::Div,
                    ArithOp::Mod,
                ][rng.gen_range(0usize..5)];
                // Int ⊕ Int stays Int; a Float tree has a Float operand.
                let other = if k == Kind::Int {
                    Kind::Int
                } else {
                    numeric(rng)
                };
                let (l, r) = if rng.gen_bool(0.5) {
                    (k, other)
                } else {
                    (other, k)
                };
                ScalarExpr::Arith {
                    op,
                    left: sub(rng, l, d),
                    right: sub(rng, r, d),
                }
            }
        },
        Kind::Str => ScalarExpr::Cast {
            expr: sub_numeric(rng, d),
            to: DataType::Utf8,
        },
        Kind::Bool => match rng.gen_range(0u32..10) {
            0 => ScalarExpr::And(sub(rng, Kind::Bool, d), sub(rng, Kind::Bool, d)),
            1 => ScalarExpr::Or(sub(rng, Kind::Bool, d), sub(rng, Kind::Bool, d)),
            2 => ScalarExpr::Not(sub(rng, Kind::Bool, d)),
            3 => ScalarExpr::Between {
                expr: sub_numeric(rng, d),
                lo: sub_numeric(rng, d),
                hi: sub_numeric(rng, d),
            },
            4 | 5 => {
                let inner = any_kind(rng);
                let inner = sub(rng, inner, d);
                if rng.gen_bool(0.5) {
                    ScalarExpr::IsNull(inner)
                } else {
                    ScalarExpr::IsNotNull(inner)
                }
            }
            _ => {
                let op = [
                    CmpOp::Eq,
                    CmpOp::NotEq,
                    CmpOp::Lt,
                    CmpOp::LtEq,
                    CmpOp::Gt,
                    CmpOp::GtEq,
                ][rng.gen_range(0usize..6)];
                let (l, r) = if rng.gen_bool(0.2) {
                    (Kind::Str, Kind::Str)
                } else {
                    (numeric(rng), numeric(rng))
                };
                // One time in four each: a bare literal on the left / right.
                let (left, right) = match rng.gen_range(0u32..4) {
                    0 => (Arc::new(literal(rng, l)), sub(rng, r, d)),
                    1 => (sub(rng, l, d), Arc::new(literal(rng, r))),
                    _ => (sub(rng, l, d), sub(rng, r, d)),
                };
                ScalarExpr::Cmp { op, left, right }
            }
        },
    }
}

proptest! {
    #[test]
    fn engine_and_substrait_expressions_agree(
        seed in any::<u64>(),
        rows in 0usize..48,
        depth in 2u32..5,
    ) {
        let mut rng = SplitMix(seed);
        let batch = random_batch(&mut rng, rows);
        // Predicates are what gets pushed down most; the other kinds are
        // projections and aggregate arguments.
        let kind = if rng.gen_bool(0.6) {
            Kind::Bool
        } else {
            any_kind(&mut rng)
        };
        let engine = random_expr(&mut rng, kind, depth);
        let (substrait, _nodes) = translate_expr(&engine);

        prop_assert_eq!(engine.weight(), substrait.op_weight(), "weight of {}", engine);
        let (mut cols, mut fields) = (Vec::new(), Vec::new());
        engine.referenced_columns(&mut cols);
        substrait.referenced_fields(&mut fields);
        prop_assert_eq!(cols, fields, "references of {}", engine);

        // `Debug` text rather than `==`: NaN results must compare equal,
        // and validity bitmaps are part of the contract.
        match (engine.eval(&batch), substrait.eval(&batch)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.len(), rows);
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "values of {}", engine);
            }
            (Err(dsq::EngineError::Columnar(a)), Err(b)) => {
                prop_assert_eq!(a, b, "errors of {}", engine);
            }
            (a, b) => prop_assert!(false, "{engine}: engine {a:?} vs substrait {b:?}"),
        }
    }
}
