//! Property tests for the Substrait boundary: random *valid* plans
//! roundtrip through the wire format and pass the planck verifier;
//! arbitrary and mutated bytes never panic the decoder; and targeted
//! invalid plans are rejected with their documented diagnostic codes.
//!
//! The workspace proptest substitute has no `prop_flat_map`, so plans are
//! generated from a `u64` seed through a deterministic splitmix/xorshift
//! generator — every case is reproducible from the printed seed.

use columnar::agg::AggFunc;
use columnar::kernels::cmp::CmpOp;
use columnar::{DataType, Field, Scalar, Schema};
use proptest::prelude::*;
use substrait_ir::planck::{self, DiagCode};
use substrait_ir::{decode, encode, Expr, Measure, Plan, Rel, SortField};

/// Deterministic xorshift64* over the case seed.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        // xorshift has a fixed point at 0; splitmix the seed first.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Gen((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }
}

const TYPES: [DataType; 5] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Boolean,
    DataType::Utf8,
    DataType::Date32,
];

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];

fn literal_of(t: DataType, g: &mut Gen) -> Expr {
    Expr::lit(match t {
        DataType::Int64 => Scalar::Int64(g.below(1000) as i64 - 500),
        DataType::Float64 => Scalar::Float64(g.below(1000) as f64 / 8.0),
        DataType::Boolean => Scalar::Boolean(g.chance(50)),
        DataType::Utf8 => Scalar::Utf8(format!("s{}", g.below(16))),
        DataType::Date32 => Scalar::Date32(g.below(20_000) as i32),
    })
}

/// A type-correct boolean predicate over `schema`.
fn predicate_for(schema: &Schema, g: &mut Gen) -> Expr {
    let i = g.below(schema.len());
    let t = schema.field(i).data_type;
    let base = match t {
        DataType::Boolean => Expr::field(i),
        _ => Expr::cmp(
            CMP_OPS[g.below(CMP_OPS.len())],
            Expr::field(i),
            literal_of(t, g),
        ),
    };
    match g.below(4) {
        0 => Expr::Not(Box::new(base)),
        1 => {
            let j = g.below(schema.len());
            let tj = schema.field(j).data_type;
            let other = match tj {
                DataType::Boolean => Expr::field(j),
                _ => Expr::cmp(CmpOp::LtEq, Expr::field(j), literal_of(tj, g)),
            };
            Expr::And(Box::new(base), Box::new(other))
        }
        2 => Expr::IsNotNull(Box::new(base)),
        _ => base,
    }
}

/// Build a random planck-valid plan from one seed. Returns the plan; the
/// roundtrip property asserts `planck::verify` accepts it, so a generator
/// bug fails loudly with the offending seed.
fn gen_valid_plan(seed: u64) -> Plan {
    let mut g = Gen::new(seed);
    let width = 1 + g.below(5);
    let schema = Schema::new(
        (0..width)
            .map(|i| Field::new(format!("f{i}"), TYPES[g.below(TYPES.len())], false))
            .collect(),
    );

    // Read, sometimes through a projection.
    let projection: Option<Vec<usize>> = if g.chance(40) {
        let cols: Vec<usize> = (0..width).filter(|_| g.chance(60)).collect();
        if cols.is_empty() {
            None
        } else {
            Some(cols)
        }
    } else {
        None
    };
    let mut current: Schema = match &projection {
        Some(cols) => Schema::new(cols.iter().map(|&c| schema.field(c).clone()).collect()),
        None => schema.clone(),
    };
    let mut rel = Rel::read("t", schema, projection);

    if g.chance(60) {
        let predicate = predicate_for(&current, &mut g);
        rel = Rel::Filter {
            input: Box::new(rel),
            predicate,
        };
    }

    let aggregated = g.chance(40);
    if aggregated {
        let key = g.below(current.len());
        let group_by = vec![(Expr::field(key), "k".to_string())];
        let numeric: Vec<usize> = (0..current.len())
            .filter(|&i| {
                matches!(
                    current.field(i).data_type,
                    DataType::Int64 | DataType::Float64
                )
            })
            .collect();
        let mut measures = vec![Measure {
            func: AggFunc::Count,
            arg: None,
            name: "n".to_string(),
        }];
        if let Some(&arg) = numeric.first() {
            measures.push(Measure {
                func: if g.chance(50) {
                    AggFunc::Sum
                } else {
                    AggFunc::Avg
                },
                arg: Some(Expr::field(arg)),
                name: "m".to_string(),
            });
        } else {
            let any = g.below(current.len());
            measures.push(Measure {
                func: if g.chance(50) {
                    AggFunc::Min
                } else {
                    AggFunc::Max
                },
                arg: Some(Expr::field(any)),
                name: "m".to_string(),
            });
        }
        let mut fields = vec![Field::new("k", current.field(key).data_type, true)];
        fields.push(Field::new("n", DataType::Int64, true));
        fields.push(Field::new(
            "m",
            match &measures[1] {
                Measure {
                    func: AggFunc::Avg, ..
                } => DataType::Float64,
                Measure {
                    arg: Some(Expr::FieldRef(i)),
                    ..
                } => current.field(*i).data_type,
                _ => DataType::Int64,
            },
            true,
        ));
        current = Schema::new(fields);
        rel = Rel::Aggregate {
            input: Box::new(rel),
            group_by,
            measures,
        };
    }

    // Optional ordering/limit tail: root Sort, Fetch(Sort), or bare Fetch.
    match g.below(4) {
        0 => {
            let keys = vec![SortField {
                expr: Expr::field(g.below(current.len())),
                ascending: g.chance(50),
                nulls_first: g.chance(50),
            }];
            rel = Rel::Sort {
                input: Box::new(rel),
                keys,
            };
            if g.chance(70) {
                rel = Rel::Fetch {
                    input: Box::new(rel),
                    offset: 0,
                    limit: 1 + g.below(100) as u64,
                };
            }
        }
        1 => {
            rel = Rel::Fetch {
                input: Box::new(rel),
                offset: g.below(4) as u64,
                limit: 1 + g.below(100) as u64,
            };
        }
        _ => {}
    }

    Plan::new(rel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid plans verify, survive the wire byte-identically, and verify
    /// again after decoding (encode loses nothing planck needs).
    #[test]
    fn roundtrip_preserves_verified_plans(seed in any::<u64>()) {
        let plan = gen_valid_plan(seed);
        let schema = match planck::verify_untrusted(&plan) {
            Ok(s) => s,
            Err(ds) => panic!("generator produced an invalid plan (seed {seed}): {}", planck::primary(ds)),
        };
        let bytes = encode(&plan);
        let back = decode(&bytes).expect("roundtrip decode");
        prop_assert_eq!(&back, &plan);
        let schema2 = planck::verify_untrusted(&back).expect("decoded plan verifies");
        prop_assert_eq!(schema2, schema);
    }

    /// The decoder never panics on arbitrary bytes — it returns a
    /// structured error or (vanishingly unlikely) a plan.
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode(&bytes);
    }

    /// Nor on *near-valid* bytes: a valid encoding with one byte
    /// corrupted, which exercises deep decoder paths garbage never reaches.
    #[test]
    fn decode_never_panics_on_mutated_encodings(seed in any::<u64>()) {
        let plan = gen_valid_plan(seed);
        let mut bytes = encode(&plan);
        let mut g = Gen::new(seed ^ 0xDEAD_BEEF);
        let pos = g.below(bytes.len());
        bytes[pos] ^= 1 << g.below(8);
        if let Ok(back) = decode(&bytes) {
            // A decodable mutant must still be *rejectable*, not a panic.
            let _ = planck::verify_untrusted(&back);
        }
    }

    /// Generated-invalid plans are rejected with the documented codes.
    #[test]
    fn out_of_range_field_is_rejected_with_p200(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let width = 1 + g.below(4);
        let schema = Schema::new(
            (0..width).map(|i| Field::new(format!("f{i}"), DataType::Int64, false)).collect(),
        );
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", schema, None)),
            predicate: Expr::cmp(
                CmpOp::Eq,
                Expr::field(width + g.below(10)),
                Expr::lit(Scalar::Int64(0)),
            ),
        });
        let ds = planck::verify_untrusted(&plan).expect_err("field past arity");
        prop_assert!(ds.iter().any(|d| d.code == DiagCode::FieldOutOfRange), "{ds:?}");
    }

    #[test]
    fn type_mismatched_cmp_is_rejected_with_p201(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let schema = Schema::new(vec![Field::new("a", DataType::Int64, false)]);
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", schema, None)),
            predicate: Expr::cmp(
                CMP_OPS[g.below(CMP_OPS.len())],
                Expr::field(0),
                Expr::lit(Scalar::Utf8("not a number".into())),
            ),
        });
        let ds = planck::verify_untrusted(&plan).expect_err("int64 vs utf8");
        prop_assert!(ds.iter().any(|d| d.code == DiagCode::CmpTypeMismatch), "{ds:?}");
    }

    #[test]
    fn sort_not_under_fetch_is_rejected_with_p307(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let schema = Schema::new(vec![Field::new("a", DataType::Int64, false)]);
        // Sort consumed by a Filter (not Fetch, not root) is illegal.
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::Sort {
                input: Box::new(Rel::read("t", schema, None)),
                keys: vec![SortField {
                    expr: Expr::field(0),
                    ascending: g.chance(50),
                    nulls_first: g.chance(50),
                }],
            }),
            predicate: Expr::cmp(CmpOp::Gt, Expr::field(0), Expr::lit(Scalar::Int64(0))),
        });
        let ds = planck::verify_untrusted(&plan).expect_err("buried sort");
        prop_assert!(ds.iter().any(|d| d.code == DiagCode::SortNotUnderFetch), "{ds:?}");
    }
}
