//! Differential property test for every aggregate the typer admits: each
//! `(AggFunc, argument type)` pair that `AggFunc::result_type` accepts,
//! `COUNT(*)` and dictionary-coded strings beside plain ones included,
//! runs through `GroupedAggregator` and must equal a row-at-a-time
//! reference, `f64` results bit for bit.
//!
//! The generated chunks carry nulls in every column, a group whose floats
//! are all `-0.0` (or NULL), a group whose measures are all NULL, NaNs of
//! both signs, ±inf, and `i64` values at the ends of the range so sums
//! wrap. The whole pass updates one aggregator chunk by chunk, in the
//! reference's row order. The merged pass aggregates each chunk (empty
//! chunks included) into its own partial and merges the partials in order
//! into a fresh aggregator; its reference folds per-chunk states the same
//! way, so even float sums compare exactly.

use std::collections::HashMap;
use std::sync::Arc;

use columnar::agg::AggFunc;
use columnar::array::{BooleanArray, Date32Array, Float64Array, Int64Array};
use columnar::groupby::GroupedAggregator;
use columnar::prelude::*;
use columnar::{DictArray, Utf8Array};
use proptest::prelude::*;

/// String values, chosen so byte order differs from code order, one is a
/// prefix of another, and one is multi-byte.
const ALPHABET: [&str; 7] = ["", "a", "ab", "b", "é", "R", "zz"];

/// The `f64` values drawn: signed zeros, NaNs of both signs and payloads,
/// infinities, and ordinary values.
const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7ff8_0000_0000_beef),
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
    -2.25,
    1e300,
    0.1,
    -7.0,
];

/// The key whose floats are only `-0.0` or NULL.
const NEG_ZERO_KEY: i64 = 3;
/// The key whose measures are all NULL.
const ALL_NULL_KEY: i64 = -3;

/// One input column of the fixture; `SDict` holds the same strings as
/// `S`, dictionary-coded.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Col {
    V,
    F,
    B,
    D,
    S,
    SDict,
}

const COLS: [Col; 6] = [Col::V, Col::F, Col::B, Col::D, Col::S, Col::SDict];

impl Col {
    fn data_type(self) -> DataType {
        match self {
            Col::V => DataType::Int64,
            Col::F => DataType::Float64,
            Col::B => DataType::Boolean,
            Col::D => DataType::Date32,
            Col::S | Col::SDict => DataType::Utf8,
        }
    }
}

/// Every `(function, argument column)` pair the measure rule admits.
fn calls() -> Vec<(AggFunc, Option<Col>)> {
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let args = std::iter::once(None).chain(COLS.iter().map(|&c| Some(c)));
    let args: Vec<Option<Col>> = args.collect();
    funcs
        .iter()
        .flat_map(|&f| args.iter().map(move |&a| (f, a)))
        .filter(|&(f, a)| f.result_type(a.map(Col::data_type)).is_ok())
        .collect()
}

#[derive(Debug, Clone)]
struct Row {
    key: Option<i64>,
    v: Option<i64>,
    f: Option<f64>,
    b: Option<bool>,
    d: Option<i32>,
    s: Option<usize>,
}

impl Row {
    fn value(&self, col: Col) -> Scalar {
        let v = match col {
            Col::V => self.v.map(Scalar::Int64),
            Col::F => self.f.map(Scalar::Float64),
            Col::B => self.b.map(Scalar::Boolean),
            Col::D => self.d.map(Scalar::Date32),
            Col::S | Col::SDict => self.s.map(|i| Scalar::Utf8(ALPHABET[i].to_string())),
        };
        v.unwrap_or(Scalar::Null)
    }
}

fn row() -> impl Strategy<Value = Row> {
    let ints = (0usize..10, -1000i64..1000).prop_map(|(pick, x)| match pick {
        0 => i64::MAX - (x.rem_euclid(4)),
        1 => i64::MIN + (x.rem_euclid(4)),
        _ => x,
    });
    let dates = (0usize..8, -5i32..5).prop_map(|(pick, x)| match pick {
        0 => i32::MIN + x.rem_euclid(3),
        1 => i32::MAX - x.rem_euclid(3),
        _ => x,
    });
    (
        proptest::option::weighted(0.9, -3i64..=3),
        proptest::option::weighted(0.85, ints),
        proptest::option::weighted(0.85, (0usize..FLOATS.len()).prop_map(|i| FLOATS[i])),
        (
            proptest::option::weighted(0.85, any::<bool>()),
            proptest::option::weighted(0.85, dates),
            proptest::option::weighted(0.85, 0usize..ALPHABET.len()),
        ),
    )
        .prop_map(|(key, v, f, (b, d, s))| {
            let mut r = Row { key, v, f, b, d, s };
            if key == Some(NEG_ZERO_KEY) {
                r.f = r.f.map(|_| -0.0);
            }
            if key == Some(ALL_NULL_KEY) {
                (r.v, r.f, r.b, r.d, r.s) = (None, None, None, None, None);
            }
            r
        })
}

fn validity(valid: impl Iterator<Item = bool>) -> Option<Bitmap> {
    let bits: Vec<bool> = valid.collect();
    (!bits.iter().all(|&b| b)).then(|| Bitmap::from_bools(&bits))
}

/// The chunk's columns: key, then one array per [`COLS`] entry. The
/// dictionary's entries are [`ALPHABET`] rotated by `rot`, so codes and
/// byte order disagree differently per chunk.
fn columns(rows: &[Row], rot: usize) -> Vec<Array> {
    let key = Array::Int64(Int64Array {
        values: rows.iter().map(|r| r.key.unwrap_or(0)).collect(),
        validity: validity(rows.iter().map(|r| r.key.is_some())),
    });
    let v = Array::Int64(Int64Array {
        values: rows.iter().map(|r| r.v.unwrap_or(0)).collect(),
        validity: validity(rows.iter().map(|r| r.v.is_some())),
    });
    let f = Array::Float64(Float64Array {
        values: rows.iter().map(|r| r.f.unwrap_or(0.0)).collect(),
        validity: validity(rows.iter().map(|r| r.f.is_some())),
    });
    let b = Array::Boolean(BooleanArray {
        values: Bitmap::from_bools(&rows.iter().map(|r| r.b == Some(true)).collect::<Vec<_>>()),
        validity: validity(rows.iter().map(|r| r.b.is_some())),
    });
    let d = Array::Date32(Date32Array {
        values: rows.iter().map(|r| r.d.unwrap_or(0)).collect(),
        validity: validity(rows.iter().map(|r| r.d.is_some())),
    });
    let strs: Vec<&str> = rows.iter().map(|r| ALPHABET[r.s.unwrap_or(0)]).collect();
    let mut s = Utf8Array::from_strs(strs);
    s.validity = validity(rows.iter().map(|r| r.s.is_some()));
    let n = ALPHABET.len();
    let entries = Utf8Array::from_strs((0..n).map(|i| ALPHABET[(i + rot) % n]));
    let codes = rows
        .iter()
        .map(|r| r.s.map_or(0, |i| ((i + n - rot % n) % n) as u32))
        .collect();
    let sd = DictArray::try_new(codes, Arc::new(entries), s.validity.clone()).unwrap();
    vec![key, v, f, b, d, Array::Utf8(s), Array::Dict(sd)]
}

fn aggregator(calls: &[(AggFunc, Option<Col>)]) -> GroupedAggregator {
    let aggs: Vec<_> = calls
        .iter()
        .map(|&(f, a)| (f, a.map(Col::data_type)))
        .collect();
    GroupedAggregator::new(vec![DataType::Int64], &aggs).unwrap()
}

fn update(agg: &mut GroupedAggregator, calls: &[(AggFunc, Option<Col>)], rows: &[Row], rot: usize) {
    let cols = columns(rows, rot);
    let args: Vec<Option<&Array>> = calls
        .iter()
        .map(|&(_, a)| a.map(|c| &cols[1 + COLS.iter().position(|&x| x == c).unwrap()]))
        .collect();
    agg.update(&[&cols[0]], &args, rows.len()).unwrap();
}

/// `a < b` in the order MIN and MAX use: `total_cmp` for floats,
/// `false < true`, byte order for strings.
fn less(a: &Scalar, b: &Scalar) -> bool {
    match (a, b) {
        (Scalar::Int64(x), Scalar::Int64(y)) => x < y,
        (Scalar::Float64(x), Scalar::Float64(y)) => x.total_cmp(y).is_lt(),
        (Scalar::Boolean(x), Scalar::Boolean(y)) => !x & y,
        (Scalar::Date32(x), Scalar::Date32(y)) => x < y,
        (Scalar::Utf8(x), Scalar::Utf8(y)) => x.as_bytes() < y.as_bytes(),
        _ => panic!("MIN/MAX over {a:?} and {b:?}"),
    }
}

/// The reference state of one aggregate in one group.
#[derive(Debug, Clone, Default)]
struct St {
    n: i64,
    sum_i: i64,
    sum_f: f64,
    seen: bool,
    ext: Option<Scalar>,
}

impl St {
    fn fold_extremum(&mut self, func: AggFunc, x: Scalar) {
        let better = match &self.ext {
            None => true,
            Some(cur) if func == AggFunc::Min => less(&x, cur),
            Some(cur) => less(cur, &x),
        };
        if better {
            self.ext = Some(x);
        }
    }

    fn fold(&mut self, func: AggFunc, x: Option<Scalar>) {
        match (func, x) {
            (AggFunc::Count, None) => self.n += 1,
            (_, Some(Scalar::Null)) => {}
            (AggFunc::Count, Some(_)) => self.n += 1,
            (AggFunc::Sum, Some(Scalar::Int64(x))) => {
                self.sum_i = self.sum_i.wrapping_add(x);
                self.seen = true;
            }
            (AggFunc::Sum, Some(Scalar::Float64(x))) => {
                self.sum_f += x;
                self.seen = true;
            }
            (AggFunc::Avg, Some(x)) => {
                self.sum_f += x.as_f64().unwrap();
                self.n += 1;
            }
            (AggFunc::Min | AggFunc::Max, Some(x)) => self.fold_extremum(func, x),
            (f, x) => panic!("no reference for {f:?} over {x:?}"),
        }
    }

    fn merge(&mut self, func: AggFunc, other: &St) {
        match func {
            AggFunc::Count => self.n += other.n,
            AggFunc::Sum => {
                self.sum_i = self.sum_i.wrapping_add(other.sum_i);
                if other.seen {
                    self.sum_f += other.sum_f;
                    self.seen = true;
                }
            }
            AggFunc::Min | AggFunc::Max => {
                if let Some(x) = &other.ext {
                    self.fold_extremum(func, x.clone());
                }
            }
            AggFunc::Avg => {
                if other.n > 0 {
                    self.sum_f += other.sum_f;
                    self.n += other.n;
                }
            }
        }
    }

    fn finish(&self, func: AggFunc, arg: Option<Col>) -> Scalar {
        match func {
            AggFunc::Count => Scalar::Int64(self.n),
            AggFunc::Sum if !self.seen => Scalar::Null,
            AggFunc::Sum if arg == Some(Col::V) => Scalar::Int64(self.sum_i),
            AggFunc::Sum => Scalar::Float64(self.sum_f),
            AggFunc::Min | AggFunc::Max => self.ext.clone().unwrap_or(Scalar::Null),
            AggFunc::Avg if self.n == 0 => Scalar::Null,
            AggFunc::Avg => Scalar::Float64(self.sum_f / self.n as f64),
        }
    }
}

/// Groups in first-seen order, each with one state per call.
type Groups = Vec<(Option<i64>, Vec<St>)>;

fn reference(calls: &[(AggFunc, Option<Col>)], rows: &[Row]) -> Groups {
    let mut groups: Groups = Vec::new();
    let mut index: HashMap<Option<i64>, usize> = HashMap::new();
    for r in rows {
        let g = *index.entry(r.key).or_insert_with(|| {
            groups.push((r.key, vec![St::default(); calls.len()]));
            groups.len() - 1
        });
        for (st, &(func, arg)) in groups[g].1.iter_mut().zip(calls) {
            st.fold(func, arg.map(|c| r.value(c)));
        }
    }
    groups
}

fn merge_reference(calls: &[(AggFunc, Option<Col>)], partials: &[Groups]) -> Groups {
    let mut groups: Groups = Vec::new();
    let mut index: HashMap<Option<i64>, usize> = HashMap::new();
    for part in partials {
        for (key, states) in part {
            let g = *index.entry(*key).or_insert_with(|| {
                groups.push((*key, vec![St::default(); calls.len()]));
                groups.len() - 1
            });
            for ((st, other), &(func, _)) in groups[g].1.iter_mut().zip(states).zip(calls) {
                st.merge(func, other);
            }
        }
    }
    groups
}

/// Equal, with `f64`s compared by bit pattern. A NaN that SUM or AVG
/// computed may carry either sign (vectorised `+` may swap its operands),
/// so there any NaN matches any NaN; MIN and MAX select a NaN, never
/// compute one, so theirs must match bit for bit.
fn same(got: &Scalar, want: &Scalar, computed: bool) -> bool {
    match (got, want) {
        (Scalar::Float64(x), Scalar::Float64(y)) => {
            x.to_bits() == y.to_bits() || (computed && x.is_nan() && y.is_nan())
        }
        _ => got == want,
    }
}

fn check(
    pass: &str,
    calls: &[(AggFunc, Option<Col>)],
    agg: GroupedAggregator,
    want: &Groups,
) -> std::result::Result<(), TestCaseError> {
    let (keys, measures) = agg.finish();
    prop_assert_eq!(keys[0].len(), want.len(), "{} pass: group count", pass);
    for (g, (key, _)) in want.iter().enumerate() {
        let k = keys[0].scalar_at(g);
        prop_assert_eq!(
            &k,
            &key.map_or(Scalar::Null, Scalar::Int64),
            "{} pass: key {}",
            pass,
            g
        );
    }
    for (c, (&(func, arg), col)) in calls.iter().zip(&measures).enumerate() {
        let computed = matches!(func, AggFunc::Sum | AggFunc::Avg);
        let mut all_valid = true;
        for (g, (_, states)) in want.iter().enumerate() {
            let (got, exp) = (col.scalar_at(g), states[c].finish(func, arg));
            all_valid &= !exp.is_null();
            prop_assert!(
                same(&got, &exp, computed),
                "{pass} pass: {func:?}({arg:?}) group {g}: got {got:?}, want {exp:?}"
            );
        }
        prop_assert_eq!(
            col.validity().is_none(),
            all_valid,
            "{} pass: {:?}({:?}) carries a bitmap iff a group is NULL",
            pass,
            func,
            arg
        );
    }
    Ok(())
}

#[test]
fn every_admitted_pair_is_covered() {
    // COUNT: `*` and six columns; SUM, AVG: two numerics; MIN, MAX: six.
    let calls = calls();
    assert_eq!(calls.len(), 7 + 2 + 6 + 6 + 2, "{calls:?}");
    for t in [
        DataType::Int64,
        DataType::Float64,
        DataType::Boolean,
        DataType::Date32,
        DataType::Utf8,
    ] {
        assert!(COLS.iter().any(|c| c.data_type() == t), "{t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_aggregate_matches_row_at_a_time_reference(
        chunks in proptest::collection::vec(
            (proptest::collection::vec(row(), 0..40), 0usize..ALPHABET.len()),
            0..6,
        ),
    ) {
        let calls = calls();
        let flat: Vec<Row> = chunks.iter().flat_map(|(rows, _)| rows.clone()).collect();

        // Whole pass: one aggregator, every chunk in order.
        let mut whole = aggregator(&calls);
        for (rows, rot) in &chunks {
            update(&mut whole, &calls, rows, *rot);
        }
        check("whole", &calls, whole, &reference(&calls, &flat))?;

        // Partial per chunk, merged in order into a fresh aggregator.
        let mut merged = aggregator(&calls);
        let mut partials = Vec::new();
        for (rows, rot) in &chunks {
            let mut part = aggregator(&calls);
            update(&mut part, &calls, rows, *rot);
            merged.merge(&part).unwrap();
            partials.push(reference(&calls, rows));
        }
        check("merged", &calls, merged, &merge_reference(&calls, &partials))?;
    }
}
