//! Differential property test: dictionary-coded and plain Utf8 columns go
//! through the same filter → project → grouped aggregation (update and
//! merge) → IPC encode, and must agree on every key, group order, measure
//! and wire byte.
//!
//! The generated chunks cover nulls (with junk codes under them), an
//! all-null column over an empty dictionary, dictionary and plain chunks
//! mixed in one aggregation, a `Utf8 × Int64` key (the per-row path) and
//! dictionaries padded with unused entries until the code tuples outgrow
//! the per-tuple table (the per-row path again).

use std::sync::Arc;

use columnar::agg::AggFunc;
use columnar::builder::ArrayBuilder;
use columnar::expr::{ExprTree, Node};
use columnar::ipc::encode_batch;
use columnar::kernels::arith::ArithOp;
use columnar::kernels::cmp::CmpOp;
use columnar::ops::{self, Aggregation};
use columnar::prelude::*;
use columnar::{DictArray, Utf8Array};
use proptest::prelude::*;

const ALPHABET: [&str; 5] = ["", "a", "bb", "é", "R"];

/// The smallest expression IR the operator layer accepts.
enum E {
    Col(usize),
    Lit(Scalar),
    Cmp(CmpOp, Box<E>, Box<E>),
    Arith(ArithOp, Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
}

impl ExprTree for E {
    fn node(&self) -> Node<'_, E> {
        match self {
            E::Col(i) => Node::Column(*i),
            E::Lit(s) => Node::Literal(s),
            E::Cmp(op, l, r) => Node::Cmp(*op, l, r),
            E::Arith(op, l, r) => Node::Arith(*op, l, r),
            E::Or(a, b) => Node::Or(a, b),
        }
    }
}

fn col(i: usize) -> Box<E> {
    Box::new(E::Col(i))
}

fn lit(s: Scalar) -> Box<E> {
    Box::new(E::Lit(s))
}

type Row = (Option<usize>, Option<usize>, i64);

/// How one chunk's string columns are stored.
#[derive(Debug, Clone, Copy)]
struct Form {
    dict: bool,
    /// Column `k1` is all null; as a dictionary, over no entries.
    k1_null: bool,
    /// Unused entries placed ahead of the alphabet in each dictionary.
    pad: usize,
}

fn schema(fields: &[(&str, DataType)]) -> SchemaRef {
    Arc::new(Schema::new(
        fields
            .iter()
            .map(|(n, t)| Field::new(*n, *t, true))
            .collect(),
    ))
}

fn string_column(values: &[Option<usize>], form: Form, empty: bool) -> Array {
    if !form.dict {
        let mut b = ArrayBuilder::new(DataType::Utf8);
        for v in values {
            match v {
                Some(k) => b.push_str(ALPHABET[*k]),
                None => b.push_null(),
            }
        }
        return b.finish();
    }
    let (pad, entries): (usize, Vec<String>) = if empty {
        (0, Vec::new())
    } else {
        let padding = (0..form.pad).map(|i| format!("unused{i}"));
        (
            form.pad,
            padding.chain(ALPHABET.map(String::from)).collect(),
        )
    };
    let entries = Arc::new(Utf8Array::from_strs(entries.iter().map(|s| s.as_str())));
    let codes = values
        .iter()
        .enumerate()
        .map(|(i, v)| v.map_or(u32::MAX - i as u32, |k| (pad + k) as u32))
        .collect();
    let validity = values
        .iter()
        .any(Option::is_none)
        .then(|| Bitmap::from_bools(&values.iter().map(Option::is_some).collect::<Vec<_>>()));
    Array::Dict(DictArray::try_new(codes, entries, validity).unwrap())
}

fn chunk(rows: &[Row], form: Form) -> RecordBatch {
    let k1: Vec<Option<usize>> = if form.k1_null {
        vec![None; rows.len()]
    } else {
        rows.iter().map(|r| r.0).collect()
    };
    let k2: Vec<Option<usize>> = rows.iter().map(|r| r.1).collect();
    RecordBatch::try_new(
        schema(&[
            ("k1", DataType::Utf8),
            ("k2", DataType::Utf8),
            ("v", DataType::Int64),
        ]),
        vec![
            Arc::new(string_column(&k1, form, form.k1_null)),
            Arc::new(string_column(&k2, form, false)),
            Arc::new(Array::from_i64(rows.iter().map(|r| r.2).collect())),
        ],
    )
    .unwrap()
}

/// Everything the pipeline produces that must not depend on the form.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// IPC bytes of each filtered, projected chunk.
    wire: Vec<Vec<u8>>,
    /// Per key set: the updated and the merged aggregation, each as its
    /// finished batch and that batch's IPC bytes.
    results: Vec<[(RecordBatch, Vec<u8>); 2]>,
}

fn run(chunks: &[(Vec<Row>, Form)], threshold: i64, wanted: usize) -> Outcome {
    // WHERE v >= threshold OR k1 = ALPHABET[wanted]
    let predicate = E::Or(
        Box::new(E::Cmp(CmpOp::GtEq, col(2), lit(Scalar::Int64(threshold)))),
        Box::new(E::Cmp(
            CmpOp::Eq,
            col(0),
            lit(Scalar::Utf8(ALPHABET[wanted].into())),
        )),
    );
    let exprs = [
        (E::Col(0), "k1".to_string()),
        (E::Col(1), "k2".to_string()),
        (E::Col(2), "v".to_string()),
        (
            E::Arith(ArithOp::Mul, col(2), lit(Scalar::Int64(2))),
            "v2".to_string(),
        ),
    ];
    let projected_schema = schema(&[
        ("k1", DataType::Utf8),
        ("k2", DataType::Utf8),
        ("v", DataType::Int64),
        ("v2", DataType::Int64),
    ]);
    let mut wire = Vec::new();
    let mut projected = Vec::new();
    for (rows, form) in chunks {
        let input = chunk(rows, *form);
        let kept = ops::filter(&input, &predicate).unwrap();
        let p = ops::project(&kept, &exprs, &projected_schema).unwrap();
        // The codes travel: a dictionary column is still one after both.
        assert_eq!(p.column(1).as_dict().is_some(), form.dict);
        wire.push(encode_batch(&p).to_vec());
        projected.push(p);
    }

    let (k1, k2, v, v2) = (E::Col(0), E::Col(1), E::Col(2), E::Col(3));
    let key_sets: [Vec<(&E, DataType)>; 2] = [
        vec![(&k1, DataType::Utf8), (&k2, DataType::Utf8)],
        vec![(&k2, DataType::Utf8), (&v, DataType::Int64)],
    ];
    let results = key_sets
        .iter()
        .map(|keys| {
            let new = || {
                Aggregation::new(
                    keys.iter().copied(),
                    [
                        (AggFunc::Sum, Some((&v2, DataType::Int64))),
                        (AggFunc::Count, None),
                        (AggFunc::Count, Some((&k1, DataType::Utf8))),
                        (AggFunc::Min, Some((&k1, DataType::Utf8))),
                        (AggFunc::Max, Some((&k2, DataType::Utf8))),
                    ],
                )
                .unwrap()
            };
            let mut fields: Vec<(&str, DataType)> = vec![("a", keys[0].1), ("b", keys[1].1)];
            fields.extend([
                ("sum", DataType::Int64),
                ("n", DataType::Int64),
                ("n1", DataType::Int64),
                ("min", DataType::Utf8),
                ("max", DataType::Utf8),
            ]);
            let out_schema = schema(&fields);
            let mut updated = new();
            let mut merged = new();
            for p in &projected {
                updated.update(p).unwrap();
                let mut partial = new();
                partial.update(p).unwrap();
                merged.merge(&partial).unwrap();
            }
            [updated, merged].map(|agg| {
                let out = agg.finish(out_schema.clone()).unwrap();
                let bytes = encode_batch(&out).to_vec();
                (out, bytes)
            })
        })
        .collect();
    Outcome { wire, results }
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (
            proptest::option::weighted(0.8, 0usize..5),
            proptest::option::weighted(0.8, 0usize..5),
            -50i64..50,
        ),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dictionary_and_plain_columns_agree_end_to_end(
        chunks in proptest::collection::vec((rows_strategy(), any::<u8>()), 0..6),
        threshold in -50i64..50,
        wanted in 0usize..5,
        wide in any::<bool>(),
    ) {
        // `wide` pads every dictionary with 300 unused entries: two key
        // columns then span 306 x 306 code tuples, past the per-tuple table.
        let pad = if wide { 300 } else { 0 };
        let forms: Vec<(Vec<Row>, Form)> = chunks
            .iter()
            .map(|(rows, flags)| {
                let form = Form { dict: flags & 1 == 1, k1_null: flags & 6 == 6, pad };
                (rows.clone(), form)
            })
            .collect();
        let plain: Vec<(Vec<Row>, Form)> = forms
            .iter()
            .map(|(rows, form)| (rows.clone(), Form { dict: false, ..*form }))
            .collect();
        let got = run(&forms, threshold, wanted);
        let want = run(&plain, threshold, wanted);
        prop_assert_eq!(got, want);
    }
}
