//! Property tests for the columnar substrate: IPC round-trips, kernel
//! algebraic identities, sort invariants, aggregation merge laws, and the
//! operator pipeline against a one-operator-at-a-time reference.

use std::sync::Arc;

use std::collections::HashMap;

use columnar::agg::{AggFunc, GroupAcc};
use columnar::builder::ArrayBuilder;
use columnar::expr::{ExprTree, Node};
use columnar::groupby::GroupedAggregator;
use columnar::ipc::{decode_batch, encode_batch};
use columnar::kernels::arith::ArithOp;
use columnar::kernels::cmp::CmpOp;
use columnar::kernels::{boolean, cmp, selection};
use columnar::ops::{self, Aggregation, Cost, Output, Pipeline, Sink, Stage};
use columnar::prelude::*;
use columnar::sort::{sort_batch, top_n, SortKey};
use proptest::prelude::*;

/// Strategy: an optional-i64 column (None = NULL).
fn int_col(max_len: usize) -> impl Strategy<Value = Vec<Option<i64>>> {
    proptest::collection::vec(proptest::option::weighted(0.9, -1000i64..1000), 0..max_len)
}

fn build_int(values: &[Option<i64>]) -> Array {
    let mut b = ArrayBuilder::new(DataType::Int64);
    for v in values {
        match v {
            Some(x) => b.push_i64(*x),
            None => b.push_null(),
        }
    }
    b.finish()
}

fn build_f64(values: &[f64]) -> Array {
    Array::from_f64(values.to_vec())
}

fn scalars_eq(a: &Scalar, b: &Scalar) -> bool {
    match (a, b) {
        (Scalar::Float64(x), Scalar::Float64(y)) if x.is_nan() && y.is_nan() => true,
        _ => a == b,
    }
}

/// Float comparison with a small epsilon: chunked merges re-associate float
/// additions, which is allowed to drift in the last bits.
fn scalars_close(a: &Scalar, b: &Scalar) -> bool {
    match (a, b) {
        (Scalar::Float64(x), Scalar::Float64(y)) if x.is_nan() && y.is_nan() => true,
        (Scalar::Float64(x), Scalar::Float64(y)) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

/// The f64 group-key pathologies: -0.0 vs 0.0 and distinct NaN payloads.
fn weird_f64() -> impl Strategy<Value = Option<f64>> {
    proptest::option::weighted(
        0.85,
        (0usize..16).prop_map(|i| match i {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::from_bits(0x7ff8_0000_0000_beef),
            4 => 1.5,
            5 => -2.5,
            _ => (i as f64 - 10.0) / 4.0,
        }),
    )
}

fn build_opt_f64(values: &[Option<f64>]) -> Array {
    let mut b = ArrayBuilder::new(DataType::Float64);
    for v in values {
        match v {
            Some(x) => b.push_f64(*x),
            None => b.push_null(),
        }
    }
    b.finish()
}

/// SQL-equality normalization for an f64 key, mirroring what the group-id
/// kernel promises (`-0.0 == 0.0`, all NaNs equal).
fn norm_bits(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else if v.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        v.to_bits()
    }
}

/// One generated row: `(k_int, k_f64, v, f)` — two group keys, an Int64
/// measure, and a Float64 measure.
type RefRow = (Option<i64>, Option<f64>, Option<i64>, Option<f64>);

/// A deliberately naive row-at-a-time reference aggregator for
/// `GROUP BY k_int, k_f64` computing
/// `COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(f), AVG(v)`.
#[derive(Default, Clone)]
struct RefState {
    n_star: i64,
    n_v: i64,
    sum_v: i64,
    sum_seen: bool,
    min_v: Option<i64>,
    max_f: Option<f64>,
    avg_sum: f64,
    avg_n: i64,
}

fn reference_rows(rows: &[RefRow]) -> Vec<Vec<Scalar>> {
    let mut order: Vec<(Option<i64>, Option<u64>)> = Vec::new();
    let mut groups: HashMap<(Option<i64>, Option<u64>), RefState> = HashMap::new();
    for &(k1, k2, v, f) in rows {
        let key = (k1, k2.map(norm_bits));
        if !groups.contains_key(&key) {
            order.push(key);
        }
        let st = groups.entry(key).or_default();
        st.n_star += 1;
        if let Some(v) = v {
            st.n_v += 1;
            st.sum_v = st.sum_v.wrapping_add(v);
            st.sum_seen = true;
            st.min_v = Some(st.min_v.map_or(v, |m| m.min(v)));
            st.avg_sum += v as f64;
            st.avg_n += 1;
        }
        if let Some(f) = f {
            st.max_f = Some(match st.max_f {
                None => f,
                Some(m) => {
                    if f.total_cmp(&m).is_gt() {
                        f
                    } else {
                        m
                    }
                }
            });
        }
    }
    order
        .iter()
        .map(|key| {
            let st = &groups[key];
            vec![
                key.0.map_or(Scalar::Null, Scalar::Int64),
                key.1
                    .map_or(Scalar::Null, |b| Scalar::Float64(f64::from_bits(b))),
                Scalar::Int64(st.n_star),
                Scalar::Int64(st.n_v),
                if st.sum_seen {
                    Scalar::Int64(st.sum_v)
                } else {
                    Scalar::Null
                },
                st.min_v.map_or(Scalar::Null, Scalar::Int64),
                st.max_f.map_or(Scalar::Null, Scalar::Float64),
                if st.avg_n == 0 {
                    Scalar::Null
                } else {
                    Scalar::Float64(st.avg_sum / st.avg_n as f64)
                },
            ]
        })
        .collect()
}

fn grouped_fixture() -> GroupedAggregator {
    GroupedAggregator::new(
        vec![DataType::Int64, DataType::Float64],
        &[
            (AggFunc::Count, None),
            (AggFunc::Count, Some(DataType::Int64)),
            (AggFunc::Sum, Some(DataType::Int64)),
            (AggFunc::Min, Some(DataType::Int64)),
            (AggFunc::Max, Some(DataType::Float64)),
            (AggFunc::Avg, Some(DataType::Int64)),
        ],
    )
    .unwrap()
}

fn update_chunk(agg: &mut GroupedAggregator, rows: &[RefRow]) {
    let k1 = build_int(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
    let k2 = build_opt_f64(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
    let v = build_int(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
    let f = build_opt_f64(&rows.iter().map(|r| r.3).collect::<Vec<_>>());
    // COUNT(x) and the three v-aggregates share the v column; MAX takes f.
    agg.update(
        &[&k1, &k2],
        &[None, Some(&v), Some(&v), Some(&v), Some(&f), Some(&v)],
        rows.len(),
    )
    .unwrap();
}

fn result_rows(agg: GroupedAggregator) -> Vec<Vec<Scalar>> {
    let n = agg.num_groups();
    let (keys, measures) = agg.finish();
    (0..n)
        .map(|g| {
            keys.iter()
                .chain(measures.iter())
                .map(|a| a.scalar_at(g))
                .collect()
        })
        .collect()
}

/// A minimal expression IR, enough to drive `ops::Pipeline` from outside
/// the crate.
enum X {
    Col(usize),
    Lit(Scalar),
    Cmp(CmpOp, Box<X>, Box<X>),
    Arith(ArithOp, Box<X>, Box<X>),
}

impl ExprTree for X {
    fn node(&self) -> Node<'_, Self> {
        match self {
            X::Col(i) => Node::Column(*i),
            X::Lit(s) => Node::Literal(s),
            X::Cmp(op, l, r) => Node::Cmp(*op, l, r),
            X::Arith(op, l, r) => Node::Arith(*op, l, r),
        }
    }
}

fn col_op_lit(op: ArithOp, col: usize, lit: i64) -> X {
    X::Arith(
        op,
        Box::new(X::Col(col)),
        Box::new(X::Lit(Scalar::Int64(lit))),
    )
}

fn col_gt(col: usize, lit: i64) -> X {
    X::Cmp(
        CmpOp::Gt,
        Box::new(X::Col(col)),
        Box::new(X::Lit(Scalar::Int64(lit))),
    )
}

fn kv_schema(v: &str) -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64, true),
        Field::new(v, DataType::Int64, false),
    ]))
}

/// `(k, v)` rows cut into batches at `cuts` (repeated cuts make zero-row
/// batches); there is always at least one batch.
fn kv_batches(rows: &[(Option<i64>, i64)], mut cuts: Vec<usize>) -> Vec<RecordBatch> {
    let keys: Vec<_> = rows.iter().map(|r| r.0).collect();
    let vs = Array::from_i64(rows.iter().map(|r| r.1).collect());
    let full = RecordBatch::try_new(
        kv_schema("v"),
        vec![Arc::new(build_int(&keys)), Arc::new(vs)],
    )
    .unwrap();
    cuts.iter_mut().for_each(|c| *c = (*c).min(rows.len()));
    cuts.sort_unstable();
    let bounds: Vec<usize> = std::iter::once(0).chain(cuts).chain([rows.len()]).collect();
    bounds
        .windows(2)
        .map(|w| selection::slice_batch(&full, w[0]..w[1]).unwrap())
        .collect()
}

fn flat_rows(batches: &[RecordBatch]) -> Vec<Vec<Scalar>> {
    batches.iter().flat_map(|b| b.rows()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ipc_roundtrip_int_and_string(
        ints in int_col(200),
        strs in proptest::collection::vec(".{0,12}", 0..50),
    ) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("i", DataType::Int64, true),
            Field::new("f", DataType::Float64, false),
        ]));
        let floats: Vec<f64> = (0..ints.len()).map(|i| i as f64 * 0.37).collect();
        let batch = RecordBatch::try_new(
            schema,
            vec![Arc::new(build_int(&ints)), Arc::new(build_f64(&floats))],
        ).unwrap();
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        prop_assert_eq!(&back, &batch);

        // Strings separately (nullable).
        let schema = Arc::new(Schema::new(vec![Field::new("s", DataType::Utf8, true)]));
        let mut b = ArrayBuilder::new(DataType::Utf8);
        for (i, s) in strs.iter().enumerate() {
            if i % 7 == 3 { b.push_null(); } else { b.push_str(s); }
        }
        let batch = RecordBatch::try_new(schema, vec![Arc::new(b.finish())]).unwrap();
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        prop_assert_eq!(back, batch);
    }

    #[test]
    fn filter_matches_scalar_semantics(ints in int_col(300), threshold in -1000i64..1000) {
        let arr = build_int(&ints);
        let mask = cmp::gt_scalar(&arr, &Scalar::Int64(threshold)).unwrap();
        let filtered = selection::filter(&arr, &mask).unwrap();
        let expected: Vec<i64> = ints.iter().flatten().copied().filter(|&v| v > threshold).collect();
        let got: Vec<i64> = (0..filtered.len()).map(|i| filtered.scalar_at(i).as_i64().unwrap()).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn demorgan_holds_without_nulls(
        a in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let b: Vec<bool> = a.iter().map(|x| !x).collect();
        let ba = Array::from_bools(a.clone());
        let bb = Array::from_bools(b);
        let (ma, mb) = (ba.as_bool().unwrap(), bb.as_bool().unwrap());
        // !(a AND b) == !a OR !b
        let lhs = boolean::not(&boolean::and(ma, mb).unwrap());
        let rhs = boolean::or(&boolean::not(ma), &boolean::not(mb)).unwrap();
        prop_assert_eq!(lhs.values, rhs.values);
    }

    #[test]
    fn sort_is_permutation_and_ordered(vals in proptest::collection::vec(-500i64..500, 0..300)) {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, false)]));
        let batch = RecordBatch::try_new(schema, vec![Arc::new(Array::from_i64(vals.clone()))]).unwrap();
        let sorted = sort_batch(&batch, &[SortKey::asc(0)]).unwrap();
        let got: Vec<i64> = sorted.column(0).as_i64().unwrap().values.clone();
        let mut expect = vals.clone();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn topn_equals_sort_then_limit(
        vals in proptest::collection::vec(-500i64..500, 0..300),
        n in 0usize..50,
    ) {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, false)]));
        let batch = RecordBatch::try_new(schema, vec![Arc::new(Array::from_i64(vals))]).unwrap();
        let keys = [SortKey::asc(0)];
        let top = top_n(&batch, &keys, n).unwrap();
        let full = sort_batch(&batch, &keys).unwrap();
        let lim = selection::limit_batch(&full, n).unwrap();
        prop_assert_eq!(top.rows(), lim.rows());
    }

    #[test]
    fn agg_merge_associative(
        chunks in proptest::collection::vec(int_col(60), 1..6),
    ) {
        // Aggregating chunk-wise then merging == aggregating the concatenation
        // (single global group: all rows map to group ordinal 0).
        for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count, AggFunc::Avg] {
            let mut merged = GroupAcc::new(func, Some(DataType::Int64)).unwrap();
            merged.resize(1);
            let mut flat: Vec<Option<i64>> = Vec::new();
            for ch in &chunks {
                let arr = build_int(ch);
                let mut st = GroupAcc::new(func, Some(DataType::Int64)).unwrap();
                st.resize(1);
                st.update(&vec![0u32; arr.len()], Some(&arr)).unwrap();
                merged.merge(&st, &[0]).unwrap();
                flat.extend_from_slice(ch);
            }
            let all = build_int(&flat);
            let mut whole = GroupAcc::new(func, Some(DataType::Int64)).unwrap();
            whole.resize(1);
            whole.update(&vec![0u32; all.len()], Some(&all)).unwrap();
            let (m, w) = (merged.finish().scalar_at(0), whole.finish().scalar_at(0));
            // AVG accumulates floats in a different association order; allow tiny eps.
            let ok = match (&m, &w) {
                (Scalar::Float64(x), Scalar::Float64(y)) => (x - y).abs() < 1e-9,
                _ => scalars_eq(&m, &w),
            };
            prop_assert!(ok, "{func:?}: merged {m:?} vs whole {w:?}");
        }
    }

    /// The tentpole satellite: the vectorized grouped-aggregation engine must
    /// agree with a naive row-at-a-time scalar reference on random batches —
    /// including NULL keys, `-0.0`/NaN float keys, empty chunks, and a
    /// partial→merge→finish pass over random batch splits.
    #[test]
    fn grouped_agg_matches_scalar_reference(
        chunks in proptest::collection::vec(
            proptest::collection::vec(
                (
                    proptest::option::weighted(0.85, -4i64..4),
                    weird_f64(),
                    proptest::option::weighted(0.85, -1000i64..1000),
                    weird_f64(),
                ),
                0..80,
            ),
            0..6,
        ),
    ) {
        let flat: Vec<_> = chunks.iter().flatten().copied().collect();
        let expected = reference_rows(&flat);

        // Whole-pass vectorized: identical row order, so results are exact.
        let mut whole = grouped_fixture();
        update_chunk(&mut whole, &flat);
        let got = result_rows(whole);
        prop_assert_eq!(got.len(), expected.len(), "group count (whole pass)");
        for (g, (gr, er)) in got.iter().zip(&expected).enumerate() {
            for (c, (gs, es)) in gr.iter().zip(er).enumerate() {
                prop_assert!(scalars_eq(gs, es), "whole pass group {g} col {c}: {gs:?} vs {es:?}");
            }
        }

        // Partial per chunk, merged into the first, then finished: group order
        // is still first-seen over the concatenation, values match modulo
        // float re-association.
        let mut partials: Vec<GroupedAggregator> = chunks
            .iter()
            .map(|ch| {
                let mut a = grouped_fixture();
                update_chunk(&mut a, ch);
                a
            })
            .collect();
        let mut merged = grouped_fixture();
        for p in partials.drain(..) {
            merged.merge(&p).unwrap();
        }
        let got = result_rows(merged);
        prop_assert_eq!(got.len(), expected.len(), "group count (merged)");
        for (g, (gr, er)) in got.iter().zip(&expected).enumerate() {
            for (c, (gs, es)) in gr.iter().zip(er).enumerate() {
                prop_assert!(scalars_close(gs, es), "merged group {g} col {c}: {gs:?} vs {es:?}");
            }
        }
    }

    #[test]
    fn take_then_take_composes(vals in proptest::collection::vec(any::<i64>(), 1..100)) {
        let arr = Array::from_i64(vals.clone());
        let idx1: Vec<usize> = (0..vals.len()).rev().collect();
        let once = selection::take_indices(&arr, &idx1).unwrap();
        let idx2: Vec<usize> = (0..vals.len()).rev().collect();
        let twice = selection::take_indices(&once, &idx2).unwrap();
        prop_assert_eq!(twice.as_i64().unwrap().values.clone(), vals);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pipeline over any split of its input — zero-row batches and
    /// batches a filter empties included — matches concatenating the input
    /// and applying its operators one at a time: the same rows, and every
    /// operator reports the rows it read (and a stage the rows it passed
    /// on) in total. A batch a stage empties goes no further.
    #[test]
    fn pipeline_matches_one_operator_at_a_time(
        rows in proptest::collection::vec((proptest::option::weighted(0.9, -3i64..3), -50i64..50), 0..120),
        cuts in proptest::collection::vec(0usize..130, 0..8),
        plan in 0usize..4,
        thresholds in (-60i64..60, -60i64..60),
        sink in 0usize..5,
        window in (0u64..40, 0u64..40, 0u64..40),
    ) {
        let ((t1, t2), (n, offset, limit)) = (thresholds, window);
        let input = kv_batches(&rows, cuts);
        let (gt1, gt2) = (col_gt(1, t1), col_gt(1, t2));
        let double = [(X::Col(0), "k".to_string()), (col_op_lit(ArithOp::Mul, 1, 2), "w".to_string())];
        let inc = [(X::Col(0), "k".to_string()), (col_op_lit(ArithOp::Add, 1, 1), "w".to_string())];
        let stages = || -> Vec<Stage<'_, X>> {
            match plan {
                0 => vec![],
                1 => vec![Stage::Filter(&gt1)],
                2 => vec![Stage::Filter(&gt1), Stage::Project(&double, kv_schema("w"))],
                _ => vec![
                    Stage::Project(&inc, kv_schema("w")),
                    Stage::Filter(&gt2),
                    Stage::Project(&double, kv_schema("w")),
                ],
            }
        };
        let (key, arg) = (X::Col(0), X::Col(1));
        let aggregation = || {
            let calls = [(AggFunc::Sum, Some((&arg, DataType::Int64))), (AggFunc::Count, None)];
            Aggregation::new([(&key, DataType::Int64)], calls).unwrap()
        };
        let agg_schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64, true),
            Field::new("s", DataType::Int64, true),
            Field::new("n", DataType::Int64, true),
        ]));
        let sort_keys = vec![SortKey::desc(1), SortKey::asc(0)];
        let make_sink = || match sink {
            0 => Sink::Collect,
            1 => Sink::Aggregate(Box::new(aggregation())),
            2 => Sink::Sort(sort_keys.clone()),
            3 => Sink::TopN(sort_keys.clone(), n),
            _ => Sink::Fetch(offset, limit),
        };

        // The reference: everything at once, one operator after another.
        let mut all = RecordBatch::concat(&input).unwrap();
        let mut read = Vec::new();
        let mut passed = Vec::new();
        for stage in stages() {
            read.push(all.num_rows() as u64);
            all = match stage {
                Stage::Filter(p) => ops::filter(&all, p).unwrap(),
                Stage::Project(es, schema) => ops::project(&all, es, &schema).unwrap(),
            };
            passed.push(all.num_rows() as u64);
        }
        let sink_rows = all.num_rows() as u64;
        let expect = match sink {
            0 => all.rows(),
            1 => {
                let mut agg = aggregation();
                agg.update(&all).unwrap();
                agg.finish(agg_schema.clone()).unwrap().rows()
            }
            2 => sort_batch(&all, &sort_keys).unwrap().rows(),
            3 => top_n(&all, &sort_keys, n as usize).unwrap().rows(),
            _ => all.rows().into_iter().skip(offset as usize).take(limit as usize).collect(),
        };

        let mut costs: Vec<Cost> = Vec::new();
        let mut pipe = Pipeline::new(stages(), make_sink());
        for b in input {
            pipe.push(b, &mut |c| costs.push(c)).unwrap();
        }
        let got = match pipe.finish(&mut |c| costs.push(c)).unwrap() {
            Output::Batches(b) => {
                if plan > 0 && sink == 0 {
                    prop_assert!(b.iter().all(|b| b.num_rows() > 0), "an emptied batch was kept");
                }
                flat_rows(&b)
            }
            Output::Aggregation(agg) => agg.finish(agg_schema).unwrap().rows(),
        };
        prop_assert_eq!(got, expect);

        let nstages = read.len();
        for (op, (&r, &p)) in read.iter().zip(&passed).enumerate() {
            let mine = costs.iter().filter(|c| c.op == op);
            prop_assert_eq!(mine.clone().map(|c| c.rows).sum::<u64>(), r, "stage {} read", op);
            prop_assert_eq!(mine.map(|c| c.rows_out).sum::<u64>(), p, "stage {} passed on", op);
        }
        // Only the first stage ever sees a zero-row batch.
        prop_assert!(costs.iter().filter(|c| c.op > 0 && c.op < nstages).all(|c| c.rows > 0));
        let sunk = costs.iter().filter(|c| c.op == nstages);
        match sink {
            0 | 4 => prop_assert_eq!(sunk.count(), 0),
            1 => prop_assert!(sunk.clone().all(|c| c.rows > 0) && sunk.map(|c| c.rows).sum::<u64>() == sink_rows),
            _ => prop_assert_eq!(sunk.map(|c| c.rows).collect::<Vec<_>>(), vec![sink_rows]),
        }
    }
}
