//! The one operator layer: the batch-level bodies of filter, project,
//! grouped aggregation, sort, top-N and fetch, for any [`ExprTree`], and the
//! one [`Pipeline`] that drives them.
//!
//! A pushed-down operator is the same operator run somewhere else, so its
//! body and the rules between operators are written once, here. The query
//! engine (`dsq::exec`) and the OCS storage executor (`ocs::exec`) both
//! lower their plans to chains of pipelines. What stays with each is what
//! genuinely differs: reading the plan, output types, the source, error
//! mapping, its own wire rules, and billing (this crate cannot see
//! `netsim`, so each prices the pipeline's [`Cost`] records itself).

use std::sync::Arc;

use crate::agg::AggFunc;
use crate::array::Array;
use crate::batch::RecordBatch;
use crate::datatype::DataType;
use crate::error::Result;
use crate::expr::{eval, weight, ExprTree};
use crate::groupby::GroupedAggregator;
use crate::kernels::selection;
use crate::schema::SchemaRef;
use crate::sort::{sort_batch, SortKey};

/// The rows of `batch` on which `predicate` is valid-and-true. An all-true
/// mask shares the batch; an all-false one yields a zero-row batch, which
/// the caller keeps or drops.
pub fn filter<E: ExprTree>(batch: &RecordBatch, predicate: &E) -> Result<RecordBatch> {
    let mask = eval(predicate, batch)?;
    selection::filter_batch(batch, mask.as_bool()?)
}

/// Evaluate `exprs` over `batch` into a batch of `out_schema` (the caller
/// infers it once from its plan, not per batch).
pub fn project<E: ExprTree>(
    batch: &RecordBatch,
    exprs: &[(E, String)],
    out_schema: &SchemaRef,
) -> Result<RecordBatch> {
    let columns = exprs
        .iter()
        .map(|(e, _)| eval(e, batch))
        .collect::<Result<Vec<_>>>()?;
    RecordBatch::try_new(out_schema.clone(), columns)
}

/// A grouped aggregation in progress: the key and argument expressions,
/// evaluated once per batch, feeding a [`GroupedAggregator`]. Partial
/// aggregators over disjoint inputs [`merge`](Aggregation::merge) into one.
#[derive(Debug)]
pub struct Aggregation<'a, E> {
    keys: Vec<&'a E>,
    args: Vec<Option<&'a E>>,
    inner: GroupedAggregator,
}

impl<'a, E: ExprTree> Aggregation<'a, E> {
    /// Group on `keys`, computing `aggs`; every expression comes with the
    /// type its owner's plan gives it (`None` argument = `COUNT(*)`).
    pub fn new(
        keys: impl IntoIterator<Item = (&'a E, DataType)>,
        aggs: impl IntoIterator<Item = (AggFunc, Option<(&'a E, DataType)>)>,
    ) -> Result<Self> {
        let (keys, key_types): (Vec<_>, Vec<_>) = keys.into_iter().unzip();
        let (args, specs): (Vec<_>, Vec<_>) = aggs
            .into_iter()
            .map(|(func, arg)| (arg.map(|(e, _)| e), (func, arg.map(|(_, t)| t))))
            .unzip();
        Ok(Aggregation {
            keys,
            args,
            inner: GroupedAggregator::new(key_types, &specs)?,
        })
    }

    /// Fold one batch in.
    pub fn update(&mut self, batch: &RecordBatch) -> Result<()> {
        let rows = batch.num_rows();
        if rows == 0 {
            return Ok(());
        }
        let keys = self
            .keys
            .iter()
            .map(|e| eval(*e, batch))
            .collect::<Result<Vec<_>>>()?;
        let args = self
            .args
            .iter()
            .map(|a| a.map(|e| eval(e, batch)).transpose())
            .collect::<Result<Vec<_>>>()?;
        let key_refs: Vec<&Array> = keys.iter().map(|a| a.as_ref()).collect();
        let arg_refs: Vec<Option<&Array>> = args.iter().map(|a| a.as_deref()).collect();
        self.inner.update(&key_refs, &arg_refs, rows)
    }

    /// Fold a partial aggregation of the same keys and calls in (the
    /// distributed combine).
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        self.inner.merge(&other.inner)
    }

    /// Number of groups so far.
    pub fn num_groups(&self) -> usize {
        self.inner.num_groups()
    }

    /// The output batch: keys then measures, groups in first-seen order.
    /// A *global* aggregate (no keys) over zero input rows still emits one
    /// row of initial states (`COUNT(*) = 0`, `SUM = NULL`, ...), per SQL.
    pub fn finish(mut self, out_schema: SchemaRef) -> Result<RecordBatch> {
        if self.keys.is_empty() {
            self.inner.ensure_global_group();
        }
        let (keys, measures) = self.inner.finish();
        let columns = keys.into_iter().chain(measures).map(Arc::new).collect();
        RecordBatch::try_new(out_schema, columns)
    }
}

/// Rows in `batches` altogether — what [`sort`] and [`top_n`] gather, and
/// what a [`Pipeline`] bills them for.
pub fn total_rows(batches: &[RecordBatch]) -> u64 {
    batches.iter().map(|b| b.num_rows() as u64).sum()
}

/// Full sort of the gathered batches: one batch, or none for no input.
pub fn sort(batches: &[RecordBatch], keys: &[SortKey]) -> Result<Vec<RecordBatch>> {
    if batches.is_empty() {
        return Ok(vec![]);
    }
    Ok(vec![sort_batch(&RecordBatch::concat(batches)?, keys)?])
}

/// The first `n` rows of the sorted order of the gathered batches: one
/// batch, or none for no input.
pub fn top_n(batches: &[RecordBatch], keys: &[SortKey], n: u64) -> Result<Vec<RecordBatch>> {
    if batches.is_empty() {
        return Ok(vec![]);
    }
    let n = usize::try_from(n).unwrap_or(usize::MAX);
    let all = RecordBatch::concat(batches)?;
    Ok(vec![crate::sort::top_n(&all, keys, n)?])
}

/// Rows `offset .. offset + limit` (saturating) of the batches read in
/// order, cut per batch: whole batches are shared, a straddling batch is
/// sliced, and batches that contribute no row are dropped. Like [`sort`]
/// and [`top_n`], it answers with no batch only for no input: input that
/// keeps no row yields one zero-row batch.
pub fn fetch(batches: &[RecordBatch], offset: u64, limit: u64) -> Result<Vec<RecordBatch>> {
    let mut skip = usize::try_from(offset).unwrap_or(usize::MAX);
    let mut want = usize::try_from(limit).unwrap_or(usize::MAX);
    let mut out = Vec::new();
    for b in batches {
        if want == 0 {
            break;
        }
        let start = skip.min(b.num_rows());
        let end = start + want.min(b.num_rows() - start);
        skip -= start;
        want -= end - start;
        if end > start {
            out.push(selection::slice_batch(b, start..end)?);
        }
    }
    match batches.first() {
        Some(b) if out.is_empty() => Ok(vec![selection::slice_batch(b, 0..0)?]),
        _ => Ok(out),
    }
}

/// A streaming operator: one batch in, one batch out.
#[derive(Debug)]
pub enum Stage<'a, E> {
    /// [`filter`] by the predicate.
    Filter(&'a E),
    /// [`project`] the expressions into a batch of the schema.
    Project(&'a [(E, String)], SchemaRef),
}

/// The blocking end of a pipeline: where its batches go.
#[derive(Debug)]
pub enum Sink<'a, E> {
    /// Keep every batch as it arrives.
    Collect,
    /// Fold every batch into the aggregation.
    Aggregate(Box<Aggregation<'a, E>>),
    /// [`sort`] everything that arrived by the keys.
    Sort(Vec<SortKey>),
    /// [`top_n`] of everything that arrived: keys, `n`.
    TopN(Vec<SortKey>, u64),
    /// [`fetch`] of everything that arrived: offset, limit.
    Fetch(u64, u64),
}

/// What a finished pipeline yields.
#[derive(Debug)]
pub enum Output<'a, E> {
    /// The sink's batches.
    Batches(Vec<RecordBatch>),
    /// An aggregating sink's state, unfinished, for the caller to
    /// [`merge`](Aggregation::merge) or [`finish`](Aggregation::finish).
    Aggregation(Box<Aggregation<'a, E>>),
}

/// One unit of work a pipeline did, for its caller to price: one record
/// per stage per batch, one per batch an aggregation folds in, and one per
/// sort or top-N when the pipeline finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// The operator: its stage index, or the stage count for the sink.
    pub op: usize,
    /// What the operator is, with the plan figures its price depends on.
    pub kind: CostKind,
    /// Rows it read.
    pub rows: u64,
    /// Rows it passed on (none for an aggregation update).
    pub rows_out: u64,
}

/// The operator behind a [`Cost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// A filter: its predicate's [`weight`].
    Filter(u32),
    /// A projection: its expressions' summed [`weight`].
    Project(u32),
    /// An aggregation update: key and call counts.
    Aggregate(usize, usize),
    /// A full sort: key count.
    Sort(usize),
    /// A top-N: key count and `n`.
    TopN(usize, u64),
}

/// Streaming stages into one sink, driven by [`push`](Pipeline::push) and
/// [`finish`](Pipeline::finish). The rules between operators live here:
/// a batch that a stage empties ends its chain and is not kept, and a
/// zero-row batch is a no-op for an aggregation (whose global-group rule
/// stays in [`Aggregation::finish`]).
#[derive(Debug)]
pub struct Pipeline<'a, E> {
    stages: Vec<Stage<'a, E>>,
    sink: Sink<'a, E>,
    kept: Vec<RecordBatch>,
}

fn cost(op: usize, kind: CostKind, rows: u64, rows_out: u64) -> Cost {
    Cost {
        op,
        kind,
        rows,
        rows_out,
    }
}

impl<'a, E: ExprTree> Pipeline<'a, E> {
    /// `stages` in the order a batch passes them, then `sink`.
    pub fn new(stages: Vec<Stage<'a, E>>, sink: Sink<'a, E>) -> Self {
        let kept = Vec::new();
        Pipeline { stages, sink, kept }
    }

    /// Pass one batch through the stages into the sink, reporting each
    /// unit of work to `bill` as it is done.
    pub fn push(&mut self, mut batch: RecordBatch, bill: &mut impl FnMut(Cost)) -> Result<()> {
        for (op, stage) in self.stages.iter().enumerate() {
            let (out, kind) = match stage {
                Stage::Filter(p) => (filter(&batch, *p)?, CostKind::Filter(weight(*p))),
                Stage::Project(es, schema) => {
                    let w = es.iter().map(|(e, _)| weight(e)).sum();
                    (project(&batch, es, schema)?, CostKind::Project(w))
                }
            };
            let (rows, rows_out) = (batch.num_rows() as u64, out.num_rows() as u64);
            bill(cost(op, kind, rows, rows_out));
            if rows_out == 0 {
                return Ok(());
            }
            batch = out;
        }
        let rows = batch.num_rows() as u64;
        match &mut self.sink {
            Sink::Aggregate(agg) if rows > 0 => {
                let kind = CostKind::Aggregate(agg.keys.len(), agg.args.len());
                bill(cost(self.stages.len(), kind, rows, 0));
                agg.update(&batch)
            }
            Sink::Aggregate(_) => Ok(()),
            _ => {
                self.kept.push(batch);
                Ok(())
            }
        }
    }

    /// Close the sink: run a sort or top-N over what arrived (reporting it
    /// to `bill`), cut a fetch's window, or hand back the aggregation.
    pub fn finish(self, bill: &mut impl FnMut(Cost)) -> Result<Output<'a, E>> {
        let kept = self.kept;
        let (out, kind) = match self.sink {
            Sink::Collect => return Ok(Output::Batches(kept)),
            Sink::Aggregate(agg) => return Ok(Output::Aggregation(agg)),
            Sink::Fetch(offset, limit) => return fetch(&kept, offset, limit).map(Output::Batches),
            Sink::Sort(keys) => (sort(&kept, &keys)?, CostKind::Sort(keys.len())),
            Sink::TopN(keys, n) => (top_n(&kept, &keys, n)?, CostKind::TopN(keys.len(), n)),
        };
        bill(cost(
            self.stages.len(),
            kind,
            total_rows(&kept),
            total_rows(&out),
        ));
        Ok(Output::Batches(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ArrayBuilder;
    use crate::datatype::Scalar;
    use crate::expr::tests::{col, float, int, T};
    use crate::kernels::arith::ArithOp;
    use crate::kernels::cmp::CmpOp;
    use crate::schema::{Field, Schema};

    fn schema(fields: &[(&str, DataType)]) -> SchemaRef {
        Arc::new(Schema::new(
            fields
                .iter()
                .map(|(n, t)| Field::new(*n, *t, true))
                .collect(),
        ))
    }

    fn batch(ids: Vec<i64>, vs: Vec<f64>) -> RecordBatch {
        RecordBatch::try_new(
            Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("v", DataType::Float64, false),
            ])),
            vec![
                Arc::new(Array::from_i64(ids)),
                Arc::new(Array::from_f64(vs)),
            ],
        )
        .unwrap()
    }

    fn ids(batches: &[RecordBatch]) -> Vec<i64> {
        batches
            .iter()
            .flat_map(|b| b.column(0).as_i64().unwrap().values.clone())
            .collect()
    }

    /// `GROUP BY id`: `SUM(v)`, `COUNT(*)`.
    fn sum_count<'a>(key: &'a T, arg: &'a T) -> Aggregation<'a, T> {
        Aggregation::new(
            [(key, DataType::Int64)],
            [
                (AggFunc::Sum, Some((arg, DataType::Float64))),
                (AggFunc::Count, None),
            ],
        )
        .unwrap()
    }

    fn sum_count_schema() -> SchemaRef {
        schema(&[
            ("id", DataType::Int64),
            ("s", DataType::Float64),
            ("n", DataType::Int64),
        ])
    }

    #[test]
    fn filter_and_project() {
        let b = batch(vec![1, 2, 3, 4], vec![0.1, 0.2, 0.3, 0.4]);
        let f = filter(&b, &T::Cmp(CmpOp::GtEq, col(1), float(0.25))).unwrap();
        assert_eq!(f.num_rows(), 2);
        let exprs = [(T::Arith(ArithOp::Mul, col(0), int(10)), "id10".to_string())];
        let p = project(&f, &exprs, &schema(&[("id10", DataType::Int64)])).unwrap();
        assert_eq!(p.schema().names(), vec!["id10"]);
        assert_eq!(p.column(0).as_i64().unwrap().values, vec![30, 40]);
        // Nothing survives: a zero-row batch of the same schema, not an error.
        let none = filter(&b, &T::Cmp(CmpOp::Gt, col(0), int(9))).unwrap();
        assert_eq!((none.num_rows(), none.schema()), (0, b.schema()));
        // A non-boolean predicate is a type error.
        assert!(filter(&b, &T::Col(0)).is_err());
    }

    #[test]
    fn hash_aggregation_basic() {
        let (key, arg) = (T::Col(0), T::Col(1));
        let mut agg = sum_count(&key, &arg);
        agg.update(&batch(vec![1, 2, 1, 2, 1], vec![1.0, 2.0, 3.0, 4.0, 5.0]))
            .unwrap();
        assert_eq!(agg.num_groups(), 2);
        let out = agg.finish(sum_count_schema()).unwrap();
        assert_eq!(out.num_rows(), 2);
        // First-seen order: group 1 then group 2.
        assert_eq!(
            out.row(0),
            vec![Scalar::Int64(1), Scalar::Float64(9.0), Scalar::Int64(3)]
        );
        assert_eq!(
            out.row(1),
            vec![Scalar::Int64(2), Scalar::Float64(6.0), Scalar::Int64(2)]
        );
    }

    #[test]
    fn partial_final_equals_single_pass() {
        let (key, arg) = (T::Col(0), T::Col(1));
        let b1 = batch(vec![1, 2, 3], vec![1.0, 2.0, 3.0]);
        let b2 = batch(vec![2, 3, 4], vec![20.0, 30.0, 40.0]);

        let mut single = sum_count(&key, &arg);
        single.update(&b1).unwrap();
        single.update(&b2).unwrap();
        let expect = single.finish(sum_count_schema()).unwrap();

        // Partial per "split", then merge.
        let mut p1 = sum_count(&key, &arg);
        p1.update(&b1).unwrap();
        let mut p2 = sum_count(&key, &arg);
        p2.update(&b2).unwrap();
        p1.merge(&p2).unwrap();
        let got = p1.finish(sum_count_schema()).unwrap();

        assert_eq!(got.rows(), expect.rows());
    }

    #[test]
    fn aggregation_with_null_keys() {
        let mut builder = ArrayBuilder::new(DataType::Int64);
        builder.push_i64(1);
        builder.push_null();
        builder.push_null();
        let out_schema = schema(&[("k", DataType::Int64), ("n", DataType::Int64)]);
        let b = RecordBatch::try_new(
            schema(&[("k", DataType::Int64)]),
            vec![Arc::new(builder.finish())],
        )
        .unwrap();
        let key = T::Col(0);
        let mut agg =
            Aggregation::new([(&key, DataType::Int64)], [(AggFunc::Count, None)]).unwrap();
        agg.update(&b).unwrap();
        let out = agg.finish(out_schema).unwrap();
        // NULL is one group with count 2.
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.row(1), vec![Scalar::Null, Scalar::Int64(2)]);
    }

    #[test]
    fn global_aggregate_no_keys() {
        let arg = T::Col(0);
        let max = || Aggregation::new([], [(AggFunc::Max, Some((&arg, DataType::Int64)))]).unwrap();
        let out_schema = schema(&[("m", DataType::Int64)]);
        let mut agg = max();
        agg.update(&batch(vec![5, 9, 3], vec![0.0; 3])).unwrap();
        let out = agg.finish(out_schema.clone()).unwrap();
        assert_eq!(out.rows(), vec![vec![Scalar::Int64(9)]]);
        // Zero input rows: the global group still emits its initial state...
        let mut agg = max();
        agg.update(&batch(vec![], vec![])).unwrap();
        assert_eq!(agg.num_groups(), 0);
        let out = agg.finish(out_schema).unwrap();
        assert_eq!(out.rows(), vec![vec![Scalar::Null]]);
        // ...while a keyed aggregate over nothing has no groups to emit.
        let (key, arg) = (T::Col(0), T::Col(1));
        let out = sum_count(&key, &arg).finish(sum_count_schema()).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn sort_topn_limit() {
        let input = [
            batch(vec![3, 1], vec![0.3, 0.1]),
            batch(vec![4, 2], vec![0.4, 0.2]),
        ];
        let keys = [SortKey::asc(0)];
        let sorted = sort(&input, &keys).unwrap();
        assert_eq!(sorted.len(), 1);
        assert_eq!(ids(&sorted), vec![1, 2, 3, 4]);
        assert_eq!(ids(&top_n(&input, &keys, 2).unwrap()), vec![1, 2]);
        assert_eq!(
            ids(&top_n(&input, &keys, u64::MAX).unwrap()),
            vec![1, 2, 3, 4]
        );
        assert_eq!(ids(&fetch(&input, 0, 3).unwrap()), vec![3, 1, 4]);
        // Sorting nothing yields nothing (and never reaches `concat`).
        assert!(sort(&[], &keys).unwrap().is_empty());
        assert!(top_n(&[], &keys, 2).unwrap().is_empty());
        assert!(fetch(&[], 1, 2).unwrap().is_empty());
    }

    #[test]
    fn fetch_cuts_per_batch() {
        let input = [
            batch(vec![0, 1, 2], vec![0.0; 3]),
            batch(vec![], vec![]),
            batch(vec![3, 4], vec![0.0; 2]),
            batch(vec![5, 6, 7], vec![0.0; 3]),
        ];
        let rows = |offset, limit| ids(&fetch(&input, offset, limit).unwrap());
        // Offset inside, at, and past a batch edge.
        assert_eq!(rows(1, 3), vec![1, 2, 3]);
        assert_eq!(rows(3, 2), vec![3, 4]);
        assert_eq!(rows(4, 100), vec![4, 5, 6, 7]);
        assert_eq!(rows(8, 1), Vec::<i64>::new());
        assert_eq!(rows(9, 1), Vec::<i64>::new());
        assert_eq!(rows(0, 0), Vec::<i64>::new());
        // `offset + limit` saturates instead of wrapping.
        assert_eq!(rows(1, u64::MAX), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rows(u64::MAX, u64::MAX), Vec::<i64>::new());
        // Input that keeps no row answers with one zero-row batch.
        let none = fetch(&input, 9, 1).unwrap();
        assert_eq!((none.len(), none[0].num_rows()), (1, 0));
        // Whole batches are shared, not copied; the limit stops the walk.
        let out = fetch(&input, 3, 2).unwrap();
        assert_eq!(out.len(), 1);
        assert!(Arc::ptr_eq(out[0].column(0), input[2].column(0)));
        let out = fetch(&input, 2, 4).unwrap();
        assert_eq!(
            out.iter().map(|b| b.num_rows()).collect::<Vec<_>>(),
            vec![1, 2, 1]
        );
    }
}
