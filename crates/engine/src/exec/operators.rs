//! The engine's vectorized physical operators with work accounting.
//!
//! The OCS embedded executor has its own operators (`ocs::exec`; `ocs`
//! does not depend on this crate). What the two sides share sits below
//! both: the expression walker ([`columnar::expr`]), the grouped
//! aggregation and sort kernels, and the `netsim::CostParams` work
//! vocabulary — so a pushed-down operator computes, and bills, in storage
//! what it would at the compute layer.

use std::sync::Arc;

use columnar::groupby::GroupedAggregator;
use columnar::kernels::selection;
use columnar::prelude::*;
use columnar::sort::{self, SortKey as ColSortKey};
use netsim::CostParams;

use crate::error::{EResult, EngineError};
use crate::expr::{AggregateCall, ScalarExpr};
use crate::plan::SortKey;

/// Apply a filter, returning the surviving rows and the work spent.
pub fn run_filter(
    batch: &RecordBatch,
    predicate: &ScalarExpr,
    cost: &CostParams,
) -> EResult<(RecordBatch, f64)> {
    let work = cost.eval_work(batch.num_rows() as u64, predicate.weight());
    let mask = predicate.eval(batch)?;
    let mask = mask.as_bool().map_err(EngineError::Columnar)?;
    let out = selection::filter_batch(batch, mask).map_err(EngineError::Columnar)?;
    Ok((out, work))
}

/// Apply a projection.
pub fn run_project(
    batch: &RecordBatch,
    exprs: &[(ScalarExpr, String)],
    cost: &CostParams,
) -> EResult<(RecordBatch, f64)> {
    let weight: u32 = exprs.iter().map(|(e, _)| e.weight()).sum();
    let work = cost.eval_work(batch.num_rows() as u64, weight.max(1));
    let fields = exprs
        .iter()
        .map(|(e, n)| Field::new(n.clone(), e.data_type(), true))
        .collect::<Vec<_>>();
    let schema = Arc::new(Schema::new(fields));
    let columns = exprs
        .iter()
        .map(|(e, _)| e.eval(batch))
        .collect::<EResult<Vec<_>>>()?;
    let out = RecordBatch::try_new(schema, columns).map_err(EngineError::Columnar)?;
    Ok((out, work))
}

/// A two-phase (partial/final) hash aggregator.
///
/// This is a thin expression-evaluating wrapper around the shared
/// vectorized kernel in [`columnar::groupby`]: key and argument
/// expressions are evaluated once per batch, then rows are resolved to
/// dense group ids and folded into columnar accumulators — the same code
/// path the OCS storage executor runs, so a pushed-down aggregate computes
/// exactly what the compute layer would.
#[derive(Debug)]
pub struct HashAggregator {
    group_by: Vec<(ScalarExpr, String)>,
    aggs: Vec<AggregateCall>,
    inner: GroupedAggregator,
    /// Accumulated work units.
    pub work: f64,
}

impl HashAggregator {
    /// New aggregator for the given keys and calls.
    pub fn new(group_by: Vec<(ScalarExpr, String)>, aggs: Vec<AggregateCall>) -> EResult<Self> {
        let key_types = group_by.iter().map(|(e, _)| e.data_type()).collect();
        let specs: Vec<_> = aggs
            .iter()
            .map(|a| (a.func, a.arg.as_ref().map(|e| e.data_type())))
            .collect();
        let inner = GroupedAggregator::new(key_types, &specs).map_err(EngineError::Columnar)?;
        Ok(HashAggregator {
            group_by,
            aggs,
            inner,
            work: 0.0,
        })
    }

    /// Consume one batch.
    pub fn update(&mut self, batch: &RecordBatch, cost: &CostParams) -> EResult<()> {
        let rows = batch.num_rows();
        if rows == 0 {
            return Ok(());
        }
        self.work += cost.agg_work(rows as u64, self.group_by.len(), self.aggs.len());
        // Evaluate key and argument expressions once per batch.
        let key_arrays = self
            .group_by
            .iter()
            .map(|(e, _)| e.eval(batch))
            .collect::<EResult<Vec<_>>>()?;
        let arg_arrays = self
            .aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval(batch)).transpose())
            .collect::<EResult<Vec<_>>>()?;
        let key_refs: Vec<&Array> = key_arrays.iter().map(|a| a.as_ref()).collect();
        let arg_refs: Vec<Option<&Array>> = arg_arrays.iter().map(|a| a.as_deref()).collect();
        self.inner
            .update(&key_refs, &arg_refs, rows)
            .map_err(EngineError::Columnar)
    }

    /// Merge a partial aggregator (distributed combine).
    pub fn merge(&mut self, other: HashAggregator) -> EResult<()> {
        self.inner
            .merge(&other.inner)
            .map_err(EngineError::Columnar)?;
        self.work += other.work;
        Ok(())
    }

    /// Number of groups so far.
    pub fn num_groups(&self) -> usize {
        self.inner.num_groups()
    }

    /// Produce the output batch: keys then measures, groups in first-seen
    /// order.
    ///
    /// A *global* aggregate (no group keys) over zero input rows emits one
    /// row of initial states (`COUNT(*) = 0`, `SUM = NULL`, ...) per SQL
    /// semantics.
    pub fn finish(mut self) -> EResult<RecordBatch> {
        if self.group_by.is_empty() {
            self.inner.ensure_global_group();
        }
        let mut fields = Vec::with_capacity(self.group_by.len() + self.aggs.len());
        for (e, name) in &self.group_by {
            fields.push(Field::new(name.clone(), e.data_type(), true));
        }
        for a in &self.aggs {
            fields.push(Field::new(a.output_name.clone(), a.output_type()?, true));
        }
        let schema = Arc::new(Schema::new(fields));
        let (keys, measures) = self.inner.finish();
        let columns = keys
            .into_iter()
            .chain(measures)
            .map(Arc::new)
            .collect::<Vec<_>>();
        RecordBatch::try_new(schema, columns).map_err(EngineError::Columnar)
    }
}

fn to_col_keys(keys: &[SortKey]) -> Vec<ColSortKey> {
    keys.iter()
        .map(|k| ColSortKey {
            column: k.column,
            ascending: k.ascending,
            nulls_first: k.nulls_first,
        })
        .collect()
}

/// Full sort of concatenated batches.
pub fn run_sort(
    batches: &[RecordBatch],
    keys: &[SortKey],
    cost: &CostParams,
) -> EResult<(RecordBatch, f64)> {
    let all = RecordBatch::concat(batches).map_err(EngineError::Columnar)?;
    let work = cost.sort_work(all.num_rows() as u64, keys.len());
    let out = sort::sort_batch(&all, &to_col_keys(keys)).map_err(EngineError::Columnar)?;
    Ok((out, work))
}

/// Bounded top-N over concatenated batches.
pub fn run_topn(
    batches: &[RecordBatch],
    keys: &[SortKey],
    limit: u64,
    cost: &CostParams,
) -> EResult<(RecordBatch, f64)> {
    let all = RecordBatch::concat(batches).map_err(EngineError::Columnar)?;
    let work = cost.topn_work(all.num_rows() as u64, keys.len(), limit);
    let out =
        sort::top_n(&all, &to_col_keys(keys), limit as usize).map_err(EngineError::Columnar)?;
    Ok((out, work))
}

/// Limit (keeps first `limit` rows across batches, in order).
pub fn run_limit(batches: &[RecordBatch], limit: u64) -> EResult<Vec<RecordBatch>> {
    let mut out = Vec::new();
    let mut remaining = limit as usize;
    for b in batches {
        if remaining == 0 {
            break;
        }
        if b.num_rows() <= remaining {
            remaining -= b.num_rows();
            out.push(b.clone());
        } else {
            out.push(selection::limit_batch(b, remaining).map_err(EngineError::Columnar)?);
            remaining = 0;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::agg::AggFunc;
    use columnar::builder::ArrayBuilder;
    use columnar::kernels::cmp::CmpOp;

    fn batch(ids: Vec<i64>, vs: Vec<f64>) -> RecordBatch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
        ]));
        RecordBatch::try_new(
            schema,
            vec![
                Arc::new(Array::from_i64(ids)),
                Arc::new(Array::from_f64(vs)),
            ],
        )
        .unwrap()
    }

    fn cost() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn filter_and_project() {
        let b = batch(vec![1, 2, 3, 4], vec![0.1, 0.2, 0.3, 0.4]);
        let pred = ScalarExpr::Cmp {
            op: CmpOp::GtEq,
            left: Arc::new(ScalarExpr::col(1, "v", DataType::Float64)),
            right: Arc::new(ScalarExpr::lit(Scalar::Float64(0.25))),
        };
        let (f, w) = run_filter(&b, &pred, &cost()).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert!(w > 0.0);
        let (p, _) = run_project(
            &f,
            &[(
                ScalarExpr::Arith {
                    op: columnar::kernels::arith::ArithOp::Mul,
                    left: Arc::new(ScalarExpr::col(0, "id", DataType::Int64)),
                    right: Arc::new(ScalarExpr::lit(Scalar::Int64(10))),
                },
                "id10".into(),
            )],
            &cost(),
        )
        .unwrap();
        assert_eq!(p.schema().names(), vec!["id10"]);
        assert_eq!(p.column(0).as_i64().unwrap().values, vec![30, 40]);
    }

    fn agg_fixture() -> (Vec<(ScalarExpr, String)>, Vec<AggregateCall>) {
        (
            vec![(ScalarExpr::col(0, "id", DataType::Int64), "id".into())],
            vec![
                AggregateCall {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::col(1, "v", DataType::Float64)),
                    output_name: "s".into(),
                },
                AggregateCall {
                    func: AggFunc::Count,
                    arg: None,
                    output_name: "n".into(),
                },
            ],
        )
    }

    #[test]
    fn hash_aggregation_basic() {
        let (keys, calls) = agg_fixture();
        let mut agg = HashAggregator::new(keys, calls).unwrap();
        agg.update(
            &batch(vec![1, 2, 1, 2, 1], vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            &cost(),
        )
        .unwrap();
        assert_eq!(agg.num_groups(), 2);
        let out = agg.finish().unwrap();
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
        let (keys, calls) = agg_fixture();
        let b1 = batch(vec![1, 2, 3], vec![1.0, 2.0, 3.0]);
        let b2 = batch(vec![2, 3, 4], vec![20.0, 30.0, 40.0]);

        // Single pass.
        let mut single = HashAggregator::new(keys.clone(), calls.clone()).unwrap();
        single.update(&b1, &cost()).unwrap();
        single.update(&b2, &cost()).unwrap();
        let expect = single.finish().unwrap();

        // Partial per "split", then merge.
        let mut p1 = HashAggregator::new(keys.clone(), calls.clone()).unwrap();
        p1.update(&b1, &cost()).unwrap();
        let mut p2 = HashAggregator::new(keys, calls).unwrap();
        p2.update(&b2, &cost()).unwrap();
        p1.merge(p2).unwrap();
        let got = p1.finish().unwrap();

        assert_eq!(got.rows(), expect.rows());
    }

    #[test]
    fn aggregation_with_null_keys() {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64, true)]));
        let mut builder = ArrayBuilder::new(DataType::Int64);
        builder.push_i64(1);
        builder.push_null();
        builder.push_null();
        let b = RecordBatch::try_new(schema, vec![Arc::new(builder.finish())]).unwrap();
        let mut agg = HashAggregator::new(
            vec![(ScalarExpr::col(0, "k", DataType::Int64), "k".into())],
            vec![AggregateCall {
                func: AggFunc::Count,
                arg: None,
                output_name: "n".into(),
            }],
        )
        .unwrap();
        agg.update(&b, &cost()).unwrap();
        let out = agg.finish().unwrap();
        // NULL is one group with count 2.
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.row(1), vec![Scalar::Null, Scalar::Int64(2)]);
    }

    #[test]
    fn global_aggregate_no_keys() {
        let mut agg = HashAggregator::new(
            vec![],
            vec![AggregateCall {
                func: AggFunc::Max,
                arg: Some(ScalarExpr::col(0, "id", DataType::Int64)),
                output_name: "m".into(),
            }],
        )
        .unwrap();
        agg.update(&batch(vec![5, 9, 3], vec![0.0; 3]), &cost())
            .unwrap();
        let out = agg.finish().unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0), vec![Scalar::Int64(9)]);
    }

    #[test]
    fn sort_topn_limit() {
        let b1 = batch(vec![3, 1], vec![0.3, 0.1]);
        let b2 = batch(vec![4, 2], vec![0.4, 0.2]);
        let keys = [SortKey {
            column: 0,
            ascending: true,
            nulls_first: true,
        }];
        let (sorted, _) = run_sort(&[b1.clone(), b2.clone()], &keys, &cost()).unwrap();
        assert_eq!(sorted.column(0).as_i64().unwrap().values, vec![1, 2, 3, 4]);
        let (top, _) = run_topn(&[b1.clone(), b2.clone()], &keys, 2, &cost()).unwrap();
        assert_eq!(top.column(0).as_i64().unwrap().values, vec![1, 2]);
        let limited = run_limit(&[b1, b2], 3).unwrap();
        let total: usize = limited.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 3);
    }
}
