//! The embedded SQL executor: interprets Substrait plans over parq objects
//! with vectorized columnar kernels.
//!
//! This is OCS's own engine, independent of the `dsq` query engine (as in
//! the paper, where OCS embeds its own SQL engine and Presto merely ships
//! plans to it). What is its own is reading the verified plan, the scan
//! (row-group pruning, late materialization, the chunk cache), the wire
//! rules, and `price`; output types are the ones planck inferred when it
//! verified the plan. The operators and the pipeline that drives them are
//! [`columnar::ops`], the code the compute-layer engine runs too, and a
//! filter's prunable conjuncts are [`RangePredicate::lower`]'s.

use std::mem::take;
use std::sync::Arc;

use columnar::kernels::selection::Selection;
use columnar::ops::{self, Aggregation, CostKind, Output, Pipeline, Sink, Stage};
use columnar::prelude::*;
use columnar::sort::SortKey;
use netsim::{CostParams, ExecStats, Work};
use parq::{ParqReader, RangePredicate};
use rayon::prelude::*;
use substrait_ir::{Expr, Rel, VerifiedPlan};

use crate::cache::{ChunkKey, NodeCaches, ObjectId};
use crate::{OcsError, OcsResult};

/// Resource consumption of one in-storage execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutorStats {
    /// Serial operator work (everything downstream of the scan), by
    /// efficiency channel.
    pub work: Work,
    /// The scan stage: one entry per row group the statistics kept, its
    /// decode plus, when the scan filters, its mask evaluation. Each entry
    /// is independent of the others, so a node bills this stage as the
    /// LPT makespan over its cores rather than the serial sum.
    pub scan_work: Vec<Work>,
    /// Uncompressed bytes decoded.
    pub uncompressed_bytes: u64,
    /// Every counter that crosses the wire, accumulated in place: disk
    /// bytes, rows scanned (after row-group pruning) and returned, row
    /// groups skipped and bytes never decoded by late materialization,
    /// row-group cache hits / misses and the bytes they kept off the cost
    /// ledger. The seconds and spans of the block are the storage node's
    /// to fill, once it has priced `work` and `scan_work`.
    pub wire: ExecStats,
}

/// What scanning one row group produced.
struct GroupScan {
    /// The group's surviving rows (None when the mask killed them all).
    batch: Option<RecordBatch>,
    /// Decode (+ mask) work for this group: one makespan lane.
    work: Work,
    /// Uncompressed bytes actually decoded for this group.
    uncompressed_bytes: u64,
    /// The group's wire counters, folded into the request's by `merge`.
    wire: ExecStats,
}

/// Fetch one column chunk, through the row-group cache when one is bound,
/// and count what it cost into `wire`. A hit pulls nothing from disk and
/// decodes nothing, so it bills zero and records the disk + decode bytes
/// it kept off the ledger instead; a miss is counted only when a cache is
/// bound. Returns the array and the bytes decoded (0 on a hit).
fn fetch_chunk(
    reader: &ParqReader,
    cache: Option<(&NodeCaches, &ObjectId)>,
    rg: usize,
    col: usize,
    wire: &mut ExecStats,
) -> OcsResult<(Arc<Array>, u64)> {
    let compressed = reader.chunk_compressed_bytes(rg, col)?;
    let cache = cache.map(|(caches, object)| {
        let key: ChunkKey = (
            object.bucket.clone(),
            object.key.clone(),
            object.version,
            rg,
            col,
        );
        (caches, key)
    });
    if let Some((caches, key)) = &cache {
        if let Some(array) = caches.row_group.get(key) {
            wire.rg_cache_hits += 1;
            wire.cache_bytes_avoided += compressed + array.byte_size() as u64;
            return Ok((array, 0));
        }
    }
    wire.disk_bytes += compressed;
    let array = Arc::new(reader.read_chunk(rg, col)?);
    let decoded = array.byte_size() as u64;
    if let Some((caches, key)) = cache {
        wire.rg_cache_misses += 1;
        if caches.row_group.insert(key, array.clone(), decoded.max(1)) {
            obs::flight().record(obs::FlightKind::CacheAdmit, 0, decoded.max(1), 0);
        }
    }
    Ok((array, decoded))
}

/// The embedded executor over one parq object.
pub struct Executor<'a> {
    reader: &'a ParqReader,
    cost: &'a CostParams,
    stats: ExecutorStats,
    caches: Option<(&'a NodeCaches, &'a ObjectId)>,
}

impl<'a> Executor<'a> {
    /// New executor over an open object; no cache is bound.
    pub fn new(reader: &'a ParqReader, cost: &'a CostParams) -> Self {
        Executor {
            reader,
            cost,
            stats: ExecutorStats::default(),
            caches: None,
        }
    }

    /// Bind the node's caches and the scanned object's identity so chunk
    /// reads go through the decoded row-group cache. A disabled tier
    /// leaves the executor on the cold path with zero cache accounting.
    pub fn with_caches(mut self, caches: &'a NodeCaches, object: &'a ObjectId) -> Self {
        if caches.row_group.is_enabled() {
            self.caches = Some((caches, object));
        }
        self
    }

    /// Execute `plan`, returning result batches and resource stats.
    ///
    /// The plan is one planck accepted, so the executor relies on its
    /// guarantees (field references in bounds, operand types agreed, sort
    /// keys plain field references) and carries no checks of its own; each
    /// operator's output types come with it. The plan lowers to the scan
    /// as source plus a chain of [`Pipeline`]s, each sink's output the
    /// next one's source.
    pub fn run(mut self, plan: &VerifiedPlan<'_>) -> OcsResult<(Vec<RecordBatch>, ExecutorStats)> {
        let Some(((Rel::Read { projection, .. }, _), mut rels)) = plan.ops().split_first() else {
            return Err(OcsError::Unverified("plan has no read at its leaf"));
        };
        let projection = projection.as_deref();
        // A filter that reads a column and sits on the read runs inside the
        // scan; any other filter, constants included, is a pipeline stage.
        let (mut filter_pos, mut scan_filter) = (Vec::new(), None);
        if let Some(((Rel::Filter { predicate, .. }, _), rest)) = rels.split_first() {
            predicate.referenced_fields(&mut filter_pos);
            if !filter_pos.is_empty() {
                (scan_filter, rels) = (Some(predicate), rest);
            }
        }
        // The predicate speaks *read output* positions; pruning wants file
        // columns. Whatever lowers, prunes — the whole predicate still
        // masks.
        let prune = scan_filter.map_or_else(Vec::new, |p| RangePredicate::lower(p, projection));
        let filter = scan_filter.map(|p| (p, &filter_pos[..]));
        let mut batches = self.scan(projection, &prune, filter)?;

        // A final `None` collects what the last sink left.
        let mut stages = Vec::new();
        for (i, op) in rels.iter().map(Some).chain([None]).enumerate() {
            let sink = match op {
                Some((Rel::Filter { predicate, .. }, _)) => {
                    stages.push(Stage::Filter(predicate));
                    continue;
                }
                Some((Rel::Project { exprs, .. }, types)) => {
                    stages.push(Stage::Project(exprs, types.schema.clone()));
                    continue;
                }
                Some((
                    Rel::Aggregate {
                        group_by, measures, ..
                    },
                    types,
                )) => {
                    // Typed from the plan: usable even when no row arrives.
                    // The output schema starts with the keys.
                    let keys = group_by
                        .iter()
                        .zip(types.schema.fields())
                        .map(|((e, _), f)| (e, f.data_type));
                    let calls = measures
                        .iter()
                        .zip(&types.measure_args)
                        .map(|(m, t)| (m.func, m.arg.as_ref().zip(*t)));
                    Sink::Aggregate(Box::new(Aggregation::new(keys, calls)?))
                }
                // Fetch directly over Sort is the top-N operator. Untrusted
                // u64s: `offset + limit` must not wrap.
                Some((Rel::Sort { keys, .. }, _)) => match rels.get(i + 1) {
                    Some((Rel::Fetch { offset, limit, .. }, _)) => {
                        Sink::TopN(sort_keys(keys)?, offset.saturating_add(*limit))
                    }
                    _ => Sink::Sort(sort_keys(keys)?),
                },
                Some((Rel::Fetch { offset, limit, .. }, _)) => Sink::Fetch(*offset, *limit),
                Some((Rel::Read { .. }, _)) => {
                    return Err(OcsError::Unverified("read above the plan's leaf"))
                }
                None => Sink::Collect,
            };
            let (cost, work) = (self.cost, &mut self.stats.work);
            let mut bill = |c: ops::Cost| work.add(price(cost, &c));
            let mut pipe = Pipeline::new(take(&mut stages), sink);
            for batch in batches {
                pipe.push(batch, &mut bill)?;
            }
            batches = match (pipe.finish(&mut bill)?, op) {
                // The wire rules. A keyed aggregate over an empty object has
                // nothing to contribute; a global one still emits its row of
                // initial states (COUNT = 0, SUM = NULL) so the engine's
                // final aggregation combines object totals correctly.
                (Output::Aggregation(agg), Some((Rel::Aggregate { group_by, .. }, _)))
                    if !group_by.is_empty() && agg.num_groups() == 0 =>
                {
                    vec![]
                }
                (Output::Aggregation(agg), Some((_, types))) => {
                    vec![agg.finish(types.schema.clone())?]
                }
                // A fetch answers with exactly one batch whenever there was
                // input.
                (Output::Batches(b), Some((Rel::Fetch { .. }, _))) if b.len() > 1 => {
                    vec![RecordBatch::concat(&b)?]
                }
                (Output::Batches(b), _) => b,
                (Output::Aggregation(_), None) => vec![],
            };
        }
        self.stats.wire.rows_returned = ops::total_rows(&batches);
        Ok((batches, self.stats))
    }

    /// The one storage scan, late-materialized: per row group the
    /// statistics keep, decode the columns `filter` references, evaluate
    /// it into a [`Selection`], and skip the group outright when no row
    /// survives; otherwise decode the remaining projected columns, reuse
    /// the filter arrays, and apply the selection (zero-copy when it is
    /// all-true). Without a filter the first phase decodes nothing and no
    /// mask is evaluated. `filter` is the predicate and the output
    /// positions it references.
    ///
    /// Row groups are independent, so they are scanned in parallel;
    /// batches come back in file order and each group's work lands in its
    /// own `scan_work` lane for makespan billing.
    fn scan(
        &mut self,
        projection: Option<&[usize]>,
        prune: &[RangePredicate],
        filter: Option<(&Expr, &[usize])>,
    ) -> OcsResult<Vec<RecordBatch>> {
        let (reader, cost, caches) = (self.reader, self.cost, self.caches);
        let out_cols: Vec<usize> = match projection {
            Some(p) => p.to_vec(),
            None => (0..reader.schema().len()).collect(),
        };
        let filter_pos = filter.map_or(&[][..], |(_, pos)| pos);
        // Both checks bound every position below by `out_cols.len()`.
        let schema = Arc::new(reader.schema().project(&out_cols)?);
        let filter_schema = Arc::new(schema.project(filter_pos)?);
        let payload_pos: Vec<usize> = (0..out_cols.len())
            .filter(|pos| !filter_pos.contains(pos))
            .collect();
        // Chunks are fetched filter columns first: `rank[pos]` is where
        // output position `pos` lands in that order. Rewritten through it,
        // the predicate reads the narrow filter batch.
        let mut rank = vec![0; out_cols.len()];
        for (i, &pos) in filter_pos.iter().chain(&payload_pos).enumerate() {
            rank[pos] = i;
        }
        let mask_pred = filter.map(|(p, _)| (p.remap_fields(&|i| rank[i]), p.op_weight()));

        let scanned: Vec<OcsResult<GroupScan>> = reader
            .prune_row_groups(prune)
            .into_par_iter()
            .map(|rg| -> OcsResult<GroupScan> {
                let mut wire = ExecStats {
                    rows_scanned: reader.row_group_rows(rg)?,
                    ..ExecStats::default()
                };
                let mut arrays = Vec::with_capacity(out_cols.len());

                // Phase 1: filter columns only. Decoded bytes bill; cache
                // hits decode nothing and bill nothing.
                let mut filter_bytes = 0;
                for &pos in filter_pos {
                    let (array, decoded) =
                        fetch_chunk(reader, caches, rg, out_cols[pos], &mut wire)?;
                    filter_bytes += decoded;
                    arrays.push(array);
                }
                let mut work = Work::decode(filter_bytes as f64 * cost.byte_decode);
                let mut sel = None;
                if let Some((pred, weight)) = &mask_pred {
                    work.add(Work::vector(cost.eval_work(wire.rows_scanned, *weight)));
                    let filter_batch = RecordBatch::try_new(filter_schema.clone(), arrays.clone())?;
                    let mask = pred.eval(&filter_batch)?;
                    let s = Selection::from_mask(mask.as_bool()?);
                    if s.is_none() {
                        // Nothing survives: never touch the payload chunks.
                        wire.row_groups_skipped = 1;
                        for &pos in &payload_pos {
                            wire.decoded_bytes_avoided +=
                                reader.chunk_uncompressed_bytes(rg, out_cols[pos])?;
                        }
                        return Ok(GroupScan {
                            batch: None,
                            work,
                            uncompressed_bytes: filter_bytes,
                            wire,
                        });
                    }
                    sel = Some(s);
                }

                // Phase 2: payload columns for the surviving group.
                let mut payload_bytes = 0;
                for &pos in &payload_pos {
                    let (array, decoded) =
                        fetch_chunk(reader, caches, rg, out_cols[pos], &mut wire)?;
                    payload_bytes += decoded;
                    arrays.push(array);
                }
                work.add(Work::decode(payload_bytes as f64 * cost.byte_decode));
                let columns = rank.iter().map(|&i| arrays[i].clone()).collect();
                let full = RecordBatch::try_new(schema.clone(), columns)?;
                let batch = match sel {
                    Some(sel) => sel.apply_batch(&full)?,
                    None => full,
                };
                Ok(GroupScan {
                    batch: Some(batch),
                    work,
                    uncompressed_bytes: filter_bytes + payload_bytes,
                    wire,
                })
            })
            .collect();

        let mut out = Vec::with_capacity(scanned.len());
        for g in scanned {
            let g = g?;
            self.stats.wire.merge(&g.wire);
            self.stats.uncompressed_bytes += g.uncompressed_bytes;
            self.stats.scan_work.push(g.work);
            out.extend(g.batch.filter(|b| b.num_rows() > 0));
        }
        Ok(out)
    }
}

/// The work one pipeline record bills.
fn price(cost: &CostParams, c: &ops::Cost) -> Work {
    match c.kind {
        CostKind::Filter(weight) => Work::vector(cost.eval_work(c.rows, weight)),
        CostKind::Project(weight) => Work::expr(cost.eval_work(c.rows, weight.max(1))),
        CostKind::Aggregate(keys, calls) => Work::vector(cost.agg_work(c.rows, keys, calls)),
        CostKind::Sort(keys) => Work::vector(cost.sort_work(c.rows, keys)),
        CostKind::TopN(keys, n) => Work::vector(cost.topn_work(c.rows, keys, n)),
    }
}

/// Substrait sort fields as column sort keys; planck has verified that
/// each is a plain field reference.
fn sort_keys(keys: &[substrait_ir::SortField]) -> OcsResult<Vec<SortKey>> {
    keys.iter()
        .map(|k| match &k.expr {
            Expr::FieldRef(i) => Ok(SortKey {
                column: *i,
                ascending: k.ascending,
                nulls_first: k.nulls_first,
            }),
            _ => Err(OcsError::Unverified("sort key is not a field reference")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::agg::AggFunc;
    use columnar::kernels::arith::ArithOp;
    use columnar::kernels::cmp::CmpOp;
    use substrait_ir::planck::{verify_untrusted, DiagCode};
    use substrait_ir::{Measure, Plan, SortField};

    fn test_reader() -> ParqReader {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
            Field::new("g", DataType::Int64, false),
        ]));
        let ids: Vec<i64> = (0..1000).collect();
        let vs: Vec<f64> = ids.iter().map(|&i| (i % 100) as f64).collect();
        let gs: Vec<i64> = ids.iter().map(|&i| i % 4).collect();
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![
                Arc::new(Array::from_i64(ids)),
                Arc::new(Array::from_f64(vs)),
                Arc::new(Array::from_i64(gs)),
            ],
        )
        .unwrap();
        let bytes = parq::writer::write_file(
            schema,
            &[batch],
            parq::WriteOptions {
                row_group_rows: 100,
                ..Default::default()
            },
        )
        .unwrap();
        ParqReader::open(bytes.into()).unwrap()
    }

    fn base_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
            Field::new("g", DataType::Int64, false),
        ])
    }

    fn run(plan: Plan) -> (Vec<RecordBatch>, ExecutorStats) {
        let reader = test_reader();
        let cost = CostParams::default();
        let verified = verify_untrusted(&plan).unwrap();
        Executor::new(&reader, &cost).run(&verified).unwrap()
    }

    /// What the eager scan of a filter-over-read plan does, from the
    /// reader alone: decode every projected chunk of every row group the
    /// statistics keep, then filter. The surviving rows, and the scan's
    /// `[rows_scanned, uncompressed_bytes, disk_bytes]`.
    fn eager_reference(plan: &Plan) -> (Vec<Vec<Scalar>>, [u64; 3]) {
        let Rel::Filter { input, predicate } = &plan.root else {
            panic!("filter-over-read plans only");
        };
        let Rel::Read { projection, .. } = input.as_ref() else {
            panic!("filter-over-read plans only");
        };
        let reader = test_reader();
        let prune = RangePredicate::lower(predicate, projection.as_deref());
        let cols = projection.clone().unwrap_or_else(|| vec![0, 1, 2]);
        let (mut rows, mut bounds) = (Vec::new(), [0u64; 3]);
        for rg in reader.prune_row_groups(&prune) {
            let batch = reader.read_row_group(rg, projection.as_deref()).unwrap();
            bounds[0] += batch.num_rows() as u64;
            bounds[1] += batch.byte_size() as u64;
            bounds[2] += reader.projected_compressed_bytes(rg, &cols).unwrap();
            rows.extend(ops::filter(&batch, predicate).unwrap().rows());
        }
        (rows, bounds)
    }

    /// A filter statistics pruning cannot touch (arith wraps the column)
    /// whose matches all land in row group 0: `id % 1000 < limit`.
    fn clustered_filter_plan(limit: i64, projection: Option<Vec<usize>>) -> Plan {
        Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", base_schema(), projection)),
            predicate: Expr::cmp(
                CmpOp::Lt,
                Expr::arith(ArithOp::Mod, Expr::field(0), Expr::lit(Scalar::Int64(1000))),
                Expr::lit(Scalar::Int64(limit)),
            ),
        })
    }

    #[test]
    fn plain_read_with_projection() {
        let plan = Plan::new(Rel::read("t", base_schema(), Some(vec![2, 0])));
        let (batches, stats) = run(plan);
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 1000);
        assert_eq!(batches[0].schema().names(), vec!["g", "id"]);
        assert_eq!(stats.wire.rows_scanned, 1000);
        assert!(stats.wire.disk_bytes > 0);
        // The decode is all scan work: one lane per row group, no mask.
        assert_eq!(stats.work, Work::zero());
        assert_eq!(stats.scan_work.len(), 10);
        assert!(stats
            .scan_work
            .iter()
            .all(|w| w.decode > 0.0 && w.vector == 0.0));
    }

    #[test]
    fn disabled_cache_counts_no_hits_and_no_misses() {
        let reader = test_reader();
        let cost = CostParams::default();
        let caches = NodeCaches::disabled();
        let object = ObjectId {
            bucket: "lake".into(),
            key: "t/0".into(),
            version: 1,
        };
        for plan in [
            Plan::new(Rel::read("t", base_schema(), None)),
            clustered_filter_plan(50, None),
        ] {
            let (_, stats) = Executor::new(&reader, &cost)
                .with_caches(&caches, &object)
                .run(&verify_untrusted(&plan).unwrap())
                .unwrap();
            assert!(stats.wire.disk_bytes > 0);
            assert_eq!(stats.wire.rg_cache_hits, 0);
            assert_eq!(stats.wire.rg_cache_misses, 0);
        }
    }

    #[test]
    fn filter_prunes_row_groups() {
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", base_schema(), None)),
            predicate: Expr::cmp(CmpOp::GtEq, Expr::field(0), Expr::lit(Scalar::Int64(950))),
        });
        let (batches, stats) = run(plan);
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 50);
        // Only the last of 10 row groups was scanned.
        assert_eq!(stats.wire.rows_scanned, 100);
    }

    #[test]
    fn filter_pruning_respects_read_projection() {
        // Filter on `id` while reading only (v, id): the pruning predicate
        // must map output column 1 back to file column 0.
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", base_schema(), Some(vec![1, 0]))),
            predicate: Expr::cmp(CmpOp::Lt, Expr::field(1), Expr::lit(Scalar::Int64(100))),
        });
        let (batches, stats) = run(plan);
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 100);
        assert_eq!(stats.wire.rows_scanned, 100, "9 of 10 groups pruned");
    }

    #[test]
    fn aggregate_groups() {
        let plan = Plan::new(Rel::Aggregate {
            input: Box::new(Rel::read("t", base_schema(), None)),
            group_by: vec![(Expr::field(2), "g".into())],
            measures: vec![
                Measure {
                    func: AggFunc::Count,
                    arg: None,
                    name: "n".into(),
                },
                Measure {
                    func: AggFunc::Sum,
                    arg: Some(Expr::field(1)),
                    name: "s".into(),
                },
            ],
        });
        let (batches, _) = run(plan);
        assert_eq!(batches.len(), 1);
        let b = &batches[0];
        assert_eq!(b.num_rows(), 4);
        // Each group has 250 rows.
        for r in 0..4 {
            assert_eq!(b.column(1).scalar_at(r), Scalar::Int64(250));
        }
    }

    #[test]
    fn aggregate_over_expression() {
        // MAX((id % 10)) == 9.
        let plan = Plan::new(Rel::Aggregate {
            input: Box::new(Rel::read("t", base_schema(), None)),
            group_by: vec![],
            measures: vec![Measure {
                func: AggFunc::Max,
                arg: Some(Expr::arith(
                    ArithOp::Mod,
                    Expr::field(0),
                    Expr::lit(Scalar::Int64(10)),
                )),
                name: "m".into(),
            }],
        });
        let (batches, _) = run(plan);
        assert_eq!(batches[0].row(0), vec![Scalar::Int64(9)]);
    }

    #[test]
    fn topn_fetch_over_sort() {
        let plan = Plan::new(Rel::Fetch {
            offset: 0,
            limit: 5,
            input: Box::new(Rel::Sort {
                input: Box::new(Rel::read("t", base_schema(), None)),
                keys: vec![SortField {
                    expr: Expr::field(0),
                    ascending: false,
                    nulls_first: false,
                }],
            }),
        });
        let (batches, stats) = run(plan);
        assert_eq!(batches[0].num_rows(), 5);
        assert_eq!(
            batches[0].column(0).as_i64().unwrap().values,
            vec![999, 998, 997, 996, 995]
        );
        assert_eq!(stats.wire.rows_returned, 5);
    }

    #[test]
    fn fetch_with_offset() {
        let plan = Plan::new(Rel::Fetch {
            offset: 2,
            limit: 3,
            input: Box::new(Rel::Sort {
                input: Box::new(Rel::read("t", base_schema(), None)),
                keys: vec![SortField {
                    expr: Expr::field(0),
                    ascending: true,
                    nulls_first: true,
                }],
            }),
        });
        let (batches, _) = run(plan);
        assert_eq!(batches[0].column(0).as_i64().unwrap().values, vec![2, 3, 4]);
    }

    #[test]
    fn fetch_offset_plus_limit_saturates() {
        // `offset` and `limit` are raw varints off the wire: their sum
        // used to panic in debug and wrap to `top_n(.., 0)` in release.
        let fetch = |input: Rel| {
            Plan::new(Rel::Fetch {
                offset: 1,
                limit: u64::MAX,
                input: Box::new(input),
            })
        };
        let sorted = Rel::Sort {
            input: Box::new(Rel::read("t", base_schema(), None)),
            keys: vec![SortField {
                expr: Expr::field(0),
                ascending: true,
                nulls_first: true,
            }],
        };
        let (batches, stats) = run(fetch(sorted));
        assert_eq!(stats.wire.rows_returned, 999);
        let ids = &batches[0].column(0).as_i64().unwrap().values;
        assert_eq!((ids[0], ids[998]), (1, 999));
        // The plain (no Sort) offset/limit path adds the same two numbers.
        let (_, stats) = run(fetch(Rel::read("t", base_schema(), None)));
        assert_eq!(stats.wire.rows_returned, 999);
    }

    #[test]
    fn project_computes_expressions() {
        let plan = Plan::new(Rel::Project {
            input: Box::new(Rel::read("t", base_schema(), None)),
            exprs: vec![(
                Expr::arith(
                    ArithOp::Div,
                    Expr::arith(ArithOp::Mod, Expr::field(0), Expr::lit(Scalar::Int64(100))),
                    Expr::lit(Scalar::Int64(10)),
                ),
                "bucket".into(),
            )],
        });
        let (batches, _) = run(plan);
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 1000);
        assert_eq!(batches[0].schema().names(), vec!["bucket"]);
        assert_eq!(batches[0].column(0).scalar_at(55), Scalar::Int64(5));
    }

    #[test]
    fn full_chain_filter_agg_topn() {
        // The Laghos shape in miniature.
        let plan = Plan::new(Rel::Fetch {
            offset: 0,
            limit: 3,
            input: Box::new(Rel::Sort {
                keys: vec![SortField {
                    expr: Expr::field(1),
                    ascending: false,
                    nulls_first: false,
                }],
                input: Box::new(Rel::Aggregate {
                    group_by: vec![(Expr::field(0), "g".into())],
                    measures: vec![Measure {
                        func: AggFunc::Avg,
                        arg: Some(Expr::field(1)),
                        name: "avg_v".into(),
                    }],
                    input: Box::new(Rel::Filter {
                        predicate: Expr::Between {
                            expr: Box::new(Expr::field(1)),
                            lo: Box::new(Expr::lit(Scalar::Float64(10.0))),
                            hi: Box::new(Expr::lit(Scalar::Float64(90.0))),
                        },
                        input: Box::new(Rel::read("t", base_schema(), Some(vec![2, 1]))),
                    }),
                }),
            }),
        });
        let (batches, stats) = run(plan);
        assert_eq!(batches[0].num_rows(), 3);
        assert!(stats.wire.rows_returned == 3);
        // Bit patterns captured at the parent of the `columnar::ops` change:
        // moving the operator bodies must not move a frame or a work unit.
        assert_eq!(batches.len(), 1);
        assert_eq!(work_bits(&stats.work), [0, 0x40c7_c300_0000_0000, 0]);
        assert_eq!(stats.scan_work.len(), 10);
    }

    fn work_bits(w: &Work) -> [u64; 3] {
        [w.decode.to_bits(), w.vector.to_bits(), w.expr.to_bits()]
    }

    #[test]
    fn fetch_past_the_end_is_one_empty_batch() {
        // Same provenance as the golden above: a non-empty input always
        // answers with exactly one batch, so the stream carries one frame.
        let plan = Plan::new(Rel::Fetch {
            offset: 5000,
            limit: 10,
            input: Box::new(Rel::read("t", base_schema(), Some(vec![0]))),
        });
        let (batches, stats) = run(plan);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].num_rows(), 0);
        assert_eq!(batches[0].schema().names(), vec!["id"]);
        // The read's decode moved from `work` to one lane per group; summed
        // in group order the lanes are the golden's serial total.
        assert_eq!(work_bits(&stats.work), [0, 0, 0]);
        assert_eq!(stats.scan_work.len(), 10);
        let decode = stats.scan_work.iter().fold(0.0, |s, w| s + w.decode);
        assert_eq!(decode.to_bits(), 0x40bc_2000_0000_0000);
        // ...and no input at all answers with none.
        let nothing = Rel::Filter {
            input: Box::new(Rel::read("t", base_schema(), None)),
            predicate: Expr::cmp(CmpOp::Lt, Expr::field(0), Expr::lit(Scalar::Int64(0))),
        };
        for rel in [
            Rel::Fetch {
                offset: 0,
                limit: 5,
                input: Box::new(nothing.clone()),
            },
            Rel::Sort {
                input: Box::new(nothing.clone()),
                keys: vec![SortField {
                    expr: Expr::field(0),
                    ascending: true,
                    nulls_first: true,
                }],
            },
            // A keyed aggregate over nothing contributes nothing...
            Rel::Aggregate {
                input: Box::new(nothing.clone()),
                group_by: vec![(Expr::field(2), "g".into())],
                measures: vec![],
            },
        ] {
            assert!(run(Plan::new(rel)).0.is_empty());
        }
        // ...while a global one still reports its initial state.
        let (batches, _) = run(Plan::new(Rel::Aggregate {
            input: Box::new(nothing),
            group_by: vec![],
            measures: vec![Measure {
                func: AggFunc::Count,
                arg: None,
                name: "n".into(),
            }],
        }));
        assert_eq!(batches[0].rows(), vec![vec![Scalar::Int64(0)]]);
    }

    #[test]
    fn late_mat_skips_masked_row_groups() {
        // `id % 1000 < 50` survives stats pruning (arith hides the column)
        // but only rows 0..49 — all in the first of 10 groups — match.
        let (batches, stats) = run(clustered_filter_plan(50, None));
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 50);
        assert_eq!(stats.wire.rows_scanned, 1000, "no group is stats-prunable");
        assert_eq!(
            stats.wire.row_groups_skipped, 9,
            "mask kills 9 of 10 groups"
        );
        assert!(
            stats.wire.decoded_bytes_avoided > 0,
            "skipped groups never decode v and g"
        );
        assert_eq!(stats.scan_work.len(), 10, "one work lane per row group");
    }

    #[test]
    fn late_mat_matches_eager_path() {
        for plan in [
            clustered_filter_plan(50, None),
            clustered_filter_plan(0, None),
            clustered_filter_plan(1000, Some(vec![2, 0])),
            clustered_filter_plan(50, Some(vec![1, 0])),
        ] {
            let (eager, [eager_scanned, eager_decoded, _]) = eager_reference(&plan);
            let (late, late_stats) = run(plan);
            let rows = |bs: &[RecordBatch]| bs.iter().map(|b| b.num_rows()).sum::<usize>();
            assert_eq!(rows(&late), eager.len());
            let flat: Vec<Vec<Scalar>> = late.iter().flat_map(|b| b.rows()).collect();
            assert_eq!(flat, eager);
            assert_eq!(late_stats.wire.rows_returned, eager.len() as u64);
            assert_eq!(late_stats.wire.rows_scanned, eager_scanned);
            assert!(late_stats.uncompressed_bytes <= eager_decoded);
        }
    }

    #[test]
    fn late_mat_all_true_selection_decodes_everything_once() {
        // `id % 1000 < 1000` matches every row: the scan must bill exactly
        // what the eager path bills — same bytes, nothing avoided.
        let plan = clustered_filter_plan(1000, None);
        let (_, [_, eager_decoded, eager_disk]) = eager_reference(&plan);
        let (late, late_stats) = run(plan);
        assert_eq!(late.iter().map(|b| b.num_rows()).sum::<usize>(), 1000);
        assert_eq!(late_stats.uncompressed_bytes, eager_decoded);
        assert_eq!(late_stats.wire.disk_bytes, eager_disk);
        assert_eq!(late_stats.wire.row_groups_skipped, 0);
        assert_eq!(late_stats.wire.decoded_bytes_avoided, 0);
    }

    #[test]
    fn late_mat_halves_decoded_bytes_on_low_selectivity_scan() {
        // The Laghos shape: select every column, filter to a tiny clustered
        // slice. The acceptance bar is a >=2x decoded-bytes reduction.
        let plan = clustered_filter_plan(10, None);
        let (_, [_, eager_decoded, eager_disk]) = eager_reference(&plan);
        let (_, late) = run(plan);
        assert!(
            late.uncompressed_bytes * 2 <= eager_decoded,
            "late {} vs eager {eager_decoded}",
            late.uncompressed_bytes,
        );
        assert!(late.wire.disk_bytes < eager_disk);
    }

    #[test]
    fn invalid_plans_rejected() {
        // The executor only takes a verified plan; these two never become
        // one, so they never reach it.
        let plan = Plan::new(Rel::Sort {
            input: Box::new(Rel::read("t", base_schema(), None)),
            keys: vec![SortField {
                expr: Expr::arith(ArithOp::Add, Expr::field(0), Expr::lit(Scalar::Int64(1))),
                ascending: true,
                nulls_first: true,
            }],
        });
        let ds = verify_untrusted(&plan).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::SortKeyNotFieldRef);
        // Ill-typed filter.
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", base_schema(), None)),
            predicate: Expr::field(0),
        });
        let ds = verify_untrusted(&plan).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::FilterNotBoolean);
    }
}
