//! Physical execution: split-parallel leaf pipelines feeding a final
//! single-stream stage (Presto's partial/final operator model), with every
//! unit of work billed to the `netsim` cost model.
//!
//! The operator bodies are [`columnar::ops`] — the same code the OCS
//! storage executor runs, so a pushed-down operator computes in storage
//! what it would here. This module owns what is the engine's: reading the
//! `LogicalPlan`, the split / partial / final staging, and the one
//! `CostParams` call per operator that prices it.

use std::collections::HashMap;
use std::sync::Arc;

use columnar::ops::{self, Aggregation};
use columnar::prelude::*;
use netsim::{
    split_phase, ClusterSpec, CostParams, ExecStats, Ledger, Phase, SplitPhase, SplitReport, Work,
};
use rayon::prelude::*;

use crate::catalog::Metastore;
use crate::error::{EResult, EngineError};
use crate::expr::{AggregateCall, ScalarExpr};
use crate::plan::LogicalPlan;
use crate::spi::Connector;

/// Everything a finished query reports back.
#[derive(Debug)]
pub struct ExecutionOutcome {
    /// The plan's output rows (pre client output-projection).
    pub batch: RecordBatch,
    /// Simulated time, bucketed by phase.
    pub ledger: Ledger,
    /// Number of splits executed.
    pub splits: usize,
    /// Storage-side statistics summed over every split's trailer (late
    /// materialization and cache counters, core-seconds, rows). `spans` is
    /// empty: the split spans were grafted into the query's trace.
    pub stats: ExecStats,
    /// The priced split phase: overlapped vs. additive seconds, bytes moved
    /// storage → compute (the paper's data-movement metric), streaming
    /// observability.
    pub pipeline: SplitPhase,
    /// Per-resource utilization timelines over the split phase, on the
    /// query's simulated clock — the input to bottleneck attribution and
    /// the Chrome counter tracks.
    pub profile: obs::Profile,
}

/// Per-split partial result.
enum Partial<'a> {
    Batches(Vec<RecordBatch>),
    Agg(Box<Aggregation<'a, ScalarExpr>>),
}

struct SplitOutput<'a> {
    partial: Partial<'a>,
    report: SplitReport,
    substrait_gen_s: f64,
}

/// The aggregation state of an `Aggregate` node, typed from its plan.
fn aggregation<'a>(
    group_by: &'a [(ScalarExpr, String)],
    aggs: &'a [AggregateCall],
) -> EResult<Aggregation<'a, ScalarExpr>> {
    let keys = group_by.iter().map(|(e, _)| (e, e.data_type()));
    let calls = aggs
        .iter()
        .map(|a| (a.func, a.arg.as_ref().map(|e| (e, e.data_type()))));
    Ok(Aggregation::new(keys, calls)?)
}

/// Run one operator over gathered batches, returning its output and the
/// work it bills. Shared by the streaming prefix (one batch at a time), a
/// split's tail (top-N / limit over its own survivors), the merge of the
/// split partials, and every operator above the blocking one.
fn run_op(
    op: &LogicalPlan,
    input: &[RecordBatch],
    cost: &CostParams,
) -> EResult<(Vec<RecordBatch>, Work)> {
    let mut work = Work::zero();
    let out = match op {
        LogicalPlan::Filter { predicate, .. } => {
            let weight = predicate.weight();
            let mut next = Vec::with_capacity(input.len());
            for b in input {
                work.add(Work::vector(cost.eval_work(b.num_rows() as u64, weight)));
                next.push(ops::filter(b, predicate)?);
            }
            next
        }
        LogicalPlan::Project { exprs, .. } => {
            let schema = op.schema()?;
            let weight: u32 = exprs.iter().map(|(e, _)| e.weight()).sum();
            let mut next = Vec::with_capacity(input.len());
            for b in input {
                work.add(Work::expr(
                    cost.eval_work(b.num_rows() as u64, weight.max(1)),
                ));
                next.push(ops::project(b, exprs, &schema)?);
            }
            next
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            let mut agg = aggregation(group_by, aggs)?;
            let mut units = 0.0;
            for b in input {
                units += cost.agg_work(b.num_rows() as u64, group_by.len(), aggs.len());
                agg.update(b)?;
            }
            work.add(Work::vector(units));
            vec![agg.finish(op.schema()?)?]
        }
        LogicalPlan::Sort { keys, .. } => {
            work.add(Work::vector(
                cost.sort_work(ops::total_rows(input), keys.len()),
            ));
            ops::sort(input, keys)?
        }
        LogicalPlan::TopN { keys, limit, .. } => {
            work.add(Work::vector(cost.topn_work(
                ops::total_rows(input),
                keys.len(),
                *limit,
            )));
            ops::top_n(input, keys, *limit)?
        }
        LogicalPlan::Limit { limit, .. } => ops::fetch(input, 0, *limit)?,
        LogicalPlan::TableScan(_) => return Err(EngineError::Execution("scan above leaf".into())),
    };
    Ok((out, work))
}

/// Execute a linear plan chain.
///
/// `tracer` receives the query's span tree on the simulated clock (pass
/// [`obs::Tracer::disabled`] to skip all span work); `analysis_s` is the
/// coordinator's plan-analysis cost, billed here so the trace's phase
/// spans can be laid out in execution order from one place.
pub fn execute_plan(
    plan: &LogicalPlan,
    metastore: &Metastore,
    connectors: &HashMap<String, Arc<dyn Connector>>,
    cluster: &ClusterSpec,
    cost: &CostParams,
    tracer: &obs::Tracer,
    analysis_s: f64,
) -> EResult<ExecutionOutcome> {
    let mut ledger = Ledger::new();
    let scan = plan.scan().clone();
    let table = metastore.table(&scan.table)?;
    let connector = connectors
        .get(&scan.connector)
        .ok_or_else(|| {
            EngineError::Connector(format!("no connector registered as '{}'", scan.connector))
        })?
        .clone();
    let splits = connector.split_manager().splits(&table, &scan)?;
    let provider = connector.page_source_provider();

    // Coordinator overheads (Table 3's "Others").
    let other_s = cluster
        .compute
        .core_seconds(cost.query_fixed + cost.sched_per_split * splits.len() as f64);
    ledger.add(Phase::Other, other_s);
    ledger.add(Phase::PlanAnalysis, analysis_s);

    // The query's root span. The netsim clock is computed, not observed,
    // so phases are laid out back-to-back as their seconds become known;
    // `cursor` is the layout position on the simulated clock.
    let root = tracer.start("query", "phase", None, 0.0);
    let root_id = root.id();
    let mut cursor = Ledger::layout_spans(
        tracer,
        root_id,
        0.0,
        &[(Phase::Other, other_s), (Phase::PlanAnalysis, analysis_s)],
    );

    // Collect the operator chain leaf→root (excluding the scan).
    let mut ops: Vec<&LogicalPlan> = Vec::new();
    {
        let mut cur = plan;
        while let Some(next) = cur.input() {
            ops.push(cur);
            cur = next;
        }
        ops.reverse();
    }
    // Streaming prefix (Filter/Project), then one optional blocking op,
    // then final-stage ops.
    let mut streaming: Vec<&LogicalPlan> = Vec::new();
    let mut blocking: Option<&LogicalPlan> = None;
    let mut final_ops: Vec<&LogicalPlan> = Vec::new();
    for op in ops {
        if blocking.is_some() {
            final_ops.push(op);
        } else {
            match op {
                LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => streaming.push(op),
                other => blocking = Some(other),
            }
        }
    }

    // ---- Parallel split phase ----------------------------------------
    // Each worker pulls its split's stream batch-at-a-time: streaming
    // Filter/Project and partial-aggregation updates run per yielded
    // batch, so consumption overlaps production and per-batch compute
    // seconds can be pinned to the frame that carried the batch.
    let split_outputs: Vec<EResult<SplitOutput<'_>>> = splits
        .par_iter()
        .map(|split| -> EResult<SplitOutput<'_>> {
            let page = provider.create(split)?;
            let mut stream = page.stream;
            let mut batch_compute_s: Vec<f64> = Vec::new();
            let mut agg = match blocking {
                Some(LogicalPlan::Aggregate { group_by, aggs, .. }) => {
                    Some((aggregation(group_by, aggs)?, group_by.len(), aggs.len()))
                }
                _ => None,
            };
            let mut agg_units = 0.0;
            let mut survivors: Vec<RecordBatch> = Vec::new();
            while let Some(batch) = stream.next_batch()? {
                let mut work = Work::zero();
                let mut cur = Some(batch);
                for op in &streaming {
                    // An emptied batch ends the chain for this batch.
                    let Some(b) = cur.take() else { break };
                    let (mut out, w) = run_op(op, std::slice::from_ref(&b), cost)?;
                    work.add(w);
                    cur = out.pop().filter(|b| b.num_rows() > 0);
                }
                if let Some(b) = cur {
                    match agg.as_mut() {
                        Some((agg, nkeys, naggs)) => {
                            // Billed as the difference of running totals.
                            let before = agg_units;
                            agg_units += cost.agg_work(b.num_rows() as u64, *nkeys, *naggs);
                            agg.update(&b)?;
                            work.add(Work::vector(agg_units - before));
                        }
                        None => survivors.push(b),
                    }
                }
                batch_compute_s.push(cluster.compute.core_seconds_for(work));
            }
            // Tail ops that can only run once the stream has drained.
            let mut tail_work = Work::zero();
            let partial = if let Some((agg, ..)) = agg {
                Partial::Agg(Box::new(agg))
            } else {
                match blocking {
                    Some(op @ (LogicalPlan::TopN { .. } | LogicalPlan::Limit { .. })) => {
                        let (out, w) = run_op(op, &survivors, cost)?;
                        tail_work.add(w);
                        Partial::Batches(out)
                    }
                    // Sort defers to the final stage.
                    _ => Partial::Batches(survivors),
                }
            };
            let mut report = stream.finish()?;
            report.fold_compute(
                &batch_compute_s,
                cluster.compute.core_seconds_for(tail_work),
            );
            Ok(SplitOutput {
                partial,
                report,
                substrait_gen_s: page.substrait_gen_s,
            })
        })
        .collect();

    // Separate what each split produced from how it was billed.
    let mut partials = Vec::with_capacity(split_outputs.len());
    let mut reports = Vec::with_capacity(split_outputs.len());
    let mut substrait = 0.0;
    for o in split_outputs {
        let o = o?;
        partials.push(o.partial);
        reports.push(o.report);
        substrait += o.substrait_gen_s;
    }

    // Substrait IR generation happens before any request is issued; it is
    // not part of the frame pipeline and stays additive.
    ledger.add(Phase::SubstraitGen, substrait);
    cursor = Ledger::layout_spans(tracer, root_id, cursor, &[(Phase::SubstraitGen, substrait)]);

    // Bill the overlapped makespan of the six-stage frame pipeline, split
    // into ledger phases so the breakdown still says *where* the time went.
    let phase = split_phase(&reports, cluster);
    for &(p, share) in &phase.phase_shares {
        ledger.add(p, share);
    }
    // Per-resource utilization over the phase, which starts at `cursor`.
    let profile = phase.profile(cursor);

    // The split-phase span covers the overlapped makespan. Its children:
    // the six apportioned stage shares laid back-to-back (their sum is the
    // makespan by construction, so the phase breakdown stays exact), plus
    // one span per split on its *actual* overlapped timeline — split spans
    // run concurrently, and each receives the storage-executor spans that
    // crossed the boundary in its trailer frame, re-scaled into the
    // split's window ([`obs::Tracer::graft`]).
    if tracer.is_enabled() {
        let mut span = tracer.start("split_phase", "phase", Some(root_id), cursor);
        span.attr("splits", reports.len() as u64);
        span.attr("frames", phase.frames);
        span.attr("bytes", phase.moved_bytes);
        span.attr("time_to_first_batch_s", phase.time_to_first_batch_s);
        span.attr("peak_buffered_bytes", phase.peak_buffered_bytes);
        if let Some(b) = profile.bottleneck() {
            span.attr("bottleneck", b.resource.as_str());
            span.attr(
                "bottleneck_util_pct",
                (b.utilization * 100.0).round() as u64,
            );
        }
        let split_phase_id = span.close(cursor + phase.overlapped_s);
        Ledger::layout_spans(tracer, split_phase_id, cursor, &phase.phase_shares);

        for (split_ix, (r, done)) in reports.iter().zip(&phase.split_done_s).enumerate() {
            let end = cursor + done;
            let mut span = tracer.start(
                format!("split[{split_ix}]"),
                "split",
                Some(split_phase_id),
                cursor,
            );
            span.attr("rows", r.stats.rows_returned);
            span.attr("bytes", r.network_bytes);
            span.attr("frames", r.frames.len() as u64);
            if let Some(b) = profile.bottleneck_in(cursor, end) {
                span.attr("bottleneck", b.resource.as_str());
                span.attr(
                    "bottleneck_util_pct",
                    (b.utilization * 100.0).round() as u64,
                );
            }
            let id = span.close(end);
            tracer.graft(&r.stats.spans, id, cursor, end);
        }
    }
    cursor += phase.overlapped_s;

    // Query totals of the storage-side counters. The spans were grafted
    // above (or tracing is off); dropping them first keeps `merge` from
    // cloning any.
    let mut stats = ExecStats::default();
    for mut r in reports {
        r.stats.spans.clear();
        stats.merge(&r.stats);
    }

    // ---- Final stage ---------------------------------------------------
    // Per-operator (name, output rows, core-seconds) for the final span's
    // children; seconds come from the same `Work` units billed to the
    // ledger so the children sum to the final span.
    let mut final_op_spans: Vec<(String, u64, f64)> = Vec::new();
    let mut final_work = Work::zero();
    let mut bill = |name: String, out: &[RecordBatch], w: Work| {
        final_op_spans.push((
            name,
            ops::total_rows(out),
            cluster.compute.core_seconds_for(w),
        ));
        final_work.add(w);
    };

    // Merge the split partials through the blocking operator.
    let mut partial_aggs = Vec::new();
    let mut gathered: Vec<RecordBatch> = Vec::new();
    for p in partials {
        match p {
            Partial::Agg(agg) => partial_aggs.push(agg),
            Partial::Batches(b) => gathered.extend(b),
        }
    }
    let mut current = match blocking {
        None => gathered,
        Some(op @ LogicalPlan::Aggregate { group_by, aggs, .. }) => {
            let mut merged = aggregation(group_by, aggs)?;
            let mut w = Work::zero();
            for agg in partial_aggs {
                let groups = agg.num_groups() as f64;
                merged.merge(&agg)?;
                w.add(Work::vector(
                    groups * cost.agg_update * aggs.len().max(1) as f64,
                ));
            }
            let out = vec![merged.finish(op.schema()?)?];
            bill("merge_aggregate".into(), &out, w);
            out
        }
        Some(op) => {
            let (out, w) = run_op(op, &gathered, cost)?;
            bill(format!("merge_{}", op.name().to_ascii_lowercase()), &out, w);
            out
        }
    };

    // Remaining ops above the blocking one (e.g. Sort after Aggregate).
    for op in final_ops {
        let (out, w) = run_op(op, &current, cost)?;
        bill(op.name().to_ascii_lowercase(), &out, w);
        current = out;
    }
    // Final stage runs on a handful of driver threads; bill one lane.
    let final_s = cluster.compute.core_seconds_for(final_work);
    ledger.add(Phase::ComputeCpu, final_s);
    // The final-stage span is the root's last sequential child; its
    // operator children are laid back-to-back inside it with the same
    // core-seconds the ledger was billed.
    if tracer.is_enabled() && final_s > 0.0 {
        let final_id = tracer.record(
            Phase::ComputeCpu.label(),
            "phase",
            Some(root_id),
            cursor,
            cursor + final_s,
        );
        let mut op_cursor = cursor;
        for (name, rows, secs) in &final_op_spans {
            if *secs <= 0.0 {
                continue;
            }
            let id = tracer.record(
                format!("final.{name}"),
                "op",
                Some(final_id),
                op_cursor,
                op_cursor + secs,
            );
            tracer.attr(id, "rows", *rows);
            op_cursor += secs;
        }
    }
    cursor += final_s;
    root.close(cursor);

    let schema = plan.schema()?;
    let batch = if current.is_empty() {
        RecordBatch::empty(schema)
    } else {
        let all = RecordBatch::concat(&current)?;
        if all.schema() != &schema {
            // Names/nullability may differ slightly (e.g. empty vs non-empty
            // paths); rebuild against the plan schema for a stable contract.
            RecordBatch::try_new(schema, all.columns().to_vec()).unwrap_or(all)
        } else {
            all
        }
    };

    Ok(ExecutionOutcome {
        batch,
        ledger,
        splits: splits.len(),
        stats,
        pipeline: phase,
        profile,
    })
}
