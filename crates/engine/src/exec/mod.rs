//! Physical execution: split-parallel leaf pipelines feeding a final
//! single-stream stage (Presto's partial/final operator model), with every
//! unit of work billed to the `netsim` cost model.
//!
//! The operators and the pipeline that runs them are [`columnar::ops`] — the
//! code the OCS storage executor runs too, so a pushed-down operator
//! computes in storage what it would here. This module owns what is the
//! engine's: reading the `LogicalPlan` into pipelines, the split / partial
//! / final staging, and `price`, which turns the pipelines' cost records
//! into `Work`.

use std::collections::HashMap;
use std::iter::successors;
use std::sync::Arc;

use columnar::ops::{self, Aggregation, CostKind, Output, Pipeline, Sink, Stage};
use columnar::prelude::*;
use netsim::{split_phase, ClusterSpec, CostParams, ExecStats, Ledger, Phase, SplitPhase, Work};
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

/// The streaming operators at the head of `ops` as pipeline stages, and
/// the blocking operator that ends them, if any.
fn lower<'a>(
    ops: &[&'a LogicalPlan],
) -> EResult<(Vec<Stage<'a, ScalarExpr>>, Option<&'a LogicalPlan>)> {
    let mut stages = Vec::new();
    for &op in ops {
        match op {
            LogicalPlan::Filter { predicate, .. } => stages.push(Stage::Filter(predicate)),
            LogicalPlan::Project { exprs, .. } => stages.push(Stage::Project(exprs, op.schema()?)),
            _ => return Ok((stages, Some(op))),
        }
    }
    Ok((stages, None))
}

/// A blocking `op` as a pipeline sink; no operator collects.
fn sink(op: Option<&LogicalPlan>) -> EResult<Sink<'_, ScalarExpr>> {
    Ok(match op {
        Some(LogicalPlan::Aggregate { group_by, aggs, .. }) => {
            Sink::Aggregate(Box::new(aggregation(group_by, aggs)?))
        }
        Some(LogicalPlan::Sort { keys, .. }) => Sink::Sort(keys.clone()),
        Some(LogicalPlan::TopN { keys, limit, .. }) => Sink::TopN(keys.clone(), *limit),
        Some(LogicalPlan::Limit { limit, .. }) => Sink::Fetch(0, *limit),
        _ => Sink::Collect,
    })
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

/// Execute a linear plan chain.
///
/// `tracer` receives the query's span tree on the simulated clock;
/// `analysis_s` is the coordinator's plan-analysis cost, billed here so
/// the trace's phase spans can be laid out in execution order from one
/// place.
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
            EngineError::connector(format!("no connector registered as '{}'", scan.connector))
        })?
        .clone();
    let splits = crate::spi::splits(&table, &scan);
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

    // The operator chain leaf→root above the scan. The first blocking
    // operator and everything above it run in the final stage.
    let mut ops: Vec<&LogicalPlan> = successors(Some(plan), |op| op.input()).collect();
    ops.pop();
    ops.reverse();
    let final_ops = &ops[lower(&ops)?.0.len()..];
    let blocking = final_ops.first().copied();

    // ---- Parallel split phase ----------------------------------------
    // Each worker pulls its split's stream batch-at-a-time through one
    // pipeline: the streaming operators into the blocking one's partial
    // form. Consumption overlaps production, and each pulled batch's
    // compute seconds are pinned to the frame that carried it.
    let split_outputs: Vec<EResult<_>> = splits
        .par_iter()
        .map(|split| {
            let page = provider.create(split)?;
            let mut stream = page.stream;
            let stages = lower(&ops)?.0;
            // A sort defers to the final stage.
            let split_sink = sink(blocking.filter(|op| !matches!(op, LogicalPlan::Sort { .. })))?;
            let mut pipe = Pipeline::new(stages, split_sink);
            let mut batch_compute_s: Vec<f64> = Vec::new();
            while let Some(batch) = stream.next_batch()? {
                let mut work = Work::zero();
                pipe.push(batch, &mut |c| work.add(price(cost, &c)))?;
                batch_compute_s.push(cluster.compute.core_seconds_for(work));
            }
            // A top-N runs once the stream has drained.
            let mut tail_work = Work::zero();
            let partial = pipe.finish(&mut |c| tail_work.add(price(cost, &c)))?;
            let mut report = stream.finish()?;
            report.fold_compute(
                &batch_compute_s,
                cluster.compute.core_seconds_for(tail_work),
            );
            Ok((partial, report, page.substrait_gen_s))
        })
        .collect();

    // Separate what each split produced from how it was billed.
    let (mut partial_aggs, mut gathered) = (Vec::new(), Vec::new());
    let mut reports = Vec::with_capacity(split_outputs.len());
    let mut substrait = 0.0;
    for o in split_outputs {
        let (partial, report, substrait_gen_s) = o?;
        match partial {
            Output::Aggregation(agg) => partial_aggs.push(agg),
            Output::Batches(b) => gathered.extend(b),
        }
        reports.push(report);
        substrait += substrait_gen_s;
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
    cursor += phase.overlapped_s;

    // Query totals of the storage-side counters. The spans were grafted
    // above; dropping them first keeps `merge` from cloning any.
    let mut stats = ExecStats::default();
    for mut r in reports {
        r.stats.spans.clear();
        stats.merge(&r.stats);
    }

    // ---- Final stage ---------------------------------------------------
    // Per-operator (name, output rows, work) for the final span's children,
    // from the same `Work` units billed to the ledger so the children sum
    // to the final span. The blocking operator merges the splits' outputs.
    let mut spans: Vec<(String, u64, Work)> = final_ops
        .iter()
        .map(|op| (op.name().to_ascii_lowercase(), 0, Work::zero()))
        .collect();
    if let Some((name, ..)) = spans.first_mut() {
        name.insert_str(0, "merge_");
    }
    // Partial aggregations combine; anything else was gathered for the
    // blocking operator to run over once more, at the head of the chain.
    let (mut current, mut start) = (gathered, 0);
    if let Some(op @ LogicalPlan::Aggregate { group_by, aggs, .. }) = blocking {
        let mut merged = aggregation(group_by, aggs)?;
        let mut w = Work::zero();
        for agg in partial_aggs {
            let groups = agg.num_groups() as f64;
            merged.merge(&agg)?;
            w.add(Work::vector(
                groups * cost.agg_update * aggs.len().max(1) as f64,
            ));
        }
        current = vec![merged.finish(op.schema()?)?];
        spans[0] = ("merge_aggregate".into(), ops::total_rows(&current), w);
        start = 1;
    }
    // The rest (e.g. a Sort above the Aggregate) is a chain of pipelines:
    // streaming operators up to the next blocking one, their sink, whose
    // output is the next pipeline's source.
    while start < final_ops.len() {
        let (stages, blocking) = lower(&final_ops[start..])?;
        let end = start + stages.len();
        let slots = &mut spans[start..];
        let mut bill = |c: ops::Cost| {
            slots[c.op].1 += c.rows_out;
            slots[c.op].2.add(price(cost, &c));
        };
        let mut pipe = Pipeline::new(stages, sink(blocking)?);
        for batch in current {
            pipe.push(batch, &mut bill)?;
        }
        current = match pipe.finish(&mut bill)? {
            Output::Batches(b) => b,
            // Only an `Aggregate` at `end` sinks into an aggregation.
            Output::Aggregation(agg) => vec![agg.finish(final_ops[end].schema()?)?],
        };
        // A sink passes on what it outputs.
        if let Some(slot) = spans.get_mut(end) {
            slot.1 = ops::total_rows(&current);
        }
        start = end + 1;
    }
    let mut final_work = Work::zero();
    for (_, _, w) in &spans {
        final_work.add(*w);
    }
    // Final stage runs on a handful of driver threads; bill one lane.
    let final_s = cluster.compute.core_seconds_for(final_work);
    ledger.add(Phase::ComputeCpu, final_s);
    // The final-stage span is the root's last sequential child; its
    // operator children are laid back-to-back inside it with the same
    // core-seconds the ledger was billed.
    if final_s > 0.0 {
        let final_id = tracer.record(
            Phase::ComputeCpu.label(),
            "phase",
            Some(root_id),
            cursor,
            cursor + final_s,
        );
        let mut op_cursor = cursor;
        for (name, rows, w) in &spans {
            let secs = cluster.compute.core_seconds_for(*w);
            if secs <= 0.0 {
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
        // Names/nullability may differ slightly (e.g. empty vs non-empty
        // paths); rebuild against the plan schema for a stable contract.
        let all = RecordBatch::concat(&current)?;
        RecordBatch::try_new(schema, all.columns().to_vec()).unwrap_or(all)
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
