//! Physical execution: split-parallel leaf pipelines feeding a final
//! single-stream stage (Presto's partial/final operator model), with every
//! unit of work billed to the `netsim` cost model.

pub mod operators;

use std::collections::HashMap;
use std::sync::Arc;

use columnar::prelude::*;
use netsim::{
    makespan, pipeline_grouped, ClusterSpec, CostParams, ExecStats, FrameTiming, Ledger, Phase,
    Work,
};
use rayon::prelude::*;

use crate::catalog::Metastore;
use crate::error::{EResult, EngineError};
use crate::plan::LogicalPlan;
use crate::spi::{Connector, PageMetrics};
use operators::{run_filter, run_limit, run_project, run_sort, run_topn, HashAggregator};

/// How the split phase was scheduled: the overlapped pipeline makespan
/// versus the additive stage-barrier model it replaces, plus streaming
/// observability.
#[derive(Debug, Clone, Default)]
pub struct PipelineSummary {
    /// Overlapped wall-clock of the split phase (what the ledger bills).
    pub overlapped_s: f64,
    /// What the same work would cost under the additive model, where every
    /// stage is a global barrier (disk, then decompress, then scan, …).
    pub additive_s: f64,
    /// Completion time of the earliest batch frame through the whole
    /// pipeline — how long the final stage waited for its first rows.
    pub time_to_first_batch_s: f64,
    /// Total frames that crossed the boundary (schema + batch + trailer).
    pub frames: u64,
    /// Sum of per-split peak encoded bytes buffered engine-side while
    /// draining the streams (bounded by the client frame window).
    pub peak_buffered_bytes: u64,
    /// Busy seconds per pipeline stage (disk, decompress, storage CPU,
    /// frontend CPU, network, compute CPU) — the denominator used to
    /// apportion the overlapped makespan into ledger phases.
    pub stage_busy_s: Vec<f64>,
}

/// Everything a finished query reports back.
#[derive(Debug)]
pub struct ExecutionOutcome {
    /// The plan's output rows (pre client output-projection).
    pub batch: RecordBatch,
    /// Simulated time, bucketed by phase.
    pub ledger: Ledger,
    /// Bytes moved storage → compute (the paper's data-movement metric).
    pub moved_bytes: u64,
    /// Transfer requests on the link.
    pub moved_requests: u64,
    /// Number of splits executed.
    pub splits: usize,
    /// Storage-side statistics summed over every split's trailer (late
    /// materialization and cache counters, core-seconds, rows). `spans` is
    /// empty: the split spans were grafted into the query's trace.
    pub stats: ExecStats,
    /// Split-phase scheduling report (overlap vs. additive, streaming
    /// observability).
    pub pipeline: PipelineSummary,
    /// Per-resource utilization timelines over the split phase, on the
    /// query's simulated clock — the input to bottleneck attribution and
    /// the Chrome counter tracks.
    pub profile: obs::Profile,
}

/// Per-split partial result.
enum Partial {
    Batches(Vec<RecordBatch>),
    Agg(Box<HashAggregator>),
}

struct SplitOutput {
    partial: Partial,
    metrics: PageMetrics,
    substrait_gen_s: f64,
}

/// Fold engine-side compute seconds into the frame timeline. Per-batch
/// operator work pairs one-to-one with batch frames when the counts line
/// up (streaming connectors yield one batch per frame); otherwise it lumps
/// onto the last batch frame. Result deserialization follows the bytes
/// that needed deserializing; tail work (top-N / limit finishing after the
/// stream drained) lands on the last batch frame since it cannot start
/// earlier.
fn attach_compute(metrics: &mut PageMetrics, batch_compute_s: &[f64], tail_compute_s: f64) {
    if metrics.frames.is_empty() {
        metrics.frames.push(FrameTiming {
            is_batch: true,
            ..Default::default()
        });
    }
    let batch_idx: Vec<usize> = metrics
        .frames
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_batch)
        .map(|(i, _)| i)
        .collect();
    let last = batch_idx
        .last()
        .copied()
        .unwrap_or(metrics.frames.len() - 1);
    if batch_idx.len() == batch_compute_s.len() {
        for (&i, &s) in batch_idx.iter().zip(batch_compute_s) {
            metrics.frames[i].compute_s += s;
        }
    } else {
        metrics.frames[last].compute_s += batch_compute_s.iter().sum::<f64>();
    }
    let total_bytes: f64 = batch_idx
        .iter()
        .map(|&i| metrics.frames[i].bytes as f64)
        .sum();
    if total_bytes > 0.0 {
        let deser = metrics.compute_deser_s;
        for &i in &batch_idx {
            metrics.frames[i].compute_s += deser * metrics.frames[i].bytes as f64 / total_bytes;
        }
    } else {
        metrics.frames[last].compute_s += metrics.compute_deser_s;
    }
    metrics.frames[last].compute_s += tail_compute_s;
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
    let ledger = Ledger::new();
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
    let split_outputs: Vec<EResult<SplitOutput>> = splits
        .par_iter()
        .map(|split| -> EResult<SplitOutput> {
            let page = provider.create(split)?;
            let mut stream = page.stream;
            let mut batch_compute_s: Vec<f64> = Vec::new();
            let mut agg = match blocking {
                Some(LogicalPlan::Aggregate { group_by, aggs, .. }) => {
                    Some(HashAggregator::new(group_by.clone(), aggs.clone())?)
                }
                _ => None,
            };
            let mut survivors: Vec<RecordBatch> = Vec::new();
            while let Some(batch) = stream.next_batch()? {
                let mut work = Work::zero();
                let mut cur = Some(batch);
                for op in &streaming {
                    let Some(b) = cur.take() else { break };
                    let (out, w) = match op {
                        LogicalPlan::Filter { predicate, .. } => {
                            let (out, w) = run_filter(&b, predicate, cost)?;
                            (out, Work::vector(w))
                        }
                        LogicalPlan::Project { exprs, .. } => {
                            let (out, w) = run_project(&b, exprs, cost)?;
                            (out, Work::expr(w))
                        }
                        _ => unreachable!("streaming ops are Filter/Project"),
                    };
                    work.add(w);
                    if out.num_rows() > 0 {
                        cur = Some(out);
                    }
                }
                if let Some(b) = cur {
                    match agg.as_mut() {
                        Some(agg) => {
                            let before = agg.work;
                            agg.update(&b, cost)?;
                            work.add(Work::vector(agg.work - before));
                        }
                        None => survivors.push(b),
                    }
                }
                batch_compute_s.push(cluster.compute.core_seconds_for(work));
            }
            // Tail ops that can only run once the stream has drained.
            let mut tail_work = Work::zero();
            let partial = if let Some(mut agg) = agg {
                agg.work = 0.0;
                Partial::Agg(Box::new(agg))
            } else {
                match blocking {
                    Some(LogicalPlan::TopN { keys, limit, .. }) if !survivors.is_empty() => {
                        let (out, work) = run_topn(&survivors, keys, *limit, cost)?;
                        tail_work.add(Work::vector(work));
                        Partial::Batches(vec![out])
                    }
                    Some(LogicalPlan::Limit { limit, .. }) => {
                        Partial::Batches(run_limit(&survivors, *limit)?)
                    }
                    // Sort (and empty-input TopN) defer to the final stage.
                    _ => Partial::Batches(survivors),
                }
            };
            let mut metrics = stream.finish()?;
            attach_compute(
                &mut metrics,
                &batch_compute_s,
                cluster.compute.core_seconds_for(tail_work),
            );
            Ok(SplitOutput {
                partial,
                metrics,
                substrait_gen_s: page.substrait_gen_s,
            })
        })
        .collect();

    let mut outputs = Vec::with_capacity(split_outputs.len());
    for o in split_outputs {
        outputs.push(o?);
    }

    // ---- Pipeline-overlap billing for the split phase ------------------
    let moved_bytes: u64 = outputs.iter().map(|o| o.metrics.network_bytes).sum();
    let moved_requests: u64 = outputs.iter().map(|o| o.metrics.network_requests).sum();

    // One pipeline item per frame, split-major, with per-stage durations:
    // disk read, decompress, storage scan, frontend relay, network, engine
    // compute. A frame only occupies a stage's lane for its own share of
    // the work, so stage k of frame n+1 overlaps stage k+1 of frame n —
    // the whole point of the streaming boundary.
    let bps = cluster.network.bytes_per_second();
    let mut items: Vec<Vec<f64>> = Vec::new();
    let mut batch_items: Vec<usize> = Vec::new();
    let mut groups: Vec<usize> = Vec::new();
    // Frames are interleaved round-robin across splits because that is how
    // the wall clock sees them: every split issues its request up front and
    // the shared resources (the storage disk, the link) serve the
    // concurrent streams fairly, not one split start-to-finish before the
    // next. Within a split, frames stay in wire order.
    let max_frames = outputs
        .iter()
        .map(|o| o.metrics.frames.len())
        .max()
        .unwrap_or(0);
    for frame_ix in 0..max_frames {
        for (split_ix, o) in outputs.iter().enumerate() {
            let Some(f) = o.metrics.frames.get(frame_ix) else {
                continue;
            };
            // Per-request round trips and any unframed (request-direction)
            // bytes ride on the split's first frame.
            let first_extra = if frame_ix == 0 {
                let framed_bytes: u64 = o.metrics.frames.iter().map(|fr| fr.bytes).sum();
                o.metrics.network_requests as f64 * cluster.network.latency_s
                    + o.metrics.network_bytes.saturating_sub(framed_bytes) as f64 / bps
            } else {
                0.0
            };
            let disk_s = cluster.storage_disk.read_seconds(f.disk_bytes);
            // A frame whose input side spans several scanned row groups
            // (aggregation pushdown collapses a whole split's scan into
            // one output batch) is split into per-row-group input slices
            // so disk read and scan overlap exactly as the storage
            // executor performs them. The output-side frame item carries
            // no input cost; group-serial FCFS on the frontend stage makes
            // it wait for every slice of its own split.
            let chunks = f.input_chunks.max(1) as usize;
            if chunks > 1 {
                let per = 1.0 / chunks as f64;
                for _ in 0..chunks {
                    groups.push(split_ix);
                    items.push(vec![
                        disk_s * per,
                        f.decompress_s * per,
                        f.storage_s * per,
                        0.0,
                        0.0,
                        0.0,
                    ]);
                }
            }
            if f.is_batch {
                batch_items.push(items.len());
            }
            groups.push(split_ix);
            let (in_disk, in_dec, in_sto) = if chunks > 1 {
                (0.0, 0.0, 0.0)
            } else {
                (disk_s, f.decompress_s, f.storage_s)
            };
            items.push(vec![
                in_disk,
                in_dec,
                in_sto,
                f.frontend_s,
                f.bytes as f64 / bps + first_extra,
                f.compute_s,
            ]);
        }
    }
    let lanes = [
        1, // one disk
        cluster.storage.cores,
        cluster.storage.cores,
        cluster.frontend.cores,
        1, // one link
        cluster.compute.cores,
    ];
    // Disk/decompress/scan parallelize *within* a split (row groups decode
    // on independent storage cores), but one frontend thread relays a
    // request's frames in order and one engine driver drains a split's
    // batches in order — those two stages are serial per split.
    let serial = [false, false, false, true, false, true];
    let report = pipeline_grouped(&items, &lanes, &groups, &serial);

    // What the same work costs under the additive model this replaces:
    // every stage a global barrier across all splits.
    let additive_s = {
        let disk_bytes: u64 = outputs.iter().map(|o| o.metrics.stats.disk_bytes).sum();
        let decompress: Vec<f64> = outputs
            .iter()
            .map(|o| o.metrics.stats.storage_decompress_s)
            .collect();
        let storage: Vec<f64> = outputs
            .iter()
            .map(|o| o.metrics.stats.storage_cpu_s)
            .collect();
        let frontend: Vec<f64> = outputs
            .iter()
            .map(|o| o.metrics.stats.frontend_cpu_s)
            .collect();
        let compute: Vec<f64> = outputs
            .iter()
            .map(|o| o.metrics.frames.iter().map(|f| f.compute_s).sum())
            .collect();
        cluster.storage_disk.read_seconds(disk_bytes)
            + makespan(&decompress, cluster.storage.cores)
            + makespan(&storage, cluster.storage.cores)
            + makespan(&frontend, cluster.frontend.cores)
            + cluster
                .network
                .transfer_seconds(moved_bytes, moved_requests.max(1))
            + makespan(&compute, cluster.compute.cores)
    };

    // Substrait IR generation happens before any request is issued; it is
    // not part of the frame pipeline and stays additive.
    let substrait: f64 = outputs.iter().map(|o| o.substrait_gen_s).sum();
    ledger.add(Phase::SubstraitGen, substrait);
    cursor = Ledger::layout_spans(tracer, root_id, cursor, &[(Phase::SubstraitGen, substrait)]);

    // Bill the overlapped makespan, apportioned back into ledger phases
    // proportional to each stage's busy time so the breakdown still says
    // *where* the time went.
    let busy_total: f64 = report.stage_busy.iter().sum();
    let phases = [
        Phase::StorageDisk,
        Phase::StorageDecompress,
        Phase::StorageCpu,
        Phase::FrontendCpu,
        Phase::NetworkTransfer,
        Phase::ComputeCpu,
    ];
    let mut apportioned: Vec<(Phase, f64)> = Vec::with_capacity(phases.len());
    if busy_total > 0.0 {
        for (phase, &busy) in phases.iter().zip(&report.stage_busy) {
            let share = report.makespan * busy / busy_total;
            ledger.add(*phase, share);
            apportioned.push((*phase, share));
        }
    }

    let time_to_first_batch_s = report.first_done_among(batch_items);
    let frames_total: u64 = outputs.iter().map(|o| o.metrics.frames.len() as u64).sum();
    let peak_buffered: u64 = outputs.iter().map(|o| o.metrics.peak_buffered_bytes).sum();

    // Resource-utilization profile: fold the scheduler's per-stage busy
    // intervals into named resources on the query clock (the split phase
    // starts at `cursor`). The two storage-CPU stages (decompress, scan)
    // share the same physical cores, so they merge into one timeline.
    let stage_resources: [(&str, usize); 6] = [
        ("storage-disk", 1),
        ("storage-cores", cluster.storage.cores),
        ("storage-cores", cluster.storage.cores),
        ("frontend-cores", cluster.frontend.cores),
        ("link", 1),
        ("compute-cores", cluster.compute.cores),
    ];
    let mut profile = obs::Profile::new(cursor, cursor + report.makespan);
    for (stage, (resource, lanes)) in stage_resources.iter().enumerate() {
        let intervals: Vec<(f64, f64)> = report
            .stage_intervals
            .get(stage)
            .map(|iv| iv.iter().map(|&(s, e)| (cursor + s, cursor + e)).collect())
            .unwrap_or_default();
        profile.add_resource(resource, *lanes, intervals);
    }

    // The split-phase span covers the overlapped makespan. Its children:
    // the six apportioned stage shares laid back-to-back (their sum is the
    // makespan by construction, so the phase breakdown stays exact), plus
    // one span per split on its *actual* overlapped timeline — split spans
    // run concurrently, and each receives the storage-executor spans that
    // crossed the boundary in its trailer frame, re-scaled into the
    // split's window ([`obs::Tracer::graft`]).
    if tracer.is_enabled() {
        let mut split_phase = tracer.start("split_phase", "phase", Some(root_id), cursor);
        split_phase.attr("splits", outputs.len() as u64);
        split_phase.attr("frames", frames_total);
        split_phase.attr("bytes", moved_bytes);
        split_phase.attr("time_to_first_batch_s", time_to_first_batch_s);
        split_phase.attr("peak_buffered_bytes", peak_buffered);
        if let Some(b) = profile.bottleneck() {
            split_phase.attr("bottleneck", b.resource.as_str());
            split_phase.attr(
                "bottleneck_util_pct",
                (b.utilization * 100.0).round() as u64,
            );
        }
        let split_phase_id = split_phase.close(cursor + report.makespan);
        Ledger::layout_spans(tracer, split_phase_id, cursor, &apportioned);

        // Per-split completion times from the pipeline report.
        let mut split_end = vec![0.0f64; outputs.len()];
        for (item_ix, &g) in groups.iter().enumerate() {
            if let Some(&done) = report.item_done.get(item_ix) {
                split_end[g] = split_end[g].max(done);
            }
        }
        for (split_ix, o) in outputs.iter().enumerate() {
            let end = cursor + split_end[split_ix].min(report.makespan);
            let mut span = tracer.start(
                format!("split[{split_ix}]"),
                "split",
                Some(split_phase_id),
                cursor,
            );
            span.attr("rows", o.metrics.stats.rows_returned);
            span.attr("bytes", o.metrics.network_bytes);
            span.attr("frames", o.metrics.frames.len() as u64);
            if let Some(b) = profile.bottleneck_in(cursor, end) {
                span.attr("bottleneck", b.resource.as_str());
                span.attr(
                    "bottleneck_util_pct",
                    (b.utilization * 100.0).round() as u64,
                );
            }
            let id = span.close(end);
            tracer.graft(&o.metrics.stats.spans, id, cursor, end);
        }
    }
    cursor += report.makespan;

    // Query totals of the storage-side counters. The spans were grafted
    // above (or tracing is off); dropping them first keeps `merge` from
    // cloning any.
    let mut stats = ExecStats::default();
    for o in &mut outputs {
        o.metrics.stats.spans.clear();
        stats.merge(&o.metrics.stats);
    }

    let pipeline_summary = PipelineSummary {
        overlapped_s: report.makespan,
        additive_s,
        time_to_first_batch_s,
        frames: frames_total,
        peak_buffered_bytes: peak_buffered,
        stage_busy_s: report.stage_busy.clone(),
    };

    // ---- Final stage ---------------------------------------------------
    // Per-operator (name, output rows, core-seconds) for the final span's
    // children; seconds come from the same `Work` units billed to the
    // ledger so the children sum to the final span.
    let mut final_op_spans: Vec<(String, u64, f64)> = Vec::new();
    let mut final_work = Work::zero();
    let mut current: Vec<RecordBatch> = match blocking {
        Some(LogicalPlan::Aggregate { group_by, aggs, .. }) => {
            let mut merged = HashAggregator::new(group_by.clone(), aggs.clone())?;
            let mut w = Work::zero();
            for o in outputs {
                if let Partial::Agg(agg) = o.partial {
                    let groups = agg.num_groups() as f64;
                    merged.merge(*agg)?;
                    w.add(Work::vector(
                        groups * cost.agg_update * aggs.len().max(1) as f64,
                    ));
                }
            }
            merged.work = 0.0;
            let out = merged.finish()?;
            final_op_spans.push((
                "merge_aggregate".into(),
                out.num_rows() as u64,
                cluster.compute.core_seconds_for(w),
            ));
            final_work.add(w);
            vec![out]
        }
        Some(LogicalPlan::TopN { keys, limit, .. }) => {
            let batches: Vec<RecordBatch> = outputs
                .into_iter()
                .flat_map(|o| match o.partial {
                    Partial::Batches(b) => b,
                    Partial::Agg(_) => unreachable!("topn splits produce batches"),
                })
                .collect();
            if batches.is_empty() {
                vec![]
            } else {
                let (out, work) = run_topn(&batches, keys, *limit, cost)?;
                let w = Work::vector(work);
                final_op_spans.push((
                    "merge_topn".into(),
                    out.num_rows() as u64,
                    cluster.compute.core_seconds_for(w),
                ));
                final_work.add(w);
                vec![out]
            }
        }
        Some(LogicalPlan::Sort { keys, .. }) => {
            let batches: Vec<RecordBatch> = outputs
                .into_iter()
                .flat_map(|o| match o.partial {
                    Partial::Batches(b) => b,
                    Partial::Agg(_) => unreachable!("sort splits produce batches"),
                })
                .collect();
            if batches.is_empty() {
                vec![]
            } else {
                let (out, work) = run_sort(&batches, keys, cost)?;
                let w = Work::vector(work);
                final_op_spans.push((
                    "merge_sort".into(),
                    out.num_rows() as u64,
                    cluster.compute.core_seconds_for(w),
                ));
                final_work.add(w);
                vec![out]
            }
        }
        Some(LogicalPlan::Limit { limit, .. }) => {
            let batches: Vec<RecordBatch> = outputs
                .into_iter()
                .flat_map(|o| match o.partial {
                    Partial::Batches(b) => b,
                    Partial::Agg(_) => unreachable!("limit splits produce batches"),
                })
                .collect();
            run_limit(&batches, *limit)?
        }
        None => outputs
            .into_iter()
            .flat_map(|o| match o.partial {
                Partial::Batches(b) => b,
                Partial::Agg(_) => unreachable!("no blocking op"),
            })
            .collect(),
        Some(other) => {
            return Err(EngineError::Execution(format!(
                "unsupported blocking operator {}",
                other.name()
            )))
        }
    };

    // Remaining ops above the blocking one (e.g. Sort after Aggregate).
    for op in final_ops {
        let mut w = Work::zero();
        current = match op {
            LogicalPlan::Filter { predicate, .. } => {
                let mut next = Vec::new();
                for b in &current {
                    let (out, work) = run_filter(b, predicate, cost)?;
                    w.add(Work::vector(work));
                    next.push(out);
                }
                next
            }
            LogicalPlan::Project { exprs, .. } => {
                let mut next = Vec::new();
                for b in &current {
                    let (out, work) = run_project(b, exprs, cost)?;
                    w.add(Work::expr(work));
                    next.push(out);
                }
                next
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let mut agg = HashAggregator::new(group_by.clone(), aggs.clone())?;
                for b in &current {
                    agg.update(b, cost)?;
                }
                w.add(Work::vector(agg.work));
                vec![agg.finish()?]
            }
            LogicalPlan::Sort { keys, .. } => {
                if current.is_empty() {
                    vec![]
                } else {
                    let (out, work) = run_sort(&current, keys, cost)?;
                    w.add(Work::vector(work));
                    vec![out]
                }
            }
            LogicalPlan::TopN { keys, limit, .. } => {
                if current.is_empty() {
                    vec![]
                } else {
                    let (out, work) = run_topn(&current, keys, *limit, cost)?;
                    w.add(Work::vector(work));
                    vec![out]
                }
            }
            LogicalPlan::Limit { limit, .. } => run_limit(&current, *limit)?,
            LogicalPlan::TableScan(_) => {
                return Err(EngineError::Execution("scan above leaf".into()))
            }
        };
        let rows: u64 = current.iter().map(|b| b.num_rows() as u64).sum();
        final_op_spans.push((
            op.name().to_ascii_lowercase(),
            rows,
            cluster.compute.core_seconds_for(w),
        ));
        final_work.add(w);
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
        moved_bytes,
        moved_requests,
        splits: splits.len(),
        stats,
        pipeline: pipeline_summary,
        profile,
    })
}
