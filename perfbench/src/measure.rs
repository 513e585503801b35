//! The closed loop: one client thread sends the next op when the previous
//! one has completed (the engine fans each query out over split threads
//! itself). Also result verification and the end-to-end metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use columnar::{RecordBatch, Scalar};
use dsq::QueryResult;

use crate::ops::{Op, OpSequence, Template};
use crate::probe::Probe;
use crate::spans::Tracer;
use crate::stack::{self, Scale, Stack, Workload};

/// Every `VERIFY_EVERY`th query of a cold workload is re-run on the
/// reference connector after the timed section.
const VERIFY_EVERY: usize = 10;

/// Windows a section is cut into (half a second each at the benchmark's
/// 15 s). The sandbox shares its host: neighbours slow the process down
/// for seconds at a time, by up to a fifth. The wall and CPU metrics are
/// therefore taken over the faster half of the windows; the slower half
/// is discarded as disturbed. A stall of the program's own that recurs in
/// fewer than half of the windows is not seen either, which is why the
/// metadata line carries `ops` and `timed_wall_s` of the whole section.
const WINDOWS: usize = 30;

/// When a section ends. Either way it ends on a group boundary.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start no new group once this many seconds have passed.
    Seconds(f64),
    /// Run this many ops, rounded up to whole groups.
    Ops(usize),
}

/// User + system CPU seconds of this process, from `/proc/self/stat`.
/// The fields are in clock ticks; Linux reports them at 100 per second
/// whatever the kernel's own tick rate.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// `q`-quantile of `sorted` by linear interpolation between closest
/// ranks (what `statistics.quantiles(method='inclusive')` computes).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values` (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// A timed query kept for verification.
struct Kept {
    template: Template,
    sql: String,
    batch: RecordBatch,
}

/// One window of a section: whole groups, so every window has the same
/// op mix.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Window {
    /// Ops attempted in the window.
    pub ops: usize,
    /// Queries among them (a range of `Section::query_ms` ends here).
    pub queries: usize,
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

/// What one section of the loop measured.
#[derive(Default)]
pub struct Section {
    /// Ops attempted (queries + ingests).
    pub ops: usize,
    /// Ops that returned an error or panicked.
    pub failed: usize,
    /// Wall latency of every query, ms, in op order.
    pub query_ms: Vec<f64>,
    /// Wall time of every ingest, ms.
    pub ingest_ms: Vec<f64>,
    /// Bytes written by ingests.
    pub ingest_bytes: u64,
    /// Wall seconds from first op sent to last op completed.
    pub wall_s: f64,
    /// The section cut into `WINDOWS` windows, in order.
    pub windows: Vec<Window>,
    /// Sum of `QueryResult::simulated_seconds`.
    pub sim_s: f64,
    /// Sum of `QueryResult::moved_bytes`.
    pub moved_bytes: u64,
    kept: Vec<Kept>,
}

/// A stack under load: the op sequence, the span recorder and, in a
/// traced run, the layer probe.
pub struct Runner {
    /// The stack.
    pub stack: Stack,
    /// Its op sequence.
    pub seq: OpSequence,
    /// Span recorder (off in a timed run).
    pub tracer: Tracer,
    /// Layer probe (absent in a timed run).
    pub probe: Option<Probe>,
}

/// Build the stack of `workload` and run the warm-up: everything before
/// the first timed op, which is what `setup_s` reports.
pub fn set_up(workload: &'static Workload, scale: Scale, seed: u64) -> Runner {
    let stack = stack::build(workload, scale);
    let seq = OpSequence::new(&stack, seed);
    let runner = Runner {
        stack,
        seq,
        tracer: Tracer::new(false),
        probe: None,
    };
    for op in runner.seq.warm_up() {
        if let Op::Query { sql, .. } = op {
            runner
                .stack
                .engine
                .execute(&sql)
                .unwrap_or_else(|e| panic!("warm-up query failed: {e}\n{sql}"));
        }
    }
    runner
}

/// Run `set_up` `times` times; the median seconds and the last runner.
pub fn timed_set_up(
    workload: &'static Workload,
    scale: Scale,
    seed: u64,
    times: usize,
) -> (f64, Runner) {
    let mut seconds = Vec::with_capacity(times);
    let mut runner = None;
    for _ in 0..times.max(1) {
        // Free the previous stack first: two resident copies would make
        // the later set-ups pay for memory the first one did not.
        drop(runner.take());
        let t = Instant::now();
        runner = Some(set_up(workload, scale, seed));
        seconds.push(t.elapsed().as_secs_f64());
    }
    (median(&seconds), runner.expect("at least one set-up ran"))
}

impl Runner {
    /// `Engine::execute` with a panic turned into an error, timed.
    fn execute(&mut self, sql: &str, parent: usize) -> (Result<QueryResult, String>, f64) {
        let span = self.tracer.begin("dsq.execute", Some(parent));
        let t = Instant::now();
        let engine = &self.stack.engine;
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.execute(sql)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.tracer.end(span);
        let result = match outcome {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("panicked".to_string()),
        };
        (result, ms)
    }

    /// Run ops `first..` until `budget` is spent.
    pub fn section(&mut self, first: usize, budget: Budget) -> Section {
        let mut s = Section::default();
        let group = self.seq.group();
        let t0 = Instant::now();
        let mut window_start = (0usize, 0usize, 0.0f64, process_cpu_seconds());
        let mut next_window = 1.0;
        let mut k = first;
        loop {
            if k > first && (k - first).is_multiple_of(group) {
                // Progress through the budget, in [0, 1].
                let elapsed = t0.elapsed().as_secs_f64();
                let progress = match budget {
                    Budget::Seconds(limit) => elapsed / limit,
                    Budget::Ops(n) => (k - first) as f64 / n as f64,
                };
                let done = progress >= 1.0;
                if done || progress * WINDOWS as f64 >= next_window {
                    // A slow group may cross several marks: skip them all.
                    next_window = (progress * WINDOWS as f64).floor() + 1.0;
                    let cpu = process_cpu_seconds();
                    let (ops0, queries0, wall0, cpu0) = window_start;
                    s.windows.push(Window {
                        ops: s.ops - ops0,
                        queries: s.query_ms.len() - queries0,
                        wall_s: elapsed - wall0,
                        cpu_s: cpu - cpu0,
                    });
                    window_start = (s.ops, s.query_ms.len(), elapsed, cpu);
                }
                if done {
                    break;
                }
            }
            self.tracer.set_op(k as u64);
            s.ops += 1;
            match self.seq.op(k) {
                Op::Query { template, sql, .. } => {
                    let root = self.tracer.begin("query", None);
                    if let Some(p) = self.probe.as_mut() {
                        p.before_execute();
                    }
                    let (result, ms) = self.execute(&sql, root);
                    s.query_ms.push(ms);
                    match result {
                        Ok(r) => {
                            s.sim_s += r.simulated_seconds;
                            s.moved_bytes += r.moved_bytes;
                            if let Some(p) = self.probe.as_mut() {
                                p.after_execute(&r);
                                p.layers(&self.stack, template, &sql, &mut self.tracer, root);
                            }
                            if self.seq.hot_set() == 0
                                && s.query_ms.len().is_multiple_of(VERIFY_EVERY)
                            {
                                s.kept.push(Kept {
                                    template,
                                    sql,
                                    batch: r.batch,
                                });
                            }
                        }
                        Err(e) => {
                            eprintln!("perfbench: op {k} failed: {e}\n  {sql}");
                            s.failed += 1;
                        }
                    }
                    self.tracer.end(root);
                }
                Op::Ingest { table, file } => {
                    let root = self.tracer.begin("ingest", None);
                    let t = Instant::now();
                    let stack = &mut self.stack;
                    let tracer = &mut self.tracer;
                    match catch_unwind(AssertUnwindSafe(|| stack.ingest(table, file, tracer, root)))
                    {
                        Ok(bytes) => s.ingest_bytes += bytes,
                        Err(_) => {
                            eprintln!("perfbench: op {k} (ingest) panicked");
                            s.failed += 1;
                        }
                    }
                    s.ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    self.tracer.end(root);
                }
            }
            k += 1;
        }
        s.wall_s = t0.elapsed().as_secs_f64();
        s
    }

    /// Outside the timed section: re-run the kept queries of `section`
    /// (cold), or every hot query on the timed connector (hot), then on
    /// the reference connector over the same object versions, and compare.
    /// Returns the number of queries whose answers differ or fail.
    pub fn verify(&mut self, section: &mut Section) -> usize {
        let workload = self.stack.workload;
        let mut expected: Vec<Kept> = std::mem::take(&mut section.kept);
        for i in 0..self.seq.hot_set() {
            let Op::Query { template, sql, .. } = self.seq.hot_query(i) else {
                unreachable!("hot_query returns queries")
            };
            match self.stack.engine.execute(&sql) {
                Ok(r) => expected.push(Kept {
                    template,
                    sql,
                    batch: r.batch,
                }),
                Err(e) => {
                    eprintln!("perfbench: hot query {i} failed: {e}");
                    return 1;
                }
            }
        }
        self.stack.bind(workload.reference);
        let mut wrong = 0;
        for kept in &expected {
            let same = match self.stack.engine.execute(&kept.sql) {
                Ok(r) => same_rows(&kept.batch, &r.batch, kept.template.ordered()),
                Err(e) => Err(format!("reference failed: {e}")),
            };
            if let Err(why) = same {
                eprintln!(
                    "perfbench: {} and {} disagree: {why}\n  {}",
                    workload.connector, workload.reference, kept.sql
                );
                wrong += 1;
            }
        }
        self.stack.bind(workload.connector);
        wrong
    }
}

/// Rows of `batch`, sorted by their `tests/tests/common::canonical_rows`
/// text (floats to 6 decimals; a copy, not an import) unless the query
/// fixes the order itself.
fn canonical_rows(batch: &RecordBatch, ordered: bool) -> Vec<Vec<Scalar>> {
    let mut rows = batch.rows();
    if !ordered {
        rows.sort_by_cached_key(|r| {
            r.iter()
                .map(|s| match s {
                    Scalar::Float64(v) => format!("{v:.6}"),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
        });
    }
    rows
}

/// Whether two answers agree: same shape, equal non-float cells, floats
/// equal to 6 decimals or to 1e-9 relative. The second clause is what
/// `canonical_rows` lacks: at this scale `SUM(extendedprice * ...)` is
/// ~1e10, where two summation orders differ beyond the sixth decimal.
pub fn same_rows(a: &RecordBatch, b: &RecordBatch, ordered: bool) -> Result<(), String> {
    let (ra, rb) = (canonical_rows(a, ordered), canonical_rows(b, ordered));
    if ra.len() != rb.len() {
        return Err(format!("{} rows against {}", ra.len(), rb.len()));
    }
    for (i, (x, y)) in ra.iter().zip(&rb).enumerate() {
        if x.len() != y.len() {
            return Err(format!("row {i}: {} columns against {}", x.len(), y.len()));
        }
        for (c, (p, q)) in x.iter().zip(y).enumerate() {
            let same = match (p, q) {
                (Scalar::Float64(p), Scalar::Float64(q)) => {
                    (p - q).abs() <= 5e-7 + 1e-9 * p.abs().max(q.abs())
                }
                _ => p == q,
            };
            if !same {
                return Err(format!("row {i} column {c}: {p} against {q}"));
            }
        }
    }
    Ok(())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Section {
    /// The faster half of the windows (by ops per second), pooled: their
    /// query latencies, sorted, and their ops, wall and CPU seconds.
    pub fn undisturbed(&self) -> (Vec<f64>, Window) {
        let mut first_query = 0;
        let mut windows: Vec<(&Window, &[f64])> = Vec::with_capacity(self.windows.len());
        for w in &self.windows {
            windows.push((w, &self.query_ms[first_query..first_query + w.queries]));
            first_query += w.queries;
        }
        windows.sort_by(|a, b| {
            (b.0.ops as f64 / b.0.wall_s).total_cmp(&(a.0.ops as f64 / a.0.wall_s))
        });
        windows.truncate(windows.len().div_ceil(2));
        let mut latencies = Vec::new();
        let mut kept = Window::default();
        for (w, queries) in windows {
            latencies.extend_from_slice(queries);
            kept.ops += w.ops;
            kept.queries += w.queries;
            kept.wall_s += w.wall_s;
            kept.cpu_s += w.cpu_s;
        }
        latencies.sort_by(f64::total_cmp);
        (latencies, kept)
    }
}

/// The end-to-end metrics of a timed section: the wall and CPU metrics
/// over its undisturbed windows, the two simulated ones over all of it.
pub fn end_to_end(setup_s: f64, s: &Section) -> Vec<Metric> {
    let queries = s.query_ms.len().max(1) as f64;
    let (sorted, kept) = s.undisturbed();
    let ops = kept.ops.max(1) as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", setup_s, "s"),
        m("wall_p50_ms", percentile(&sorted, 0.5), "ms"),
        m("wall_p95_ms", percentile(&sorted, 0.95), "ms"),
        m("throughput_ops_per_s", ops / kept.wall_s, "1/s"),
        m("cpu_ms_per_op", kept.cpu_s * 1e3 / ops, "ms"),
        m("sim_seconds_per_query", s.sim_s / queries, "sim_s"),
        m("moved_bytes_per_query", s.moved_bytes as f64 / queries, "B"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::prelude::*;
    use std::sync::Arc;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.95), 4.8);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn cpu_seconds_advance_with_work() {
        let before = process_cpu_seconds();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() - before >= 0.03, "60 ms of spinning");
    }

    fn batch(keys: Vec<i64>, vals: Vec<f64>) -> RecordBatch {
        RecordBatch::try_new(
            Arc::new(Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("v", DataType::Float64, false),
            ])),
            vec![
                Arc::new(Array::from_i64(keys)),
                Arc::new(Array::from_f64(vals)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn same_rows_tolerates_summation_order_and_nothing_else() {
        let a = batch(vec![1, 2], vec![3.8e10, 0.5]);
        // Another summation order: off in the 5th decimal at 1e10.
        let b = batch(vec![1, 2], vec![3.8e10 + 3e-5, 0.5 + 2e-7]);
        assert!(same_rows(&a, &b, true).is_ok());
        // A wrong reference is caught: a value, a key, a row count, order.
        assert!(same_rows(&a, &batch(vec![1, 2], vec![3.8e10, 0.51]), true).is_err());
        assert!(same_rows(&a, &batch(vec![1, 3], vec![3.8e10, 0.5]), true).is_err());
        assert!(same_rows(&a, &batch(vec![1], vec![3.8e10]), true).is_err());
        let swapped = batch(vec![2, 1], vec![0.5, 3.8e10]);
        assert!(same_rows(&a, &swapped, true).is_err());
        assert!(same_rows(&a, &swapped, false).is_ok());
    }

    #[test]
    fn end_to_end_metrics_divide_by_the_right_counts() {
        // Three windows; the middle one was disturbed and is dropped, the
        // other two are pooled.
        let window = |wall_s, cpu_s| Window {
            ops: 4,
            queries: 3,
            wall_s,
            cpu_s,
        };
        let s = Section {
            ops: 12,
            query_ms: vec![1.0, 3.0, 2.0, 10.0, 30.0, 20.0, 1.0, 5.0, 4.0],
            wall_s: 9.0,
            windows: vec![window(2.0, 1.0), window(5.0, 1.2), window(1.0, 0.8)],
            sim_s: 18.0,
            moved_bytes: 900,
            ..Default::default()
        };
        let m = end_to_end(0.5, &s);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.5);
        assert_eq!(get("wall_p50_ms"), 2.5, "of 1, 1, 2, 3, 4, 5");
        assert_eq!(get("wall_p95_ms"), 4.75);
        assert_eq!(get("throughput_ops_per_s"), 8.0 / 3.0);
        assert_eq!(get("cpu_ms_per_op"), 225.0);
        assert_eq!(get("sim_seconds_per_query"), 2.0);
        assert_eq!(get("moved_bytes_per_query"), 100.0);
    }
}
