//! Pushdown monitoring (paper §4, "Pushdown Monitoring and Auxiliary
//! Components"): an `EventListener` collecting runtime statistics into a
//! sliding window of recent executions — operator chains, data volumes,
//! pushdown success rates — to inform future optimization decisions.

use std::collections::VecDeque;

use dsq::session::{EventListener, QueryEvent};
use netsim::ExecStats;
use sync::DebugMutex;

/// One remembered execution, copied out of the finished
/// [`dsq::QueryResult`] the event borrows.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// The operator chain that ran.
    pub chain: String,
    /// What the scan handle says was pushed down.
    pub scan_handle: String,
    /// Simulated seconds.
    pub seconds: f64,
    /// Bytes moved storage → compute.
    pub moved_bytes: u64,
    /// Rows returned.
    pub result_rows: u64,
    /// Whether anything beyond column projection was pushed.
    pub pushed: bool,
    /// Storage-side statistics of the query (late-materialization and
    /// cache counters among them), as the event carried them.
    pub stats: ExecStats,
    /// Pipeline completion time of the earliest batch frame.
    pub time_to_first_batch_s: f64,
    /// Peak encoded bytes buffered engine-side across split streams.
    pub peak_buffered_bytes: u64,
    /// Frames that crossed the storage boundary.
    pub frames: u64,
    /// Per-phase `(label, simulated seconds)` — the root span's direct
    /// phase children, in execution order.
    pub breakdown: Vec<(String, f64)>,
}

/// Sliding window of recent executions.
#[derive(Debug)]
pub struct PushdownHistory {
    window: usize,
    entries: VecDeque<HistoryEntry>,
}

impl PushdownHistory {
    fn new(window: usize) -> Self {
        PushdownHistory {
            window: window.max(1),
            entries: VecDeque::new(),
        }
    }

    fn push(&mut self, e: HistoryEntry) {
        if self.entries.len() == self.window {
            self.entries.pop_front();
        }
        self.entries.push_back(e);
    }

    /// Entries currently in the window, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &HistoryEntry> {
        self.entries.iter()
    }

    /// Number of remembered executions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no executions are remembered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fraction of recent queries where pushdown engaged.
    pub fn pushdown_rate(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.iter().filter(|e| e.pushed).count() as f64 / self.entries.len() as f64
    }

    /// Mean data movement over the window.
    pub fn mean_moved_bytes(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries
            .iter()
            .map(|e| e.moved_bytes as f64)
            .sum::<f64>()
            / self.entries.len() as f64
    }

    /// Mean simulated latency over the window.
    pub fn mean_seconds(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.iter().map(|e| e.seconds).sum::<f64>() / self.entries.len() as f64
    }

    /// Latency percentile over the window (nearest-rank; 0 when empty).
    fn percentile_seconds(&self, q: f64) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let mut secs: Vec<f64> = self.entries.iter().map(|e| e.seconds).collect();
        secs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = (q * secs.len() as f64).ceil() as usize;
        secs[rank.clamp(1, secs.len()) - 1]
    }

    /// Median simulated latency over the window.
    pub fn p50_seconds(&self) -> f64 {
        self.percentile_seconds(0.50)
    }

    /// 95th-percentile simulated latency over the window.
    pub fn p95_seconds(&self) -> f64 {
        self.percentile_seconds(0.95)
    }

    /// Total row groups skipped by late materialization over the window.
    pub fn total_row_groups_skipped(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.stats.row_groups_skipped)
            .sum()
    }

    /// Total encoded bytes late materialization avoided decoding over the
    /// window (the scan-efficiency counterpart of `mean_moved_bytes`).
    pub fn total_decoded_bytes_avoided(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.stats.decoded_bytes_avoided)
            .sum()
    }

    /// Fraction of recent queries served at least partly from a
    /// storage-side cache tier (row-group or result).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries
            .iter()
            .filter(|e| e.stats.rg_cache_hits > 0 || e.stats.result_cache_hits > 0)
            .count() as f64
            / self.entries.len() as f64
    }

    /// Total disk + decode bytes the storage caches saved over the window.
    pub fn total_cache_bytes_avoided(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.stats.cache_bytes_avoided)
            .sum()
    }

    /// Mean pipeline time-to-first-batch over the window — how quickly the
    /// streaming boundary starts delivering rows to the final stage.
    pub fn mean_time_to_first_batch_s(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries
            .iter()
            .map(|e| e.time_to_first_batch_s)
            .sum::<f64>()
            / self.entries.len() as f64
    }

    /// Largest engine-side stream buffer any remembered query needed —
    /// bounded by `frame window × frame size × splits`, and the number the
    /// backpressure window exists to keep small.
    pub fn max_peak_buffered_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.peak_buffered_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Mean frames per remembered query (schema + batch + trailer frames
    /// across all splits).
    pub fn mean_frames_per_query(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.iter().map(|e| e.frames as f64).sum::<f64>() / self.entries.len() as f64
    }

    /// One-line operator-facing summary of the window.
    pub fn summary(&self) -> String {
        format!(
            "{} queries: pushdown {:.0}%, mean {:.3}s, p50 {:.3}s, p95 {:.3}s, \
             mean moved {:.0} B, first batch {:.4}s, {:.1} frames/query, \
             peak stream buffer {} B",
            self.len(),
            self.pushdown_rate() * 100.0,
            self.mean_seconds(),
            self.p50_seconds(),
            self.p95_seconds(),
            self.mean_moved_bytes(),
            self.mean_time_to_first_batch_s(),
            self.mean_frames_per_query(),
            self.max_peak_buffered_bytes(),
        )
    }
}

/// The `EventListener` feeding the history.
#[derive(Debug)]
pub struct PushdownMonitor {
    history: DebugMutex<PushdownHistory>,
}

impl PushdownMonitor {
    /// Monitor keeping the last `window` executions.
    pub fn new(window: usize) -> Self {
        PushdownMonitor {
            history: DebugMutex::named("core.monitor.history", 40, PushdownHistory::new(window)),
        }
    }

    /// Run `f` against the current history.
    pub fn with_history<R>(&self, f: impl FnOnce(&PushdownHistory) -> R) -> R {
        f(&self.history.lock())
    }
}

impl EventListener for PushdownMonitor {
    fn query_completed(&self, event: &QueryEvent<'_>) {
        let m = obs::metrics();
        m.counter("connector.queries").inc();
        if event.pushed {
            m.counter("connector.pushdown_hits").inc();
        }
        let result = event.result;
        // The per-phase breakdown is the root span's direct phase children.
        let breakdown = result
            .trace
            .root()
            .map(|root| {
                result
                    .trace
                    .children(root.id)
                    .into_iter()
                    .filter(|s| s.cat == "phase")
                    .map(|s| (s.name.clone(), s.seconds()))
                    .collect()
            })
            .unwrap_or_default();
        self.history.lock().push(HistoryEntry {
            chain: result.chain.clone(),
            scan_handle: event.scan_handle.to_string(),
            seconds: result.simulated_seconds,
            moved_bytes: result.moved_bytes,
            result_rows: result.batch.num_rows() as u64,
            pushed: event.pushed,
            stats: result.stats.clone(),
            time_to_first_batch_s: result.pipeline.time_to_first_batch_s,
            peak_buffered_bytes: result.pipeline.peak_buffered_bytes,
            frames: result.pipeline.frames,
            breakdown,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::prelude::*;
    use dsq::QueryResult;
    use std::sync::Arc;

    /// A finished query shaped like the engine's: a span tree with root
    /// "query" and phase children, streaming numbers on `pipeline`.
    fn result(pushed: bool, bytes: u64, secs: f64) -> QueryResult {
        let t = obs::Tracer::new();
        let root = t.record("query", "phase", None, 0.0, secs);
        t.record("Others", "phase", Some(root), 0.0, secs * 0.25);
        t.record("split_phase", "phase", Some(root), secs * 0.25, secs);
        QueryResult {
            batch: RecordBatch::try_new(
                Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, false)])),
                vec![Arc::new(Array::from_i64(vec![1]))],
            )
            .unwrap(),
            ledger: netsim::Ledger::new(),
            simulated_seconds: secs,
            moved_bytes: bytes,
            splits: 1,
            stats: if pushed {
                ExecStats {
                    row_groups_skipped: 3,
                    decoded_bytes_avoided: 4096,
                    rg_cache_hits: 2,
                    cache_bytes_avoided: 512,
                    ..Default::default()
                }
            } else {
                ExecStats::default()
            },
            logical_plan: String::new(),
            optimized_plan: String::new(),
            chain: "TableScan".into(),
            pipeline: netsim::SplitPhase {
                time_to_first_batch_s: 0.25,
                peak_buffered_bytes: bytes / 4,
                frames: 12,
                ..Default::default()
            },
            trace: Arc::new(t.finish()),
            profile: Arc::new(obs::Profile::default()),
        }
    }

    fn complete(m: &PushdownMonitor, pushed: bool, bytes: u64, secs: f64) {
        m.query_completed(&QueryEvent {
            sql: "SELECT 1",
            scan_handle: if pushed {
                "ocs columns=[0] pushed=[Filter]"
            } else {
                "ocs columns=[0]"
            },
            pushed,
            result: &result(pushed, bytes, secs),
        });
    }

    #[test]
    fn sliding_window_evicts_oldest() {
        let m = PushdownMonitor::new(3);
        for i in 0..5 {
            complete(&m, i % 2 == 0, i, i as f64);
        }
        m.with_history(|h| {
            assert_eq!(h.len(), 3);
            let bytes: Vec<u64> = h.entries().map(|e| e.moved_bytes).collect();
            assert_eq!(bytes, vec![2, 3, 4], "oldest entries evicted");
        });
    }

    #[test]
    fn rates_and_means() {
        let m = PushdownMonitor::new(10);
        complete(&m, true, 100, 2.0);
        complete(&m, false, 300, 4.0);
        m.with_history(|h| {
            assert!(!h.is_empty());
            assert_eq!(h.pushdown_rate(), 0.5);
            assert_eq!(h.mean_moved_bytes(), 200.0);
            assert_eq!(h.mean_seconds(), 3.0);
            assert_eq!(h.total_row_groups_skipped(), 3);
            assert_eq!(h.total_decoded_bytes_avoided(), 4096);
            assert_eq!(h.cache_hit_rate(), 0.5);
            assert_eq!(h.total_cache_bytes_avoided(), 512);
            assert_eq!(h.mean_time_to_first_batch_s(), 0.25);
            assert_eq!(h.max_peak_buffered_bytes(), 75);
            assert_eq!(h.mean_frames_per_query(), 12.0);
            // Derived from the span tree.
            let e = h.entries().next().expect("entry");
            assert_eq!(e.breakdown.len(), 2);
            assert_eq!(e.breakdown[0].0, "Others");
            assert!((e.breakdown[0].1 - 0.5).abs() < 1e-12);
            let s = h.summary();
            assert!(s.contains("2 queries"));
            assert!(s.contains("50%"));
            assert!(s.contains("12.0 frames/query"));
            assert!(s.contains("peak stream buffer 75 B"));
        });
        let empty = PushdownMonitor::new(5);
        empty.with_history(|h| {
            assert_eq!(h.pushdown_rate(), 0.0);
            assert_eq!(h.mean_moved_bytes(), 0.0);
            assert_eq!(h.p50_seconds(), 0.0);
            assert_eq!(h.p95_seconds(), 0.0);
        });
    }

    #[test]
    fn latency_percentiles() {
        let m = PushdownMonitor::new(100);
        // 1..=20 seconds, shuffled-ish insertion order.
        for i in [
            7, 1, 20, 3, 14, 2, 19, 5, 10, 4, 13, 6, 18, 8, 11, 9, 16, 12, 17, 15,
        ] {
            complete(&m, true, 0, i as f64);
        }
        m.with_history(|h| {
            assert_eq!(h.p50_seconds(), 10.0);
            assert_eq!(h.p95_seconds(), 19.0);
            let s = h.summary();
            assert!(s.contains("p50 10.000s"), "{s}");
            assert!(s.contains("p95 19.000s"), "{s}");
        });
        let one = PushdownMonitor::new(5);
        complete(&one, true, 0, 2.5);
        one.with_history(|h| {
            assert_eq!(h.p50_seconds(), 2.5);
            assert_eq!(h.p95_seconds(), 2.5);
        });
    }

    #[test]
    fn concurrent_dispatch_is_safe() {
        // The engine calls query_completed from whatever thread ran the
        // query; the monitor must take concurrent dispatch without losing
        // or corrupting entries.
        let m = Arc::new(PushdownMonitor::new(10_000));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        complete(&m, t % 2 == 0, i, i as f64 + 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("listener thread");
        }
        m.with_history(|h| {
            assert_eq!(h.len(), 800);
            assert_eq!(h.pushdown_rate(), 0.5);
            assert!(h.entries().all(|e| e.frames == 12));
        });
    }
}
