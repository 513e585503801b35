//! Observability end to end: the span tree the engine records over the
//! simulated clock must account for the ledger's total exactly, survive
//! the RPC boundary (storage spans re-parented under the engine's split
//! spans), render through `EXPLAIN ANALYZE`, and export as a valid Chrome
//! trace-event file. Plus property tests for the span API itself.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use common::{rebind, stack};
use dsq::session::{EventListener, QueryEvent};
use dsq::StatementOutput;
use lzcodec::CodecKind;
use ocs_connector::PushdownPolicy;
use proptest::prelude::*;
use workloads::queries;

/// Relative tolerance for "phase spans sum to the total": the acceptance
/// bound is 1%, the construction is exact up to float association.
const SUM_EPS: f64 = 0.01;

/// The flight recorder is one process-global ring, so the test that reads
/// a query's slice of it runs alone: it holds this lock exclusively, and
/// every test that runs a query (and so writes the ring) holds it shared.
static FLIGHT_RING: RwLock<()> = RwLock::new(());

fn writes_flight_ring() -> RwLockReadGuard<'static, ()> {
    FLIGHT_RING.read().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn q1_span_tree_accounts_for_total_time() {
    let _ring = writes_flight_ring();
    let st = stack(PushdownPolicy::all(), CodecKind::None, &[]);
    rebind(&st, "lineitem", "ocs");
    let r = st.engine.execute(queries::TPCH_Q1).expect("q1");
    let trace = &r.trace;

    trace.verify(1e-9).expect("span tree invariants");
    let root = trace.root().expect("root span");
    assert_eq!(root.name, "query");
    assert!(
        (trace.total_s() - r.simulated_seconds).abs() <= SUM_EPS * r.simulated_seconds,
        "root span {} vs ledger total {}",
        trace.total_s(),
        r.simulated_seconds
    );

    // Per-phase children sum to the total within 1% (exact by layout).
    let phase_sum: f64 = trace
        .children(root.id)
        .iter()
        .filter(|s| s.cat == "phase")
        .map(|s| s.seconds())
        .sum();
    assert!(
        (phase_sum - r.simulated_seconds).abs() <= SUM_EPS * r.simulated_seconds,
        "phase spans sum {phase_sum} vs total {}",
        r.simulated_seconds
    );

    // Storage-executor spans crossed the RPC boundary and were grafted
    // under the engine-side split spans.
    let storage_exec = trace
        .spans
        .iter()
        .filter(|s| s.name.contains(".execute") && s.cat == "storage")
        .count();
    assert_eq!(storage_exec, r.splits, "one storage root span per split");
    for s in trace.spans.iter().filter(|s| s.cat == "storage") {
        let parent = s.parent.expect("grafted spans are re-parented");
        let p = trace
            .spans
            .iter()
            .find(|x| x.id == parent)
            .expect("parent exists");
        assert!(
            p.cat == "split" || p.cat == "storage",
            "storage span '{}' hangs under '{}' ({})",
            s.name,
            p.name,
            p.cat
        );
        assert!(
            s.attr_f64("local_s").is_some(),
            "grafted span keeps its producer-local duration"
        );
    }
    let scan = trace.find("storage.scan").expect("scan span crossed RPC");
    assert!(scan.seconds() > 0.0);
}

#[test]
fn explain_and_explain_analyze_render() {
    let _ring = writes_flight_ring();
    let st = stack(PushdownPolicy::all(), CodecKind::None, &[]);
    rebind(&st, "lineitem", "ocs");

    // EXPLAIN: plan text, no execution.
    let sql = format!("EXPLAIN {}", queries::TPCH_Q1);
    match st.engine.execute_statement(&sql).expect("explain") {
        StatementOutput::Text(text) => {
            assert!(text.starts_with("EXPLAIN"), "{text}");
            assert!(text.contains("TableScan"), "{text}");
        }
        StatementOutput::Rows(_) => panic!("EXPLAIN must return text"),
    }

    // EXPLAIN ANALYZE: executes and renders the annotated span tree.
    let sql = format!("EXPLAIN ANALYZE {}", queries::TPCH_Q1);
    match st.engine.execute_statement(&sql).expect("explain analyze") {
        StatementOutput::Text(text) => {
            for needle in [
                "EXPLAIN ANALYZE",
                "total_sim=",
                "query  sim=",
                "split_phase",
                "storage.scan",
                "Presto Execution (Post-Scan)",
            ] {
                assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
            }
        }
        StatementOutput::Rows(_) => panic!("EXPLAIN ANALYZE must return text"),
    }

    // A plain statement still returns rows.
    match st
        .engine
        .execute_statement(queries::TPCH_Q1)
        .expect("plain query")
    {
        StatementOutput::Rows(r) => assert!(r.batch.num_rows() > 0),
        StatementOutput::Text(t) => panic!("plain query returned text: {t}"),
    }
}

#[test]
fn explain_analyze_annotates_cache_tier_and_bytes_avoided() {
    let _ring = writes_flight_ring();
    let st = stack(PushdownPolicy::all(), CodecKind::None, &[]);
    rebind(&st, "lineitem", "ocs");
    let sql = format!("EXPLAIN ANALYZE {}", queries::TPCH_Q1);
    let render = |label: &str| match st.engine.execute_statement(&sql).expect(label) {
        StatementOutput::Text(text) => text,
        StatementOutput::Rows(_) => panic!("EXPLAIN ANALYZE must return text"),
    };

    // Cold: every storage scan reports its miss tier and zero savings.
    let cold = render("cold explain analyze");
    assert!(cold.contains("cache_hit=none"), "{cold}");
    assert!(cold.contains("cache_bytes_avoided=0 B"), "{cold}");
    assert!(!cold.contains("cache_hit=result"), "{cold}");

    // Warm: the identical pushed subplans replay from the result cache,
    // and each scan annotates the hit tier plus the bytes it skipped.
    let warm = render("warm explain analyze");
    assert!(warm.contains("cache_hit=result"), "{warm}");
    assert!(!warm.contains("cache_hit=none"), "{warm}");
    assert!(!warm.contains("cache_bytes_avoided=0 B"), "{warm}");
    assert!(warm.contains("cache_bytes_avoided="), "{warm}");
}

#[test]
fn chrome_export_of_real_query_validates() {
    let _ring = writes_flight_ring();
    let st = stack(PushdownPolicy::all(), CodecKind::None, &[]);
    rebind(&st, "lineitem", "ocs");
    let r = st.engine.execute(queries::TPCH_Q1).expect("q1");
    let json = obs::chrome::export(&r.trace);
    let summary = obs::chrome::validate(&json).expect("valid trace-event JSON");
    assert!(summary.contains("duration event"), "{summary}");
}

/// The monitor remembers a query's streaming numbers from the finished
/// result the event borrows: frames, peak buffer, time to first batch,
/// storage stats and rows all equal the `QueryResult`'s, and its phase
/// breakdown is the trace root's phase children.
#[test]
fn monitor_reports_the_results_streaming_numbers() {
    let _ring = writes_flight_ring();
    let engine = dsq::EngineBuilder::new().build();
    let store = Arc::new(objstore::ObjectStore::new());
    workloads::tpch::load(
        &workloads::TableLoader::new(&store, engine.metastore()),
        &workloads::TpchConfig {
            files: 2,
            rows_per_file: 4 * 1024,
            ..Default::default()
        },
    );
    ocs_connector::register_ocs_stack(&engine, store, PushdownPolicy::all());
    engine
        .metastore()
        .rebind_connector("lineitem", "ocs")
        .expect("rebind");
    let monitor = Arc::new(ocs_connector::PushdownMonitor::new(4));
    engine.add_listener(monitor.clone());

    let r = engine.execute(queries::TPCH_Q1).expect("q1");
    assert!(r.pipeline.frames > 0 && r.pipeline.peak_buffered_bytes > 0);
    let root = r.trace.root().expect("root span");
    let phases: Vec<(String, f64)> = r
        .trace
        .children(root.id)
        .into_iter()
        .filter(|s| s.cat == "phase")
        .map(|s| (s.name.clone(), s.seconds()))
        .collect();
    assert!(!phases.is_empty());
    monitor.with_history(|h| {
        let e = h.entries().next().expect("one remembered query");
        assert_eq!(e.frames, r.pipeline.frames);
        assert_eq!(e.peak_buffered_bytes, r.pipeline.peak_buffered_bytes);
        assert_eq!(e.time_to_first_batch_s, r.pipeline.time_to_first_batch_s);
        assert_eq!(e.stats, r.stats);
        assert_eq!(e.result_rows, r.batch.num_rows() as u64);
        assert_eq!(e.breakdown, phases);
        assert!(
            !h.summary().contains(" 0.0 frames/query"),
            "{}",
            h.summary()
        );
    });
}

#[test]
fn concurrent_listener_dispatch_counts_every_query() {
    let _ring = writes_flight_ring();
    struct Counting {
        events: AtomicU64,
        pushed: AtomicU64,
    }
    impl EventListener for Counting {
        fn query_completed(&self, event: &QueryEvent<'_>) {
            self.events.fetch_add(1, Ordering::Relaxed);
            if event.pushed {
                self.pushed.fetch_add(1, Ordering::Relaxed);
            }
            // The trace is shared immutably; listeners may inspect it
            // concurrently with other listeners and threads.
            assert!(event.result.trace.root().is_some());
        }
    }

    let st = Arc::new(stack(PushdownPolicy::all(), CodecKind::None, &[]));
    rebind(&st, "lineitem", "ocs");
    let listener = Arc::new(Counting {
        events: AtomicU64::new(0),
        pushed: AtomicU64::new(0),
    });
    st.engine.add_listener(listener.clone());

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let st = st.clone();
            std::thread::spawn(move || {
                for _ in 0..3 {
                    st.engine.execute(queries::TPCH_Q1).expect("q1");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("query thread");
    }
    assert_eq!(listener.events.load(Ordering::Relaxed), 12);
    assert_eq!(listener.pushed.load(Ordering::Relaxed), 12);
}

#[test]
fn explain_analyze_names_bottleneck_and_flight_events() {
    let engine = dsq::EngineBuilder::new().build();
    let store = Arc::new(objstore::ObjectStore::new());
    workloads::tpch::load(
        &workloads::TableLoader::new(&store, engine.metastore()),
        &workloads::TpchConfig {
            files: 4,
            rows_per_file: 8 * 1024,
            ..Default::default()
        },
    );
    ocs_connector::register_ocs_stack(&engine, store, PushdownPolicy::all());
    engine
        .metastore()
        .rebind_connector("lineitem", "ocs")
        .expect("rebind");
    // Caches on and cold, so the query admits more row groups and
    // results than the last-8 tail can show.
    let sql = format!("EXPLAIN ANALYZE {}", queries::TPCH_Q1);
    let _ring = FLIGHT_RING.write().unwrap_or_else(|e| e.into_inner());
    match engine.execute_statement(&sql).expect("explain analyze") {
        StatementOutput::Text(text) => {
            // Per-span attribution on the split phase…
            assert!(text.contains("bottleneck="), "{text}");
            assert!(text.contains("bottleneck_util_pct="), "{text}");
            // …and the query-level verdict line, naming a real resource.
            let verdict = text
                .lines()
                .find(|l| l.starts_with("bottleneck: "))
                .unwrap_or_else(|| panic!("no bottleneck line in:\n{text}"));
            assert!(
                [
                    "storage-disk",
                    "storage-cores",
                    "frontend-cores",
                    "link",
                    "compute-cores"
                ]
                .iter()
                .any(|r| verdict.contains(r)),
                "{verdict}"
            );
            assert!(verdict.contains('%'), "{verdict}");
            // The always-on flight recorder saw the query happen: the
            // header's counts match the `#<seq>` lines that follow it…
            let (_, rest) = text
                .split_once("flight events during query, process-wide (")
                .unwrap_or_else(|| panic!("no flight events in:\n{text}"));
            let (counts, lines) = rest.split_once("):\n").expect("header closes");
            let (by_kind, lines) = lines.split_once('\n').expect("by-kind line");
            assert!(by_kind.starts_with("  by kind: "), "{text}");
            let (total, shown) = counts.split_once(", last ").expect("total, shown");
            let total: usize = total.parse().expect("total count");
            let shown: usize = shown
                .strip_suffix(" shown")
                .and_then(|n| n.parse().ok())
                .expect("shown count");
            let events: Vec<(u64, &str)> = lines
                .lines()
                .map_while(|l| l.strip_prefix("  #"))
                .map(|l| {
                    let (seq, desc) = l.split_once(' ').expect("seq, description");
                    (seq.parse().expect("numeric seq"), desc)
                })
                .collect();
            assert_eq!(shown, 8, "{text}");
            assert!(total > shown, "{text}");
            assert_eq!(events.len(), shown, "{text}");
            // …in strictly increasing sequence order…
            assert!(events.windows(2).all(|w| w[0].0 < w[1].0), "{text}");
            // …and the cold scans admitted what they decoded.
            assert!(
                events.iter().any(|(_, d)| d.starts_with("cache.admit")),
                "{text}"
            );
        }
        StatementOutput::Rows(_) => panic!("EXPLAIN ANALYZE must return text"),
    }
}

/// On the default cached stack a cold Q1 records more cache admissions
/// than the last-8 tail can show; the by-kind line counts every event of
/// the query, each kind once.
#[test]
fn explain_analyze_counts_flight_events_by_kind() {
    let st = stack(PushdownPolicy::all(), CodecKind::None, &[]);
    rebind(&st, "lineitem", "ocs");
    let sql = format!("EXPLAIN ANALYZE {}", queries::TPCH_Q1);
    let _ring = FLIGHT_RING.write().unwrap_or_else(|e| e.into_inner());
    let StatementOutput::Text(text) = st.engine.execute_statement(&sql).expect("explain analyze")
    else {
        panic!("EXPLAIN ANALYZE must return text");
    };
    let (_, rest) = text
        .split_once("flight events during query, process-wide (")
        .unwrap_or_else(|| panic!("no flight events in:\n{text}"));
    let (total, rest) = rest.split_once(", last ").expect("total, shown");
    let total: usize = total.parse().expect("total count");
    let line = rest
        .lines()
        .nth(1)
        .and_then(|l| l.strip_prefix("  by kind: "))
        .unwrap_or_else(|| panic!("no by-kind line after the header in:\n{text}"));
    let counts: Vec<(&str, usize)> = line
        .split(", ")
        .map(|kv| {
            let (kind, n) = kv.rsplit_once(' ').expect("kind count");
            (kind, n.parse().expect("numeric count"))
        })
        .collect();
    assert!(counts.iter().any(|(k, _)| *k == "cache.admit"), "{text}");
    assert!(total > 8, "{text}");
    assert_eq!(
        counts.iter().map(|(_, n)| n).sum::<usize>(),
        total,
        "{text}"
    );
    let mut kinds: Vec<&str> = counts.iter().map(|(k, _)| *k).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), counts.len(), "each kind once: {text}");
}

/// A refill that takes the producer's last frame leaves nothing to wait
/// for: a response of N frames drained at window W records exactly
/// N − W backpressure stalls (none when it fits the window).
#[test]
fn backpressure_stalls_only_while_frames_remain() {
    use columnar::{Array, DataType, Field, RecordBatch, Schema};
    use substrait_ir::{Plan, Rel};

    let store = Arc::new(objstore::ObjectStore::new());
    store.create_bucket("lake").expect("bucket");
    let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, false)]));
    let batch = RecordBatch::try_new(
        schema.clone(),
        vec![Arc::new(Array::from_i64((0..4096).collect()))],
    )
    .expect("batch");
    let options = parq::WriteOptions {
        row_group_rows: 512,
        ..Default::default()
    };
    let bytes = parq::writer::write_file(schema.clone(), &[batch], options).expect("write");
    store.put_object("lake", "t/0", bytes.into()).expect("put");
    let ocs = ocs::Ocs::new(store, ocs::OcsConfig::paper_testbed_uncached());
    let plan = Plan::new(Rel::read("t", (*schema).clone(), None));
    let _ring = FLIGHT_RING.write().unwrap_or_else(|e| e.into_inner());
    let frames = ocs
        .client()
        .execute(&plan, "lake", "t/0")
        .expect("execute")
        .report
        .frames
        .len();
    assert_eq!(frames, 10, "schema + 8 row groups + trailer");
    for window in [1, 2, frames - 1, frames, frames + 1] {
        let client = ocs::OcsClient::with_window(ocs.frontend().clone(), window);
        let cursor = obs::flight().cursor();
        let report = client
            .execute(&plan, "lake", "t/0")
            .expect("execute")
            .report;
        let stalls = obs::flight()
            .since(cursor)
            .iter()
            .filter(|e| e.kind == obs::FlightKind::BackpressureStall)
            .count();
        assert_eq!(
            stalls,
            report.frames.len().saturating_sub(window),
            "window {window}"
        );
    }
}

#[test]
fn bottleneck_flips_between_link_and_storage_cores_with_pushdown_depth() {
    let _ring = writes_flight_ring();
    // The paper's central trade: shipping projected rows saturates the
    // shared storage→compute link, while in-storage aggregation moves the
    // bottleneck onto the storage cores doing the aggregation work.
    let st = stack(
        PushdownPolicy::all(),
        CodecKind::None,
        &[
            ("pd-filter-proj", PushdownPolicy::filter_project()),
            (
                "pd-filter-proj-agg",
                PushdownPolicy::filter_project_aggregate(),
            ),
        ],
    );
    rebind(&st, "lineitem", "pd-filter-proj");
    let proj = st.engine.execute(queries::TPCH_Q1).expect("q1 proj");
    rebind(&st, "lineitem", "pd-filter-proj-agg");
    let agg = st.engine.execute(queries::TPCH_Q1).expect("q1 agg");

    let proj_b = proj.profile.bottleneck().expect("proj bottleneck");
    let agg_b = agg.profile.bottleneck().expect("agg bottleneck");
    assert_eq!(
        proj_b.resource, "link",
        "projection pushdown streams rows over the shared link \
         (got {proj_b})"
    );
    assert_eq!(
        agg_b.resource, "storage-cores",
        "aggregation pushdown does the work near storage (got {agg_b})"
    );
    assert!(proj_b.utilization > 0.0 && proj_b.utilization <= 1.0 + 1e-9);
    assert!(agg_b.utilization > 0.0 && agg_b.utilization <= 1.0 + 1e-9);
}

#[test]
fn counter_tracks_of_real_query_validate() {
    let _ring = writes_flight_ring();
    let st = stack(PushdownPolicy::all(), CodecKind::None, &[]);
    rebind(&st, "lineitem", "ocs");
    let r = st.engine.execute(queries::TPCH_Q1).expect("q1");
    assert!(!r.profile.is_empty(), "profile built for every execution");
    let json = obs::chrome::export_with_profile(&r.trace, Some(&r.profile));
    let summary = obs::chrome::validate(&json).expect("valid trace-event JSON");
    assert!(summary.contains("counter sample"), "{summary}");
    assert!(summary.contains("duration event"), "{summary}");
}

// ---- span API property tests ---------------------------------------------

proptest! {
    /// Guards close exactly once: every explicitly closed span is flagged
    /// clean, carries its close time, and the trace verifies.
    #[test]
    fn prop_guards_close_exactly_once(durations in proptest::collection::vec(0.0f64..10.0, 1..20)) {
        let t = obs::Tracer::new();
        let root = t.start("root", "phase", None, 0.0);
        let root_id = root.id();
        let mut cursor = 0.0;
        for (i, d) in durations.iter().enumerate() {
            let g = t.start(format!("child{i}"), "phase", Some(root_id), cursor);
            cursor += d;
            let id = g.close(cursor);
            prop_assert!(id != obs::SpanId(0));
        }
        root.close(cursor);
        let trace = t.finish();
        prop_assert_eq!(trace.spans.len(), durations.len() + 1);
        prop_assert!(trace.verify(1e-12).is_ok());
        prop_assert!(trace.spans.iter().all(|s| s.closed_cleanly));
    }

    /// Sequentially laid-out children always nest inside their parent and
    /// never overlap each other.
    #[test]
    fn prop_children_nest(durations in proptest::collection::vec(0.0f64..5.0, 1..16)) {
        let t = obs::Tracer::new();
        let total: f64 = durations.iter().sum();
        let root = t.record("root", "phase", None, 0.0, total);
        let mut cursor = 0.0;
        for (i, d) in durations.iter().enumerate() {
            t.record(format!("c{i}"), "phase", Some(root), cursor, cursor + d);
            cursor += d;
        }
        let trace = t.finish();
        prop_assert!(trace.verify(1e-9).is_ok());
        let children = trace.children(root);
        for pair in children.windows(2) {
            prop_assert!(pair[0].end_s <= pair[1].start_s + 1e-9, "children overlap");
        }
    }

    /// Grafted producer spans keep monotonic (order-preserving) timestamps
    /// inside the consumer window, whatever the producer's local clock or
    /// the window's placement.
    #[test]
    fn prop_graft_is_monotonic(
        durations in proptest::collection::vec(1e-6f64..2.0, 1..12),
        window_start in 0.0f64..100.0,
        window_len in 1e-3f64..50.0,
    ) {
        // Producer: sequential spans on its local clock starting at 0.
        let producer = obs::Tracer::new();
        let local_total: f64 = durations.iter().sum();
        let local_root = producer.record("exec", "storage", None, 0.0, local_total);
        let mut cursor = 0.0;
        for (i, d) in durations.iter().enumerate() {
            producer.record(format!("op{i}"), "storage", Some(local_root), cursor, cursor + d);
            cursor += d;
        }
        let recs = producer.finish().to_recs();

        // Consumer: graft into [window_start, window_start + window_len].
        let consumer = obs::Tracer::new();
        let end = window_start + window_len;
        let query = consumer.record("query", "phase", None, 0.0, end + 1.0);
        let split = consumer.record("split[0]", "split", Some(query), window_start, end);
        let grafted = consumer.graft(&recs, split, window_start, end);
        prop_assert_eq!(grafted, recs.len());

        let trace = consumer.finish();
        prop_assert!(trace.verify(1e-9).is_ok());
        let storage: Vec<_> = trace.spans.iter().filter(|s| s.cat == "storage").collect();
        for s in &storage {
            prop_assert!(s.start_s >= window_start - 1e-9);
            prop_assert!(s.end_s <= end + 1e-9);
            prop_assert!(s.attr_f64("local_s").is_some());
        }
        // Producer order survives: op{i} starts where op{i-1} ended.
        let mut ops: Vec<_> = storage.iter().filter(|s| s.name.starts_with("op")).collect();
        ops.sort_by(|a, b| {
            let ka: usize = a.name[2..].parse().unwrap_or(0);
            let kb: usize = b.name[2..].parse().unwrap_or(0);
            ka.cmp(&kb)
        });
        for pair in ops.windows(2) {
            prop_assert!(pair[0].end_s <= pair[1].start_s + 1e-9, "graft reordered spans");
        }
    }
}
