//! The simulated acceptance gates. Each was an `assert!` at the top of a
//! bench under `crates/bench/benches/` that CI compiled and nothing ran;
//! the benches are deleted and the gates run here, on the benches'
//! fixtures, so the pinned values are the ones those benches printed at
//! the commit that deleted them. Every quantity is a model output or a
//! byte count, so each test asserts the acceptance threshold *and* the
//! exact value to six decimals: a change that moves one has to say so.
//!
//! The group-count equality the deleted `agg` bench asserted against its
//! row-at-a-time replica is `columnar/tests/proptests.rs::
//! grouped_agg_matches_scalar_reference`.

use std::sync::Arc;

use columnar::kernels::arith::ArithOp;
use columnar::kernels::cmp::CmpOp;
use columnar::prelude::*;
use dsq::{Engine, EngineBuilder, QueryResult};
use netsim::{CostParams, Phase};
use objstore::ObjectStore;
use ocs::exec::Executor;
use ocs::OcsConfig;
use ocs_connector::{register_ocs_stack_configured, OcsConnector, PushdownPolicy};
use parq::{ParqReader, WriteOptions};
use substrait_ir::{Expr, Plan, Rel};
use workloads::{queries, TableLoader, TpchConfig};

/// `lineitem` behind `"ocs"` (full pushdown) and `"pd-filter"`, with
/// `config`'s near-storage cache budgets.
fn tpch_engine(
    files: usize,
    rows_per_file: usize,
    row_group_rows: usize,
    config: &OcsConfig,
) -> (Engine, Arc<ObjectStore>) {
    let engine = EngineBuilder::new().build();
    let store = Arc::new(ObjectStore::new());
    let mut loader = TableLoader::new(&store, engine.metastore());
    loader.row_group_rows = row_group_rows;
    workloads::tpch::load(
        &loader,
        &TpchConfig {
            files,
            rows_per_file,
            ..Default::default()
        },
    );
    let ocs = register_ocs_stack_configured(
        &engine,
        store.clone(),
        PushdownPolicy::all(),
        config.row_group_cache_bytes,
        config.result_cache_bytes,
    );
    engine.register_connector(Arc::new(OcsConnector::new(
        "pd-filter",
        ocs,
        engine.cluster().clone(),
        engine.cost_params().clone(),
        PushdownPolicy::filter_only(),
    )));
    (engine, store)
}

fn q1(engine: &Engine, connector: &str) -> QueryResult {
    engine
        .metastore()
        .rebind_connector("lineitem", connector)
        .unwrap();
    engine.execute(queries::TPCH_Q1).unwrap()
}

/// Replaces `benches/pipeline.rs`: on a 16-split Q1 streamed through
/// filter-only pushdown in 2 Ki-row frames, the overlapped makespan beats
/// the additive six-barrier model by >= 1.5x, and the bounded frame window
/// holds >= 4x fewer bytes engine-side than buffering the whole response.
#[test]
fn pipeline_overlap_and_backpressure() {
    let (engine, _) = tpch_engine(16, 64 * 1024, 2 * 1024, &OcsConfig::paper_testbed());
    let r = q1(&engine, "pd-filter");
    let p = &r.pipeline;

    let overlap = p.additive_s / p.overlapped_s;
    assert!(p.overlapped_s > 0.0 && overlap >= 1.5, "overlap {overlap}");
    assert_eq!(format!("{overlap:.6}"), "1.600941");

    let buffer_reduction = r.moved_bytes as f64 / p.peak_buffered_bytes as f64;
    assert!(p.peak_buffered_bytes > 0 && p.peak_buffered_bytes * 4 <= r.moved_bytes);
    assert_eq!(format!("{buffer_reduction:.6}"), "7.971147");
}

/// Rewrite every object byte-identically: the version bump invalidates
/// both cache tiers, so the next execution is cold again.
fn invalidate_caches(store: &ObjectStore) {
    for meta in store.list("lake", "").unwrap() {
        let bytes = store.get_object("lake", &meta.key).unwrap();
        store.put_object("lake", &meta.key, bytes).unwrap();
    }
}

/// Simulated seconds of the phases a near-storage cache can elide
/// (planning and post-scan compute are fixed costs it cannot touch).
fn pushdown_seconds(r: &QueryResult) -> f64 {
    [
        Phase::StorageDisk,
        Phase::StorageDecompress,
        Phase::StorageCpu,
        Phase::FrontendCpu,
        Phase::NetworkTransfer,
    ]
    .iter()
    .map(|p| r.ledger.get(*p))
    .sum()
}

/// Replaces the simulated half of `benches/cache.rs`: a repeated Q1
/// pushdown over an unchanged table is >= 3x cheaper in simulated pushdown
/// seconds and cheaper end to end, and a cold run bills bit-identically
/// whether the (empty) caches are enabled or not.
#[test]
fn cache_warm_speedup_and_honest_cold_ledger() {
    let (cached, store) = tpch_engine(4, 32 * 1024, 64 * 1024, &OcsConfig::paper_testbed());
    let (uncached, _) = tpch_engine(
        4,
        32 * 1024,
        64 * 1024,
        &OcsConfig::paper_testbed_uncached(),
    );

    invalidate_caches(&store);
    let cold = q1(&cached, "ocs");
    let warm = q1(&cached, "ocs");
    let speedup = pushdown_seconds(&cold) / pushdown_seconds(&warm);
    assert!(speedup >= 3.0, "warm speedup {speedup}");
    assert_eq!(format!("{speedup:.6}"), "31.480081");
    assert!(warm.simulated_seconds < cold.simulated_seconds);

    invalidate_caches(&store);
    let cold_on = q1(&cached, "ocs");
    let cold_off = q1(&uncached, "ocs");
    assert_eq!(
        cold_on.simulated_seconds.to_bits(),
        cold_off.simulated_seconds.to_bits(),
        "enabled {:.9}s vs disabled {:.9}s",
        cold_on.simulated_seconds,
        cold_off.simulated_seconds
    );
}

/// Replaces `benches/late_mat.rs`: on the Laghos shape — 100 of 100 000
/// rows match, all in the first of 20 row groups, behind a predicate that
/// statistics cannot prune — the scan decodes >= 2x fewer bytes than the
/// eager scan, which decodes every chunk of every row group.
#[test]
fn late_materialization_decoded_bytes() {
    const ROWS: usize = 100_000;
    let schema = Arc::new(Schema::new(vec![
        Field::new("ts", DataType::Int64, false),
        Field::new("v", DataType::Float64, false),
        Field::new("zone", DataType::Int64, false),
        Field::new("w", DataType::Float64, false),
    ]));
    let ints = |f: fn(usize) -> i64| Arc::new(Array::from_i64((0..ROWS).map(f).collect()));
    let floats = |f: fn(usize) -> f64| Arc::new(Array::from_f64((0..ROWS).map(f).collect()));
    let batch = RecordBatch::try_new(
        schema.clone(),
        vec![
            ints(|i| i as i64),
            floats(|i| (i.wrapping_mul(2654435761) % 1000) as f64),
            ints(|i| (i % 64) as i64),
            floats(|i| i as f64 * 0.25),
        ],
    )
    .unwrap();
    let bytes = parq::writer::write_file(
        schema.clone(),
        &[batch],
        WriteOptions {
            row_group_rows: 5_000,
            ..Default::default()
        },
    )
    .unwrap();
    let reader = ParqReader::open(bytes.into()).unwrap();

    // `ts % ROWS < 100`: the arithmetic hides `ts` from statistics pruning.
    let plan = Plan::new(Rel::Filter {
        input: Box::new(Rel::read("t", (*schema).clone(), None)),
        predicate: Expr::cmp(
            CmpOp::Lt,
            Expr::arith(
                ArithOp::Mod,
                Expr::field(0),
                Expr::lit(Scalar::Int64(ROWS as i64)),
            ),
            Expr::lit(Scalar::Int64(100)),
        ),
    });
    let verified = substrait_ir::planck::verify_untrusted(&plan).unwrap();
    let (batches, late) = Executor::new(&reader, &CostParams::default())
        .run(&verified)
        .unwrap();
    assert_eq!(batches.iter().map(|b| b.num_rows()).sum::<usize>(), 100);
    assert_eq!(late.wire.row_groups_skipped, 19);

    let eager_decoded: u64 = (0..reader.num_row_groups())
        .map(|rg| reader.read_row_group(rg, None).unwrap().byte_size() as u64)
        .sum();
    assert!(late.uncompressed_bytes * 2 <= eager_decoded);
    let reduction = eager_decoded as f64 / late.uncompressed_bytes as f64;
    assert_eq!(format!("{reduction:.6}"), "3.478261");
}
