//! End-to-end correctness: the three Table-2 queries must produce
//! identical results through every access path — no pushdown (raw),
//! filter-only (hive), and every OCS pushdown depth — while data movement
//! decreases monotonically with pushdown depth, and every path's simulated
//! ledger matches its golden bit for bit.

mod common;

use common::{canonical_rows, rebind, stack, stack_with_policy};
use dsq::QueryResult;
use lzcodec::CodecKind;
use netsim::Phase;
use ocs_connector::PushdownPolicy;
use workloads::queries;

fn policies() -> Vec<(&'static str, PushdownPolicy)> {
    vec![
        ("none", PushdownPolicy::none()),
        ("filter", PushdownPolicy::filter_only()),
        ("filter+proj", PushdownPolicy::filter_project()),
        (
            "filter+proj+agg",
            PushdownPolicy::filter_project_aggregate(),
        ),
        ("all", PushdownPolicy::all()),
    ]
}

/// Every access path's simulated clock and data movement, captured before
/// the two executors were lowered onto one `columnar::ops` pipeline. One
/// line per run: table, path, `simulated_seconds` bits, each ledger phase's
/// bits in `Phase::ALL` order (hex), moved bytes, frames. A change meant to
/// move none of these must leave every line as it is.
const LEDGER_GOLDENS: &str = "\
laghos raw 3fcd987afd6a59b1 3f4307c96fac71d0 0 3f5de0ad05496d23 0 3f2fde966c0a0e04 0 3f59cdf7e9dd53bd 3fa74c737ebd7131 3fc73b0164d200ee 5250960 4\n\
laghos hive 3fc971ea9028d71a 3f4307c96fac71d0 0 3f4f00af03363d8a 0 3f7c7a771a7b0d47 0 3f3f9a8c8e7cbdda 3f8113fb3c8dcb40 3fc73b0164d200ee 553280 4\n\
laghos none 3fccbac141685faa 3f4307c96fac71d0 3f864d200ede155f 3f493bafe85e3b58 0 3f62eab242c75eb2 3f55d4d54fcd2d29 3f4a6e963745e257 3f9ae73ac373a80c 3fc73b0164d200ee 2624888 16\n\
laghos filter 3fcd65d923aca88a 3f4307c96fac71d0 3fa3837c0d0252b3 0 0 3f40fecf11768858 3f435035976f324f 3f3dc3b7768db07f 3f803c011c639ea4 3fc73b0164d200ee 556724 16\n\
laghos filter+proj 3fcd659a4c0f5415 3f4307c96fac71d0 3fa3837c0d0252b3 0 0 0 3f44910f22446c6e 3f3fb446324f2bb1 3f81246e851a6066 3fc73b0164d200ee 555776 16\n\
laghos filter+proj+agg 3fcff11a03c79fea 3f4307c96fac71d0 3fb042e7602c9a40 0 0 3f501657d034ab1e 3f36f10aabe56806 3f351093b1e84d06 3f62dbe9a8154e34 3fc73b0164d200ee 101100 12\n\
laghos all 3fd01116c982c15d 3f4307c96fac71d0 3fb130c8b62085cf 0 0 3f4e5105d9a3a6f0 3f344682d0d94fe8 3f337db9de429ae9 3f3319cb04c1ad04 3fc73b0164d200ee 23068 12\n\
deepwater raw 3fcac5e833d8c20d 3f4307c96fac71d0 0 3f4771791fc29c6d 0 3f1901924402c8fc 0 3f4aacf8a191c415 3f9a15030c69ff9a 3fc73b0164d200ee 2100512 4\n\
deepwater hive 3fc8778508b3e3b9 3f4307c96fac71d0 0 3f4330a6d97f7d61 0 3f7170925150f133 0 3f3c22c8ee0c770a 3f6f2d4f25ca45a8 3fc73b0164d200ee 284256 4\n\
deepwater none 3fca7fe44a4f1488 3f4307c96fac71d0 3f7dbc2abe7d71d4 3f3decf485991986 0 3f566f4338d89b73 3f4da6ac22d1b3e0 3f43552e33d990f2 3f8d728eb0e52916 3fc73b0164d200ee 1576104 16\n\
deepwater filter 3fc9c9fdd14af12f 3f4307c96fac71d0 3f8dbc2abe7d71d4 0 0 3f320712e15b9ab2 3f40307cb82baa7c 3f3b3f25f6c60c99 3f6e57977f4c0cff 3fc73b0164d200ee 287264 16\n\
deepwater filter+proj 3fcb4b693660df78 3f4307c96fac71d0 3f9be06812959ab7 0 0 3f5bd71d31a56520 3f32bf4e736ab8ac 3f306dee91f95f96 3f5c07167340f5bb 3fc73b0164d200ee 192896 16\n\
deepwater filter+proj+agg 3fcbea30512ba28e 3f4307c96fac71d0 3fa1a7b9611a7b96 0 0 3f5409312fdf17ec 3f23d530c0d93857 3f234e34d8cc16e9 3ee763b74bb15cd8 3fc73b0164d200ee 3336 12\n\
deepwater all 3fcbe9d122de0393 3f4307c96fac71d0 3fa1a7b9611a7b96 0 0 0 3f48bf12d015ab5d 3f481bc440a437a8 3effd8a89fad4e62 3fc73b0164d200ee 2084 12\n\
lineitem raw 3fcb7658fdc90d62 3f47c9bbcb978e43 0 3f4dd9a387b5ddc1 0 3f1fd714d50641df 0 3f4f0335e85b8341 3f9f15b1090615e2 3fc73b0164d200ee 2680892 4\n\
lineitem hive 3fcaa02c46b6cccf 3f47c9bbcb978e43 0 3f3b7417b933f86a 0 3f70eb0a27ebda39 0 3f45ba64d7880273 3f9514a3212d9c13 3fc73b0164d200ee 1487304 4\n\
lineitem none 3fcc78772bbba846 3f47c9bbcb978e43 3f8dbc2abe7d71d4 3f3a13223caccd7a 0 3f67a772bc44f975 3f4fb34192550b17 3f44cf423a96c869 3f954dfbfacf1468 3fc73b0164d200ee 1511552 12\n\
lineitem filter 3fcced6162235767 3f47c9bbcb978e43 3f964d200ede155f 0 0 3f30705d39d164d4 3f5023adab637458 3f453c2d424fea5a 3f9499b4439fe5cb 3fc73b0164d200ee 1491248 12\n\
lineitem filter+proj 3fd11c345a1a0584 3f47c9bbcb978e43 3fadbc2abe7d71d4 0 0 3f7537a5b5cb6944 3f50906b8b5ec14b 3f458352f023515e 3f94b18c620ecfc5 3fc73b0164d200ee 1621284 12\n\
lineitem filter+proj+agg 3fd2a077e7a990fa 3f47c9bbcb978e43 3fba04a566adc39a 0 0 3f7aea870ec88c0e 3f32cc4280f01454 3f3245eb6d02bd54 3f0f4abf169e2bce 3fc73b0164d200ee 7804 12\n\
lineitem all 3fd24439512abe2c 3f47c9bbcb978e43 3fba04a566adc39a 0 0 0 3f4837bf5f678b1e 3f478fa5c456543b 3f1c6b49ea217e7d 3fc73b0164d200ee 6552 12\n";

/// `r`'s ledger line, in [`LEDGER_GOLDENS`]' format.
fn ledger_line(table: &str, path: &str, r: &QueryResult) -> String {
    let phases = Phase::ALL.map(|p| format!("{:x}", r.ledger.get(p).to_bits()));
    format!(
        "{table} {path} {:x} {} {} {}",
        r.simulated_seconds.to_bits(),
        phases.join(" "),
        r.moved_bytes,
        r.pipeline.frames
    )
}

fn check_ledger(table: &str, path: &str, r: &QueryResult) {
    let got = ledger_line(table, path, r);
    let prefix = format!("{table} {path} ");
    let golden = LEDGER_GOLDENS
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no ledger golden for {table} {path}"));
    assert_eq!(got, golden, "{table} {path}: the simulated ledger moved");
}

fn check_query(table: &str, sql: &str) {
    let extra: Vec<(&str, PushdownPolicy)> = policies().into_iter().collect();
    let st = stack(PushdownPolicy::all(), CodecKind::None, &extra);

    // Reference: raw connector (no pushdown at all).
    rebind(&st, table, "raw");
    let reference = st.engine.execute(sql).expect("raw path");
    let expected = canonical_rows(&reference.batch);
    assert!(!expected.is_empty(), "reference result must be non-empty");
    check_ledger(table, "raw", &reference);

    // Hive (filter-only pushdown).
    rebind(&st, table, "hive");
    let hive = st.engine.execute(sql).expect("hive path");
    check_ledger(table, "hive", &hive);
    assert_eq!(
        canonical_rows(&hive.batch),
        expected,
        "{table}: hive result differs from raw"
    );
    assert!(
        hive.moved_bytes <= reference.moved_bytes,
        "{table}: hive moved {} > raw {}",
        hive.moved_bytes,
        reference.moved_bytes
    );

    // OCS at each pushdown depth.
    let mut prev_moved = u64::MAX;
    for (name, _) in policies() {
        rebind(&st, table, name);
        let got = st.engine.execute(sql).unwrap_or_else(|e| {
            panic!("{table} with policy {name}: {e}");
        });
        check_ledger(table, name, &got);
        assert_eq!(
            canonical_rows(&got.batch),
            expected,
            "{table}: OCS policy '{name}' changed the result"
        );
        // Deeper pushdown never moves more data — modulo the small wire
        // overhead a projection can add when its output is no narrower
        // than its input (the paper's TPC-H "+Proj" case, where movement
        // stays flat at 192 MB).
        let slack = prev_moved / 8 + 4096;
        assert!(
            got.moved_bytes <= prev_moved.saturating_add(slack),
            "{table} policy '{name}': movement grew: {} after {}",
            got.moved_bytes,
            prev_moved
        );
        prev_moved = got.moved_bytes;
    }
}

#[test]
fn laghos_all_paths_agree() {
    check_query("laghos", queries::LAGHOS);
}

#[test]
fn deepwater_all_paths_agree() {
    check_query("deepwater", queries::DEEPWATER);
}

#[test]
fn tpch_q1_all_paths_agree() {
    check_query("lineitem", queries::TPCH_Q1);
}

#[test]
fn table2_plan_chains_match_paper() {
    let stack = stack_with_policy(PushdownPolicy::none(), CodecKind::None);
    for (name, sql, expected_chain) in queries::TABLE2 {
        let (_, plan) = stack.engine.plan(sql).expect(name);
        assert_eq!(plan.chain_description(), expected_chain, "{name}");
    }
}

#[test]
fn full_pushdown_collapses_movement_by_orders_of_magnitude() {
    // The headline effect: Laghos full pushdown vs filter-only.
    let filter_only = stack_with_policy(PushdownPolicy::filter_only(), CodecKind::None);
    let all = stack_with_policy(PushdownPolicy::all(), CodecKind::None);
    let a = filter_only.engine.execute(queries::LAGHOS).unwrap();
    let b = all.engine.execute(queries::LAGHOS).unwrap();
    assert_eq!(canonical_rows(&a.batch), canonical_rows(&b.batch));
    assert!(
        b.moved_bytes * 20 < a.moved_bytes,
        "full pushdown {} vs filter-only {}",
        b.moved_bytes,
        a.moved_bytes
    );
    // Compare the *data-path* time (scan/filter/agg/transfer); the fixed
    // per-query costs (plan analysis, IR generation, scheduling) are
    // scale-independent and dominate only at this miniature test scale.
    let data_path = |r: &dsq::QueryResult| {
        use netsim::Phase;
        r.simulated_seconds
            - r.ledger.get(Phase::SubstraitGen)
            - r.ledger.get(Phase::PlanAnalysis)
            - r.ledger.get(Phase::Other)
    };
    assert!(
        data_path(&b) < data_path(&a),
        "full pushdown {} s vs filter-only {} s (data path)",
        data_path(&b),
        data_path(&a)
    );
}

#[test]
fn pushdown_metadata_visible_in_plan() {
    let stack = stack_with_policy(PushdownPolicy::all(), CodecKind::None);
    let (_, plan) = stack.engine.plan(queries::LAGHOS).unwrap();
    let desc = plan.scan().handle.describe();
    assert!(desc.contains("Filter"), "{desc}");
    assert!(desc.contains("Aggregation"), "{desc}");
    // Laghos full pushdown: residual plan is just the TopN merge.
    assert_eq!(plan.chain_description(), "TableScan -> TopN");
}

#[test]
fn compressed_datasets_same_results() {
    for codec in [CodecKind::Snap, CodecKind::Gz, CodecKind::Zst] {
        let raw = stack_with_policy(PushdownPolicy::all(), CodecKind::None);
        let compressed = stack_with_policy(PushdownPolicy::all(), codec);
        for (name, sql, _) in queries::TABLE2 {
            let a = raw.engine.execute(sql).expect(name);
            let b = compressed.engine.execute(sql).expect(name);
            assert_eq!(
                canonical_rows(&a.batch),
                canonical_rows(&b.batch),
                "{name} under {codec}"
            );
        }
    }
}
