//! End-to-end correctness: the three Table-2 queries must produce
//! identical results through every access path — no pushdown (raw) and
//! every OCS pushdown depth, filter-only (the S3-Select level) included —
//! while data movement decreases monotonically with pushdown depth, and
//! every path's simulated ledger matches its golden bit for bit.

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
/// move none of these must leave every line as it is. Restated when pages,
/// frames and footers went to one 8-byte checksum each: the moved bytes
/// grew by the checksum bytes, and every phase that prices them moved.
const LEDGER_GOLDENS: &str = "\
laghos raw 3fcd987f6ea331f4 3f4307c96fac71d0 0 3f5de13ccf4d38fc 0 3f2fdf2fcc0e1aa7 0 3f59ce5c1a64ad6e 3fa74c7d0a6c7501 3fc73b0164d200ee 5251312 4\n\
laghos none 3fccbac43732aaa9 3f4307c96fac71d0 3f864d200ede155f 3f493c1777dda82a 0 3f62eab4435dd265 3f55d4e5480bf4dd 3f4a6ea6c0788673 3f9ae74d7169b48a 3fc73b0164d200ee 2624920 16\n\
laghos filter 3fcd65db6e7ed49b 3f4307c96fac71d0 3fa3837c0d0252b3 0 0 3f40fecbff447b7d 3f435051a82650fc 3f3dc3d1d2ad5153 3f803c2366bd1199 3fc73b0164d200ee 556756 16\n\
laghos filter+proj 3fcd659c96e18027 3f4307c96fac71d0 3fa3837c0d0252b3 0 0 0 3f449129ee1d1fb0 3f3fb45d7d0b247a 3f812490cb29b686 3fc73b0164d200ee 555808 16\n\
laghos filter+proj+agg 3fcff11c64885302 3f4307c96fac71d0 3fb042e7602c9a40 0 0 3f50165bd134c796 3f36f14a834b9c79 3f3510b62c1043c8 3f62dc738d9040e5 3fc73b0164d200ee 101132 12\n\
laghos all 3fd01117f9e31aea 3f4307c96fac71d0 3fb130c8b62085cf 0 0 3f4e51195f83b7b7 3f3446c89735be60 3f337de2f189b64a 3f331df6a0c43430 3fc73b0164d200ee 23100 12\n\
deepwater raw 3fcac5e9d1f5f420 3f4307c96fac71d0 0 3f4771f37b4d07d3 0 3f190214c7c9a1f3 0 3f4aad4e5fa8a77a 3f9a1508fa02bee1 3fc73b0164d200ee 2100672 4\n\
deepwater none 3fca7fe6ea3323fe 3f4307c96fac71d0 3f7dbc2abe7d71d4 3f3ded6fa432350a 0 3f566f45d26b5a5c 3f4da6ca920bf991 3f43553e053b9dbb 3f8d72b19ef53a90 3fc73b0164d200ee 1576136 16\n\
deepwater filter 3fc9ca001c1d1d41 3f4307c96fac71d0 3f8dbc2abe7d71d4 0 0 3f320708e69df6d5 3f4030953aae1804 3f3b3f388c0d3bf2 3f6e5822ffe54496 3fc73b0164d200ee 287296 16\n\
deepwater filter+proj 3fcb4b6b81330b8a 3f4307c96fac71d0 3f9be06812959ab7 0 0 3f5bd73eacbd91d4 3f32bf8fbd7726c8 3f306e17d2fbd679 3f5c07ffbe7b1894 3fc73b0164d200ee 192928 16\n\
deepwater filter+proj+agg 3fcbea32b1ec55a8 3f4307c96fac71d0 3fa1a7b9611a7b96 0 0 3f5409b16890fafa 3f23d5e8a45ca024 3f234ecd0afa3982 3ee7a6c9c46d827d 3fc73b0164d200ee 3368 12\n\
deepwater all 3fcbe9d36db02fa4 3f4307c96fac71d0 3fa1a7b9611a7b96 0 0 0 3f48bdb4254532b0 3f481a4d13d049a8 3f003e5eecde2be6 3fc73b0164d200ee 2116 12\n\
lineitem raw 3fcb765be730cdea 3f47c9bbcb978e43 0 3f4dda7ff2bc7140 0 3f1fd7fff1da1266 0 3f4f03cfa77c8345 3f9f15bbb7d609ba 3fc73b0164d200ee 2681180 4\n\
lineitem none 3fcc787a776c2ece 3f47c9bbcb978e43 3f8dbc2abe7d71d4 3f3a13c100c5d003 0 3f67a777713d0e77 3f4fb365951e8aa6 3f44cf554eafe643 3f954e118deccd0d 3fc73b0164d200ee 1511584 12\n\
lineitem filter 3fcced63c2e40a80 3f47c9bbcb978e43 3f964d200ede155f 0 0 3f30705d0faacce2 3f5023bcc4d8d6ee 3f453c3c65600b86 3f9499c5df9e41c3 3fc73b0164d200ee 1491280 12\n\
lineitem filter+proj 3fd11c357496a41c 3f47c9bbcb978e43 3fadbc2abe7d71d4 0 0 3f7537a4efe73056 3f509079bd0f99b7 3f45836109a73ec9 3f94b19ce76a9a90 3fc73b0164d200ee 1621316 12\n\
lineitem filter+proj+agg 3fd2a078f72eec0f 3f47c9bbcb978e43 3fba04a566adc39a 0 0 3f7aea8723d6a57e 3f32cc784e8a9b98 3f32460682ac7b55 3f0f6a1e20d1d4b5 3fc73b0164d200ee 7836 12\n\
lineitem all 3fd2443a7693d435 3f47c9bbcb978e43 3fba04a566adc39a 0 0 0 3f483681e4f705a2 3f478e504e74e84e 3f1c9237fe11967a 3fc73b0164d200ee 6584 12\n";

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
        // Filter-only pushdown, the S3-Select level, never moves more than
        // shipping whole objects.
        if name == "filter" {
            assert!(
                got.moved_bytes <= reference.moved_bytes,
                "{table}: filter-only moved {} > raw {}",
                got.moved_bytes,
                reference.moved_bytes
            );
        }
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

/// Every cell of a result, a Float64 by its bits, rows in query order;
/// with `sort` (a query with no `ORDER BY`), rows sorted by their cells.
fn exact_rows(batch: &columnar::RecordBatch, sort: bool) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (batch.rows().into_iter())
        .map(|row| {
            row.iter()
                .map(|s| match s {
                    columnar::Scalar::Float64(v) => format!("f64:{:016x}", v.to_bits()),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    if sort {
        rows.sort();
    }
    rows
}

/// The Table 2 queries give the same Float64 bits, not only the same six
/// decimals, whether the engine or storage filters, projects and
/// aggregates: every depth keeps the rows in one order, so every SUM and
/// AVG adds the same values in the same order.
#[test]
fn float_bits_agree_across_pushdown_depths() {
    let depths = [
        ("pd-filter", PushdownPolicy::filter_only()),
        (
            "pd-filter-proj-agg",
            PushdownPolicy::filter_project_aggregate(),
        ),
        ("pd-all", PushdownPolicy::all()),
    ];
    let st = stack(PushdownPolicy::all(), CodecKind::None, &depths);
    for (table, sql, sort) in [
        ("laghos", queries::LAGHOS, false),
        ("deepwater", queries::DEEPWATER, true),
        ("lineitem", queries::TPCH_Q1, false),
    ] {
        rebind(&st, table, "raw");
        let raw = exact_rows(&st.engine.execute(sql).expect("raw path").batch, sort);
        // Laghos and Q1 return Float64 cells; Deep Water's are integers.
        assert!(raw.iter().flatten().any(|c| c.starts_with("f64:")) || table == "deepwater");
        for (depth, _) in &depths {
            rebind(&st, table, depth);
            let got = st
                .engine
                .execute(sql)
                .unwrap_or_else(|e| panic!("{table} {depth}: {e}"));
            assert_eq!(
                exact_rows(&got.batch, sort),
                raw,
                "{table}: {depth} moved a Float64 bit"
            );
        }
    }
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
