//! Exact work counters for Table 2's three queries at `Small` scale.
//!
//! TPC-H Q1 through `pd-filter` is the filter-only result path: storage
//! filters and ships about 98 % of `lineitem` and the engine groups it.
//! Every query also runs through `raw` (the engine reads whole objects)
//! and `pd-all` (every operator runs in storage), each on a cold stack.
//!
//! The metrics registry is process-global, so this binary holds a single
//! test: no other query may bump the counters while it reads them.

use lzcodec::CodecKind;
use ocs_bench::{build_stack, run_as, DatasetSelection, Scale};
use workloads::queries;

/// Per query and connector, two exact counts for one cold run.
///
/// Bytes hashed: bytes through `ipc::checksum`, every page, footer and
/// frame checksum, written and verified. Nothing may hash a byte more than
/// once per checksum the formats define. On `raw` and `pd-all` this is the
/// pages and footers read, plus (on `pd-all`) a few small frames. On
/// `pd-filter` it is the pages and footers read plus twice the result
/// frames' bytes: storage seals each frame once, the engine verifies it
/// once. For Q1 that is about 16.6 M, plus the 262 144 index bytes of its
/// two dictionary-coded flag columns, which their pages' checksums cover.
///
/// Rows gathered: rows that a partial selection kept and copied, counted
/// once per gather (every column of a batch shares one). The filter keeps
/// the same rows whether the engine (`raw`) or storage runs it, so each
/// query gathers the same count on every connector.
const PINS: [(&str, &str, &str, u64, u64); 9] = [
    ("laghos", queries::LAGHOS, "raw", 10_489_336, 55_848),
    ("laghos", queries::LAGHOS, "pd-filter", 14_964_952, 55_848),
    ("laghos", queries::LAGHOS, "pd-all", 10_536_768, 55_848),
    ("deepwater", queries::DEEPWATER, "raw", 6_292_960, 47_334),
    (
        "deepwater",
        queries::DEEPWATER,
        "pd-filter",
        8_569_048,
        47_334,
    ),
    ("deepwater", queries::DEEPWATER, "pd-all", 6_297_236, 47_334),
    ("lineitem", queries::TPCH_Q1, "raw", 4_987_084, 129_205),
    (
        "lineitem",
        queries::TPCH_Q1,
        "pd-filter",
        16_882_808,
        129_205,
    ),
    ("lineitem", queries::TPCH_Q1, "pd-all", 5_001_516, 129_205),
];

#[test]
fn table2_work_counters() {
    let mut counted = Vec::new();
    for (table, sql, connector, _, _) in PINS {
        let stack = build_stack(
            Scale::Small,
            CodecKind::None,
            DatasetSelection::only(table),
            None,
        );
        let before = obs::metrics().snapshot();
        let r = run_as(&stack, table, connector, sql);
        let work = obs::metrics().snapshot().diff(&before);
        counted.push((
            work.counter("columnar.bytes_hashed"),
            work.counter("columnar.rows_gathered"),
        ));

        if (table, connector) == ("lineitem", "pd-filter") {
            // Group ids resolve by batch-local code: only the first row of
            // each distinct key tuple of a batch, or of a partial aggregate
            // merged into the final one, goes through the per-row probe.
            let probed = work.counter("columnar.groupby.rows_probed");
            let groups = r.batch.num_rows() as u64;
            let inputs = r.pipeline.frames + r.splits as u64;
            assert!(
                probed <= groups * inputs,
                "{probed} rows probed for {groups} groups over {inputs} batches and merges"
            );
        }
    }
    let expected: Vec<(u64, u64)> = PINS.iter().map(|row| (row.3, row.4)).collect();
    assert_eq!(
        counted, expected,
        "(bytes hashed, rows gathered) per row of PINS"
    );
}
