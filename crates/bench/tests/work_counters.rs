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

/// Bytes through `ipc::checksum` for one cold run of each query: every
/// page, footer and frame checksum, written and verified. Nothing may hash
/// a byte more than once per checksum the formats define.
///
/// On `raw` and `pd-all` this is the pages and footers read, plus (on
/// `pd-all`) a few small frames. On `pd-filter` it is the pages and
/// footers read plus twice the result frames' bytes: storage seals each
/// frame once, the engine verifies it once. For Q1 that is about 16.6 M,
/// plus the 262 144 index bytes of its two dictionary-coded flag columns,
/// which their pages' checksums cover.
const BYTES_HASHED: [(&str, &str, &str, u64); 9] = [
    ("laghos", queries::LAGHOS, "raw", 10_489_336),
    ("laghos", queries::LAGHOS, "pd-filter", 14_964_952),
    ("laghos", queries::LAGHOS, "pd-all", 10_536_768),
    ("deepwater", queries::DEEPWATER, "raw", 6_292_960),
    ("deepwater", queries::DEEPWATER, "pd-filter", 8_569_048),
    ("deepwater", queries::DEEPWATER, "pd-all", 6_297_236),
    ("lineitem", queries::TPCH_Q1, "raw", 4_987_084),
    ("lineitem", queries::TPCH_Q1, "pd-filter", 16_882_808),
    ("lineitem", queries::TPCH_Q1, "pd-all", 5_001_516),
];

#[test]
fn table2_work_counters() {
    let mut hashed = Vec::new();
    for (table, sql, connector, _) in BYTES_HASHED {
        let stack = build_stack(
            Scale::Small,
            CodecKind::None,
            DatasetSelection::only(table),
            None,
        );
        let before = obs::metrics().snapshot();
        let r = run_as(&stack, table, connector, sql);
        let work = obs::metrics().snapshot().diff(&before);
        hashed.push(work.counter("columnar.bytes_hashed"));

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

            let gathered = work.counter("columnar.rows_gathered");
            assert!(
                0 < gathered && gathered <= r.stats.rows_scanned,
                "{gathered} rows gathered of {} scanned",
                r.stats.rows_scanned
            );
        }
    }
    let expected: Vec<u64> = BYTES_HASHED.iter().map(|row| row.3).collect();
    assert_eq!(hashed, expected);
}
