//! Exact work counters on the filter-only result path: Table 2's TPC-H Q1
//! through `pd-filter` at `Small` scale, where storage filters and ships
//! about 98 % of `lineitem` and the engine groups it.
//!
//! The metrics registry is process-global, so this binary holds a single
//! test: no other query may bump the counters while it reads them.

use lzcodec::CodecKind;
use ocs_bench::{build_stack, run_as, DatasetSelection, Scale};
use workloads::queries;

/// Bytes through `xxh32` for one cold run of the query: every page and
/// frame checksum, written and verified. Nothing on the result path may
/// hash a byte more than once per checksum the wire format defines.
const BYTES_HASHED: u64 = 28_503_172;

#[test]
fn q1_filter_only_work_counters() {
    let stack = build_stack(
        Scale::Small,
        CodecKind::None,
        DatasetSelection::only("lineitem"),
        None,
    );
    let before = obs::metrics().snapshot();
    let r = run_as(&stack, "lineitem", "pd-filter", queries::TPCH_Q1);
    let work = obs::metrics().snapshot().diff(&before);

    // Group ids resolve by batch-local code: only the first row of each
    // distinct key tuple of a batch, or of a partial aggregate merged into
    // the final one, goes through the per-row probe.
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

    assert_eq!(work.counter("columnar.bytes_hashed"), BYTES_HASHED);
}
