//! Calibration helper: dump the per-phase ledger for every configuration
//! of every workload (raw, then each pushdown depth from `pd-filter`, the
//! S3-Select level, to `pd-all`), so the cost-model constants can be tuned
//! against the paper's ratios. Not one of the paper's artifacts, but kept as a
//! first-class tool (EXPERIMENTS.md documents the calibration workflow).

use lzcodec::CodecKind;
use netsim::meter::human_bytes;
use ocs_bench::{build_stack, run_as, DatasetSelection, Scale};
use workloads::queries;

fn main() {
    let scale = Scale::from_env();
    for (table, sql) in [
        ("laghos", queries::LAGHOS),
        ("deepwater", queries::DEEPWATER),
        ("lineitem", queries::TPCH_Q1),
    ] {
        let stack = build_stack(scale, CodecKind::None, DatasetSelection::only(table), None);
        println!("\n================ {table} ================");
        for connector in [
            "raw",
            "pd-filter",
            "pd-filter-proj",
            "pd-filter-proj-agg",
            "pd-all",
        ] {
            let r = run_as(&stack, table, connector, sql);
            println!(
                "\n--- {connector}: total {:.4} s, moved {}, chain {}",
                r.simulated_seconds,
                human_bytes(r.moved_bytes),
                r.chain
            );
            for (label, secs, share) in r.ledger.breakdown() {
                println!("    {label:<30} {secs:>9.4} s {share:>6.1} %");
            }
        }
    }
}
