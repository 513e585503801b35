//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **cost-aware projection guard** — with `max_project_weight` set, the
//!    Selectivity Analyzer declines the harmful projection pushdown the
//!    paper observed (Deep Water −7 %, TPC-H −55 %). Under the streamed
//!    batch boundary the penalty is workload-dependent: TPC-H's heavy
//!    expression projection still loses (weak storage cores on the
//!    critical path), while Deep Water's milder projection now *hides*
//!    inside the pipeline and pushing it wins — both directions are
//!    asserted;
//! 2. **symmetric cluster** — give the storage node the compute node's
//!    resources and the projection penalty disappears, confirming the
//!    effect comes from the resource asymmetry, not the mechanism;
//! 3. **selectivity threshold sweep** — how the filter-pushdown decision
//!    responds to the threshold, including the skewed-data failure mode
//!    the paper flags for its normal-distribution assumption.
//!
//! ```sh
//! cargo run --release -p ocs-bench --bin ablation
//! ```

use std::fmt::Write;
use std::sync::Arc;

use lzcodec::CodecKind;
use netsim::ClusterSpec;
use ocs_bench::{build_stack, run_as, DatasetSelection, Scale};
use ocs_connector::{OcsConnector, PushdownPolicy};
use workloads::queries;

fn main() {
    let scale = Scale::from_env();
    let mut out = String::new();

    // ---- 1. Cost-aware projection guard --------------------------------
    writeln!(out, "## Ablation 1 — cost-aware projection guard").unwrap();
    writeln!(
        out,
        "{:<12} {:<18} {:>12} {:>30}",
        "workload", "policy", "sim time", "pushed ops"
    )
    .unwrap();
    for (table, sql) in [
        ("deepwater", queries::DEEPWATER),
        ("lineitem", queries::TPCH_Q1),
    ] {
        let stack = build_stack(scale, CodecKind::None, DatasetSelection::only(table), None);
        // Blind filter+project vs cost-aware (projection declined above
        // weight 4: both workload projections involve division/multiplying
        // several columns, well above it).
        stack.engine.register_connector(Arc::new(OcsConnector::new(
            "cost-aware",
            ocs_for(&stack),
            stack.engine.cluster().clone(),
            stack.engine.cost_params().clone(),
            PushdownPolicy {
                max_project_weight: 4,
                ..PushdownPolicy::filter_project()
            },
        )));
        let blind = run_as(&stack, table, "pd-filter-proj", sql);
        let aware = run_as(&stack, table, "cost-aware", sql);
        writeln!(
            out,
            "{:<12} {:<18} {:>10.3} s {:>30}",
            table,
            "blind f+proj",
            blind.simulated_seconds,
            handle_of(&blind)
        )
        .unwrap();
        writeln!(
            out,
            "{:<12} {:<18} {:>10.3} s {:>30}",
            table,
            "cost-aware",
            aware.simulated_seconds,
            handle_of(&aware)
        )
        .unwrap();
        if table == "lineitem" {
            // TPC-H's expression projection stays harmful: the weight
            // guard must win by declining it.
            assert!(
                aware.simulated_seconds <= blind.simulated_seconds + 1e-9,
                "declining the TPC-H projection must not be slower"
            );
        } else {
            // Deep Water flips under the streamed boundary: the milder
            // projection overlaps with the engine's serial per-split
            // aggregation chain, so pushing it is now the faster plan and
            // the weight-only guard is measurably conservative here.
            assert!(
                blind.simulated_seconds <= aware.simulated_seconds + 1e-9,
                "streamed Deep Water projection pushdown must not be slower"
            );
        }
        assert_eq!(aware.batch.num_rows(), blind.batch.num_rows());
    }
    writeln!(
        out,
        "(TPC-H's heavy projection still loses on the weak storage node; Deep \
         Water's milder projection now hides inside the streamed pipeline, so \
         the weight-only guard is conservative there)"
    )
    .unwrap();
    writeln!(out).unwrap();

    // ---- 2. Symmetric cluster -------------------------------------------
    writeln!(
        out,
        "## Ablation 2 — projection penalty vs cluster asymmetry"
    )
    .unwrap();
    writeln!(
        out,
        "{:<22} {:>14} {:>14} {:>12} {:>12}",
        "cluster", "filter-only", "filter+proj", "streamed", "additive"
    )
    .unwrap();
    for (name, cluster) in [
        ("paper (16c storage)", None),
        ("symmetric (64c)", Some(ClusterSpec::symmetric_testbed())),
    ] {
        let stack = build_stack(
            scale,
            CodecKind::None,
            DatasetSelection::only("lineitem"),
            cluster,
        );
        let f = run_as(&stack, "lineitem", "pd-filter", queries::TPCH_Q1);
        let fp = run_as(&stack, "lineitem", "pd-filter-proj", queries::TPCH_Q1);
        let streamed = (fp.simulated_seconds / f.simulated_seconds - 1.0) * 100.0;
        let additive = (fp.pipeline.additive_s / f.pipeline.additive_s - 1.0) * 100.0;
        writeln!(
            out,
            "{:<22} {:>12.3} s {:>12.3} s {:>10.1} % {:>10.1} %",
            name, f.simulated_seconds, fp.simulated_seconds, streamed, additive
        )
        .unwrap();
    }
    writeln!(
        out,
        "(under the paper's additive stage barriers the penalty is dominated by \
         the weak storage node's expression evaluation and shrinks on a \
         symmetric cluster; the streamed pipeline hides most of that CPU time, \
         leaving the residual penalty of the *wider computed columns* crossing \
         the wire, which no amount of storage CPU removes)\n"
    )
    .unwrap();

    // ---- 3. Selectivity threshold sweep ---------------------------------
    writeln!(out, "## Ablation 3 — selectivity threshold").unwrap();
    writeln!(
        out,
        "{:<12} {:>10} {:>14} {:>24}",
        "threshold", "time", "moved", "filter pushed?"
    )
    .unwrap();
    let stack = build_stack(
        scale,
        CodecKind::None,
        DatasetSelection::only("laghos"),
        None,
    );
    for threshold in [0.05, 0.1, 0.25, 0.5, 1.0] {
        let name = format!("thr-{threshold}");
        stack.engine.register_connector(Arc::new(OcsConnector::new(
            name.clone(),
            ocs_for(&stack),
            stack.engine.cluster().clone(),
            stack.engine.cost_params().clone(),
            PushdownPolicy {
                selectivity_threshold: threshold,
                ..PushdownPolicy::filter_only()
            },
        )));
        let r = run_as(&stack, "laghos", &name, queries::LAGHOS);
        let pushed = r.optimized_plan.contains("pushed=[Filter");
        writeln!(
            out,
            "{:<12} {:>8.3} s {:>14} {:>24}",
            threshold,
            r.simulated_seconds,
            netsim::meter::human_bytes(r.moved_bytes),
            if pushed { "yes" } else { "no (kept at engine)" }
        )
        .unwrap();
    }
    writeln!(
        out,
        "(the Laghos box filter actually keeps 0.216 of rows, but the paper's \
         normal-distribution assumption over-estimates it at ~0.46 — exactly the \
         skew sensitivity the paper flags; thresholds below the estimate decline \
         the pushdown)"
    )
    .unwrap();

    ocs_bench::emit_report("ablation", &out);
}

/// The shared OCS deployment behind a stack (rebuilt cheaply — it only
/// wraps the store).
fn ocs_for(stack: &ocs_bench::BenchStack) -> Arc<ocs::Ocs> {
    Arc::new(ocs::Ocs::new(
        stack.store.clone(),
        ocs::OcsConfig {
            storage_node: stack.engine.cluster().storage.clone(),
            storage_disk: stack.engine.cluster().storage_disk,
            frontend_node: stack.engine.cluster().frontend.clone(),
            cost: stack.engine.cost_params().clone(),
            frame_window: ocs::DEFAULT_FRAME_WINDOW,
            // Ablation rows must reflect the cold pushdown path, not a
            // warm cache.
            row_group_cache_bytes: 0,
            result_cache_bytes: 0,
        },
    ))
}

fn handle_of(r: &dsq::QueryResult) -> String {
    r.optimized_plan
        .lines()
        .find(|l| l.contains("TableScan"))
        .and_then(|l| l.split("pushed=").nth(1))
        .map(|s| format!("pushed={s}"))
        .unwrap_or_else(|| "column projection only".into())
}
