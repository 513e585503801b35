//! `ocs-bench` — the experiment harness that regenerates every table and
//! figure of the paper.
//!
//! Binaries (run with `cargo run --release -p ocs-bench --bin <name>`):
//!
//! * `table2`  — the three queries, measured selectivity, plan chains;
//! * `figure5` — progressive pushdown sweep per workload (time + movement);
//! * `figure6` — compression × pushdown matrix on Deep Water;
//! * `table3`  — per-phase breakdown of a single-file full-pushdown query;
//! * `ablation` — cost-aware policy, symmetric-cluster, and
//!   selectivity-threshold studies (the design choices DESIGN.md calls
//!   out);
//! * `calibrate` — searches the cost-model constants against the paper's
//!   published ratios.
//!
//! The first five write `results/<name>.txt` at the workspace root; CI's
//! `results-reproduce` job regenerates them and fails on any diff. This
//! crate measures no wall clock: that is `perfbench/`'s job, and the
//! simulated acceptance gates are tier-1 tests
//! (`tests/tests/sim_gates.rs`).
//!
//! Scale is controlled by `REPRO_SCALE` (`small` | `medium` | `large`,
//! default `medium`). All results are *simulated seconds* under the
//! paper-testbed cost model; ratios are the comparison currency (see
//! EXPERIMENTS.md).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dsq::{Engine, EngineBuilder, QueryResult};
use lzcodec::CodecKind;
use netsim::meter::human_bytes;
use netsim::ClusterSpec;
use objstore::ObjectStore;
use ocs_connector::{register_ocs_stack, OcsConnector, PushdownPolicy};
use workloads::{DeepWaterConfig, LaghosConfig, TableLoader, TpchConfig};

/// Dataset scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny (CI-sized).
    Small,
    /// Default bench scale.
    Medium,
    /// Larger runs for smoother ratios.
    Large,
}

impl Scale {
    /// Read from `REPRO_SCALE`.
    pub fn from_env() -> Scale {
        match std::env::var("REPRO_SCALE").as_deref() {
            Ok("small") => Scale::Small,
            Ok("large") => Scale::Large,
            _ => Scale::Medium,
        }
    }

    /// (files, rows_per_file) for Laghos. Per-file row counts stay within
    /// ~4x of the paper's 4.19 M so fixed per-split costs (IR generation,
    /// scheduling) keep their paper-scale *share* of the total.
    pub fn laghos(&self) -> (usize, usize) {
        match self {
            Scale::Small => (4, 64 * 1024),
            Scale::Medium => (8, 1024 * 1024),
            Scale::Large => (16, 2 * 1024 * 1024),
        }
    }

    /// (files, rows_per_file) for Deep Water. Few large splits: the
    /// dataset's query is a full-table aggregation, and the paper's
    /// Figure 6 contrast (engine-side aggregation of a streamed split is
    /// slower than in-storage aggregation) needs each engine driver's
    /// serial per-split chain to be the visible bottleneck rather than
    /// hiding entirely under the shared storage disk.
    pub fn deepwater(&self) -> (usize, usize) {
        match self {
            Scale::Small => (2, 128 * 1024),
            Scale::Medium => (4, 4 * 1024 * 1024),
            Scale::Large => (4, 16 * 1024 * 1024),
        }
    }

    /// (files, rows_per_file) for TPC-H lineitem.
    pub fn tpch(&self) -> (usize, usize) {
        match self {
            Scale::Small => (4, 32 * 1024),
            Scale::Medium => (4, 1024 * 1024),
            Scale::Large => (8, 2 * 1024 * 1024),
        }
    }
}

/// Named pushdown depths, in the paper's progressive order.
pub fn depth_connectors() -> Vec<(&'static str, PushdownPolicy)> {
    vec![
        ("pd-filter", PushdownPolicy::filter_only()),
        ("pd-filter-proj", PushdownPolicy::filter_project()),
        (
            "pd-filter-proj-agg",
            PushdownPolicy::filter_project_aggregate(),
        ),
        ("pd-all", PushdownPolicy::all()),
    ]
}

/// A ready-to-measure stack.
pub struct BenchStack {
    /// The engine with every connector registered.
    pub engine: Engine,
    /// The shared object store.
    pub store: Arc<ObjectStore>,
    /// Loaded datasets: (table, stored bytes, uncompressed bytes, rows).
    pub datasets: Vec<(String, u64, u64, u64)>,
}

/// Which datasets to load.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSelection {
    /// Load Laghos.
    pub laghos: bool,
    /// Load Deep Water.
    pub deepwater: bool,
    /// Load TPC-H lineitem.
    pub tpch: bool,
}

impl DatasetSelection {
    /// Everything.
    pub fn all() -> Self {
        DatasetSelection {
            laghos: true,
            deepwater: true,
            tpch: true,
        }
    }

    /// A single named dataset.
    pub fn only(name: &str) -> Self {
        DatasetSelection {
            laghos: name == "laghos",
            deepwater: name == "deepwater",
            tpch: name == "tpch" || name == "lineitem",
        }
    }
}

/// Build a stack at `scale` with datasets stored under `codec`, and
/// pushdown-depth connectors registered (`pd-filter` … `pd-all`; `pd-filter`
/// is the S3-Select level), plus the standard `raw` / `ocs` pair.
pub fn build_stack(
    scale: Scale,
    codec: CodecKind,
    select: DatasetSelection,
    cluster: Option<ClusterSpec>,
) -> BenchStack {
    let mut builder = EngineBuilder::new();
    if let Some(c) = cluster {
        builder = builder.cluster(c);
    }
    let engine = builder.build();
    let store = Arc::new(ObjectStore::new());
    let mut datasets = Vec::new();
    {
        let mut loader = TableLoader::new(&store, engine.metastore());
        loader.codec = codec;
        if select.laghos {
            let (files, rows) = scale.laghos();
            let d = workloads::laghos::load(
                &loader,
                &LaghosConfig {
                    files,
                    rows_per_file: rows,
                    ..Default::default()
                },
            );
            datasets.push((d.table, d.total_bytes, d.uncompressed_bytes, d.total_rows));
        }
        if select.deepwater {
            let (files, rows) = scale.deepwater();
            let d = workloads::deepwater::load(
                &loader,
                &DeepWaterConfig {
                    files,
                    rows_per_file: rows,
                    ..Default::default()
                },
            );
            datasets.push((d.table, d.total_bytes, d.uncompressed_bytes, d.total_rows));
        }
        if select.tpch {
            let (files, rows) = scale.tpch();
            let d = workloads::tpch::load(
                &loader,
                &TpchConfig {
                    files,
                    rows_per_file: rows,
                    ..Default::default()
                },
            );
            datasets.push((d.table, d.total_bytes, d.uncompressed_bytes, d.total_rows));
        }
    }
    let ocs = register_ocs_stack(&engine, store.clone(), PushdownPolicy::all());
    for (name, policy) in depth_connectors() {
        engine.register_connector(Arc::new(OcsConnector::new(
            name,
            ocs.clone(),
            engine.cluster().clone(),
            engine.cost_params().clone(),
            policy,
        )));
    }
    BenchStack {
        engine,
        store,
        datasets,
    }
}

/// Execute `sql` with `table` bound to `connector`.
pub fn run_as(stack: &BenchStack, table: &str, connector: &str, sql: &str) -> QueryResult {
    stack
        .engine
        .metastore()
        .rebind_connector(table, connector)
        .expect("table registered");
    stack
        .engine
        .execute(sql)
        .unwrap_or_else(|e| panic!("{table} via {connector}: {e}"))
}

/// One measured configuration row.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Configuration label (x-axis of the figure).
    pub label: String,
    /// Simulated seconds.
    pub seconds: f64,
    /// Bytes moved storage → compute.
    pub moved_bytes: u64,
    /// Result rows.
    pub rows: u64,
    /// Residual engine chain.
    pub chain: String,
}

impl Measurement {
    /// Capture from a query result.
    pub fn of(label: impl Into<String>, r: &QueryResult) -> Measurement {
        Measurement {
            label: label.into(),
            seconds: r.simulated_seconds,
            moved_bytes: r.moved_bytes,
            rows: r.batch.num_rows() as u64,
            chain: r.chain.clone(),
        }
    }
}

/// Render a Figure-5-style table: time + movement per configuration, with
/// a speedup column relative to `baseline_label`.
pub fn render_sweep(title: &str, rows: &[Measurement], baseline_label: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let baseline = rows
        .iter()
        .find(|m| m.label == baseline_label)
        .map(|m| m.seconds);
    writeln!(out, "## {title}").unwrap();
    writeln!(
        out,
        "{:<22} {:>12} {:>10} {:>14} {:>8}  residual plan",
        "config", "sim time", "vs-filter", "data moved", "rows"
    )
    .unwrap();
    for m in rows {
        let speedup = baseline
            .map(|b| format!("{:>9.2}x", b / m.seconds))
            .unwrap_or_else(|| "      n/a".into());
        writeln!(
            out,
            "{:<22} {:>10.3} s {speedup} {:>14} {:>8}  {}",
            m.label,
            m.seconds,
            human_bytes(m.moved_bytes),
            m.rows,
            m.chain
        )
        .unwrap();
    }
    out
}

/// The checked-in `results/` directory at the workspace root, wherever
/// the binary is run from.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("results")
}

/// Write `content` to `<dir>/<name>.txt`; the error names the path.
fn write_report(dir: &Path, name: &str, content: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.txt"));
    std::fs::write(&path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Echo a report to stdout and write it under the workspace's `results/`.
/// A report that cannot be written ends the process with a non-zero
/// status: CI's `git diff --exit-code results/` must not pass because
/// nothing was regenerated.
pub fn emit_report(name: &str, content: &str) {
    println!("{content}");
    match write_report(&results_dir(), name, content) {
        Ok(path) => println!("(written to {})", path.display()),
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritable_report_is_an_error_naming_the_path() {
        let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        // A regular file where the directory should go: `create_dir_all` fails.
        let under_file = manifest_dir.join("Cargo.toml/results");
        let e = write_report(&under_file, "table2", "x").unwrap_err();
        assert!(
            e.contains("cannot create") && e.contains("Cargo.toml/results"),
            "{e}"
        );
        // The directory exists but the file's parent does not: `write` fails.
        let e = write_report(manifest_dir, "no-such-dir/table2", "x").unwrap_err();
        assert!(
            e.contains("cannot write") && e.contains("no-such-dir/table2.txt"),
            "{e}"
        );
        assert!(!manifest_dir.join("no-such-dir").exists());
    }
}
