//! The five workloads and the stack each one runs on: data scale,
//! storage codec, connector, cache budgets, set-up and the ingest op.
//!
//! Set-up is the ~40 lines `ocs_bench::build_stack` also has, copied here
//! so that a later change to that helper cannot change what is measured.

use std::sync::Arc;

use columnar::{RecordBatch, SchemaRef};
use dsq::catalog::TableMeta;
use dsq::{Engine, EngineBuilder};
use lzcodec::CodecKind;
use objstore::ObjectStore;
use ocs_connector::{register_ocs_stack_configured, OcsConnector, PushdownPolicy};
use parq::{ColumnStats, ParqReader, WriteOptions};
use workloads::{DeepWaterConfig, LaghosConfig, TableLoader, TpchConfig};

use crate::spans::Tracer;

/// The three tables, in template rotation order (L, D, Q).
pub const TABLES: [&str; 3] = ["laghos", "deepwater", "lineitem"];

/// Data scale. `FULL` is a quarter of the issue's scale `S` in every
/// dimension — rows per file, rows per row group and both cache budgets —
/// so each ratio the workloads rely on (row groups per file, working set
/// to cache) is the one the issue states, while a run fits the driver's
/// time budget (see README.md, "Scale").
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows per file of the cold layouts: laghos, deepwater, lineitem.
    pub cold_rows: [usize; 3],
    /// Rows per row group, and per object of the `hot-ingest` layout.
    pub row_group_rows: usize,
    /// Row-group (decoded column chunk) cache budget in bytes.
    pub rg_cache_bytes: u64,
    /// Result cache budget in bytes.
    pub result_cache_bytes: u64,
}

impl Scale {
    /// The scale every reported number is measured at.
    pub const FULL: Scale = Scale {
        cold_rows: [64 * 1024, 256 * 1024, 64 * 1024],
        row_group_rows: 16 * 1024,
        rg_cache_bytes: 16 << 20,
        result_cache_bytes: 8 << 20,
    };

    /// Tiny scale for the smoke test; same shape, 1/64 of the rows.
    #[cfg(test)]
    pub const QUICK: Scale = Scale {
        cold_rows: [1024, 4096, 1024],
        row_group_rows: 256,
        rg_cache_bytes: 256 << 10,
        result_cache_bytes: 128 << 10,
    };
}

/// Files per table of the cold layouts.
const COLD_FILES: [usize; 3] = [4, 2, 4];
/// Files per table of the `hot-ingest` layout (one row group each).
const HOT_FILES: [usize; 3] = [8, 4, 8];

/// How a workload lays its tables out in objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `COLD_FILES` files of `Scale::cold_rows` rows.
    Cold,
    /// Cold layout with half the rows per file (Zst costs ~3x per row).
    ColdHalf,
    /// `HOT_FILES` objects of one row group each, rewritten by ingests.
    Hot,
}

/// One workload: what it runs on and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Storage codec of every object.
    pub codec: CodecKind,
    /// Connector the timed queries go through.
    pub connector: &'static str,
    /// Connector the verification re-runs go through.
    pub reference: &'static str,
    /// Whether the near-storage caches are on.
    pub caches: bool,
    /// Object layout.
    pub layout: Layout,
}

/// The benchmark's workloads; names are the contract with later changes.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "engine-scan",
        why: "raw connector, distinct literals: every operator runs in the engine over whole objects; ocs, substrait-ir, IPC and caches are bypassed",
        codec: CodecKind::None,
        connector: "raw",
        reference: "pd-all",
        caches: true,
        layout: Layout::Cold,
    },
    Workload {
        name: "pushdown-scan",
        why: "pd-all, distinct literals, working set twice the row-group cache: every operator runs in storage and a tiny Arrow result returns",
        codec: CodecKind::None,
        connector: "pd-all",
        reference: "raw",
        caches: true,
        layout: Layout::Cold,
    },
    Workload {
        name: "filter-transfer",
        why: "pd-filter, distinct literals: filter-only pushdown ships large Arrow results, so IPC, stream framing and engine-side aggregation carry the cost",
        codec: CodecKind::None,
        connector: "pd-filter",
        reference: "raw",
        caches: true,
        layout: Layout::Cold,
    },
    Workload {
        name: "codec-scan",
        why: "Zst objects through pd-all with both caches off: lzcodec decompress and parq decode dominate and no cache can mask a codec change",
        codec: CodecKind::Zst,
        connector: "pd-all",
        reference: "raw",
        caches: false,
        layout: Layout::ColdHalf,
    },
    Workload {
        name: "hot-ingest",
        why: "12 hot queries on Snap objects beside ingests that bump versions: p50 is fixed per-query cost on cache hits, p95 the invalidation path, throughput the write path",
        codec: CodecKind::Snap,
        connector: "pd-all",
        reference: "raw",
        caches: true,
        layout: Layout::Hot,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// (files, rows per file) of table `t` under `scale`.
    pub fn shape(&self, scale: &Scale, t: usize) -> (usize, usize) {
        match self.layout {
            Layout::Cold => (COLD_FILES[t], scale.cold_rows[t]),
            Layout::ColdHalf => (COLD_FILES[t], scale.cold_rows[t] / 2),
            Layout::Hot => (HOT_FILES[t], scale.row_group_rows),
        }
    }

    /// (row-group, result) cache budgets in bytes under `scale`.
    pub fn cache_budgets(&self, scale: &Scale) -> (u64, u64) {
        if self.caches {
            (scale.rg_cache_bytes, scale.result_cache_bytes)
        } else {
            (0, 0)
        }
    }
}

/// The batch of file `file` of table `t`; `alternate` selects the second
/// generation an ingest swaps in (same shape, different values).
fn generate(t: usize, files: usize, rows: usize, file: usize, alternate: bool) -> RecordBatch {
    let flip = if alternate { 0x05ee_da17 } else { 0 };
    match t {
        0 => {
            let c = LaghosConfig::default();
            workloads::laghos::generate_file(
                &LaghosConfig {
                    files,
                    rows_per_file: rows,
                    seed: c.seed ^ flip,
                    ..c
                },
                file,
            )
        }
        1 => {
            let c = DeepWaterConfig::default();
            workloads::deepwater::generate_file(
                &DeepWaterConfig {
                    files,
                    rows_per_file: rows,
                    seed: c.seed ^ flip,
                    ..c
                },
                file,
            )
        }
        _ => {
            let c = TpchConfig::default();
            workloads::tpch::generate_file(
                &TpchConfig {
                    files,
                    rows_per_file: rows,
                    seed: c.seed ^ flip,
                },
                file,
            )
        }
    }
}

fn schema(t: usize) -> SchemaRef {
    match t {
        0 => workloads::laghos::schema(),
        1 => workloads::deepwater::schema(),
        _ => workloads::tpch::schema(),
    }
}

/// A built stack, ready for its first op.
pub struct Stack {
    /// Engine with `raw`, `hive`, `ocs` and the four `pd-*` connectors.
    pub engine: Engine,
    /// The object store under every connector.
    pub store: Arc<ObjectStore>,
    /// What it was built for.
    pub workload: &'static Workload,
    /// Scale it was built at.
    pub scale: Scale,
    /// `Layout::Hot` only: per table, per file, the two generations an
    /// ingest alternates between, and which one is stored now.
    generations: Vec<Vec<Generations>>,
}

struct Generations {
    batches: [RecordBatch; 2],
    current: usize,
}

/// Build the stack of `workload`: generate, `parq` encode and compress,
/// `put_object`, register tables and connectors, bind the tables to the
/// workload's connector. Everything `setup_s` covers except the warm-up.
pub fn build(workload: &'static Workload, scale: Scale) -> Stack {
    let engine = EngineBuilder::new().build();
    let store = Arc::new(ObjectStore::new());
    let mut generations = Vec::new();
    {
        let mut loader = TableLoader::new(&store, engine.metastore());
        loader.codec = workload.codec;
        loader.row_group_rows = scale.row_group_rows;
        for (t, table) in TABLES.iter().enumerate() {
            let (files, rows) = workload.shape(&scale, t);
            if workload.layout != Layout::Hot {
                loader.load(table, schema(t), files, |i| {
                    generate(t, files, rows, i, false)
                });
                continue;
            }
            let both: Vec<Generations> = (0..files)
                .map(|i| Generations {
                    batches: [
                        generate(t, files, rows, i, false),
                        generate(t, files, rows, i, true),
                    ],
                    current: 0,
                })
                .collect();
            loader.load(table, schema(t), files, |i| both[i].batches[0].clone());
            generations.push(both);
        }
    }
    let (rg_cache, result_cache) = workload.cache_budgets(&scale);
    let ocs = register_ocs_stack_configured(
        &engine,
        store.clone(),
        PushdownPolicy::all(),
        rg_cache,
        result_cache,
    );
    for (name, policy) in [
        ("pd-filter", PushdownPolicy::filter_only()),
        ("pd-filter-proj", PushdownPolicy::filter_project()),
        (
            "pd-filter-proj-agg",
            PushdownPolicy::filter_project_aggregate(),
        ),
        ("pd-all", PushdownPolicy::all()),
    ] {
        engine.register_connector(Arc::new(OcsConnector::new(
            name,
            ocs.clone(),
            engine.cluster().clone(),
            engine.cost_params().clone(),
            policy,
        )));
    }
    let stack = Stack {
        engine,
        store,
        workload,
        scale,
        generations,
    };
    stack.bind(workload.connector);
    stack
}

impl Stack {
    /// Serve all three tables through `connector`.
    pub fn bind(&self, connector: &str) {
        for table in TABLES {
            self.engine
                .metastore()
                .rebind_connector(table, connector)
                .expect("the three tables are registered by build()");
        }
    }

    /// Files of table `t`.
    pub fn files(&self, t: usize) -> usize {
        self.workload.shape(&self.scale, t).0
    }

    /// One ingest: encode the object's other generation, overwrite the
    /// key (which bumps its version) and refresh the catalog entry the way
    /// `TableLoader::load` fills it. Returns the bytes written.
    pub fn ingest(&mut self, t: usize, file: usize, tracer: &mut Tracer, parent: usize) -> u64 {
        let gen = &mut self.generations[t][file];
        gen.current ^= 1;
        let batch = gen.batches[gen.current].clone();
        let schema = schema(t);

        let s = tracer.begin("parq.write", Some(parent));
        let bytes = parq::writer::write_file(
            schema.clone(),
            &[batch],
            WriteOptions {
                codec: self.workload.codec,
                row_group_rows: self.scale.row_group_rows,
                enable_dictionary: true,
            },
        )
        .expect("generated batch matches its schema");
        tracer.end(s);
        let written = bytes.len() as u64;

        let key = format!("{}/part-{file:05}.parq", TABLES[t]);
        let s = tracer.begin("catalog.refresh", Some(parent));
        let reader = ParqReader::open(bytes.clone().into()).expect("own file parses");
        let meta = self
            .engine
            .metastore()
            .table(TABLES[t])
            .expect("registered by build()");
        let mut meta: TableMeta = (*meta).clone();
        let object = &mut meta.objects[file];
        assert_eq!(object.key, key, "objects are registered in file order");
        let bucket = object.bucket.clone();
        object.bytes = written;
        object.columns = (0..schema.len())
            .map(|c| reader.column_stats(c).expect("column in range"))
            .collect();
        meta.stats.columns = (0..schema.len())
            .map(|c| {
                meta.objects
                    .iter()
                    .fold(ColumnStats::empty(), |acc, o| acc.merge(&o.columns[c]))
            })
            .collect();
        tracer.end(s);

        let s = tracer.begin("objstore.put", Some(parent));
        self.store
            .put_object(&bucket, &key, bytes.into())
            .expect("bucket exists");
        tracer.end(s);
        self.engine.metastore().register(meta);
        written
    }
}
