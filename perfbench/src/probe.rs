//! The outside-in layer probe of a traced run.
//!
//! After each query the harness calls, on the same inputs, the public
//! entry point of every layer the query went through, one call after the
//! other, each inside a span. It also reads what the program exposes about
//! the query itself: `QueryResult.{ledger,trace}`, the `obs::metrics()`
//! registry before and after `Engine::execute`, and the three kernel
//! timers. Times are therefore *busy time per query, summed over splits*:
//! they compare with `cpu_ms_per_op`, not with wall latency.
//!
//! The `ocs.execute` probe runs against a second OCS deployment over the
//! same object store, with the same cache budgets. It receives the same
//! requests in the same order as the one under the engine, so its caches
//! hit and miss alike, yet the probe never answers a timed query from a
//! cache the query itself filled.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use columnar::ipc;
use dsq::spi::DefaultTableHandle;
use dsq::QueryResult;
use lzcodec::CodecKind;
use netsim::Phase;
use obs::{MetricValue, Snapshot};
use ocs::{Ocs, OcsClient, OcsConfig};
use ocs_connector::{translate, OcsTableHandle};
use parq::ParqReader;
use substrait_ir::planck;

use crate::measure::{median, process_cpu_seconds, Metric, Section};
use crate::ops::Template;
use crate::spans::{self_time_by_name, Tracer};
use crate::stack::Stack;

const KERNEL_TIMERS: [&str; 3] = [
    "columnar.groupby.update_s",
    "columnar.ipc.encode_s",
    "columnar.ipc.decode_s",
];

/// Codec speed on one table's own column data.
#[derive(Default, Clone, Copy)]
struct CodecSample {
    raw_bytes: f64,
    compressed_bytes: f64,
    compress_s: f64,
    decompress_s: f64,
}

/// Accumulated observations of a traced section.
pub struct Probe {
    client: OcsClient,
    /// Registry deltas over every `Engine::execute`.
    in_execute: Snapshot,
    before: Snapshot,
    cpu_before: f64,
    flight_before: u64,
    /// Process CPU seconds spent inside `Engine::execute`.
    execute_cpu_s: f64,
    /// Kernel-timer seconds observed while the `ocs.execute` probe ran:
    /// the storage side's part of the shared kernels.
    kernel_in_probe_s: [f64; 3],
    queries: u64,
    engine_spans: u64,
    flight_events: u64,
    ledger_s: BTreeMap<Phase, f64>,
    storage_wall_s: f64,
    row_groups_skipped: u64,
    /// Seconds the codec would need for the bytes each query read from
    /// disk, at the speed sampled on that table.
    decompress_est_s: f64,
    /// `ocs.storage.disk_bytes` of the query just executed.
    last_disk_bytes: u64,
    plan_bytes: u64,
    ipc_direct_bytes: u64,
    parq_read_bytes: u64,
    codec: CodecKind,
    codec_samples: [Option<CodecSample>; 3],
    /// Stored-to-decoded size ratio of the probed columns, per table.
    expansion: [f64; 3],
}

fn add_snapshot(total: &mut Snapshot, delta: Snapshot) {
    for (name, value) in delta.values {
        match (total.values.get_mut(&name), value) {
            (Some(MetricValue::Counter(t)), MetricValue::Counter(d)) => *t += d,
            (
                Some(MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                    ..
                }),
                MetricValue::Histogram {
                    count: dc,
                    sum: ds,
                    buckets: db,
                    ..
                },
            ) => {
                *count += dc;
                *sum += ds;
                for (b, d) in buckets.iter_mut().zip(db) {
                    *b += d;
                }
            }
            // First sightings are stored; gauges are read at the end instead.
            (_, value) => {
                total.values.insert(name, value);
            }
        }
    }
}

fn kernel_seconds(s: &Snapshot) -> [f64; 3] {
    KERNEL_TIMERS.map(|name| s.histogram(name).1)
}

impl Probe {
    /// A probe for `stack`, with kernel timing switched on.
    pub fn new(stack: &Stack) -> Probe {
        obs::set_kernel_timing(true);
        let (rg_cache, result_cache) = stack.workload.cache_budgets(&stack.scale);
        let cluster = stack.engine.cluster();
        let mirror = Ocs::new(
            stack.store.clone(),
            OcsConfig {
                storage_node: cluster.storage.clone(),
                storage_disk: cluster.storage_disk,
                frontend_node: cluster.frontend.clone(),
                cost: stack.engine.cost_params().clone(),
                row_group_cache_bytes: rg_cache,
                result_cache_bytes: result_cache,
                ..OcsConfig::paper_testbed()
            },
        );
        Probe {
            client: Arc::new(mirror).client(),
            in_execute: Snapshot::default(),
            before: Snapshot::default(),
            cpu_before: 0.0,
            flight_before: 0,
            execute_cpu_s: 0.0,
            kernel_in_probe_s: [0.0; 3],
            queries: 0,
            engine_spans: 0,
            flight_events: 0,
            ledger_s: BTreeMap::new(),
            storage_wall_s: 0.0,
            row_groups_skipped: 0,
            decompress_est_s: 0.0,
            last_disk_bytes: 0,
            plan_bytes: 0,
            ipc_direct_bytes: 0,
            parq_read_bytes: 0,
            codec: stack.workload.codec,
            codec_samples: [None; 3],
            expansion: [1.0; 3],
        }
    }

    /// Note the registry, CPU clock and flight cursor before a query.
    pub fn before_execute(&mut self) {
        self.before = obs::metrics().snapshot();
        self.flight_before = obs::flight().cursor();
        self.cpu_before = process_cpu_seconds();
    }

    /// Account what the program exposes about the query just executed.
    pub fn after_execute(&mut self, r: &QueryResult) {
        self.execute_cpu_s += process_cpu_seconds() - self.cpu_before;
        self.flight_events += obs::flight().cursor() - self.flight_before;
        let delta = obs::metrics().snapshot().diff(&self.before);
        self.last_disk_bytes = delta.counter("ocs.storage.disk_bytes");
        add_snapshot(&mut self.in_execute, delta);
        self.queries += 1;
        self.engine_spans += r.trace.spans.len() as u64;
        for (phase, s) in r.ledger.snapshot() {
            *self.ledger_s.entry(phase).or_default() += s;
        }
        for span in &r.trace.spans {
            if span.name.starts_with("storage[") && span.name.ends_with("].execute") {
                self.storage_wall_s += span.wall_s.unwrap_or(0.0);
            }
            if span.name == "storage.scan" {
                self.row_groups_skipped += span.attr_u64("row_groups_skipped").unwrap_or(0);
            }
        }
    }

    /// Call every layer `sql` went through, each inside a span under
    /// `root`. Runs after `after_execute`, outside `dsq.execute`.
    pub fn layers(
        &mut self,
        stack: &Stack,
        template: Template,
        sql: &str,
        tracer: &mut Tracer,
        root: usize,
    ) {
        let t = template.table();
        let s = tracer.begin("sqlparse.parse", Some(root));
        let parsed = sqlparse::parse(sql);
        tracer.end(s);
        black_box(parsed.is_ok());

        let s = tracer.begin("engine.plan", Some(root));
        let planned = stack.engine.plan(sql);
        tracer.end(s);
        let Ok((_, plan)) = planned else {
            return; // `Engine::execute` planned the same text a moment ago
        };
        let scan = plan.scan();
        let table = stack
            .engine
            .metastore()
            .table(&scan.table)
            .expect("the plan scans a registered table");
        let width = table.schema.len();
        let handle = scan.handle.as_any();
        let pushed = handle.downcast_ref::<OcsTableHandle>();
        let projection: Vec<usize> = match pushed {
            Some(h) => h.projection.clone(),
            None => handle
                .downcast_ref::<DefaultTableHandle>()
                .and_then(|h| h.projection.clone())
                .unwrap_or_else(|| (0..width).collect()),
        };

        if let Some(h) = pushed {
            let s = tracer.begin("core.translate", Some(root));
            let translated = translate::to_substrait_verified(h);
            tracer.end(s);
            if let Ok((ir, _)) = translated {
                let s = tracer.begin("substrait-ir.encode", Some(root));
                let bytes = substrait_ir::encode(&ir);
                tracer.end(s);
                self.plan_bytes += bytes.len() as u64;
                let s = tracer.begin("substrait-ir.decode", Some(root));
                let decoded = substrait_ir::decode(&bytes);
                tracer.end(s);
                if let Ok(decoded) = decoded {
                    let s = tracer.begin("substrait-ir.planck", Some(root));
                    let verdict = planck::verify_untrusted(&decoded);
                    tracer.end(s);
                    black_box(verdict.is_ok());
                }
                self.storage_execute(&ir, &table.objects, tracer, root);
            }
        }

        // What a scan of these columns costs below the connectors.
        let mut stored = 0u64;
        let mut decoded = 0u64;
        let mut first_group = None;
        for object in &table.objects {
            let s = tracer.begin("objstore.get", Some(root));
            let got = stack
                .store
                .get_object_versioned(&object.bucket, &object.key);
            tracer.end(s);
            let Ok((bytes, _version)) = got else { continue };
            let s = tracer.begin("parq.open", Some(root));
            let opened = ParqReader::open(bytes);
            tracer.end(s);
            let Ok(reader) = opened else { continue };
            let s = tracer.begin("parq.read", Some(root));
            for rg in 0..reader.num_row_groups() {
                if let Ok(batch) = reader.read_row_group(rg, Some(&projection)) {
                    decoded += batch.byte_size() as u64;
                    first_group.get_or_insert(batch);
                }
                stored += reader
                    .projected_compressed_bytes(rg, &projection)
                    .unwrap_or(0);
            }
            tracer.end(s);
        }
        self.parq_read_bytes += decoded;
        if stored > 0 {
            self.expansion[t] = decoded as f64 / stored as f64;
        }

        if self.codec != CodecKind::None {
            if let (None, Some(batch)) = (self.codec_samples[t], first_group) {
                self.codec_samples[t] = Some(self.sample_codec(&batch, tracer, root));
            }
            // Bytes this query read from disk (none on a cache hit), blown
            // up to decoded size, at this table's sampled decompress speed.
            if let Some(c) = self.codec_samples[t] {
                self.decompress_est_s +=
                    self.last_disk_bytes as f64 * self.expansion[t] * c.decompress_s / c.raw_bytes;
            }
        }
    }

    /// `OcsClient::execute_stream` -> drain -> `finish`, once per object,
    /// then IPC encode and decode of the batches that came back.
    fn storage_execute(
        &mut self,
        ir: &substrait_ir::Plan,
        objects: &[dsq::catalog::ObjectLocation],
        tracer: &mut Tracer,
        root: usize,
    ) {
        let kernels_before = kernel_seconds(&obs::metrics().snapshot());
        let mut yielded = Vec::new();
        for object in objects {
            let s = tracer.begin("ocs.execute", Some(root));
            if let Ok(mut stream) = self.client.execute_stream(ir, &object.bucket, &object.key) {
                while let Ok(Some(batch)) = stream.next_batch() {
                    yielded.push(batch);
                }
                drop(stream.finish());
            }
            tracer.end(s);
        }
        let kernels_after = kernel_seconds(&obs::metrics().snapshot());
        for (total, (after, before)) in self
            .kernel_in_probe_s
            .iter_mut()
            .zip(kernels_after.iter().zip(kernels_before))
        {
            *total += after - before;
        }
        // The kernel timers would count these calls too; they run after
        // the reading above and before the next `before_execute`.
        for batch in &yielded {
            let s = tracer.begin("columnar.ipc.encode", Some(root));
            let bytes = ipc::encode_batch(batch);
            tracer.end(s);
            self.ipc_direct_bytes += bytes.len() as u64;
            let s = tracer.begin("columnar.ipc.decode", Some(root));
            let back = ipc::decode_batch(&bytes);
            tracer.end(s);
            black_box(back.is_ok());
        }
    }

    /// Compress and decompress one row group of the query's own columns
    /// (their IPC bytes: the column values, laid out flat).
    fn sample_codec(
        &self,
        batch: &columnar::RecordBatch,
        tracer: &mut Tracer,
        root: usize,
    ) -> CodecSample {
        let raw = ipc::encode_batch(batch);
        let s = tracer.begin("lzcodec.compress", Some(root));
        let packed = lzcodec::compress(self.codec, &raw);
        let compress_s = tracer.end(s) / 1e6;
        let s = tracer.begin("lzcodec.decompress", Some(root));
        let unpacked = lzcodec::decompress(self.codec, &packed);
        let decompress_s = tracer.end(s) / 1e6;
        assert_eq!(
            unpacked.map(|u| u.len()).unwrap_or(0),
            raw.len(),
            "codec round trip"
        );
        CodecSample {
            raw_bytes: raw.len() as f64,
            compressed_bytes: packed.len() as f64,
            compress_s,
            decompress_s,
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Probe {
    /// The per-layer metrics of a traced section, in `PER_LAYER` order.
    /// A metric whose layer the workload bypasses reads 0. `untraced` is
    /// the section run just before with tracing off, for the overhead.
    pub fn metrics(&self, tracer: &Tracer, traced: &Section, untraced: &Section) -> Vec<Metric> {
        let q = self.queries.max(1) as f64;
        let selfs = self_time_by_name(tracer.spans());
        let us = |name: &str| {
            selfs
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, t)| *t)
        };
        let reg = &self.in_execute;
        let counter = |name: &str| reg.counter(name) as f64;
        let hist_s = |name: &str| reg.histogram(name).1;
        let sim = |phase: Phase| self.ledger_s.get(&phase).copied().unwrap_or(0.0);
        let codec = self
            .codec_samples
            .iter()
            .flatten()
            .fold(CodecSample::default(), |a, c| CodecSample {
                raw_bytes: a.raw_bytes + c.raw_bytes,
                compressed_bytes: a.compressed_bytes + c.compressed_bytes,
                compress_s: a.compress_s + c.compress_s,
                decompress_s: a.decompress_s + c.decompress_s,
            });

        // Busy time the probe can name, against the CPU `Engine::execute`
        // used. Below the connector a query either goes through OCS or
        // reads whole objects itself; the kernels' engine-side part is what
        // the timers saw during execute beyond what the storage probe saw.
        let below_connector_us = if us("ocs.execute") > 0.0 {
            us("ocs.execute")
        } else {
            us("objstore.get") + us("parq.open") + us("parq.read")
        };
        let groupby_s = hist_s(KERNEL_TIMERS[0]);
        let engine_groupby_s = (groupby_s - self.kernel_in_probe_s[0]).max(0.0);
        let named_s = (us("engine.plan")
            + us("core.translate")
            + us("substrait-ir.encode")
            + us("substrait-ir.decode")
            + us("substrait-ir.planck")
            + below_connector_us)
            / 1e6
            + engine_groupby_s;

        let mean = |v: &[f64]| ratio(v.iter().sum::<f64>(), v.len() as f64);
        let ingest_s = traced.ingest_ms.iter().sum::<f64>() / 1e3;
        let ingests = traced.ingest_ms.len().max(1) as f64;
        // Gauges are levels, not deltas: read them as they stand now.
        let now = obs::metrics().snapshot();
        let evictions =
            now.gauge("ocs.cache.rg_evictions") + now.gauge("ocs.cache.result_evictions");

        let values: Vec<(&'static str, f64)> = vec![
            ("sqlparse.parse_us", us("sqlparse.parse") / q),
            (
                "engine.plan_us",
                (us("engine.plan") - us("sqlparse.parse")).max(0.0) / q,
            ),
            ("core.translate_us", us("core.translate") / q),
            ("substrait-ir.encode_us", us("substrait-ir.encode") / q),
            ("substrait-ir.decode_us", us("substrait-ir.decode") / q),
            ("substrait-ir.planck_us", us("substrait-ir.planck") / q),
            ("substrait-ir.plan_bytes", self.plan_bytes as f64 / q),
            ("objstore.get_us", us("objstore.get") / q),
            ("objstore.put_us", us("objstore.put") / ingests),
            ("parq.open_us", us("parq.open") / q),
            // bytes / µs = MB/s
            (
                "parq.read_mb_per_s",
                ratio(self.parq_read_bytes as f64, us("parq.read")),
            ),
            (
                "parq.write_mb_per_s",
                ratio(traced.ingest_bytes as f64, us("parq.write")),
            ),
            ("ingest.op_ms_p50", median(&traced.ingest_ms)),
            (
                "ingest.mb_per_s",
                ratio(traced.ingest_bytes as f64 / 1e6, ingest_s),
            ),
            (
                "lzcodec.decompress_mb_per_s",
                ratio(codec.raw_bytes / 1e6, codec.decompress_s),
            ),
            (
                "lzcodec.compress_mb_per_s",
                ratio(codec.raw_bytes / 1e6, codec.compress_s),
            ),
            (
                "lzcodec.ratio",
                ratio(codec.raw_bytes, codec.compressed_bytes),
            ),
            (
                "lzcodec.busy_share",
                ratio(self.decompress_est_s, self.execute_cpu_s),
            ),
            ("ocs.execute_ms", us("ocs.execute") / 1e3 / q),
            ("ocs.storage_wall_ms", self.storage_wall_s * 1e3 / q),
            ("ocs.rows_scanned", counter("ocs.storage.rows_scanned") / q),
            (
                "ocs.rows_returned",
                counter("ocs.storage.rows_returned") / q,
            ),
            ("ocs.row_groups_skipped", self.row_groups_skipped as f64 / q),
            ("ocs.frames", counter("ocs.rpc.frames") / q),
            (
                "ocs.frame_bytes_p50",
                reg.histogram_quantile("ocs.rpc.frame_bytes", 0.5)
                    .unwrap_or(0.0),
            ),
            (
                "ocs.peak_buffered_bytes",
                now.gauge("ocs.rpc.peak_buffered_bytes") as f64,
            ),
            (
                "ocs.cache.rg_hit_rate",
                ratio(
                    counter("ocs.cache.rg_hits"),
                    counter("ocs.cache.rg_hits") + counter("ocs.cache.rg_misses"),
                ),
            ),
            (
                "ocs.cache.result_hit_rate",
                ratio(
                    counter("ocs.cache.result_hits"),
                    counter("ocs.storage.requests"),
                ),
            ),
            ("ocs.cache.evictions", evictions as f64),
            (
                "ocs.cache.bytes_avoided",
                counter("ocs.cache.bytes_avoided") / q,
            ),
            ("columnar.ipc_encode_ms", hist_s(KERNEL_TIMERS[1]) * 1e3 / q),
            ("columnar.ipc_decode_ms", hist_s(KERNEL_TIMERS[2]) * 1e3 / q),
            (
                "columnar.ipc_mb_per_s",
                ratio(
                    2.0 * self.ipc_direct_bytes as f64,
                    us("columnar.ipc.encode") + us("columnar.ipc.decode"),
                ),
            ),
            ("columnar.groupby_update_ms", groupby_s * 1e3 / q),
            ("engine.execute_cpu_ms", self.execute_cpu_s * 1e3 / q),
            (
                "trace.unattributed_share",
                1.0 - ratio(named_s, self.execute_cpu_s).min(1.0),
            ),
            ("netsim.sim.plan_analysis_s", sim(Phase::PlanAnalysis) / q),
            ("netsim.sim.substrait_gen_s", sim(Phase::SubstraitGen) / q),
            ("netsim.sim.storage_disk_s", sim(Phase::StorageDisk) / q),
            (
                "netsim.sim.storage_decompress_s",
                sim(Phase::StorageDecompress) / q,
            ),
            ("netsim.sim.storage_cpu_s", sim(Phase::StorageCpu) / q),
            ("netsim.sim.frontend_cpu_s", sim(Phase::FrontendCpu) / q),
            ("netsim.sim.network_s", sim(Phase::NetworkTransfer) / q),
            ("netsim.sim.compute_cpu_s", sim(Phase::ComputeCpu) / q),
            ("netsim.sim.other_s", sim(Phase::Other) / q),
            (
                "netsim.fidelity.storage_cpu",
                ratio(sim(Phase::StorageCpu), self.storage_wall_s),
            ),
            (
                "netsim.fidelity.decompress",
                ratio(sim(Phase::StorageDecompress), self.decompress_est_s),
            ),
            ("obs.spans_per_query", self.engine_spans as f64 / q),
            ("obs.flight_events_per_query", self.flight_events as f64 / q),
            ("process.peak_rss_mb", peak_rss_mb()),
            (
                "trace.overhead_share",
                ratio(mean(&traced.query_ms), mean(&untraced.query_ms)) - 1.0,
            ),
            ("trace.queries", self.queries as f64),
            ("trace.self.query_us", us("query") / q),
        ];
        values
            .into_iter()
            .map(|(name, value)| Metric {
                name,
                value,
                unit: crate::manifest::per_layer_unit(name),
            })
            .collect()
    }
}
