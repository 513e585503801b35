//! A storage node: objects + the embedded executor + its (weak) hardware.

use std::sync::Arc;

use columnar::{ops, RecordBatch};
use netsim::{makespan, CostParams, DiskSpec, ExecStats, NodeSpec};
use objstore::ObjectStore;
use parq::ParqReader;
use substrait_ir::{Plan, VerifiedPlan};

use crate::cache::{CachedResult, NodeCaches, ObjectId, ResultKey};
use crate::exec::{Executor, ExecutorStats};
use crate::{planck, OcsResult};

/// Result of one in-storage plan execution.
#[derive(Debug, Clone)]
pub struct NodeResponse {
    /// Result batches (pre-serialization).
    pub batches: Vec<RecordBatch>,
    /// The request's wire statistics, built once here where the node's
    /// core-seconds become known. `frontend_cpu_s` is 0: the frontend adds
    /// its relay cost before the block crosses the boundary. `spans` are
    /// on the node's *local* simulated clock (t = 0 at request arrival);
    /// the engine grafts them under its split span.
    pub stats: ExecStats,
    /// Row groups the scan stage worked on — the independent input slices
    /// behind `batches`, however few batches the operator tree left.
    pub groups_scanned: usize,
}

/// Name of a storage request's root span. The testbed has one storage
/// node, and the index keeps the name that benchmark probes and the
/// experiment write-ups match on.
const SPAN_NAME: &str = "storage[0].execute";

/// One OCS storage node.
#[derive(Debug)]
pub struct StorageNode {
    store: Arc<ObjectStore>,
    spec: NodeSpec,
    disk: DiskSpec,
    cost: CostParams,
    caches: NodeCaches,
}

impl StorageNode {
    /// Create a node over the shared object store. Caches start disabled;
    /// bind them with [`StorageNode::with_caches`].
    pub fn new(store: Arc<ObjectStore>, spec: NodeSpec, disk: DiskSpec, cost: CostParams) -> Self {
        StorageNode {
            store,
            spec,
            disk,
            cost,
            caches: NodeCaches::disabled(),
        }
    }

    /// Attach this node's near-storage caches (row-group + result tiers).
    pub fn with_caches(mut self, caches: NodeCaches) -> Self {
        self.caches = caches;
        self
    }

    /// Verify `plan` with planck, then execute it against the object at
    /// `bucket`/`key`.
    ///
    /// The result-cache fingerprint is computed here from the canonical
    /// Substrait encoding; callers that already hold the encoded plan
    /// bytes and its verification (the frontend) should use
    /// [`StorageNode::execute_encoded`] to skip both.
    pub fn execute(&self, plan: &Plan, bucket: &str, key: &str) -> OcsResult<NodeResponse> {
        let verified = planck::verify_untrusted(plan).map_err(planck::primary)?;
        let fingerprint = if self.caches.result.is_enabled() {
            cache::fnv1a64(&substrait_ir::encode(plan))
        } else {
            0
        };
        self.execute_encoded(&verified, bucket, key, fingerprint)
    }

    /// [`StorageNode::execute`] of an already verified plan, with a
    /// precomputed plan fingerprint — FNV-1a of the canonical Substrait
    /// plan bytes (ignored when the result tier is disabled).
    pub fn execute_encoded(
        &self,
        plan: &VerifiedPlan<'_>,
        bucket: &str,
        key: &str,
        fingerprint: u64,
    ) -> OcsResult<NodeResponse> {
        let wall_start = std::time::Instant::now();
        let (bytes, version) = self.store.get_object_versioned(bucket, key)?;
        self.caches.observe_version(bucket, key, version);

        // Result-cache probe: identical verified subplans against the same
        // object version replay the cold run's batches at zero simulated
        // cost. The plan fingerprint is a stable FNV-1a of the canonical
        // Substrait encoding, so it survives plan re-construction.
        let result_key: ResultKey = (bucket.to_string(), key.to_string(), version, fingerprint);
        if let Some(cached) = self.caches.result.get(&result_key) {
            return Ok(self.replay_cached(&cached, wall_start));
        }

        let object = ObjectId {
            bucket: bucket.to_string(),
            key: key.to_string(),
            version,
        };
        let (rg_before, result_before) = self.caches.stats();
        let reader = ParqReader::open(bytes).map_err(|e| crate::OcsError::Exec(e.to_string()))?;
        let codec = reader.codec();
        let (batches, exec) = Executor::new(&reader, &self.cost)
            .with_caches(&self.caches, &object)
            .run(plan)?;

        if self.caches.result.is_enabled() {
            let charge: u64 = batches.iter().map(|b| b.byte_size() as u64).sum();
            let admitted = self.caches.result.insert(
                result_key,
                Arc::new(CachedResult {
                    batches: batches.clone(),
                    // What a future hit avoids: this run's disk + decode
                    // traffic, plus whatever the chunk cache already saved.
                    bytes_avoided: exec.wire.disk_bytes
                        + exec.uncompressed_bytes
                        + exec.wire.cache_bytes_avoided,
                }),
                charge.max(1),
            );
            if admitted {
                obs::flight().record(obs::FlightKind::CacheAdmit, 1, charge.max(1), 0);
            }
        }

        // Flight-record what the caches did during this request: hits
        // served, and evictions the inserts forced (the per-tier counters
        // are monotonic, so a delta means this request evicted).
        if exec.wire.rg_cache_hits > 0 {
            obs::flight().record(
                obs::FlightKind::CacheHit,
                exec.wire.rg_cache_hits,
                exec.wire.cache_bytes_avoided,
                0,
            );
        }
        let (rg_after, result_after) = self.caches.stats();
        if rg_after.evictions > rg_before.evictions {
            obs::flight().record(obs::FlightKind::CacheEvict, 0, rg_after.evictions, 0);
        }
        if result_after.evictions > result_before.evictions {
            obs::flight().record(obs::FlightKind::CacheEvict, 1, result_after.evictions, 0);
        }

        // Decompression cost: uncompressed bytes through the codec at its
        // single-core throughput.
        let decompress_s = codec.decompress_seconds(exec.uncompressed_bytes);
        // Scan lanes (per-row-group decode+filter) run in parallel across
        // the node's cores; everything downstream is billed serially.
        let lanes: Vec<f64> = exec
            .scan_work
            .iter()
            .map(|w| self.spec.core_seconds_for(*w))
            .collect();
        let scan_s = makespan(&lanes, self.spec.cores);
        let ops_s = self.spec.core_seconds_for(exec.work);
        let cpu_s = scan_s + ops_s;

        // Record the request's local span timeline: t = 0 at request
        // arrival, phases laid end-to-end. The engine grafts these under
        // its split span after the trailer frame delivers them.
        let disk_s = self.disk.read_seconds(exec.wire.disk_bytes);
        let spans = self.record_spans(disk_s, decompress_s, scan_s, ops_s, &exec, wall_start);

        let (m, wire) = (obs::metrics(), &exec.wire);
        m.counter("ocs.storage.requests").inc();
        m.counter("ocs.storage.rows_scanned").add(wire.rows_scanned);
        m.counter("ocs.storage.rows_returned")
            .add(wire.rows_returned);
        m.counter("ocs.storage.disk_bytes").add(wire.disk_bytes);
        m.counter("ocs.cache.rg_hits").add(wire.rg_cache_hits);
        m.counter("ocs.cache.rg_misses").add(wire.rg_cache_misses);
        m.counter("ocs.cache.bytes_avoided")
            .add(wire.cache_bytes_avoided);
        let (rg_stats, result_stats) = self.caches.stats();
        m.gauge("ocs.cache.rg_evictions")
            .record_max(rg_stats.evictions as i64);
        m.gauge("ocs.cache.result_evictions")
            .record_max(result_stats.evictions as i64);

        Ok(NodeResponse {
            batches,
            groups_scanned: exec.scan_work.len(),
            stats: ExecStats {
                storage_cpu_s: cpu_s,
                storage_decompress_s: decompress_s,
                spans,
                ..exec.wire
            },
        })
    }

    /// Answer a request from the result cache: the cold run's batches,
    /// zero simulated cost, and a span marking the hit.
    fn replay_cached(&self, cached: &CachedResult, wall_start: std::time::Instant) -> NodeResponse {
        let rows = ops::total_rows(&cached.batches);
        let m = obs::metrics();
        m.counter("ocs.storage.requests").inc();
        m.counter("ocs.cache.result_hits").inc();
        m.counter("ocs.cache.bytes_avoided")
            .add(cached.bytes_avoided);
        obs::flight().record(obs::FlightKind::ResultCacheHit, 1, cached.bytes_avoided, 0);

        let tracer = obs::Tracer::new();
        let root = tracer.record(SPAN_NAME, "storage", None, 0.0, 0.0);
        tracer.set_wall(root, wall_start.elapsed().as_secs_f64());
        tracer.attr(root, "cache_hit", "result");
        tracer.attr(root, "cache_bytes_avoided", cached.bytes_avoided);
        tracer.attr(root, "rows", rows);
        let spans = tracer.finish().to_recs();

        NodeResponse {
            batches: cached.batches.clone(),
            groups_scanned: 0,
            stats: ExecStats {
                rows_returned: rows,
                result_cache_hits: 1,
                cache_bytes_avoided: cached.bytes_avoided,
                spans,
                ..ExecStats::default()
            },
        }
    }

    fn record_spans(
        &self,
        disk_s: f64,
        decompress_s: f64,
        scan_s: f64,
        ops_s: f64,
        exec: &ExecutorStats,
        wall_start: std::time::Instant,
    ) -> Vec<obs::SpanRec> {
        let tracer = obs::Tracer::new();
        let total = disk_s + decompress_s + scan_s + ops_s;
        let root = tracer.record(SPAN_NAME, "storage", None, 0.0, total);
        tracer.set_wall(root, wall_start.elapsed().as_secs_f64());
        tracer.attr(root, "rows", exec.wire.rows_scanned);
        tracer.attr(root, "bytes", exec.wire.disk_bytes);
        let tier = if exec.wire.rg_cache_hits > 0 {
            "row_group"
        } else {
            "none"
        };
        tracer.attr(root, "cache_hit", tier);
        tracer.attr(root, "cache_bytes_avoided", exec.wire.cache_bytes_avoided);
        let mut cursor = 0.0;
        for (name, seconds) in [
            ("storage.disk_read", disk_s),
            ("storage.decompress", decompress_s),
            ("storage.scan", scan_s),
            ("storage.ops", ops_s),
        ] {
            if seconds <= 0.0 {
                continue;
            }
            let id = tracer.record(name, "storage", Some(root), cursor, cursor + seconds);
            cursor += seconds;
            match name {
                "storage.scan" => {
                    tracer.attr(id, "rows", exec.wire.rows_scanned);
                    tracer.attr(id, "row_groups", exec.scan_work.len() as u64);
                    tracer.attr(id, "row_groups_skipped", exec.wire.row_groups_skipped);
                    tracer.attr(id, "cache_hit", tier);
                    tracer.attr(id, "rg_cache_hits", exec.wire.rg_cache_hits);
                    tracer.attr(id, "cache_bytes_avoided", exec.wire.cache_bytes_avoided);
                }
                "storage.ops" => {
                    tracer.attr(id, "rows", exec.wire.rows_returned);
                }
                "storage.disk_read" => {
                    tracer.attr(id, "bytes", exec.wire.disk_bytes);
                }
                _ => {}
            }
        }
        tracer.finish().to_recs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::prelude::*;
    use lzcodec::CodecKind;
    use substrait_ir::{Expr, Rel};

    fn setup(codec: CodecKind) -> (Arc<ObjectStore>, Schema) {
        let store = Arc::new(ObjectStore::new());
        store.create_bucket("lake").unwrap();
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, false)]));
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![Arc::new(Array::from_i64((0..10_000).collect()))],
        )
        .unwrap();
        let bytes = parq::writer::write_file(
            schema.clone(),
            &[batch],
            parq::WriteOptions {
                codec,
                ..Default::default()
            },
        )
        .unwrap();
        store.put_object("lake", "t/0", bytes.into()).unwrap();
        ((store), (*schema).clone())
    }

    #[test]
    fn executes_and_bills_in_core_seconds() {
        let (store, schema) = setup(CodecKind::None);
        let node = StorageNode::new(
            store,
            NodeSpec {
                name: "storage",
                cores: 16,
                ghz: 2.0,
                eff_decode: 0.06,
                eff_vector: 0.12,
                eff_expr: 0.03,
            },
            DiskSpec { read_gbps: 2.0 },
            CostParams::default(),
        );
        let plan = Plan::new(Rel::read("t", schema, None));
        let resp = node.execute(&plan, "lake", "t/0").unwrap();
        assert_eq!(
            resp.batches.iter().map(|b| b.num_rows()).sum::<usize>(),
            10_000
        );
        assert!(resp.stats.storage_cpu_s > 0.0);
        assert_eq!(
            resp.stats.storage_decompress_s, 0.0,
            "no codec, no decompress cost"
        );
        assert!(resp.stats.disk_bytes > 0);
        assert_eq!(resp.stats.frontend_cpu_s, 0.0, "the frontend's to add");
    }

    #[test]
    fn compressed_objects_cost_decompression_but_less_disk() {
        let (store_raw, schema) = setup(CodecKind::None);
        let (store_zst, _) = setup(CodecKind::Zst);
        let spec = NodeSpec {
            name: "storage",
            cores: 16,
            ghz: 2.0,
            eff_decode: 0.06,
            eff_vector: 0.12,
            eff_expr: 0.03,
        };
        let disk = DiskSpec { read_gbps: 2.0 };
        let raw = StorageNode::new(store_raw, spec.clone(), disk, CostParams::default());
        let zst = StorageNode::new(store_zst, spec, disk, CostParams::default());
        let plan = Plan::new(Rel::read("t", schema, None));
        let a = raw.execute(&plan, "lake", "t/0").unwrap();
        let b = zst.execute(&plan, "lake", "t/0").unwrap();
        assert!(
            b.stats.disk_bytes < a.stats.disk_bytes,
            "compression shrinks disk reads"
        );
        assert!(b.stats.storage_decompress_s > 0.0);
        assert_eq!(
            a.batches.iter().map(|x| x.num_rows()).sum::<usize>(),
            b.batches.iter().map(|x| x.num_rows()).sum::<usize>(),
        );
    }

    #[test]
    fn weaker_node_bills_more_seconds_for_same_work() {
        let (store, schema) = setup(CodecKind::None);
        let weak = StorageNode::new(
            store.clone(),
            NodeSpec {
                name: "weak",
                cores: 16,
                ghz: 2.0,
                eff_decode: 0.06,
                eff_vector: 0.12,
                eff_expr: 0.03,
            },
            DiskSpec { read_gbps: 2.0 },
            CostParams::default(),
        );
        let strong = StorageNode::new(
            store,
            NodeSpec {
                name: "strong",
                cores: 16,
                ghz: 4.0,
                eff_decode: 0.12,
                eff_vector: 0.24,
                eff_expr: 0.06,
            },
            DiskSpec { read_gbps: 2.0 },
            CostParams::default(),
        );
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", schema, None)),
            predicate: Expr::cmp(
                columnar::kernels::cmp::CmpOp::Gt,
                Expr::field(0),
                Expr::lit(Scalar::Int64(5000)),
            ),
        });
        let a = weak.execute(&plan, "lake", "t/0").unwrap();
        let b = strong.execute(&plan, "lake", "t/0").unwrap();
        let (weak_s, strong_s) = (a.stats.storage_cpu_s, b.stats.storage_cpu_s);
        assert!(weak_s > strong_s * 3.0, "{weak_s} vs {strong_s}");
        assert_eq!(a.stats.rows_returned, b.stats.rows_returned);
    }
}
