//! The client side of the OCS "gRPC" boundary.
//!
//! In the paper, the connector's PageSourceProvider serializes Substrait
//! IR with protobuf and sends it over gRPC; OCS answers with a *stream*
//! of Arrow columnar payloads. Here the boundary is a function call, but
//! the data crossing it is *actual bytes in both directions* — the plan
//! is really encoded and every frame really serialized/deserialized — so
//! byte counters measure exactly what a network would carry.
//!
//! [`OcsClient::execute_stream`] is the boundary: it returns a
//! [`BatchStream`] that pulls framed batches through a bounded in-flight
//! window (backpressure — at most `window` encoded frames are buffered
//! client-side at any moment), yielding decoded batches one at a time and
//! finishing with the split's [`SplitReport`] (trailer statistics, link
//! bytes, per-frame timings, peak buffering). [`OcsClient::execute`]
//! drains that stream for callers that want the whole result.

use std::collections::VecDeque;
use std::sync::Arc;

use columnar::ipc::{Frame, FrameDecoder};
use columnar::RecordBatch;
use netsim::{ExecStats, FrameTiming, SplitReport};
use substrait_ir::Plan;

use crate::frontend::OcsFrontend;
use crate::stream::{WireFrame, WireStream};
use crate::{OcsError, OcsResult};

/// Default bounded in-flight frame window (see [`crate::OcsConfig`]).
pub const DEFAULT_FRAME_WINDOW: usize = 4;

/// One executed request, fully drained.
#[derive(Debug, Clone)]
pub struct OcsResponse {
    /// Result batches.
    pub batches: Vec<RecordBatch>,
    /// What the drained stream reported.
    pub report: SplitReport,
}

/// A lazily-decoded streaming response: framed batches pulled through a
/// bounded in-flight window.
#[derive(Debug)]
pub struct BatchStream {
    producer: WireStream,
    window: usize,
    inflight: VecDeque<WireFrame>,
    inflight_bytes: u64,
    peak_buffered_bytes: u64,
    decoder: FrameDecoder,
    stats: Option<ExecStats>,
    request_bytes: u64,
    timings: Vec<FrameTiming>,
    done: bool,
}

impl BatchStream {
    fn new(producer: WireStream, window: usize, request_bytes: u64) -> BatchStream {
        BatchStream {
            producer,
            window: window.max(1),
            inflight: VecDeque::new(),
            inflight_bytes: 0,
            peak_buffered_bytes: 0,
            decoder: FrameDecoder::new(),
            stats: None,
            request_bytes,
            timings: Vec::new(),
            done: false,
        }
    }

    /// Fill the in-flight window up to its bound (the producer encodes a
    /// frame only when a window slot is free — the backpressure model).
    fn fill_window(&mut self) {
        let m = obs::metrics();
        while self.inflight.len() < self.window {
            match self.producer.next_frame() {
                Some(f) => {
                    m.counter("ocs.rpc.frames").inc();
                    m.histogram("ocs.rpc.frame_bytes", obs::metrics::BYTES_BUCKETS)
                        .observe(f.bytes.len() as f64);
                    self.inflight_bytes += f.bytes.len() as u64;
                    self.inflight.push_back(f);
                    self.peak_buffered_bytes = self.peak_buffered_bytes.max(self.inflight_bytes);
                    m.gauge("ocs.rpc.peak_buffered_bytes")
                        .record_max(self.inflight_bytes as i64);
                }
                None => break,
            }
        }
        // Leaving the refill with a full window while the producer still
        // has frames means it ran out of slots: the consumer is pacing the
        // stream. Record the stall so `EXPLAIN ANALYZE` can show where
        // drains lagged. A full window holding the last frame stalls
        // nothing.
        if self.inflight.len() >= self.window && !self.producer.is_exhausted() {
            obs::flight().record(
                obs::FlightKind::BackpressureStall,
                self.window as u64,
                self.inflight.len() as u64,
                self.timings.len() as u64,
            );
        }
    }

    /// Pull the next decoded batch; `Ok(None)` after the trailer arrives.
    ///
    /// Truncated or corrupted frame sequences surface as structured
    /// [`OcsError::Exec`] — never a panic.
    pub fn next_batch(&mut self) -> OcsResult<Option<RecordBatch>> {
        loop {
            if self.done {
                return Ok(None);
            }
            self.fill_window();
            let Some(frame) = self.inflight.pop_front() else {
                // Producer exhausted without a trailer frame.
                self.done = true;
                return Err(OcsError::Exec(
                    "response stream ended without a trailer frame".into(),
                ));
            };
            self.inflight_bytes -= frame.bytes.len() as u64;
            self.decoder.feed(frame.bytes);
            let decoded = self
                .decoder
                .next_frame()
                .map_err(|e| OcsError::Exec(format!("frame decode: {e}")))?;
            self.timings.push(frame.timing);
            match decoded {
                Some(Frame::Schema(_)) => continue,
                Some(Frame::Batch(b)) => return Ok(Some(b)),
                Some(Frame::Trailer(t)) => {
                    self.decoder
                        .finish()
                        .map_err(|e| OcsError::Exec(format!("frame decode: {e}")))?;
                    self.stats = Some(
                        ExecStats::decode(&t)
                            .map_err(|e| OcsError::Exec(format!("trailer decode: {e}")))?,
                    );
                    self.done = true;
                    return Ok(None);
                }
                None => {
                    // Each wire frame is complete by construction; a
                    // partial decode here means corruption upstream.
                    return Err(OcsError::Exec("incomplete frame in response stream".into()));
                }
            }
        }
    }

    /// Finish the stream and return the split's report: the trailer's
    /// statistics, one link round trip carrying the plan bytes out and
    /// every frame back, and the frame timeline. Deserialization cost is
    /// the consumer's to fill in. Errors if the stream was not fully
    /// consumed to the trailer.
    pub fn finish(self) -> OcsResult<SplitReport> {
        let Some(stats) = self.stats else {
            return Err(OcsError::Exec(
                "stream finished before the trailer frame was consumed".into(),
            ));
        };
        let response_bytes: u64 = self.timings.iter().map(|t| t.bytes).sum();
        Ok(SplitReport {
            stats,
            network_bytes: self.request_bytes + response_bytes,
            network_requests: 1,
            compute_deser_s: 0.0,
            frames: self.timings,
            peak_buffered_bytes: self.peak_buffered_bytes,
        })
    }
}

/// A client bound to one OCS frontend.
#[derive(Debug, Clone)]
pub struct OcsClient {
    frontend: Arc<OcsFrontend>,
    window: usize,
}

impl OcsClient {
    /// Bind to a frontend with an in-flight frame window (a deployment's
    /// configured one comes from [`crate::Ocs::client`]).
    pub fn with_window(frontend: Arc<OcsFrontend>, window: usize) -> Self {
        OcsClient {
            frontend,
            window: window.max(1),
        }
    }

    /// Execute `plan` against one object, returning the streaming
    /// response: batches decoded one frame at a time through the bounded
    /// window.
    pub fn execute_stream(&self, plan: &Plan, bucket: &str, key: &str) -> OcsResult<BatchStream> {
        let request = substrait_ir::encode(plan);
        let wire = self.frontend.handle_stream(&request, bucket, key)?;
        Ok(BatchStream::new(wire, self.window, request.len() as u64))
    }

    /// Execute `plan` and drain the stream into one response.
    pub fn execute(&self, plan: &Plan, bucket: &str, key: &str) -> OcsResult<OcsResponse> {
        let mut stream = self.execute_stream(plan, bucket, key)?;
        let mut batches = Vec::new();
        while let Some(b) = stream.next_batch()? {
            batches.push(b);
        }
        Ok(OcsResponse {
            batches,
            report: stream.finish()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ocs, OcsConfig};
    use columnar::agg::AggFunc;
    use columnar::prelude::*;
    use objstore::ObjectStore;
    use substrait_ir::{Expr, Measure, Rel};

    /// One 10 000-row object in 1 024-row groups, so scans produce many
    /// batches (= many frames), behind an OCS deployment of `config`.
    fn deployment_with(config: OcsConfig) -> (Arc<ObjectStore>, Ocs, Schema) {
        let store = Arc::new(ObjectStore::new());
        store.create_bucket("lake").unwrap();
        let schema = Arc::new(Schema::new(vec![
            Field::new("g", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
        ]));
        let n = 10_000i64;
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![
                Arc::new(Array::from_i64((0..n).map(|i| i % 7).collect())),
                Arc::new(Array::from_f64((0..n).map(|i| i as f64).collect())),
            ],
        )
        .unwrap();
        let bytes = parq::writer::write_file(
            schema.clone(),
            &[batch],
            parq::WriteOptions {
                row_group_rows: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        store.put_object("lake", "t/0", bytes.into()).unwrap();
        let ocs = Ocs::new(store.clone(), config);
        (store, ocs, (*schema).clone())
    }

    /// Cache tiers off: several tests here re-execute the same plan
    /// against the same object and compare cost ledgers, which warm
    /// caches would legitimately change.
    fn deployment() -> (Ocs, Schema) {
        let (_, ocs, schema) = deployment_with(OcsConfig::paper_testbed_uncached());
        (ocs, schema)
    }

    /// Same data as [`deployment`], but with the near-storage cache tiers
    /// on (paper-testbed budgets).
    fn cached_deployment() -> (Arc<ObjectStore>, Ocs, Schema) {
        deployment_with(OcsConfig::paper_testbed())
    }

    #[test]
    fn warm_repeat_hits_result_cache_at_zero_storage_cost() {
        let (_, ocs, schema) = cached_deployment();
        let client = ocs.client();
        let plan = Plan::new(Rel::Aggregate {
            input: Box::new(Rel::read("t", schema, None)),
            group_by: vec![(Expr::field(0), "g".into())],
            measures: vec![Measure {
                func: AggFunc::Sum,
                arg: Some(Expr::field(1)),
                name: "s".into(),
            }],
        });
        let cold = client.execute(&plan, "lake", "t/0").unwrap();
        let warm = client.execute(&plan, "lake", "t/0").unwrap();

        assert_eq!(cold.report.stats.result_cache_hits, 0);
        assert_eq!(warm.report.stats.result_cache_hits, 1);
        assert!(cold.report.stats.storage_cpu_s > 0.0);
        assert_eq!(warm.report.stats.storage_cpu_s, 0.0, "hit replays for free");
        assert_eq!(warm.report.stats.disk_bytes, 0);
        assert!(
            warm.report.stats.cache_bytes_avoided
                >= cold.report.stats.disk_bytes + cold.report.stats.rows_scanned,
            "hit reports what the cold run paid"
        );
        // Identical rows either way.
        assert_eq!(
            warm.report.stats.rows_returned,
            cold.report.stats.rows_returned
        );
        let rows = |batches: &[RecordBatch]| -> Vec<Vec<Scalar>> {
            batches
                .iter()
                .flat_map(|b| (0..b.num_rows()).map(|r| b.row(r)).collect::<Vec<_>>())
                .collect()
        };
        assert_eq!(rows(&warm.batches), rows(&cold.batches));
    }

    #[test]
    fn distinct_plans_share_the_row_group_cache() {
        let (_, ocs, schema) = cached_deployment();
        let client = ocs.client();
        // Two different plans over the same columns: the second misses the
        // result cache but scans entirely from the decoded chunk cache.
        let scan = Plan::new(Rel::read("t", schema.clone(), None));
        let agg = Plan::new(Rel::Aggregate {
            input: Box::new(Rel::read("t", schema, None)),
            group_by: vec![(Expr::field(0), "g".into())],
            measures: vec![Measure {
                func: AggFunc::Sum,
                arg: Some(Expr::field(1)),
                name: "s".into(),
            }],
        });
        let cold = client.execute(&scan, "lake", "t/0").unwrap();
        assert!(cold.report.stats.rg_cache_misses > 0);
        assert_eq!(cold.report.stats.rg_cache_hits, 0);

        let warm = client.execute(&agg, "lake", "t/0").unwrap();
        assert_eq!(
            warm.report.stats.result_cache_hits, 0,
            "different fingerprint"
        );
        assert!(
            warm.report.stats.rg_cache_hits > 0,
            "chunks reused across plans"
        );
        assert_eq!(
            warm.report.stats.rg_cache_misses, 0,
            "every chunk was resident"
        );
        assert_eq!(
            warm.report.stats.disk_bytes, 0,
            "no disk traffic on a warm scan"
        );
        assert!(warm.report.stats.cache_bytes_avoided > 0);
        // The same aggregate on a fresh deployment decodes every chunk.
        let (_, fresh, _) = cached_deployment();
        let cold_agg = fresh.client().execute(&agg, "lake", "t/0").unwrap();
        assert_eq!(cold_agg.report.stats.rg_cache_hits, 0);
        assert!(
            warm.report.stats.storage_cpu_s < cold_agg.report.stats.storage_cpu_s,
            "warm aggregation skips decode: {} vs {}",
            warm.report.stats.storage_cpu_s,
            cold_agg.report.stats.storage_cpu_s
        );
    }

    #[test]
    fn writes_invalidate_both_cache_tiers() {
        let (store, ocs, schema) = cached_deployment();
        let client = ocs.client();
        let plan = Plan::new(Rel::read("t", schema.clone(), None));
        let before = client.execute(&plan, "lake", "t/0").unwrap();
        assert_eq!(before.report.stats.rows_returned, 10_000);
        // Warm it, then overwrite the object with 5 rows.
        client.execute(&plan, "lake", "t/0").unwrap();
        let schema = Arc::new(schema);
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![
                Arc::new(Array::from_i64(vec![1, 2, 3, 4, 5])),
                Arc::new(Array::from_f64(vec![1.0, 2.0, 3.0, 4.0, 5.0])),
            ],
        )
        .unwrap();
        let bytes = parq::writer::write_file(schema.clone(), &[batch], Default::default()).unwrap();
        store.put_object("lake", "t/0", bytes.into()).unwrap();

        let after = client.execute(&plan, "lake", "t/0").unwrap();
        assert_eq!(
            after.report.stats.rows_returned, 5,
            "no stale cached result"
        );
        assert_eq!(after.report.stats.result_cache_hits, 0);
        assert_eq!(
            after.report.stats.rg_cache_hits, 0,
            "chunk keys carry the version"
        );
        assert!(after.report.stats.disk_bytes > 0);
    }

    #[test]
    fn aggregation_pushdown_collapses_response_bytes() {
        let (ocs, schema) = deployment();
        let client = ocs.client();

        // Full scan: ~10k rows cross the wire.
        let scan = Plan::new(Rel::read("t", schema.clone(), None));
        let full = client.execute(&scan, "lake", "t/0").unwrap();
        assert_eq!(full.report.stats.rows_returned, 10_000);

        // Aggregation in storage: 7 rows cross the wire.
        let agg = Plan::new(Rel::Aggregate {
            input: Box::new(Rel::read("t", schema, None)),
            group_by: vec![(Expr::field(0), "g".into())],
            measures: vec![Measure {
                func: AggFunc::Sum,
                arg: Some(Expr::field(1)),
                name: "s".into(),
            }],
        });
        let small = client.execute(&agg, "lake", "t/0").unwrap();
        assert_eq!(small.report.stats.rows_returned, 7);
        assert!(
            small.report.response_bytes() * 100 < full.report.response_bytes(),
            "{} vs {}",
            small.report.response_bytes(),
            full.report.response_bytes()
        );
        // But the storage node did *more* compute for the aggregation.
        assert!(small.report.stats.storage_cpu_s > full.report.stats.storage_cpu_s);
        // Request (plan) bytes are tiny in both cases.
        assert!(full.report.network_bytes - full.report.response_bytes() < 500);
    }

    #[test]
    fn rejected_plans_carry_diagnostics_across_the_error_frame() {
        let (ocs, schema) = deployment();
        // SUM over a group key of the wrong kind: measure arg is utf8-free
        // here, so use a field reference past the scan arity instead.
        let plan = Plan::new(Rel::Aggregate {
            input: Box::new(Rel::read("t", schema, None)),
            group_by: vec![(Expr::field(0), "g".into())],
            measures: vec![Measure {
                func: AggFunc::Sum,
                arg: Some(Expr::field(9)),
                name: "s".into(),
            }],
        });
        let err = ocs.client().execute(&plan, "lake", "t/0").unwrap_err();
        let diag = err.diagnostic().expect("plan rejection is structured");
        assert_eq!(diag.code, substrait_ir::DiagCode::FieldOutOfRange);
        assert_eq!(diag.path, "root.measures[0].arg");
    }

    #[test]
    fn results_match_direct_execution() {
        let (ocs, schema) = deployment();
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", schema, None)),
            predicate: Expr::cmp(
                columnar::kernels::cmp::CmpOp::Lt,
                Expr::field(1),
                Expr::lit(Scalar::Float64(5.0)),
            ),
        });
        let resp = ocs.client().execute(&plan, "lake", "t/0").unwrap();
        let rows: usize = resp.batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(rows, 5);
    }

    #[test]
    fn streaming_matches_buffered_batch_for_batch() {
        // The oracle is the storage node called directly: same batches,
        // no frontend, no serialization.
        let config = OcsConfig::paper_testbed_uncached();
        let (store, ocs, schema) = deployment_with(config.clone());
        let node =
            crate::StorageNode::new(store, config.storage_node, config.storage_disk, config.cost);
        let plan = Plan::new(Rel::read("t", schema, None));
        let direct = node.execute(&plan, "lake", "t/0").unwrap();
        let streamed = ocs.client().execute(&plan, "lake", "t/0").unwrap();
        assert_eq!(streamed.batches, direct.batches);
        assert!(streamed.batches.len() > 4, "one batch per row group");
        // The trailer carries the node's counters plus the relay bill.
        assert!(streamed.report.stats.frontend_cpu_s > 0.0);
        assert_eq!(
            ExecStats {
                frontend_cpu_s: 0.0,
                spans: Vec::new(),
                ..streamed.report.stats
            },
            ExecStats {
                spans: Vec::new(),
                ..direct.stats
            }
        );
        // Framing adds per-frame headers but stays the same order of
        // magnitude as the in-memory payload.
        let payload: u64 = direct.batches.iter().map(|b| b.byte_size() as u64).sum();
        assert!(streamed.report.response_bytes() >= payload);
        assert!(streamed.report.response_bytes() < payload * 2);
    }

    #[test]
    fn bounded_window_caps_client_buffering() {
        let (ocs, schema) = deployment();
        let plan = Plan::new(Rel::read("t", schema.clone(), None));
        let wide = OcsClient::with_window(ocs.frontend().clone(), 1024);
        let narrow = OcsClient::with_window(ocs.frontend().clone(), 2);
        let a = wide.execute(&plan, "lake", "t/0").unwrap();
        let b = narrow.execute(&plan, "lake", "t/0").unwrap();
        let (a, b) = (a.report, b.report);
        assert!(a.frames.len() > 4, "scan should produce many frames");
        assert_eq!(a.frames.len(), b.frames.len());
        assert!(
            b.peak_buffered_bytes < a.peak_buffered_bytes,
            "narrow window {} must buffer less than wide {}",
            b.peak_buffered_bytes,
            a.peak_buffered_bytes
        );
        // And far less than the whole response.
        assert!(b.peak_buffered_bytes * 2 < b.response_bytes());
    }

    #[test]
    fn stream_timings_cover_all_stats() {
        let (ocs, schema) = deployment();
        let plan = Plan::new(Rel::read("t", schema, None));
        let report = ocs.client().execute(&plan, "lake", "t/0").unwrap().report;
        let storage: f64 = report.frames.iter().map(|t| t.storage_s).sum();
        let frontend: f64 = report.frames.iter().map(|t| t.frontend_s).sum();
        let disk: u64 = report.frames.iter().map(|t| t.disk_bytes).sum();
        assert!((storage - report.stats.storage_cpu_s).abs() < 1e-9);
        assert!((frontend - report.stats.frontend_cpu_s).abs() < 1e-9);
        assert_eq!(disk, report.stats.disk_bytes);
        // One round trip; the bytes the frames do not account for are the
        // encoded plan.
        assert_eq!(report.network_requests, 1);
        assert_eq!(
            report.network_bytes - report.response_bytes(),
            substrait_ir::encode(&plan).len() as u64
        );
        // First and last frames are schema/trailer, not batches.
        assert!(!report.frames[0].is_batch);
        assert!(!report.frames[report.frames.len() - 1].is_batch);
    }

    /// The receive path copies no batch byte: a batch pulled from the
    /// stream holds its Utf8 data inside the frame the producer encoded.
    #[test]
    fn batch_stream_batches_alias_wire_frames() {
        let schema = Arc::new(Schema::new(vec![Field::new("s", DataType::Utf8, false)]));
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![Arc::new(Array::from_strs(["alpha", "beta", "gamma"]))],
        )
        .unwrap();
        let resp = crate::node::NodeResponse {
            batches: vec![batch],
            stats: ExecStats::default(),
            groups_scanned: 1,
        };
        let spec = netsim::ClusterSpec::paper_testbed().frontend;
        let wire = WireStream::new(schema, resp, 0, spec, netsim::CostParams::default());
        let mut stream = BatchStream::new(wire, 8, 0);
        stream.fill_window();
        let frames: Vec<bytes::Bytes> = stream.inflight.iter().map(|f| f.bytes.clone()).collect();
        assert_eq!(frames.len(), 3, "schema, batch, trailer");
        let got = stream.next_batch().unwrap().expect("one batch");
        let data = &got.column(0).as_utf8().unwrap().data;
        assert_eq!(data.as_ref(), b"alphabetagamma");
        let (at, frame) = (data.as_ptr() as usize, &frames[1]);
        let start = frame.as_ptr() as usize;
        assert!(
            at >= start && at + data.len() <= start + frame.len(),
            "utf8 data was copied out of the batch frame"
        );
        assert!(stream.next_batch().unwrap().is_none());
        stream.finish().unwrap();
    }
}
