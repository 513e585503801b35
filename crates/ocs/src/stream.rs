//! Frame-at-a-time production of a streaming OCS response.
//!
//! [`WireStream`] is the frontend's half of the streaming boundary: it
//! holds the storage node's result and *encodes lazily* — a schema frame,
//! then one frame per batch as the consumer pulls, then a trailer frame
//! carrying the request's [`ExecStats`] — so the consumer can overlap
//! decode/compute with transfer instead of waiting for one monolithic
//! Arrow payload. Each produced [`WireFrame`] carries the simulated
//! per-stage seconds ([`FrameTiming`]) that `netsim::split_phase` composes
//! into an overlapped makespan.
//!
//! Cost attribution: storage-side seconds (scan CPU, decompression) and
//! disk bytes are apportioned to batch frames proportional to each batch's
//! in-memory size — the executor produces batches per row group, so a
//! frame's share of the scan is its share of the data. Frontend relay
//! cost is billed per frame from that frame's actual encoded length, with
//! the fixed per-request component attached to the schema frame.

use std::collections::VecDeque;

use bytes::Bytes;
use columnar::ipc::{encode_batch_frame, encode_schema_frame, encode_trailer_frame};
use columnar::{RecordBatch, SchemaRef};
use netsim::{CostParams, ExecStats, FrameTiming, NodeSpec};

use crate::node::NodeResponse;

/// One encoded frame plus its simulated production cost.
#[derive(Debug, Clone)]
pub struct WireFrame {
    /// The encoded frame bytes (what crosses the network).
    pub bytes: Bytes,
    /// Simulated per-stage seconds of producing this frame. The consumer
    /// fills `compute_s` after decoding/processing.
    pub timing: FrameTiming,
}

/// A batch waiting to be encoded, with its pre-apportioned storage cost.
#[derive(Debug)]
struct PendingBatch {
    batch: RecordBatch,
    disk_bytes: u64,
    decompress_s: f64,
    storage_s: f64,
    input_chunks: u32,
}

/// Lazy frame producer for one request (schema → batches → trailer).
#[derive(Debug)]
pub struct WireStream {
    pending_schema: Option<SchemaRef>,
    batches: VecDeque<PendingBatch>,
    trailer_pending: bool,
    plan_bytes_len: usize,
    frontend_spec: NodeSpec,
    cost: CostParams,
    stats: ExecStats,
}

impl WireStream {
    /// Build a stream from a storage node's response. `plan_bytes_len` is
    /// the request size (its parse cost lands on the schema frame).
    pub fn new(
        schema: SchemaRef,
        resp: NodeResponse,
        plan_bytes_len: usize,
        frontend_spec: NodeSpec,
        cost: CostParams,
    ) -> WireStream {
        let total: f64 = resp
            .batches
            .iter()
            .map(|b| b.byte_size() as f64)
            .sum::<f64>()
            .max(1.0);
        let n = resp.batches.len();
        let mut disk_left = resp.stats.disk_bytes;
        // Scanned row groups, spread evenly over the batch frames. In the
        // streaming scan case batches and row groups are ~1:1 and every
        // frame stays indivisible; when the operator tree collapses the
        // scan into few output batches (aggregation pushdown), the frame
        // advertises how many independent input slices are behind it.
        let groups_scanned = resp.groups_scanned;
        let mut batches = VecDeque::with_capacity(n);
        for (i, batch) in resp.batches.into_iter().enumerate() {
            // Weight by in-memory size; uniform when every batch is empty.
            let w = if total > 1.0 {
                batch.byte_size() as f64 / total
            } else {
                1.0 / n.max(1) as f64
            };
            // Integer bytes: give the last frame the remainder so the
            // per-frame disk bytes sum exactly to the request total.
            let disk = if i + 1 == n {
                disk_left
            } else {
                ((resp.stats.disk_bytes as f64 * w) as u64).min(disk_left)
            };
            disk_left -= disk;
            let input_chunks =
                (groups_scanned / n.max(1) + usize::from(i < groups_scanned % n.max(1))) as u32;
            batches.push_back(PendingBatch {
                batch,
                disk_bytes: disk,
                decompress_s: resp.stats.storage_decompress_s * w,
                storage_s: resp.stats.storage_cpu_s * w,
                input_chunks,
            });
        }
        WireStream {
            pending_schema: Some(schema),
            batches,
            trailer_pending: true,
            plan_bytes_len,
            frontend_spec,
            cost,
            // `frontend_cpu_s` arrives 0 and accumulates as frames are
            // produced.
            stats: resp.stats,
        }
    }

    fn frontend_seconds(&self, frame_len: usize, with_request_fixed: bool) -> f64 {
        let mut work = frame_len as f64 * (self.cost.frontend_per_byte + self.cost.byte_ser);
        if with_request_fixed {
            work += self.cost.frontend_per_request
                + self.plan_bytes_len as f64 * self.cost.frontend_per_byte;
        }
        self.frontend_spec.core_seconds(work)
    }

    /// Produce the next frame, or `None` once the trailer has been sent.
    pub fn next_frame(&mut self) -> Option<WireFrame> {
        if let Some(schema) = self.pending_schema.take() {
            let bytes = encode_schema_frame(&schema);
            let frontend_s = self.frontend_seconds(bytes.len(), true);
            self.stats.frontend_cpu_s += frontend_s;
            return Some(WireFrame {
                timing: FrameTiming {
                    bytes: bytes.len() as u64,
                    frontend_s,
                    is_batch: false,
                    ..Default::default()
                },
                bytes,
            });
        }
        if let Some(p) = self.batches.pop_front() {
            let bytes = encode_batch_frame(&p.batch);
            let frontend_s = self.frontend_seconds(bytes.len(), false);
            self.stats.frontend_cpu_s += frontend_s;
            return Some(WireFrame {
                timing: FrameTiming {
                    bytes: bytes.len() as u64,
                    disk_bytes: p.disk_bytes,
                    decompress_s: p.decompress_s,
                    storage_s: p.storage_s,
                    frontend_s,
                    is_batch: true,
                    compute_s: 0.0,
                    input_chunks: p.input_chunks,
                },
                bytes,
            });
        }
        if self.trailer_pending {
            self.trailer_pending = false;
            // The trailer's own relay cost must be inside the stats it
            // carries; only the fixed-width `frontend_cpu_s` changes
            // between the two encodings (the span payload is already
            // final), so the probe length equals the final length.
            let probe_len = encode_trailer_frame(&self.stats.encode()).len();
            let frontend_s = self.frontend_seconds(probe_len, false);
            self.stats.frontend_cpu_s += frontend_s;
            let bytes = encode_trailer_frame(&self.stats.encode());
            return Some(WireFrame {
                timing: FrameTiming {
                    bytes: bytes.len() as u64,
                    frontend_s,
                    is_batch: false,
                    ..Default::default()
                },
                bytes,
            });
        }
        None
    }
}
