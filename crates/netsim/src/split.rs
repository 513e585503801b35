//! One record per finished split, and the one function that prices a
//! query's split phase from those records.
//!
//! Every connector — the streaming OCS boundary and the monolithic raw
//! GET — describes a drained split with the same [`SplitReport`]. [`split_phase`] replays all reports' frames through
//! the six-stage pipeline of `STAGES` (the paper's Table 3 rows that
//! overlap) and returns everything the engine bills or draws from it: the
//! overlapped makespan, its apportioning into ledger phases, the retired
//! additive figure, time-to-first-batch, per-split completion times and
//! per-resource busy intervals.

use crate::sched::{makespan, pipeline_grouped};
use crate::{ClusterSpec, ExecStats, FrameTiming, Phase};

/// Everything known about one split once its stream has been drained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SplitReport {
    /// Consolidated storage/frontend execution statistics (the stream
    /// trailer of a streaming connector).
    pub stats: ExecStats,
    /// Bytes that crossed the storage→compute link for this split, both
    /// directions. The request direction is whatever the frames do not
    /// account for: `network_bytes - response_bytes()`.
    pub network_bytes: u64,
    /// Request/response exchanges on the link.
    pub network_requests: u64,
    /// Core-seconds of result deserialization on the compute node.
    pub compute_deser_s: f64,
    /// Per-frame simulated timings, in wire order.
    pub frames: Vec<FrameTiming>,
    /// Peak encoded bytes buffered engine-side while draining the stream.
    pub peak_buffered_bytes: u64,
}

impl SplitReport {
    /// The report of a whole-result fetch (raw GET, select API): the
    /// payload is one indivisible batch frame carrying the request's whole
    /// storage-side cost, so the scheduler sees no intra-split overlap and
    /// peak buffering equals the full payload.
    pub fn monolithic(
        stats: ExecStats,
        network_bytes: u64,
        network_requests: u64,
        compute_deser_s: f64,
    ) -> SplitReport {
        let frame = FrameTiming {
            bytes: network_bytes,
            disk_bytes: stats.disk_bytes,
            decompress_s: stats.storage_decompress_s,
            storage_s: stats.storage_cpu_s,
            frontend_s: stats.frontend_cpu_s,
            compute_s: 0.0,
            is_batch: true,
            input_chunks: 1,
        };
        SplitReport {
            stats,
            network_bytes,
            network_requests,
            compute_deser_s,
            frames: vec![frame],
            peak_buffered_bytes: network_bytes,
        }
    }

    /// Encoded bytes of all frames (the response direction).
    pub fn response_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes).sum()
    }

    /// Fold engine-side compute seconds into the frame timeline. Per-batch
    /// operator work pairs one-to-one with batch frames when the counts
    /// line up (streaming connectors yield one batch per frame); otherwise
    /// it lumps onto the last batch frame. Result deserialization follows
    /// the bytes that needed deserializing; tail work (top-N / limit
    /// finishing after the stream drained) lands on the last batch frame
    /// since it cannot start earlier.
    pub fn fold_compute(&mut self, batch_compute_s: &[f64], tail_compute_s: f64) {
        if self.frames.is_empty() {
            self.frames.push(FrameTiming {
                is_batch: true,
                ..Default::default()
            });
        }
        let batch_idx: Vec<usize> = (0..self.frames.len())
            .filter(|&i| self.frames[i].is_batch)
            .collect();
        let last = batch_idx.last().copied().unwrap_or(self.frames.len() - 1);
        if batch_idx.len() == batch_compute_s.len() {
            for (&i, &s) in batch_idx.iter().zip(batch_compute_s) {
                self.frames[i].compute_s += s;
            }
        } else {
            self.frames[last].compute_s += batch_compute_s.iter().sum::<f64>();
        }
        let total_bytes: f64 = batch_idx.iter().map(|&i| self.frames[i].bytes as f64).sum();
        if total_bytes > 0.0 {
            for &i in &batch_idx {
                self.frames[i].compute_s +=
                    self.compute_deser_s * self.frames[i].bytes as f64 / total_bytes;
            }
        } else {
            self.frames[last].compute_s += self.compute_deser_s;
        }
        self.frames[last].compute_s += tail_compute_s;
    }
}

/// One row of the split-phase pipeline.
struct Stage {
    /// Ledger phase the stage's share of the makespan is billed to.
    phase: Phase,
    /// Physical resource the stage occupies. Decompress and scan name the
    /// same storage cores, so their busy intervals merge into one
    /// utilization timeline.
    resource: &'static str,
    /// Parallel lanes the cluster offers the stage.
    lanes: fn(&ClusterSpec) -> usize,
    /// Whether one split's frames pass the stage one at a time, in wire
    /// order. Disk, decompress and scan parallelize *within* a split (row
    /// groups decode on independent storage cores), but one frontend
    /// thread relays a request's frames in order and one engine driver
    /// drains a split's batches in order.
    serial_per_split: bool,
}

/// The six stages every frame flows through, in order. Per-frame durations
/// are assembled in this order by [`split_phase`].
const STAGES: [Stage; 6] = [
    Stage {
        phase: Phase::StorageDisk,
        resource: "storage-disk",
        lanes: |_| 1,
        serial_per_split: false,
    },
    Stage {
        phase: Phase::StorageDecompress,
        resource: "storage-cores",
        lanes: |c| c.storage.cores,
        serial_per_split: false,
    },
    Stage {
        phase: Phase::StorageCpu,
        resource: "storage-cores",
        lanes: |c| c.storage.cores,
        serial_per_split: false,
    },
    Stage {
        phase: Phase::FrontendCpu,
        resource: "frontend-cores",
        lanes: |c| c.frontend.cores,
        serial_per_split: true,
    },
    Stage {
        phase: Phase::NetworkTransfer,
        resource: "link",
        lanes: |_| 1,
        serial_per_split: false,
    },
    Stage {
        phase: Phase::ComputeCpu,
        resource: "compute-cores",
        lanes: |c| c.compute.cores,
        serial_per_split: true,
    },
];

/// Busy intervals of one `STAGES` row, relative to the split phase's
/// start.
#[derive(Debug, Clone, PartialEq)]
pub struct StageBusy {
    /// Resource the stage occupies.
    pub resource: &'static str,
    /// Lanes the resource offers.
    pub lanes: usize,
    /// Service windows `(start, end)`, in schedule order.
    pub intervals: Vec<(f64, f64)>,
}

/// The priced split phase of one query: the overlapped pipeline makespan
/// versus the additive stage-barrier model it replaces, plus streaming
/// observability.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SplitPhase {
    /// Overlapped wall-clock of the phase (what the ledger is billed).
    pub overlapped_s: f64,
    /// What the same work costs with every stage a global barrier across
    /// all splits (disk, then decompress, then scan, …) — the additive
    /// model the pipeline replaced.
    pub additive_s: f64,
    /// Completion of the earliest batch frame through the whole pipeline.
    pub time_to_first_batch_s: f64,
    /// Link bytes summed over the splits.
    pub moved_bytes: u64,
    /// Link round trips summed over the splits.
    pub moved_requests: u64,
    /// Frames summed over the splits (schema + batch + trailer).
    pub frames: u64,
    /// Per-split peak engine-side buffering, summed.
    pub peak_buffered_bytes: u64,
    /// `overlapped_s` apportioned to the six ledger phases proportional
    /// to each stage's busy time, in stage order; the shares sum to it.
    /// Empty when no stage did any work.
    pub phase_shares: Vec<(Phase, f64)>,
    /// When each split's last frame left the last stage.
    pub split_done_s: Vec<f64>,
    /// Busy intervals per stage, in stage order.
    pub stage_busy: Vec<StageBusy>,
}

impl SplitPhase {
    /// Per-resource utilization timelines for a phase that starts at
    /// `start_s` on the query clock.
    pub fn profile(&self, start_s: f64) -> obs::Profile {
        let mut profile = obs::Profile::new(start_s, start_s + self.overlapped_s);
        for stage in &self.stage_busy {
            let intervals = stage
                .intervals
                .iter()
                .map(|&(s, e)| (start_s + s, start_s + e))
                .collect();
            profile.add_resource(stage.resource, stage.lanes, intervals);
        }
        profile
    }
}

/// Price the split phase of a query from its splits' reports (engine
/// compute already folded into the frames, see
/// [`SplitReport::fold_compute`]).
///
/// One pipeline item per frame with a duration per `STAGES` row. A frame
/// only occupies a stage's lane for its own share of the work, so stage k
/// of frame n+1 overlaps stage k+1 of frame n — the whole point of the
/// streaming boundary.
pub fn split_phase(reports: &[SplitReport], cluster: &ClusterSpec) -> SplitPhase {
    let moved_bytes: u64 = reports.iter().map(|r| r.network_bytes).sum();
    let moved_requests: u64 = reports.iter().map(|r| r.network_requests).sum();

    let bps = cluster.network.bytes_per_second();
    let mut items: Vec<Vec<f64>> = Vec::new();
    let mut batch_items: Vec<usize> = Vec::new();
    let mut groups: Vec<usize> = Vec::new();
    // Frames are interleaved round-robin across splits because that is how
    // the wall clock sees them: every split issues its request up front and
    // the shared resources (the storage disk, the link) serve the
    // concurrent streams fairly, not one split start-to-finish before the
    // next. Within a split, frames stay in wire order.
    let max_frames = reports.iter().map(|r| r.frames.len()).max().unwrap_or(0);
    for frame_ix in 0..max_frames {
        for (split_ix, r) in reports.iter().enumerate() {
            let Some(f) = r.frames.get(frame_ix) else {
                continue;
            };
            // Per-request round trips and any unframed (request-direction)
            // bytes ride on the split's first frame.
            let first_extra = if frame_ix == 0 {
                r.network_requests as f64 * cluster.network.latency_s
                    + r.network_bytes.saturating_sub(r.response_bytes()) as f64 / bps
            } else {
                0.0
            };
            let disk_s = cluster.storage_disk.read_seconds(f.disk_bytes);
            // A frame whose input side spans several scanned row groups
            // (aggregation pushdown collapses a whole split's scan into
            // one output batch) is split into per-row-group input slices
            // so disk read and scan overlap exactly as the storage
            // executor performs them. The output-side frame item carries
            // no input cost; group-serial FCFS on the frontend stage makes
            // it wait for every slice of its own split.
            let chunks = f.input_chunks.max(1) as usize;
            if chunks > 1 {
                let per = 1.0 / chunks as f64;
                for _ in 0..chunks {
                    groups.push(split_ix);
                    items.push(vec![
                        disk_s * per,
                        f.decompress_s * per,
                        f.storage_s * per,
                        0.0,
                        0.0,
                        0.0,
                    ]);
                }
            }
            if f.is_batch {
                batch_items.push(items.len());
            }
            groups.push(split_ix);
            let (in_disk, in_dec, in_sto) = if chunks > 1 {
                (0.0, 0.0, 0.0)
            } else {
                (disk_s, f.decompress_s, f.storage_s)
            };
            items.push(vec![
                in_disk,
                in_dec,
                in_sto,
                f.frontend_s,
                f.bytes as f64 / bps + first_extra,
                f.compute_s,
            ]);
        }
    }
    let lanes: Vec<usize> = STAGES.iter().map(|s| (s.lanes)(cluster)).collect();
    let serial: Vec<bool> = STAGES.iter().map(|s| s.serial_per_split).collect();
    let sched = pipeline_grouped(&items, &lanes, &groups, &serial);

    // The additive model: every stage a global barrier across all splits,
    // each split one task on the stage's lanes (disk and link are serial,
    // so their barriers are plain totals).
    let barrier = |stage: usize, per_split: fn(&SplitReport) -> f64| {
        let durations: Vec<f64> = reports.iter().map(per_split).collect();
        makespan(&durations, lanes[stage])
    };
    let disk_bytes: u64 = reports.iter().map(|r| r.stats.disk_bytes).sum();
    let additive_s = cluster.storage_disk.read_seconds(disk_bytes)
        + barrier(1, |r| r.stats.storage_decompress_s)
        + barrier(2, |r| r.stats.storage_cpu_s)
        + barrier(3, |r| r.stats.frontend_cpu_s)
        + cluster
            .network
            .transfer_seconds(moved_bytes, moved_requests.max(1))
        + barrier(5, |r| r.frames.iter().map(|f| f.compute_s).sum());

    // Apportion the overlapped makespan back into ledger phases
    // proportional to each stage's busy time, so the breakdown still says
    // *where* the time went.
    let busy_total: f64 = sched.stage_busy.iter().sum();
    let phase_shares = if busy_total > 0.0 {
        STAGES
            .iter()
            .zip(&sched.stage_busy)
            .map(|(stage, &busy)| (stage.phase, sched.makespan * busy / busy_total))
            .collect()
    } else {
        Vec::new()
    };

    let mut split_done_s = vec![0.0f64; reports.len()];
    for (&g, &done) in groups.iter().zip(&sched.item_done) {
        split_done_s[g] = split_done_s[g].max(done);
    }

    let time_to_first_batch_s = sched.first_done_among(batch_items);
    let stage_busy = STAGES
        .iter()
        .zip(lanes)
        .zip(sched.stage_intervals)
        .map(|((stage, lanes), intervals)| StageBusy {
            resource: stage.resource,
            lanes,
            intervals,
        })
        .collect();

    SplitPhase {
        overlapped_s: sched.makespan,
        additive_s,
        time_to_first_batch_s,
        moved_bytes,
        moved_requests,
        frames: reports.iter().map(|r| r.frames.len() as u64).sum(),
        peak_buffered_bytes: reports.iter().map(|r| r.peak_buffered_bytes).sum(),
        phase_shares,
        split_done_s,
        stage_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1e-3)
    }

    fn frame(
        bytes: u64,
        disk_bytes: u64,
        decompress_s: f64,
        storage_s: f64,
        frontend_s: f64,
        is_batch: bool,
        input_chunks: u32,
    ) -> FrameTiming {
        FrameTiming {
            bytes,
            disk_bytes,
            decompress_s,
            storage_s,
            frontend_s,
            compute_s: 0.0,
            is_batch,
            input_chunks,
        }
    }

    /// A cluster with round numbers: 1 GB/s disk and (to rounding) link,
    /// no latency unless a test sets one, two lanes on every node.
    fn cluster() -> ClusterSpec {
        let mut c = ClusterSpec::paper_testbed();
        c.storage_disk.read_gbps = 1.0;
        c.network.gbit_per_s = 8.0 / 0.94;
        c.network.latency_s = 0.0;
        c.storage.cores = 2;
        c.frontend.cores = 2;
        c.compute.cores = 2;
        c
    }

    #[test]
    fn monolithic_is_one_indivisible_batch_frame() {
        let stats = ExecStats {
            storage_cpu_s: 0.25,
            storage_decompress_s: 0.125,
            frontend_cpu_s: 0.0625,
            disk_bytes: 4096,
            rows_scanned: 10,
            rows_returned: 7,
            ..Default::default()
        };
        // Field for field what `BufferedPageStream::whole_result` used to
        // assemble by hand.
        assert_eq!(
            SplitReport::monolithic(stats.clone(), 1000, 2, 0.5),
            SplitReport {
                stats,
                network_bytes: 1000,
                network_requests: 2,
                compute_deser_s: 0.5,
                frames: vec![FrameTiming {
                    bytes: 1000,
                    disk_bytes: 4096,
                    decompress_s: 0.125,
                    storage_s: 0.25,
                    frontend_s: 0.0625,
                    compute_s: 0.0,
                    is_batch: true,
                    input_chunks: 1,
                }],
                peak_buffered_bytes: 1000,
            }
        );
    }

    #[test]
    fn fold_compute_pairs_batches_and_spreads_deser_by_bytes() {
        let mut r = SplitReport {
            compute_deser_s: 3.0,
            frames: vec![
                frame(10, 0, 0.0, 0.0, 0.0, false, 0),
                frame(100, 0, 0.0, 0.0, 0.0, true, 1),
                frame(200, 0, 0.0, 0.0, 0.0, true, 1),
                frame(10, 0, 0.0, 0.0, 0.0, false, 0),
            ],
            ..Default::default()
        };
        r.fold_compute(&[0.5, 0.25], 4.0);
        let compute: Vec<f64> = r.frames.iter().map(|f| f.compute_s).collect();
        // Batch k gets its own operator seconds plus deser pro rata by
        // bytes; the tail lands on the last batch frame.
        assert_eq!(compute, vec![0.0, 0.5 + 1.0, 0.25 + 2.0 + 4.0, 0.0]);

        // Counts that do not line up lump onto the last batch frame, and a
        // split that produced no frame at all still gets one to bill.
        let mut lumped = SplitReport::monolithic(ExecStats::default(), 0, 1, 1.0);
        lumped.fold_compute(&[0.5, 0.25, 0.125], 0.0);
        assert_eq!(lumped.frames[0].compute_s, 0.875 + 1.0);
        let mut empty = SplitReport::default();
        empty.fold_compute(&[], 2.0);
        assert_eq!(empty.frames.len(), 1);
        assert_eq!(empty.frames[0].compute_s, 2.0);
    }

    #[test]
    fn input_chunks_expand_into_overlapping_input_slices() {
        // One frame whose scan covers 4 row groups: 4 ms of disk, 8 ms of
        // scan. Indivisible, the scan waits for the whole read (12 ms).
        // Sliced, reads pipeline into scans on the two storage cores: the
        // serial disk hands over a slice every 1 ms and each core scans a
        // slice in 2 ms, so the last scan ends at 4 + 2 = 6 ms.
        let one = |chunks| SplitReport {
            network_requests: 1,
            frames: vec![frame(0, 4_000_000, 0.0, 0.008, 0.0, true, chunks)],
            ..Default::default()
        };
        let whole = split_phase(&[one(1)], &cluster());
        let sliced = split_phase(&[one(4)], &cluster());
        assert!(close(whole.overlapped_s, 0.012), "{}", whole.overlapped_s);
        assert!(close(sliced.overlapped_s, 0.006), "{}", sliced.overlapped_s);
        // k input slices + one output item: the disk saw k reads, and the
        // output (the only batch item) never finishes before its own
        // split's full disk read.
        assert_eq!(sliced.stage_busy[0].intervals.len(), 4);
        assert_eq!(sliced.frames, 1);
        assert!(sliced.time_to_first_batch_s >= 0.004);
        assert_eq!(sliced.time_to_first_batch_s, sliced.split_done_s[0]);
        // Slicing moves no work: the scan stage is busy 8 ms either way.
        for p in [&whole, &sliced] {
            let scan: f64 = p.stage_busy[2].intervals.iter().map(|(s, e)| e - s).sum();
            assert!(close(scan, 0.008), "{scan}");
        }
    }

    #[test]
    fn request_latency_and_request_bytes_ride_the_first_frame_only() {
        let mut c = cluster();
        c.network.latency_s = 0.5;
        // 1000 B/frame at 1 GB/s = 1 µs each; 3000 unframed request bytes.
        let r = SplitReport {
            network_bytes: 2_000 + 3_000,
            network_requests: 2,
            frames: vec![
                frame(1_000, 0, 0.0, 0.0, 0.0, true, 1),
                frame(1_000, 0, 0.0, 0.0, 0.0, true, 1),
            ],
            ..Default::default()
        };
        let p = split_phase(&[r], &c);
        let link = &p.stage_busy[4];
        assert_eq!(link.resource, "link");
        assert_eq!(link.intervals.len(), 2);
        let first = link.intervals[0].1 - link.intervals[0].0;
        let second = link.intervals[1].1 - link.intervals[1].0;
        assert!(close(first, 2.0 * 0.5 + 3e-6 + 1e-6), "{first}");
        assert!(close(second, 1e-6), "{second}");
        assert_eq!(p.moved_bytes, 5_000);
        assert_eq!(p.moved_requests, 2);
    }

    #[test]
    fn frames_interleave_round_robin_across_splits() {
        // Two splits, two 1-second transfers each, one link. Round-robin
        // order is A0 B0 A1 B1, so both first frames are through by t = 2
        // and split A finishes at 3; split-major order (A0 A1 B0 B1) would
        // finish A at 2 and not start B until then.
        let split = || SplitReport {
            network_bytes: 2_000_000_000,
            frames: vec![
                frame(1_000_000_000, 0, 0.0, 0.0, 0.0, true, 1),
                frame(1_000_000_000, 0, 0.0, 0.0, 0.0, true, 1),
            ],
            ..Default::default()
        };
        let p = split_phase(&[split(), split()], &cluster());
        let link = &p.stage_busy[4].intervals;
        assert_eq!(link.len(), 4);
        for (k, &(start, end)) in link.iter().enumerate() {
            assert!(close(start, k as f64), "{start}");
            assert!(close(end, k as f64 + 1.0), "{end}");
        }
        assert!(close(p.split_done_s[0], 3.0) && close(p.split_done_s[1], 4.0));
        assert!(close(p.time_to_first_batch_s, 1.0));
        assert!(close(p.overlapped_s, 4.0));
        assert_eq!(p.frames, 4);
    }

    #[test]
    fn phase_shares_sum_to_the_makespan_and_follow_the_stage_table() {
        let p = split_phase(&golden_reports(), &ClusterSpec::paper_testbed());
        let phases: Vec<Phase> = p.phase_shares.iter().map(|(ph, _)| *ph).collect();
        assert_eq!(
            phases,
            vec![
                Phase::StorageDisk,
                Phase::StorageDecompress,
                Phase::StorageCpu,
                Phase::FrontendCpu,
                Phase::NetworkTransfer,
                Phase::ComputeCpu,
            ]
        );
        let sum: f64 = p.phase_shares.iter().map(|(_, s)| s).sum();
        assert!((sum - p.overlapped_s).abs() <= f64::EPSILON * p.overlapped_s);
        // Decompress and scan run on the same cores: one utilization
        // timeline, five resources in all.
        let profile = p.profile(10.0);
        let names: Vec<&str> = profile
            .timelines
            .iter()
            .map(|t| t.resource.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "storage-disk",
                "storage-cores",
                "frontend-cores",
                "link",
                "compute-cores"
            ]
        );
        assert_eq!(
            (profile.start_s, profile.end_s),
            (10.0, 10.0 + p.overlapped_s)
        );
        // Nothing ran: nothing to apportion, nothing to draw.
        let idle = split_phase(&[], &ClusterSpec::paper_testbed());
        assert!(idle.phase_shares.is_empty());
        assert_eq!(idle.overlapped_s, 0.0);
        assert_eq!(idle.time_to_first_batch_s, 0.0);
    }

    /// Three splits covering every assembly path: a streamed scan (schema,
    /// two batches — one spanning 3 row groups — trailer, unframed request
    /// bytes), a monolithic fetch whose batch count does not match its one
    /// frame, and an aggregation-pushdown split with a 4-way input.
    fn golden_reports() -> Vec<SplitReport> {
        let mut streamed = SplitReport {
            stats: ExecStats {
                disk_bytes: 60_000,
                storage_decompress_s: 2.2e-4,
                storage_cpu_s: 4.7e-4,
                frontend_cpu_s: 3.8e-5,
                ..Default::default()
            },
            network_bytes: 120 + 65_536 + 32_768 + 180 + 210,
            network_requests: 1,
            compute_deser_s: 4.0e-5,
            frames: vec![
                frame(120, 0, 0.0, 0.0, 2.0e-6, false, 0),
                frame(65_536, 40_000, 1.5e-4, 3.1e-4, 2.2e-5, true, 1),
                frame(32_768, 20_000, 0.7e-4, 1.6e-4, 1.1e-5, true, 3),
                frame(180, 0, 0.0, 0.0, 3.0e-6, false, 0),
            ],
            peak_buffered_bytes: 98_424,
        };
        streamed.fold_compute(&[1.0e-4, 0.6e-4], 2.5e-5);

        let mut monolithic = SplitReport::monolithic(
            ExecStats {
                storage_cpu_s: 2.0e-4,
                disk_bytes: 1_000_000,
                ..Default::default()
            },
            1_000_000,
            1,
            8.0e-4,
        );
        monolithic.fold_compute(&[3.0e-4, 1.0e-4], 0.0);

        let mut aggregated = SplitReport {
            stats: ExecStats {
                disk_bytes: 300_000,
                storage_decompress_s: 9.0e-4,
                storage_cpu_s: 2.4e-3,
                frontend_cpu_s: 2.1e-6,
                ..Default::default()
            },
            network_bytes: 100 + 512 + 150 + 300,
            network_requests: 1,
            compute_deser_s: 1.0e-6,
            frames: vec![
                frame(100, 0, 0.0, 0.0, 0.6e-6, false, 0),
                frame(512, 300_000, 9.0e-4, 2.4e-3, 1.0e-6, true, 4),
                frame(150, 0, 0.0, 0.0, 0.5e-6, false, 0),
            ],
            peak_buffered_bytes: 762,
        };
        aggregated.fold_compute(&[2.0e-6], 0.0);
        vec![streamed, monolithic, aggregated]
    }

    /// Bit patterns printed by the composition while it still lived inline
    /// in `dsq::exec::execute_plan` (commit f924b10, same inputs, paper
    /// testbed). Any reordering of a floating-point operation shows here
    /// before it shows in `results/*.txt`.
    #[test]
    fn golden_bits_match_the_inline_composition() {
        let reports = golden_reports();
        let compute: Vec<Vec<u64>> = reports
            .iter()
            .map(|r| r.frames.iter().map(|f| f.compute_s.to_bits()).collect())
            .collect();
        assert_eq!(
            compute,
            vec![
                vec![0, 0x3f209a3a61b40869, 0x3f19c709cd978652, 0],
                vec![0x3f53a92a30553262],
                vec![0, 0x3ec92a737110e454, 0],
            ]
        );
        let p = split_phase(&reports, &ClusterSpec::paper_testbed());
        assert_eq!(p.overlapped_s.to_bits(), 0x3f6ff718954b5ad1);
        assert_eq!(p.additive_s.to_bits(), 0x3f8089229e001711);
        assert_eq!(p.time_to_first_batch_s.to_bits(), 0x3f66d97e80ffd623);
        let shares: Vec<u64> = p.phase_shares.iter().map(|(_, s)| s.to_bits()).collect();
        assert_eq!(
            shares,
            vec![
                0x3f47a436ce579b26,
                0x3f3f26ae9d706c0b,
                0x3f5558cb162c77c1,
                0x3ef1d85a85582c57,
                0x3f49889f19a23de8,
                0x3f43dbdc1df7ab48,
            ]
        );
        let done: Vec<u64> = p.split_done_s.iter().map(|s| s.to_bits()).collect();
        assert_eq!(
            done,
            vec![0x3f686f5797270d97, 0x3f6ff718954b5ad1, 0x3f66d97e80ffd623]
        );
        assert_eq!(p.frames, 8);
        assert_eq!(p.peak_buffered_bytes, 98_424 + 1_000_000 + 762);
    }
}
