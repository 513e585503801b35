//! Shared execution-statistics vocabulary of the OCS wire protocol.
//!
//! One [`ExecStats`] struct — produced by the storage side, carried across
//! the boundary in the stream's *trailer frame*, and handed to the engine
//! inside the split's [`SplitReport`](crate::SplitReport) — so a new
//! counter is added in exactly one place.
//!
//! [`FrameTiming`] is the per-frame companion: the simulated per-stage
//! seconds of one wire frame, which [`split_phase`](crate::split_phase)
//! composes into an overlapped makespan.

/// Wire-level execution statistics for one request (or, summed, for one
/// query). Produced by the storage/frontend side, shipped in the stream
/// trailer, merged per split by the engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Core-seconds of operator work on the storage node.
    pub storage_cpu_s: f64,
    /// Core-seconds of decompression on the storage node.
    pub storage_decompress_s: f64,
    /// Core-seconds on the frontend node (parse, relay, serialize).
    pub frontend_cpu_s: f64,
    /// Compressed bytes read from the storage node's disk.
    pub disk_bytes: u64,
    /// Rows scanned in storage (after row-group pruning).
    pub rows_scanned: u64,
    /// Rows returned across the wire.
    pub rows_returned: u64,
    /// Row groups the late-materialized scan skipped after masking.
    pub row_groups_skipped: u64,
    /// Encoded bytes the scan never had to decode.
    pub decoded_bytes_avoided: u64,
    /// Row-group chunk fetches served from the decoded row-group cache.
    pub rg_cache_hits: u64,
    /// Row-group chunk fetches the decoded row-group cache missed, which
    /// went to disk. Zero when the tier is off: an uncached read is not a
    /// miss.
    pub rg_cache_misses: u64,
    /// Compressed + decode bytes the caches kept off the disk/decode path
    /// (the "bytes avoided" EXPLAIN ANALYZE reports per scan).
    pub cache_bytes_avoided: u64,
    /// Whole pushed subplans answered from the result cache.
    pub result_cache_hits: u64,
    /// Storage-executor span records, on the producer's local clock
    /// (t = 0 at request start). The engine re-parents ("grafts") them
    /// under the query's split span on receipt.
    pub spans: Vec<obs::SpanRec>,
}

/// Version tag leading every encoded [`ExecStats`] payload. There is one
/// producer and it writes this version; nothing else decodes.
const STATS_VERSION: u32 = 3;
/// Encoded size of the counter block: version + 3 × f64 + 9 × u64. The
/// span records follow it.
const STATS_LEN: usize = 4 + 3 * 8 + 9 * 8;

impl ExecStats {
    /// Component-wise accumulate (for summing per-request stats into
    /// per-split or per-query totals).
    pub fn merge(&mut self, other: &ExecStats) {
        self.storage_cpu_s += other.storage_cpu_s;
        self.storage_decompress_s += other.storage_decompress_s;
        self.frontend_cpu_s += other.frontend_cpu_s;
        self.disk_bytes += other.disk_bytes;
        self.rows_scanned += other.rows_scanned;
        self.rows_returned += other.rows_returned;
        self.row_groups_skipped += other.row_groups_skipped;
        self.decoded_bytes_avoided += other.decoded_bytes_avoided;
        self.rg_cache_hits += other.rg_cache_hits;
        self.rg_cache_misses += other.rg_cache_misses;
        self.cache_bytes_avoided += other.cache_bytes_avoided;
        self.result_cache_hits += other.result_cache_hits;
        self.spans.extend(other.spans.iter().cloned());
    }

    /// Fixed-layout little-endian encoding (the trailer-frame payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(STATS_LEN);
        out.extend_from_slice(&STATS_VERSION.to_le_bytes());
        for f in [
            self.storage_cpu_s,
            self.storage_decompress_s,
            self.frontend_cpu_s,
        ] {
            out.extend_from_slice(&f.to_le_bytes());
        }
        for u in [
            self.disk_bytes,
            self.rows_scanned,
            self.rows_returned,
            self.row_groups_skipped,
            self.decoded_bytes_avoided,
            self.rg_cache_hits,
            self.rg_cache_misses,
            self.cache_bytes_avoided,
            self.result_cache_hits,
        ] {
            out.extend_from_slice(&u.to_le_bytes());
        }
        out.extend_from_slice(&obs::encode_spans(&self.spans));
        out
    }

    /// Decode an [`ExecStats::encode`] payload. Returns a structured
    /// message (never panics) on truncation, trailing bytes or any version
    /// but the current one.
    pub fn decode(bytes: &[u8]) -> Result<ExecStats, String> {
        if bytes.len() < STATS_LEN {
            return Err(format!(
                "exec-stats payload is {} bytes, expected at least {STATS_LEN}",
                bytes.len()
            ));
        }
        let mut v4 = [0u8; 4];
        v4.copy_from_slice(&bytes[..4]);
        let version = u32::from_le_bytes(v4);
        if version != STATS_VERSION {
            return Err(format!(
                "exec-stats version {version} (expected {STATS_VERSION})"
            ));
        }
        let mut pos = 4usize;
        let mut take8 = || -> [u8; 8] {
            let mut a = [0u8; 8];
            a.copy_from_slice(&bytes[pos..pos + 8]);
            pos += 8;
            a
        };
        let mut span_pos = STATS_LEN;
        let stats = ExecStats {
            storage_cpu_s: f64::from_le_bytes(take8()),
            storage_decompress_s: f64::from_le_bytes(take8()),
            frontend_cpu_s: f64::from_le_bytes(take8()),
            disk_bytes: u64::from_le_bytes(take8()),
            rows_scanned: u64::from_le_bytes(take8()),
            rows_returned: u64::from_le_bytes(take8()),
            row_groups_skipped: u64::from_le_bytes(take8()),
            decoded_bytes_avoided: u64::from_le_bytes(take8()),
            rg_cache_hits: u64::from_le_bytes(take8()),
            rg_cache_misses: u64::from_le_bytes(take8()),
            cache_bytes_avoided: u64::from_le_bytes(take8()),
            result_cache_hits: u64::from_le_bytes(take8()),
            spans: obs::decode_spans(bytes, &mut span_pos)?,
        };
        if span_pos != bytes.len() {
            return Err(format!(
                "exec-stats payload has {} trailing bytes",
                bytes.len() - span_pos
            ));
        }
        Ok(stats)
    }
}

/// Simulated per-stage cost of one wire frame: the event record a
/// streaming response carries alongside each frame so the consumer can
/// replay the frame's life through the pipeline stages (disk → decompress
/// → storage CPU → frontend → network → compute).
///
/// The producer fills the storage/frontend fields; the engine fills
/// `compute_s` (deserialization plus the operator work the batch triggered)
/// and derives disk/network *seconds* from the byte counts and its own
/// device models.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameTiming {
    /// Encoded frame bytes on the wire (response direction).
    pub bytes: u64,
    /// Compressed disk bytes attributed to producing this frame.
    pub disk_bytes: u64,
    /// Storage decompression seconds attributed to this frame.
    pub decompress_s: f64,
    /// Storage operator seconds attributed to this frame.
    pub storage_s: f64,
    /// Frontend relay/serialize seconds attributed to this frame.
    pub frontend_s: f64,
    /// Engine-side seconds (deserialize + operator work); filled by the
    /// consumer.
    pub compute_s: f64,
    /// True for batch frames (schema/trailer frames carry no rows).
    pub is_batch: bool,
    /// Independent input slices (scanned row groups) behind this frame.
    /// The storage executor reads and scans row groups on independent
    /// cores even when the operator tree collapses them into one output
    /// batch (aggregation pushdown), so a scheduler replaying this frame
    /// may overlap and parallelize its disk/decompress/scan cost at this
    /// granularity. `0` or `1` means the input side is indivisible.
    pub input_chunks: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_roundtrip() {
        let s = ExecStats {
            storage_cpu_s: 1.25,
            storage_decompress_s: 0.5,
            frontend_cpu_s: 0.0625,
            disk_bytes: 1 << 33,
            rows_scanned: 10_000,
            rows_returned: 7,
            row_groups_skipped: 3,
            decoded_bytes_avoided: 4096,
            rg_cache_hits: 6,
            rg_cache_misses: 2,
            cache_bytes_avoided: 1 << 20,
            result_cache_hits: 1,
            spans: vec![
                obs::SpanRec {
                    id: 1,
                    parent: 0,
                    name: "storage.execute".into(),
                    start_s: 0.0,
                    end_s: 0.25,
                    wall_s: 0.0,
                    attrs: vec![("cache_hit".to_string(), obs::AttrValue::Str("none".into()))],
                },
                obs::SpanRec {
                    id: 2,
                    parent: 1,
                    name: "storage.scan".into(),
                    start_s: 0.05,
                    end_s: 0.25,
                    wall_s: 0.001,
                    attrs: vec![("rows".to_string(), obs::AttrValue::U64(10_000))],
                },
            ],
        };
        let enc = s.encode();
        assert!(enc.len() > STATS_LEN);
        assert_eq!(ExecStats::decode(&enc).unwrap(), s);
    }

    #[test]
    fn decode_rejects_truncation_and_bad_version() {
        let enc = ExecStats::default().encode();
        assert!(ExecStats::decode(&enc[..enc.len() - 1]).is_err());
        assert!(ExecStats::decode(&[]).is_err());
        // A counter block cut short, with a valid version tag.
        assert!(ExecStats::decode(&enc[..STATS_LEN - 8]).is_err());
        let mut trailing = enc.clone();
        trailing.push(0);
        let err = ExecStats::decode(&trailing).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        // One wire version: the retired v1/v2 layouts and anything newer
        // are refused by their tag, not guessed at.
        for version in [0u32, 1, 2, 4, 99] {
            let mut bad = enc.clone();
            bad[..4].copy_from_slice(&version.to_le_bytes());
            let err = ExecStats::decode(&bad).unwrap_err();
            assert!(err.contains(&format!("version {version}")), "{err}");
        }
    }

    #[test]
    fn merge_sums_componentwise() {
        let mut a = ExecStats {
            storage_cpu_s: 1.0,
            disk_bytes: 10,
            rows_returned: 5,
            rg_cache_hits: 1,
            ..Default::default()
        };
        a.merge(&ExecStats {
            storage_cpu_s: 2.0,
            frontend_cpu_s: 0.5,
            disk_bytes: 20,
            rows_scanned: 100,
            rg_cache_hits: 2,
            cache_bytes_avoided: 64,
            result_cache_hits: 1,
            ..Default::default()
        });
        assert_eq!(a.storage_cpu_s, 3.0);
        assert_eq!(a.frontend_cpu_s, 0.5);
        assert_eq!(a.disk_bytes, 30);
        assert_eq!(a.rows_scanned, 100);
        assert_eq!(a.rows_returned, 5);
        assert_eq!(a.rg_cache_hits, 3);
        assert_eq!(a.cache_bytes_avoided, 64);
        assert_eq!(a.result_cache_hits, 1);
    }
}
