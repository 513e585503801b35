//! The near-storage cache tiers a [`crate::StorageNode`] holds.
//!
//! Two tiers, both byte-budgeted LRUs from the `cache` crate:
//!
//! * **decoded row-group cache** — keyed by
//!   `(bucket, key, object version, row group, file column)`, holding the
//!   decoded [`Array`] of one column chunk. A warm scan skips the disk
//!   read, the decompression and the decode work for that chunk, and the
//!   cost ledger skips the corresponding lanes so `simulated_seconds`
//!   reflects the hit honestly.
//! * **pushdown-result cache** — keyed by the object identity plus a
//!   stable FNV-1a fingerprint of the canonical Substrait encoding of the
//!   verified plan. A hit replays the whole response (batches + the byte
//!   accounting of the cold run) without touching the executor.
//!
//! Invalidation is by construction: the object's write version (bumped by
//! every `objstore::put_object`) is part of both keys, so a write can
//! never be served stale data. [`NodeCaches::observe_version`]
//! additionally purges superseded entries eagerly so dead versions don't
//! squat in the budget until eviction reaches them.

use std::collections::HashMap;
use std::sync::Arc;

use cache::{CacheStats, SharedByteLru};
use columnar::{Array, RecordBatch};
use sync::DebugMutex;

/// Key of one decoded column chunk.
pub type ChunkKey = (String, String, u64, usize, usize);

/// Key of one cached pushdown result: object identity + plan fingerprint.
pub type ResultKey = (String, String, u64, u64);

/// A cached pushdown result: the cold run's batches plus enough of its
/// byte accounting to report what a hit avoided.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Result batches of the cold execution.
    pub batches: Vec<RecordBatch>,
    /// Disk + decode bytes the cold run paid (what a hit avoids).
    pub bytes_avoided: u64,
}

/// The identity of the object a request executes against, threaded into
/// the executor so chunk-cache keys can be formed without re-lookups.
#[derive(Debug, Clone)]
pub struct ObjectId {
    /// Bucket name.
    pub bucket: String,
    /// Object key.
    pub key: String,
    /// Write version at request time.
    pub version: u64,
}

/// Both cache tiers of one storage node. Cloning shares the underlying
/// caches (handles, not copies).
#[derive(Debug, Clone)]
pub struct NodeCaches {
    /// Decoded row-group (column chunk) cache.
    pub row_group: SharedByteLru<ChunkKey, Arc<Array>>,
    /// Pushdown-result cache.
    pub result: SharedByteLru<ResultKey, Arc<CachedResult>>,
    /// Last write version seen per object, to purge superseded entries.
    seen: Arc<DebugMutex<HashMap<(String, String), u64>>>,
}

impl NodeCaches {
    /// Caches with the given byte budgets (zero disables a tier).
    pub fn new(row_group_bytes: u64, result_bytes: u64) -> NodeCaches {
        NodeCaches {
            row_group: SharedByteLru::named(row_group_bytes, "ocs.cache.row_group", 80),
            result: SharedByteLru::named(result_bytes, "ocs.cache.result", 90),
            seen: Arc::new(DebugMutex::named("ocs.cache.seen", 60, HashMap::new())),
        }
    }

    /// Both tiers off — the cold-only configuration.
    pub fn disabled() -> NodeCaches {
        NodeCaches::new(0, 0)
    }

    /// Whether either tier can hold anything.
    pub fn is_enabled(&self) -> bool {
        self.row_group.is_enabled() || self.result.is_enabled()
    }

    /// Note that `bucket`/`key` is now at `version`; entries cached for
    /// any other version of the object are purged (a write-through
    /// invalidation — version keys already guarantee they could never
    /// hit, this just frees their budget immediately).
    pub fn observe_version(&self, bucket: &str, key: &str, version: u64) {
        let mut seen = self.seen.lock();
        let slot = seen
            .entry((bucket.to_string(), key.to_string()))
            .or_insert(version);
        if *slot == version {
            return;
        }
        *slot = version;
        drop(seen);
        let rg_before = self.row_group.len();
        let result_before = self.result.len();
        self.row_group
            .retain(|(b, k, v, _, _)| !(b == bucket && k == key && *v != version));
        self.result
            .retain(|(b, k, v, _)| !(b == bucket && k == key && *v != version));
        let rg_purged = rg_before.saturating_sub(self.row_group.len()) as u64;
        let result_purged = result_before.saturating_sub(self.result.len()) as u64;
        if rg_purged + result_purged > 0 {
            obs::flight().record(
                obs::FlightKind::VersionPurge,
                version,
                rg_purged,
                result_purged,
            );
        }
    }

    /// Combined counter snapshot (row-group tier, result tier).
    pub fn stats(&self) -> (CacheStats, CacheStats) {
        (self.row_group.stats(), self.result.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_version_purges_superseded_entries() {
        let caches = NodeCaches::new(1 << 20, 1 << 20);
        let k1: ChunkKey = ("lake".into(), "t/0".into(), 1, 0, 0);
        let k2: ChunkKey = ("lake".into(), "t/1".into(), 1, 0, 0);
        caches
            .row_group
            .insert(k1.clone(), Arc::new(Array::from_i64(vec![1])), 64);
        caches
            .row_group
            .insert(k2.clone(), Arc::new(Array::from_i64(vec![2])), 64);
        caches.result.insert(
            ("lake".into(), "t/0".into(), 1, 99),
            Arc::new(CachedResult {
                batches: vec![],
                bytes_avoided: 0,
            }),
            64,
        );
        caches.observe_version("lake", "t/0", 1);
        assert_eq!(caches.row_group.len(), 2, "same version purges nothing");
        caches.observe_version("lake", "t/0", 7);
        assert!(caches.row_group.get(&k1).is_none(), "stale version purged");
        assert!(
            caches.row_group.get(&k2).is_some(),
            "other object untouched"
        );
        assert!(caches.result.is_empty(), "stale result purged");
    }

    #[test]
    fn disabled_caches_reject_everything() {
        let caches = NodeCaches::disabled();
        assert!(!caches.is_enabled());
        assert!(!caches.row_group.insert(
            ("b".into(), "k".into(), 1, 0, 0),
            Arc::new(Array::from_i64(vec![1])),
            8
        ));
    }
}
