//! `cache` — byte-budgeted LRU primitives for the near-storage caching
//! tier (no dependencies beyond the workspace's `sync` lock auditor).
//!
//! OCS nodes pay disk + decompress + decode + kernel work on every scan,
//! even when the same objects and the same pushed subplans run repeatedly
//! (the hot-set pattern of a production fleet; OASIS makes the same
//! observation for offloaded scientific queries). This crate supplies the
//! shared machinery for the two cache tiers the `ocs` crate layers on top:
//!
//! * [`ByteLru`] — a strict-budget LRU keyed by an arbitrary hashable key,
//!   charging each entry a caller-declared byte weight. Eviction order is
//!   deterministic (a monotonic recency tick, ties impossible), so cache
//!   behaviour is reproducible under the simulated clock.
//! * [`SharedByteLru`] — the `Arc<DebugMutex<_>>` wrapper storage nodes
//!   hold (its lock's rank is audited in debug builds).
//! * [`fnv1a64`] — the stable FNV-1a fingerprint used for plan keys and
//!   affinity routing (same constants as the frontend's shard router).
//!
//! The crate is deliberately ignorant of *what* it caches: decoded arrays,
//! serialized result frames and their cost annotations are all just `V`.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use sync::DebugMutex;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Stable FNV-1a 64-bit hash of a byte string. Used for Substrait plan
/// fingerprints and the frontend's cache-affinity routing; must never
/// change across versions (fingerprints are compared across processes).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Monotonic counters describing a cache's lifetime behaviour. Snapshot
/// via [`ByteLru::stats`]; deltas between snapshots are per-request stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries evicted to make room under the byte budget.
    pub evictions: u64,
    /// Entries dropped by [`ByteLru::retain`] (writer invalidation).
    pub invalidations: u64,
    /// Inserts rejected because a single entry exceeded the whole budget
    /// (or the cache is disabled with a zero budget).
    pub rejected: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: u64,
    tick: u64,
}

/// A byte-budgeted LRU map. `get` refreshes recency; `insert` evicts
/// least-recently-used entries until the new entry fits. An entry larger
/// than the entire budget is rejected rather than flushing the cache.
///
/// Recency is a monotonically increasing tick per touch, indexed through a
/// `BTreeMap<tick, key>`, which makes eviction order total and
/// deterministic — no wall-clock, no hash-iteration order.
#[derive(Debug)]
pub struct ByteLru<K, V> {
    map: HashMap<K, Slot<V>>,
    recency: BTreeMap<u64, K>,
    tick: u64,
    budget: u64,
    bytes: u64,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V: Clone> ByteLru<K, V> {
    /// New cache holding at most `budget` bytes. A zero budget disables
    /// the cache (every insert is rejected, every get misses).
    pub fn new(budget: u64) -> Self {
        ByteLru {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            budget,
            bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// Whether the cache can ever hold anything.
    pub fn is_enabled(&self) -> bool {
        self.budget > 0
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently charged. Invariant: `bytes() <= budget()`.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let tick = self.next_tick();
        match self.map.get_mut(key) {
            Some(slot) => {
                self.recency.remove(&slot.tick);
                slot.tick = tick;
                self.recency.insert(tick, key.clone());
                self.stats.hits += 1;
                Some(slot.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Byte weight of `key`'s entry without touching recency (miss/hit
    /// counters untouched too — this is an introspection helper).
    pub fn weight_of(&self, key: &K) -> Option<u64> {
        self.map.get(key).map(|s| s.bytes)
    }

    /// Insert `value` under `key`, charged `bytes`. Replaces any existing
    /// entry for `key`. Evicts LRU entries until the budget holds; returns
    /// `false` (and caches nothing) if `bytes` alone exceeds the budget.
    pub fn insert(&mut self, key: K, value: V, bytes: u64) -> bool {
        if bytes > self.budget {
            self.stats.rejected += 1;
            return false;
        }
        if let Some(old) = self.map.remove(&key) {
            self.recency.remove(&old.tick);
            self.bytes -= old.bytes;
        }
        while self.bytes + bytes > self.budget {
            if !self.evict_lru() {
                break;
            }
        }
        let tick = self.next_tick();
        self.recency.insert(tick, key.clone());
        self.map.insert(key, Slot { value, bytes, tick });
        self.bytes += bytes;
        self.stats.insertions += 1;
        true
    }

    fn evict_lru(&mut self) -> bool {
        let Some((_, key)) = self.recency.pop_first() else {
            return false;
        };
        if let Some(slot) = self.map.remove(&key) {
            self.bytes -= slot.bytes;
            self.stats.evictions += 1;
        }
        true
    }

    /// Drop every entry for which `keep` returns false (writer-side
    /// invalidation: "drop everything for object X").
    pub fn retain<F: FnMut(&K) -> bool>(&mut self, mut keep: F) {
        let dead: Vec<u64> = self
            .map
            .iter()
            .filter(|(k, _)| !keep(k))
            .map(|(_, slot)| slot.tick)
            .collect();
        for tick in dead {
            if let Some(key) = self.recency.remove(&tick) {
                if let Some(slot) = self.map.remove(&key) {
                    self.bytes -= slot.bytes;
                    self.stats.invalidations += 1;
                }
            }
        }
    }

    /// Drop everything (budget and counters survive).
    pub fn clear(&mut self) {
        let n = self.map.len() as u64;
        self.map.clear();
        self.recency.clear();
        self.bytes = 0;
        self.stats.invalidations += n;
    }
}

/// Thread-safe handle to a [`ByteLru`], cloned freely across storage-node
/// workers. All methods take `&self` and hold the internal mutex for one
/// call at most (never across user callbacks other than [`retain`]'s
/// predicate, which must therefore stay lock-free). The mutex is a
/// [`sync::DebugMutex`], so debug builds audit every acquisition against
/// the lock's rank.
///
/// [`retain`]: SharedByteLru::retain
#[derive(Debug)]
pub struct SharedByteLru<K, V> {
    inner: Arc<DebugMutex<ByteLru<K, V>>>,
}

impl<K, V> Clone for SharedByteLru<K, V> {
    fn clone(&self) -> Self {
        SharedByteLru {
            inner: self.inner.clone(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> SharedByteLru<K, V> {
    /// New shared cache with `budget` bytes (zero disables it), whose lock
    /// has class `class` and rank `rank` (see `LOCK_ORDER.md`).
    pub fn named(budget: u64, class: &str, rank: u32) -> Self {
        SharedByteLru {
            inner: Arc::new(DebugMutex::named(class, rank, ByteLru::new(budget))),
        }
    }

    /// Whether the cache can ever hold anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.lock().is_enabled()
    }

    /// See [`ByteLru::get`].
    pub fn get(&self, key: &K) -> Option<V> {
        self.inner.lock().get(key)
    }

    /// See [`ByteLru::insert`].
    pub fn insert(&self, key: K, value: V, bytes: u64) -> bool {
        self.inner.lock().insert(key, value, bytes)
    }

    /// See [`ByteLru::retain`].
    pub fn retain<F: FnMut(&K) -> bool>(&self, keep: F) {
        self.inner.lock().retain(keep)
    }

    /// See [`ByteLru::clear`].
    pub fn clear(&self) {
        self.inner.lock().clear()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }

    /// Bytes currently charged.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().bytes()
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.inner.lock().budget()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hit_miss_and_recency() {
        let mut c: ByteLru<u32, String> = ByteLru::new(100);
        assert!(c.get(&1).is_none());
        assert!(c.insert(1, "one".into(), 40));
        assert!(c.insert(2, "two".into(), 40));
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        // 2 is now LRU; inserting a 40-byte entry evicts it, not 1.
        assert!(c.insert(3, "three".into(), 40));
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        assert_eq!(c.get(&3).as_deref(), Some("three"));
        let s = c.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 1);
        assert!(c.bytes() <= c.budget());
    }

    #[test]
    fn oversized_entries_are_rejected_not_flushed() {
        let mut c: ByteLru<u32, Vec<u8>> = ByteLru::new(10);
        assert!(c.insert(1, vec![0; 4], 4));
        assert!(!c.insert(2, vec![0; 64], 64));
        assert_eq!(c.len(), 1, "rejection must not disturb live entries");
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn zero_budget_disables() {
        let mut c: ByteLru<u32, u32> = ByteLru::new(0);
        assert!(!c.is_enabled());
        assert!(!c.insert(1, 1, 1));
        assert!(c.get(&1).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn replacing_a_key_recharges_bytes() {
        let mut c: ByteLru<u32, u32> = ByteLru::new(100);
        assert!(c.insert(1, 10, 60));
        assert!(c.insert(1, 11, 30));
        assert_eq!(c.bytes(), 30);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn retain_invalidates_matching_keys() {
        let mut c: ByteLru<(u32, u32), u32> = ByteLru::new(1000);
        for obj in 0..4u32 {
            for rg in 0..4u32 {
                c.insert((obj, rg), obj * 10 + rg, 10);
            }
        }
        c.retain(|&(obj, _)| obj != 2);
        assert_eq!(c.len(), 12);
        assert_eq!(c.bytes(), 120);
        assert!(c.get(&(2, 0)).is_none());
        assert_eq!(c.get(&(1, 3)), Some(13));
        assert_eq!(c.stats().invalidations, 4);
    }

    #[test]
    fn shared_handle_clones_see_one_cache() {
        let a: SharedByteLru<u32, u32> = SharedByteLru::named(100, "test.shared", 10);
        let b = a.clone();
        a.insert(7, 49, 8);
        assert_eq!(b.get(&7), Some(49));
        b.clear();
        assert!(a.is_empty());
    }

    /// The deterministic cache-churn stress test the CI job runs:
    /// randomized insert/evict/invalidate traffic under a tight byte
    /// budget, asserting (a) the budget is never exceeded, (b) a hit
    /// always returns exactly what a cold recomputation would, and
    /// (c) the byte ledger matches a shadow model.
    #[test]
    fn churn_stress_budget_and_coherence() {
        // The "ground truth" a cold path would recompute: value derived
        // purely from the key, plus a per-key version bumped on writes.
        fn recompute(key: (u32, u32), version: u64) -> u64 {
            (key.0 as u64) << 40 | (key.1 as u64) << 20 | version
        }

        let mut rng = ChaCha8Rng::seed_from_u64(0x0c5_cafe);
        let budget = 2048u64;
        let mut cache: ByteLru<(u32, u32, u64), u64> = ByteLru::new(budget);
        let mut versions: std::collections::HashMap<u32, u64> = Default::default();
        let mut shadow_bytes: std::collections::HashMap<(u32, u32, u64), u64> = Default::default();

        for step in 0..20_000u32 {
            let obj = rng.gen_range(0u32..4);
            let rg = rng.gen_range(0u32..8);
            let version = *versions.entry(obj).or_insert(0);
            let key = (obj, rg, version);
            let roll: f64 = rng.gen_range(0.0..1.0);
            if roll < 0.80 {
                // Read path: hit must equal cold recomputation.
                match cache.get(&key) {
                    Some(v) => {
                        assert_eq!(v, recompute((obj, rg), version), "stale hit at step {step}")
                    }
                    None => {
                        let v = recompute((obj, rg), version);
                        let bytes = rng.gen_range(64u64..=256);
                        if cache.insert(key, v, bytes) {
                            shadow_bytes.insert(key, bytes);
                        }
                    }
                }
            } else if roll < 0.92 {
                // Write path: bump the object version and invalidate.
                let next = version + 1;
                versions.insert(obj, next);
                cache.retain(|&(o, _, _)| o != obj);
                shadow_bytes.retain(|&(o, _, _), _| o != obj);
            } else {
                // Churn an oversized insert: must be rejected, not flush.
                let before = cache.len();
                assert!(!cache.insert(key, 0, budget + 1));
                assert_eq!(cache.len(), before);
            }
            assert!(
                cache.bytes() <= budget,
                "budget exceeded at step {step}: {} > {budget}",
                cache.bytes()
            );
            // Shadow model only tracks inserts/invalidations, not
            // evictions — so it upper-bounds the live set.
            assert!(cache.len() <= shadow_bytes.len());
        }
        let s = cache.stats();
        assert!(s.hits > 1000, "stress should exercise hits: {s:?}");
        assert!(s.evictions > 100, "tight budget should evict: {s:?}");
        assert!(s.invalidations > 100, "writes should invalidate: {s:?}");
        assert!(s.rejected > 100, "oversized inserts counted: {s:?}");
    }

    /// Eviction order is fully deterministic: two identical traffic
    /// sequences leave identical cache states.
    #[test]
    fn churn_is_deterministic() {
        type LiveEntries = Vec<((u32, u32), u64)>;
        fn run(seed: u64) -> (LiveEntries, CacheStats) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut c: ByteLru<(u32, u32), u64> = ByteLru::new(2048);
            for _ in 0..5000 {
                let key = (rng.gen_range(0u32..6), rng.gen_range(0u32..12));
                if rng.gen_bool(0.5) {
                    c.get(&key);
                } else {
                    let bytes = rng.gen_range(32u64..=512);
                    c.insert(key, bytes, bytes);
                }
            }
            let mut live: LiveEntries = Vec::new();
            for obj in 0..6 {
                for rg in 0..12 {
                    if let Some(w) = c.weight_of(&(obj, rg)) {
                        live.push(((obj, rg), w));
                    }
                }
            }
            (live, c.stats())
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).1, run(100).1);
    }
}
