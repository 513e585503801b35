//! `objstore` — a flat bucket/object store with an S3-Select-like
//! restricted scan API.
//!
//! Models the role AWS S3 / MinIO play in the paper: objects are opaque
//! byte blobs under `bucket/key`, metadata lives apart from data, readers
//! can fetch whole objects or byte ranges, and [`select()`](fn@select) offers
//! the *limited* in-storage compute conventional object stores have —
//! **column projection and `WHERE` filtering only**. Anything more
//! (aggregation, sort, top-N) is structurally impossible through this API,
//! which is precisely the gap OCS (the `ocs` crate) fills.
//!
//! The store is deliberately ignorant of the cost model: callers receive
//! byte/row accounting in [`SelectStats`] / object sizes and bill the
//! `netsim` ledgers themselves, because *where* the bytes travel (local
//! disk vs network link) depends on who is calling.
//!
//! # Example
//!
//! ```
//! use objstore::ObjectStore;
//!
//! let store = ObjectStore::new();
//! store.create_bucket("datalake").unwrap();
//! store.put_object("datalake", "t/part-0.parq", vec![1, 2, 3].into()).unwrap();
//! assert_eq!(store.get_object("datalake", "t/part-0.parq").unwrap().len(), 3);
//! assert_eq!(store.list("datalake", "t/").unwrap().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod select;

pub use select::{select, SelectRequest, SelectResponse, SelectStats};

use bytes::Bytes;
use std::collections::BTreeMap;
use std::fmt;
use sync::DebugRwLock;

/// Errors from object-store operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Bucket does not exist.
    NoSuchBucket(String),
    /// Object does not exist.
    NoSuchKey(String),
    /// Bucket already exists.
    BucketExists(String),
    /// Byte range outside the object.
    InvalidRange {
        /// Requested start offset.
        start: u64,
        /// Requested end offset (exclusive).
        end: u64,
        /// Object size.
        size: u64,
    },
    /// Select-API failure (format error, unsupported operation, …).
    Select(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            StoreError::NoSuchKey(k) => write!(f, "no such key: {k}"),
            StoreError::BucketExists(b) => write!(f, "bucket already exists: {b}"),
            StoreError::InvalidRange { start, end, size } => {
                write!(
                    f,
                    "invalid range [{start}, {end}) for object of {size} bytes"
                )
            }
            StoreError::Select(m) => write!(f, "select error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Object metadata (the "head" of an object).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Key within its bucket.
    pub key: String,
    /// Size in bytes.
    pub size: u64,
    /// Write version (etag): store-global monotonic counter stamped on
    /// each put, so no two writes — even of different keys, even after a
    /// delete/recreate — ever share a version. Caches key on it to get
    /// invalidation-by-construction.
    pub version: u64,
}

#[derive(Debug, Clone)]
struct Object {
    data: Bytes,
    version: u64,
}

#[derive(Debug, Default)]
struct Bucket {
    objects: BTreeMap<String, Object>,
}

/// The in-memory object store. Share it across threads behind an `Arc`;
/// the internal `RwLock` keeps concurrent readers wait-free against each
/// other (reads vastly dominate in analytics workloads).
#[derive(Debug)]
pub struct ObjectStore {
    buckets: DebugRwLock<BTreeMap<String, Bucket>>,
    /// Source of write versions; see [`ObjectMeta::version`].
    next_version: std::sync::atomic::AtomicU64,
}

impl Default for ObjectStore {
    fn default() -> ObjectStore {
        ObjectStore {
            buckets: DebugRwLock::named("objstore.buckets", 70, BTreeMap::new()),
            next_version: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl ObjectStore {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a bucket.
    pub fn create_bucket(&self, name: &str) -> Result<()> {
        let mut b = self.buckets.write();
        if b.contains_key(name) {
            return Err(StoreError::BucketExists(name.to_string()));
        }
        b.insert(name.to_string(), Bucket::default());
        Ok(())
    }

    /// Create a bucket if missing (idempotent helper for loaders).
    pub fn ensure_bucket(&self, name: &str) {
        self.buckets.write().entry(name.to_string()).or_default();
    }

    /// Store an object (overwrites). Returns the new write version.
    pub fn put_object(&self, bucket: &str, key: &str, data: Bytes) -> Result<u64> {
        let mut b = self.buckets.write();
        let bucket = b
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        // RELAXED: a pure version allocator — versions only need
        // uniqueness/monotonicity of the counter itself; publication of
        // the object happens under the bucket write lock above.
        let version = 1 + self
            .next_version
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        bucket
            .objects
            .insert(key.to_string(), Object { data, version });
        Ok(version)
    }

    /// Fetch a whole object (zero-copy clone of the shared buffer).
    pub fn get_object(&self, bucket: &str, key: &str) -> Result<Bytes> {
        self.get_object_versioned(bucket, key).map(|(data, _)| data)
    }

    /// Fetch a whole object together with its write version, atomically
    /// (the pair a versioned cache must key on).
    pub fn get_object_versioned(&self, bucket: &str, key: &str) -> Result<(Bytes, u64)> {
        let b = self.buckets.read();
        b.get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?
            .objects
            .get(key)
            .map(|o| (o.data.clone(), o.version))
            .ok_or_else(|| StoreError::NoSuchKey(key.to_string()))
    }

    /// Fetch bytes `[start, end)` of an object.
    pub fn get_range(&self, bucket: &str, key: &str, start: u64, end: u64) -> Result<Bytes> {
        let obj = self.get_object(bucket, key)?;
        let size = obj.len() as u64;
        if start > end || end > size {
            return Err(StoreError::InvalidRange { start, end, size });
        }
        Ok(obj.slice(start as usize..end as usize))
    }

    /// Object metadata without the payload.
    pub fn head(&self, bucket: &str, key: &str) -> Result<ObjectMeta> {
        let (obj, version) = self.get_object_versioned(bucket, key)?;
        Ok(ObjectMeta {
            key: key.to_string(),
            size: obj.len() as u64,
            version,
        })
    }

    /// List objects under `prefix`, lexicographically.
    pub fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<ObjectMeta>> {
        let b = self.buckets.read();
        let bucket = b
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        Ok(bucket
            .objects
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| ObjectMeta {
                key: k.clone(),
                size: v.data.len() as u64,
                version: v.version,
            })
            .collect())
    }

    /// Delete one object.
    pub fn delete_object(&self, bucket: &str, key: &str) -> Result<()> {
        let mut b = self.buckets.write();
        let bucket = b
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        bucket
            .objects
            .remove(key)
            .map(|_| ())
            .ok_or_else(|| StoreError::NoSuchKey(key.to_string()))
    }

    /// Delete a bucket and everything in it.
    pub fn delete_bucket(&self, name: &str) -> Result<()> {
        self.buckets
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::NoSuchBucket(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_lifecycle() {
        let s = ObjectStore::new();
        s.create_bucket("b").unwrap();
        assert_eq!(
            s.create_bucket("b"),
            Err(StoreError::BucketExists("b".into()))
        );
        s.ensure_bucket("b"); // idempotent
        s.delete_bucket("b").unwrap();
        assert!(matches!(
            s.delete_bucket("b"),
            Err(StoreError::NoSuchBucket(_))
        ));
    }

    #[test]
    fn object_crud() {
        let s = ObjectStore::new();
        s.create_bucket("b").unwrap();
        assert!(matches!(
            s.get_object("b", "x"),
            Err(StoreError::NoSuchKey(_))
        ));
        assert!(matches!(
            s.put_object("nope", "x", Bytes::new()),
            Err(StoreError::NoSuchBucket(_))
        ));
        s.put_object("b", "x", Bytes::from_static(b"hello"))
            .unwrap();
        assert_eq!(
            s.get_object("b", "x").unwrap(),
            Bytes::from_static(b"hello")
        );
        assert_eq!(s.head("b", "x").unwrap().size, 5);
        // Overwrite.
        s.put_object("b", "x", Bytes::from_static(b"bye")).unwrap();
        assert_eq!(s.head("b", "x").unwrap().size, 3);
        s.delete_object("b", "x").unwrap();
        assert!(s.get_object("b", "x").is_err());
    }

    #[test]
    fn versions_are_unique_and_monotonic() {
        let s = ObjectStore::new();
        s.create_bucket("b").unwrap();
        let v1 = s.put_object("b", "x", Bytes::from_static(b"a")).unwrap();
        let v2 = s.put_object("b", "x", Bytes::from_static(b"b")).unwrap();
        let v3 = s.put_object("b", "y", Bytes::from_static(b"c")).unwrap();
        assert!(v1 < v2 && v2 < v3, "{v1} {v2} {v3}");
        assert_eq!(
            s.get_object_versioned("b", "x").unwrap(),
            (Bytes::from_static(b"b"), v2)
        );
        assert_eq!(s.head("b", "y").unwrap().version, v3);
        // Delete + recreate never reuses a version.
        s.delete_object("b", "x").unwrap();
        let v4 = s.put_object("b", "x", Bytes::from_static(b"d")).unwrap();
        assert!(v4 > v3);
        let metas = s.list("b", "").unwrap();
        assert_eq!(
            metas.iter().map(|m| m.version).collect::<Vec<_>>(),
            vec![v4, v3]
        );
    }

    #[test]
    fn range_reads() {
        let s = ObjectStore::new();
        s.create_bucket("b").unwrap();
        s.put_object("b", "x", Bytes::from_static(b"0123456789"))
            .unwrap();
        assert_eq!(
            s.get_range("b", "x", 2, 5).unwrap(),
            Bytes::from_static(b"234")
        );
        assert_eq!(s.get_range("b", "x", 0, 0).unwrap().len(), 0);
        assert!(matches!(
            s.get_range("b", "x", 5, 11),
            Err(StoreError::InvalidRange { .. })
        ));
        assert!(s.get_range("b", "x", 7, 3).is_err());
    }

    #[test]
    fn list_with_prefix() {
        let s = ObjectStore::new();
        s.create_bucket("b").unwrap();
        for k in ["t/a", "t/b", "u/c", "t0"] {
            s.put_object("b", k, Bytes::from_static(b"x")).unwrap();
        }
        let got: Vec<String> = s
            .list("b", "t/")
            .unwrap()
            .into_iter()
            .map(|m| m.key)
            .collect();
        assert_eq!(got, vec!["t/a", "t/b"]);
        assert_eq!(s.list("b", "").unwrap().len(), 4);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let s = std::sync::Arc::new(ObjectStore::new());
        s.create_bucket("b").unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        let key = format!("k{t}-{i}");
                        s.put_object("b", &key, Bytes::from(vec![t as u8; 10]))
                            .unwrap();
                        assert_eq!(s.get_object("b", &key).unwrap().len(), 10);
                    }
                });
            }
        });
        assert_eq!(s.list("b", "").unwrap().len(), 400);
    }
}
