//! `objstore` — a flat, versioned bucket/object store: GET, PUT and LIST.
//!
//! Models the role AWS S3 / MinIO play in the paper: objects are opaque
//! byte blobs under `bucket/key`, metadata lives apart from data, and
//! every put stamps a fresh write version that caches key on. The store
//! computes nothing: the S3-Select capability level (projection + `WHERE`
//! filtering) is expressed as a pushdown policy on the OCS path
//! (`PushdownPolicy::filter_only`, the `pd-filter` connector), and OCS
//! (the `ocs` crate) runs everything beyond it.
//!
//! The store is deliberately ignorant of the cost model: callers read
//! object sizes and bill the `netsim` ledgers themselves, because *where*
//! the bytes travel (local disk vs network link) depends on who is
//! calling.
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
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            StoreError::NoSuchKey(k) => write!(f, "no such key: {k}"),
            StoreError::BucketExists(b) => write!(f, "bucket already exists: {b}"),
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
        assert!(s.list("b", "").unwrap().is_empty());
        assert!(matches!(s.list("c", ""), Err(StoreError::NoSuchBucket(_))));
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
        assert_eq!(s.list("b", "x").unwrap()[0].size, 5);
        // Overwrite.
        s.put_object("b", "x", Bytes::from_static(b"bye")).unwrap();
        assert_eq!(s.list("b", "x").unwrap()[0].size, 3);
        assert_eq!(s.get_object("b", "x").unwrap(), Bytes::from_static(b"bye"));
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
        assert_eq!(s.get_object_versioned("b", "y").unwrap().1, v3);
        // Overwriting an older key still takes a fresh, larger version.
        let v4 = s.put_object("b", "x", Bytes::from_static(b"d")).unwrap();
        assert!(v4 > v3);
        let metas = s.list("b", "").unwrap();
        assert_eq!(
            metas.iter().map(|m| m.version).collect::<Vec<_>>(),
            vec![v4, v3]
        );
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

/// A filter-only read of a stored parq object, done the way the
/// S3-Select capability level does it: GET the object, prune row groups
/// from footer statistics, decode the survivors and evaluate the
/// conjunction. The store offers no such call; the test checks that the
/// pieces it is built from agree when composed over a stored object.
#[cfg(test)]
mod select {
    mod tests {
        use crate::ObjectStore;
        use bytes::Bytes;
        use columnar::kernels::cmp::CmpOp;
        use columnar::kernels::{boolean, cmp, selection};
        use columnar::prelude::*;
        use columnar::BooleanArray;
        use parq::{CodecKind, ParqReader, RangePredicate, WriteOptions};
        use std::sync::Arc;

        fn store_with_table(codec: CodecKind) -> ObjectStore {
            let schema = Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("v", DataType::Float64, false),
                Field::new("tag", DataType::Utf8, false),
            ]));
            let ids: Vec<i64> = (0..1000).collect();
            let vs: Vec<f64> = ids.iter().map(|&i| i as f64 / 100.0).collect();
            let tags: Vec<String> = ids.iter().map(|i| format!("g{}", i % 5)).collect();
            let batch = RecordBatch::try_new(
                schema.clone(),
                vec![
                    Arc::new(Array::from_i64(ids)),
                    Arc::new(Array::from_f64(vs)),
                    Arc::new(Array::from_strs(tags.iter().map(|s| s.as_str()))),
                ],
            )
            .unwrap();
            let bytes = parq::writer::write_file(
                schema,
                &[batch],
                WriteOptions {
                    codec,
                    row_group_rows: 100,
                    enable_dictionary: true,
                },
            )
            .unwrap();
            let s = ObjectStore::new();
            s.create_bucket("lake").unwrap();
            s.put_object("lake", "t/part-0", Bytes::from(bytes))
                .unwrap();
            s
        }

        /// The `id`s of the rows of `reader` that satisfy every predicate,
        /// read from the row groups that pruning keeps, and the number of
        /// rows those groups hold.
        fn pruned_ids(reader: &ParqReader, predicates: &[RangePredicate]) -> (Vec<i64>, usize) {
            let mut ids = Vec::new();
            let mut scanned = 0;
            for rg in reader.prune_row_groups(predicates) {
                let batch = reader.read_row_group(rg, None).unwrap();
                scanned += batch.num_rows();
                let mut mask: Option<BooleanArray> = None;
                for p in predicates {
                    let m = cmp::compare_scalar(batch.column(p.column), &p.value, p.op).unwrap();
                    mask = Some(match mask {
                        Some(acc) => boolean::and(&acc, &m).unwrap(),
                        None => m,
                    });
                }
                let kept = match mask {
                    Some(m) => selection::filter_batch(&batch, &m).unwrap(),
                    None => batch,
                };
                ids.extend_from_slice(&kept.column(0).as_i64().unwrap().values);
            }
            (ids, scanned)
        }

        /// Row-group pruning and the conjunction evaluated per group must
        /// agree with the conjunction evaluated row by row on the whole,
        /// unpruned object — for every codec, since pruning reads only the
        /// footer and must not depend on what the pages look like.
        #[test]
        fn pruned_select_matches_unpruned_evaluation() {
            const OPS: [CmpOp; 6] = [
                CmpOp::Eq,
                CmpOp::NotEq,
                CmpOp::Lt,
                CmpOp::LtEq,
                CmpOp::Gt,
                CmpOp::GtEq,
            ];
            // SplitMix64: seeded, dependency-free.
            let mut state = 0x0c5_5eed_u64;
            let mut next = move |n: u64| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let mut pruned = 0;
            for codec in [CodecKind::None, CodecKind::Snap, CodecKind::Zst] {
                let s = store_with_table(codec);
                let reader = ParqReader::open(s.get_object("lake", "t/part-0").unwrap()).unwrap();
                let whole = RecordBatch::concat(&reader.read_all(None).unwrap()).unwrap();
                for case in 0..60 {
                    let predicates: Vec<RangePredicate> = (0..1 + next(3))
                        .map(|_| {
                            // Literals a little past both ends of each column.
                            let at = next(1100) as i64 - 50;
                            let (column, value) = match next(3) {
                                0 => (0, Scalar::Int64(at)),
                                1 => (1, Scalar::Float64(at as f64 / 100.0)),
                                _ => (2, Scalar::Utf8(format!("g{}", at.rem_euclid(7)))),
                            };
                            RangePredicate {
                                column,
                                op: OPS[next(6) as usize],
                                value,
                            }
                        })
                        .collect();
                    let holds = |row: usize, p: &RangePredicate| {
                        let ord = whole.column(p.column).scalar_at(row).total_cmp(&p.value);
                        match p.op {
                            CmpOp::Eq => ord.is_eq(),
                            CmpOp::NotEq => ord.is_ne(),
                            CmpOp::Lt => ord.is_lt(),
                            CmpOp::LtEq => ord.is_le(),
                            CmpOp::Gt => ord.is_gt(),
                            CmpOp::GtEq => ord.is_ge(),
                        }
                    };
                    let expect: Vec<i64> = (0..whole.num_rows())
                        .filter(|&row| predicates.iter().all(|p| holds(row, p)))
                        .map(|row| row as i64)
                        .collect();
                    let (got, scanned) = pruned_ids(&reader, &predicates);
                    assert_eq!(got, expect, "{codec:?} case {case}: {predicates:?}");
                    assert!(scanned >= expect.len());
                    pruned += (scanned < 1000) as usize;
                }
            }
            assert!(pruned > 30, "only {pruned} of 180 cases pruned a row group");
        }
    }
}
