//! The metastore: table schemas, object locations and column statistics.
//!
//! Plays the role of the Hive Metastore in the paper — the source of the
//! min/max/NDV/row-count statistics the Presto-OCS connector's Selectivity
//! Analyzer consumes.

use std::collections::BTreeMap;
use std::sync::Arc;
use sync::DebugRwLock;

use columnar::SchemaRef;
use parq::ColumnStats;

use crate::error::{EResult, EngineError};

/// Where one table partition/object lives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObjectLocation {
    /// Object-store bucket.
    pub bucket: String,
    /// Object key.
    pub key: String,
    /// Rows in the object (from write-time accounting).
    pub rows: u64,
    /// Object size in bytes (compressed, on "disk").
    pub bytes: u64,
    /// Per-object column statistics (partition-level metastore stats),
    /// indexed like the table schema; may be empty when unavailable.
    /// The OCS connector uses these to *prove* group keys never span
    /// objects before pushing top-N above a full in-storage aggregation.
    pub columns: Vec<ColumnStats>,
}

/// Table-level statistics (merged across objects).
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Total rows.
    pub row_count: u64,
    /// Per-column merged statistics, indexed like the schema.
    pub columns: Vec<ColumnStats>,
}

/// One registered table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name (lower-case).
    pub name: String,
    /// Which connector serves it.
    pub connector: String,
    /// Schema.
    pub schema: SchemaRef,
    /// Backing objects (the scan's split universe).
    pub objects: Vec<ObjectLocation>,
    /// Metastore statistics.
    pub stats: TableStats,
}

impl TableMeta {
    /// Total on-disk bytes across objects.
    pub fn total_bytes(&self) -> u64 {
        self.objects.iter().map(|o| o.bytes).sum()
    }

    /// Statistics for the column named `name`, if gathered.
    pub fn column_stats(&self, name: &str) -> Option<&ColumnStats> {
        let idx = self.schema.index_of(name).ok()?;
        self.stats.columns.get(idx)
    }
}

/// Thread-safe table registry.
#[derive(Debug)]
pub struct Metastore {
    tables: DebugRwLock<BTreeMap<String, Arc<TableMeta>>>,
}

impl Default for Metastore {
    fn default() -> Self {
        Metastore {
            tables: DebugRwLock::named("engine.catalog.tables", 30, BTreeMap::new()),
        }
    }
}

impl Metastore {
    /// New empty metastore.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table.
    pub fn register(&self, meta: TableMeta) {
        self.tables
            .write()
            .insert(meta.name.to_ascii_lowercase(), Arc::new(meta));
    }

    /// Look a table up by (case-insensitive) name.
    pub fn table(&self, name: &str) -> EResult<Arc<TableMeta>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Re-register the same table under a different connector (used by the
    /// benchmarks to compare Raw / Hive / OCS access paths to one dataset).
    pub fn rebind_connector(&self, table: &str, connector: &str) -> EResult<()> {
        let meta = self.table(table)?;
        let mut new_meta = (*meta).clone();
        new_meta.connector = connector.to_string();
        self.register(new_meta);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{DataType, Field, Schema};

    fn sample() -> TableMeta {
        TableMeta {
            name: "Points".into(),
            connector: "raw".into(),
            schema: Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("x", DataType::Float64, false),
            ])),
            objects: vec![
                ObjectLocation {
                    bucket: "lake".into(),
                    key: "points/0".into(),
                    rows: 10,
                    bytes: 100,
                    ..Default::default()
                },
                ObjectLocation {
                    bucket: "lake".into(),
                    key: "points/1".into(),
                    rows: 20,
                    bytes: 250,
                    ..Default::default()
                },
            ],
            stats: TableStats {
                row_count: 30,
                columns: vec![ColumnStats::empty(), ColumnStats::empty()],
            },
        }
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let m = Metastore::new();
        m.register(sample());
        assert!(m.table("points").is_ok());
        assert!(m.table("POINTS").is_ok());
        assert!(matches!(m.table("nope"), Err(EngineError::UnknownTable(_))));
        assert_eq!(m.table("points").unwrap().total_bytes(), 350);
    }

    #[test]
    fn rebind_connector_swaps_access_path() {
        let m = Metastore::new();
        m.register(sample());
        m.rebind_connector("points", "ocs").unwrap();
        assert_eq!(m.table("points").unwrap().connector, "ocs");
        assert!(m.rebind_connector("ghost", "ocs").is_err());
    }

    #[test]
    fn column_stats_lookup() {
        let meta = sample();
        assert!(meta.column_stats("id").is_some());
        assert!(meta.column_stats("ghost").is_none());
    }
}
