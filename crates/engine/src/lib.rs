//! `dsq` — a distributed SQL query engine with a connector SPI, modeled on
//! Presto's architecture.
//!
//! This crate is the "Presto 0.286" of the reproduction. It implements the
//! coordinator pipeline of the paper's Figure 3:
//!
//! 1. **SQL parsing** (via the `sqlparse` crate) into an AST;
//! 2. **analysis** ([`analyzer`]) — name/type resolution against the
//!    [`catalog`] metastore, producing a logical plan of
//!    `TableScan`/`Filter`/`Project`/`Aggregation`/`Sort`/`TopN` nodes;
//! 3. **global optimization** ([`optimizer`]) — constant folding,
//!    projection pruning, `Sort+Limit → TopN` merging;
//! 4. **connector-specific optimization** — the
//!    [`spi::ConnectorPlanOptimizer`] hook, the exact seam the Presto-OCS
//!    connector plugs into;
//! 5. **physical planning and split generation** — one split per storage
//!    object ([`spi::splits`]), scheduled over the (simulated) worker cores;
//! 6. **vectorized execution** ([`exec`]) — parallel per-split pipelines
//!    (scan → filter → project → partial aggregation / local top-N)
//!    feeding a final single-stream stage, exactly Presto's
//!    partial/final two-phase operator model.
//!
//! Execution is real (correct results over real data); *time* is billed to
//! the `netsim` cost model, which is how the reproduction recovers the
//! paper's performance shapes without the 3-node testbed.
//!
//! The engine knows nothing about OCS: all storage access goes through the
//! [`spi::Connector`] trait, and the `ocs-connector` crate provides the
//! paper's contribution as a plugin (whose filter-only policy is the
//! S3-Select baseline), plus the `RawConnector` (no pushdown) baseline.

#![warn(missing_docs)]

pub mod analyzer;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod expr;
pub mod optimizer;
pub mod plan;
pub mod session;
pub mod spi;

pub use error::{EResult, EngineError};
pub use session::{Engine, EngineBuilder, QueryEvent, QueryResult, StatementOutput};
