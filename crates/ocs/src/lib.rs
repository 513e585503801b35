//! `ocs` — Object-based Computational Storage.
//!
//! The reproduction of SK hynix's OCS as described in the paper: an object
//! storage system with **an embedded SQL engine inside the storage layer**,
//! able to execute column projection, expression projection, filtering,
//! aggregation, sorting and limit/top-N *next to the data* — the
//! capabilities that S3 Select / MinIO Select lack (those stop at
//! projection + filter, and cannot even handle doubles).
//!
//! Architecture (paper §2.3, §5.1):
//!
//! * [`StorageNode`] — holds objects (via `objstore`) and runs the
//!   [`exec`] embedded executor over Substrait plans, on deliberately weak
//!   hardware (16 cores @ 2.0 GHz in the paper's testbed);
//! * [`OcsFrontend`] — the unified endpoint: parses incoming Substrait IR,
//!   dispatches to its one storage node, and relays Arrow results;
//! * [`OcsClient`] — the "gRPC" boundary: serializes plans to bytes on the
//!   way in and a stream of Arrow-IPC batch frames on the way out,
//!   counting every byte so the cost model can bill the link.
//!
//! Everything is executed for real; the drained stream's
//! [`netsim::SplitReport`] (also the `report` of an [`OcsResponse`])
//! carries the simulated resource consumption — storage core-seconds,
//! decompress core-seconds, disk bytes, frontend core-seconds, link bytes
//! and the per-frame timeline — for the caller's ledger.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use columnar::prelude::*;
//! use substrait_ir::{Expr, Plan, Rel};
//! use columnar::kernels::cmp::CmpOp;
//! use ocs::{Ocs, OcsConfig};
//! use objstore::ObjectStore;
//!
//! // Store one parq object.
//! let store = Arc::new(ObjectStore::new());
//! store.create_bucket("lake").unwrap();
//! let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, false)]));
//! let batch = RecordBatch::try_new(
//!     schema.clone(),
//!     vec![Arc::new(Array::from_i64((0..100).collect()))],
//! ).unwrap();
//! let bytes = parq::writer::write_file(schema.clone(), &[batch], Default::default()).unwrap();
//! store.put_object("lake", "t/0", bytes.into()).unwrap();
//!
//! // Query it through OCS with a pushed-down filter.
//! let ocs = Ocs::new(store, OcsConfig::paper_testbed());
//! let plan = Plan::new(Rel::Filter {
//!     input: Box::new(Rel::read("t", (*schema).clone(), None)),
//!     predicate: Expr::cmp(CmpOp::GtEq, Expr::field(0), Expr::lit(Scalar::Int64(90))),
//! });
//! let resp = ocs.client().execute(&plan, "lake", "t/0").unwrap();
//! let rows: usize = resp.batches.iter().map(|b| b.num_rows()).sum();
//! assert_eq!(rows, 10);
//! assert!(resp.report.network_bytes < 1000, "only filtered rows cross the wire");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod exec;
pub mod frontend;
pub mod node;
pub mod rpc;
pub mod stream;

pub use frontend::OcsFrontend;
pub use node::StorageNode;
pub use rpc::{BatchStream, OcsClient, OcsResponse, DEFAULT_FRAME_WINDOW};
pub use stream::{WireFrame, WireStream};

use netsim::{CostParams, DiskSpec, NodeSpec};
use objstore::ObjectStore;
use std::fmt;
use std::sync::Arc;

/// Errors from OCS request handling, each typed by the layer that failed.
#[derive(Debug)]
pub enum OcsError {
    /// Malformed or unsupported Substrait plan. Carries the structured
    /// verifier diagnostic — stable code plus the plan path of the
    /// offending node — so the engine side can log exactly *which* node
    /// of the shipped plan was rejected, not just a flattened string.
    Plan(substrait_ir::Diagnostic),
    /// Storage access failed.
    Storage(objstore::StoreError),
    /// The object is not a readable parq file (corrupt footer or page).
    Parq(parq::ParqError),
    /// A columnar kernel failed, or a response frame did not decode.
    Columnar(columnar::ColumnarError),
    /// The response stream broke the frame protocol.
    Protocol(&'static str),
    /// A verified plan broke a guarantee planck gives the executor.
    Unverified(&'static str),
    /// Invalid deployment configuration (rejected by
    /// [`OcsConfig::validate`] before anything is brought up).
    Config(String),
}

impl fmt::Display for OcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OcsError::Plan(d) => write!(f, "plan rejected: {d}"),
            OcsError::Storage(e) => write!(f, "storage error: {e}"),
            OcsError::Parq(e) => write!(f, "parq error: {e}"),
            OcsError::Columnar(e) => write!(f, "columnar error: {e}"),
            OcsError::Protocol(m) => write!(f, "frame protocol: {m}"),
            OcsError::Unverified(m) => write!(f, "plan guarantee broken: {m}"),
            OcsError::Config(m) => write!(f, "invalid config: {m}"),
        }
    }
}

impl std::error::Error for OcsError {}

impl From<objstore::StoreError> for OcsError {
    fn from(e: objstore::StoreError) -> Self {
        OcsError::Storage(e)
    }
}

impl From<parq::ParqError> for OcsError {
    fn from(e: parq::ParqError) -> Self {
        OcsError::Parq(e)
    }
}

impl From<columnar::ColumnarError> for OcsError {
    fn from(e: columnar::ColumnarError) -> Self {
        OcsError::Columnar(e)
    }
}

impl From<substrait_ir::Diagnostic> for OcsError {
    fn from(d: substrait_ir::Diagnostic) -> Self {
        OcsError::Plan(d)
    }
}

/// Result alias.
pub type OcsResult<T> = std::result::Result<T, OcsError>;

/// Hardware + cost configuration of an OCS deployment.
#[derive(Debug, Clone)]
pub struct OcsConfig {
    /// The storage node's compute resources.
    pub storage_node: NodeSpec,
    /// The storage node's disk.
    pub storage_disk: DiskSpec,
    /// The frontend node's compute resources.
    pub frontend_node: NodeSpec,
    /// Work-unit cost coefficients (shared with the query engine).
    pub cost: CostParams,
    /// Bounded in-flight frame window of the streaming boundary: at most
    /// this many encoded frames are buffered client-side (backpressure).
    pub frame_window: usize,
    /// Byte budget of the storage node's decoded row-group cache
    /// (decoded column chunks, keyed by object version). Zero disables
    /// the tier.
    pub row_group_cache_bytes: u64,
    /// Byte budget of the storage node's pushdown-result cache (whole
    /// verified-subplan responses, keyed by plan fingerprint + object
    /// version). Zero disables the tier.
    pub result_cache_bytes: u64,
}

/// Smallest nonzero cache budget [`OcsConfig::validate`] accepts: tinier
/// budgets reject every realistic entry and silently behave as disabled,
/// which is exactly the misconfiguration validation exists to catch.
pub const MIN_CACHE_BYTES: u64 = 64 * 1024;

impl OcsConfig {
    /// The paper's testbed: one storage node at 16 × 2.0 GHz behind a
    /// 48 × 3.9 GHz frontend. Both near-storage cache tiers are on with
    /// production budgets (64 MiB decoded row groups, 32 MiB results).
    pub fn paper_testbed() -> OcsConfig {
        let cluster = netsim::ClusterSpec::paper_testbed();
        OcsConfig {
            storage_node: cluster.storage,
            storage_disk: cluster.storage_disk,
            frontend_node: cluster.frontend,
            cost: CostParams::default(),
            frame_window: rpc::DEFAULT_FRAME_WINDOW,
            row_group_cache_bytes: 64 * 1024 * 1024,
            result_cache_bytes: 32 * 1024 * 1024,
        }
    }

    /// The same testbed with both cache tiers off — the cold-only
    /// configuration, for A/B comparisons and tests that re-execute the
    /// same plan and expect identical cost ledgers.
    pub fn paper_testbed_uncached() -> OcsConfig {
        OcsConfig {
            row_group_cache_bytes: 0,
            result_cache_bytes: 0,
            ..OcsConfig::paper_testbed()
        }
    }

    /// Check the deployment knobs, rejecting values that would previously
    /// have been silently clamped or silently useless.
    pub fn validate(&self) -> OcsResult<()> {
        if self.frame_window == 0 {
            return Err(OcsError::Config(
                "frame_window must be >= 1 (zero in-flight frames can never make progress)".into(),
            ));
        }
        for (name, bytes) in [
            ("row_group_cache_bytes", self.row_group_cache_bytes),
            ("result_cache_bytes", self.result_cache_bytes),
        ] {
            if bytes > 0 && bytes < MIN_CACHE_BYTES {
                return Err(OcsError::Config(format!(
                    "{name} = {bytes} is below the {MIN_CACHE_BYTES}-byte minimum; \
                     use 0 to disable the tier"
                )));
            }
        }
        Ok(())
    }
}

/// A whole OCS deployment: frontend + storage node over one object store.
#[derive(Debug)]
pub struct Ocs {
    frontend: Arc<OcsFrontend>,
    frame_window: usize,
}

impl Ocs {
    /// Bring up OCS over `store` with `config`.
    ///
    /// # Panics
    /// Panics when `config` fails [`OcsConfig::validate`]; use
    /// [`Ocs::try_new`] to handle the error instead.
    pub fn new(store: Arc<ObjectStore>, config: OcsConfig) -> Ocs {
        match Ocs::try_new(store, config) {
            Ok(ocs) => ocs,
            Err(e) => panic!("{e}"),
        }
    }

    /// Bring up OCS over `store` with `config`, validating the config
    /// first. The storage node gets both near-storage caches, sized by
    /// the config budgets.
    pub fn try_new(store: Arc<ObjectStore>, config: OcsConfig) -> OcsResult<Ocs> {
        config.validate()?;
        let node = StorageNode::new(
            store,
            config.storage_node,
            config.storage_disk,
            config.cost.clone(),
        )
        .with_caches(cache::NodeCaches::new(
            config.row_group_cache_bytes,
            config.result_cache_bytes,
        ));
        Ok(Ocs {
            frontend: Arc::new(OcsFrontend::new(node, config.frontend_node, config.cost)),
            frame_window: config.frame_window,
        })
    }

    /// The frontend endpoint.
    pub fn frontend(&self) -> &Arc<OcsFrontend> {
        &self.frontend
    }

    /// A client bound to this deployment's frontend, using the configured
    /// in-flight frame window.
    pub fn client(&self) -> OcsClient {
        OcsClient::with_window(self.frontend.clone(), self.frame_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_config_is_valid() {
        assert!(OcsConfig::paper_testbed().validate().is_ok());
        assert!(OcsConfig::paper_testbed_uncached().validate().is_ok());
    }

    #[test]
    fn zero_frame_window_is_a_config_error() {
        let config = OcsConfig {
            frame_window: 0,
            ..OcsConfig::paper_testbed()
        };
        let err = config.validate().unwrap_err();
        assert!(matches!(err, OcsError::Config(_)), "got {err}");
        assert!(err.to_string().contains("frame_window"));
        assert!(Ocs::try_new(Arc::new(ObjectStore::new()), config).is_err());
    }

    #[test]
    fn undersized_cache_budgets_are_config_errors() {
        for (rg, res, field) in [
            (MIN_CACHE_BYTES - 1, 0, "row_group_cache_bytes"),
            (0, 1, "result_cache_bytes"),
        ] {
            let config = OcsConfig {
                row_group_cache_bytes: rg,
                result_cache_bytes: res,
                ..OcsConfig::paper_testbed()
            };
            let err = config.validate().unwrap_err();
            assert!(err.to_string().contains(field), "got {err}");
        }
        // Zero means disabled, and the minimum itself is accepted.
        let config = OcsConfig {
            row_group_cache_bytes: 0,
            result_cache_bytes: MIN_CACHE_BYTES,
            ..OcsConfig::paper_testbed()
        };
        assert!(config.validate().is_ok());
    }
}
