//! `ocs-connector` — the Presto-OCS connector: this crate is the paper's
//! primary contribution, reproduced in Rust against the `dsq` engine and
//! the `ocs` storage system.
//!
//! # What it does
//!
//! The connector plugs into the engine's Connector SPI and, during the
//! **local-optimizer** pass (Figure 3, step 4), walks the logical plan
//! bottom-up from the table scan:
//!
//! 1. the [`selectivity::SelectivityAnalyzer`] estimates each operator's
//!    data-reduction potential from metastore statistics (min/max for
//!    range filters under a normal-distribution assumption, NDV for
//!    aggregation cardinality, `LIMIT` for top-N);
//! 2. the operator extractor ([`optimizer`]) captures the eligible prefix
//!    of the chain — filter predicates, projection expressions,
//!    aggregation keys/functions, sort/limit criteria — into an
//!    [`handle::OcsTableHandle`], merging the nodes into a *modified
//!    TableScan*, and translates them once into a verified Substrait plan
//!    ([`translate`]) that the handle carries;
//! 3. at execution, the [`pagesource::OcsPageSourceProvider`] ships that
//!    plan to OCS for each split over the byte-counted RPC boundary, and
//!    deserializes the Arrow results back into engine pages;
//! 4. the engine runs only *residual* operators (final aggregation of
//!    partial states, top-N merge, output) over the pre-reduced data.
//!
//! Aggregates are pushed in **partial/final** form: OCS returns per-object
//! partial states (`AVG` decomposes into `SUM` + `COUNT`, recombined by a
//! generated projection), and the engine's final aggregation merges
//! per-object groups — so results are exact even when groups span objects.
//! Pushing top-N *above* a partial aggregation additionally requires
//! groups not to span objects (true for the paper's workloads, where each
//! file covers a disjoint key range). The optimizer proves this from
//! per-object min/max statistics of the group keys and declines that
//! pushdown when the proof fails.
//!
//! # Baselines
//!
//! The paper's two comparison points:
//!
//! * [`raw::RawConnector`] — *no pushdown*: whole objects cross the
//!   network and every operator runs at the compute layer;
//! * *filter-only pushdown*, the S3-Select/MinIO-Select capability level,
//!   is this connector under [`PushdownPolicy::filter_only`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ocs_connector::{register_ocs_stack, PushdownPolicy};
//! use dsq::EngineBuilder;
//! use objstore::ObjectStore;
//!
//! let store = Arc::new(ObjectStore::new());
//! let engine = EngineBuilder::new().build();
//! // Registers the "ocs" and "raw" connectors over `store`.
//! register_ocs_stack(&engine, store, PushdownPolicy::all());
//! ```

#![warn(missing_docs)]

pub mod handle;
pub mod monitor;
pub mod optimizer;
pub mod pagesource;
pub mod policy;
pub mod raw;
pub mod selectivity;
pub mod translate;

pub use handle::{OcsTableHandle, PushedAggregate, PushedOps};
pub use monitor::{PushdownHistory, PushdownMonitor};
pub use optimizer::OcsPlanOptimizer;
pub use policy::PushdownPolicy;
pub use raw::RawConnector;
pub use selectivity::SelectivityAnalyzer;

use std::sync::Arc;

use dsq::spi::{Connector, ConnectorPlanOptimizer, PageSourceProvider};
use dsq::Engine;
use objstore::ObjectStore;

/// The Presto-OCS connector.
pub struct OcsConnector {
    name: String,
    policy: PushdownPolicy,
    optimizer: Arc<OcsPlanOptimizer>,
    pages: Arc<pagesource::OcsPageSourceProvider>,
}

impl OcsConnector {
    /// Build an OCS connector named `name` over an OCS deployment.
    pub fn new(
        name: impl Into<String>,
        ocs: Arc<ocs::Ocs>,
        cluster: netsim::ClusterSpec,
        cost: netsim::CostParams,
        policy: PushdownPolicy,
    ) -> Self {
        let name = name.into();
        OcsConnector {
            optimizer: Arc::new(OcsPlanOptimizer::new(name.clone(), policy.clone())),
            pages: Arc::new(pagesource::OcsPageSourceProvider::new(
                ocs.client(),
                cluster,
                cost,
            )),
            name,
            policy,
        }
    }

    /// The pushdown policy in force.
    pub fn policy(&self) -> &PushdownPolicy {
        &self.policy
    }
}

impl Connector for OcsConnector {
    fn name(&self) -> &str {
        &self.name
    }

    fn plan_optimizer(&self) -> Option<Arc<dyn ConnectorPlanOptimizer>> {
        Some(self.optimizer.clone())
    }

    fn page_source_provider(&self) -> Arc<dyn PageSourceProvider> {
        self.pages.clone()
    }
}

/// Convenience: stand up the full comparison stack on one engine —
/// an OCS deployment plus the `"ocs"` and `"raw"` connectors,
/// all over the same object store, using the engine's cluster/cost model.
pub fn register_ocs_stack(
    engine: &Engine,
    store: Arc<ObjectStore>,
    policy: PushdownPolicy,
) -> Arc<ocs::Ocs> {
    let defaults = ocs::OcsConfig::paper_testbed();
    register_ocs_stack_configured(
        engine,
        store,
        policy,
        defaults.row_group_cache_bytes,
        defaults.result_cache_bytes,
    )
}

/// [`register_ocs_stack`] with explicit near-storage cache budgets (zero
/// disables a tier) — the cold-path A/B configuration for benchmarks and
/// tests that compare repeated executions.
pub fn register_ocs_stack_configured(
    engine: &Engine,
    store: Arc<ObjectStore>,
    policy: PushdownPolicy,
    row_group_cache_bytes: u64,
    result_cache_bytes: u64,
) -> Arc<ocs::Ocs> {
    let cluster = engine.cluster().clone();
    let cost = engine.cost_params().clone();
    let ocs = Arc::new(ocs::Ocs::new(
        store.clone(),
        ocs::OcsConfig {
            storage_node: cluster.storage.clone(),
            storage_disk: cluster.storage_disk,
            frontend_node: cluster.frontend.clone(),
            cost: cost.clone(),
            frame_window: ocs::DEFAULT_FRAME_WINDOW,
            row_group_cache_bytes,
            result_cache_bytes,
        },
    ));
    engine.register_connector(Arc::new(OcsConnector::new(
        "ocs",
        ocs.clone(),
        cluster.clone(),
        cost.clone(),
        policy,
    )));
    engine.register_connector(Arc::new(RawConnector::new("raw", store, cluster, cost)));
    ocs
}
