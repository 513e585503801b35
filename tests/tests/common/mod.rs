//! Shared fixtures for the cross-crate integration tests.

use std::sync::Arc;

use dsq::{Engine, EngineBuilder};
use lzcodec::CodecKind;
use objstore::ObjectStore;
use ocs_connector::{register_ocs_stack, OcsConnector, PushdownPolicy};
use workloads::{DeepWaterConfig, LaghosConfig, TableLoader, TpchConfig};

/// A full test stack: engine + store with all three datasets (small).
pub struct Stack {
    pub engine: Engine,
    #[allow(dead_code)] // some test binaries only drive the engine
    pub store: Arc<ObjectStore>,
}

/// Build a stack with every dataset loaded and connectors registered:
/// `"raw"`, `"ocs"` (with `policy`), plus one extra OCS
/// connector per named policy in `extra` (so one stack can compare
/// pushdown depths by rebinding tables).
pub fn stack(policy: PushdownPolicy, codec: CodecKind, extra: &[(&str, PushdownPolicy)]) -> Stack {
    let engine = EngineBuilder::new().build();
    let store = Arc::new(ObjectStore::new());
    {
        let mut loader = TableLoader::new(&store, engine.metastore());
        loader.codec = codec;
        loader.row_group_rows = 8 * 1024;
        workloads::laghos::load(
            &loader,
            &LaghosConfig {
                files: 4,
                rows_per_file: 16 * 1024,
                ..Default::default()
            },
        );
        workloads::deepwater::load(
            &loader,
            &DeepWaterConfig {
                files: 4,
                rows_per_file: 16 * 1024,
                ..Default::default()
            },
        );
        workloads::tpch::load(
            &loader,
            &TpchConfig {
                files: 4,
                rows_per_file: 8 * 1024,
                ..Default::default()
            },
        );
    }
    let ocs = register_ocs_stack(&engine, store.clone(), policy);
    for (name, p) in extra {
        engine.register_connector(Arc::new(OcsConnector::new(
            name.to_string(),
            ocs.clone(),
            engine.cluster().clone(),
            engine.cost_params().clone(),
            p.clone(),
        )));
    }
    Stack { engine, store }
}

/// Build a stack with only the default connectors.
#[allow(dead_code)] // not every test binary compares policies
pub fn stack_with_policy(policy: PushdownPolicy, codec: CodecKind) -> Stack {
    stack(policy, codec, &[])
}

/// Rebind a table to another connector.
pub fn rebind(stack: &Stack, table: &str, connector: &str) {
    stack
        .engine
        .metastore()
        .rebind_connector(table, connector)
        .unwrap();
}

/// Rows of a result as display strings, with floats rounded for stable
/// cross-path comparison (operator order differs between paths).
#[allow(dead_code)] // not every test binary checks row-level equivalence
pub fn canonical_rows(batch: &columnar::RecordBatch) -> Vec<Vec<String>> {
    (0..batch.num_rows())
        .map(|r| {
            batch
                .row(r)
                .iter()
                .map(|s| match s {
                    columnar::Scalar::Float64(v) => format!("{:.6}", v),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect()
}
