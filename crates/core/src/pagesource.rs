//! The OCS PageSourceProvider (paper §3.4 steps 3–5): reconstructs the
//! pushed-down operators from the table handle, translates them to
//! Substrait IR, dispatches to OCS over the framed streaming RPC
//! boundary, and hands the engine a lazy batch stream so split workers
//! consume results frame-at-a-time while storage is still producing.

use columnar::RecordBatch;
use dsq::error::{EResult, EngineError};
use dsq::spi::{PageSourceProvider, PageSourceResult, PageStream, Split};
use netsim::{ClusterSpec, CostParams, SplitReport, Work};
use ocs::{BatchStream, OcsClient, OcsError};

use crate::handle::OcsTableHandle;
use crate::translate::to_substrait;

/// Page sources backed by an OCS deployment.
pub struct OcsPageSourceProvider {
    client: OcsClient,
    cluster: ClusterSpec,
    cost: CostParams,
}

impl OcsPageSourceProvider {
    /// Bind to an OCS client.
    pub fn new(client: OcsClient, cluster: ClusterSpec, cost: CostParams) -> Self {
        OcsPageSourceProvider {
            client,
            cluster,
            cost,
        }
    }
}

fn map_ocs_err(e: OcsError) -> EngineError {
    // A plan rejection comes back as a structured diagnostic — log the
    // offending node's path and code, not just a flattened message.
    match e.diagnostic() {
        Some(d) => EngineError::Connector(format!(
            "ocs rejected the shipped plan at {} [{}]: {}",
            d.path, d.code, d.message
        )),
        None => EngineError::Connector(format!("ocs rpc: {e}")),
    }
}

/// A [`PageStream`] over the OCS streaming boundary: each `next_batch`
/// pulls one framed batch through the client's bounded in-flight window;
/// `finish` adds the engine-side deserialization bill to the stream's report.
struct OcsPageStream {
    stream: BatchStream,
    cluster: ClusterSpec,
    cost: CostParams,
}

impl PageStream for OcsPageStream {
    fn next_batch(&mut self) -> EResult<Option<RecordBatch>> {
        self.stream.next_batch().map_err(map_ocs_err)
    }

    fn finish(self: Box<Self>) -> EResult<SplitReport> {
        let mut report = self.stream.finish().map_err(map_ocs_err)?;
        // Engine-side deserialization of the framed Arrow payload.
        report.compute_deser_s = self.cluster.compute.core_seconds_for(Work::decode(
            report.response_bytes() as f64 * self.cost.byte_deser,
        ));
        Ok(report)
    }
}

impl PageSourceProvider for OcsPageSourceProvider {
    fn create(&self, split: &Split) -> EResult<PageSourceResult> {
        let handle = split
            .handle
            .as_any()
            .downcast_ref::<OcsTableHandle>()
            .ok_or_else(|| {
                EngineError::Connector(format!(
                    "ocs connector received an unknown handle: {}",
                    split.handle.describe()
                ))
            })?;

        if handle.base_schema.is_empty() {
            return Err(EngineError::Connector(
                "ocs scan over a table with an empty schema".into(),
            ));
        }

        // 1. Reconstruct + translate the pushdown plan (Table 3's
        //    "Substrait IR Generation", billed to the coordinator). The
        //    connector optimizer verified this handle's plan once for the
        //    query; OCS verifies what arrives.
        let (plan, ir_nodes) = to_substrait(handle);
        let substrait_gen_s = self
            .cluster
            .compute
            .core_seconds_for(Work::vector(ir_nodes as f64 * self.cost.substrait_node_gen));

        // 2. Open the streaming request. Storage executes eagerly but the
        //    response crosses the boundary lazily: at most the client's
        //    frame window is encoded and buffered at any time.
        let stream = self
            .client
            .execute_stream(&plan, &split.bucket, &split.key)
            .map_err(map_ocs_err)?;

        Ok(PageSourceResult {
            stream: Box::new(OcsPageStream {
                stream,
                cluster: self.cluster.clone(),
                cost: self.cost.clone(),
            }),
            substrait_gen_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::Schema;
    use dsq::spi::DefaultTableHandle;
    use objstore::ObjectStore;
    use ocs::{Ocs, OcsConfig};
    use std::sync::Arc;

    fn deployment() -> (OcsClient, columnar::SchemaRef) {
        use columnar::{Array, DataType, Field};
        let store = Arc::new(ObjectStore::new());
        store.create_bucket("lake").unwrap();
        let schema = Arc::new(Schema::new(vec![
            Field::new("x", DataType::Int64, false),
            Field::new("y", DataType::Float64, false),
        ]));
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![
                Arc::new(Array::from_i64((0..100).collect())),
                Arc::new(Array::from_f64((0..100).map(|v| v as f64).collect())),
            ],
        )
        .unwrap();
        let bytes = parq::writer::write_file(schema.clone(), &[batch], Default::default()).unwrap();
        store.put_object("lake", "t/0", bytes.into()).unwrap();
        let ocs = Ocs::new(store, OcsConfig::paper_testbed());
        (ocs.client(), schema)
    }

    fn split(schema: columnar::SchemaRef, handle: Arc<dyn dsq::spi::TableHandle>) -> Split {
        Split {
            connector: "ocs".into(),
            table: "t".into(),
            bucket: "lake".into(),
            key: "t/0".into(),
            schema,
            handle,
            seq: 0,
        }
    }

    /// The connector's optimizer rewrites every scan it owns to an
    /// [`OcsTableHandle`], so any other handle is a typed error.
    #[test]
    fn default_handle_is_an_unknown_handle_error() {
        let (client, schema) = deployment();
        let provider =
            OcsPageSourceProvider::new(client, ClusterSpec::paper_testbed(), CostParams::default());
        let err = provider
            .create(&split(schema, Arc::new(DefaultTableHandle::all_columns())))
            .err()
            .expect("a default handle is not an OCS handle");
        assert!(
            matches!(&err, EngineError::Connector(m) if m.contains("unknown handle")),
            "{err}"
        );
    }
}
