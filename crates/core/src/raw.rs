//! The no-pushdown baseline: whole objects cross the network and every
//! operator runs at the compute layer (Figure 2(a) of the paper —
//! "traditional object storage systems execute all SQL operators at the
//! compute node, requiring full dataset or column chunk transfer").

use std::sync::Arc;

use dsq::error::{EResult, EngineError};
use dsq::spi::{
    BufferedPageStream, Connector, DefaultTableHandle, PageSourceProvider, PageSourceResult, Split,
};
use netsim::{ClusterSpec, CostParams, ExecStats, Work};
use objstore::ObjectStore;
use parq::ParqReader;

/// The raw GET-the-object connector.
pub struct RawConnector {
    name: String,
    pages: Arc<RawPageSourceProvider>,
}

impl RawConnector {
    /// Build a raw connector over `store`.
    pub fn new(
        name: impl Into<String>,
        store: Arc<ObjectStore>,
        cluster: ClusterSpec,
        cost: CostParams,
    ) -> Self {
        RawConnector {
            name: name.into(),
            pages: Arc::new(RawPageSourceProvider {
                store,
                cluster,
                cost,
            }),
        }
    }
}

impl Connector for RawConnector {
    fn name(&self) -> &str {
        &self.name
    }

    fn page_source_provider(&self) -> Arc<dyn PageSourceProvider> {
        self.pages.clone()
    }
}

struct RawPageSourceProvider {
    store: Arc<ObjectStore>,
    cluster: ClusterSpec,
    cost: CostParams,
}

impl PageSourceProvider for RawPageSourceProvider {
    fn create(&self, split: &Split) -> EResult<PageSourceResult> {
        // The whole object crosses the network — that is the point of this
        // baseline.
        let bytes = self
            .store
            .get_object(&split.bucket, &split.key)
            .map_err(EngineError::connector)?;
        let object_bytes = bytes.len() as u64;

        let reader = ParqReader::open(bytes).map_err(EngineError::connector)?;
        let projection: Option<Vec<usize>> = split
            .handle
            .as_any()
            .downcast_ref::<DefaultTableHandle>()
            .and_then(|h| h.projection.clone());
        let batches = reader
            .read_all(projection.as_deref())
            .map_err(EngineError::connector)?;

        // Storage side: the GET streams the file off the disk; serving it
        // costs a little CPU per byte.
        let storage_cpu_s = self
            .cluster
            .storage
            .core_seconds_for(Work::decode(object_bytes as f64 * 0.02));

        // Compute side: decompression (if any) + columnar decode of the
        // columns the query needs, all at the compute layer.
        let uncompressed: u64 = batches.iter().map(|b| b.byte_size() as u64).sum();
        let compute_deser_s = self
            .cluster
            .compute
            .core_seconds_for(Work::decode(uncompressed as f64 * self.cost.byte_decode))
            + reader.codec().decompress_seconds(uncompressed);

        let rows: u64 = batches.iter().map(|b| b.num_rows() as u64).sum();
        // A raw GET is one monolithic fetch: the stream reports a single
        // indivisible frame, so the pipeline scheduler sees no intra-split
        // overlap and peak buffering equals the whole payload.
        Ok(PageSourceResult {
            stream: BufferedPageStream::whole_result(
                batches,
                ExecStats {
                    storage_cpu_s,
                    disk_bytes: object_bytes,
                    rows_scanned: rows,
                    rows_returned: rows,
                    ..Default::default()
                },
                object_bytes,
                1,
                compute_deser_s,
            ),
            substrait_gen_s: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::prelude::*;

    #[test]
    fn whole_object_crosses_network_regardless_of_projection() {
        let store = Arc::new(ObjectStore::new());
        store.create_bucket("lake").unwrap();
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Float64, false),
        ]));
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![
                Arc::new(Array::from_i64((0..5000).collect())),
                Arc::new(Array::from_f64(vec![1.0; 5000])),
            ],
        )
        .unwrap();
        let bytes = parq::writer::write_file(schema.clone(), &[batch], Default::default()).unwrap();
        let object_size = bytes.len() as u64;
        store.put_object("lake", "t/0", bytes.into()).unwrap();

        let provider = RawPageSourceProvider {
            store,
            cluster: ClusterSpec::paper_testbed(),
            cost: CostParams::default(),
        };
        let split = Split {
            connector: "raw".into(),
            table: "t".into(),
            bucket: "lake".into(),
            key: "t/0".into(),
            schema,
            handle: Arc::new(DefaultTableHandle::projected(vec![0])),
            seq: 0,
        };
        let page = provider.create(&split).unwrap();
        let mut stream = page.stream;
        let mut rows = 0usize;
        let mut cols = 0usize;
        while let Some(b) = stream.next_batch().unwrap() {
            rows += b.num_rows();
            cols = b.num_columns();
        }
        assert_eq!(cols, 1, "only col 0 decoded");
        assert_eq!(rows, 5000);
        let report = stream.finish().unwrap();
        assert_eq!(report.network_bytes, object_size, "entire file moved");
        assert!(report.compute_deser_s > 0.0);
        assert_eq!(report.stats.storage_decompress_s, 0.0);
        assert_eq!(report.frames.len(), 1, "monolithic fetch = one frame");
        assert_eq!(report.peak_buffered_bytes, object_size);
    }
}
