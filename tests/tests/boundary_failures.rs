//! Failures at the storage boundary keep their type through
//! `Engine::execute`: a missing object and a corrupt footer or page surface
//! as the lower layer's own error inside `EngineError::Connector` — bare on
//! `raw`, wrapped in `OcsError` on the two OCS depths. Every assertion is a
//! downcast and a variant match, never a message.

use std::error::Error;
use std::sync::Arc;

use columnar::prelude::*;
use dsq::catalog::{ObjectLocation, TableMeta};
use dsq::{Engine, EngineBuilder, EngineError};
use objstore::{ObjectStore, StoreError};
use ocs::OcsError;
use ocs_connector::{register_ocs_stack, OcsConnector, PushdownPolicy};
use parq::{ParqError, ParqReader};

const CONNECTORS: [&str; 3] = ["raw", "pd-filter", "ocs"];

/// `v` in [0, 499.5] in one row group: the filter keeps 800 rows, so its
/// statistics can prune nothing and every connector reads `v`'s page.
const SQL: &str = "SELECT COUNT(*) AS n FROM t WHERE v >= 100";

/// An engine over table `t`, whose one catalog object `lake/t/0` is not
/// written yet.
fn setup() -> (Engine, Arc<ObjectStore>, Vec<u8>) {
    let engine = EngineBuilder::new().build();
    let store = Arc::new(ObjectStore::new());
    store.create_bucket("lake").unwrap();
    let schema = Arc::new(Schema::new(vec![
        Field::new("v", DataType::Float64, false),
        Field::new("k", DataType::Int64, false),
    ]));
    let batch = RecordBatch::try_new(
        schema.clone(),
        vec![
            Arc::new(Array::from_f64((0..1000).map(|i| i as f64 / 2.0).collect())),
            Arc::new(Array::from_i64((0..1000).collect())),
        ],
    )
    .unwrap();
    let file = parq::writer::write_file(schema.clone(), &[batch], Default::default()).unwrap();
    engine.metastore().register(TableMeta {
        name: "t".into(),
        connector: "raw".into(),
        schema,
        objects: vec![ObjectLocation {
            bucket: "lake".into(),
            key: "t/0".into(),
            rows: 1000,
            bytes: file.len() as u64,
            ..Default::default()
        }],
        stats: Default::default(),
    });
    let ocs = register_ocs_stack(&engine, store.clone(), PushdownPolicy::all());
    engine.register_connector(Arc::new(OcsConnector::new(
        "pd-filter",
        ocs,
        engine.cluster().clone(),
        engine.cost_params().clone(),
        PushdownPolicy::filter_only(),
    )));
    (engine, store, file)
}

/// `file` with the byte at `at` flipped.
fn flipped(file: &[u8], at: usize) -> Vec<u8> {
    let mut bytes = file.to_vec();
    bytes[at] ^= 0x40;
    bytes
}

/// Run [`SQL`] on `connector` and return the connector's error.
fn connector_error(engine: &Engine, connector: &str) -> Box<dyn Error + Send + Sync> {
    engine.metastore().rebind_connector("t", connector).unwrap();
    match engine.execute(SQL).err() {
        Some(EngineError::Connector(e)) => e,
        Some(other) => panic!("{connector}: not a connector error: {other:?}"),
        None => panic!("{connector}: the query succeeded"),
    }
}

/// The store's error on `raw`, the one OCS wraps on the pushdown depths.
fn store_error(connector: &str, e: &(dyn Error + Send + Sync + 'static)) -> StoreError {
    match (connector, e.downcast_ref::<StoreError>(), e.downcast_ref()) {
        ("raw", Some(e), _) => e.clone(),
        (_, None, Some(OcsError::Storage(e))) if connector != "raw" => e.clone(),
        _ => panic!("{connector}: not a store error: {e:?}"),
    }
}

/// The parq error on `raw`, the one OCS wraps on the pushdown depths.
fn parq_error<'a>(connector: &str, e: &'a (dyn Error + Send + Sync + 'static)) -> &'a ParqError {
    match (connector, e.downcast_ref::<ParqError>(), e.downcast_ref()) {
        ("raw", Some(e), _) => e,
        (_, None, Some(OcsError::Parq(e))) if connector != "raw" => e,
        _ => panic!("{connector}: not a parq error: {e:?}"),
    }
}

#[test]
fn boundary_failures_keep_their_type_on_every_connector() {
    let (engine, store, file) = setup();

    // A catalog object whose key was never written.
    for connector in CONNECTORS {
        let e = connector_error(&engine, connector);
        assert!(
            matches!(store_error(connector, &*e), StoreError::NoSuchKey(_)),
            "{connector}: {e:?}"
        );
    }

    // One flipped byte in the footer: the footer checksum fails at open.
    // Layout tail: footer | footer length u32 | checksum u64 | magic. A
    // checksum mismatch is the columnar layer's, inside parq's error.
    let bad_footer = flipped(&file, file.len() - 4 - 8 - 4 - 1);
    assert!(matches!(
        ParqReader::open(bad_footer.clone().into()),
        Err(ParqError::Columnar(ColumnarError::Corrupt(_)))
    ));
    store.put_object("lake", "t/0", bad_footer.into()).unwrap();
    for connector in CONNECTORS {
        let e = connector_error(&engine, connector);
        assert!(
            matches!(
                parq_error(connector, &*e),
                ParqError::Columnar(ColumnarError::Corrupt(_))
            ),
            "{connector}: {e:?}"
        );
    }

    // One flipped byte inside `v`'s page, the first chunk after the
    // leading magic: the file opens, and the page checksum fails on read.
    let chunk = ParqReader::open(file.clone().into())
        .unwrap()
        .chunk_compressed_bytes(0, 0)
        .unwrap() as usize;
    let bad_page = flipped(&file, parq::MAGIC.len() + chunk / 2);
    let reader = ParqReader::open(bad_page.clone().into()).expect("the footer is intact");
    assert!(matches!(
        reader.read_chunk(0, 0),
        Err(ParqError::Columnar(ColumnarError::Corrupt(_)))
    ));
    store.put_object("lake", "t/0", bad_page.into()).unwrap();
    for connector in CONNECTORS {
        let e = connector_error(&engine, connector);
        assert!(
            matches!(
                parq_error(connector, &*e),
                ParqError::Columnar(ColumnarError::Corrupt(_))
            ),
            "{connector}: {e:?}"
        );
    }

    // The good bytes answer on every connector: each failure above was
    // the object's, and no cache kept a damaged version.
    store.put_object("lake", "t/0", file.into()).unwrap();
    for connector in CONNECTORS {
        engine.metastore().rebind_connector("t", connector).unwrap();
        let result = engine.execute(SQL).unwrap();
        assert_eq!(result.batch.row(0), vec![Scalar::Int64(800)], "{connector}");
    }
}
