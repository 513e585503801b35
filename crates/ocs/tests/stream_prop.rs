//! Property tests for the streaming OCS boundary.
//!
//! 1. The framed batch stream is observationally identical to calling the
//!    storage node directly (no serialization at all), batch for batch,
//!    on randomized data, projections, predicates and plan shapes, for
//!    any frame window.
//! 2. Corrupted wire streams — truncations and bit flips anywhere in the
//!    frame bytes — surface as structured decode errors, never panics.
//! 3. Over random batches of every column type, a change to any one byte
//!    of a schema, batch or trailer frame is an error: each frame's one
//!    checksum covers all of it.

use std::sync::Arc;

use columnar::agg::AggFunc;
use columnar::ipc::{
    decode_frames, encode_batch_frame, encode_schema_frame, encode_trailer_frame, FrameDecoder,
};
use columnar::kernels::cmp::CmpOp;
use columnar::prelude::*;
use objstore::ObjectStore;
use ocs::{Ocs, OcsClient, OcsConfig, StorageNode};
use proptest::prelude::*;
use substrait_ir::{Expr, Measure, Plan, Rel};

fn base_schema() -> Schema {
    Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("b", DataType::Float64, false),
        Field::new("c", DataType::Int64, false),
    ])
}

/// Deterministic pseudo-random object, split into 32-row groups so scans
/// produce several batch frames. Returns the deployment and a bare storage
/// node over the same store with the same hardware — the oracle.
fn deployment(seed: u64, rows: usize, window: usize) -> (Ocs, StorageNode) {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut a = Vec::with_capacity(rows);
    let mut b = Vec::with_capacity(rows);
    let mut c = Vec::with_capacity(rows);
    for _ in 0..rows {
        let v = next();
        a.push((v % 200) as i64);
        b.push((next() % 1000) as f64 / 10.0);
        c.push((next() % 5) as i64);
    }
    let schema = Arc::new(base_schema());
    let batch = RecordBatch::try_new(
        schema.clone(),
        vec![
            Arc::new(Array::from_i64(a)),
            Arc::new(Array::from_f64(b)),
            Arc::new(Array::from_i64(c)),
        ],
    )
    .unwrap();
    let bytes = parq::writer::write_file(
        schema,
        &[batch],
        parq::WriteOptions {
            row_group_rows: 32,
            ..Default::default()
        },
    )
    .unwrap();
    let store = Arc::new(ObjectStore::new());
    store.create_bucket("lake").unwrap();
    store.put_object("lake", "t/0", bytes.into()).unwrap();
    // Cache tiers off: this property re-executes the same plan through
    // two boundaries and compares cost ledgers, which warm caches would
    // legitimately change (cache_prop.rs covers cached-vs-cold equality).
    let mut config = OcsConfig::paper_testbed_uncached();
    config.frame_window = window;
    let node = StorageNode::new(
        0,
        store.clone(),
        config.storage_node.clone(),
        config.storage_disk,
        config.cost.clone(),
    );
    (Ocs::new(store, config), node)
}

/// A randomized plan: projected read, then optionally filter /
/// filter+fetch / aggregate on top.
fn make_plan(shape: usize, proj_pick: usize, op: usize, lo: i64, span: i64) -> Plan {
    let projections: [Option<Vec<usize>>; 4] =
        [None, Some(vec![0, 1, 2]), Some(vec![2, 0]), Some(vec![1])];
    let projection = projections[proj_pick].clone();
    let out_len = projection.as_ref().map_or(3, |p| p.len());
    let pos = op % out_len;
    let file_col = projection.as_ref().map_or(pos, |p| p[pos]);
    let lit = |v: i64| {
        if file_col == 1 {
            Expr::lit(Scalar::Float64(v as f64))
        } else {
            Expr::lit(Scalar::Int64(v))
        }
    };
    let read = Rel::read("t", base_schema(), projection);
    let filtered = Rel::Filter {
        input: Box::new(read.clone()),
        predicate: match op % 3 {
            0 => Expr::cmp(CmpOp::Lt, Expr::field(pos), lit(lo)),
            1 => Expr::cmp(CmpOp::GtEq, Expr::field(pos), lit(lo)),
            _ => Expr::Between {
                expr: Box::new(Expr::field(pos)),
                lo: Box::new(lit(lo)),
                hi: Box::new(lit(lo + span)),
            },
        },
    };
    Plan::new(match shape {
        0 => read,
        1 => filtered,
        2 => Rel::Fetch {
            input: Box::new(filtered),
            offset: 0,
            limit: 7,
        },
        _ => Rel::Aggregate {
            input: Box::new(filtered),
            group_by: vec![],
            measures: vec![Measure {
                func: AggFunc::Count,
                arg: None,
                name: "n".into(),
            }],
        },
    })
}

/// A batch of `rows` rows over `types` (column `i` of type
/// `types[i] % 5`), values and nulls drawn from `seed`.
fn random_batch(types: &[u8], rows: usize, seed: u64) -> RecordBatch {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (i, &t) in types.iter().enumerate() {
        let dt = [
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Boolean,
            DataType::Date32,
        ][t as usize % 5];
        let mut b = columnar::builder::ArrayBuilder::new(dt);
        for _ in 0..rows {
            let v = next();
            let scalar = match dt {
                _ if v % 7 == 0 => Scalar::Null,
                DataType::Int64 => Scalar::Int64(v as i64),
                DataType::Float64 => Scalar::Float64(f64::from_bits(v)),
                DataType::Utf8 => Scalar::Utf8(["", "a", "é", "naïve 日本"][v as usize % 4].into()),
                DataType::Boolean => Scalar::Boolean(v % 2 == 0),
                DataType::Date32 => Scalar::Date32(v as i32),
            };
            b.push(scalar).unwrap();
        }
        fields.push(Field::new(format!("c{i}"), dt, true));
        columns.push(Arc::new(b.finish()));
    }
    RecordBatch::try_new(Arc::new(Schema::new(fields)), columns).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_one_byte_change_in_any_frame_is_an_error(
        types in proptest::collection::vec(any::<u8>(), 1..6),
        rows in 0usize..80,
        seed in any::<u64>(),
        trailer in proptest::collection::vec(any::<u8>(), 0..64),
        which in 0usize..3,
        pick in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let batch = random_batch(&types, rows, seed);
        let frames = [
            encode_schema_frame(batch.schema()),
            encode_batch_frame(&batch),
            encode_trailer_frame(&trailer),
        ];
        let mut wire: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        let intact = decode_frames(&bytes::Bytes::from(wire.clone())).unwrap();
        prop_assert_eq!(intact.len(), 3);
        let start: usize = frames[..which].iter().map(|f| f.len()).sum();
        let pos = start + pick % frames[which].len();
        wire[pos] ^= mask;
        let got = decode_frames(&bytes::Bytes::from(wire));
        prop_assert!(
            matches!(got, Err(ColumnarError::Corrupt(_))),
            "frame {}, byte {}, mask {:#x}: {:?}", which, pos - start, mask, got
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn streaming_equals_buffered_on_random_plans(
        seed in any::<u64>(),
        rows in 40usize..300,
        shape in 0usize..4,
        proj_pick in 0usize..4,
        op in 0usize..6,
        lo in -50i64..250,
        span in 0i64..150,
        window in 1usize..6,
    ) {
        let (ocs, node) = deployment(seed, rows, window);
        let client: OcsClient = ocs.client();
        let plan = make_plan(shape, proj_pick, op, lo, span);

        let streamed = client.execute(&plan, "lake", "t/0").unwrap();
        let direct = node.execute(&plan, "lake", "t/0").unwrap();

        // Batch-for-batch: same count, same schema, same values.
        prop_assert_eq!(&streamed.batches, &direct.batches);
        // Identical storage-side accounting: the trailer is the node's
        // counter block plus the frontend's relay bill (and the span
        // records, whose wall-clock stamps differ run to run).
        let report = streamed.report;
        prop_assert!(report.stats.frontend_cpu_s > 0.0);
        prop_assert_eq!(
            netsim::ExecStats { frontend_cpu_s: 0.0, spans: Vec::new(), ..report.stats.clone() },
            netsim::ExecStats { spans: Vec::new(), ..direct.stats }
        );
        // Backpressure: the client never buffers more than the full framed
        // response, and never more frames than the window allows.
        prop_assert!(report.frames.len() >= 2, "schema + trailer at minimum");
        prop_assert!(report.peak_buffered_bytes > 0);
        prop_assert!(report.peak_buffered_bytes <= report.response_bytes());
    }

    #[test]
    fn corrupted_streams_error_never_panic(
        seed in any::<u64>(),
        rows in 40usize..200,
        cut in 0usize..10_000,
        flip_pos in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let (ocs, _) = deployment(seed, rows, 4);
        let plan = make_plan(1, 0, 1, 50, 50);
        let mut stream = ocs
            .frontend()
            .handle_stream(&substrait_ir::encode(&plan), "lake", "t/0")
            .unwrap();
        let mut wire = Vec::new();
        let mut frame_count = 0usize;
        while let Some(f) = stream.next_frame() {
            wire.extend_from_slice(&f.bytes);
            frame_count += 1;
        }

        // Truncation at an arbitrary byte: either a clean prefix of whole
        // frames, or a structured incomplete-stream error.
        let cut = cut % wire.len();
        let mut dec = FrameDecoder::new();
        dec.feed(bytes::Bytes::from(wire[..cut].to_vec()));
        let mut decoded = 0usize;
        let result = loop {
            match dec.next_frame() {
                Ok(Some(_)) => decoded += 1,
                Ok(None) => break dec.finish(),
                Err(e) => break Err(e),
            }
        };
        // Either a structured error, or a clean finish that cannot have seen
        // every frame (truncation strictly before any byte removes frames).
        if result.is_ok() {
            prop_assert!(decoded < frame_count || cut == 0);
        }

        // A single bit flip anywhere must be caught by the per-frame CRC
        // (or an earlier header check) — a structured error, not a panic
        // and not silent acceptance.
        let mut flipped = wire.clone();
        let pos = flip_pos % flipped.len();
        flipped[pos] ^= 1 << flip_bit;
        prop_assert!(decode_frames(&bytes::Bytes::from(flipped)).is_err());
    }
}
