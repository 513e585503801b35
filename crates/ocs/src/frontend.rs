//! The OCS frontend node: the unified endpoint that accepts Substrait IR,
//! dispatches to the storage node, and relays Arrow-serialized results
//! (paper §5.1: "The frontend exposes a unified endpoint to applications,
//! parses incoming queries, and dispatches them to the appropriate
//! storage node"). The paper's testbed, like `netsim::split_phase`'s
//! cost model, has exactly one storage node, so the frontend owns one.
//!
//! [`OcsFrontend::handle_stream`] is the only entry point: plan bytes in,
//! a lazily encoded frame stream out.

use std::sync::Arc;

use netsim::{CostParams, NodeSpec};

use crate::node::StorageNode;
use crate::stream::WireStream;
use crate::{planck, OcsError, OcsResult};

/// The frontend node.
#[derive(Debug)]
pub struct OcsFrontend {
    node: StorageNode,
    spec: NodeSpec,
    cost: CostParams,
}

impl OcsFrontend {
    /// Build a frontend over its storage node; `spec` is the frontend's
    /// own hardware, which bills the relay of every frame.
    pub fn new(node: StorageNode, spec: NodeSpec, cost: CostParams) -> Self {
        OcsFrontend { node, spec, cost }
    }

    /// Decode and verify an untrusted plan, then run it on the storage
    /// node.
    ///
    /// The bytes come from an untrusted peer, so the decoded plan is
    /// verified — structure, typing, operator shape *and* resource caps
    /// ([`planck::Limits::untrusted`]) — before the storage node touches
    /// it, once per split: the node and its executor take the
    /// [`planck::VerifiedPlan`]. A rejection carries the structured
    /// [`planck::Diagnostic`] back across the error frame.
    fn verify_and_execute(
        &self,
        plan_bytes: &[u8],
        bucket: &str,
        key: &str,
    ) -> OcsResult<crate::node::NodeResponse> {
        // Parse the plan (real work, billed to the frontend).
        let plan = substrait_ir::decode(plan_bytes)
            .map_err(|e| OcsError::Plan(planck::Diagnostic::from_ir(&e, "root")))?;
        let verified = planck::verify_untrusted(&plan).map_err(planck::primary)?;
        // The wire bytes ARE the canonical encoding, so hash them directly
        // for the result-cache fingerprint instead of re-encoding.
        self.node
            .execute_encoded(&verified, bucket, key, cache::fnv1a64(plan_bytes))
    }

    /// Handle one request: Substrait plan bytes in, a lazy [`WireStream`]
    /// out that encodes one frame per result batch as the consumer pulls,
    /// closing with a trailer frame carrying the request's
    /// [`netsim::ExecStats`].
    pub fn handle_stream(
        &self,
        plan_bytes: &[u8],
        bucket: &str,
        key: &str,
    ) -> OcsResult<WireStream> {
        let resp = self.verify_and_execute(plan_bytes, bucket, key)?;
        let schema = match resp.batches.first() {
            Some(b) => b.schema().clone(),
            None => Arc::new(columnar::Schema::empty()),
        };
        Ok(WireStream::new(
            schema,
            resp,
            plan_bytes.len(),
            self.spec.clone(),
            self.cost.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::prelude::*;
    use objstore::ObjectStore;
    use substrait_ir::{Expr, Plan, Rel};

    fn frontend() -> (OcsFrontend, Schema) {
        let store = Arc::new(ObjectStore::new());
        store.create_bucket("lake").unwrap();
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64, false)]));
        for i in 0..4 {
            let batch = RecordBatch::try_new(
                schema.clone(),
                vec![Arc::new(Array::from_i64(
                    (i * 100..(i + 1) * 100).collect(),
                ))],
            )
            .unwrap();
            let bytes =
                parq::writer::write_file(schema.clone(), &[batch], Default::default()).unwrap();
            store
                .put_object("lake", &format!("t/{i}"), bytes.into())
                .unwrap();
        }
        let cost = CostParams::default();
        let spec = NodeSpec {
            name: "storage",
            cores: 16,
            ghz: 2.0,
            eff_decode: 0.06,
            eff_vector: 0.12,
            eff_expr: 0.03,
        };
        let storage = StorageNode::new(
            store,
            spec,
            netsim::DiskSpec { read_gbps: 2.0 },
            cost.clone(),
        );
        (
            OcsFrontend::new(
                storage,
                NodeSpec {
                    name: "frontend",
                    cores: 48,
                    ghz: 3.9,
                    eff_decode: 0.05,
                    eff_vector: 0.05,
                    eff_expr: 0.05,
                },
                cost,
            ),
            (*schema).clone(),
        )
    }

    /// Pull every frame through a decoder: the batches, the trailer's
    /// statistics, and the per-frame frontend seconds summed.
    fn drain(mut stream: WireStream) -> (Vec<RecordBatch>, netsim::ExecStats, f64) {
        let mut dec = columnar::ipc::FrameDecoder::new();
        let mut batches = Vec::new();
        let mut trailer = None;
        let mut frontend_sum = 0.0;
        while let Some(frame) = stream.next_frame() {
            frontend_sum += frame.timing.frontend_s;
            dec.feed(frame.bytes);
            while let Some(f) = dec.next_frame().unwrap() {
                match f {
                    columnar::ipc::Frame::Schema(_) => {}
                    columnar::ipc::Frame::Batch(b) => batches.push(b),
                    columnar::ipc::Frame::Trailer(t) => {
                        trailer = Some(netsim::ExecStats::decode(&t).unwrap());
                    }
                }
            }
        }
        dec.finish().unwrap();
        (
            batches,
            trailer.expect("trailer frame carries stats"),
            frontend_sum,
        )
    }

    #[test]
    fn handles_wire_roundtrip() {
        let (fe, schema) = frontend();
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", schema, None)),
            predicate: Expr::cmp(
                columnar::kernels::cmp::CmpOp::GtEq,
                Expr::field(0),
                Expr::lit(Scalar::Int64(150)),
            ),
        });
        let bytes = substrait_ir::encode(&plan);
        let (batches, stats, _) = drain(fe.handle_stream(&bytes, "lake", "t/1").unwrap());
        let rows: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(rows, 50, "rows 150..199 of object t/1");
        assert_eq!(stats.rows_returned, 50);
        assert!(stats.frontend_cpu_s > 0.0);
        assert!(stats.storage_cpu_s > 0.0);
    }

    #[test]
    fn stream_frames_match_buffered_payload() {
        // The oracle is the storage node called directly — no encode, no
        // decode — for every fixture object.
        let (fe, schema) = frontend();
        let plan = Plan::new(Rel::read("t", schema, None));
        let bytes = substrait_ir::encode(&plan);
        for i in 0..4 {
            let key = format!("t/{i}");
            let direct = fe.node.execute(&plan, "lake", &key).unwrap();
            let (got, stats, frontend_sum) = drain(fe.handle_stream(&bytes, "lake", &key).unwrap());
            assert_eq!(got, direct.batches, "object {key}");
            // Every counter matches; only the frontend's relay bill is
            // added (spans carry wall-clock attributes, so they differ).
            assert_eq!(
                netsim::ExecStats {
                    frontend_cpu_s: 0.0,
                    spans: Vec::new(),
                    ..stats
                },
                netsim::ExecStats {
                    spans: Vec::new(),
                    ..direct.stats
                },
                "object {key}"
            );
            assert_eq!(stats.rows_returned, 100);
            // The trailer's frontend total is exactly the per-frame sum.
            assert!((stats.frontend_cpu_s - frontend_sum).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_garbage_plans() {
        let (fe, _) = frontend();
        let err = fe.handle_stream(b"not a plan", "lake", "t/0").unwrap_err();
        let diag = err.diagnostic().expect("garbage is a plan error");
        assert_eq!(diag.code, substrait_ir::DiagCode::Corrupt);
    }

    #[test]
    fn decoded_plans_are_hard_verified_with_diagnostics() {
        let (fe, schema) = frontend();
        // Decodes fine, but references a field outside the scan arity —
        // the untrusted verify pass must reject it with code + path.
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", schema, None)),
            predicate: Expr::cmp(
                columnar::kernels::cmp::CmpOp::Eq,
                Expr::field(40),
                Expr::lit(Scalar::Int64(0)),
            ),
        });
        let bytes = substrait_ir::encode(&plan);
        let err = fe.handle_stream(&bytes, "lake", "t/0").unwrap_err();
        let diag = err.diagnostic().expect("invalid plan is a plan error");
        assert_eq!(diag.code, substrait_ir::DiagCode::FieldOutOfRange);
        assert_eq!(diag.path, "root.predicate.left");
        // The rendered error names the offending node for engine logs.
        assert!(err.to_string().contains("P200"), "{err}");
        assert!(err.to_string().contains("root.predicate.left"), "{err}");
    }

    #[test]
    fn untrusted_fetch_bounds_do_not_overflow() {
        // `offset + limit` arrives as two raw varints; planck does not cap
        // them, so the executor must not wrap (0 rows) or panic.
        let (fe, schema) = frontend();
        let plan = Plan::new(Rel::Fetch {
            offset: 1,
            limit: u64::MAX,
            input: Box::new(Rel::Sort {
                input: Box::new(Rel::read("t", schema, None)),
                keys: vec![substrait_ir::SortField {
                    expr: Expr::field(0),
                    ascending: true,
                    nulls_first: true,
                }],
            }),
        });
        let bytes = substrait_ir::encode(&plan);
        assert_eq!(substrait_ir::decode(&bytes).unwrap(), plan);
        let (batches, _, _) = drain(fe.handle_stream(&bytes, "lake", "t/1").unwrap());
        let rows: Vec<i64> = batches
            .iter()
            .flat_map(|b| b.column(0).as_i64().unwrap().values.iter().copied())
            .collect();
        assert_eq!(rows, (101..200).collect::<Vec<i64>>(), "all but row 100");
    }

    #[test]
    fn missing_object_is_storage_error() {
        let (fe, schema) = frontend();
        let plan = Plan::new(Rel::read("t", schema, None));
        let bytes = substrait_ir::encode(&plan);
        assert!(matches!(
            fe.handle_stream(&bytes, "lake", "ghost"),
            Err(OcsError::Storage(_))
        ));
    }
}
