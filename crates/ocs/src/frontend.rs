//! The OCS frontend node: the unified endpoint that accepts Substrait IR,
//! dispatches to the storage node owning the target object, and relays
//! Arrow-serialized results (paper §5.1: "The frontend exposes a unified
//! endpoint to applications, parses incoming queries, and dispatches them
//! to the appropriate storage node").
//!
//! [`OcsFrontend::handle_stream`] is the only entry point: plan bytes in,
//! a lazily encoded frame stream out.

use std::collections::HashMap;
use std::sync::Arc;

use netsim::{CostParams, NodeSpec};
use sync::DebugMutex;

use crate::node::StorageNode;
use crate::stream::WireStream;
use crate::{planck, OcsError, OcsResult};

/// Cache-affinity routing state: each key's sticky owner plus per-node
/// assignment counts for the overflow fallback.
#[derive(Debug, Default)]
struct RouterState {
    owner: HashMap<String, usize>,
    load: Vec<usize>,
}

/// The frontend node.
#[derive(Debug)]
pub struct OcsFrontend {
    nodes: Vec<Arc<StorageNode>>,
    spec: NodeSpec,
    cost: CostParams,
    router: DebugMutex<RouterState>,
}

impl OcsFrontend {
    /// Build a frontend over `nodes`.
    pub fn new(nodes: Vec<Arc<StorageNode>>, spec: NodeSpec, cost: CostParams) -> Self {
        assert!(!nodes.is_empty(), "OCS needs at least one storage node");
        let router = DebugMutex::named(
            "ocs.frontend.router",
            50,
            RouterState {
                owner: HashMap::new(),
                load: vec![0; nodes.len()],
            },
        );
        OcsFrontend {
            nodes,
            spec,
            cost,
            router,
        }
    }

    /// Which node owns `key` — cache-affinity routing.
    ///
    /// A key's first request hashes it to its *natural* owner and the
    /// assignment is remembered; every later scan of the same object goes
    /// to the node already holding its decoded row groups and cached
    /// results. When the natural owner is overloaded (its assignment
    /// count is at least twice the balanced share), the key falls back to
    /// the least-loaded node instead — and sticks *there*, so the entries
    /// it warms still have a single home.
    pub(crate) fn route(&self, key: &str) -> &Arc<StorageNode> {
        &self.nodes[self.route_index(key)]
    }

    fn route_index(&self, key: &str) -> usize {
        let n = self.nodes.len();
        let mut state = self.router.lock();
        if let Some(&idx) = state.owner.get(key) {
            return idx;
        }
        let hash = cache::fnv1a64(key.as_bytes());
        let natural = (hash % n as u64) as usize;
        let total: usize = state.load.iter().sum();
        let threshold = 2 * (total / n + 1);
        let idx = if state.load[natural] >= threshold {
            state
                .load
                .iter()
                .enumerate()
                .min_by_key(|&(_, l)| *l)
                .map(|(i, _)| i)
                .unwrap_or(natural)
        } else {
            natural
        };
        state.owner.insert(key.to_string(), idx);
        state.load[idx] += 1;
        // Flight-record the assignment (first routing of each key only;
        // the memoized path above is silent). The recorder takes no locks,
        // so recording under the router mutex cannot invert lock order.
        if idx == natural {
            obs::flight().record(
                obs::FlightKind::RouteNatural,
                idx as u64,
                state.load[idx] as u64,
                hash,
            );
        } else {
            obs::flight().record(
                obs::FlightKind::RouteSpill,
                natural as u64,
                idx as u64,
                hash,
            );
        }
        idx
    }

    /// Decode and verify an untrusted plan, then run it on the node
    /// owning `key`.
    ///
    /// The bytes come from an untrusted peer, so the decoded plan is
    /// verified — structure, typing, operator shape *and* resource caps
    /// ([`planck::Limits::untrusted`]) — before any storage node touches
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
        self.route(key)
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

    fn frontend(nodes: usize) -> (OcsFrontend, Schema) {
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
        let storage: Vec<Arc<StorageNode>> = (0..nodes)
            .map(|id| {
                Arc::new(StorageNode::new(
                    id,
                    store.clone(),
                    spec.clone(),
                    netsim::DiskSpec { read_gbps: 2.0 },
                    cost.clone(),
                ))
            })
            .collect();
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
        let (fe, schema) = frontend(1);
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
        // The oracle is the owning storage node called directly — no
        // encode, no decode.
        let (fe, schema) = frontend(1);
        let plan = Plan::new(Rel::read("t", schema, None));
        let bytes = substrait_ir::encode(&plan);
        let direct = fe.route("t/2").execute(&plan, "lake", "t/2").unwrap();

        let (got, stats, frontend_sum) = drain(fe.handle_stream(&bytes, "lake", "t/2").unwrap());
        assert_eq!(got, direct.batches);
        assert_eq!(stats.rows_returned, direct.stats.rows_returned);
        assert_eq!(stats.disk_bytes, direct.stats.disk_bytes);
        assert_eq!(stats.storage_cpu_s, direct.stats.storage_cpu_s);
        // The trailer's frontend total is exactly the per-frame sum.
        assert!((stats.frontend_cpu_s - frontend_sum).abs() < 1e-12);
    }

    #[test]
    fn multi_node_sharding_matches_single_node() {
        // Satellite: keys spread over >=2 storage nodes must behave
        // exactly like a single-node deployment — identical batches and
        // identical (summed) stats per key.
        let (single, schema) = frontend(1);
        let (multi, _) = frontend(3);
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", schema, None)),
            predicate: Expr::cmp(
                columnar::kernels::cmp::CmpOp::GtEq,
                Expr::field(0),
                Expr::lit(Scalar::Int64(50)),
            ),
        });
        let bytes = substrait_ir::encode(&plan);

        // The 4 objects must actually land on >=2 distinct nodes.
        let mut nodes_hit = std::collections::HashSet::new();
        for i in 0..4 {
            nodes_hit.insert(multi.route(&format!("t/{i}")).id());
        }
        assert!(nodes_hit.len() >= 2, "keys all routed to one node");

        let mut single_total = netsim::ExecStats::default();
        let mut multi_total = netsim::ExecStats::default();
        for i in 0..4 {
            let key = format!("t/{i}");
            let (a, a_stats, _) = drain(single.handle_stream(&bytes, "lake", &key).unwrap());
            let (b, b_stats, _) = drain(multi.handle_stream(&bytes, "lake", &key).unwrap());
            assert_eq!(a, b, "object {key}: sharded result differs");
            single_total.merge(&a_stats);
            multi_total.merge(&b_stats);
        }
        // Span names embed the executing node's id, which legitimately
        // differs under sharding; every counter must still match.
        single_total.spans.clear();
        multi_total.spans.clear();
        assert_eq!(single_total, multi_total, "summed stats must match");
        assert_eq!(single_total.rows_scanned, 400);
        // 100 rows per object; objects 0 contributes 50, rest 100 each.
        assert_eq!(single_total.rows_returned, 350);
    }

    #[test]
    fn rejects_garbage_plans() {
        let (fe, _) = frontend(1);
        let err = fe.handle_stream(b"not a plan", "lake", "t/0").unwrap_err();
        let diag = err.diagnostic().expect("garbage is a plan error");
        assert_eq!(diag.code, substrait_ir::DiagCode::Corrupt);
    }

    #[test]
    fn decoded_plans_are_hard_verified_with_diagnostics() {
        let (fe, schema) = frontend(1);
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
        let (fe, schema) = frontend(1);
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
    fn routing_is_stable_and_covers_nodes() {
        let (fe, _) = frontend(3);
        let a = fe.route("t/0").id();
        let b = fe.route("t/0").id();
        assert_eq!(a, b, "same key routes to the same node");
        // Different keys spread across nodes (statistically).
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(fe.route(&format!("key-{i}")).id());
        }
        assert!(seen.len() >= 2, "hash routing should hit multiple nodes");
    }

    #[test]
    fn overloaded_natural_owner_falls_back_to_least_loaded() {
        let (fe, _) = frontend(3);
        // Force every key's natural owner to one node by assigning keys
        // until the threshold trips, then check a fresh key whose natural
        // owner is saturated lands elsewhere — and sticks there.
        let natural_of = |key: &str| (cache::fnv1a64(key.as_bytes()) % 3) as usize;
        // Find many keys sharing natural owner 0.
        let clustered: Vec<String> = (0..10_000)
            .map(|i| format!("hot-{i}"))
            .filter(|k| natural_of(k) == 0)
            .take(16)
            .collect();
        assert!(clustered.len() >= 16);
        let mut first_spill = None;
        for k in &clustered {
            let id = fe.route(k).id();
            if id != 0 && first_spill.is_none() {
                first_spill = Some((k.clone(), id));
            }
        }
        let (spill_key, spill_node) =
            first_spill.expect("threshold must spill some clustered keys");
        // The spilled key is sticky on its fallback node.
        assert_eq!(fe.route(&spill_key).id(), spill_node);
        // Load stayed bounded: node 0 holds at most twice the fair share.
        let loads = {
            let state = fe.router.lock();
            state.load.clone()
        };
        let total: usize = loads.iter().sum();
        assert_eq!(total, clustered.len());
        assert!(
            loads[0] <= 2 * (total / 3 + 1),
            "natural owner overloaded: {loads:?}"
        );
    }

    #[test]
    fn missing_object_is_storage_error() {
        let (fe, schema) = frontend(1);
        let plan = Plan::new(Rel::read("t", schema, None));
        let bytes = substrait_ir::encode(&plan);
        assert!(matches!(
            fe.handle_stream(&bytes, "lake", "ghost"),
            Err(OcsError::Storage(_))
        ));
    }
}
