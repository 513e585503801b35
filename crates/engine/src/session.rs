//! The engine façade: connector registry, query lifecycle, event listeners.

use std::collections::HashMap;
use std::sync::Arc;

use columnar::prelude::*;
use netsim::{ClusterSpec, CostParams, ExecStats, Ledger};
use sqlparse::{Query, StatementKind};
use sync::DebugRwLock;

use crate::analyzer::{analyze, AnalyzedQuery};
use crate::catalog::Metastore;
use crate::error::{EResult, EngineError};
use crate::exec::execute_plan;
use crate::optimizer;
use crate::plan::LogicalPlan;
use crate::spi::{Connector, OptimizerContext};

/// Event emitted after every query (Presto's `EventListener` mechanism,
/// which the paper's connector uses for pushdown monitoring): the finished
/// result, borrowed, plus what only the plan knows.
#[derive(Debug, Clone, Copy)]
pub struct QueryEvent<'a> {
    /// The SQL text.
    pub sql: &'a str,
    /// Description of the scan handle (reveals what was pushed down).
    pub scan_handle: &'a str,
    /// Whether the scan handle pushed any operators into storage
    /// ([`crate::spi::TableHandle::pushes_operators`]).
    pub pushed: bool,
    /// Everything the query reported back.
    pub result: &'a QueryResult,
}

/// Observer of query completion.
pub trait EventListener: Send + Sync {
    /// Called once per successfully executed query.
    fn query_completed(&self, event: &QueryEvent<'_>);
}

/// A finished query.
#[derive(Debug)]
pub struct QueryResult {
    /// Client-visible rows (output projection and names applied).
    pub batch: RecordBatch,
    /// Simulated-time ledger.
    pub ledger: Ledger,
    /// Total simulated seconds.
    pub simulated_seconds: f64,
    /// Bytes moved storage → compute.
    pub moved_bytes: u64,
    /// Splits executed.
    pub splits: usize,
    /// Storage-side statistics, summed over the query's splits: row groups
    /// skipped and bytes never decoded by late materialization, cache hits
    /// and bytes the caches kept off the ledger, rows, core-seconds.
    /// `spans` is empty — the span tree is `trace`.
    pub stats: ExecStats,
    /// Pretty-printed logical plan (pre-optimization).
    pub logical_plan: String,
    /// Pretty-printed optimized plan (post connector pushdown).
    pub optimized_plan: String,
    /// Operator chain string (Table 2 style).
    pub chain: String,
    /// The priced split phase (overlapped vs. additive makespan,
    /// streaming observability).
    pub pipeline: netsim::SplitPhase,
    /// The query's span tree on the simulated clock.
    pub trace: Arc<obs::Trace>,
    /// Per-resource utilization timelines over the split phase, with
    /// bottleneck attribution ([`obs::Profile::bottleneck`]).
    pub profile: Arc<obs::Profile>,
}

/// Output of [`Engine::execute_statement`]: rows for a plain query, text
/// for `EXPLAIN` / `EXPLAIN ANALYZE`.
#[derive(Debug)]
pub enum StatementOutput {
    /// A plain query's result (boxed: `QueryResult` is a large struct).
    Rows(Box<QueryResult>),
    /// Rendered `EXPLAIN` plan or `EXPLAIN ANALYZE` span tree.
    Text(String),
}

/// Builder for [`Engine`].
pub struct EngineBuilder {
    cluster: ClusterSpec,
    cost: CostParams,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            cluster: ClusterSpec::paper_testbed(),
            cost: CostParams::default(),
        }
    }
}

impl EngineBuilder {
    /// Start from defaults (the paper's testbed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the cluster model.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Override cost parameters.
    pub fn cost(mut self, cost: CostParams) -> Self {
        self.cost = cost;
        self
    }

    /// Build the engine.
    pub fn build(self) -> Engine {
        Engine {
            metastore: Arc::new(Metastore::new()),
            connectors: DebugRwLock::named("engine.session.connectors", 10, HashMap::new()),
            listeners: DebugRwLock::named("engine.session.listeners", 20, Vec::new()),
            cluster: self.cluster,
            cost: self.cost,
        }
    }
}

/// The query engine (coordinator + in-process workers).
pub struct Engine {
    metastore: Arc<Metastore>,
    connectors: DebugRwLock<HashMap<String, Arc<dyn Connector>>>,
    listeners: DebugRwLock<Vec<Arc<dyn EventListener>>>,
    cluster: ClusterSpec,
    cost: CostParams,
}

impl Engine {
    /// The metastore, for dataset registration.
    pub fn metastore(&self) -> &Arc<Metastore> {
        &self.metastore
    }

    /// The cluster model in force.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The cost parameters in force.
    pub fn cost_params(&self) -> &CostParams {
        &self.cost
    }

    /// Register a connector under its own name.
    pub fn register_connector(&self, connector: Arc<dyn Connector>) {
        self.connectors
            .write()
            .insert(connector.name().to_string(), connector);
    }

    /// Attach an event listener.
    pub fn add_listener(&self, listener: Arc<dyn EventListener>) {
        self.listeners.write().push(listener);
    }

    /// Parse + analyze + optimize, without executing. Returns the analyzed
    /// query and the optimized plan.
    pub fn plan(&self, sql: &str) -> EResult<(AnalyzedQuery, LogicalPlan)> {
        let query = sqlparse::parse(sql)?;
        let (analyzed, plan, _) = self.plan_parsed(&query)?;
        Ok((analyzed, plan))
    }

    /// Analyze, run the global optimizer, then the scan connector's local
    /// hook. Also returns the node count of the plan the hook was handed —
    /// the traversal that plan-analysis billing charges for, whether or
    /// not a hook is present.
    fn plan_parsed(&self, query: &Query) -> EResult<(AnalyzedQuery, LogicalPlan, usize)> {
        let analyzed = analyze(query, &self.metastore)?;
        let plan = optimizer::optimize(analyzed.plan.clone())?;
        let traversed_nodes = plan.node_count();
        // Connector-specific local optimization (the paper's hook). A
        // connector rewrite is a rule like any other: it must preserve the
        // plan's output schema, so it runs under the same differential
        // invariant check as the global rules.
        let hook = self
            .connectors
            .read()
            .get(&plan.scan().connector)
            .and_then(|c| c.plan_optimizer());
        let plan = match hook {
            Some(opt) => {
                let baseline = plan.schema()?;
                let ctx = OptimizerContext {
                    metastore: &self.metastore,
                    cost: &self.cost,
                };
                optimizer::checked("connector pushdown", &baseline, opt.optimize(plan, &ctx)?)?
            }
            None => plan,
        };
        Ok((analyzed, plan, traversed_nodes))
    }

    /// Execute a SQL query end to end.
    pub fn execute(&self, sql: &str) -> EResult<QueryResult> {
        let query = sqlparse::parse(sql)?;
        self.execute_parsed(&query, sql)
    }

    /// Execute a statement: a plain query returns rows; `EXPLAIN` returns
    /// the optimized plan without executing; `EXPLAIN ANALYZE` executes
    /// and renders the annotated span tree over the simulated clock.
    pub fn execute_statement(&self, sql: &str) -> EResult<StatementOutput> {
        let stmt = sqlparse::parse_statement(sql)?;
        match stmt.kind {
            StatementKind::Query => Ok(StatementOutput::Rows(Box::new(
                self.execute_parsed(&stmt.query, sql)?,
            ))),
            StatementKind::Explain => {
                let (_, plan, _) = self.plan_parsed(&stmt.query)?;
                Ok(StatementOutput::Text(format!(
                    "EXPLAIN\nquery: {}\n\n{plan}",
                    sql.trim()
                )))
            }
            StatementKind::ExplainAnalyze => {
                let flight_start = obs::flight().cursor();
                let result = self.execute_parsed(&stmt.query, sql)?;
                let mut text = obs::explain::render_analyze(sql.trim(), &result.trace);
                if let Some(b) = result.profile.bottleneck() {
                    text.push_str(&format!("\nbottleneck: {b}\n"));
                }
                // One process-wide ring: a concurrent query's events land
                // in this slice too, and the header says so.
                let events = obs::flight().since(flight_start);
                if !events.is_empty() {
                    text.push_str(&format!(
                        "flight events during query, process-wide ({}, last {} shown):\n",
                        events.len(),
                        events.len().min(8)
                    ));
                    // Counts over the whole slice, kinds in first-seen
                    // order: the tail below may show one kind only.
                    let mut by_kind: Vec<(obs::FlightKind, usize)> = Vec::new();
                    for e in &events {
                        match by_kind.iter_mut().find(|(k, _)| *k == e.kind) {
                            Some((_, n)) => *n += 1,
                            None => by_kind.push((e.kind, 1)),
                        }
                    }
                    let counts: Vec<String> = by_kind
                        .iter()
                        .map(|(k, n)| format!("{} {n}", k.label()))
                        .collect();
                    text.push_str(&format!("  by kind: {}\n", counts.join(", ")));
                    let tail = events.len().saturating_sub(8);
                    for e in &events[tail..] {
                        text.push_str(&format!("  #{} {}\n", e.seq, e.describe()));
                    }
                }
                Ok(StatementOutput::Text(text))
            }
        }
    }

    fn execute_parsed(&self, query: &Query, sql: &str) -> EResult<QueryResult> {
        let (analyzed, plan, traversed_nodes) = self.plan_parsed(query)?;
        let logical_plan = analyzed.plan.to_string();
        // Table 3's "Logical Plan Analysis".
        let analysis_work = self.cost.plan_node_analyze * traversed_nodes as f64;
        let optimized_plan = plan.to_string();
        let chain = plan.chain_description();

        let connectors = self.connectors.read().clone();
        let tracer = obs::Tracer::new();
        let outcome = execute_plan(
            &plan,
            &self.metastore,
            &connectors,
            &self.cluster,
            &self.cost,
            &tracer,
            self.cluster.compute.core_seconds(analysis_work),
        )?;

        // Apply the client output projection (names + order).
        let projected = outcome.batch.project(&analyzed.output_columns)?;
        let fields = projected
            .schema()
            .fields()
            .iter()
            .zip(&analyzed.output_names)
            .map(|(f, name)| Field::new(name.clone(), f.data_type, f.nullable))
            .collect::<Vec<_>>();
        let batch =
            RecordBatch::try_new(Arc::new(Schema::new(fields)), projected.columns().to_vec())
                .map_err(EngineError::Columnar)?;

        let simulated_seconds = outcome.ledger.total();
        let trace = Arc::new(tracer.finish());
        let profile = Arc::new(outcome.profile);

        let m = obs::metrics();
        m.counter("engine.queries").inc();
        m.counter("engine.moved_bytes")
            .add(outcome.pipeline.moved_bytes);
        m.counter("engine.result_rows").add(batch.num_rows() as u64);
        m.histogram("engine.simulated_seconds", obs::metrics::SECONDS_BUCKETS)
            .observe(simulated_seconds);

        let result = QueryResult {
            batch,
            simulated_seconds,
            moved_bytes: outcome.pipeline.moved_bytes,
            splits: outcome.splits,
            stats: outcome.stats,
            ledger: outcome.ledger,
            logical_plan,
            optimized_plan,
            chain,
            pipeline: outcome.pipeline,
            trace,
            profile,
        };
        let handle = &plan.scan().handle;
        let scan_handle = handle.describe();
        let event = QueryEvent {
            sql,
            scan_handle: &scan_handle,
            pushed: handle.pushes_operators(),
            result: &result,
        };
        for l in self.listeners.read().iter() {
            l.query_completed(&event);
        }
        Ok(result)
    }
}
