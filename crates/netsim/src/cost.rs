//! Work-unit cost parameters shared by the engine's own operators and (via
//! re-export) the OCS embedded engine, so a row filtered at the storage
//! layer costs the same *work* as a row filtered at the compute layer —
//! only the node speeds differ (which is the paper's whole point).
//!
//! Units are abstract "value operations"; `netsim::NodeSpec::core_seconds`
//! converts them to simulated time using each node's cores × GHz ×
//! engine-efficiency.

/// Cost coefficients. One instance per engine; defaults are calibrated so
/// the absolute simulated times land in the regime the paper reports (see
/// EXPERIMENTS.md for the calibration table).
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Work per uncompressed byte decoded from the columnar file format.
    pub byte_decode: f64,
    /// Work per byte of Arrow-IPC result deserialized at the engine.
    pub byte_deser: f64,
    /// Work per byte of Arrow-IPC result serialized at the storage side.
    pub byte_ser: f64,
    /// Per-row pipeline overhead for each operator a row passes through.
    pub row_overhead: f64,
    /// Work per row per unit of expression weight (filter/project eval).
    pub expr_eval: f64,
    /// Work per row to hash its group keys.
    pub group_hash: f64,
    /// Work per row per aggregate state update.
    pub agg_update: f64,
    /// Work per row per comparison in sort.
    pub sort_cmp: f64,
    /// Work per row per comparison in bounded top-N.
    pub topn_cmp: f64,
    /// Coordinator work per logical plan node visited during connector
    /// pushdown analysis (the paper's "Logical Plan Analysis", 1 ms).
    pub plan_node_analyze: f64,
    /// Coordinator work per Substrait IR node generated/serialized (the
    /// paper's "Substrait IR Generation", 33 ms for one file's query).
    pub substrait_node_gen: f64,
    /// Coordinator work per split scheduled ("Others" in Table 3).
    pub sched_per_split: f64,
    /// Fixed per-query coordinator work ("Others").
    pub query_fixed: f64,
    /// Frontend work per request relayed.
    pub frontend_per_request: f64,
    /// Frontend work per byte relayed.
    pub frontend_per_byte: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            byte_decode: 0.9,
            byte_deser: 0.55,
            byte_ser: 0.25,
            row_overhead: 6.0,
            expr_eval: 1.0,
            group_hash: 5.0,
            agg_update: 4.0,
            sort_cmp: 3.0,
            topn_cmp: 2.0,
            plan_node_analyze: 8_000.0,
            substrait_node_gen: 25_000.0,
            sched_per_split: 250_000.0,
            query_fixed: 9_000_000.0,
            frontend_per_request: 60_000.0,
            frontend_per_byte: 0.08,
        }
    }
}

impl CostParams {
    /// Work to evaluate an expression of `weight` over `rows` rows.
    pub fn eval_work(&self, rows: u64, weight: u32) -> f64 {
        rows as f64 * (self.row_overhead + self.expr_eval * weight as f64)
    }

    /// Work to update `naggs` aggregate states over `rows` rows grouped by
    /// `nkeys` keys.
    pub fn agg_work(&self, rows: u64, nkeys: usize, naggs: usize) -> f64 {
        rows as f64
            * (self.row_overhead
                + self.group_hash * nkeys.max(1) as f64
                + self.agg_update * naggs as f64)
    }

    /// Work to sort `rows` rows with `nkeys` keys.
    pub fn sort_work(&self, rows: u64, nkeys: usize) -> f64 {
        let n = rows as f64;
        let lg = if rows > 1 { n.log2() } else { 1.0 };
        n * lg * self.sort_cmp * nkeys.max(1) as f64
    }

    /// Work for a bounded top-N pass over `rows` rows keeping `limit`.
    pub fn topn_work(&self, rows: u64, nkeys: usize, limit: u64) -> f64 {
        // Float add: `limit` may be an untrusted `u64::MAX`.
        let lg = (limit as f64 + 1.0).log2().max(1.0);
        rows as f64 * lg * self.topn_cmp * nkeys.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_functions_scale_sensibly() {
        let c = CostParams::default();
        assert!(c.eval_work(1000, 4) > c.eval_work(1000, 1));
        assert!(c.eval_work(2000, 1) > c.eval_work(1000, 1));
        assert!(c.agg_work(1000, 2, 3) > c.agg_work(1000, 1, 1));
        // Full sort of n rows costs more than top-10 of n rows.
        assert!(c.sort_work(100_000, 1) > c.topn_work(100_000, 1, 10));
        // Degenerate inputs don't produce NaN/negative work.
        assert_eq!(c.sort_work(0, 1), 0.0);
        assert!(c.topn_work(0, 0, 0) == 0.0);
        assert!(c.sort_work(1, 1).is_finite());
    }
}
