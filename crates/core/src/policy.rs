//! Pushdown policy: which operator classes may be offloaded, and the
//! thresholds the Selectivity Analyzer applies.
//!
//! The paper's Figure 5 sweeps exactly these knobs ("query pushdown was
//! progressively applied to SQL operators in execution order").

/// User-configurable pushdown policy for one OCS connector instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PushdownPolicy {
    /// Offload `WHERE` filters.
    pub filter: bool,
    /// Offload expression projections.
    pub project: bool,
    /// Offload aggregations (as partial aggregation).
    pub aggregate: bool,
    /// Offload `ORDER BY … LIMIT` (top-N).
    pub topn: bool,
    /// Offload bare `ORDER BY` (only useful on already-reduced data).
    pub sort: bool,
    /// Maximum estimated output/input ratio for an operator to be worth
    /// pushing (the paper: "operators with selectivity above the threshold
    /// … are marked as pushdown candidates"; we express it as a *reduction*
    /// requirement — estimated output/input must be **below** this).
    pub selectivity_threshold: f64,
    /// Maximum per-row expression weight the weak storage node should
    /// accept for compute-only operators (projection). `u32::MAX`
    /// disables the guard — which is how Figure 5's "+Proj" configurations
    /// reproduce the paper's projection-pushdown slowdown.
    pub max_project_weight: u32,
}

impl PushdownPolicy {
    /// Everything on, thresholds permissive — the paper's "all operators"
    /// configuration.
    pub fn all() -> Self {
        PushdownPolicy {
            filter: true,
            project: true,
            aggregate: true,
            topn: true,
            sort: true,
            selectivity_threshold: 1.0,
            max_project_weight: u32::MAX,
        }
    }

    /// Nothing pushed (plain column-projected reads).
    pub fn none() -> Self {
        PushdownPolicy {
            filter: false,
            project: false,
            aggregate: false,
            topn: false,
            sort: false,
            selectivity_threshold: 1.0,
            max_project_weight: u32::MAX,
        }
    }

    /// Filter-only — the S3-Select capability level, the paper's baseline.
    pub fn filter_only() -> Self {
        PushdownPolicy {
            filter: true,
            ..Self::none()
        }
    }

    /// Filter + expression projection (the configuration in which the
    /// paper observes slowdowns on the weak storage node).
    pub fn filter_project() -> Self {
        PushdownPolicy {
            filter: true,
            project: true,
            ..Self::none()
        }
    }

    /// Filter + projection + aggregation.
    pub fn filter_project_aggregate() -> Self {
        PushdownPolicy {
            filter: true,
            project: true,
            aggregate: true,
            ..Self::none()
        }
    }
}

impl Default for PushdownPolicy {
    fn default() -> Self {
        Self::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_compose_sensibly() {
        assert!(PushdownPolicy::all().filter);
        assert!(PushdownPolicy::all().topn);
        let f = PushdownPolicy::filter_only();
        assert!(f.filter && !f.project && !f.aggregate && !f.topn);
        let fp = PushdownPolicy::filter_project();
        assert!(fp.filter && fp.project && !fp.aggregate);
        let fpa = PushdownPolicy::filter_project_aggregate();
        assert!(fpa.aggregate && !fpa.topn);
        assert!(!PushdownPolicy::none().filter);
        assert_eq!(PushdownPolicy::default(), PushdownPolicy::all());
    }
}
