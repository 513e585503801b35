//! The [`Ledger`]: an accumulator of simulated seconds, bucketed by
//! execution phase. One ledger per query run, built and filled by the
//! thread that runs the query; the bench harness reads it to print
//! Figure-5/6 bars and the Table-3 breakdown.

use std::fmt;

/// Execution phases mirroring the paper's Table 3 breakdown (plus the
/// storage-internal phases our simulation makes visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Logical-plan traversal / pushdown analysis on the coordinator.
    PlanAnalysis,
    /// Substrait IR generation and serialization.
    SubstraitGen,
    /// Disk reads on the storage node.
    StorageDisk,
    /// Decompression on the storage node.
    StorageDecompress,
    /// In-storage operator execution (OCS embedded engine).
    StorageCpu,
    /// OCS frontend work (plan parse, dispatch, result relay).
    FrontendCpu,
    /// Network transfer storage → compute (the paper's "result transfer").
    NetworkTransfer,
    /// Post-scan operator execution on the Presto compute node.
    ComputeCpu,
    /// Everything else (scheduling, split generation, fixed per-query cost).
    Other,
}

impl Phase {
    /// All phases in presentation order.
    pub const ALL: [Phase; 9] = [
        Phase::PlanAnalysis,
        Phase::SubstraitGen,
        Phase::StorageDisk,
        Phase::StorageDecompress,
        Phase::StorageCpu,
        Phase::FrontendCpu,
        Phase::NetworkTransfer,
        Phase::ComputeCpu,
        Phase::Other,
    ];

    /// Display label matching the paper's Table 3 rows where applicable.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::PlanAnalysis => "Logical Plan Analysis",
            Phase::SubstraitGen => "Substrait IR Generation",
            Phase::StorageDisk => "Storage Disk Read",
            Phase::StorageDecompress => "Storage Decompression",
            Phase::StorageCpu => "In-Storage Execution",
            Phase::FrontendCpu => "OCS Frontend",
            Phase::NetworkTransfer => "Pushdown & Result Transfer",
            Phase::ComputeCpu => "Presto Execution (Post-Scan)",
            Phase::Other => "Others",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Bucketed accumulator of simulated seconds, one bucket per [`Phase`].
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    buckets: [f64; Phase::ALL.len()],
}

impl Ledger {
    /// New empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `seconds` of simulated time to `phase`.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        debug_assert!(seconds.is_finite() && seconds >= 0.0, "bad time {seconds}");
        self.buckets[phase as usize] += seconds;
    }

    /// Simulated seconds accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.buckets[phase as usize]
    }

    /// Total simulated seconds across all phases, summed in [`Phase`]
    /// order.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Snapshot of all non-zero buckets in presentation order.
    pub fn snapshot(&self) -> Vec<(Phase, f64)> {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.get(p)))
            .filter(|(_, v)| *v > 0.0)
            .collect()
    }

    /// Lay `items` out as back-to-back phase spans under `parent`,
    /// starting at `t0` on the simulated clock. This is the ledger→span
    /// bridge: the netsim clock has no running "now" (simulated seconds
    /// are computed post-hoc into buckets), so a trace is laid out from
    /// the bucketed seconds, sequentially — which makes the child spans
    /// sum *exactly* to the seconds they were laid from. Zero-length
    /// items are skipped. Returns the cursor after the last span.
    pub fn layout_spans(
        tracer: &obs::Tracer,
        parent: obs::SpanId,
        t0: f64,
        items: &[(Phase, f64)],
    ) -> f64 {
        let mut cursor = t0;
        for (phase, seconds) in items {
            if *seconds <= 0.0 {
                continue;
            }
            tracer.record(
                phase.label(),
                "phase",
                Some(parent),
                cursor,
                cursor + seconds,
            );
            cursor += seconds;
        }
        cursor
    }

    /// Render a Table-3-style breakdown (label, seconds, share%).
    pub fn breakdown(&self) -> Vec<(String, f64, f64)> {
        let snap = self.snapshot();
        let total: f64 = snap.iter().map(|(_, v)| v).sum();
        snap.into_iter()
            .map(|(p, v)| {
                (
                    p.label().to_string(),
                    v,
                    if total > 0.0 { v / total * 100.0 } else { 0.0 },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_phase() {
        let mut l = Ledger::new();
        l.add(Phase::ComputeCpu, 1.5);
        l.add(Phase::ComputeCpu, 0.5);
        l.add(Phase::NetworkTransfer, 3.0);
        assert_eq!(l.get(Phase::ComputeCpu), 2.0);
        assert_eq!(l.get(Phase::NetworkTransfer), 3.0);
        assert_eq!(l.get(Phase::Other), 0.0);
        assert_eq!(l.total(), 5.0);
    }

    #[test]
    fn snapshot_in_presentation_order() {
        let mut l = Ledger::new();
        l.add(Phase::ComputeCpu, 1.0);
        l.add(Phase::PlanAnalysis, 0.1);
        let s = l.snapshot();
        assert_eq!(s[0].0, Phase::PlanAnalysis);
        assert_eq!(s[1].0, Phase::ComputeCpu);
    }

    #[test]
    fn breakdown_shares_sum_to_100() {
        let mut l = Ledger::new();
        l.add(Phase::PlanAnalysis, 1.0);
        l.add(Phase::SubstraitGen, 1.0);
        l.add(Phase::ComputeCpu, 2.0);
        let shares: f64 = l.breakdown().iter().map(|(_, _, s)| s).sum();
        assert!((shares - 100.0).abs() < 1e-9);
    }

    #[test]
    fn layout_spans_sums_exactly() {
        let tracer = obs::Tracer::new();
        let root = tracer.record("query", "phase", None, 0.0, 10.0);
        let end = Ledger::layout_spans(
            &tracer,
            root,
            1.0,
            &[
                (Phase::PlanAnalysis, 0.5),
                (Phase::SubstraitGen, 0.0),
                (Phase::ComputeCpu, 2.5),
            ],
        );
        assert!((end - 4.0).abs() < 1e-12);
        let trace = tracer.finish();
        trace.verify(1e-12).unwrap();
        // Zero-length SubstraitGen skipped; others back-to-back.
        assert_eq!(trace.children(root).len(), 2);
        let sum: f64 = trace.children(root).iter().map(|s| s.seconds()).sum();
        assert!((sum - 3.0).abs() < 1e-12);
        assert_eq!(trace.find(Phase::ComputeCpu.label()).unwrap().start_s, 1.5);
    }
}
