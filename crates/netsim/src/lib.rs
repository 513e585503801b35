//! `netsim` — a deterministic resource cost model for a disaggregated
//! compute/storage cluster.
//!
//! The paper's testbed is three physical machines (a strong compute node, an
//! OCS frontend, and a deliberately weak storage node) on 10 GbE. This crate
//! substitutes that hardware with an explicit, auditable model:
//!
//! * every **operator** bills abstract CPU *work units* to the node it runs
//!   on ([`NodeSpec`] converts work to seconds given core count, clock and
//!   an engine-efficiency factor);
//! * every **disk read** bills (compressed) bytes to a [`DiskSpec`];
//! * every **network transfer** bills bytes + a per-request latency to a
//!   [`LinkSpec`] and counts toward the data movement the figures report;
//! * every finished split is one [`SplitReport`], and [`split_phase`]
//!   composes all of a query's reports into one overlapped six-stage
//!   timeline (disk → decompress → storage CPU → frontend → network →
//!   compute) whose makespan the [`Ledger`] is billed.
//!
//! Execution elsewhere in the workspace is *real* (actual vectorized
//! kernels over actual data); only *time* comes from this model. That is
//! exactly the mechanism behind the paper's findings — e.g. expression
//! projection pushdown loses because the same work units cost more seconds
//! on 16 × 2.0 GHz than on 64 × 2.9 GHz, while aggregation pushdown wins
//! because it collapses the bytes crossing the link.

#![warn(missing_docs)]

pub mod cost;
pub mod ledger;
pub mod meter;
pub mod sched;
pub mod spec;
pub mod split;
pub mod stats;

pub use cost::CostParams;
pub use ledger::{Ledger, Phase};
pub use sched::{makespan, pipeline_grouped, PipelineReport};
pub use spec::{ClusterSpec, DiskSpec, LinkSpec, NodeSpec, Work};
pub use split::{split_phase, SplitPhase, SplitReport, StageBusy};
pub use stats::{ExecStats, FrameTiming};
