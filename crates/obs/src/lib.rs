//! `obs` — the observability spine of the reproduction.
//!
//! The paper's §4 "Pushdown Monitoring" argues the engine↔OCS boundary
//! must be *observable* to drive pushdown decisions. This crate is the
//! single instrumentation vocabulary every layer shares:
//!
//! * [`Tracer`] / [`Trace`] — a span tree stamped with the **simulated**
//!   netsim clock (plus optional wall-clock seconds for real CPU work such
//!   as decode/agg kernels). Spans carry explicit [`SpanId`]s so they
//!   survive the RPC boundary: the OCS storage executor records spans on
//!   its own local clock, serializes them as [`SpanRec`]s into the stream
//!   trailer, and the engine *grafts* them back under the query's split
//!   spans ([`Tracer::graft`]).
//! * [`Registry`] — a metrics registry of counters, gauges and
//!   fixed-bucket histograms with a diffable [`Snapshot`], plus a process
//!   [`metrics()`] default used by engine, ocs, netsim and columnar kernels.
//! * [`chrome`] — a Chrome trace-event JSON exporter (loadable in
//!   `chrome://tracing` / Perfetto) and a schema validator used by CI.
//! * [`explain`] — the `EXPLAIN ANALYZE` text renderer: the annotated
//!   span tree with per-operator rows/bytes/seconds.
//! * [`Profile`] — per-resource utilization timelines rebuilt from the
//!   pipeline scheduler's busy intervals, with bottleneck attribution
//!   ([`Profile::bottleneck`]) and Chrome counter-track export
//!   ([`chrome::export_with_profile`]).
//! * [`flight()`] — an always-on, fixed-size, lock-free flight recorder
//!   of cache and backpressure decisions ([`FlightRecorder`]), whose
//!   per-query slice `EXPLAIN ANALYZE` prints.
//!
//! The crate is dependency-free.

#![warn(missing_docs)]

pub mod chrome;
pub mod explain;
pub mod flight;
pub mod metrics;
pub mod profile;
pub mod span;

pub use flight::{flight, FlightEvent, FlightKind, FlightRecorder};
pub use metrics::{metrics, Counter, Gauge, Histogram, MetricValue, Registry, Snapshot};
pub use profile::{Bottleneck, Profile, ResourceTimeline};
pub use span::{
    decode_spans, encode_spans, AttrValue, KernelTimer, Span, SpanGuard, SpanId, SpanRec, Trace,
    Tracer,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide switch for kernel wall-clock timers (off by default so hot
/// loops never pay for `Instant::now` unless a profiling surface asked).
static KERNEL_TIMING: AtomicBool = AtomicBool::new(false);

/// Enable or disable kernel wall-clock timing hooks ([`KernelTimer`]).
pub fn set_kernel_timing(on: bool) {
    // RELAXED: an isolated on/off flag — a timer arming one toggle late
    // is harmless and nothing else is published through it.
    KERNEL_TIMING.store(on, Ordering::Relaxed);
}

/// True when kernel timing hooks should arm.
pub fn kernel_timing_enabled() -> bool {
    // RELAXED: see `set_kernel_timing` — isolated flag read.
    KERNEL_TIMING.load(Ordering::Relaxed)
}
