//! A small metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Instruments are cheap handles onto registry-owned atomics, so call
//! sites can cache them or re-look them up by name; either way updates
//! are lock-free. [`Registry::snapshot`] freezes every instrument into a
//! plain map that tests diff with [`Snapshot::diff`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sync::DebugMutex;

/// Histogram bucket bounds for second-scale latencies (upper-inclusive
/// edges; an implicit +inf bucket catches the rest).
pub const SECONDS_BUCKETS: &[f64] = &[
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
];

/// Histogram bucket bounds for byte sizes (1 KiB … 1 GiB).
pub const BYTES_BUCKETS: &[f64] = &[
    1024.0,
    16.0 * 1024.0,
    64.0 * 1024.0,
    256.0 * 1024.0,
    1024.0 * 1024.0,
    4.0 * 1024.0 * 1024.0,
    16.0 * 1024.0 * 1024.0,
    64.0 * 1024.0 * 1024.0,
    256.0 * 1024.0 * 1024.0,
    1024.0 * 1024.0 * 1024.0,
];

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        // RELAXED: an isolated statistics cell — no other memory is
        // published by an increment, readers tolerate any interleaving.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // RELAXED: statistics read; snapshots don't order against writers.
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that can move both ways (queue depths, buffered bytes).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Record a new value and keep the maximum (high-water marks).
    pub fn record_max(&self, v: i64) {
        // RELAXED: an isolated statistics cell — the level itself is the
        // only state, nothing else is published through it.
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // RELAXED: statistics read; snapshots don't order against writers.
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<f64>,
    /// One count per bound, plus a trailing +inf bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 sum as bits, updated with a CAS loop (no atomic f64 in std).
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let i = self
            .0
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.0.bounds.len());
        // RELAXED: independent statistical counters — readers tolerate a
        // momentarily torn bucket/count/sum view, nothing else is
        // published through them.
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
        // RELAXED: same isolated-statistics argument as the bucket above.
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // RELAXED: seed read for the CAS loop below, re-read on failure.
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            // RELAXED: CAS retry loop over a single cell — the exchanged
            // bits carry all the state, no cross-cell ordering needed.
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        // RELAXED: statistics read; snapshots don't order against writers.
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        // RELAXED: statistics read; snapshots don't order against writers.
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket counts (one entry per bound, plus the +inf bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            // RELAXED: statistics read; a torn multi-bucket view is fine.
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Estimate the `q`-quantile (`0.0..=1.0`) of a log-bucket histogram by
/// linear interpolation inside the bucket holding the rank.
///
/// `buckets` has one count per bound plus a trailing +inf bucket. The
/// rank's bucket spans `(previous bound, its bound]` (the first bucket's
/// lower edge is 0); the estimate interpolates linearly through that
/// span by the rank's position among the bucket's observations. A rank
/// landing in the +inf bucket is clamped to the last finite bound (the
/// histogram cannot see past it). Returns `None` for an empty histogram
/// or when there are no finite bounds to interpolate against.
pub fn quantile_from_buckets(bounds: &[f64], buckets: &[u64], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // Nearest-rank target: the smallest k with cum(k) >= ceil(q * total),
    // at least 1 so q=0 reads the first observation's bucket.
    let target = ((q * total as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let before = cum;
        cum += c;
        if cum < target {
            continue;
        }
        if i >= bounds.len() {
            // +inf bucket: clamp to the largest finite edge.
            return bounds.last().copied();
        }
        let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
        let hi = bounds[i];
        let frac = (target - before) as f64 / c as f64;
        return Some(lo + frac * (hi - lo));
    }
    bounds.last().copied()
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named instruments.
pub struct Registry {
    by_name: DebugMutex<BTreeMap<String, Instrument>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            by_name: DebugMutex::named("obs.metrics.by_name", 110, BTreeMap::new()),
        }
    }
}

impl Registry {
    /// An empty registry (tests usually make their own rather than using
    /// the process-global [`metrics`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or register `name` as the kind `as_kind` accepts. A hit
    /// allocates nothing; only a miss copies the name into the map.
    fn instrument<T: Clone>(
        &self,
        name: &str,
        make: impl Fn() -> T,
        as_kind: fn(&Instrument) -> Option<&T>,
        register: fn(T) -> Instrument,
    ) -> T {
        let mut map = self.by_name.lock();
        match map.get(name) {
            // Name collision across kinds: return a detached instrument
            // rather than panicking; the registered one wins in snapshots.
            Some(inst) => as_kind(inst).cloned().unwrap_or_else(make),
            None => {
                let fresh = make();
                map.insert(name.to_string(), register(fresh.clone()));
                fresh
            }
        }
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.instrument(
            name,
            || Counter(Arc::new(AtomicU64::new(0))),
            |i| match i {
                Instrument::Counter(c) => Some(c),
                _ => None,
            },
            Instrument::Counter,
        )
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.instrument(
            name,
            || Gauge(Arc::new(AtomicI64::new(0))),
            |i| match i {
                Instrument::Gauge(g) => Some(g),
                _ => None,
            },
            Instrument::Gauge,
        )
    }

    /// Get or register the histogram `name` with the given bucket bounds
    /// (ignored if the histogram already exists).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.instrument(
            name,
            || {
                Histogram(Arc::new(HistogramInner {
                    bounds: bounds.to_vec(),
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum_bits: AtomicU64::new(0.0f64.to_bits()),
                }))
            },
            |i| match i {
                Instrument::Histogram(h) => Some(h),
                _ => None,
            },
            Instrument::Histogram,
        )
    }

    /// Freeze every instrument into a diffable snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.by_name.lock();
        let values = map
            .iter()
            .map(|(name, inst)| {
                let v = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.bucket_counts(),
                        bounds: h.0.bounds.clone(),
                    },
                };
                (name.clone(), v)
            })
            .collect();
        Snapshot { values }
    }
}

/// The frozen value of one instrument.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram count/sum/bucket-counts.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Per-bucket counts (last is +inf).
        buckets: Vec<u64>,
        /// Upper-inclusive bucket bounds (one per bucket except +inf).
        bounds: Vec<f64>,
    },
}

/// A frozen view of a [`Registry`], name → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Instrument values, sorted by name.
    pub values: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Counter value for `name` (0 when absent — convenient in diffs).
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value for `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram (count, sum) for `name` ((0, 0.0) when absent).
    pub fn histogram(&self, name: &str) -> (u64, f64) {
        match self.values.get(name) {
            Some(MetricValue::Histogram { count, sum, .. }) => (*count, *sum),
            _ => (0, 0.0),
        }
    }

    /// Estimated `q`-quantile of histogram `name` by bucket interpolation
    /// ([`quantile_from_buckets`]); `None` when absent or empty.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        match self.values.get(name) {
            Some(MetricValue::Histogram {
                buckets, bounds, ..
            }) => quantile_from_buckets(bounds, buckets, q),
            _ => None,
        }
    }

    /// What changed since `earlier`: counters and histogram counts/sums
    /// become deltas, gauges keep their latest level. Unchanged
    /// instruments are dropped.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut values = BTreeMap::new();
        for (name, now) in &self.values {
            let changed = match (now, earlier.values.get(name)) {
                (MetricValue::Counter(n), before) => {
                    let b = match before {
                        Some(MetricValue::Counter(b)) => *b,
                        _ => 0,
                    };
                    if *n == b {
                        None
                    } else {
                        Some(MetricValue::Counter(n - b))
                    }
                }
                (MetricValue::Gauge(n), before) => {
                    let b = match before {
                        Some(MetricValue::Gauge(b)) => *b,
                        _ => 0,
                    };
                    if *n == b {
                        None
                    } else {
                        Some(MetricValue::Gauge(*n))
                    }
                }
                (
                    MetricValue::Histogram {
                        count,
                        sum,
                        buckets,
                        bounds,
                    },
                    before,
                ) => {
                    let (bc, bs, bb) = match before {
                        Some(MetricValue::Histogram {
                            count,
                            sum,
                            buckets,
                            ..
                        }) => (*count, *sum, buckets.clone()),
                        _ => (0, 0.0, vec![0; buckets.len()]),
                    };
                    if *count == bc {
                        None
                    } else {
                        Some(MetricValue::Histogram {
                            count: count - bc,
                            sum: sum - bs,
                            buckets: buckets
                                .iter()
                                .zip(bb.iter().chain(std::iter::repeat(&0)))
                                .map(|(n, b)| n.saturating_sub(*b))
                                .collect(),
                            bounds: bounds.clone(),
                        })
                    }
                }
            };
            if let Some(v) = changed {
                values.insert(name.clone(), v);
            }
        }
        Snapshot { values }
    }

    /// Render as `name value` lines (stable order; used by debug dumps).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.values {
            match v {
                MetricValue::Counter(n) => out.push_str(&format!("{name} {n}\n")),
                MetricValue::Gauge(n) => out.push_str(&format!("{name} {n}\n")),
                MetricValue::Histogram { count, sum, .. } => {
                    out.push_str(&format!("{name} count={count} sum={sum:.6}\n"))
                }
            }
        }
        out
    }
}

/// The process-wide registry shared by engine, ocs, netsim and columnar.
pub fn metrics() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        let c = r.counter("frames");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("frames").get(), 5);
        let g = r.gauge("depth");
        g.record_max(2);
        assert_eq!(g.get(), 2);
        g.record_max(10);
        g.record_max(7);
        assert_eq!(r.gauge("depth").get(), 10);
    }

    #[test]
    fn lookups_share_one_instrument_and_cross_kind_names_detach() {
        let r = Registry::new();
        let c = r.counter("n");
        assert!(Arc::ptr_eq(&c.0, &r.counter("n").0));
        let g = r.gauge("d");
        assert!(Arc::ptr_eq(&g.0, &r.gauge("d").0));
        let h = r.histogram("h", &[1.0]);
        assert!(Arc::ptr_eq(&h.0, &r.histogram("h", &[5.0]).0));
        // A second kind under a taken name gets a detached instrument:
        // its updates never reach the snapshot.
        r.gauge("n").record_max(7);
        r.histogram("n", &[1.0]).observe(0.5);
        r.counter("d").add(9);
        c.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), 1);
        assert_eq!(snap.gauge("d"), 0);
        assert_eq!(snap.values.get("n"), Some(&MetricValue::Counter(1)));
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let r = Registry::new();
        let h = r.histogram("lat", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 55.5).abs() < 1e-9);
        assert_eq!(h.bucket_counts(), vec![1, 1, 1]);
    }

    #[test]
    fn snapshot_diff() {
        let r = Registry::new();
        let c = r.counter("a");
        let g = r.gauge("g");
        let h = r.histogram("h", &[1.0]);
        c.add(2);
        g.record_max(5);
        h.observe(0.5);
        let before = r.snapshot();
        c.add(3);
        h.observe(2.0);
        let after = r.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counter("a"), 3);
        assert_eq!(d.values.get("g"), None, "unchanged gauge dropped");
        assert_eq!(d.histogram("h"), (1, 2.0));
        assert!(d.render().contains("a 3"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat", &[1.0, 2.0, 4.0]);
        // 10 observations in (1, 2]: ranks spread linearly through the
        // bucket, so p50 reads halfway up the (1, 2] span.
        for _ in 0..10 {
            h.observe(1.5);
        }
        let snap = r.snapshot();
        let q = |q| snap.histogram_quantile("lat", q).unwrap();
        assert!((q(0.5) - 1.5).abs() < 1e-9);
        assert!((q(1.0) - 2.0).abs() < 1e-9);
        // p0 still reads inside the occupied bucket, above its lower edge.
        assert!(q(0.0) > 1.0);
        assert_eq!(snap.histogram_quantile("missing", 0.5), None);
    }

    #[test]
    fn quantile_exact_boundary_observations() {
        // Observations exactly on an upper-inclusive bound land in that
        // bound's bucket; p100 must come back as the bound itself.
        let r = Registry::new();
        let h = r.histogram("b", &[1.0, 2.0, 4.0]);
        for _ in 0..4 {
            h.observe(2.0);
        }
        let snap = r.snapshot();
        let quantile = |q| snap.histogram_quantile("b", q).unwrap();
        assert!((quantile(1.0) - 2.0).abs() < 1e-9);
        // All mass in one bucket: every quantile interpolates in (1, 2].
        for q in [0.0, 0.25, 0.5, 0.95, 0.99] {
            let v = quantile(q);
            assert!(v > 1.0 && v <= 2.0, "q={q} -> {v}");
        }
    }

    #[test]
    fn quantile_single_bucket_and_overflow() {
        // Single-bound histogram: one finite bucket (0, 10] + the +inf
        // overflow.
        let r = Registry::new();
        let h = r.histogram("s", &[10.0]);
        let quantile = |q| r.snapshot().histogram_quantile("s", q);
        assert_eq!(quantile(0.5), None, "empty histogram has no quantile");
        h.observe(5.0);
        h.observe(5.0);
        assert!((quantile(0.5).unwrap() - 5.0).abs() < 1e-9);
        assert!((quantile(1.0).unwrap() - 10.0).abs() < 1e-9);
        // Overflow observations clamp to the last finite bound.
        for _ in 0..100 {
            h.observe(1e9);
        }
        assert!((quantile(0.99).unwrap() - 10.0).abs() < 1e-9);
        // No finite bounds at all: nothing to interpolate against.
        assert_eq!(quantile_from_buckets(&[], &[7], 0.5), None);
    }

    #[test]
    fn concurrent_updates() {
        let r = Arc::new(Registry::new());
        let mut joins = Vec::new();
        for _ in 0..8 {
            let r = r.clone();
            joins.push(std::thread::spawn(move || {
                let c = r.counter("n");
                let h = r.histogram("s", SECONDS_BUCKETS);
                for _ in 0..1000 {
                    c.inc();
                    h.observe(0.001);
                }
            }));
        }
        for j in joins {
            j.join().expect("worker");
        }
        assert_eq!(r.counter("n").get(), 8000);
        let (count, sum) = r.snapshot().histogram("s");
        assert_eq!(count, 8000);
        assert!((sum - 8.0).abs() < 1e-9);
    }
}
