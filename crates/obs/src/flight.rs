//! The always-on flight recorder: a fixed-size, dependency-free ring of
//! typed structured events.
//!
//! Spans answer "where did the time go" for one traced query; the flight
//! recorder answers "what was the *system* doing around then" — cache
//! admissions and hits, frame-window backpressure stalls, version
//! purges — continuously, for every query, traced or not. It is sized
//! in events, not bytes, and old events are overwritten oldest-first, so
//! the cost is a fixed allocation at first use plus a handful of atomic
//! stores per event.
//!
//! Concurrency model: a per-slot seqlock over plain atomics (no locks, no
//! `unsafe`). The writer claims a sequence number from a global cursor,
//! flips the target slot's version to odd, stores the fields, and
//! publishes by storing the even successor version. Readers snapshot the
//! version, read the fields, and re-check; a torn or overwritten slot is
//! simply skipped. Two writers colliding on one slot (a wraparound more
//! than `capacity` events deep during one write) drop the later event
//! rather than interleave stores — a flight recorder prefers a hole to a
//! lie.
//!
//! The process-global recorder ([`flight`]) holds the last 4096 events.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Capacity (events) of the process-global recorder.
const CAPACITY: usize = 4096;

/// The event taxonomy. Every event carries three `u64` payload words
/// (`a`, `b`, `c`) whose meaning is per-kind (documented on each
/// variant); unknown codes read back from the ring are skipped, never
/// panicked on. Codes 5, 6, 9 and 10 are retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightKind {
    /// Cache admitted an entry. `a` = tier (0 row-group, 1 result),
    /// `b` = charged bytes, `c` = 0.
    CacheAdmit,
    /// Cache evicted entries under budget pressure. `a` = tier,
    /// `b` = evictions so far (monotonic), `c` = 0.
    CacheEvict,
    /// Row-group cache hit(s) served a scan. `a` = hits in this request,
    /// `b` = bytes avoided, `c` = 0.
    CacheHit,
    /// Pushdown-result cache replayed a whole response. `a` = 1,
    /// `b` = bytes avoided, `c` = 0.
    ResultCacheHit,
    /// A stream's frame window was full when the consumer asked for the
    /// next batch. `a` = window size, `b` = frames buffered,
    /// `c` = frames already relayed.
    BackpressureStall,
    /// A write superseded cached object versions and purged them.
    /// `a` = new version, `b` = row-group entries purged, `c` = result
    /// entries purged.
    VersionPurge,
}

impl FlightKind {
    /// Stable wire/ring code.
    pub fn code(self) -> u64 {
        match self {
            FlightKind::CacheAdmit => 1,
            FlightKind::CacheEvict => 2,
            FlightKind::CacheHit => 3,
            FlightKind::ResultCacheHit => 4,
            FlightKind::BackpressureStall => 7,
            FlightKind::VersionPurge => 8,
        }
    }

    /// Decode a ring code (`None` for unknown codes — skipped by readers).
    pub fn from_code(code: u64) -> Option<FlightKind> {
        Some(match code {
            1 => FlightKind::CacheAdmit,
            2 => FlightKind::CacheEvict,
            3 => FlightKind::CacheHit,
            4 => FlightKind::ResultCacheHit,
            7 => FlightKind::BackpressureStall,
            8 => FlightKind::VersionPurge,
            _ => return None,
        })
    }

    /// Short display label: the first word of [`FlightEvent::describe`].
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::CacheAdmit => "cache.admit",
            FlightKind::CacheEvict => "cache.evict",
            FlightKind::CacheHit => "cache.hit",
            FlightKind::ResultCacheHit => "cache.result_hit",
            FlightKind::BackpressureStall => "backpressure.stall",
            FlightKind::VersionPurge => "version.purge",
        }
    }
}

/// One decoded flight event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Global sequence number (monotonic across the process).
    pub seq: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// First payload word (per-kind meaning; see [`FlightKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

impl FlightEvent {
    /// One-line human rendering (as `EXPLAIN ANALYZE` prints it).
    pub fn describe(&self) -> String {
        match self.kind {
            FlightKind::CacheAdmit => {
                format!("cache.admit tier={} bytes={}", tier_label(self.a), self.b)
            }
            FlightKind::CacheEvict => format!(
                "cache.evict tier={} evictions={}",
                tier_label(self.a),
                self.b
            ),
            FlightKind::CacheHit => {
                format!("cache.hit hits={} bytes_avoided={}", self.a, self.b)
            }
            FlightKind::ResultCacheHit => {
                format!("cache.result_hit bytes_avoided={}", self.b)
            }
            FlightKind::BackpressureStall => format!(
                "backpressure.stall window={} buffered={} relayed={}",
                self.a, self.b, self.c
            ),
            FlightKind::VersionPurge => format!(
                "version.purge version={} rg_purged={} result_purged={}",
                self.a, self.b, self.c
            ),
        }
    }
}

fn tier_label(tier: u64) -> &'static str {
    match tier {
        0 => "row_group",
        1 => "result",
        _ => "unknown",
    }
}

/// One seqlock-protected ring slot: `ver` odd while a writer owns it,
/// fields valid only when two even `ver` reads bracket them.
#[derive(Debug)]
struct Slot {
    ver: AtomicU64,
    seq: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            ver: AtomicU64::new(0),
            seq: AtomicU64::new(u64::MAX),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            c: AtomicU64::new(0),
        }
    }
}

/// A fixed-capacity, lock-free-ish ring of [`FlightEvent`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// Next sequence number to claim; `head - capacity .. head` is the
    /// live window.
    head: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// The next sequence number to be assigned. Capture before a query
    /// and pass to [`FlightRecorder::since`] after it to slice the
    /// query's events.
    pub fn cursor(&self) -> u64 {
        // RELAXED: a monotonic cursor read; per-slot versions validate
        // any slot actually read.
        self.head.load(Ordering::Relaxed)
    }

    /// Record one event; returns its sequence number.
    pub fn record(&self, kind: FlightKind, a: u64, b: u64, c: u64) -> u64 {
        // RELAXED: pure sequence allocation — the slot contents are
        // published by the per-slot version protocol, not this counter.
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        // RELAXED: optimistic pre-read for the claim CAS below; a stale
        // value just fails the claim and drops the event.
        let v = slot.ver.load(Ordering::Relaxed);
        if v & 1 == 1 {
            // Another writer owns this slot (wraparound deeper than the
            // ring during its write): drop rather than tear.
            return seq;
        }
        // RELAXED: failure means another writer claimed first — we drop
        // the event, nothing was read through the failed CAS. Success is
        // Acquire so the field stores below cannot hoist above the claim.
        if slot
            .ver
            .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return seq;
        }
        // RELAXED: all field stores are bracketed by the odd-version
        // claim (Acquire) above and the even-version Release publish
        // below; readers re-check the version and discard torn slots.
        slot.seq.store(seq, Ordering::Relaxed);
        // RELAXED: see the bracketing argument above.
        slot.kind.store(kind.code(), Ordering::Relaxed);
        // RELAXED: see the bracketing argument above.
        slot.a.store(a, Ordering::Relaxed);
        // RELAXED: see the bracketing argument above.
        slot.b.store(b, Ordering::Relaxed);
        // RELAXED: see the bracketing argument above.
        slot.c.store(c, Ordering::Relaxed);
        slot.ver.store(v + 2, Ordering::Release);
        seq
    }

    /// Read the slot that should hold `seq`; `None` when torn, still
    /// being written, or already overwritten by a newer event.
    fn read_slot(&self, seq: u64) -> Option<FlightEvent> {
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let v1 = slot.ver.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            return None;
        }
        // RELAXED: seqlock read side — these field loads are validated by
        // the version re-check after the acquire fence below; a torn view
        // is detected and discarded.
        let got_seq = slot.seq.load(Ordering::Relaxed);
        // RELAXED: see the seqlock validation argument above.
        let kind = slot.kind.load(Ordering::Relaxed);
        // RELAXED: see the seqlock validation argument above.
        let a = slot.a.load(Ordering::Relaxed);
        // RELAXED: see the seqlock validation argument above.
        let b = slot.b.load(Ordering::Relaxed);
        // RELAXED: see the seqlock validation argument above.
        let c = slot.c.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        // RELAXED: the acquire fence orders the field loads above before
        // this validation read; inequality means a writer interleaved.
        let v2 = slot.ver.load(Ordering::Relaxed);
        if v1 != v2 || got_seq != seq {
            return None;
        }
        Some(FlightEvent {
            seq,
            kind: FlightKind::from_code(kind)?,
            a,
            b,
            c,
        })
    }

    /// Events with sequence numbers `>= seq` still live in the ring,
    /// oldest first. Torn or overwritten slots are skipped.
    pub fn since(&self, seq: u64) -> Vec<FlightEvent> {
        let head = self.cursor();
        let start = seq.max(head.saturating_sub(self.slots.len() as u64));
        (start..head).filter_map(|s| self.read_slot(s)).collect()
    }
}

/// The process-global flight recorder (the last 4096 events).
pub fn flight() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn kinds_roundtrip_codes() {
        for kind in [
            FlightKind::CacheAdmit,
            FlightKind::CacheEvict,
            FlightKind::CacheHit,
            FlightKind::ResultCacheHit,
            FlightKind::BackpressureStall,
            FlightKind::VersionPurge,
        ] {
            assert_eq!(FlightKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(FlightKind::from_code(0), None);
        assert_eq!(FlightKind::from_code(5), None, "retired code");
        assert_eq!(FlightKind::from_code(6), None, "retired code");
        assert_eq!(FlightKind::from_code(9), None, "retired code");
        assert_eq!(FlightKind::from_code(10), None, "retired code");
        assert_eq!(FlightKind::from_code(999), None);
    }

    #[test]
    fn records_and_reads_back_in_order() {
        let r = FlightRecorder::with_capacity(16);
        for i in 0..5u64 {
            r.record(FlightKind::CacheHit, i, i * 10, i * 100);
        }
        let events = r.since(0);
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, FlightKind::CacheHit);
            assert_eq!(e.a, i as u64);
            assert_eq!(e.b, i as u64 * 10);
            assert_eq!(e.c, i as u64 * 100);
        }
    }

    #[test]
    fn wraparound_overwrites_oldest_first() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..20u64 {
            r.record(FlightKind::CacheHit, i, 0, 0);
        }
        let events = r.since(0);
        // Exactly the last `capacity` events survive, oldest first.
        assert_eq!(events.len(), 8);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>()
        );
        assert_eq!(
            events.iter().map(|e| e.a).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>()
        );
        assert_eq!(r.cursor(), 20);
    }

    #[test]
    fn capacity_is_exact() {
        let r = FlightRecorder::with_capacity(3);
        for i in 0..3u64 {
            r.record(FlightKind::VersionPurge, i, 0, 0);
        }
        assert_eq!(r.since(0).len(), 3, "exactly capacity events fit");
        r.record(FlightKind::VersionPurge, 3, 0, 0);
        let events = r.since(0);
        assert_eq!(events.len(), 3, "one past capacity still holds capacity");
        assert_eq!(events[0].a, 1, "event 0 overwritten first");
        // Degenerate capacity clamps to 1.
        let tiny = FlightRecorder::with_capacity(0);
        tiny.record(FlightKind::VersionPurge, 1, 2, 3);
        tiny.record(FlightKind::VersionPurge, 4, 5, 6);
        let events = tiny.since(0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].a, 4);
    }

    #[test]
    fn since_slices_by_cursor() {
        let r = FlightRecorder::with_capacity(64);
        r.record(FlightKind::CacheAdmit, 0, 0, 0);
        let cur = r.cursor();
        r.record(FlightKind::CacheAdmit, 1, 0, 0);
        r.record(FlightKind::CacheAdmit, 2, 0, 0);
        let slice = r.since(cur);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice[0].a, 1);
        assert_eq!(slice[1].a, 2);
        assert!(r.since(r.cursor()).is_empty());
    }

    /// No tearing under concurrent writers: every event that reads back
    /// must satisfy the writer's per-event checksum invariant — a mixed
    /// slot (fields from two different writes) cannot.
    #[test]
    fn concurrent_writers_never_tear() {
        let r = Arc::new(FlightRecorder::with_capacity(32));
        let threads = 8usize;
        let per_thread = 4000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        let a = t as u64;
                        let b = i;
                        // Checksum ties all three payload words together.
                        let c = a.wrapping_mul(0x9e37_79b9).wrapping_add(b);
                        r.record(FlightKind::BackpressureStall, a, b, c);
                        if i % 64 == 0 {
                            // Concurrent readers must also never observe
                            // a torn slot.
                            for e in r.since(0) {
                                assert_eq!(
                                    e.c,
                                    e.a.wrapping_mul(0x9e37_79b9).wrapping_add(e.b),
                                    "torn slot observed mid-flight"
                                );
                            }
                        }
                    }
                });
            }
        });
        let total = threads as u64 * per_thread;
        assert_eq!(r.cursor(), total, "every record claimed a sequence");
        let events = r.since(0);
        assert!(!events.is_empty());
        assert!(events.len() <= 32);
        for e in events {
            assert_eq!(
                e.c,
                e.a.wrapping_mul(0x9e37_79b9).wrapping_add(e.b),
                "torn slot survived to the end"
            );
            assert!(e.seq < total);
            assert!((e.a as usize) < threads);
            assert!(e.b < per_thread);
        }
    }

    #[test]
    fn describe_renders_each_kind() {
        let mk = |kind| FlightEvent {
            seq: 0,
            kind,
            a: 1,
            b: 2,
            c: 3,
        };
        assert!(mk(FlightKind::CacheAdmit).describe().contains("result"));
        assert!(mk(FlightKind::CacheHit)
            .describe()
            .contains("bytes_avoided=2"));
        assert!(!mk(FlightKind::CacheEvict).describe().contains("node="));
        assert!(mk(FlightKind::BackpressureStall)
            .describe()
            .contains("window=1"));
        for kind in (1..=8).filter_map(FlightKind::from_code) {
            let text = mk(kind).describe();
            assert_eq!(text.split(' ').next(), Some(kind.label()), "{text}");
        }
    }

    #[test]
    fn global_recorder_is_always_on() {
        let f = flight();
        let cur = f.cursor();
        f.record(FlightKind::CacheAdmit, 0, 1, 2);
        assert!(f.cursor() > cur);
    }
}
