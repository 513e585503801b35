//! Span trees over the simulated clock.
//!
//! The workspace's "time" is the netsim cost model: simulated seconds are
//! *computed*, not observed, so a span's placement on the sim clock is
//! supplied explicitly by the layer that computed it — the engine lays its
//! phase spans out of the ledger, the pipeline scheduler supplies per-frame
//! completion times, and the OCS storage node records a local timeline
//! starting at its own `t = 0`. Wall-clock seconds (for real CPU work such
//! as decode/agg kernels) ride along as an optional annotation.
//!
//! Crossing the RPC boundary: the storage side exports its spans as flat
//! [`SpanRec`] records (explicit ids, local clock), the trailer frame
//! carries them, and the engine side [`Tracer::graft`]s them under the
//! query's split span — ids are re-minted, times are mapped monotonically
//! into the parent's window, and the original local duration is kept as a
//! `local_s` attribute.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sync::DebugMutex;

/// Identifier of one span within a [`Tracer`]. Ids are dense, start at 1,
/// and id 0 is the wire encoding of "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned counter (rows, bytes, frames, …).
    U64(u64),
    /// Seconds, rates, shares.
    F64(f64),
    /// Free-form label.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v:.6}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dense id within the owning trace.
    pub id: SpanId,
    /// Parent span, `None` for roots.
    pub parent: Option<SpanId>,
    /// Name (dotted, e.g. `split_phase` or `storage.scan`).
    pub name: String,
    /// Category: groups spans onto display tracks (`phase`, `split`,
    /// `op`, `storage`, …). Chrome export maps one category per thread
    /// row so same-track spans never overlap.
    pub cat: String,
    /// Simulated start, seconds from the query epoch.
    pub start_s: f64,
    /// Simulated end, seconds from the query epoch.
    pub end_s: f64,
    /// Measured wall-clock seconds of real CPU work, when recorded.
    pub wall_s: Option<f64>,
    /// Attached attributes (rows, bytes, …), in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
    /// True when the span was closed exactly once (guards that are
    /// dropped without an explicit close are flagged, which the span
    /// property tests assert never happens in the instrumented paths).
    pub closed_cleanly: bool,
}

impl Span {
    /// Simulated duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// Look up an attribute.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Look up a `u64` attribute.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key) {
            Some(AttrValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Look up an `f64` attribute.
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        match self.attr(key) {
            Some(AttrValue::F64(v)) => Some(*v),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct TracerInner {
    spans: DebugMutex<Vec<Span>>,
    next: AtomicU64,
}

impl Default for TracerInner {
    fn default() -> TracerInner {
        TracerInner {
            spans: DebugMutex::named("obs.span.spans", 100, Vec::new()),
            next: AtomicU64::new(0),
        }
    }
}

/// A handle recording spans for one query. Clones share the same trace.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer with no spans yet.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    fn push(&self, span: Span) -> SpanId {
        let id = span.id;
        self.inner.spans.lock().push(span);
        id
    }

    fn mint(&self) -> SpanId {
        // RELAXED: a pure id allocator — ids only need uniqueness, no
        // ordering with any other memory access.
        SpanId(self.inner.next.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Record a closed span `[start_s, end_s]` on the simulated clock.
    pub fn record(
        &self,
        name: impl Into<String>,
        cat: &str,
        parent: Option<SpanId>,
        start_s: f64,
        end_s: f64,
    ) -> SpanId {
        let id = self.mint();
        self.push(Span {
            id,
            parent,
            name: name.into(),
            cat: cat.to_string(),
            start_s,
            end_s: end_s.max(start_s),
            wall_s: None,
            attrs: Vec::new(),
            closed_cleanly: true,
        })
    }

    /// Open a span at `start_s`; the returned guard must be closed with
    /// an explicit simulated end time. A guard dropped without closing
    /// records a zero-length span flagged `closed_cleanly = false`.
    pub fn start(
        &self,
        name: impl Into<String>,
        cat: &str,
        parent: Option<SpanId>,
        start_s: f64,
    ) -> SpanGuard {
        let id = self.mint();
        SpanGuard {
            tracer: self.clone(),
            span: Some(Span {
                id,
                parent,
                name: name.into(),
                cat: cat.to_string(),
                start_s,
                end_s: start_s,
                wall_s: None,
                attrs: Vec::new(),
                closed_cleanly: false,
            }),
        }
    }

    /// Attach an attribute to an already-recorded span.
    pub fn attr(&self, id: SpanId, key: &str, value: impl Into<AttrValue>) {
        let mut spans = self.inner.spans.lock();
        if let Some(s) = spans.iter_mut().find(|s| s.id == id) {
            s.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Attach measured wall-clock seconds to an already-recorded span.
    pub fn set_wall(&self, id: SpanId, wall_s: f64) {
        let mut spans = self.inner.spans.lock();
        if let Some(s) = spans.iter_mut().find(|s| s.id == id) {
            s.wall_s = Some(wall_s);
        }
    }

    /// Re-parent spans that crossed the RPC boundary.
    ///
    /// `recs` is a flat forest on the producer's local clock (ids local to
    /// the producer, parent 0 = local root). Each span is re-minted with a
    /// fresh engine-side id, local roots are attached under `parent`, and
    /// local times `[0, local_max]` are mapped monotonically (linearly)
    /// into `[start_s, end_s]` so the grafted subtree nests exactly inside
    /// its new parent while preserving the producer's ordering. The
    /// original local duration survives as a `local_s` attribute.
    ///
    /// Returns the number of spans grafted.
    pub fn graft(&self, recs: &[SpanRec], parent: SpanId, start_s: f64, end_s: f64) -> usize {
        if recs.is_empty() {
            return 0;
        }
        let local_max = recs.iter().fold(0.0f64, |m, r| m.max(r.end_s));
        let window = (end_s - start_s).max(0.0);
        let scale = if local_max > 0.0 {
            window / local_max
        } else {
            0.0
        };
        // Local id -> fresh engine id.
        let mut map: Vec<(u64, SpanId)> = Vec::with_capacity(recs.len());
        for r in recs {
            map.push((r.id, self.mint()));
        }
        let lookup = |local: u64| -> Option<SpanId> {
            map.iter().find(|(l, _)| *l == local).map(|(_, id)| *id)
        };
        let mut spans = self.inner.spans.lock();
        for (r, (_, id)) in recs.iter().zip(&map) {
            let new_parent = if r.parent == 0 {
                Some(parent)
            } else {
                // A dangling parent ref (corrupt producer) attaches to the
                // graft point rather than being dropped or panicking.
                lookup(r.parent).or(Some(parent))
            };
            spans.push(Span {
                id: *id,
                parent: new_parent,
                name: r.name.clone(),
                cat: "storage".to_string(),
                start_s: start_s + r.start_s.max(0.0) * scale,
                end_s: start_s + r.end_s.max(r.start_s).max(0.0) * scale,
                wall_s: if r.wall_s > 0.0 { Some(r.wall_s) } else { None },
                attrs: {
                    let mut attrs = r.attrs.clone();
                    attrs.push(("local_s".to_string(), AttrValue::F64(r.seconds())));
                    attrs
                },
                closed_cleanly: true,
            });
        }
        recs.len()
    }

    /// Snapshot the recorded spans as a finished [`Trace`], sorted by
    /// (start, id). The tracer stays usable afterwards.
    pub fn finish(&self) -> Trace {
        let mut spans = self.inner.spans.lock().clone();
        spans.sort_by(|a, b| {
            a.start_s
                .partial_cmp(&b.start_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        Trace { spans }
    }
}

/// An open span that must be closed with an explicit simulated end time.
/// Closing consumes the guard, so a span can close at most once; dropping
/// without closing records the span flagged as not cleanly closed.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    span: Option<Span>,
}

impl SpanGuard {
    /// The id of the span being recorded.
    pub fn id(&self) -> SpanId {
        self.span.as_ref().map(|s| s.id).unwrap_or(SpanId(0))
    }

    /// Attach an attribute before closing.
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some(s) = self.span.as_mut() {
            s.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Close the span at `end_s` and record it.
    pub fn close(mut self, end_s: f64) -> SpanId {
        match self.span.take() {
            None => SpanId(0),
            Some(mut s) => {
                s.end_s = end_s.max(s.start_s);
                s.closed_cleanly = true;
                self.tracer.push(s)
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.span.take() {
            // Not closed explicitly: record as zero-length, flagged.
            self.tracer.push(s);
        }
    }
}

/// A finished span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, sorted by (start, id).
    pub spans: Vec<Span>,
}

impl Trace {
    /// The root span (no parent), if exactly one exists that one,
    /// otherwise the earliest-starting parentless span.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Children of `id`, in start order.
    pub fn children(&self, id: SpanId) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// First span with the given name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Simulated duration of the root span (0 with no root).
    pub fn total_s(&self) -> f64 {
        self.root().map(|r| r.seconds()).unwrap_or(0.0)
    }

    /// Structural invariants: every span closed exactly once (flagged at
    /// close time), finite non-negative intervals, parents exist, and
    /// every child nests inside its parent's interval (with tolerance
    /// `eps` for float placement).
    pub fn verify(&self, eps: f64) -> Result<(), String> {
        for s in &self.spans {
            if !s.closed_cleanly {
                return Err(format!("span '{}' was dropped without closing", s.name));
            }
            if !s.start_s.is_finite() || !s.end_s.is_finite() || s.end_s < s.start_s {
                return Err(format!(
                    "span '{}' has a bad interval [{}, {}]",
                    s.name, s.start_s, s.end_s
                ));
            }
            if let Some(p) = s.parent {
                let Some(parent) = self.spans.iter().find(|x| x.id == p) else {
                    return Err(format!("span '{}' has a missing parent {p:?}", s.name));
                };
                if s.start_s < parent.start_s - eps || s.end_s > parent.end_s + eps {
                    return Err(format!(
                        "span '{}' [{:.9}, {:.9}] escapes parent '{}' [{:.9}, {:.9}]",
                        s.name, s.start_s, s.end_s, parent.name, parent.start_s, parent.end_s
                    ));
                }
            }
        }
        Ok(())
    }

    /// Export as flat wire records on this trace's own clock (used by the
    /// OCS storage side to ship its spans in the stream trailer).
    pub fn to_recs(&self) -> Vec<SpanRec> {
        self.spans
            .iter()
            .map(|s| SpanRec {
                id: s.id.0,
                parent: s.parent.map(|p| p.0).unwrap_or(0),
                name: s.name.clone(),
                start_s: s.start_s,
                end_s: s.end_s,
                wall_s: s.wall_s.unwrap_or(0.0),
                attrs: s.attrs.clone(),
            })
            .collect()
    }
}

/// A span flattened for the wire: explicit ids, producer-local clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Producer-local span id (non-zero).
    pub id: u64,
    /// Producer-local parent id; 0 = local root.
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Local simulated start seconds.
    pub start_s: f64,
    /// Local simulated end seconds.
    pub end_s: f64,
    /// Measured wall seconds (0 = not recorded).
    pub wall_s: f64,
    /// Attributes attached by the producer (rows, bytes, cache tier, …),
    /// preserved verbatim across the wire so `EXPLAIN ANALYZE` can render
    /// per-scan annotations the engine side never computed.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRec {
    /// Local simulated duration.
    pub fn seconds(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// Longest span name accepted on the wire (corruption guard).
const MAX_WIRE_NAME: usize = 4096;
/// Most spans accepted in one wire payload (corruption guard).
const MAX_WIRE_SPANS: usize = 1 << 20;
/// Most attributes accepted per span on the wire (corruption guard).
const MAX_WIRE_ATTRS: usize = 256;

/// Attribute value wire tags.
const ATTR_TAG_U64: u8 = 0;
const ATTR_TAG_F64: u8 = 1;
const ATTR_TAG_STR: u8 = 2;

fn encode_str(out: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(MAX_WIRE_NAME)];
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Encode span records (length-prefixed, little-endian).
pub fn encode_spans(recs: &[SpanRec]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + recs.len() * 48);
    out.extend_from_slice(&(recs.len() as u32).to_le_bytes());
    for r in recs {
        out.extend_from_slice(&r.id.to_le_bytes());
        out.extend_from_slice(&r.parent.to_le_bytes());
        out.extend_from_slice(&r.start_s.to_le_bytes());
        out.extend_from_slice(&r.end_s.to_le_bytes());
        out.extend_from_slice(&r.wall_s.to_le_bytes());
        encode_str(&mut out, &r.name);
        let attrs = &r.attrs[..r.attrs.len().min(MAX_WIRE_ATTRS)];
        out.extend_from_slice(&(attrs.len() as u32).to_le_bytes());
        for (key, value) in attrs {
            encode_str(&mut out, key);
            match value {
                AttrValue::U64(v) => {
                    out.push(ATTR_TAG_U64);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                AttrValue::F64(v) => {
                    out.push(ATTR_TAG_F64);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                AttrValue::Str(v) => {
                    out.push(ATTR_TAG_STR);
                    encode_str(&mut out, v);
                }
            }
        }
    }
    out
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], String> {
    let end = pos
        .checked_add(n)
        .ok_or_else(|| "span payload length overflow".to_string())?;
    if end > bytes.len() {
        return Err(format!(
            "span payload truncated: need {end} bytes, have {}",
            bytes.len()
        ));
    }
    let s = &bytes[*pos..end];
    *pos = end;
    Ok(s)
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let s = take(bytes, pos, 4)?;
    let mut a = [0u8; 4];
    a.copy_from_slice(s);
    Ok(u32::from_le_bytes(a))
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let s = take(bytes, pos, 8)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(s);
    Ok(u64::from_le_bytes(a))
}

fn take_f64(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    Ok(f64::from_bits(take_u64(bytes, pos)?))
}

fn take_str(bytes: &[u8], pos: &mut usize, what: &str) -> Result<String, String> {
    let len = take_u32(bytes, pos)? as usize;
    if len > MAX_WIRE_NAME {
        return Err(format!("span {what} claims {len} bytes"));
    }
    let raw = take(bytes, pos, len)?;
    Ok(String::from_utf8_lossy(raw).into_owned())
}

/// Decode an [`encode_spans`] payload, starting at `*pos` and advancing
/// it. Bound-checked: truncation and absurd counts are structured errors,
/// never panics.
pub fn decode_spans(bytes: &[u8], pos: &mut usize) -> Result<Vec<SpanRec>, String> {
    let count = take_u32(bytes, pos)? as usize;
    if count > MAX_WIRE_SPANS {
        return Err(format!("span payload claims {count} spans"));
    }
    let mut recs = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let id = take_u64(bytes, pos)?;
        let parent = take_u64(bytes, pos)?;
        let start_s = take_f64(bytes, pos)?;
        let end_s = take_f64(bytes, pos)?;
        let wall_s = take_f64(bytes, pos)?;
        let name = take_str(bytes, pos, "name")?;
        let attr_count = take_u32(bytes, pos)? as usize;
        if attr_count > MAX_WIRE_ATTRS {
            return Err(format!("span claims {attr_count} attributes"));
        }
        let mut attrs = Vec::with_capacity(attr_count);
        for _ in 0..attr_count {
            let key = take_str(bytes, pos, "attr key")?;
            let tag = take(bytes, pos, 1)?[0];
            let value = match tag {
                ATTR_TAG_U64 => AttrValue::U64(take_u64(bytes, pos)?),
                ATTR_TAG_F64 => AttrValue::F64(take_f64(bytes, pos)?),
                ATTR_TAG_STR => AttrValue::Str(take_str(bytes, pos, "attr value")?),
                other => return Err(format!("unknown attr tag {other}")),
            };
            attrs.push((key, value));
        }
        recs.push(SpanRec {
            id,
            parent,
            name,
            start_s,
            end_s,
            wall_s,
            attrs,
        });
    }
    Ok(recs)
}

/// A wall-clock timer for real CPU work in kernels. Armed only when
/// [`crate::kernel_timing_enabled`] — the cold path costs one relaxed
/// atomic load. On drop, observes the elapsed seconds into the process
/// metrics histogram `name`.
#[derive(Debug)]
pub struct KernelTimer {
    name: &'static str,
    start: std::time::Instant,
}

impl KernelTimer {
    /// Start a timer for `name`, or `None` when kernel timing is off.
    pub fn start(name: &'static str) -> Option<KernelTimer> {
        if !crate::kernel_timing_enabled() {
            return None;
        }
        Some(KernelTimer {
            name,
            start: std::time::Instant::now(),
        })
    }
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        crate::metrics()
            .histogram(self.name, crate::metrics::SECONDS_BUCKETS)
            .observe(self.start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_nest() {
        let t = Tracer::new();
        let root = t.record("query", "phase", None, 0.0, 10.0);
        let a = t.record("plan", "phase", Some(root), 0.0, 1.0);
        t.attr(a, "nodes", 4u64);
        let b = t.record("exec", "phase", Some(root), 1.0, 10.0);
        let trace = t.finish();
        assert_eq!(trace.spans.len(), 3);
        trace.verify(1e-12).expect("valid tree");
        assert_eq!(trace.total_s(), 10.0);
        assert_eq!(trace.children(root).len(), 2);
        assert_eq!(
            trace.find("plan").and_then(|s| s.attr_u64("nodes")),
            Some(4)
        );
        assert_eq!(trace.children(b).len(), 0);
    }

    #[test]
    fn guard_closes_exactly_once() {
        let t = Tracer::new();
        let g = t.start("phase1", "phase", None, 0.0);
        let id = g.close(2.0);
        assert_ne!(id, SpanId(0));
        let trace = t.finish();
        assert!(trace.spans[0].closed_cleanly);
        assert_eq!(trace.spans[0].end_s, 2.0);
        trace.verify(0.0).expect("clean close");
    }

    #[test]
    fn dropped_guard_is_flagged() {
        let t = Tracer::new();
        {
            let _g = t.start("leaked", "phase", None, 1.0);
        }
        let trace = t.finish();
        assert!(!trace.spans[0].closed_cleanly);
        assert!(trace.verify(0.0).is_err());
    }

    #[test]
    fn graft_scales_and_reparents() {
        // Producer side: local clock 0..4.
        let producer = Tracer::new();
        let root = producer.record("storage.execute", "storage", None, 0.0, 4.0);
        producer.record("storage.disk", "storage", Some(root), 0.0, 1.0);
        let scan_id = producer.record("storage.scan", "storage", Some(root), 1.0, 4.0);
        producer.attr(scan_id, "cache_hit", "row_group");
        producer.attr(scan_id, "cache_bytes_avoided", 4096u64);
        let recs = producer.finish().to_recs();

        // Consumer side: graft into [10, 12].
        let consumer = Tracer::new();
        let query = consumer.record("query", "phase", None, 0.0, 20.0);
        let split = consumer.record("split[0]", "split", Some(query), 10.0, 12.0);
        assert_eq!(consumer.graft(&recs, split, 10.0, 12.0), 3);
        let trace = consumer.finish();
        trace.verify(1e-12).expect("grafted tree nests");
        let disk = trace.find("storage.disk").expect("grafted");
        assert!((disk.start_s - 10.0).abs() < 1e-12);
        assert!((disk.end_s - 10.5).abs() < 1e-12);
        assert_eq!(disk.attr_f64("local_s"), Some(1.0));
        // Monotonic: scan starts where disk ends, ends at the window end.
        let scan = trace.find("storage.scan").expect("grafted");
        assert!(scan.start_s >= disk.end_s - 1e-12);
        assert!((scan.end_s - 12.0).abs() < 1e-12);
        // Producer attrs survive the graft alongside the added local_s.
        assert_eq!(
            scan.attr("cache_hit"),
            Some(&AttrValue::Str("row_group".into()))
        );
        assert_eq!(scan.attr_u64("cache_bytes_avoided"), Some(4096));
        assert_eq!(scan.attr_f64("local_s"), Some(3.0));
    }

    #[test]
    fn span_recs_roundtrip() {
        let recs = vec![
            SpanRec {
                id: 1,
                parent: 0,
                name: "a".into(),
                start_s: 0.0,
                end_s: 2.5,
                wall_s: 0.001,
                attrs: vec![
                    ("rows".to_string(), AttrValue::U64(42)),
                    ("local_s".to_string(), AttrValue::F64(2.5)),
                    ("cache_hit".to_string(), AttrValue::Str("result".into())),
                ],
            },
            SpanRec {
                id: 2,
                parent: 1,
                name: "b/πλ".into(),
                start_s: 0.5,
                end_s: 1.5,
                wall_s: 0.0,
                attrs: Vec::new(),
            },
        ];
        let enc = encode_spans(&recs);
        let mut pos = 0;
        let dec = decode_spans(&enc, &mut pos).expect("roundtrip");
        assert_eq!(pos, enc.len());
        assert_eq!(dec, recs);
    }

    #[test]
    fn decode_rejects_truncation_and_absurd_counts() {
        let enc = encode_spans(&[SpanRec {
            id: 1,
            parent: 0,
            name: "x".into(),
            start_s: 0.0,
            end_s: 1.0,
            wall_s: 0.0,
            attrs: vec![("bytes".to_string(), AttrValue::U64(7))],
        }]);
        for cut in 0..enc.len() {
            let mut pos = 0;
            assert!(decode_spans(&enc[..cut], &mut pos).is_err(), "cut {cut}");
        }
        let mut bad = enc.clone();
        bad[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut pos = 0;
        assert!(decode_spans(&bad, &mut pos).is_err());
    }
}
