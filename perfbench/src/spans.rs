//! The harness's own wall-clock spans: recorded around the calls it makes
//! into each layer, kept in memory, written out when the run ends.
//!
//! These are not `obs` spans (those sit on the simulated clock inside the
//! program); a later change that adds wall-clock spans inside the layers
//! replaces the probe calls, not this recorder.

use std::time::Instant;

/// One recorded span. Times are microseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `sqlparse.parse`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one op.
    pub op: u64,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span recorder. Off, `begin`/`end` read no clock and store nothing, so
/// the timed run shares its code path with the traced run at no cost.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Spans begun from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; pass the result to [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    /// Close the span `begin` returned; its duration in µs (0 when off).
    pub fn end(&mut self, id: usize) -> f64 {
        if !self.on {
            return 0.0;
        }
        self.spans[id].end_us = self.now_us();
        self.spans[id].dur_us()
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Sum of self time per span name, µs, in order of first appearance.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times_us(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some(entry) => entry.1 += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

/// Chrome trace-event JSON of `spans` (complete `"X"` events; one `tid`
/// row per nesting depth so a parent and its children never share a row).
/// `obs::chrome::validate` and `xtask validate-trace` accept the output.
pub fn chrome_trace(spans: &[Span]) -> String {
    let selfs = self_times_us(spans);
    let mut depth = vec![0u64; spans.len()];
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        // A parent is always recorded before its children.
        depth[i] = s.parent.map_or(0, |p| depth[p] + 1);
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.start_us,
            s.dur_us().max(0.0),
            depth[i] + 1,
            s.op,
            s.parent.map_or(-1, |p| p as i64),
            selfs[i].max(0.0),
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            parent,
            op: 7,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0.0, 100.0),
            span("a", Some(0), 10.0, 40.0),
            // Overlaps `a` by 10 µs: the overlap counts once.
            span("b", Some(0), 30.0, 60.0),
            // A grandchild takes nothing from the root.
            span("c", Some(1), 15.0, 20.0),
            // Sticks out past the parent: only the inside part counts.
            span("d", Some(0), 90.0, 120.0),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 100.0 - 50.0 - 10.0);
        assert_eq!(selfs[1], 30.0 - 5.0);
        assert_eq!(selfs[2], 30.0);
        assert_eq!(selfs[3], 5.0);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("root", 40.0));
        assert_eq!(by_name.len(), 5);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", None);
        assert_eq!(t.end(s), 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn tracer_on_nests_and_tags_ops() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let root = t.begin("op", None);
        let child = t.begin("layer", Some(root));
        t.end(child);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
    }

    #[test]
    fn chrome_export_passes_the_repo_validator() {
        let mut t = Tracer::new(true);
        let root = t.begin("op", None);
        let child = t.begin("sqlparse.parse", Some(root));
        t.end(child);
        t.end(root);
        let text = chrome_trace(t.spans());
        let summary = obs::chrome::validate(&text).expect("valid Chrome trace");
        assert!(summary.contains('2'), "two complete events: {summary}");
    }
}
