//! `EXPLAIN ANALYZE` text rendering: the annotated span tree.
//!
//! Renders a [`Trace`] as an indented tree with per-span simulated
//! seconds, percent-of-total, wall seconds when measured, and the
//! rows/bytes attributes the instrumented layers attach. The output is
//! deterministic (spans render in start order, ties by id) so tests can
//! assert against it.

use crate::span::{AttrValue, Span, Trace};

/// Attribute keys rendered inline after the timing columns, in this
/// order, when present on a span.
const INLINE_ATTRS: &[&str] = &[
    "rows",
    "bytes",
    "frames",
    "splits",
    "nodes",
    "ops",
    "workers",
    "selectivity",
    "bottleneck",
    "bottleneck_util_pct",
    "local_s",
    "cache_hit",
    "rg_cache_hits",
    "cache_bytes_avoided",
];

fn fmt_value(key: &str, v: &AttrValue) -> String {
    match v {
        AttrValue::U64(n) if key == "bytes" || key.ends_with("bytes_avoided") => {
            if *n >= 1024 * 1024 {
                format!("{:.1} MiB", *n as f64 / (1024.0 * 1024.0))
            } else if *n >= 1024 {
                format!("{:.1} KiB", *n as f64 / 1024.0)
            } else {
                format!("{n} B")
            }
        }
        AttrValue::U64(n) => format!("{n}"),
        AttrValue::F64(f) if key.ends_with("_s") => format!("{f:.6}s"),
        AttrValue::F64(f) => format!("{f:.4}"),
        AttrValue::Str(s) => s.clone(),
    }
}

fn render_span(trace: &Trace, span: &Span, total_s: f64, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let pct = if total_s > 0.0 {
        span.seconds() / total_s * 100.0
    } else {
        0.0
    };
    out.push_str(&format!(
        "{indent}{}  sim={:.6}s ({pct:.1}%)",
        span.name,
        span.seconds()
    ));
    if let Some(w) = span.wall_s {
        out.push_str(&format!("  wall={w:.6}s"));
    }
    let mut extras: Vec<String> = Vec::new();
    for key in INLINE_ATTRS {
        if let Some(v) = span.attr(key) {
            extras.push(format!("{key}={}", fmt_value(key, v)));
        }
    }
    for (k, v) in &span.attrs {
        if !INLINE_ATTRS.contains(&k.as_str()) {
            extras.push(format!("{k}={}", fmt_value(k, v)));
        }
    }
    if !extras.is_empty() {
        out.push_str("  [");
        out.push_str(&extras.join(" "));
        out.push(']');
    }
    out.push('\n');
    for child in trace.children(span.id) {
        render_span(trace, child, total_s, depth + 1, out);
    }
}

/// Render the annotated span tree. Roots (parentless spans) render at
/// depth 0; percentages are relative to the first root's duration.
pub fn render(trace: &Trace) -> String {
    let total_s = trace.total_s();
    let mut out = String::new();
    let roots: Vec<&Span> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    if roots.is_empty() {
        out.push_str("(empty trace)\n");
        return out;
    }
    for root in roots {
        render_span(trace, root, total_s, 0, &mut out);
    }
    out
}

/// Render with a header line (used by `EXPLAIN ANALYZE`): the statement,
/// the total simulated seconds, and the span count, then the tree.
pub fn render_analyze(sql: &str, trace: &Trace) -> String {
    let mut out = format!(
        "EXPLAIN ANALYZE  total_sim={:.6}s  spans={}\nquery: {}\n\n",
        trace.total_s(),
        trace.spans.len(),
        sql.trim()
    );
    out.push_str(&render(trace));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    #[test]
    fn renders_tree_with_attrs() {
        let t = Tracer::new();
        let root = t.record("query", "phase", None, 0.0, 4.0);
        let scan = t.record("scan", "phase", Some(root), 0.0, 3.0);
        t.attr(scan, "rows", 6_001_215u64);
        t.attr(scan, "bytes", 3u64 * 1024 * 1024);
        t.set_wall(scan, 0.25);
        t.record("agg", "phase", Some(root), 3.0, 4.0);
        let trace = t.finish();
        let text = render_analyze("SELECT 1", &trace);
        assert!(text.contains("total_sim=4.000000s"));
        assert!(text.contains("query  sim=4.000000s (100.0%)"));
        assert!(text.contains("  scan  sim=3.000000s (75.0%)  wall=0.250000s"));
        assert!(text.contains("rows=6001215"));
        assert!(text.contains("bytes=3.0 MiB"));
        assert!(text.contains("  agg  sim=1.000000s (25.0%)"));
    }

    #[test]
    fn empty_trace() {
        assert_eq!(render(&Trace::default()), "(empty trace)\n");
    }
}
