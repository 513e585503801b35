//! Chrome trace-event export and validation.
//!
//! [`export`] renders a [`Trace`] as the Chrome trace-event JSON format
//! (`{"traceEvents": [...]}` with complete `"X"` events), loadable in
//! `chrome://tracing` and Perfetto. Simulated seconds map to microsecond
//! timestamps; each span *category* gets its own `tid` row so categories
//! whose spans overlap in simulated time (e.g. per-split lanes) render as
//! separate tracks instead of a corrupted nest.
//!
//! [`validate`] is the CI-side check: it re-parses exported JSON with a
//! small hand-rolled parser (the workspace vendors no serde) and checks
//! the structural rules Perfetto cares about for the phases the exporters
//! emit — well-formed JSON, every event has `name`/`ph`/`ts`/`pid`/`tid`,
//! `"X"` events carry non-negative `dur`, and `"C"` counters carry a
//! numeric series. Any other phase is rejected.

use crate::profile::Profile;
use crate::span::Trace;
use std::collections::BTreeMap;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a trace as Chrome trace-event JSON.
///
/// Spans become complete (`"X"`) events at microsecond resolution on
/// `pid` 1; categories are assigned `tid` rows in order of first
/// appearance so the root/phase track stays on `tid` 1. Span attributes
/// and wall-clock seconds are carried in `args`.
pub fn export(trace: &Trace) -> String {
    export_with_profile(trace, None)
}

/// [`export`] plus per-resource utilization counter tracks.
///
/// Each [`Profile`] timeline becomes a Chrome counter (`"C"`) track named
/// `util:<resource>` sampling the number of busy lanes at every point the
/// concurrency changes — rendered by Perfetto as a step graph alongside
/// the span tracks, which is exactly the "what saturated while this span
/// ran" view bottleneck attribution numbers come from.
pub fn export_with_profile(trace: &Trace, profile: Option<&Profile>) -> String {
    let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
    let mut next_tid = 1u64;
    let mut events: Vec<String> = Vec::with_capacity(trace.spans.len() + 4);
    for span in &trace.spans {
        let tid = *tids.entry(span.cat.as_str()).or_insert_with(|| {
            let t = next_tid;
            next_tid += 1;
            t
        });
        let ts_us = span.start_s * 1e6;
        let dur_us = span.seconds() * 1e6;
        let mut args = String::new();
        if let Some(w) = span.wall_s {
            args.push_str(&format!("\"wall_s\":{w:.9}"));
        }
        for (k, v) in &span.attrs {
            if !args.is_empty() {
                args.push(',');
            }
            match v {
                crate::span::AttrValue::U64(n) => {
                    args.push_str(&format!("\"{}\":{n}", json_escape(k)))
                }
                crate::span::AttrValue::F64(f) => {
                    if f.is_finite() {
                        args.push_str(&format!("\"{}\":{f:.9}", json_escape(k)));
                    } else {
                        args.push_str(&format!("\"{}\":null", json_escape(k)));
                    }
                }
                crate::span::AttrValue::Str(s) => {
                    args.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(s)))
                }
            }
        }
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}",
            json_escape(&span.name),
            json_escape(&span.cat),
        ));
    }
    // Utilization counter tracks: one "C" series per resource, sampled at
    // each concurrency change point (counters are keyed by name, so they
    // share tid 0 without colliding).
    if let Some(profile) = profile {
        for timeline in &profile.timelines {
            for (t, busy) in timeline.steps() {
                let ts_us = (t * 1e6).max(0.0);
                events.push(format!(
                    "{{\"name\":\"util:{}\",\"ph\":\"C\",\"ts\":{ts_us:.3},\"pid\":1,\"tid\":0,\"args\":{{\"busy\":{busy}}}}}",
                    json_escape(&timeline.resource),
                ));
            }
        }
    }
    // Name the thread rows after their categories so Perfetto labels them.
    for (cat, tid) in &tids {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(cat)
        ));
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

// ---------------------------------------------------------------------
// Minimal JSON parser — just enough to validate exported traces in CI
// without pulling a JSON dependency into the workspace.
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 64 {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-utf8 number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates render as the replacement char;
                            // the validator only needs structure.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("non-utf8 string"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a JSON document (errors carry a byte offset; never panics).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

/// Validate a Chrome trace-event document (the CI gate behind
/// `xtask validate-trace`). Checks:
///
/// * well-formed JSON with a `traceEvents` array,
/// * at least one duration event,
/// * every event has a string `name` and `ph`, numeric `pid`/`tid`,
///   and (except metadata `"M"` events) a numeric `ts`,
/// * complete `"X"` events carry a finite, non-negative `dur`,
/// * counter `"C"` events carry an `args` object with at least one
///   finite numeric series value,
/// * any phase other than the `"X"`, `"C"` and `"M"` that
///   [`export_with_profile`] and perfbench's span exporter emit is
///   rejected as `unsupported ph`.
///
/// Returns a short summary (event counts) on success.
pub fn validate(text: &str) -> Result<String, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut complete = 0usize;
    let mut metadata = 0usize;
    let mut counters = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i} ('{name}'): missing ph"))?;
        for key in ["pid", "tid"] {
            if ev.get(key).and_then(|v| v.as_num()).is_none() {
                return Err(format!("event {i} ('{name}'): missing {key}"));
            }
        }
        if ph != "M" {
            let ts = ev
                .get("ts")
                .and_then(|v| v.as_num())
                .ok_or_else(|| format!("event {i} ('{name}'): missing ts"))?;
            if !ts.is_finite() || ts < 0.0 {
                return Err(format!("event {i} ('{name}'): bad ts {ts}"));
            }
        }
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(|v| v.as_num())
                    .ok_or_else(|| format!("event {i} ('{name}'): X without dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i} ('{name}'): negative dur {dur}"));
                }
                complete += 1;
            }
            "C" => {
                let args = ev
                    .get("args")
                    .ok_or_else(|| format!("event {i} ('{name}'): C without args"))?;
                let series = match args {
                    Json::Obj(fields) => fields,
                    _ => return Err(format!("event {i} ('{name}'): C args not an object")),
                };
                let numeric = series
                    .iter()
                    .any(|(_, v)| v.as_num().is_some_and(|n| n.is_finite()));
                if !numeric {
                    return Err(format!(
                        "event {i} ('{name}'): C without a finite numeric series value"
                    ));
                }
                counters += 1;
            }
            "M" => metadata += 1,
            other => {
                return Err(format!("event {i} ('{name}'): unsupported ph '{other}'"));
            }
        }
    }
    if complete == 0 {
        return Err("trace has no duration events".to_string());
    }
    Ok(format!(
        "{complete} duration event(s), {counters} counter sample(s), {metadata} metadata event(s)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn sample_trace() -> Trace {
        let t = Tracer::new();
        let root = t.record("query", "phase", None, 0.0, 2.0);
        let plan = t.record("plan \"q\"", "phase", Some(root), 0.0, 0.5);
        t.attr(plan, "nodes", 7u64);
        t.set_wall(plan, 0.00012);
        let s0 = t.record("split[0]", "split", Some(root), 0.5, 2.0);
        t.attr(s0, "note", "line1\nline2");
        t.finish()
    }

    #[test]
    fn export_validates() {
        let json = export(&sample_trace());
        let summary = validate(&json).expect("exported trace is valid");
        assert!(summary.contains("3 duration"));
    }

    #[test]
    fn export_structure() {
        let json = export(&sample_trace());
        let doc = parse_json(&json).expect("parses");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("arr");
        // 3 spans + 2 thread_name metadata rows (phase, split).
        assert_eq!(events.len(), 5);
        let plan = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("plan \"q\""))
            .expect("escaped name roundtrips");
        assert_eq!(
            plan.get("args")
                .and_then(|a| a.get("nodes"))
                .and_then(|v| v.as_num()),
            Some(7.0)
        );
        assert_eq!(plan.get("dur").and_then(|v| v.as_num()), Some(500_000.0));
    }

    #[test]
    fn validator_rejects_bad_traces() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate("{\"traceEvents\":[]}").is_err());
        // Negative duration.
        assert!(validate(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":-1,\"pid\":1,\"tid\":1}]}"
        )
        .is_err());
        // Missing tid.
        assert!(validate(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":1}]}"
        )
        .is_err());
        // No exporter emits B/E, so even a balanced pair is rejected.
        let err = validate(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1},{\"name\":\"a\",\"ph\":\"E\",\"ts\":5,\"pid\":1,\"tid\":1}]}"
        )
        .expect_err("B/E is not an exported phase");
        assert!(err.contains("unsupported ph 'B'"), "{err}");
    }

    #[test]
    fn counter_tracks_export_and_validate() {
        let mut profile = crate::profile::Profile::new(0.0, 2.0);
        profile.add_resource("storage-cores", 2, vec![(0.0, 1.0), (0.5, 1.5)]);
        profile.add_resource("link", 1, vec![(0.2, 1.8)]);
        let json = export_with_profile(&sample_trace(), Some(&profile));
        let summary = validate(&json).expect("counter-bearing trace is valid");
        // storage-cores steps: 0.0, 0.5, 1.0, 1.5; link steps: 0.2, 1.8.
        assert!(summary.contains("6 counter sample(s)"), "{summary}");
        let doc = parse_json(&json).expect("parses");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("arr");
        let samples: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C"))
            .collect();
        assert_eq!(samples.len(), 6);
        // The overlap window [0.5, 1.0] shows 2 busy storage lanes.
        let two_deep = samples
            .iter()
            .find(|e| {
                e.get("name").and_then(|v| v.as_str()) == Some("util:storage-cores")
                    && e.get("ts").and_then(|v| v.as_num()) == Some(500_000.0)
            })
            .expect("step at 0.5 s");
        assert_eq!(
            two_deep
                .get("args")
                .and_then(|a| a.get("busy"))
                .and_then(|v| v.as_num()),
            Some(2.0)
        );
        // Counter series end back at zero.
        let last_link = samples
            .iter()
            .rfind(|e| e.get("name").and_then(|v| v.as_str()) == Some("util:link"))
            .expect("link samples");
        assert_eq!(
            last_link
                .get("args")
                .and_then(|a| a.get("busy"))
                .and_then(|v| v.as_num()),
            Some(0.0)
        );
    }

    #[test]
    fn validator_checks_counter_events() {
        // A lone counter event has no duration events — still an error.
        assert!(validate(
            "{\"traceEvents\":[{\"name\":\"c\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"busy\":1}}]}"
        )
        .is_err());
        let with_span = |counter: &str| {
            format!(
                "{{\"traceEvents\":[{{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":1}},{counter}]}}"
            )
        };
        assert!(validate(&with_span(
            "{\"name\":\"c\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"busy\":1}}"
        ))
        .is_ok());
        // Missing args.
        assert!(validate(&with_span(
            "{\"name\":\"c\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"tid\":0}"
        ))
        .is_err());
        // args without a numeric series.
        assert!(validate(&with_span(
            "{\"name\":\"c\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"busy\":\"x\"}}"
        ))
        .is_err());
    }

    #[test]
    fn json_parser_basics() {
        let v = parse_json("{\"a\": [1, 2.5, \"x\\n\", true, null], \"b\": {}}").expect("parses");
        let arr = v.get("a").and_then(|v| v.as_arr()).expect("arr");
        assert_eq!(arr[1].as_num(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(arr[3], Json::Bool(true));
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("\"\\u00e9\"").expect("escape").as_str() == Some("é"));
    }
}
