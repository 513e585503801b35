//! The little JSON this harness writes: strings, numbers, and the result
//! object the driver reads from the last line of standard output.

use crate::measure::Metric;

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with all its digits (`{}` prints the shortest
/// text that reads back to the same `f64`); a non-finite value, which
/// JSON cannot carry, becomes 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one-line result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(attempted: usize, failed: usize, m: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics(m)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::chrome::{parse_json, Json};

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let m = [
            Metric {
                name: "wall_p50_ms",
                value: 1.203_456_789_012,
                unit: "ms",
            },
            Metric {
                name: "broken",
                value: f64::NAN,
                unit: "1/s",
            },
        ];
        let line = result_line(10, 1, &m);
        assert!(!line.contains('\n'));
        let doc = parse_json(&line).expect("parses");
        let Json::Obj(fields) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_num), Some(10.0));
        let p50 = doc
            .get("metrics")
            .and_then(|m| m.get("wall_p50_ms"))
            .unwrap();
        assert_eq!(
            p50.get("value").and_then(Json::as_num),
            Some(1.203_456_789_012)
        );
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        let broken = doc.get("metrics").and_then(|m| m.get("broken")).unwrap();
        assert_eq!(broken.get("value").and_then(Json::as_num), Some(0.0));
        assert_eq!(
            parse_json(&result_line(3, 0, &[])).unwrap().get("correct"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(
            parse_json(&string("tab\there")).unwrap().as_str(),
            Some("tab\there")
        );
    }
}
