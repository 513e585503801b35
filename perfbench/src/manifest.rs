//! The benchmark's contract as data: metric names, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is this
//! table printed by `perfbench manifest`; a test keeps the two equal.

use crate::json;
use crate::stack::WORKLOADS;

/// Seconds one run measures (`--seconds` as the driver passes it).
pub const RUN_SECONDS: u32 = 15;

/// An end-to-end metric: (name, unit, better, bound). The bound is the
/// share of the parent's median by which a change may worsen the metric;
/// README.md, "Bounds", has the measured spreads they rest on.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_p50_ms", "ms", "lower", 0.25),
    ("wall_p95_ms", "ms", "lower", 0.25),
    ("throughput_ops_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("sim_seconds_per_query", "sim_s", "lower", 0.02),
    ("moved_bytes_per_query", "B", "lower", 0.02),
];

/// A per-layer metric: (name, unit, better). Layer = crate name. The
/// direction of a drift indicator (`netsim.fidelity.*`) and of a size
/// (`substrait-ir.plan_bytes`) only says which way is cheaper.
pub const PER_LAYER: [(&str, &str, &str); 53] = [
    ("sqlparse.parse_us", "us", "lower"),
    ("engine.plan_us", "us", "lower"),
    ("core.translate_us", "us", "lower"),
    ("substrait-ir.encode_us", "us", "lower"),
    ("substrait-ir.decode_us", "us", "lower"),
    ("substrait-ir.planck_us", "us", "lower"),
    ("substrait-ir.plan_bytes", "B", "lower"),
    ("objstore.get_us", "us", "lower"),
    ("objstore.put_us", "us", "lower"),
    ("parq.open_us", "us", "lower"),
    ("parq.read_mb_per_s", "MB/s", "higher"),
    ("parq.write_mb_per_s", "MB/s", "higher"),
    ("ingest.op_ms_p50", "ms", "lower"),
    ("ingest.mb_per_s", "MB/s", "higher"),
    ("lzcodec.decompress_mb_per_s", "MB/s", "higher"),
    ("lzcodec.compress_mb_per_s", "MB/s", "higher"),
    ("lzcodec.ratio", "ratio", "higher"),
    ("lzcodec.busy_share", "ratio", "lower"),
    ("ocs.execute_ms", "ms", "lower"),
    ("ocs.storage_wall_ms", "ms", "lower"),
    ("ocs.rows_scanned", "count", "lower"),
    ("ocs.rows_returned", "count", "lower"),
    ("ocs.row_groups_skipped", "count", "higher"),
    ("ocs.frames", "count", "lower"),
    ("ocs.frame_bytes_p50", "B", "lower"),
    ("ocs.peak_buffered_bytes", "B", "lower"),
    ("ocs.cache.rg_hit_rate", "ratio", "higher"),
    ("ocs.cache.result_hit_rate", "ratio", "higher"),
    ("ocs.cache.evictions", "count", "lower"),
    ("ocs.cache.bytes_avoided", "B", "higher"),
    ("columnar.ipc_encode_ms", "ms", "lower"),
    ("columnar.ipc_decode_ms", "ms", "lower"),
    ("columnar.ipc_mb_per_s", "MB/s", "higher"),
    ("columnar.groupby_update_ms", "ms", "lower"),
    ("engine.execute_cpu_ms", "ms", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("netsim.sim.plan_analysis_s", "sim_s", "lower"),
    ("netsim.sim.substrait_gen_s", "sim_s", "lower"),
    ("netsim.sim.storage_disk_s", "sim_s", "lower"),
    ("netsim.sim.storage_decompress_s", "sim_s", "lower"),
    ("netsim.sim.storage_cpu_s", "sim_s", "lower"),
    ("netsim.sim.frontend_cpu_s", "sim_s", "lower"),
    ("netsim.sim.network_s", "sim_s", "lower"),
    ("netsim.sim.compute_cpu_s", "sim_s", "lower"),
    ("netsim.sim.other_s", "sim_s", "lower"),
    ("netsim.fidelity.storage_cpu", "ratio", "lower"),
    ("netsim.fidelity.decompress", "ratio", "lower"),
    ("obs.spans_per_query", "count", "lower"),
    ("obs.flight_events_per_query", "count", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.queries", "count", "higher"),
    ("trace.self.query_us", "us", "lower"),
];

/// Unit of a per-layer metric.
pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("{name} is not in manifest::PER_LAYER"))
}

/// `BENCHMARK.json`, as the driver's contract lays it out.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| {
        let quoted: Vec<String> = items.iter().map(|s| json::string(s)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json::string(w.name),
                json::string(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                json::string(name),
                json::string(unit),
                json::string(better)
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(name),
                json::string(unit),
                json::string(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--",
        ]),
        strings(&["perfbench"]),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::chrome::{parse_json, Json};

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_obeys_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for (i, n) in names.iter().enumerate() {
            assert!(name_ok(n), "bad name {n}");
            assert!(!names[..i].contains(n), "{n} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(unit.len() <= 16, "unit {unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.3 > 0.0 && m.3 <= 0.25 && ["lower", "higher"].contains(&m.2)));
        assert_eq!(END_TO_END[0].0, "setup_s");
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_manifest() {
        let doc = parse_json(&benchmark_json()).expect("manifest is JSON");
        let Json::Obj(fields) = &doc else {
            panic!("manifest is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `perfbench manifest > BENCHMARK.json`"
        );
    }
}
