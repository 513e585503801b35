//! `perfbench` — the repository's two-clock end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! perfbench selfcheck [--seed <u64>]
//! perfbench manifest
//! ```
//!
//! `--trace 0` is the timed run: it sets the stack up, drives the seeded
//! op sequence through `dsq::Engine::execute` from one client thread for
//! `--seconds`, verifies answers, and prints the end-to-end metrics.
//! `--trace 1` is the separate traced run that yields the per-layer
//! metrics and a Chrome trace under `perfbench/out/`. Either way the last
//! line of standard output is the result object; the line before it is
//! the run's metadata. README.md explains the workloads and how the
//! layers map onto the end-to-end metrics.

mod json;
mod manifest;
mod measure;
mod ops;
mod probe;
mod spans;
mod stack;

use std::process::{Command, ExitCode};

use measure::{Budget, Metric, Section};
use stack::{Scale, Workload};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 3;
/// Share of a traced run's seconds spent untraced first, as the base of
/// `trace.overhead_share`.
const UNTRACED_SHARE: f64 = 0.25;

/// One finished run.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// 0 when every op succeeded and every checked answer was right.
    fn exit_code(&self) -> u8 {
        u8::from(self.failed > 0)
    }
}

/// The timed run: end-to-end metrics, harness tracing off.
fn timed_run(workload: &'static Workload, scale: Scale, seed: u64, budget: Budget) -> Outcome {
    let load1 = load1();
    let (setup_s, mut runner) = measure::timed_set_up(workload, scale, seed, SETUPS_PER_RUN);
    let mut section = runner.section(0, budget);
    let wrong = runner.verify(&mut section);
    print_meta(workload, &scale, seed, &load1, false, &[&section]);
    Outcome {
        attempted: section.ops,
        failed: section.failed + wrong,
        metrics: measure::end_to_end(setup_s, &section),
    }
}

/// The traced run: the same op sequence, first untraced for a quarter of
/// the budget, then with spans and layer probes around every op.
fn traced_run(workload: &'static Workload, scale: Scale, seed: u64, budget: Budget) -> Outcome {
    let load1 = load1();
    let mut runner = measure::set_up(workload, scale, seed);
    let (untraced_budget, traced_budget) = match budget {
        Budget::Seconds(s) => (
            Budget::Seconds(s * UNTRACED_SHARE),
            Budget::Seconds(s * (1.0 - UNTRACED_SHARE)),
        ),
        Budget::Ops(n) => (Budget::Ops(n), Budget::Ops(n)),
    };
    let untraced = runner.section(0, untraced_budget);
    runner.tracer = spans::Tracer::new(true);
    runner.probe = Some(probe::Probe::new(&runner.stack));
    let mut traced = runner.section(untraced.ops, traced_budget);
    obs::set_kernel_timing(false);
    let probe = runner.probe.take().expect("set above");
    let metrics = probe.metrics(&runner.tracer, &traced, &untraced);
    let wrong = runner.verify(&mut traced);

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = out.join(format!("trace-{}.json", workload.name));
    let written = std::fs::create_dir_all(&out)
        .and_then(|_| std::fs::write(&file, spans::chrome_trace(runner.tracer.spans())));
    match written {
        Ok(()) => eprintln!("perfbench: Chrome trace written to {}", file.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", file.display()),
    }
    print_meta(workload, &scale, seed, &load1, true, &[&untraced, &traced]);
    Outcome {
        attempted: untraced.ops + traced.ops,
        failed: untraced.failed + traced.failed + wrong,
        metrics,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The 1-minute load average, read before the run adds to it.
fn load1() -> String {
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    load.split_whitespace().next().unwrap_or("0").to_string()
}

/// One line of run metadata, so two result files can be checked for
/// comparability before they are compared.
fn print_meta(
    workload: &Workload,
    scale: &Scale,
    seed: u64,
    load1: &str,
    traced: bool,
    sections: &[&Section],
) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (rg_cache, result_cache) = workload.cache_budgets(scale);
    let shapes: Vec<String> = (0..3)
        .map(|t| {
            let (files, rows) = workload.shape(scale, t);
            format!("\"{}\": [{files}, {rows}]", stack::TABLES[t])
        })
        .collect();
    let count = |f: fn(&Section) -> usize| sections.iter().map(|s| f(s)).sum::<usize>();
    println!(
        "{{\"meta\": {{\"workload\": {}, \"mode\": {}, \"seed\": {seed}, \"commit\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"load1_at_start\": {load1}, \"codec\": {}, \"connector\": {}, \"reference\": {}, \"files_rows_per_file\": {{{}}}, \"row_group_rows\": {}, \"rg_cache_bytes\": {rg_cache}, \"result_cache_bytes\": {result_cache}, \"ops\": {}, \"query_samples\": {}, \"query_samples_kept\": {}, \"ingests\": {}, \"timed_wall_s\": {}}}}}",
        json::string(workload.name),
        json::string(if traced { "trace" } else { "run" }),
        json::string(&command_line("git", &["rev-parse", "HEAD"])),
        json::string(&command_line("rustc", &["-V"])),
        json::string(workload.codec.name()),
        json::string(workload.connector),
        json::string(workload.reference),
        shapes.join(", "),
        scale.row_group_rows,
        count(|s| s.ops),
        count(|s| s.query_ms.len()),
        count(|s| s.undisturbed().1.queries),
        count(|s| s.ingest_ms.len()),
        json::number(sections.iter().map(|s| s.wall_s).sum()),
    );
}

/// Run every workload twice at a reduced op count and check that what
/// must repeat exactly does. Wall and CPU numbers are printed beside
/// their bounds for information: at this op count they carry too few
/// samples for the bounds to apply.
fn selfcheck(seed: u64) -> u8 {
    let mut bad = 0;
    for workload in &stack::WORKLOADS {
        let ops = Budget::Ops(if workload.layout == stack::Layout::Hot {
            160
        } else {
            60
        });
        let runs: Vec<(Outcome, Outcome)> = (0..2)
            .map(|_| {
                (
                    timed_run(workload, Scale::FULL, seed, ops),
                    traced_run(workload, Scale::FULL, seed, ops),
                )
            })
            .collect();
        let value = |o: &Outcome, name: &str| {
            o.metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        for (name, _, _, bound) in manifest::END_TO_END {
            let (a, b) = (value(&runs[0].0, name), value(&runs[1].0, name));
            let exact = matches!(name, "sim_seconds_per_query" | "moved_bytes_per_query");
            let same = a.to_bits() == b.to_bits();
            let verdict = match (exact, same) {
                (true, true) => "identical",
                (true, false) => {
                    bad += 1;
                    "DIFFERS"
                }
                (false, _) => "informational",
            };
            println!(
                "{:<16} {name:<26} {a:>16.6} {b:>16.6}  diff {:>8.4}  bound {bound:<5} {verdict}",
                workload.name,
                (b - a).abs() / a.abs().max(f64::MIN_POSITIVE),
            );
        }
        for (name, _, _) in manifest::PER_LAYER {
            let exact = (name.starts_with("ocs.") || name.starts_with("netsim.sim."))
                && !name.ends_with("_ms")
                && name != "ocs.peak_buffered_bytes";
            if !exact {
                continue;
            }
            let (a, b) = (value(&runs[0].1, name), value(&runs[1].1, name));
            if a.to_bits() != b.to_bits() {
                bad += 1;
                println!(
                    "{:<16} {name:<26} {a:>16.6} {b:>16.6}  DIFFERS",
                    workload.name
                );
            }
        }
        bad += runs.iter().map(|(r, t)| r.failed + t.failed).sum::<usize>();
    }
    println!("selfcheck: {}", if bad == 0 { "ok" } else { "FAILED" });
    u8::from(bad > 0)
}

fn usage() -> ExitCode {
    let names: Vec<&str> = stack::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>\n       perfbench selfcheck [--seed <u64>]\n       perfbench manifest",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let seed = flag("--seed").map(str::parse::<u64>);
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("selfcheck") => {
            return match seed.unwrap_or(Ok(1)) {
                Ok(seed) => ExitCode::from(selfcheck(seed)),
                Err(_) => usage(),
            };
        }
        _ => {}
    }
    let (Some(workload), Some(Ok(seed)), Some(Ok(seconds)), Some(trace)) = (
        flag("--workload").and_then(stack::workload),
        seed,
        flag("--seconds").map(str::parse::<f64>),
        flag("--trace").filter(|t| matches!(*t, "0" | "1")),
    ) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return usage();
    }
    let budget = Budget::Seconds(seconds);
    let outcome = if trace == "1" {
        traced_run(workload, Scale::FULL, seed, budget)
    } else {
        timed_run(workload, Scale::FULL, seed, budget)
    };
    println!(
        "{}",
        json::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::from(outcome.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload end to end at tiny scale: set-up, a few ops timed
    /// and traced, verification, every metric present and finite.
    #[test]
    fn quick_smoke_runs_all_five_workloads() {
        for workload in &stack::WORKLOADS {
            let run = timed_run(workload, Scale::QUICK, 7, Budget::Ops(12));
            assert_eq!(run.failed, 0, "{}", workload.name);
            assert_eq!(run.exit_code(), 0);
            assert!(run.attempted >= 12);
            let names: Vec<&str> = run.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = manifest::END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, expected);
            for m in &run.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {m:?}",
                    workload.name
                );
            }

            let traced = traced_run(workload, Scale::QUICK, 7, Budget::Ops(12));
            assert_eq!(traced.failed, 0, "{}", workload.name);
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = manifest::PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, expected);
            assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
            let get = |n: &str| traced.metrics.iter().find(|m| m.name == n).unwrap().value;
            assert!(get("sqlparse.parse_us") > 0.0);
            assert!(get("parq.read_mb_per_s") > 0.0);
            // The raw connector never reaches OCS; the others always do.
            assert_eq!(get("ocs.execute_ms") > 0.0, workload.connector != "raw");
            assert_eq!(
                get("lzcodec.ratio") > 0.0,
                workload.codec != lzcodec::CodecKind::None
            );
        }
    }

    #[test]
    fn a_failed_op_makes_the_run_exit_non_zero() {
        let ok = Outcome {
            attempted: 10,
            failed: 0,
            metrics: Vec::new(),
        };
        let bad = Outcome {
            attempted: 10,
            failed: 1,
            metrics: Vec::new(),
        };
        assert_eq!((ok.exit_code(), bad.exit_code()), (0, 1));
        assert!(json::result_line(bad.attempted, bad.failed, &bad.metrics)
            .starts_with("{\"correct\": false"));
    }
}
