//! Repo tasks:
//!
//! * `cargo run -p xtask -- lint` — run the repo lints (including the
//!   concurrency lints against `LOCK_ORDER.md`); non-zero exit on any
//!   violation. See `xtask::lint_source` and `xtask::conc` for the rules.
//! * `cargo run -p xtask -- validate-trace <file.json>` — validate a
//!   Chrome trace-event file exported by `obs::chrome::export` (used by CI
//!   against the `trace_query` example's output).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("validate-trace") => match args.get(1) {
            Some(path) => validate_trace(path),
            None => {
                eprintln!("usage: cargo run -p xtask -- validate-trace <file.json>");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint | validate-trace <file.json>>");
            ExitCode::from(2)
        }
    }
}

fn lint() -> ExitCode {
    let root = xtask::workspace_root();
    let start = std::time::Instant::now();
    match xtask::run(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("lint: clean ({:.0?})", start.elapsed());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!(
                "lint: {} violation(s) ({:.0?})",
                violations.len(),
                start.elapsed()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn validate_trace(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate-trace: reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match obs::chrome::validate(&text) {
        Ok(summary) => {
            println!("validate-trace: {path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate-trace: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
