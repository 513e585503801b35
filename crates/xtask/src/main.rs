//! Repo tasks:
//!
//! * `cargo run -p xtask -- lint` — run the repo lints (including the
//!   concurrency lints against `LOCK_ORDER.md`); non-zero exit on any
//!   violation. See `xtask::lint_source` and `xtask::conc` for the rules.
//! * `cargo run -p xtask -- validate-trace <file.json>` — validate a
//!   Chrome trace-event file exported by `obs::chrome::export` (used by CI
//!   against the `trace_query` example's output).
//! * `cargo run -p xtask -- results-diff [<rev>]` — print every numeric
//!   cell of `results/*.txt` that differs from the file at git revision
//!   `<rev>` (default `HEAD`), with its relative change: the moved cells a
//!   change declares. See `xtask::results`.

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
        Some("results-diff") => results_diff(args.get(1).map_or("HEAD", String::as_str)),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <lint | validate-trace <file.json> | results-diff [<rev>]>"
            );
            ExitCode::from(2)
        }
    }
}

fn results_diff(rev: &str) -> ExitCode {
    let root = xtask::workspace_root();
    let mut files: Vec<_> = match std::fs::read_dir(root.join("results")) {
        Ok(dir) => dir
            .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
            .filter(|name| name.ends_with(".txt"))
            .collect(),
        Err(e) => {
            eprintln!("results-diff: reading results/: {e}");
            return ExitCode::FAILURE;
        }
    };
    files.sort();
    let (mut cells, mut lines) = (0, 0);
    for name in &files {
        let path = format!("results/{name}");
        let new = match std::fs::read_to_string(root.join(&path)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("results-diff: reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let shown = std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .arg("show")
            .arg(format!("{rev}:{path}"))
            .output();
        // A file the revision does not have is all new lines.
        let old = match shown {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            Ok(_) => String::new(),
            Err(e) => {
                eprintln!("results-diff: running git: {e}");
                return ExitCode::FAILURE;
            }
        };
        for change in xtask::results::diff(&old, &new) {
            match change {
                xtask::results::Change::Cell { .. } => cells += 1,
                xtask::results::Change::Line { .. } => lines += 1,
            }
            println!("{path}:{change}");
        }
    }
    println!("results-diff: {cells} moved cell(s), {lines} changed line(s) against {rev}");
    ExitCode::SUCCESS
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
