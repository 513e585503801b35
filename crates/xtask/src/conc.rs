//! Concurrency lints: the lock discipline a runtime check cannot see.
//!
//! The lock hierarchy itself is enforced where locks are taken: every
//! `sync::DebugMutex`/`DebugRwLock` is built with a class and a rank, and
//! the `sync` auditor panics at the first acquisition (in debug builds
//! and under `sync/lock-audit`) whose rank is not strictly above every
//! lock the thread holds. What remains here is static, token-level (no
//! Rust parser), over the same code view the other lints use, scoped to
//! non-test code under `crates/` — except `crates/sync/` itself, which
//! *is* the mechanism:
//!
//! * **Atomics** — `Ordering::Relaxed` needs a `// RELAXED:`
//!   justification within the three lines above the statement it
//!   appears in (**C300**), mirroring the `unsafe`/`SAFETY:` rule.
//! * **Yield points** — a live lock guard (the result of any `.lock()`,
//!   `.read()` or `.write()` call) at a `par_iter`/`rayon::scope` fan-out
//!   or a `next_frame`/`next_batch` stream pull is flagged (**C400**):
//!   the guard would be held across arbitrary other work, re-entering
//!   the executor with a lock held. Guard liveness is tracked per line:
//!   `let`-bound guards die at end of scope or at an explicit
//!   `drop(name)`, temporaries at the end of their statement.
//! * **The lock table** (**C500**) — the `(rank, class)` rows of
//!   `LOCK_ORDER.md` must equal the `(class, rank)` literals at the
//!   `::named(` call sites that build locks, each row naming the file of
//!   its call site; and no code may declare a raw `Mutex`/`RwLock`, which
//!   the auditor could not see.
//! * **Threads** (**C600**) — no `thread::spawn`, `thread::scope` or
//!   `thread::Builder`: parallel work goes through `par_iter`, whose
//!   process-wide helper budget is then the only thing that starts
//!   threads, and so bounds them by the core count.
//!
//! C300 and C400 can be suppressed with rule-prefixed allowlist entries
//! (`C300 path: needle` in `lint-allow.txt`); C500 and C600 cannot — fix
//! the table or the call site instead.

use crate::{code_view, line_of, test_line_mask, AllowEntry, Violation};

/// Lines above a statement in which a `// RELAXED:` comment may sit
/// (mirrors the `SAFETY:` window).
const RELAXED_WINDOW: usize = 3;

/// One `LOCK_ORDER.md` row.
#[derive(Debug, Clone)]
pub struct LockRow {
    /// Acquisition rank: a thread may only acquire locks of *strictly
    /// increasing* rank while holding others.
    pub rank: u32,
    /// Lock class, the name passed to `named(`.
    pub class: String,
    /// Repo-relative file of the `named(` call site.
    pub declared_in: String,
    /// 1-based line in `LOCK_ORDER.md`.
    pub line: usize,
}

/// Parse `LOCK_ORDER.md`: the markdown table whose rows are
/// `| rank | class | declared in |`. Header and separator rows are
/// skipped; classes and ranks must be unique.
pub fn parse_lock_table(text: &str) -> Result<Vec<LockRow>, String> {
    let mut out: Vec<LockRow> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() != 3 || cells[0].eq_ignore_ascii_case("rank") || cells[0].starts_with('-') {
            continue;
        }
        let rank: u32 = cells[0]
            .parse()
            .map_err(|_| format!("LOCK_ORDER.md:{line_no}: bad rank `{}`", cells[0]))?;
        if out.iter().any(|e| e.class == cells[1]) {
            return Err(format!(
                "LOCK_ORDER.md:{line_no}: duplicate class `{}`",
                cells[1]
            ));
        }
        if out.iter().any(|e| e.rank == rank) {
            return Err(format!("LOCK_ORDER.md:{line_no}: duplicate rank {rank}"));
        }
        out.push(LockRow {
            rank,
            class: cells[1].to_string(),
            declared_in: cells[2].to_string(),
            line: line_no,
        });
    }
    Ok(out)
}

/// Is this file in scope for the concurrency passes? Production code
/// under `crates/`, excluding the auditor implementation itself and the
/// usual test/bench trees.
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/")
        && !path.starts_with("crates/sync/")
        && !path.contains("/tests/")
        && !path.contains("/benches/")
}

fn is_ident(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Does `line` hold `tok` as a whole token, with no identifier character
/// right before or after it?
fn has_token(line: &str, tok: &str) -> bool {
    let b = line.as_bytes();
    line.match_indices(tok).any(|(pos, _)| {
        (pos == 0 || !is_ident(b[pos - 1])) && !is_ident(*b.get(pos + tok.len()).unwrap_or(&b' '))
    })
}

/// First line of the multi-line statement containing `line` (1-based):
/// walk upward while the previous line continues the same expression
/// (is non-empty and does not end a statement or open/close a block).
fn stmt_anchor(view_lines: &[&str], line: usize) -> usize {
    let mut l = line;
    while l > 1 {
        let prev = view_lines[l - 2].trim();
        if prev.is_empty() {
            break;
        }
        match prev.chars().last() {
            Some(';') | Some('{') | Some('}') => break,
            _ => l -= 1,
        }
    }
    l
}

/// Does an allowlist entry suppress this candidate violation? C-rules
/// require an explicit rule prefix; bare entries are the L2 allowlist.
fn allowed(
    allow: &[AllowEntry],
    used: &mut [bool],
    rule: &str,
    path: &str,
    src_line: &str,
) -> bool {
    let mut hit = false;
    for (i, a) in allow.iter().enumerate() {
        if a.rule.as_deref() == Some(rule)
            && path.ends_with(&a.path)
            && src_line.contains(&a.needle)
        {
            if let Some(u) = used.get_mut(i) {
                *u = true;
            }
            hit = true;
        }
    }
    hit
}

/// A guard assumed live during the yield-point scan.
struct LiveGuard {
    /// The receiver the guard was taken on (for the message).
    receiver: String,
    binding: Option<String>,
    /// Brace depth at the acquisition; the guard dies when the scan
    /// leaves this depth.
    depth: usize,
    /// Temporaries (no `let`) die at the end of their statement.
    temp: bool,
}

/// Tokens after which holding a lock guard is flagged (C400): rayon
/// fan-out and streaming yield points.
const YIELD_TOKENS: &[&str] = &[
    ".par_iter(",
    ".into_par_iter(",
    ".par_bridge(",
    "rayon::scope(",
    ".next_frame(",
    ".next_batch(",
];

/// All concurrency passes over the file set against the `LOCK_ORDER.md`
/// rows. `used` has one slot per allowlist entry and is set when an
/// entry suppresses a violation.
pub fn check_concurrency(
    files: &[(String, String)],
    table: &[LockRow],
    allow: &[AllowEntry],
    used: &mut [bool],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut sites = Vec::new();
    for (path, src) in files {
        if !in_scope(path) {
            continue;
        }
        let view = code_view(src);
        let mask = test_line_mask(&view);
        let src_lines: Vec<&str> = src.lines().collect();
        let view_lines: Vec<&str> = view.lines().collect();
        scan_lock_sites(path, src, &view, &mask, &mut sites, &mut out);
        out.extend(scan_thread_starts(path, &view, &mask));
        out.extend(scan_yield_points(
            path, &view, &mask, &src_lines, allow, used,
        ));
        out.extend(scan_relaxed(
            path,
            &view,
            &mask,
            &src_lines,
            &view_lines,
            allow,
            used,
        ));
    }
    out.extend(check_table(&sites, table));
    out
}

/// One lock built with literal class and rank.
struct LockSite {
    class: String,
    rank: u32,
    file: String,
    line: usize,
}

/// C500, per file: collect the `::named(` call sites whose arguments
/// carry a string-literal class followed by the rank, and flag raw
/// `Mutex`/`RwLock` tokens. A call whose class is not a literal (a
/// wrapper forwarding its own parameters) is not a site.
fn scan_lock_sites(
    path: &str,
    src: &str,
    view: &str,
    mask: &[bool],
    sites: &mut Vec<LockSite>,
    out: &mut Vec<Violation>,
) {
    let masked = |line: usize| mask.get(line).copied().unwrap_or(false);
    let b = view.as_bytes();
    let mut search = 0;
    while let Some(off) = view[search..].find("::named(") {
        let open = search + off + "::named".len();
        search = open + 1;
        let line = line_of(view, open);
        if masked(line) {
            continue;
        }
        // Split the argument list at depth-0 commas; the code view keeps
        // byte offsets, so each span reads its literal from `src`.
        let mut args = Vec::new();
        let (mut depth, mut start) = (0usize, open + 1);
        for (k, &c) in b.iter().enumerate().skip(open) {
            match c {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        args.push(src[start..k].trim());
                        break;
                    }
                }
                b',' if depth == 1 => {
                    args.push(src[start..k].trim());
                    start = k + 1;
                }
                _ => {}
            }
        }
        let Some(ci) = args
            .iter()
            .position(|a| a.len() >= 2 && a.starts_with('"') && a.ends_with('"'))
        else {
            continue;
        };
        let class = args[ci].trim_matches('"').to_string();
        match args.get(ci + 1).and_then(|r| r.parse::<u32>().ok()) {
            Some(rank) => sites.push(LockSite {
                class,
                rank,
                file: path.to_string(),
                line,
            }),
            None => out.push(Violation {
                file: path.to_string(),
                line,
                rule: "C500",
                message: format!(
                    "lock `{class}` must be built with an integer-literal rank \
                     right after its class (LOCK_ORDER.md is checked against it)"
                ),
            }),
        }
    }
    for (idx, vline) in view.lines().enumerate() {
        if masked(idx + 1) {
            continue;
        }
        for tok in ["Mutex", "RwLock"] {
            if has_token(vline, tok) {
                out.push(Violation {
                    file: path.to_string(),
                    line: idx + 1,
                    rule: "C500",
                    message: format!(
                        "raw `{tok}` — use `sync::Debug{tok}::named(class, rank, ..)` \
                         with a LOCK_ORDER.md row, so the rank auditor sees it"
                    ),
                });
            }
        }
    }
}

/// C500 across the workspace: every site has a row with its rank and
/// file, and every row has a site.
fn check_table(sites: &[LockSite], table: &[LockRow]) -> Vec<Violation> {
    let mut out = Vec::new();
    for s in sites {
        let problem = match table.iter().find(|r| r.class == s.class) {
            None => format!(
                "lock class `{}` (rank {}) has no LOCK_ORDER.md row — add one",
                s.class, s.rank
            ),
            Some(r) if r.rank != s.rank || r.declared_in != s.file => format!(
                "lock class `{}` is built with rank {} here, but LOCK_ORDER.md:{} \
                 says rank {} in {}",
                s.class, s.rank, r.line, r.rank, r.declared_in
            ),
            Some(_) => continue,
        };
        out.push(Violation {
            file: s.file.clone(),
            line: s.line,
            rule: "C500",
            message: problem,
        });
    }
    for r in table {
        if !sites.iter().any(|s| s.class == r.class) {
            out.push(Violation {
                file: "LOCK_ORDER.md".to_string(),
                line: r.line,
                rule: "C500",
                message: format!(
                    "stale LOCK_ORDER.md row: no lock is built with class `{}` — \
                     remove the row or fix the class",
                    r.class
                ),
            });
        }
    }
    out
}

/// Calls that start OS threads outside the `par_iter` budget (C600).
const THREAD_STARTS: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];

/// C600: flag every [`THREAD_STARTS`] token outside test code.
fn scan_thread_starts(path: &str, view: &str, mask: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, vline) in view.lines().enumerate() {
        if mask.get(idx + 1).copied().unwrap_or(false) {
            continue;
        }
        for tok in THREAD_STARTS {
            if has_token(vline, tok) {
                out.push(Violation {
                    file: path.to_string(),
                    line: idx + 1,
                    rule: "C600",
                    message: format!(
                        "`{tok}` outside test code — fan work out with `par_iter`, \
                         whose process-wide budget bounds threads by the core count"
                    ),
                });
            }
        }
    }
    out
}

/// C400: guard-liveness walk over one file's code view, flagging yield
/// points reached while a guard is live (outside test code) — once per
/// line, suppressible with a `C400`-prefixed allowlist entry.
fn scan_yield_points(
    path: &str,
    view: &str,
    mask: &[bool],
    src_lines: &[&str],
    allow: &[AllowEntry],
    used: &mut [bool],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let b = view.as_bytes();
    let masked = |line: usize| mask.get(line).copied().unwrap_or(false);
    let mut depth = 0usize;
    let mut line = 1usize;
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut flagged_line = 0usize;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\n' => line += 1,
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            b';' => guards.retain(|g| !(g.temp && g.depth == depth)),
            b'd' if view[i..].starts_with("drop")
                && (i == 0 || !is_ident(b[i - 1]))
                && !is_ident(*b.get(i + 4).unwrap_or(&b' ')) =>
            {
                // `drop(name)` releases the named guard early.
                if let Some(name) = paren_ident(&view[i + 4..]) {
                    guards.retain(|g| g.binding.as_deref() != Some(name));
                }
            }
            b'.' if !masked(line)
                && [".lock()", ".read()", ".write()"]
                    .iter()
                    .any(|m| view[i..].starts_with(m)) =>
            {
                let binding = let_binding(view, i);
                guards.push(LiveGuard {
                    receiver: receiver_ident(view, i).unwrap_or_else(|| "?".into()),
                    temp: binding.is_none(),
                    binding,
                    depth,
                });
            }
            _ if !guards.is_empty() && !masked(line) && flagged_line != line => {
                if let Some(tok) = YIELD_TOKENS.iter().find(|t| view[i..].starts_with(*t)) {
                    flagged_line = line;
                    let src_line = src_lines.get(line - 1).copied().unwrap_or("");
                    if !allowed(allow, used, "C400", path, src_line) {
                        let held: Vec<&str> = guards.iter().map(|g| g.receiver.as_str()).collect();
                        out.push(Violation {
                            file: path.to_string(),
                            line,
                            rule: "C400",
                            message: format!(
                                "`{}` reached while lock guard(s) [{}] are live — don't \
                                 hold locks across rayon fan-out or stream yield points",
                                tok.trim_start_matches('.').trim_end_matches('('),
                                held.join(", ")
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The identifier the method at byte offset `dot` (a `.`) is called on:
/// walk back over whitespace, then collect the identifier. `a.b.lock()`
/// resolves to `b` — the final path segment is the field.
fn receiver_ident(view: &str, dot: usize) -> Option<String> {
    let b = view.as_bytes();
    let mut j = dot;
    while j > 0 && (b[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && is_ident(b[j - 1]) {
        j -= 1;
    }
    if j == end {
        return None;
    }
    Some(view[j..end].to_string())
}

/// If the statement containing byte offset `pos` is a `let` binding,
/// its bound name (skipping `mut`); `None` for temporaries.
fn let_binding(view: &str, pos: usize) -> Option<String> {
    let b = view.as_bytes();
    let mut start = pos;
    while start > 0 && !matches!(b[start - 1], b';' | b'{' | b'}') {
        start -= 1;
    }
    let stmt = &view[start..pos];
    let let_off = stmt.find("let ")?;
    let mut rest = stmt[let_off + 4..].trim_start();
    if let Some(r) = rest.strip_prefix("mut ") {
        rest = r.trim_start();
    }
    let name: String = rest.chars().take_while(|c| is_ident(*c as u8)).collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// The identifier inside `(…)` right after a `drop` token, if the text
/// starts with a parenthesized single identifier.
fn paren_ident(after: &str) -> Option<&str> {
    let t = after.trim_start();
    let inner = t.strip_prefix('(')?;
    let close = inner.find(')')?;
    let name = inner[..close].trim();
    if !name.is_empty() && name.bytes().all(is_ident) {
        Some(name)
    } else {
        None
    }
}

/// C300: `Ordering::Relaxed` needs a `// RELAXED:` justification within
/// [`RELAXED_WINDOW`] lines above the statement it belongs to.
#[allow(clippy::too_many_arguments)]
fn scan_relaxed(
    path: &str,
    view: &str,
    mask: &[bool],
    src_lines: &[&str],
    view_lines: &[&str],
    allow: &[AllowEntry],
    used: &mut [bool],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut search = 0;
    while let Some(off) = view[search..].find("Relaxed") {
        let pos = search + off;
        search = pos + "Relaxed".len();
        let b = view.as_bytes();
        let before = if pos == 0 { b' ' } else { b[pos - 1] };
        let after = *b.get(pos + "Relaxed".len()).unwrap_or(&b' ');
        if is_ident(before) || is_ident(after) {
            continue;
        }
        let line = line_of(view, pos);
        if mask.get(line).copied().unwrap_or(false) {
            continue;
        }
        let anchor = stmt_anchor(view_lines, line);
        let lo = anchor.saturating_sub(RELAXED_WINDOW + 1);
        let documented = src_lines[lo..line.min(src_lines.len())]
            .iter()
            .any(|l| l.contains("RELAXED:"));
        if !documented {
            let src_line = src_lines.get(line - 1).copied().unwrap_or("");
            if !allowed(allow, used, "C300", path, src_line) {
                out.push(Violation {
                    file: path.to_string(),
                    line,
                    rule: "C300",
                    message: "`Ordering::Relaxed` without a `// RELAXED:` justification \
                              in the 3 lines above its statement"
                        .into(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORDER_MD: &str = "\
# order\n\
| rank | class | declared in |\n\
|-----:|-------|-------------|\n\
| 10 | a.first | crates/a/src/lib.rs |\n\
| 20 | a.second | crates/a/src/lib.rs |\n";

    fn table() -> Vec<LockRow> {
        parse_lock_table(ORDER_MD).expect("table parses")
    }

    /// Builds both tabled locks: `check_one` on a source that starts
    /// with this reports only what the rest of the source does.
    const DECLS: &str = "\
impl S {\n\
    fn new() -> S {\n\
        S {\n\
            first: DebugMutex::named(\"a.first\", 10, 0),\n\
            second: DebugRwLock::named(\n                \"a.second\",\n                20,\n                0,\n            ),\n\
        }\n\
    }\n\
}\n";

    fn check_one(src: &str) -> Vec<Violation> {
        let files = vec![("crates/a/src/lib.rs".to_string(), src.to_string())];
        check_concurrency(&files, &table(), &[], &mut [])
    }

    #[test]
    fn parses_lock_order_table() {
        let t = table();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].rank, 10);
        assert_eq!(t[0].class, "a.first");
        assert_eq!(t[1].declared_in, "crates/a/src/lib.rs");
        assert_eq!(t[1].line, 5);
    }

    #[test]
    fn rejects_duplicate_ids_and_ranks() {
        let dup_class = format!("{ORDER_MD}| 30 | a.first | crates/a/src/lib.rs |\n");
        assert!(parse_lock_table(&dup_class).is_err());
        let dup_rank = format!("{ORDER_MD}| 10 | a.third | crates/a/src/lib.rs |\n");
        assert!(parse_lock_table(&dup_rank).is_err());
        assert!(parse_lock_table("| ten | x | y |\n").is_err());
    }

    #[test]
    fn table_check_accepts_matching_sites() {
        assert!(check_one(DECLS).is_empty(), "{:?}", check_one(DECLS));
        // A wrapper forwarding its parameters is not a site.
        let forward = format!(
            "{DECLS}fn shared(class: &str, rank: u32) -> X {{\n    X(DebugMutex::named(class, rank, 0))\n}}\n"
        );
        assert!(check_one(&forward).is_empty());
    }

    #[test]
    fn table_check_flags_missing_row() {
        let src =
            format!("{DECLS}fn f() {{\n    let g = DebugMutex::named(\"a.ghost\", 30, ());\n}}\n");
        let v = check_one(&src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("C500", 14));
        assert!(v[0].message.contains("a.ghost"), "{}", v[0].message);
        assert!(v[0].message.contains("no LOCK_ORDER.md row"));
    }

    #[test]
    fn table_check_flags_stale_row() {
        let src = "fn new() -> S {\n    S { first: DebugMutex::named(\"a.first\", 10, 0) }\n}\n";
        let v = check_one(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].file.as_str(), v[0].line), ("LOCK_ORDER.md", 5));
        assert!(v[0].message.contains("stale"), "{}", v[0].message);
    }

    #[test]
    fn table_check_flags_rank_mismatch() {
        let src = DECLS.replace("\"a.first\", 10", "\"a.first\", 30");
        let v = check_one(&src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("C500", 4));
        assert!(v[0].message.contains("rank 30"), "{}", v[0].message);
        // A rank that is not a literal cannot be checked at all.
        let v = check_one(&DECLS.replace("\"a.first\", 10", "\"a.first\", RANK"));
        assert!(
            v.iter().any(|v| v.message.contains("integer-literal rank")),
            "{v:?}"
        );
    }

    #[test]
    fn table_check_flags_raw_std_lock() {
        let src = format!(
            "{DECLS}use std::sync::{{Mutex, RwLock}};\nstruct T {{\n    raw: std::sync::Mutex<u32>,\n    ok: DebugMutex<u32>,\n}}\nstatic RAW: RwLock<u8> = RwLock::new(0);\n"
        );
        let v = check_one(&src);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![13, 13, 15, 18], "{v:?}");
        assert!(v.iter().all(|v| v.rule == "C500"));
        assert!(v[2].message.contains("raw `Mutex`"), "{}", v[2].message);
    }

    #[test]
    fn c300_relaxed_without_justification() {
        let src =
            format!("{DECLS}fn f(c: &AtomicU64) {{\n    c.fetch_add(1, Ordering::Relaxed);\n}}\n");
        let v = check_one(&src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "C300");
        assert_eq!(v[0].line, 14);
    }

    #[test]
    fn c300_justified_passes_including_multiline_statements() {
        let src = format!(
            "{DECLS}\
fn f(c: &AtomicU64) {{\n\
    // RELAXED: isolated counter.\n\
    c.fetch_add(1, Ordering::Relaxed);\n\
    // RELAXED: CAS loop, value-carried state.\n\
    c.compare_exchange(\n        0,\n        1,\n        Ordering::Relaxed,\n        Ordering::Relaxed,\n    ).ok();\n\
}}\n"
        );
        assert!(check_one(&src).is_empty());
    }

    #[test]
    fn c300_skips_test_code() {
        let src = format!("{DECLS}#[cfg(test)]\nmod tests {{\n    fn f(c: &AtomicU64) {{\n        c.load(Ordering::Relaxed);\n    }}\n}}\n");
        assert!(check_one(&src).is_empty());
    }

    fn in_fn(body: &str) -> String {
        format!("{DECLS}fn f(&self, items: &[u32]) {{\n{body}}}\n")
    }

    #[test]
    fn c400_guard_across_yield_point() {
        // Any `.lock()` result is a guard; the receiver needs no table row.
        let v = check_one(&in_fn(
            "    let g = self.registry.lock();\n    items.par_iter().for_each(|_| {});\n",
        ));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "C400");
        assert_eq!(v[0].line, 15);
        assert!(v[0].message.contains("registry"), "{}", v[0].message);
        assert!(v[0].message.contains("par_iter"), "{}", v[0].message);
        // Not even a named receiver.
        let v = check_one(&in_fn(
            "    let g = registry().lock();\n    rayon::scope(|_| {});\n",
        ));
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn c400_no_guard_is_fine() {
        assert!(check_one(&in_fn("    items.par_iter().for_each(|_| {});\n")).is_empty());
    }

    #[test]
    fn drop_releases_guard_for_ordering() {
        let body = "    let g = self.second.read();\n    drop(g);\n    items.par_iter().count();\n";
        assert!(check_one(&in_fn(body)).is_empty());
    }

    #[test]
    fn scope_exit_releases_guard() {
        let body = "    {\n        let g = self.second.write();\n    }\n    stream.next_batch();\n";
        assert!(check_one(&in_fn(body)).is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let body = "    self.second.read().len();\n    stream.next_frame();\n";
        assert!(check_one(&in_fn(body)).is_empty());
        // ... but not before it: the pull runs under the guard.
        let body = "    self.first.lock().push(stream.next_frame());\n";
        assert_eq!(check_one(&in_fn(body)).len(), 1);
    }

    #[test]
    fn c600_thread_starts_outside_tests() {
        let body = "    std::thread::spawn(|| {});\n    let b = thread::Builder::new();\n    \
                    thread::scope(|s| {});\n    my_thread::spawn();\n    thread::spawner();\n";
        let v = check_one(&in_fn(body));
        let lines: Vec<(&str, usize)> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(lines, [("C600", 14), ("C600", 15), ("C600", 16)], "{v:?}");
        assert!(v[1].message.contains("thread::Builder"), "{}", v[1].message);
        // Test code may start threads.
        let src = format!("{DECLS}#[cfg(test)]\nmod tests {{\n    fn f() {{\n        std::thread::spawn(|| {{}});\n    }}\n}}\n");
        assert!(check_one(&src).is_empty());
    }

    #[test]
    fn rule_prefixed_allowlist_suppresses_and_marks_used() {
        let src = "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let files = vec![("crates/a/src/lib.rs".to_string(), src.to_string())];
        let allow = crate::parse_allowlist("C300 src/lib.rs: fetch_add(1, Ordering::Relaxed)\n");
        let mut used = vec![false; allow.len()];
        let v = check_concurrency(&files, &[], &allow, &mut used);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(used, vec![true]);
        // A bare (L2) entry does not suppress C300.
        let bare = crate::parse_allowlist("src/lib.rs: fetch_add(1, Ordering::Relaxed)\n");
        let mut used2 = vec![false; bare.len()];
        let v2 = check_concurrency(&files, &[], &bare, &mut used2);
        assert_eq!(v2.iter().filter(|v| v.rule == "C300").count(), 1);
        assert_eq!(used2, vec![false]);
    }

    #[test]
    fn sync_crate_and_test_trees_are_out_of_scope() {
        let src = "struct S {\n    raw: Mutex<u32>,\n}\nfn f() {\n    let g = DebugMutex::named(\"x.ghost\", 5, ());\n}\n";
        for path in [
            "crates/sync/src/lib.rs",
            "crates/a/tests/x.rs",
            "crates/a/benches/x.rs",
            "tests/tests/x.rs",
        ] {
            let files = vec![(path.to_string(), src.to_string())];
            let v = check_concurrency(&files, &[], &[], &mut []);
            assert!(v.is_empty(), "{path}: {v:?}");
        }
    }
}
