//! Token-level repo lints, run as `cargo run -p xtask -- lint`.
//!
//! Four general rules, all enforced over a *code view* of each source
//! file — the original text with comments, string literals, and char
//! literals blanked out (newlines preserved) so tokens inside them never
//! match:
//!
//! 1. **`unsafe` needs `// SAFETY:`** (`L1`) — every `unsafe` token must
//!    have a `SAFETY:` comment on its own line or within the three lines
//!    above.
//! 2. **No `unwrap`/`expect` on the trust boundary** (`L2`) — non-test
//!    code in `crates/ocs`, `crates/substrait-ir`, `crates/core`,
//!    `crates/obs` (which decodes span payloads off the wire),
//!    `crates/lzcodec` and `parq::{encoding, reader}` (which decode column
//!    chunks, pages and footers off the store) and the
//!    shared operator / expression modules the storage side runs
//!    (`columnar::{batch, expr, ops, sort, groupby, dict,
//!    kernels::{hash, selection}}`) must
//!    not call `.unwrap()` or `.expect(`; a storage node must return an
//!    error frame, never abort. Survivors are listed in
//!    `crates/xtask/lint-allow.txt` with a justification. Every scope
//!    names a path that exists, so a deleted module leaves no dead scope.
//! 3. **No dead error variants** (`L3`) — every variant of a `pub enum
//!    *Error` must be constructed somewhere in the workspace; an
//!    unconstructable variant is an error path that cannot happen and
//!    should be deleted.
//! 4. **No stale allowlist entries** (`L4`) — every `lint-allow.txt`
//!    entry must suppress at least one would-be violation; an unused
//!    entry means the excused code is gone and the entry must go too.
//!
//! The [`conc`] module adds the concurrency lints (`C300`–`C600`): the
//! `Ordering::Relaxed`/`RELAXED:` justification rule, a
//! guard-across-yield-point check, the check that `LOCK_ORDER.md`
//! lists exactly the classes and ranks the locks are built with, and the
//! ban on starting threads outside `par_iter`. See the module docs for
//! the individual codes.
//!
//! The scanner is deliberately not a Rust parser (no external deps); the
//! heuristics are documented inline where they matter.

pub mod conc;
pub mod results;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose non-test code falls under rule 2 (the Substrait trust
/// boundary: engine-side translation, the IR itself, and the OCS side),
/// plus the streaming-boundary modules that decode untrusted wire frames
/// or schedule from untrusted durations, the modules that decode stored
/// objects (`lzcodec`, `parq::{encoding, reader}`), and — because the rule
/// is keyed by path — the shared modules that storage-side code moved into
/// (`columnar::{expr, ops}`, the batch, sort, group-by, dictionary, hash
/// and selection code under them run inside the storage node).
const BANNED_PANIC_CRATES: &[&str] = &[
    "crates/cache/",
    "crates/ocs/",
    "crates/substrait-ir/",
    "crates/core/",
    "crates/obs/",
    "crates/columnar/src/batch.rs",
    "crates/columnar/src/dict.rs",
    "crates/columnar/src/expr.rs",
    "crates/columnar/src/groupby.rs",
    "crates/columnar/src/ipc.rs",
    "crates/columnar/src/kernels/hash.rs",
    "crates/columnar/src/kernels/selection.rs",
    "crates/columnar/src/ops.rs",
    "crates/columnar/src/sort.rs",
    "crates/lzcodec/",
    "crates/parq/src/encoding.rs",
    "crates/parq/src/reader.rs",
    "crates/netsim/src/sched.rs",
    "crates/netsim/src/split.rs",
    "crates/netsim/src/stats.rs",
];

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 3;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (`L1`, `L2`, `L3`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One allowlist entry: `[RULE] path-suffix: line-substring` (see
/// `lint-allow.txt`). A violation is suppressed when the entry's rule
/// matches (a bare entry is shorthand for `L2`), the file path ends with
/// `path`, and the offending source line contains `needle`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule code the entry applies to (`None` = bare entry = `L2`).
    pub rule: Option<String>,
    /// Path suffix the entry applies to.
    pub path: String,
    /// Substring of the allowed source line.
    pub needle: String,
    /// 1-based line in `lint-allow.txt` (for `L4` reporting).
    pub line: usize,
}

/// Is `tok` a rule code like `L2` or `C300` — uppercase letters then
/// digits?
fn is_rule_token(tok: &str) -> bool {
    let letters = tok.chars().take_while(|c| c.is_ascii_uppercase()).count();
    letters >= 1 && letters < tok.len() && tok.chars().skip(letters).all(|c| c.is_ascii_digit())
}

/// Parse `lint-allow.txt`: one `path: substring` entry per line, with an
/// optional leading rule code (`C300 path: substring`); `#` comments and
/// blank lines ignored.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .enumerate()
        .map(|(idx, l)| (idx + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|(line, l)| {
            let (rule, rest) = match l.split_once(' ') {
                Some((tok, rest)) if is_rule_token(tok) => {
                    (Some(tok.to_string()), rest.trim_start())
                }
                _ => (None, l),
            };
            let (path, needle) = rest.split_once(':')?;
            Some(AllowEntry {
                rule,
                path: path.trim().to_string(),
                needle: needle.trim().to_string(),
                line,
            })
        })
        .collect()
}

/// Blank out comments, string literals, and char literals, preserving
/// line structure, so token scans never match inside them. Handles line
/// and nested block comments, escapes, raw strings (`r"…"`,
/// `r#"…"#`, and the `b`-prefixed forms), and distinguishes char
/// literals from lifetimes.
pub fn code_view(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: u8| if c == b'\n' { b'\n' } else { b' ' };
    while i < b.len() {
        let c = b[i];
        // Raw (and raw-byte) string literals: r"…", r#"…"#, br"…", …
        if (c == b'r' || (c == b'b' && b.get(i + 1) == Some(&b'r')))
            && (i == 0 || !is_ident(b[i - 1]))
        {
            let mut j = i + if c == b'b' { 2 } else { 1 };
            let mut hashes = 0;
            while b.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&b'"') {
                // Enter the raw string; scan for `"` followed by `hashes` #s.
                out.resize(out.len() + (j + 1 - i), b' ');
                i = j + 1;
                'raw: while i < b.len() {
                    if b[i] == b'"'
                        && b[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&h| h == b'#')
                            .count()
                            == hashes
                    {
                        out.resize(out.len() + hashes + 1, b' ');
                        i += 1 + hashes;
                        break 'raw;
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        match c {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                out.extend([b' ', b' ']);
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend([b' ', b' ']);
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend([b' ', b' ']);
                        i += 2;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend([b' ', b' ']);
                        i += 2;
                    } else if b[i] == b'"' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
            }
            b'\'' => {
                if b.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: blank through the closing quote.
                    out.push(b' ');
                    i += 1;
                    while i < b.len() && b[i] != b'\'' {
                        out.extend([b' ', b' '].iter().take(if b[i] == b'\\' { 2 } else { 1 }));
                        i += if b[i] == b'\\' { 2 } else { 1 };
                    }
                    if i < b.len() {
                        out.push(b' ');
                        i += 1;
                    }
                } else if b.get(i + 2) == Some(&b'\'') {
                    out.extend([b' ', b' ', b' ']);
                    i += 3;
                } else {
                    // Lifetime — plain code, keep it.
                    out.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    // The byte-for-byte blanking above preserves UTF-8 only for code we
    // copied verbatim; blanked regions are ASCII spaces, so this cannot
    // fail on valid input.
    String::from_utf8_lossy(&out).into_owned()
}

fn is_ident(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Per-line flag: is this line inside a `#[cfg(test)]`-gated item?
/// Found by brace-matching on the code view from each `#[cfg(test)]`
/// attribute to the end of the item it gates.
pub fn test_line_mask(view: &str) -> Vec<bool> {
    let n_lines = view.lines().count();
    let mut mask = vec![false; n_lines + 2];
    let bytes = view.as_bytes();
    let mut search = 0;
    while let Some(off) = view[search..].find("#[cfg(test)]") {
        let start = search + off;
        search = start + 1;
        // Find the gated item's opening brace, then match it.
        let Some(brace_off) = view[start..].find('{') else {
            break;
        };
        let mut depth = 0usize;
        let mut end = start + brace_off;
        for (k, &ch) in bytes.iter().enumerate().skip(start + brace_off) {
            match ch {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        let first = line_of(view, start);
        let last = line_of(view, end);
        for m in &mut mask[first..=last.min(n_lines)] {
            *m = true;
        }
    }
    mask
}

/// 1-based line number of byte offset `pos`.
pub(crate) fn line_of(text: &str, pos: usize) -> usize {
    text.as_bytes()[..pos]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// Rules 1 and 2 over one file. `path` is repo-relative with `/`
/// separators. Test code (files under a `tests/` directory, `benches/`,
/// `examples/`, and `#[cfg(test)]` items) is exempt from rule 2.
pub fn lint_source(path: &str, src: &str, allow: &[AllowEntry]) -> Vec<Violation> {
    let mut used = vec![false; allow.len()];
    lint_source_tracked(path, src, allow, &mut used)
}

/// [`lint_source`], additionally marking which allowlist entries fired
/// in `used` (one slot per entry) so `run` can report stale ones (`L4`).
pub fn lint_source_tracked(
    path: &str,
    src: &str,
    allow: &[AllowEntry],
    used: &mut [bool],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let view = code_view(src);
    let src_lines: Vec<&str> = src.lines().collect();
    let mask = test_line_mask(&view);
    let in_tests = path.contains("/tests/")
        || path.starts_with("tests/")
        || path.contains("/benches/")
        || path.starts_with("examples/");

    // Rule 1: every `unsafe` token needs a SAFETY comment nearby.
    let mut search = 0;
    while let Some(off) = view[search..].find("unsafe") {
        let pos = search + off;
        search = pos + 6;
        let before = if pos == 0 {
            b' '
        } else {
            view.as_bytes()[pos - 1]
        };
        let after = *view.as_bytes().get(pos + 6).unwrap_or(&b' ');
        if is_ident(before) || is_ident(after) {
            continue; // part of a longer identifier, e.g. `unsafe_op_…`
        }
        let line = line_of(&view, pos);
        let lo = line.saturating_sub(SAFETY_WINDOW + 1);
        let documented = src_lines[lo..line].iter().any(|l| l.contains("SAFETY:"));
        if !documented {
            out.push(Violation {
                file: path.to_string(),
                line,
                rule: "L1",
                message: "`unsafe` without a `// SAFETY:` comment in the 3 lines above".into(),
            });
        }
    }

    // Rule 2: no unwrap/expect in non-test trust-boundary code.
    if BANNED_PANIC_CRATES.iter().any(|c| path.starts_with(c)) && !in_tests {
        for (idx, vline) in view.lines().enumerate() {
            let line_no = idx + 1;
            if mask.get(line_no).copied().unwrap_or(false) {
                continue;
            }
            for needle in [".unwrap()", ".expect("] {
                if !vline.contains(needle) {
                    continue;
                }
                let original = src_lines.get(idx).copied().unwrap_or("");
                let mut allowed = false;
                for (i, a) in allow.iter().enumerate() {
                    let rule_matches = matches!(a.rule.as_deref(), None | Some("L2"));
                    if rule_matches && path.ends_with(&a.path) && original.contains(&a.needle) {
                        allowed = true;
                        if let Some(u) = used.get_mut(i) {
                            *u = true;
                        }
                    }
                }
                if !allowed {
                    out.push(Violation {
                        file: path.to_string(),
                        line: line_no,
                        rule: "L2",
                        message: format!(
                            "`{needle}` in trust-boundary code (return an error or \
                             add a justified entry to crates/xtask/lint-allow.txt)"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Rule 3 over the whole file set: every variant of every `pub enum
/// *Error` must be constructed somewhere. An occurrence of
/// `Enum::Variant` (or `Self::Variant` — imprecise but cheap) counts as
/// a construction unless the rest of its line contains `=>`, which marks
/// it as a match-arm pattern.
pub fn check_error_enums(files: &[(String, String)]) -> Vec<Violation> {
    let views: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.clone(), code_view(s)))
        .collect();

    let mut out = Vec::new();
    for (path, view) in &views {
        let mut search = 0;
        while let Some(off) = view[search..].find("pub enum ") {
            let start = search + off;
            search = start + 1;
            let rest = &view[start + "pub enum ".len()..];
            let name: String = rest.chars().take_while(|c| is_ident(*c as u8)).collect();
            if !name.ends_with("Error") {
                continue;
            }
            let decl_line = line_of(view, start);
            for variant in enum_variants(rest) {
                if !variant_constructed(&views, &name, &variant) {
                    out.push(Violation {
                        file: path.clone(),
                        line: decl_line,
                        rule: "L3",
                        message: format!(
                            "error variant `{name}::{variant}` is never constructed \
                             (dead error path — delete it or use it)"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Variant names of the enum whose body starts in `rest` (text after
/// `pub enum `): identifiers at brace depth 1 that start an item chunk.
fn enum_variants(rest: &str) -> Vec<String> {
    let Some(body_start) = rest.find('{') else {
        return Vec::new();
    };
    let bytes = rest.as_bytes();
    let mut depth = 0usize;
    let mut variants = Vec::new();
    let mut at_item_start = true;
    let mut i = body_start;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'{' | b'(' | b'<' | b'[' => {
                if c == b'{' {
                    depth += 1;
                    if depth == 1 {
                        at_item_start = true;
                        i += 1;
                        continue;
                    }
                }
                // Payload of a variant: skip to the matching closer so
                // field idents are not mistaken for variants.
                if depth == 1 {
                    let open = c;
                    let close = match c {
                        b'(' => b')',
                        b'<' => b'>',
                        b'[' => b']',
                        _ => b'}',
                    };
                    let mut d = 1usize;
                    i += 1;
                    while i < bytes.len() && d > 0 {
                        if bytes[i] == open {
                            d += 1;
                        } else if bytes[i] == close {
                            d -= 1;
                        }
                        i += 1;
                    }
                    continue;
                }
                i += 1;
            }
            b'}' => {
                if depth == 1 {
                    break;
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            b',' => {
                if depth == 1 {
                    at_item_start = true;
                }
                i += 1;
            }
            // Attribute on a variant: skip the [...] group.
            b'#' if bytes.get(i + 1) == Some(&b'[') => {
                let mut d = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'[' {
                        d += 1;
                    } else if bytes[i] == b']' {
                        d -= 1;
                        if d == 0 {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
            }
            _ if depth == 1 && at_item_start && is_ident(c) && c.is_ascii_uppercase() => {
                let s = i;
                while i < bytes.len() && is_ident(bytes[i]) {
                    i += 1;
                }
                variants.push(rest[s..i].to_string());
                at_item_start = false;
            }
            _ => {
                i += 1;
            }
        }
    }
    variants
}

fn variant_constructed(views: &[(String, String)], enum_name: &str, variant: &str) -> bool {
    let qualified = format!("{enum_name}::{variant}");
    let selfed = format!("Self::{variant}");
    for (_, view) in views {
        for line in view.lines() {
            for pat in [&qualified, &selfed] {
                let mut from = 0;
                while let Some(off) = line[from..].find(pat.as_str()) {
                    let pos = from + off;
                    from = pos + 1;
                    let before = if pos == 0 {
                        b' '
                    } else {
                        line.as_bytes()[pos - 1]
                    };
                    let after = *line.as_bytes().get(pos + pat.len()).unwrap_or(&b' ');
                    if is_ident(before) || is_ident(after) || before == b':' {
                        continue; // part of a longer path or identifier
                    }
                    // `X::V(…) => …` is a match pattern, not a construction.
                    if !line[pos + pat.len()..].contains("=>") {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Collect `.rs` files under the repo root (crates/, tests/, examples/),
/// skipping `target/` and the vendored `third_party/` crates, returning
/// `(repo-relative path, contents)` pairs.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files).map_err(|e| format!("walking {}: {e}", dir.display()))?;
        }
    }
    let mut out = Vec::with_capacity(files.len());
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&f).map_err(|e| format!("reading {}: {e}", f.display()))?;
        out.push((rel, text));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        if path.is_dir() {
            if matches!(name.as_deref(), Some("target") | Some(".git")) {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run every lint over the workspace at `root` — the general rules
/// (`L1`–`L3`), the concurrency lints (`C300`–`C600`) against
/// `LOCK_ORDER.md`, and the stale-allowlist check (`L4`). Returns all
/// violations sorted by file and line.
pub fn run(root: &Path) -> Result<Vec<Violation>, String> {
    let allow_text = fs::read_to_string(root.join("crates/xtask/lint-allow.txt"))
        .map_err(|e| format!("reading lint-allow.txt: {e}"))?;
    let allow = parse_allowlist(&allow_text);
    let mut used = vec![false; allow.len()];
    let files = collect_sources(root)?;
    let mut violations = Vec::new();
    for (path, src) in &files {
        violations.extend(lint_source_tracked(path, src, &allow, &mut used));
    }
    violations.extend(check_error_enums(&files));
    let order_text = fs::read_to_string(root.join("LOCK_ORDER.md"))
        .map_err(|e| format!("reading LOCK_ORDER.md: {e}"))?;
    let table = conc::parse_lock_table(&order_text)?;
    violations.extend(conc::check_concurrency(&files, &table, &allow, &mut used));
    for (entry, &was_used) in allow.iter().zip(used.iter()) {
        if !was_used {
            violations.push(Violation {
                file: "crates/xtask/lint-allow.txt".to_string(),
                line: entry.line,
                rule: "L4",
                message: format!(
                    "unused allowlist entry `{}: {}` — the code it excused is \
                     gone; delete the entry",
                    entry.path, entry.needle
                ),
            });
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

/// The workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask is two levels below the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_view_blanks_strings_and_comments() {
        let src = "let a = \"x.unwrap()\"; // .unwrap()\nlet b = 'c'; /* unsafe */ let l: &'static str = r#\".expect(\"#;\n";
        let v = code_view(src);
        assert!(!v.contains("unwrap"), "{v}");
        assert!(!v.contains("unsafe"), "{v}");
        assert!(!v.contains(".expect("), "{v}");
        assert!(v.contains("'static"), "lifetime survives: {v}");
        assert_eq!(v.lines().count(), src.lines().count());
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = lint_source("crates/columnar/src/x.rs", src, &[]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L1");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let src =
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        assert!(lint_source("crates/columnar/src/x.rs", src, &[]).is_empty());
    }

    #[test]
    fn unwrap_in_trust_boundary_is_flagged() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let v = lint_source("crates/ocs/src/x.rs", src, &[]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L2");
        // Same code outside the banned crates is fine.
        assert!(lint_source("crates/engine/src/x.rs", src, &[]).is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_module_passes() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
        assert!(lint_source("crates/ocs/src/x.rs", src, &[]).is_empty());
    }

    #[test]
    fn allowlist_suppresses_expect() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    x.expect(\"invariant: present\")\n}\n";
        let allow = parse_allowlist("# comment\nsrc/x.rs: invariant: present\n");
        assert!(lint_source("crates/ocs/src/x.rs", src, &allow).is_empty());
        // The needle must actually match.
        let other = parse_allowlist("src/x.rs: some other line\n");
        assert_eq!(lint_source("crates/ocs/src/x.rs", src, &other).len(), 1);
    }

    #[test]
    fn dead_error_variant_is_flagged() {
        let files = vec![
            (
                "crates/a/src/lib.rs".to_string(),
                "#[derive(Debug)]\npub enum AError {\n    Used(String),\n    Dead(u32),\n}\n"
                    .to_string(),
            ),
            (
                "crates/a/src/other.rs".to_string(),
                "fn g() -> AError {\n    AError::Used(\"x\".into())\n}\nfn h(e: &AError) -> bool {\n    matches!(e, AError::Dead(_) if false)\n}\n"
                    .to_string(),
            ),
        ];
        // `Dead` appears only where the line has no `=>`… the matches!
        // occurrence counts, so seed a stricter case: a pattern-only use.
        let v = check_error_enums(&files);
        assert!(
            v.is_empty(),
            "matches! occurrence counts as liveness: {v:?}"
        );

        let files2 = vec![(
            "crates/a/src/lib.rs".to_string(),
            "pub enum BError {\n    Used,\n    Dead,\n}\nfn f(e: BError) -> u8 {\n    match e {\n        BError::Used => 1,\n        BError::Dead => 2,\n    }\n}\nfn mk() -> BError {\n    BError::Used\n}\n"
                .to_string(),
        )];
        let v2 = check_error_enums(&files2);
        assert_eq!(v2.len(), 1, "{v2:?}");
        assert_eq!(v2[0].rule, "L3");
        assert!(v2[0].message.contains("BError::Dead"), "{}", v2[0].message);
    }

    #[test]
    fn enum_variant_parsing_handles_payloads_and_attrs() {
        let rest = "XError {\n    #[allow(dead_code)]\n    Io(std::io::Error),\n    Parse { line: usize, msg: String },\n    Eof,\n}";
        assert_eq!(enum_variants(rest), vec!["Io", "Parse", "Eof"]);
    }

    #[test]
    fn allowlist_rule_prefix_parses() {
        let entries = parse_allowlist(
            "# header\nC300 src/a.rs: fetch_add\nsrc/b.rs: invariant: present\nL2 src/c.rs: decoded\n",
        );
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].rule.as_deref(), Some("C300"));
        assert_eq!(entries[0].path, "src/a.rs");
        assert_eq!(entries[0].line, 2);
        assert_eq!(entries[1].rule, None);
        assert_eq!(entries[1].needle, "invariant: present");
        assert_eq!(entries[2].rule.as_deref(), Some("L2"));
        // A path-looking first token is not mistaken for a rule code.
        assert!(!is_rule_token("src/b.rs:"));
        assert!(is_rule_token("C300") && is_rule_token("L2"));
        assert!(!is_rule_token("C") && !is_rule_token("300"));
    }

    #[test]
    fn used_tracking_marks_firing_entries() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    x.expect(\"invariant: present\")\n}\n";
        let allow = parse_allowlist("src/x.rs: invariant: present\nsrc/x.rs: never fires\n");
        let mut used = vec![false; allow.len()];
        let v = lint_source_tracked("crates/ocs/src/x.rs", src, &allow, &mut used);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(used, vec![true, false]);
        // An explicit L2-prefixed entry also suppresses and marks.
        let allow2 = parse_allowlist("L2 src/x.rs: invariant: present\n");
        let mut used2 = vec![false; allow2.len()];
        assert!(lint_source_tracked("crates/ocs/src/x.rs", src, &allow2, &mut used2).is_empty());
        assert_eq!(used2, vec![true]);
    }

    #[test]
    fn l4_reports_unused_allowlist_entry() {
        let root = std::env::temp_dir().join(format!("xtask-l4-{}", std::process::id()));
        let xtask_dir = root.join("crates/xtask");
        let crate_dir = root.join("crates/a/src");
        fs::create_dir_all(&xtask_dir).expect("mkdir xtask");
        fs::create_dir_all(&crate_dir).expect("mkdir crate");
        fs::write(
            xtask_dir.join("lint-allow.txt"),
            "# one stale entry\nsrc/ghost.rs: nothing here matches\n",
        )
        .expect("write allowlist");
        fs::write(
            root.join("LOCK_ORDER.md"),
            "| rank | class | declared in |\n|--|--|--|\n",
        )
        .expect("write lock order");
        fs::write(crate_dir.join("lib.rs"), "pub fn f() {}\n").expect("write source");
        let violations = run(&root).expect("lint run");
        fs::remove_dir_all(&root).ok();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "L4");
        assert_eq!(violations[0].file, "crates/xtask/lint-allow.txt");
        assert_eq!(violations[0].line, 2);
        assert!(violations[0].message.contains("src/ghost.rs"));
    }

    #[test]
    fn every_rule_2_scope_exists() {
        let root = workspace_root();
        for scope in BANNED_PANIC_CRATES {
            assert!(
                root.join(scope).exists(),
                "rule-2 scope {scope} names no path"
            );
        }
    }

    #[test]
    fn workspace_is_clean() {
        let violations = run(&workspace_root()).expect("lint run");
        assert!(
            violations.is_empty(),
            "repo lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn full_static_analysis_under_two_seconds() {
        let start = std::time::Instant::now();
        run(&workspace_root()).expect("lint run");
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "full static analysis took {elapsed:?} (budget: 2s)"
        );
    }
}
