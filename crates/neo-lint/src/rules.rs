//! The determinism-hygiene rule catalog and the per-file rule engine.
//!
//! Rules operate on the scanner's masked-code view ([`crate::scan::Scan`]):
//! comments and string literals can never trip them, and pragmas live in the
//! comment view. Every rule is lexical by design — the point is a fast,
//! dependency-free gate that catches the hygiene regressions which otherwise
//! fail only when a pinned trace happens to expose them (see
//! `docs/LINTS.md` for the catalog rationale and the pragma grammar).

use crate::scan::{has_ident, scan};

/// Crates whose state feeds simulation output: any unordered iteration or
/// stray panic there can change (or abort) a golden trace.
pub const SIM_STATE_CRATES: &[&str] =
    &["neo-sim", "neo-core", "neo-serve", "neo-cluster", "neo-kvcache"];

/// All rule names, in catalog order (`docs/LINTS.md` mirrors this list).
pub const RULE_NAMES: &[&str] = &[
    "no-unordered-iteration",
    "no-ambient-time",
    "no-unseeded-rng",
    "float-total-order",
    "panic-hygiene",
    "forbid-unsafe-outside-shims",
    "bad-pragma",
];

/// One `file:line:rule` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Where a file lives in the workspace, as far as rule scoping cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileOrigin {
    /// Crate (or shim) name, e.g. `neo-core` or `rayon`.
    pub crate_name: String,
    /// `true` for `shims/*`, `false` for `crates/*`.
    pub is_shim: bool,
    /// `true` when this is the crate's `src/lib.rs` root.
    pub is_lib_root: bool,
}

impl FileOrigin {
    /// Derives the origin from a workspace-relative path like
    /// `crates/neo-core/src/engine.rs`. Returns `None` for paths outside
    /// `crates/*`/`shims/*` (the walker never produces those).
    pub fn from_path(rel_path: &str) -> Option<Self> {
        let mut parts = rel_path.split('/');
        let kind = parts.next()?;
        let is_shim = match kind {
            "crates" => false,
            "shims" => true,
            _ => return None,
        };
        let crate_name = parts.next()?.to_string();
        let rest: Vec<&str> = parts.collect();
        let is_lib_root = rest == ["src", "lib.rs"];
        Some(Self { crate_name, is_shim, is_lib_root })
    }
}

/// A parsed `neo-lint: allow(<rule>) -- <reason>` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pragma {
    /// Line the pragma suppresses (its own line when it shares it with code,
    /// the next line when it stands alone).
    target_line: usize,
    rule: String,
}

/// Scans the comment view for pragmas. Malformed pragmas (unknown rule, no
/// reason) become `bad-pragma` diagnostics instead of silently suppressing.
fn collect_pragmas(
    file: &str,
    comment_lines: &[&str],
    code_lines: &[&str],
) -> (Vec<Pragma>, Vec<Diagnostic>) {
    let mut pragmas = Vec::new();
    let mut diags = Vec::new();
    for (idx, comment) in comment_lines.iter().enumerate() {
        let Some(pos) = comment.find("neo-lint:") else { continue };
        // Doc comments are documentation (they may quote the pragma grammar
        // itself); only plain `//` / `/* */` comments carry pragmas.
        let lead = comment.trim_start();
        if ["///", "//!", "/**", "/*!"].iter().any(|d| lead.starts_with(d)) {
            continue;
        }
        let line = idx + 1;
        let body = comment[pos + "neo-lint:".len()..].trim_start();
        let bad = |msg: &str| Diagnostic {
            file: file.to_string(),
            line,
            rule: "bad-pragma",
            message: msg.to_string(),
        };
        let Some(rest) = body.strip_prefix("allow(") else {
            diags.push(bad("pragma must be `neo-lint: allow(<rule>) -- <reason>`"));
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(bad("unclosed `allow(` in pragma"));
            continue;
        };
        let rule = rest[..close].trim();
        if !RULE_NAMES.contains(&rule) {
            diags.push(bad(&format!("unknown rule `{rule}` in pragma")));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            diags.push(bad(&format!("pragma for `{rule}` is missing its mandatory `-- <reason>`")));
            continue;
        }
        let has_code = code_lines.get(idx).is_some_and(|c| !c.trim().is_empty());
        let target_line = if has_code { line } else { line + 1 };
        pragmas.push(Pragma { target_line, rule: rule.to_string() });
    }
    (pragmas, diags)
}

/// Marks the lines belonging to `#[cfg(test)]` items (the attribute line
/// through the item's closing brace), using brace depth on masked code.
fn test_line_mask(code_lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; code_lines.len()];
    let mut i = 0usize;
    while i < code_lines.len() {
        if !code_lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Walk forward to the item's opening brace, then to its close.
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i;
        while j < code_lines.len() {
            mask[j] = true;
            for b in code_lines[j].bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// Whether `name!` occurs in `line` as a macro invocation (left identifier
/// boundary, immediately followed by `!`).
fn has_macro(line: &str, name: &str) -> bool {
    let with_bang = format!("{name}!");
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(&with_bang) {
        let start = from + pos;
        let left_ok =
            start == 0 || !bytes[start - 1].is_ascii_alphanumeric() && bytes[start - 1] != b'_';
        if left_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Per-line lexical check of one rule.
fn line_violation(rule: &'static str, line: &str) -> Option<String> {
    match rule {
        "no-unordered-iteration" => {
            let unordered = ["HashMap", "HashSet"].iter().find(|ident| has_ident(line, ident))?;
            Some(format!(
                "`{unordered}` in a simulation-state crate: iteration order feeds traces; \
                 use `BTreeMap`/`BTreeSet` (or justify a keyed-lookup-only map with a pragma)"
            ))
        }
        "no-ambient-time" => {
            let ident = ["Instant", "SystemTime"].iter().find(|ident| has_ident(line, ident))?;
            Some(format!(
                "ambient `{ident}`: simulation time comes from `SimClock` and the simulated \
                 clocks built on it, wall-clock reads are only allowed in the criterion shim"
            ))
        }
        "no-unseeded-rng" => {
            let ident =
                ["thread_rng", "from_entropy"].iter().find(|ident| has_ident(line, ident))?;
            Some(format!(
                "`{ident}` draws OS entropy: every RNG in this workspace must be \
                 constructed from an explicit seed"
            ))
        }
        "float-total-order" => line.contains(".partial_cmp(").then(|| {
            "float comparison via `partial_cmp`: use `f64::total_cmp` so NaN can never \
             produce an unordered (and thus order-dependent) result"
                .to_string()
        }),
        "panic-hygiene" => {
            let shown = if line.contains(".unwrap()") {
                "unwrap()"
            } else if line.contains(".expect(") {
                "expect(..)"
            } else if has_macro(line, "panic") {
                "panic!"
            } else {
                return None;
            };
            Some(format!(
                "`{shown}` in non-test library code of a simulation-state crate: return the \
                 crate's typed error instead, or justify the invariant with a pragma"
            ))
        }
        "forbid-unsafe-outside-shims" => has_ident(line, "unsafe").then(|| {
            "`unsafe` outside `shims/`: the simulation crates are forbidden from unsafe \
             code (see the crate-root `#![forbid(unsafe_code)]`)"
                .to_string()
        }),
        _ => None,
    }
}

/// Whether a rule applies to this file at all, and whether `#[cfg(test)]`
/// regions are exempt from it.
fn rule_scope(rule: &'static str, origin: &FileOrigin) -> Option<bool> {
    let sim_state = !origin.is_shim && SIM_STATE_CRATES.contains(&origin.crate_name.as_str());
    match rule {
        // Tests may build whatever maps they like; simulation code may not.
        "no-unordered-iteration" => sim_state.then_some(true),
        // Wall-clock time and OS entropy are banned even in tests: a test that
        // depends on either is flaky by construction.
        "no-ambient-time" => {
            (!(origin.is_shim && origin.crate_name == "criterion")).then_some(false)
        }
        "no-unseeded-rng" => Some(false),
        "float-total-order" => (!origin.is_shim).then_some(false),
        "panic-hygiene" => sim_state.then_some(true),
        "forbid-unsafe-outside-shims" => (!origin.is_shim).then_some(false),
        _ => None,
    }
}

/// Lints one file's source, returning every diagnostic (already pragma
/// filtered; suppressions with bad pragmas still fire).
pub fn lint_file(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let Some(origin) = FileOrigin::from_path(rel_path) else { return Vec::new() };
    let scanned = scan(source);
    let code_lines: Vec<&str> = scanned.masked.lines().collect();
    let comment_lines: Vec<&str> = scanned.comments.lines().collect();
    let (pragmas, mut diags) = collect_pragmas(rel_path, &comment_lines, &code_lines);
    let tests = test_line_mask(&code_lines);

    let suppressed =
        |line: usize, rule: &str| pragmas.iter().any(|p| p.target_line == line && p.rule == rule);

    for &rule in RULE_NAMES {
        let Some(tests_exempt) = rule_scope(rule, &origin) else { continue };
        for (idx, code) in code_lines.iter().enumerate() {
            let line = idx + 1;
            if tests_exempt && tests.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let Some(message) = line_violation(rule, code) else { continue };
            if suppressed(line, rule) {
                continue;
            }
            diags.push(Diagnostic { file: rel_path.to_string(), line, rule, message });
        }
    }

    // Crate roots of first-party crates must pin the unsafe ban.
    if origin.is_lib_root
        && !origin.is_shim
        && !code_lines.iter().any(|l| l.contains("#![forbid(unsafe_code)]"))
    {
        diags.push(Diagnostic {
            file: rel_path.to_string(),
            line: 1,
            rule: "forbid-unsafe-outside-shims",
            message: "crate root must open with `#![forbid(unsafe_code)]`".to_string(),
        });
    }

    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}
