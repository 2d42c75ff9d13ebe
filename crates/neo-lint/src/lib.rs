//! Workspace determinism-hygiene static analysis (`neo-lint`).
//!
//! Every figure, golden trace, and CI gate in this NEO reproduction rests on
//! one invariant: simulation output is **bit-identical** from run to run, a
//! function of its inputs alone. The pinned golden traces and the
//! `results-fresh` regeneration check defend it dynamically — but a `HashMap`
//! iteration in a settle path, an ambient `Instant::now()`, or a
//! NaN-swallowing float sort slips past those whenever the pinned inputs
//! happen not to expose it. `neo-lint` is the compile-time-style gate: a
//! hand-rolled, comment/string/raw-string-aware token scanner ([`mod@scan`])
//! plus a rule engine ([`rules`]) that walks every `crates/*/src` and
//! `shims/*/src` file and enforces the hygiene catalog in `docs/LINTS.md`:
//!
//! 1. `no-unordered-iteration` — `HashMap`/`HashSet` banned in the
//!    simulation-state crates; use ordered containers.
//! 2. `no-ambient-time` — `std::time::{Instant, SystemTime}` banned outside
//!    the criterion shim.
//! 3. `no-unseeded-rng` — `thread_rng`/`from_entropy` banned everywhere.
//! 4. `float-total-order` — `.partial_cmp(` banned in first-party crates;
//!    use `f64::total_cmp`.
//! 5. `panic-hygiene` — `unwrap()`/`expect()`/`panic!` banned in non-test
//!    library code of the simulation-state crates.
//! 6. `forbid-unsafe-outside-shims` — every `crates/*` lib root carries
//!    `#![forbid(unsafe_code)]`, and the `unsafe` keyword never appears
//!    outside `shims/`.
//!
//! Violations are suppressible only via an inline
//! `// neo-lint: allow(<rule>) -- <reason>` pragma whose reason is mandatory;
//! a malformed pragma is itself a violation (`bad-pragma`). The `neo-lint`
//! binary exits non-zero on any finding, and the `lint` CI job runs it on
//! every push.
//!
//! The crate deliberately has **no dependencies**: it must build before
//! anything else in the workspace (it gates the rest) and it honours the same
//! no-network shim policy it polices.

#![forbid(unsafe_code)]

pub mod rules;
pub mod scan;

pub use rules::{lint_file, Diagnostic, RULE_NAMES, SIM_STATE_CRATES};
pub use scan::{scan, Class, Scan};

use std::path::{Path, PathBuf};

/// Recursively collects the `.rs` files under `dir`, sorted by path so runs
/// are deterministic on any filesystem.
fn rust_files_under(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Every source file the linter covers: `crates/*/src/**/*.rs` and
/// `shims/*/src/**/*.rs`, as workspace-relative paths in deterministic order.
///
/// # Errors
///
/// Propagates filesystem errors from walking `root`.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut rels = Vec::new();
    for kind in ["crates", "shims"] {
        let base = root.join(kind);
        if !base.is_dir() {
            continue;
        }
        let mut members: Vec<PathBuf> =
            std::fs::read_dir(&base)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            for file in rust_files_under(&member.join("src"))? {
                if let Ok(rel) = file.strip_prefix(root) {
                    rels.push(rel.to_path_buf());
                }
            }
        }
    }
    rels.sort();
    Ok(rels)
}

/// Lints the whole workspace rooted at `root`, returning the diagnostics and
/// the number of files scanned.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable tree or file).
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut diags = Vec::new();
    let files = workspace_sources(root)?;
    let scanned = files.len();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        // Paths are reported with `/` separators on every platform.
        let rel_str =
            rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/");
        diags.extend(lint_file(&rel_str, &source));
    }
    Ok((diags, scanned))
}

/// Finds the workspace root by walking up from `start` until a directory
/// containing both `crates/` and `Cargo.toml` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() && d.join("shims").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_scoping_ignores_paths_outside_the_workspace_layout() {
        assert!(lint_file("tests/foo.rs", "use std::collections::HashMap;").is_empty());
        assert!(lint_file("crates", "").is_empty());
    }

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/neo-lint");
        assert!(root.join("crates/neo-lint/src/lib.rs").is_file());
    }

    #[test]
    fn workspace_sources_cover_crates_and_shims() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = workspace_sources(&root).expect("walk");
        let as_str: Vec<String> = files.iter().map(|p| p.to_string_lossy().into_owned()).collect();
        assert!(as_str.iter().any(|p| p.ends_with("neo-core/src/engine.rs")));
        assert!(as_str.iter().any(|p| p.contains("shims/rayon/src/")));
        assert!(as_str.iter().any(|p| p.contains("neo-bench/src/bin/")), "nested dirs walked");
        let mut sorted = as_str.clone();
        sorted.sort();
        assert_eq!(as_str, sorted, "deterministic order");
    }
}
