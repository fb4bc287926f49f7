//! `deceit-lint`: the repo-specific checks neither rustc nor clippy
//! carries.
//!
//! The Deceit concurrency discipline is checked in three places. The
//! compiler carries the cell → ascending-ring lock order
//! (`deceit_runtime::shard::CellLock`'s types, plus a debug assertion),
//! the slot-leaf rule (`deceit_core::hot::visit` takes only `'static`
//! closures, so one run under a slot lock cannot borrow the engine), the
//! exhaustiveness of `Pending::due_gated`, the memory ordering of every
//! atomic (`deceit_sim::atomic`'s types) and read-lease revocation
//! (`deceit_core`'s `Unleased` handle is the only way to the store
//! operations that end a lease's claim); clippy's restriction lints and
//! `clippy.toml` carry the no-panic and one-clock rules, keep the std
//! atomics out of every other module and raw std lock calls inside the
//! lock funnels. What is left are three text rules, judged a line at a
//! time ([`rules::RULES`]): no per-lock operation twin, no hot-state
//! observer read inside the engine, and no slot guard in the engine
//! that does not go straight into a visit (without which the `'static`
//! bound holds nothing). There are no waivers: `#[expect]` is
//! the workspace's exception mechanism. See README § "Static analysis".

pub mod compile_fail;
pub mod report;
pub mod rules;

use report::{Finding, LintReport};
use rules::RULES;
use std::path::{Path, PathBuf};

/// Lint a set of `(repo-relative path, content)` pairs.
pub fn lint_sources(files: &[(String, String)]) -> LintReport {
    let mut findings: Vec<Finding> = Vec::new();
    for (path, content) in files {
        for (i, line) in content.lines().enumerate() {
            for rule in RULES.iter().filter(|r| (r.check)(path, line)) {
                findings.push(Finding::new(rule.id, path, i as u32 + 1, line.trim()));
            }
        }
    }
    LintReport { files_scanned: files.len(), findings }
}

/// Collect the lintable sources under `root`: `crates/*/src/**/*.rs`.
/// Vendored stand-ins, build output and tests are not part of the
/// checked surface.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk(&src, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, std::fs::read_to_string(&p)?));
        }
    }
    Ok(())
}

/// Walk upward from `start` to the workspace root (the directory that
/// holds both `Cargo.toml` and `crates/`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}
