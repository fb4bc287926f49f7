//! `deceit-lint`: repo-specific static analysis for the Deceit
//! concurrency discipline.
//!
//! The invariants this codebase rests on — the cell→ascending-ring
//! lock order, revoke-before-invalidate for read leases, due-gating of
//! every `Pending` variant, no bare panics on protocol paths, Relaxed
//! atomics only for tallies — used to live in module docs and
//! `debug_assert`s. This crate makes them machine-checked: a
//! hand-rolled lexer (the vendored deps are API stubs, so no `syn`)
//! feeds a token-stream rule engine with a hard-coded registry and
//! in-source waivers. See README § "Static analysis" for the catalog.

pub mod callgraph;
pub mod decl;
pub mod items;
pub mod lexer;
pub mod lockset;
pub mod report;
pub mod rules;
pub mod waiver;

use report::{Finding, LintReport};
use rules::{SourceFile, RULES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything the semantic passes learned about the workspace: the
/// item-level parse, the call graph, the lock-set dataflow results,
/// and the atomic declaration registry. Built once per lint run; rules
/// are invoked per file against it.
pub struct Facts {
    pub files: Vec<SourceFile>,
    pub items: items::Items,
    pub graph: callgraph::CallGraph,
    pub locks: lockset::LockSets,
    pub decls: decl::Decls,
    pub lock_violations: Vec<lockset::Violation>,
    pub path_index: BTreeMap<String, usize>,
}

impl Facts {
    pub fn build(files: Vec<SourceFile>) -> Facts {
        let items = items::Items::build(&files);
        let graph = callgraph::CallGraph::build(&items, &files);
        let locks = lockset::LockSets::build(&items, &files, &graph);
        let decls = decl::Decls::build(&items, &files);
        let lock_violations = lockset::violations(&items, &files, &graph, &locks);
        let path_index = files.iter().enumerate().map(|(i, f)| (f.path.clone(), i)).collect();
        Facts { files, items, graph, locks, decls, lock_violations, path_index }
    }

    /// The call-graph + lock-set facts as JSON, for the CI artifact
    /// next to `lint_report.json`. Edges are emitted only for resolved
    /// calls; lock entries only for functions where the dataflow
    /// concluded something nonempty.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let classes = |mask: u8| -> String {
            let mut v = Vec::new();
            if mask & lockset::CELL != 0 {
                v.push("\"cell\"");
            }
            if mask & lockset::RING != 0 {
                v.push("\"ring\"");
            }
            format!("[{}]", v.join(","))
        };
        let fn_name = |id: usize| -> String {
            let f = &self.items.fns[id];
            match &f.impl_type {
                Some(t) => format!("{}::{}", t, f.name),
                None => f.name.clone(),
            }
        };
        let mut s = String::with_capacity(4096);
        s.push_str("{\"schema\":\"deceit-lint-facts/1\"");
        s.push_str(&format!(",\"files\":{}", self.files.len()));
        s.push_str(&format!(",\"functions\":{}", self.items.fns.len()));
        s.push_str(&format!(
            ",\"calls\":{{\"resolved\":{},\"unresolved\":{}}}",
            self.graph.resolved, self.graph.unresolved
        ));
        s.push_str(",\"edges\":[");
        let mut first = true;
        for site in &self.graph.sites {
            let Some(callee) = site.callee else { continue };
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{{\"caller\":\"{}\",\"callee\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
                esc(&fn_name(site.caller)),
                esc(&fn_name(callee)),
                esc(&self.files[self.items.fns[site.caller].file].path),
                site.line
            ));
        }
        s.push_str("],\"locksets\":[");
        let mut first = true;
        for (id, fl) in self.locks.fns.iter().enumerate() {
            if fl.entry == 0 && fl.acquisitions.is_empty() && fl.closure_under == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let acq: Vec<String> = fl
                .acquisitions
                .iter()
                .map(|a| {
                    format!(
                        "{{\"class\":{},\"line\":{},\"via_call\":{}}}",
                        classes(a.class),
                        a.line,
                        a.via_call
                    )
                })
                .collect();
            s.push_str(&format!(
                "{{\"fn\":\"{}\",\"file\":\"{}\",\"entry\":{},\"closure_under\":{},\"acquires\":[{}]}}",
                esc(&fn_name(id)),
                esc(&self.files[self.items.fns[id].file].path),
                classes(fl.entry),
                classes(fl.closure_under),
                acq.join(",")
            ));
        }
        s.push_str("],\"atomics\":[");
        let mut first = true;
        for d in &self.decls.decls {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{{\"decl\":\"{}\",\"type\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
                esc(&d.key),
                esc(&d.ty),
                esc(&d.file),
                d.line
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Lint a set of `(repo-relative path, content)` pairs and keep the
/// facts. The binary uses the facts for `--facts`; the fixture tests
/// use the report.
pub fn analyze(files: &[(String, String)]) -> (Facts, LintReport) {
    let known = rules::rule_ids();
    let sfs: Vec<SourceFile> = files.iter().map(|(p, c)| SourceFile::new(p, c)).collect();
    let facts = Facts::build(sfs);
    let mut findings: Vec<Finding> = Vec::new();
    let mut waivers_honored = 0usize;
    for fi in 0..facts.files.len() {
        let path = facts.files[fi].path.clone();
        let mut raw: Vec<Finding> = Vec::new();
        for rule in RULES {
            (rule.check)(fi, &facts, &mut raw);
        }
        raw.sort();
        raw.dedup();
        let (waivers, bad) = waiver::parse_waivers(&path, &facts.files[fi].toks, &known);
        let mut used = vec![false; waivers.len()];
        raw.retain(|f| {
            let waived = waivers.iter().enumerate().any(|(wi, w)| {
                let hit = w.rule == f.rule && w.target_line == Some(f.line);
                if hit {
                    used[wi] = true;
                }
                hit
            });
            !waived
        });
        findings.extend(raw);
        findings.extend(bad);
        for (wi, w) in waivers.iter().enumerate() {
            if used[wi] {
                waivers_honored += 1;
            } else {
                findings.push(Finding::new(
                    "unused-waiver",
                    &path,
                    w.line,
                    format!(
                        "waiver for `{}` suppresses nothing — the excused code moved or was fixed; delete the waiver",
                        w.rule
                    ),
                ));
            }
        }
    }
    findings.sort();
    (facts, LintReport { files_scanned: files.len(), waivers_honored, findings })
}

/// Lint without keeping the facts — the original entry point.
pub fn lint_sources(files: &[(String, String)]) -> LintReport {
    analyze(files).1
}

/// Collect the lintable sources under `root`: `crates/*/src/**/*.rs`.
/// Vendored stand-ins, build output, and lint fixtures are not part of
/// the checked surface.
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
