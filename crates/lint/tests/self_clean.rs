//! The repo lints itself clean: `cargo test` fails the moment a
//! `// lint:` directive, a per-lock operation twin, a hot-state
//! observer read inside the engine or a slot guard held outside a visit
//! lands — without waiting for the CI lint job.

use lint::report::LintReport;
use std::path::Path;

fn sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = lint::collect_sources(&root).expect("read workspace sources");
    assert!(sources.len() > 100, "walker found only {} files — scan set broke", sources.len());
    sources
}

/// The rendered findings of `rule` in `report`.
fn findings_of(report: &LintReport, rule: &str) -> Vec<String> {
    report.findings.iter().filter(|f| f.rule == rule).map(|f| f.to_string()).collect()
}

/// Whether `line` holds a `// lint:` directive: a `//` comment whose text
/// starts with `lint:`.
fn directive(line: &str) -> bool {
    line.match_indices("//")
        .any(|(i, _)| line[i..].trim_start_matches('/').trim_start().starts_with("lint:"))
}

#[test]
fn repo_lints_clean() {
    let sources = sources();
    let report = lint::lint_sources(&sources);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "deceit-lint found {} violation(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
    // deceit-lint has no waivers; `#[expect(.., reason)]` is the
    // workspace's exception mechanism. A `// lint:` directive would
    // excuse nothing while reading as if it did.
    assert!(directive("    x(); // lint: allow(no-twin)") && directive("/// lint:"));
    assert!(!directive("// linted: fine") && !directive("let lint = 1;"));
    let mut directives = Vec::new();
    for (path, content) in &sources {
        for (i, line) in content.lines().enumerate().filter(|(_, l)| directive(l)) {
            directives.push(format!("{path}:{}: {line}", i + 1));
        }
    }
    assert!(directives.is_empty(), "`// lint:` directives:\n{}", directives.join("\n"));
}

/// One body per operation: what the caller holds is a `Scope` argument
/// (the NFS envelope) or a `Rung` (the runtime's one serve ladder in
/// `shard.rs`), not a function-name suffix (`lint::rules`' `no-twin`).
#[test]
fn no_per_lock_twins() {
    let twins = findings_of(&lint::lint_sources(&sources()), "no-twin");
    assert!(twins.is_empty(), "a per-lock twin grew back:\n{}", twins.join("\n"));
}

/// One API for hot state: `crates/core/src` reads and writes a server's
/// stores only inside `ServerState::visit` (`s.replicas.disk().get`).
/// The read-only `replicas` / `tokens` observers (defined in `hot.rs`)
/// are for code outside the engine (`lint::rules`' `hot-state-view`).
#[test]
fn core_reads_hot_state_inside_a_visit() {
    let views = findings_of(&lint::lint_sources(&sources()), "hot-state-view");
    assert!(views.is_empty(), "a hot-state observer read outside hot.rs:\n{}", views.join("\n"));
}
