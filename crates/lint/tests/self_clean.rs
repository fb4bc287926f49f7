//! The repo lints itself clean: `cargo test` fails the moment a non-leaf
//! slot closure in `core`, a `// lint:` directive, a per-lock operation
//! twin or a hot-state observer read inside the engine lands — without
//! waiting for the CI lint job.

use lint::lexer::{lex, TokKind};
use std::path::Path;

fn sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = lint::collect_sources(&root).expect("read workspace sources");
    assert!(sources.len() > 100, "walker found only {} files — scan set broke", sources.len());
    sources
}

/// Every `path:line: text` of `sources` under one of `dirs` that `hit`
/// matches.
fn lines_where(
    sources: &[(String, String)],
    dirs: &[&str],
    hit: impl Fn(&str, &str) -> bool,
) -> Vec<String> {
    let mut out = Vec::new();
    for (path, content) in sources.iter().filter(|(p, _)| dirs.iter().any(|d| p.starts_with(d))) {
        for (i, line) in content.lines().enumerate() {
            if hit(path, line) {
                out.push(format!("{path}:{}: {line}", i + 1));
            }
        }
    }
    out
}

/// The word (`[A-Za-z0-9_]*`) at the start of `s`.
fn word(s: &str) -> &str {
    &s[..s.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(s.len())]
}

/// Whether `line` declares `fn [a-z_0-9]+_(shared|sharded|ring)` (the
/// name ending there).
fn declares_twin(line: &str) -> bool {
    line.match_indices("fn ").any(|(i, _)| {
        let name = word(&line[i + 3..]);
        let lower = name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        lower
            && ["_shared", "_sharded", "_ring"]
                .iter()
                .any(|s| name.len() > s.len() && name.ends_with(s))
    })
}

/// Whether `line` calls a read-only hot-state observer:
/// `.(replicas|tokens).(get|contains|len|…)` — not the in-visit form
/// `s.replicas.disk().get`.
fn reads_observer(line: &str) -> bool {
    const READS: &[&str] = &[
        "get",
        "contains",
        "len",
        "is_empty",
        "durable_bytes",
        "sync_writes",
        "async_writes",
        "lost_writes",
    ];
    [".replicas.", ".tokens."].iter().any(|store| {
        line.match_indices(store).any(|(i, _)| READS.contains(&word(&line[i + store.len()..])))
    })
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
    let mut directives = Vec::new();
    for (path, content) in &sources {
        for t in lex(content).iter().filter(|t| t.kind == TokKind::Comment) {
            if t.text.trim_start_matches('/').trim_start().starts_with("lint:") {
                directives.push(format!("{path}:{}: {}", t.line, t.text));
            }
        }
    }
    assert!(directives.is_empty(), "`// lint:` directives:\n{}", directives.join("\n"));
}

/// One body per operation: what the caller holds is a `Scope` argument
/// (the NFS envelope) or a `Rung` (the runtime's one serve ladder in
/// `shard.rs`), not a function-name suffix. The only suffixed functions
/// `crates/{nfs,core,runtime}/src` may have are `host.rs`'s three
/// `NfsService` trait methods and their impls, `Cluster::write_sharded`,
/// which the benchmark's probe calls, and `CellLock::try_shared`, a
/// try-lock of the cell lock's shared level rather than an operation
/// twin.
#[test]
fn no_per_lock_twins() {
    assert!(declares_twin("    pub fn read_ring(&self) {") && !declares_twin("fn ring_read()"));
    let allowed = |path: &str, line: &str| {
        let decl = line.trim_start();
        let indented = decl.len() < line.len();
        indented
            && match path {
                "crates/nfs/src/host.rs" => {
                    ["fn serve_shared(", "fn serve_sharded(", "fn serve_read_sharded("]
                        .iter()
                        .any(|f| decl.starts_with(f))
                }
                "crates/core/src/proto/write.rs" => decl.starts_with("pub fn write_sharded("),
                "crates/runtime/src/shard/cell_lock.rs" => decl.starts_with("pub fn try_shared("),
                _ => false,
            }
    };
    let dirs = ["crates/nfs/src/", "crates/core/src/", "crates/runtime/src/"];
    let twins =
        lines_where(&sources(), &dirs, |path, line| declares_twin(line) && !allowed(path, line));
    assert!(twins.is_empty(), "a per-lock twin grew back:\n{}", twins.join("\n"));
}

/// One API for hot state: `crates/core/src` reads and writes a server's
/// stores only inside `ServerState::visit` (`s.replicas.disk().get`).
/// The read-only `replicas` / `tokens` observers (defined in `hot.rs`)
/// are for code outside the engine.
#[test]
fn core_reads_hot_state_inside_a_visit() {
    assert!(reads_observer("c.server(n).replicas.get(&k)"));
    assert!(!reads_observer("s.replicas.disk().get(&k)") && !reads_observer("s.tokens.getter"));
    let views = lines_where(&sources(), &["crates/core/src/"], |path, line| {
        path != "crates/core/src/hot.rs" && reads_observer(line)
    });
    assert!(views.is_empty(), "a hot-state observer read outside hot.rs:\n{}", views.join("\n"));
}
