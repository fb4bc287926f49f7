//! The rule registry. A rule judges one line of one file at a time, by
//! plain text, and scopes itself by the file's repo-relative path, so a
//! test can plant a line under any path.

pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    /// The bug class that motivated the rule (for `--list-rules`).
    pub motivation: &'static str,
    /// Whether `line` of the file at `path` breaks the rule.
    pub check: fn(path: &str, line: &str) -> bool,
}

pub const RULES: &[Rule] = &[
    Rule {
        id: "no-twin",
        summary: "no per-lock operation twin (`fn *_shared`, `*_sharded`, `*_ring`) in crates/{nfs,core,runtime}/src: what the caller holds is a `Scope` argument or a `Rung`, not a name suffix",
        motivation: "every operation once existed up to three times (`*_shared` / `*_sharded` / exclusive), and the copies drifted apart; a suffixed twin is how they would grow back",
        check: twin,
    },
    Rule {
        id: "hot-state-view",
        summary: "crates/core/src reads a server's stores only inside a visit (`s.replicas.disk().get`), never through the read-only `replicas` / `tokens` observers, which are for code outside the engine",
        motivation: "the visit is the one API for hot state; an observer read inside the engine is a second lock round, outside the visit it sits beside, and can see the slot between two of its steps",
        check: observer_read,
    },
    Rule {
        id: "slot-guard",
        summary: "crates/core/src outside hot.rs takes a slot lock (`.lock_slot(` / `.lock_key(`) only as the guard of a visit, `visit(&mut <receiver>.lock_key(..), ..)`, on one line, so nothing but the visit's `'static` closure runs under it; `ServerState::visit_with` and `Cluster::with_branch_table`, which count around their visit, hold theirs by name",
        motivation: "the `'static` bound makes a visit closure a leaf only if the guard goes straight into the visit; a guard held in a `let` or used through `Deref` runs any code under the slot lock, `self` included, which is the bug class the old lexical lock-order rule caught",
        check: unvisited_guard,
    },
];

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

/// `no-twin`: the only suffixed functions `crates/{nfs,core,runtime}/src`
/// may declare are `host.rs`'s three `NfsService` trait methods and
/// their impls, `Cluster::write_sharded`, which the benchmark's probe
/// calls, and `CellLock::try_shared`, a try-lock of the cell lock's
/// shared level rather than an operation twin.
fn twin(path: &str, line: &str) -> bool {
    let scoped = ["crates/nfs/src/", "crates/core/src/", "crates/runtime/src/"];
    if !scoped.iter().any(|d| path.starts_with(d)) || !declares_twin(line) {
        return false;
    }
    let decl = line.trim_start();
    let indented = decl.len() < line.len();
    let allowed = indented
        && match path {
            "crates/nfs/src/host.rs" => {
                ["fn serve_shared(", "fn serve_sharded(", "fn serve_read_sharded("]
                    .iter()
                    .any(|f| decl.starts_with(f))
            }
            "crates/core/src/proto/write.rs" => decl.starts_with("pub fn write_sharded("),
            "crates/runtime/src/shard/cell_lock.rs" => decl.starts_with("pub fn try_shared("),
            _ => false,
        };
    !allowed
}

/// `hot-state-view`: an observer read in `crates/core/src` outside
/// `hot.rs`, which defines the observers.
fn observer_read(path: &str, line: &str) -> bool {
    path.starts_with("crates/core/src/") && path != "crates/core/src/hot.rs" && reads_observer(line)
}

/// Whether `line` takes a slot lock (`.lock_slot(` / `.lock_key(`)
/// other than as the guard of a visit: the text before the receiver
/// (a path of words, dots and call parentheses) is not `visit(&mut `.
/// A comment line takes no lock.
fn takes_unvisited_guard(line: &str) -> bool {
    if line.trim_start().starts_with("//") {
        return false;
    }
    [".lock_slot(", ".lock_key("].iter().any(|call| {
        line.match_indices(call).any(|(i, _)| {
            let before =
                line[..i].trim_end_matches(|c: char| c.is_alphanumeric() || "_.()".contains(c));
            !before.ends_with("visit(&mut ")
        })
    })
}

/// `slot-guard`: an unvisited slot guard in `crates/core/src` outside
/// `hot.rs`, which defines the slots and the funnel. The two funnels
/// that count around their visit under the same lock round keep their
/// guard in a `let`, each on one line of its own file.
fn unvisited_guard(path: &str, line: &str) -> bool {
    if !path.starts_with("crates/core/src/") || path == "crates/core/src/hot.rs" {
        return false;
    }
    let allowed = match path {
        "crates/core/src/server.rs" => line.trim() == "let mut slot = self.slots.lock_key(seg.0);",
        "crates/core/src/cluster.rs" => {
            line.trim() == "let mut tables = self.branches.lock_key(seg.0);"
        }
        _ => false,
    };
    !allowed && takes_unvisited_guard(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_twin_matches_a_suffixed_name_only() {
        assert!(declares_twin("    pub fn read_ring(&self) {"));
        assert!(!declares_twin("fn ring_read()") && !declares_twin("fn _ring()"));
        assert!(!declares_twin("    fn Read_shared()"), "lower-case names only");
    }

    #[test]
    fn twin_fires_on_a_planted_line_in_scope() {
        let planted = "    pub(crate) fn lookup_sharded(&self, seg: SegmentId) -> bool {";
        assert!(twin("crates/core/src/proto/locate.rs", planted));
        assert!(twin("crates/runtime/src/runtime.rs", planted));
        assert!(!twin("crates/agent/src/driver.rs", planted), "out of scope");
        // The allowed declarations, and only where they live.
        assert!(!twin("crates/nfs/src/host.rs", "    fn serve_shared(&self, via: NodeId) {"));
        assert!(!twin("crates/core/src/proto/write.rs", "    pub fn write_sharded("));
        assert!(twin("crates/core/src/proto/read.rs", "    pub fn write_sharded("));
        assert!(twin("crates/nfs/src/host.rs", "fn serve_shared() {}"), "a top-level fn");
    }

    #[test]
    fn reads_observer_matches_the_observers_not_the_visit_form() {
        assert!(reads_observer("c.server(n).replicas.get(&k)"));
        assert!(reads_observer("let n = srv.tokens.len();"));
        assert!(!reads_observer("s.replicas.disk().get(&k)") && !reads_observer("s.tokens.getter"));
    }

    #[test]
    fn observer_read_fires_on_a_planted_line_in_core_outside_hot() {
        let planted = "        let held = self.server(via).tokens.contains(&key);";
        assert!(observer_read("crates/core/src/proto/token.rs", planted));
        assert!(!observer_read("crates/core/src/hot.rs", planted), "hot.rs defines them");
        assert!(!observer_read("crates/nfs/src/fs.rs", planted), "outside the engine");
    }

    #[test]
    fn takes_unvisited_guard_matches_a_guard_outside_a_visit_only() {
        assert!(takes_unvisited_guard("        let mut g = self.slots.lock_slot(i);"));
        assert!(takes_unvisited_guard("self.branches.lock_key(seg.0).get(&seg).cloned()"));
        assert!(!takes_unvisited_guard(
            "hot::visit(&mut self.server(via).slots.lock_key(seg.0), (), move |s, ()| s.n)"
        ));
        assert!(!takes_unvisited_guard("    /// `let g = self.slots.lock_slot(i)` is refused"));
    }

    #[test]
    fn unvisited_guard_fires_on_a_planted_line_in_core_outside_hot() {
        let planted = "        let mut slot = self.slots.lock_slot(i);";
        assert!(unvisited_guard("crates/core/src/server.rs", planted));
        assert!(!unvisited_guard("crates/core/src/hot.rs", planted), "hot.rs defines the slots");
        assert!(!unvisited_guard("crates/runtime/src/shard.rs", planted), "outside the engine");
        // The two counting funnels, and only where they live.
        let funnel = "        let mut slot = self.slots.lock_key(seg.0);";
        assert!(!unvisited_guard("crates/core/src/server.rs", funnel));
        assert!(unvisited_guard("crates/core/src/proto/read.rs", funnel));
    }
}
