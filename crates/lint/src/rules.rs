//! The rule registry. Rules are invoked once per file; scoping is by
//! repo-relative path so fixture tests can exercise a rule by lexing
//! synthetic content under the real path.

use crate::lexer::{Tok, TokKind};
use crate::report::Finding;

/// One file, pre-lexed. `code` is the token stream with comments
/// stripped (rules match on it); `toks` keeps comments for waivers.
pub struct SourceFile {
    pub path: String,
    pub toks: Vec<Tok>,
    pub code: Vec<Tok>,
}

impl SourceFile {
    pub fn new(path: &str, src: &str) -> Self {
        let toks = crate::lexer::lex(src);
        let code = toks.iter().filter(|t| t.kind != TokKind::Comment).cloned().collect();
        SourceFile { path: path.to_string(), toks, code }
    }
}

pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    /// Which PR's bug class motivated the rule (for `--list-rules`).
    pub motivation: &'static str,
    pub check: fn(&SourceFile, &mut Vec<Finding>),
}

pub const RULES: &[Rule] = &[
    Rule {
        id: "lock-order",
        summary: "slot leaf locks stay behind the hot.rs seam: no raw .lock() in core outside hot.rs, and no `self` in a closure handed to visit/update/update_with (it runs under a slot's leaf lock)",
        motivation: "PRs 2-3 sharded the engine; a closure under a slot lock that reaches the engine through `self` can take a second lock, or the same one again",
        check: rule_lock_order,
    },
    Rule {
        id: "lease-discipline",
        summary: "in registered invalidation functions the lease revoke must lexically precede the state mutation",
        motivation: "PR 5's read leases are only safe because every invalidation revokes before it mutates",
        check: rule_lease_discipline,
    },
];

/// Rules that moved to the compiler, and what a waiver naming one
/// should be written as now.
pub const MOVED: &[(&str, &str)] = &[
    (
        "no-bare-panic",
        "is now clippy's `unwrap_used`/`expect_used`/`panic`/`unreachable`/`todo`/`unimplemented`: write `#[expect(clippy::…, reason = \"…\")]`",
    ),
    (
        "one-clock",
        "is now clippy's `disallowed_methods` (clippy.toml): read the clock through `deceit_sim::wall`, or write `#[expect(clippy::disallowed_methods, reason = \"…\")]`",
    ),
    (
        "due-gating",
        "is now rustc's exhaustiveness check on `Pending::due_gated`, under `#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]`: name the variant there",
    ),
    (
        "ordering-audit",
        "is now the type of the atomic: declare it as one of `deceit_sim::atomic`'s types (`RelaxedU64` for a tally, `PublishedU64`/`PublishedBool` for what a reader acts on), with the staleness argument on the declaration; clippy's `disallowed_types` (clippy.toml) refuses the std atomics",
    ),
];

pub fn rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|r| r.id).collect()
}

// ---------------------------------------------------------------------------
// Token-stream helpers.

fn seq(code: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| code.get(i + k).is_some_and(|t| t.text == *p))
}

struct FnSpan {
    name: String,
    line: u32,
    /// Code-index range of the body, exclusive of its braces.
    body: (usize, usize),
}

/// Find `fn <name> … { … }` spans. Signature parens/brackets are
/// skipped so the body `{` is found even with where-clauses and
/// generics; trait method declarations (`fn f();`) yield no span.
fn functions(code: &[Tok]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is("fn") && code.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = code[i + 1].text.clone();
            let line = code[i].line;
            let (mut paren, mut brack) = (0i32, 0i32);
            let mut j = i + 2;
            let mut open = None;
            while j < code.len() {
                match code[j].text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => brack += 1,
                    "]" => brack -= 1,
                    "{" if paren == 0 && brack == 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if paren == 0 && brack == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = open {
                let mut depth = 0i32;
                let mut k = open;
                while k < code.len() {
                    if code[k].is("{") {
                        depth += 1;
                    } else if code[k].is("}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                out.push(FnSpan { name, line, body: (open + 1, k.min(code.len())) });
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 1: lock-order (the slot leaf locks).

/// The cell and ring levels of the lock order are carried by
/// `deceit_runtime::shard::CellLock`'s types; below them sit the engine's
/// per-slot leaf locks, behind `crates/core/src/hot.rs`. Two lexical
/// checks keep them leaves, in `crates/core` outside `hot.rs`:
///   (a) no raw `.lock()` calls — leaf locks belong behind the seam;
///   (b) a closure handed to a server's `visit` or a container's
///       `update` / `update_with` runs under that slot's leaf lock and
///       must be a leaf itself: it may not mention `self`, through which
///       every other lock of the engine is reached.
fn rule_lock_order(f: &SourceFile, out: &mut Vec<Finding>) {
    if !f.path.starts_with("crates/core/src/") || f.path.ends_with("/hot.rs") {
        return;
    }
    let code = &f.code;
    for i in 0..code.len() {
        if code[i].test {
            continue;
        }
        if seq(code, i, &[".", "lock", "("]) {
            out.push(Finding::new(
                "lock-order",
                &f.path,
                code[i].line,
                "raw leaf-lock acquisition outside the hot.rs seam",
            ));
        }
        if ["visit", "update", "update_with"].iter().any(|m| seq(code, i, &[".", m, "("])) {
            if let Some(line) = self_in_closure_arg(code, i + 2) {
                out.push(Finding::new(
                    "lock-order",
                    &f.path,
                    line,
                    format!(
                        "`self` inside the closure handed to `{}` — it runs under a slot's leaf lock and must take no other: compute before the call, act on the result after it",
                        code[i + 1].text
                    ),
                ));
            }
        }
    }
}

/// The line of the first `self` inside a closure literal among the
/// arguments of the call whose `(` is at `open`.
fn self_in_closure_arg(code: &[Tok], open: usize) -> Option<u32> {
    let mut depth = 0i32;
    let mut in_closure = false;
    for t in &code[open..] {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            "|" | "||" if depth == 1 => in_closure = true,
            "self" if in_closure => return Some(t.line),
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rule 2: lease-discipline.

/// Registered invalidation functions (file, fn). In each, the first
/// lease revoke (`leases.remove`/`leases.clear`) must lexically precede
/// the first replica/token/stream state mutation, so a racing leased
/// read can never validate against already-mutated state.
const INVALIDATORS: &[(&str, &str)] = &[
    ("crates/core/src/proto/token.rs", "pass_token"),
    ("crates/core/src/proto/stability.rs", "mark_stable_round"),
    ("crates/core/src/server.rs", "crash"),
    ("crates/core/src/proto/recovery.rs", "destroy_replica"),
];

const MUTATION_RECEIVERS: &[&str] = &["replicas", "tokens", "streams", "outbound", "receivers"];
const MUTATION_METHODS: &[&str] = &[
    "put_sync",
    "put_async",
    "delete_sync",
    "update",
    "update_with",
    "crash",
    "clear",
    "remove",
    "insert",
];

fn rule_lease_discipline(f: &SourceFile, out: &mut Vec<Finding>) {
    let targets: Vec<&str> =
        INVALIDATORS.iter().filter(|(p, _)| *p == f.path).map(|(_, name)| *name).collect();
    if targets.is_empty() {
        return;
    }
    let code = &f.code;
    for fun in functions(code) {
        if !targets.contains(&fun.name.as_str()) {
            continue;
        }
        let mut revoke_at: Option<usize> = None;
        let mut mutation: Option<(usize, String)> = None;
        for i in fun.body.0..fun.body.1 {
            if code[i].test {
                continue;
            }
            if code[i].is("leases")
                && seq(code, i + 1, &["."])
                && code.get(i + 2).is_some_and(|t| t.is("remove") || t.is("clear"))
            {
                revoke_at.get_or_insert(i);
            }
            if MUTATION_RECEIVERS.contains(&code[i].text.as_str())
                && seq(code, i + 1, &["."])
                && code.get(i + 2).is_some_and(|t| MUTATION_METHODS.contains(&t.text.as_str()))
                && mutation.is_none()
            {
                mutation = Some((i, format!("{}.{}", code[i].text, code[i + 2].text)));
            }
        }
        match (revoke_at, &mutation) {
            (None, _) => out.push(Finding::new(
                "lease-discipline",
                &f.path,
                fun.line,
                format!(
                    "`{}` is a registered lease invalidator but never revokes (`leases.remove`/`leases.clear`)",
                    fun.name
                ),
            )),
            (Some(r), Some((m, what))) if *m < r => out.push(Finding::new(
                "lease-discipline",
                &f.path,
                code[*m].line,
                format!(
                    "`{}` mutates state (`{}`) before revoking the lease — a racing leased read can validate against the mutated state",
                    fun.name, what
                ),
            )),
            _ => {}
        }
    }
}
