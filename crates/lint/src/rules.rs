//! The rule registry. Rules are invoked once per file; scoping is by
//! repo-relative path so fixture tests can exercise a rule by lexing
//! synthetic content under the real path.

use crate::lexer::{Tok, TokKind};
use crate::report::Finding;

/// One file, pre-lexed. `code` is the token stream with comments
/// stripped: rules match on it.
pub struct SourceFile {
    pub path: String,
    pub code: Vec<Tok>,
}

impl SourceFile {
    pub fn new(path: &str, src: &str) -> Self {
        let code = crate::lexer::lex(src).into_iter().filter(|t| t.kind != TokKind::Comment);
        SourceFile { path: path.to_string(), code: code.collect() }
    }
}

pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    /// Which PR's bug class motivated the rule (for `--list-rules`).
    pub motivation: &'static str,
    pub check: fn(&SourceFile, &mut Vec<Finding>),
}

pub const RULES: &[Rule] = &[Rule {
    id: "lock-order",
    summary: "a closure handed to a server's visit/visit_all runs under a slot's leaf lock: no `self` inside it, nor in a closure nested in it (a store's `update_with` is reached only inside one)",
    motivation: "PRs 2-3 sharded the engine; a closure under a slot lock that reaches the engine through `self` can take a second lock, or the same one again",
    check: rule_lock_order,
}];

// ---------------------------------------------------------------------------
// Token-stream helpers.

fn seq(code: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| code.get(i + k).is_some_and(|t| t.text == *p))
}

// ---------------------------------------------------------------------------
// Rule: lock-order (the slot leaf locks).

/// The cell and ring levels of the lock order are carried by
/// `deceit_runtime::shard::CellLock`'s types, and clippy's
/// `disallowed_methods` keeps raw std lock calls inside the lock
/// funnels; below them sit the engine's per-slot leaf locks, behind
/// `crates/core/src/hot.rs`. A closure handed to a server's `visit` or
/// `visit_all` runs under a slot's leaf lock and must be a leaf itself:
/// it may not mention `self`, through which every other lock of the
/// engine is reached — nor may a closure nested in it, such as one
/// handed to the slot's `Disk::update_with`. Checked in `crates/core`
/// outside `hot.rs`.
fn rule_lock_order(f: &SourceFile, out: &mut Vec<Finding>) {
    if !f.path.starts_with("crates/core/src/") || f.path.ends_with("/hot.rs") {
        return;
    }
    let code = &f.code;
    for i in 0..code.len() {
        if code[i].test {
            continue;
        }
        if ["visit", "visit_all"].iter().any(|m| seq(code, i, &[".", m, "("])) {
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
