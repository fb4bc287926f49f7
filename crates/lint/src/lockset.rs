//! Lock-set dataflow over the call graph.
//!
//! Two lock classes matter for the documented order (module doc of
//! `runtime::shard`): the cell `RwLock` must be acquired before any
//! shard ring mutex, ring mutexes are only acquired in ascending order
//! inside `lock_slots`, and leaf locks stay a lexical rule. Each
//! function gets:
//!
//!  * direct acquisition *intervals* — `cell.read()/write()`,
//!    `lock_slots(…)`, raw `shards[…].lock()` — with scope-aware
//!    release: a `let`-bound guard lives to the end of its enclosing
//!    block, a temporary dies at the next statement-level `;` (which
//!    also models match-scrutinee lifetime extension, since the scan
//!    passes through the match body before finding one);
//!  * a *guard summary*: a function whose return type names a guard
//!    (`…Guard…`) hands its acquisitions to the caller — this is how
//!    `read_guard()` and `lock_slots()` call sites become intervals;
//!  * a *closure summary*: the classes held at the points where a
//!    function invokes its `Fn*` parameters — closure literals passed
//!    to it run under those classes;
//!  * an *entry set*: the join (union) over all call sites of what the
//!    caller holds there, computed to a fixpoint. The union join is
//!    deliberately conservative: a helper called both under a ring
//!    lock and bare is analyzed as if always under the ring lock.
//!
//! The rule then flags any acquisition whose held-set violates
//! cell→ring: acquiring the cell while anything is held, or a ring
//! while a ring is held (outside `lock_slots` itself). Findings anchor
//! at the acquisition token so line-targeted waivers keep working, and
//! carry the witness call chain when the pressure is interprocedural.

use crate::callgraph::CallGraph;
use crate::items::Items;
use crate::lexer::Tok;
use crate::rules::SourceFile;

pub const CELL: u8 = 1;
pub const RING: u8 = 2;

fn class_name(bit: u8) -> &'static str {
    if bit == CELL {
        "cell lock"
    } else {
        "ring lock"
    }
}

fn held_desc(held: u8) -> String {
    match (held & CELL != 0, held & RING != 0) {
        (true, true) => "the cell lock and a ring lock are".to_string(),
        (true, false) => "the cell lock is".to_string(),
        _ => "a ring lock is".to_string(),
    }
}

/// One direct (or guard-call) acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Code-token index of the anchor (receiver/callee name).
    pub idx: usize,
    pub line: u32,
    pub class: u8,
    /// Code-token index past which the guard is no longer held.
    pub release: usize,
    /// What the acquisition lexically is, for messages.
    pub what: &'static str,
    /// True for intervals synthesized from guard-returning call sites —
    /// they hold locks but are not themselves order-checked (the
    /// acquisition inside the callee is, with this site as witness).
    pub via_call: bool,
}

#[derive(Debug, Clone, Default)]
pub struct FnLocks {
    pub acquisitions: Vec<Acquisition>,
    /// Classes this function's callers acquire by calling it, when its
    /// return type names a guard.
    pub guard_classes: u8,
    /// Classes held at the points where this function invokes its
    /// callable (`Fn*`) parameters.
    pub closure_under: u8,
    /// Join over call sites of the caller-held classes.
    pub entry: u8,
    /// Per-class witness: which caller, at which line, first proved the
    /// entry class (for the finding's call-chain note).
    pub witness: [Option<(usize, u32)>; 2],
}

#[derive(Debug, Default)]
pub struct LockSets {
    pub fns: Vec<FnLocks>,
}

/// Index of the token matching `open`'s closing delimiter.
fn match_forward(code: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < code.len() {
        match code[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    code.len() - 1
}

/// Is the statement containing `anchor` a `let` binding? Scan back to
/// the nearest statement boundary and check the first token after it.
fn is_let_bound(code: &[Tok], body_start: usize, anchor: usize) -> bool {
    let mut i = anchor;
    while i > body_start {
        i -= 1;
        if matches!(code[i].text.as_str(), ";" | "{" | "}") {
            return code.get(i + 1).is_some_and(|t| t.is("let"));
        }
    }
    code.get(body_start).is_some_and(|t| t.is("let"))
}

/// Release point for an acquisition whose call closes at `close`.
/// `let`-bound guards live until the enclosing block's `}`; temporaries
/// die at the next statement-level `;` (or the block end, whichever
/// comes first while walking the chain they are part of). A guard is
/// only `let`-bound when the call is the *whole* initializer (the next
/// token is the statement's `;`): in `let mask = g().peek();` the `let`
/// binds the peeked value, and the guard is a temporary that dies at
/// the semicolon.
fn release_point(code: &[Tok], body: (usize, usize), anchor: usize, close: usize) -> usize {
    let binds_guard = code.get(close + 1).is_some_and(|t| t.is(";"));
    if binds_guard && is_let_bound(code, body.0, anchor) {
        let mut depth = 0i32;
        let mut i = close + 1;
        while i < body.1 {
            match code[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        body.1
    } else {
        let mut depth = 0i32;
        let mut i = close + 1;
        while i < body.1 {
            match code[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return i;
                    }
                }
                ";" if depth <= 0 => return i,
                _ => {}
            }
            i += 1;
        }
        body.1
    }
}

fn seq(code: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| code.get(i + k).is_some_and(|t| t.is(p)))
}

impl LockSets {
    pub fn build(items: &Items, files: &[SourceFile], graph: &CallGraph) -> LockSets {
        let mut ls = LockSets { fns: vec![FnLocks::default(); items.fns.len()] };

        // Phase A: direct acquisition intervals per function.
        for (fn_id, f) in items.fns.iter().enumerate() {
            let code = &files[f.file].code;
            let nested = items.nested_bodies(fn_id);
            let mut acq = Vec::new();
            let mut i = f.body.0;
            while i < f.body.1 {
                if let Some(&(_, nb)) = nested.iter().find(|&&(na, _)| na == i) {
                    i = nb;
                    continue;
                }
                if code[i].test {
                    i += 1;
                    continue;
                }
                // `cell.read(` / `cell.write(` — the cell RwLock.
                if code[i].is("cell")
                    && seq(code, i + 1, &["."])
                    && code.get(i + 2).is_some_and(|t| t.is("read") || t.is("write"))
                    && seq(code, i + 3, &["("])
                {
                    let close = match_forward(code, i + 3);
                    acq.push(Acquisition {
                        idx: i,
                        line: code[i].line,
                        class: CELL,
                        release: release_point(code, f.body, i, close),
                        what: "the cell lock",
                        via_call: false,
                    });
                    i += 3;
                    continue;
                }
                // `lock_slots(` — by name, resolved or not: the seam's
                // name is part of the discipline.
                if code[i].is("lock_slots") && seq(code, i + 1, &["("]) {
                    let close = match_forward(code, i + 1);
                    acq.push(Acquisition {
                        idx: i,
                        line: code[i].line,
                        class: RING,
                        release: release_point(code, f.body, i, close),
                        what: "a ring batch via `lock_slots`",
                        via_call: false,
                    });
                    i += 1;
                    continue;
                }
                // `shards[…].lock(` — a raw ring mutex.
                if code[i].is("shards") && seq(code, i + 1, &["["]) {
                    let close_idx = match_forward(code, i + 1);
                    if seq(code, close_idx + 1, &[".", "lock", "("]) {
                        let close = match_forward(code, close_idx + 3);
                        acq.push(Acquisition {
                            idx: i,
                            line: code[i].line,
                            class: RING,
                            release: release_point(code, f.body, i, close),
                            what: "a raw ring lock",
                            via_call: false,
                        });
                        i = close_idx + 3;
                        continue;
                    }
                }
                i += 1;
            }
            ls.fns[fn_id].acquisitions = acq;
        }

        // Phase B: guard summaries — functions whose return type names
        // a guard hand their direct classes to callers.
        for (fn_id, f) in items.fns.iter().enumerate() {
            if f.ret.iter().any(|s| s.contains("Guard")) {
                ls.fns[fn_id].guard_classes =
                    ls.fns[fn_id].acquisitions.iter().fold(0, |m, a| m | a.class);
            }
        }

        // Phase C: intervals for guard-returning call sites. `lock_slots`
        // calls already produced a direct interval by name; skip those.
        for site in &graph.sites {
            let Some(callee) = site.callee else { continue };
            let classes = ls.fns[callee].guard_classes;
            if classes == 0 || site.callee_name == "lock_slots" {
                continue;
            }
            let caller = &items.fns[site.caller];
            let code = &files[caller.file].code;
            if code[site.idx].test {
                continue;
            }
            let close = match_forward(code, site.idx + 1);
            for bit in [CELL, RING] {
                if classes & bit != 0 {
                    ls.fns[site.caller].acquisitions.push(Acquisition {
                        idx: site.idx,
                        line: site.line,
                        class: bit,
                        release: release_point(code, caller.body, site.idx, close),
                        what: if bit == CELL { "the cell lock" } else { "a ring lock" },
                        via_call: true,
                    });
                }
            }
        }
        for fl in &mut ls.fns {
            fl.acquisitions.sort_by_key(|a| a.idx);
        }

        // Phase D: closure summaries — classes held where a function
        // invokes its callable parameters.
        for site in &graph.sites {
            if !site.param_invoke {
                continue;
            }
            let held = ls.held_direct(site.caller, site.idx);
            ls.fns[site.caller].closure_under |= held;
        }

        // Phase E: entry-set fixpoint over call edges. The extra
        // closure-context classes at a call site need callee closure
        // summaries, which are stable after phase D.
        for _round in 0..20 {
            let mut changed = false;
            for site in &graph.sites {
                let Some(callee) = site.callee else { continue };
                let held = ls.held_at(site.caller, site.idx, graph) | ls.fns[site.caller].entry;
                let new = ls.fns[callee].entry | held;
                if new != ls.fns[callee].entry {
                    for bit in [CELL, RING] {
                        if new & bit != 0 && ls.fns[callee].entry & bit == 0 {
                            let slot = if bit == CELL { 0 } else { 1 };
                            ls.fns[callee].witness[slot] = Some((site.caller, site.line));
                        }
                    }
                    ls.fns[callee].entry = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        ls
    }

    /// Classes held at token `idx` from this function's own intervals
    /// (strictly: acquisitions *before* `idx` still held at it).
    fn held_direct(&self, fn_id: usize, idx: usize) -> u8 {
        self.fns[fn_id]
            .acquisitions
            .iter()
            .filter(|a| a.idx < idx && idx < a.release)
            .fold(0, |m, a| m | a.class)
    }

    /// Classes held at token `idx` including closure context: if `idx`
    /// sits inside a closure literal passed to a function that invokes
    /// its callable parameter under locks, those classes apply too.
    pub fn held_at(&self, fn_id: usize, idx: usize, graph: &CallGraph) -> u8 {
        let mut held = self.held_direct(fn_id, idx);
        for &si in &graph.by_caller[fn_id] {
            let site = &graph.sites[si];
            if let Some(callee) = site.callee {
                if site.closures.iter().any(|&(a, b)| a <= idx && idx < b) {
                    held |= self.fns[callee].closure_under;
                }
            }
        }
        held
    }

    /// The full held-set governing an acquisition: intervals, closure
    /// context, and the function's entry set.
    pub fn held_for_event(&self, fn_id: usize, idx: usize, graph: &CallGraph) -> u8 {
        self.held_at(fn_id, idx, graph) | self.fns[fn_id].entry
    }

    /// Reconstruct the witness call chain that carried `class` into
    /// `fn_id`'s entry set, innermost-last, as display names.
    pub fn witness_chain(&self, items: &Items, fn_id: usize, class: u8) -> Vec<String> {
        let slot = if class == CELL { 0 } else { 1 };
        let mut chain = Vec::new();
        let mut cur = fn_id;
        for _ in 0..5 {
            let Some((caller, line)) = self.fns[cur].witness[slot] else { break };
            chain.push(format!("`{}` (line {})", items.fns[caller].name, line));
            if self.fns[caller].entry & class == 0 {
                break; // the caller holds it directly: chain complete
            }
            cur = caller;
        }
        chain.reverse();
        chain
    }
}

/// The interprocedural lock-order violations, as (file id, finding
/// parts). Computed once over the whole workspace; the per-file rule
/// filters by path.
pub struct Violation {
    pub file: usize,
    pub line: u32,
    pub message: String,
}

pub fn violations(
    items: &Items,
    files: &[SourceFile],
    graph: &CallGraph,
    ls: &LockSets,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (fn_id, f) in items.fns.iter().enumerate() {
        for a in &ls.fns[fn_id].acquisitions {
            if a.via_call {
                continue; // checked at the acquisition inside the callee
            }
            let held = ls.held_for_event(fn_id, a.idx, graph);
            let bad = match a.class {
                CELL => held & (CELL | RING),
                RING if f.name != "lock_slots" => held & RING,
                _ => 0,
            };
            if bad == 0 {
                continue;
            }
            // Which class proves the violation (prefer the ring for
            // cell-under-ring: it is the order inversion).
            let blame = if bad & RING != 0 { RING } else { CELL };
            let local = ls.held_at(fn_id, a.idx, graph) & blame != 0;
            let chain = if local {
                String::new()
            } else {
                let steps = ls.witness_chain(items, fn_id, blame);
                if steps.is_empty() {
                    String::new()
                } else {
                    format!(" — reached via {}", steps.join(" → "))
                }
            };
            let message = if a.class == CELL {
                format!(
                    "{} acquired in `{}` while {} already held{} (the {} must come first)",
                    class_name(CELL),
                    f.name,
                    held_desc(held & (CELL | RING)),
                    chain,
                    class_name(CELL),
                )
            } else {
                format!(
                    "{} acquired in `{}` while {} already held{} — only `lock_slots` may batch ring acquisitions (ascending order is proven there)",
                    class_name(RING),
                    f.name,
                    held_desc(RING),
                    chain,
                )
            };
            let _ = &files; // anchor data lives on the acquisition itself
            out.push(Violation { file: f.file, line: a.line, message });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn setup(src: &str) -> (Items, Vec<SourceFile>, CallGraph, LockSets) {
        let files = vec![SourceFile::new("crates/runtime/src/shard.rs", src)];
        let items = Items::build(&files);
        let graph = CallGraph::build(&items, &files);
        let ls = LockSets::build(&items, &files, &graph);
        (items, files, graph, ls)
    }

    #[test]
    fn direct_cell_after_ring_violates() {
        let src = "impl Engine {\n\
            fn bad(&self) {\n        let batch = self.lock_slots(3);\n        let c = self.cell.read();\n    }\n\
            fn lock_slots(&self, class: u32) -> Vec<Guard> { Vec::new() }\n}\n";
        let (items, files, graph, ls) = setup(src);
        let v = violations(&items, &files, &graph, &ls);
        assert_eq!(v.len(), 1, "{:?}", v.iter().map(|v| &v.message).collect::<Vec<_>>());
        assert!(v[0].message.contains("cell lock"));
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn cell_then_ring_is_the_documented_order() {
        let src = "impl Engine {\n\
            fn good(&self) {\n        let c = self.cell.read();\n        let batch = self.lock_slots(3);\n    }\n\
            fn lock_slots(&self, class: u32) -> Vec<Guard> { Vec::new() }\n}\n";
        let (items, files, graph, ls) = setup(src);
        assert!(violations(&items, &files, &graph, &ls).is_empty());
    }

    #[test]
    fn helper_two_calls_deep_is_flagged_with_chain() {
        let src = "impl Engine {\n\
            fn top(&self) {\n        let batch = self.lock_slots(3);\n        self.middle();\n    }\n\
            fn middle(&self) { self.deep(); }\n\
            fn deep(&self) { let c = self.cell.read(); }\n\
            fn lock_slots(&self, class: u32) -> Vec<Guard> { Vec::new() }\n}\n";
        let (items, files, graph, ls) = setup(src);
        let v = violations(&items, &files, &graph, &ls);
        assert_eq!(v.len(), 1, "{:?}", v.iter().map(|v| &v.message).collect::<Vec<_>>());
        assert!(v[0].message.contains("cell lock"));
        assert!(v[0].message.contains("`deep`"));
        assert!(v[0].message.contains("reached via"), "{}", v[0].message);
        assert_eq!(v[0].line, 7); // anchored at the acquisition in deep()
    }

    #[test]
    fn temporary_guard_dies_at_the_statement() {
        // The ring guard is a temporary: dead at the `;`, so the cell
        // acquisition on the next line is clean.
        let src = "impl Engine {\n\
            fn ok(&self) {\n        self.lock_slots(3);\n        let c = self.cell.read();\n    }\n\
            fn lock_slots(&self, class: u32) -> Vec<Guard> { Vec::new() }\n}\n";
        let (items, files, graph, ls) = setup(src);
        assert!(violations(&items, &files, &graph, &ls).is_empty());
    }

    #[test]
    fn chained_guard_in_a_let_is_still_a_temporary() {
        // `let mask = self.read_guard().peek();` binds the peeked
        // value, not the guard — the guard dies at the `;`, so calls on
        // later lines of the same block carry no cell pressure (the
        // pump loop's mask-probe idiom).
        let src = "impl Engine {\n\
            fn read_guard(&self) -> RwLockReadGuard<'_, u32> {\n        self.cell.read()\n    }\n\
            fn deep(&self) { let c = self.cell.read(); }\n\
            fn pump(&self) {\n        let mask = self.read_guard().peek();\n        self.deep();\n    }\n}\n";
        let (items, files, graph, ls) = setup(src);
        let v = violations(&items, &files, &graph, &ls);
        assert!(v.is_empty(), "{:?}", v.iter().map(|v| &v.message).collect::<Vec<_>>());
    }

    #[test]
    fn let_guard_released_at_block_end() {
        let src = "impl Engine {\n\
            fn ok(&self) {\n        {\n            let batch = self.lock_slots(3);\n        }\n        let c = self.cell.read();\n    }\n\
            fn lock_slots(&self, class: u32) -> Vec<Guard> { Vec::new() }\n}\n";
        let (items, files, graph, ls) = setup(src);
        assert!(violations(&items, &files, &graph, &ls).is_empty());
    }

    #[test]
    fn closure_passed_to_lock_holding_wrapper_is_checked() {
        let src = "impl Engine {\n\
            fn exclusive<R>(&self, f: impl FnOnce(u32) -> R) -> R {\n        let c = self.cell.write();\n        f(3)\n    }\n\
            fn caller(&self) {\n        self.exclusive(|x| { let c = self.cell.read(); });\n    }\n}\n";
        let (items, files, graph, ls) = setup(src);
        let v = violations(&items, &files, &graph, &ls);
        assert_eq!(v.len(), 1, "{:?}", v.iter().map(|v| &v.message).collect::<Vec<_>>());
        assert_eq!(v[0].line, 7);
        assert!(v[0].message.contains("cell lock acquired in `caller`"));
    }

    #[test]
    fn guard_returning_helper_carries_its_class_to_callers() {
        let src = "impl Engine {\n\
            fn read_guard(&self) -> RwLockReadGuard<u32> { self.cell.read() }\n\
            fn bad(&self) {\n        let g = self.read_guard();\n        let c = self.cell.read();\n    }\n}\n";
        let (items, files, graph, ls) = setup(src);
        let v = violations(&items, &files, &graph, &ls);
        assert_eq!(v.len(), 1, "{:?}", v.iter().map(|v| &v.message).collect::<Vec<_>>());
        assert_eq!(v[0].line, 5); // the second cell acquisition, under the first
    }

    #[test]
    fn ring_under_ring_outside_lock_slots_violates() {
        let src = "impl Engine {\n\
            fn bad(&self) {\n        let a = self.shards[1].lock();\n        let b = self.shards[0].lock();\n    }\n}\n";
        let (items, files, graph, ls) = setup(src);
        let v = violations(&items, &files, &graph, &ls);
        assert_eq!(v.len(), 1, "{:?}", v.iter().map(|v| &v.message).collect::<Vec<_>>());
        assert!(v[0].message.contains("only `lock_slots`"));
    }

    #[test]
    fn lock_slots_itself_may_batch() {
        let src = "impl Engine {\n\
            fn lock_slots(&self, class: u32) -> Vec<Guard> {\n        let a = self.shards[0].lock();\n        let b = self.shards[1].lock();\n        Vec::new()\n    }\n}\n";
        let (items, files, graph, ls) = setup(src);
        assert!(violations(&items, &files, &graph, &ls).is_empty());
    }
}
