//! The linter on planted sources: a rule that regresses into silence
//! fails here, which the clean repo run in `self_clean.rs` alone cannot
//! tell from "no violations".

use lint::lint_sources;
use lint::report::{Finding, LintReport};

/// A `core` module outside `hot.rs`: in scope for `slot-guard`.
const CORE: &str = "crates/core/src/proto/fixture.rs";

/// The lines of `src`, linted as the file at `path`, that `slot-guard`
/// flags. The slot locks are the bottom of the lock order: a closure run
/// under one is a leaf by the `'static` bound of `hot::visit` (its
/// `compile_fail` doc-tests plant `self`, an alias of it and another
/// server's handle under a visit), and this rule keeps every slot guard
/// in `core` going straight into a visit, so no other code runs under it.
fn slot_guard_lines(path: &str, src: &str) -> Vec<u32> {
    let report = lint_sources(&[(path.to_string(), src.to_string())]);
    rule_findings(&report, "slot-guard").iter().map(|f| f.line).collect()
}

fn rule_findings<'a>(r: &'a LintReport, rule: &str) -> Vec<&'a Finding> {
    r.findings.iter().filter(|f| f.rule == rule).collect()
}

/// Planted: a slot guard held in a `let` while the engine is called
/// through `self` (line 4). A comment may name a slot lock, and a guard
/// that goes straight into a visit is the rule's green case.
const LOCK_ORDER: &str = "impl ServerState {
    fn crash_in_place(&self) {
        for i in 0..self.slots.len() {
            let mut slot = self.slots.lock_slot(i);
            self.slots.sub_pending(slot.crash());
        }
    }

    fn crash_by_visit(&self, i: usize) {
        // a comment may say `let slot = self.slots.lock_slot(i)` freely
        self.slots.sub_pending(hot::visit(&mut self.slots.lock_slot(i), (), |s, ()| s.crash()));
    }
}
";

#[test]
fn lock_order_fixture_fails_the_lint() {
    // Exactly the planted guard, reported with its line's text.
    assert_eq!(slot_guard_lines(CORE, LOCK_ORDER), [4]);
    let report = lint_sources(&[(CORE.to_string(), LOCK_ORDER.to_string())]);
    assert!(report.findings[0].message.contains("lock_slot"), "{:?}", report.findings);
    // hot.rs owns the slot leaf locks, and the rule stops at `core`.
    for path in ["crates/core/src/hot.rs", "crates/runtime/src/runtime.rs"] {
        assert!(slot_guard_lines(path, LOCK_ORDER).is_empty(), "{path}");
    }
}

#[test]
fn lock_order_flags_a_closure_that_is_not_a_leaf() {
    // A closure run on a guard used through `Deref` is under the slot
    // lock without `visit`'s `'static` bound: here it reaches the engine
    // through `self`, once on a replica store and once on a branch table.
    let src = "impl C {\n    fn f(&self, k: K) {\n        let now = self.now();\n        self.server(k.0).slots.lock_key(k.0 .0).replicas.update_with(&k, |r| {\n            r.at = now;\n            self.schedule_flush(k);\n            ((), None)\n        });\n        self.branches.lock_key(k.0 .0).get(&k.0).map(|t| t.n + self.n);\n    }\n}\n";
    assert_eq!(slot_guard_lines(CORE, src), [4, 9]);
    // The same closures handed to a visit with the guard are held to the
    // leaf rule by the compiler, and the lint lets them through.
    let visited = "impl C {\n    fn f(&self, k: K) {\n        let now = self.now();\n        hot::visit(&mut self.server(k.0).slots.lock_key(k.0 .0), (), move |s, ()| {\n            s.replicas.update_with(&k, |r| {\n                r.at = now;\n                ((), None)\n            })\n        });\n    }\n}\n";
    assert!(slot_guard_lines(CORE, visited).is_empty());
}

#[test]
fn lock_order_holds_a_visit_closure_to_the_leaf_rule() {
    // Red: the guard is taken in a `let` and handed to the visit later,
    // so the code between them runs under the slot lock unchecked.
    let red = "impl C {\n    fn f(&self, via: N, k: K) {\n        let mut g = self.server(via).slots.lock_key(k.0 .0);\n        let held = self.server(via).has_segment(k.0);\n        hot::visit(&mut g, (), move |s, ()| held && s.leases.remove(&k).is_some())\n    }\n}\n";
    assert_eq!(slot_guard_lines(CORE, red), [3]);
    // Green: the guard goes straight into the visit, whose closure owns
    // what it needs, computed before the call.
    let green = "impl C {\n    fn f(&self, via: N, k: K) {\n        let held = self.server(via).has_segment(k.0);\n        hot::visit(&mut self.server(via).slots.lock_key(k.0 .0), (), move |s, ()| {\n            held && s.leases.remove(&k).is_some()\n        })\n    }\n}\n";
    assert!(slot_guard_lines(CORE, green).is_empty());
    // The two funnels that count around their visit keep their guard in
    // a `let`, in their own files only.
    let funnel = "        let mut slot = self.slots.lock_key(seg.0);\n";
    assert!(slot_guard_lines("crates/core/src/server.rs", funnel).is_empty());
    assert_eq!(slot_guard_lines(CORE, funnel), [1]);
}

#[test]
fn deny_semantics_fixtures_are_nonzero_findings() {
    // What `--deny` keys on: a planted violation of each rule leaves
    // findings, naming the rule and the line; a clean file leaves none.
    let planted = [
        (CORE, "fn f(c: &C) {\n    c.slots.lock_slot(0).crash();\n}\n", "slot-guard"),
        ("crates/nfs/src/ops_read.rs", "impl F {\n    fn lookup_ring(&self) {}\n}\n", "no-twin"),
        (
            "crates/core/src/proto/read.rs",
            "fn f(c: &C) {\n    c.s.replicas.len();\n}\n",
            "hot-state-view",
        ),
    ];
    for (path, src, rule) in planted {
        let report = lint_sources(&[(path.to_string(), src.to_string())]);
        let hits: Vec<(&str, u32)> =
            report.findings.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        assert_eq!(hits, [(rule, 2)], "{path}: {:?}", report.findings);
    }
    let clean = lint_sources(&[("crates/core/src/x.rs".into(), "fn ok() -> u32 { 1 }\n".into())]);
    assert!(clean.findings.is_empty());
}
