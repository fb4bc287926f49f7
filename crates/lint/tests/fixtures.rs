//! Mutation tests for the rule engine (the PR 8 idea applied to the
//! linter itself): the rule must fire on its planted-violation fixture.
//! If it regresses into silence, these fail — the clean repo run in
//! `self_clean.rs` alone cannot distinguish "no violations" from "rule
//! broke".

use lint::lint_sources;
use lint::report::Finding;

/// Lint one fixture under the repo-relative path its rule scopes to.
fn lint_fixture(as_path: &str, content: &str) -> lint::report::LintReport {
    lint_sources(&[(as_path.to_string(), content.to_string())])
}

/// A `core` module outside `hot.rs`: in scope for `lock-order`.
const CORE: &str = "crates/core/src/proto/fixture.rs";

fn rule_findings<'a>(r: &'a lint::report::LintReport, rule: &str) -> Vec<&'a Finding> {
    r.findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn lock_order_fixture_fails_the_lint() {
    let report = lint_fixture(CORE, include_str!("../fixtures/lock_order.rs"));
    let hits = rule_findings(&report, "lock-order");
    // Exactly the planted violation: `self` under a visit. Strings, raw
    // strings, nested comments, a closure that binds what it needs
    // before the call, and test code must all stay silent.
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, [10], "findings: {:?}", report.findings);
    assert!(hits[0].message.contains("`visit`"), "{}", hits[0].message);
    // hot.rs owns the slot leaf locks, and the rule stops at `core`.
    for path in ["crates/core/src/hot.rs", "crates/runtime/src/runtime.rs"] {
        let report = lint_fixture(path, include_str!("../fixtures/lock_order.rs"));
        assert!(rule_findings(&report, "lock-order").is_empty(), "{path}");
    }
}

#[test]
fn lock_order_flags_a_closure_that_is_not_a_leaf() {
    let src = "impl C {\n    fn f(&self, k: K) {\n        let now = self.now();\n        self.server(k.0).visit(k.0, |s| {\n            s.replicas.disk.update_with(&k, |r| {\n                r.at = now;\n                self.schedule_flush(k);\n                ((), None)\n            })\n        });\n        self.server(k.0).visit_all(|s| s.tokens.disk.keys().count() + self.n);\n    }\n}\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", src);
    let hits = rule_findings(&report, "lock-order");
    // `self` before the closure (the receiver, a plain argument) is fine;
    // inside it — nested in a `Disk` update too — it is the way to every
    // other lock.
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, [7, 11], "findings: {:?}", report.findings);
    assert!(hits[0].message.contains("leaf lock"));
    assert!(hits[1].message.contains("`visit_all`"), "{}", hits[1].message);
    // hot.rs implements the slots.
    let report = lint_fixture("crates/core/src/hot.rs", src);
    assert!(rule_findings(&report, "lock-order").is_empty());
}

#[test]
fn lock_order_holds_a_visit_closure_to_the_leaf_rule() {
    // Red: the closure reaches the engine through `self` — here another
    // map of the same server, which deadlocks on the slot lock it holds.
    let red = "impl C {\n    fn f(&self, via: N, k: K) {\n        self.server(via).visit(k.0, |s| {\n            s.leases.remove(&k);\n            self.server(via).tokens.contains(&k)\n        });\n    }\n}\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", red);
    let hits = rule_findings(&report, "lock-order");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert_eq!(hits[0].line, 5);
    assert!(hits[0].message.contains("`visit`"));
    // Green: what the closure needs from outside is bound before it.
    let green = "impl C {\n    fn f(&self, via: N, k: K) {\n        let net = &self.net;\n        self.server(via).visit(k.0, |s| {\n            s.leases.remove(&k);\n            net.reachable(via, k.1)\n        });\n    }\n}\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", green);
    assert!(rule_findings(&report, "lock-order").is_empty(), "findings: {:?}", report.findings);
}

/// A module under `gate` whose one function reaches `self` under a visit.
fn gated(gate: &str) -> String {
    format!("{gate}\nmod m {{\n    fn f(&self) {{ self.s.visit(0, |s| self.n) }}\n}}\n")
}

#[test]
fn feature_and_cfg_attr_gated_test_modules_are_exempt() {
    // A module compiled only under a test-harness feature is test
    // scaffolding: the production rules must not fire inside it.
    let report = lint_fixture(CORE, &gated("#[cfg(feature = \"sim-test\")]"));
    assert!(rule_findings(&report, "lock-order").is_empty(), "{:?}", report.findings);
    // Same for `cfg_attr` whose *applied* attribute is a test gate.
    let report = lint_fixture(CORE, &gated("#[cfg_attr(loom, cfg(test))]"));
    assert!(rule_findings(&report, "lock-order").is_empty(), "{:?}", report.findings);
}

#[test]
fn bogus_gates_do_not_exempt() {
    for gate in [
        // A non-test feature gate is production code under a flag.
        "#[cfg(feature = \"fast-path\")]",
        // `not(test)` is the *opposite* of a test gate.
        "#[cfg(not(test))]",
        // A `cfg_attr` whose applied part is not a test gate exempts nothing.
        "#[cfg_attr(docsrs, doc(hidden))]",
    ] {
        let report = lint_fixture(CORE, &gated(gate));
        assert_eq!(rule_findings(&report, "lock-order").len(), 1, "{gate}: {:?}", report.findings);
    }
}

#[test]
fn deny_semantics_fixtures_are_nonzero_findings() {
    // What `--deny` keys on: a planted violation leaves findings
    // non-empty, a clean file leaves them empty.
    let dirty = lint_fixture(CORE, include_str!("../fixtures/lock_order.rs"));
    assert!(!dirty.findings.is_empty());
    let clean = lint_fixture(CORE, "fn ok() -> u32 { 1 }\n");
    assert!(clean.findings.is_empty());
}
