//! Mutation tests for the rule engine (the PR 8 idea applied to the
//! linter itself): every rule must fire on its planted-violation
//! fixture, and the waiver machinery must suppress exactly what it
//! claims. If a rule regresses into silence, these fail — the clean
//! repo run in `self_clean.rs` alone cannot distinguish "no
//! violations" from "rule broke".

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
    // Exactly the two planted violations: the raw leaf lock and `self`
    // under a visit. Strings, raw strings, nested comments, a closure
    // that binds what it needs before the call, test code and the waived
    // lock must all stay silent.
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, [8, 14], "findings: {:?}", report.findings);
    assert!(hits[0].message.contains("raw leaf-lock"), "{}", hits[0].message);
    assert!(hits[1].message.contains("`visit`"), "{}", hits[1].message);
    // The fixture's waiver suppressed the waived lock and is counted.
    assert_eq!(report.waivers_honored, 1);
    assert!(rule_findings(&report, "unused-waiver").is_empty());
    // hot.rs owns the slot leaf locks, and the rule stops at `core`.
    for path in ["crates/core/src/hot.rs", "crates/runtime/src/runtime.rs"] {
        let report = lint_fixture(path, include_str!("../fixtures/lock_order.rs"));
        assert!(rule_findings(&report, "lock-order").is_empty(), "{path}");
    }
}

#[test]
fn lock_order_flags_leaf_locks_outside_the_seam() {
    let src = "impl T {\n    fn probe(&self) -> bool {\n        self.inner.lock().unwrap_or_else(|e| e.into_inner()).probe()\n    }\n}\n";
    let report = lint_fixture("crates/core/src/somewhere.rs", src);
    assert_eq!(rule_findings(&report, "lock-order").len(), 1);
    // hot.rs owns the slot leaf locks: the identical code is fine there.
    let report = lint_fixture("crates/core/src/hot.rs", src);
    assert!(rule_findings(&report, "lock-order").is_empty());
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

#[test]
fn lease_discipline_fixture_fails_the_lint() {
    let report = lint_fixture(
        "crates/core/src/proto/token.rs",
        include_str!("../fixtures/lease_discipline.rs"),
    );
    let hits = rule_findings(&report, "lease-discipline");
    // The plain form and the form inside a visit, where every mutation of
    // a server's stores is made.
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, [10, 24], "findings: {:?}", report.findings);
    assert!(hits.iter().all(|f| f.message.contains("pass_token")));
    assert!(hits[0].message.contains("`tokens.delete_sync`"), "{}", hits[0].message);
    assert!(hits[1].message.contains("`tokens.disk.delete_sync`"), "{}", hits[1].message);
}

#[test]
fn lease_discipline_checks_segment_teardown() {
    // `destroy_segment_at` revokes the leases of every major it tears
    // down, so it is an invalidator like the rest.
    let red = "impl C {\n    pub(crate) fn destroy_segment_at(&self, server: N, seg: S) {\n        let srv = self.server(server);\n        for major in srv.majors_of(seg) {\n            let k = (seg, major);\n            srv.replicas.delete_sync(&k);\n            srv.leases.remove(&k);\n        }\n    }\n}\n";
    let report = lint_fixture("crates/core/src/proto/lifecycle.rs", red);
    let hits = rule_findings(&report, "lease-discipline");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert_eq!(hits[0].line, 6);
    assert!(hits[0].message.contains("destroy_segment_at"), "{}", hits[0].message);
    // Revoke first, in one visit: green.
    let green = "impl C {\n    pub(crate) fn destroy_segment_at(&self, server: N, seg: S) {\n        self.server(server).visit(seg, |s| {\n            while let Some(k) = s.replicas.latest(seg) {\n                s.leases.remove(&k);\n                s.replicas.disk.delete_sync(&k);\n            }\n        });\n    }\n}\n";
    let report = lint_fixture("crates/core/src/proto/lifecycle.rs", green);
    assert!(rule_findings(&report, "lease-discipline").is_empty(), "{:?}", report.findings);
}

#[test]
fn lease_discipline_flags_a_missing_revoke() {
    let src = "impl S {\n    pub fn crash(&self) {\n        self.replicas.crash();\n    }\n}\n";
    let report = lint_fixture("crates/core/src/server.rs", src);
    let hits = rule_findings(&report, "lease-discipline");
    assert_eq!(hits.len(), 1);
    assert!(hits[0].message.contains("never revokes"));
}

/// A module under `gate` whose one function takes a raw leaf lock.
fn gated(gate: &str) -> String {
    format!("{gate}\nmod m {{\n    fn f(&self) -> usize {{ self.inner.lock().len() }}\n}}\n")
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
fn unused_waiver_is_a_finding() {
    let src = "// lint: allow(lock-order): nothing here actually violates the rule\nfn fine() -> u32 { 1 }\n";
    let report = lint_fixture(CORE, src);
    let hits = rule_findings(&report, "unused-waiver");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert_eq!(report.waivers_honored, 0);
}

#[test]
fn malformed_waiver_is_a_finding() {
    let src = "// lint: allow(lock-order)\nfn f(&self) -> usize { self.inner.lock().len() }\n";
    let report = lint_fixture(CORE, src);
    // The broken waiver is reported AND fails to suppress the lock.
    assert_eq!(rule_findings(&report, "bad-waiver").len(), 1);
    assert_eq!(rule_findings(&report, "lock-order").len(), 1);
}

#[test]
fn a_waiver_for_a_moved_rule_names_its_replacement() {
    for (rule, replacement) in [
        ("no-bare-panic", "clippy's `unwrap_used`"),
        ("one-clock", "clippy's `disallowed_methods`"),
        ("due-gating", "rustc's exhaustiveness check"),
        ("ordering-audit", "`deceit_sim::atomic`"),
    ] {
        let src = format!("// lint: allow({rule}): an old excuse\nfn f() -> u32 {{ 1 }}\n");
        let report = lint_fixture(CORE, &src);
        let hits = rule_findings(&report, "bad-waiver");
        assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
        assert!(hits[0].message.contains(replacement), "{}", hits[0].message);
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
