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

fn rule_findings<'a>(r: &'a lint::report::LintReport, rule: &str) -> Vec<&'a Finding> {
    r.findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn no_bare_panic_fixture_fails_the_lint() {
    // A protocol module, and an NFS envelope module outside `ops_*`: the
    // whole of `crates/nfs/src/` is in scope.
    for path in ["crates/core/src/proto/fixture.rs", "crates/nfs/src/fixture.rs"] {
        let report = lint_fixture(path, include_str!("../fixtures/no_bare_panic.rs"));
        let hits = rule_findings(&report, "no-bare-panic");
        // Exactly the four planted violations: unwrap, expect, panic!,
        // unreachable!. Strings, raw strings, comments, unwrap_or*, test
        // code, and the waived call must all stay silent.
        assert_eq!(hits.len(), 4, "{path} findings: {:?}", report.findings);
        let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
        for (line, what) in [(6, "unwrap"), (10, "expect"), (16, "panic"), (23, "unreachable")] {
            assert!(lines.contains(&line), "missing planted {what} at line {line}: {lines:?}");
        }
        // The fixture's waiver suppressed the waived unwrap and is counted.
        assert_eq!(report.waivers_honored, 1);
        assert!(rule_findings(&report, "unused-waiver").is_empty());
    }
}

#[test]
fn no_bare_panic_is_scoped_to_protocol_paths() {
    // The same content outside the scoped paths produces nothing: the
    // runtime's fault-injection drivers, and any runtime file not named.
    for path in [
        "crates/runtime/src/fixture.rs",
        "crates/runtime/src/nemesis.rs",
        "crates/runtime/src/scenario.rs",
    ] {
        let report = lint_fixture(path, include_str!("../fixtures/no_bare_panic.rs"));
        assert!(rule_findings(&report, "no-bare-panic").is_empty(), "{path}");
    }
}

#[test]
fn one_clock_fixture_fails_the_lint() {
    for path in ["crates/runtime/src/fixture.rs", "crates/net/src/fixture.rs"] {
        let report = lint_fixture(path, include_str!("../fixtures/one_clock.rs"));
        let hits = rule_findings(&report, "one-clock");
        // The three planted reads; comments, strings, `wall`, test code
        // and the waived read stay silent.
        let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
        assert_eq!(lines, [8, 12, 16], "{path} findings: {:?}", report.findings);
        assert!(hits[1].message.contains("SystemTime::now"), "{}", hits[1].message);
        assert_eq!(report.waivers_honored, 1);
        assert!(rule_findings(&report, "unused-waiver").is_empty());
    }
    // The one clock itself lives outside the scoped crates.
    let report = lint_fixture("crates/sim/src/wall.rs", include_str!("../fixtures/one_clock.rs"));
    assert!(rule_findings(&report, "one-clock").is_empty());
}

#[test]
fn no_bare_panic_covers_net_and_sim() {
    for path in ["crates/net/src/fixture.rs", "crates/sim/src/fixture.rs"] {
        let report = lint_fixture(path, include_str!("../fixtures/no_bare_panic.rs"));
        assert_eq!(rule_findings(&report, "no-bare-panic").len(), 4, "{path}");
    }
}

#[test]
fn no_bare_panic_covers_core_and_the_runtimes_serving_files() {
    for path in [
        "crates/core/src/fixture.rs",
        "crates/runtime/src/runtime.rs",
        "crates/runtime/src/history.rs",
    ] {
        let report = lint_fixture(path, include_str!("../fixtures/no_bare_panic.rs"));
        assert_eq!(rule_findings(&report, "no-bare-panic").len(), 4, "{path}");
    }
}

#[test]
fn lock_order_fixture_fails_the_lint() {
    let report =
        lint_fixture("crates/runtime/src/shard.rs", include_str!("../fixtures/lock_order.rs"));
    let hits = rule_findings(&report, "lock-order");
    assert_eq!(hits.len(), 2, "findings: {:?}", report.findings);
    assert!(hits.iter().any(|f| f.line == 8 && f.message.contains("cell lock")));
    assert!(hits.iter().any(|f| f.line == 13 && f.message.contains("raw ring-lock")));
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
    let src = "impl C {\n    fn f(&self, k: K) {\n        let now = self.now();\n        self.server(k.0).replicas.update(&k, reach(self.sync), |r| {\n            r.at = now;\n            self.schedule_flush(k);\n        });\n        self.tokens.update_with(&k, |t| (t.bump(), None));\n    }\n}\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", src);
    let hits = rule_findings(&report, "lock-order");
    // `self` before the closure (the receiver, a plain argument) is fine;
    // inside it, it is the way to every other lock.
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert_eq!(hits[0].line, 6);
    assert!(hits[0].message.contains("leaf lock"));
    // hot.rs implements `update` over its own slots.
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
fn due_gating_fixture_fails_the_lint() {
    let report =
        lint_fixture("crates/core/src/event.rs", include_str!("../fixtures/due_gating.rs"));
    let hits = rule_findings(&report, "due-gating");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert!(hits[0].message.contains("Ungated"));
}

#[test]
fn due_gating_accepts_a_complete_table() {
    let src = "pub enum Pending {\n    A { x: u8 },\n    B(u8),\n}\nimpl Pending {\n    pub fn due_gated(&self) -> bool {\n        match self {\n            Pending::A { .. } => true,\n            Pending::B(_) => false,\n        }\n    }\n}\n";
    let report = lint_fixture("crates/core/src/event.rs", src);
    assert!(rule_findings(&report, "due-gating").is_empty());
}

#[test]
fn lease_discipline_fixture_fails_the_lint() {
    let report = lint_fixture(
        "crates/core/src/proto/token.rs",
        include_str!("../fixtures/lease_discipline.rs"),
    );
    let hits = rule_findings(&report, "lease-discipline");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert!(hits[0].message.contains("pass_token"));
    assert!(hits[0].message.contains("tokens.delete_sync"));
}

#[test]
fn lease_discipline_flags_a_missing_revoke() {
    let src = "impl S {\n    pub fn crash(&self) {\n        self.replicas.crash();\n    }\n}\n";
    let report = lint_fixture("crates/core/src/server.rs", src);
    let hits = rule_findings(&report, "lease-discipline");
    assert_eq!(hits.len(), 1);
    assert!(hits[0].message.contains("never revokes"));
}

#[test]
fn ordering_audit_fixture_fails_the_lint() {
    let report =
        lint_fixture("crates/core/src/cluster.rs", include_str!("../fixtures/ordering_audit.rs"));
    let hits = rule_findings(&report, "ordering-audit");
    assert_eq!(hits.len(), 3, "findings: {:?}", report.findings);
    // The direct store and load on the non-allowlisted flag…
    let store = hits.iter().find(|f| f.line == 18).expect("store finding");
    assert!(store.message.contains("ready.store"), "{}", store.message);
    assert!(store.message.contains("Flags::ready"), "{}", store.message);
    let load = hits.iter().find(|f| f.line == 23).expect("load finding");
    assert!(load.message.contains("ready.load"), "{}", load.message);
    // …and the renamed binding, which still resolves to the declaring
    // field — a rename cannot dodge a declaration-keyed audit.
    let renamed = hits.iter().find(|f| f.line == 28).expect("renamed finding");
    assert!(renamed.message.contains("Flags::ready"), "{}", renamed.message);
    // Allowlisted counter declaration and the waived flag stay silent.
    assert_eq!(report.waivers_honored, 1);
    assert!(rule_findings(&report, "unused-waiver").is_empty());
}

/// The allowlist's own file, with `entries`, beside a runtime file that
/// declares `Tally::served` and the static `NEXT`.
fn lint_allowlist(entries: &str) -> lint::report::LintReport {
    let allowlist = format!("const DECL_ALLOWLIST: &[&str] = &[\n{entries}];\n");
    let decls = "pub struct Tally {\n    served: AtomicU64,\n}\nstatic NEXT: AtomicU64 = AtomicU64::new(0);\n";
    lint_sources(&[
        ("crates/lint/src/rules.rs".to_string(), allowlist),
        ("crates/runtime/src/runtime.rs".to_string(), decls.to_string()),
    ])
}

#[test]
fn ordering_audit_flags_a_stale_allowlist_entry() {
    let report = lint_allowlist("    \"Tally::served\",\n    \"Tally::gone\",\n    \"NEXT\",\n");
    let hits = rule_findings(&report, "ordering-audit");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert_eq!((hits[0].file.as_str(), hits[0].line), ("crates/lint/src/rules.rs", 3));
    assert!(hits[0].message.contains("`Tally::gone`"), "{}", hits[0].message);
}

#[test]
fn ordering_audit_accepts_an_allowlist_that_resolves() {
    let report = lint_allowlist("    \"Tally::served\",\n    \"NEXT\",\n");
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
}

#[test]
fn interprocedural_lock_order_fixture_fails_with_a_witness_chain() {
    let report = lint_fixture(
        "crates/runtime/src/shard.rs",
        include_str!("../fixtures/lock_order_interproc.rs"),
    );
    let hits = rule_findings(&report, "lock-order");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    // Anchored at the acquisition inside `deep`, with the call chain
    // that carried the ring class down from `top`.
    assert_eq!(hits[0].line, 20);
    assert!(hits[0].message.contains("cell lock"), "{}", hits[0].message);
    assert!(hits[0].message.contains("reached via `top`"), "{}", hits[0].message);
    assert!(hits[0].message.contains("`middle`"), "{}", hits[0].message);
}

#[test]
fn ordering_audit_skips_counter_modules_and_tests() {
    let src = "fn f(flag: &AtomicBool) { flag.store(true, Ordering::Relaxed); }\n";
    // obs.rs is a counter module wholesale.
    let report = lint_fixture("crates/core/src/obs.rs", src);
    assert!(rule_findings(&report, "ordering-audit").is_empty());
    // Test code is exempt wherever it lives.
    let test_src = "#[cfg(test)]\nmod tests {\n    fn f(flag: &AtomicBool) { flag.store(true, Ordering::Relaxed); }\n}\n";
    let report = lint_fixture("crates/core/src/cluster.rs", test_src);
    assert!(rule_findings(&report, "ordering-audit").is_empty());
}

#[test]
fn feature_and_cfg_attr_gated_test_modules_are_exempt() {
    // A module compiled only under a test-harness feature is test
    // scaffolding: the production rules must not fire inside it.
    let feature_gated = "#[cfg(feature = \"sim-test\")]\nmod harness {\n    fn f(v: Option<u32>) -> u32 { v.unwrap() }\n}\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", feature_gated);
    assert!(rule_findings(&report, "no-bare-panic").is_empty(), "{:?}", report.findings);
    // Same for `cfg_attr` whose *applied* attribute is a test gate.
    let cfg_attr_gated = "#[cfg_attr(loom, cfg(test))]\nmod harness {\n    fn f(v: Option<u32>) -> u32 { v.unwrap() }\n}\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", cfg_attr_gated);
    assert!(rule_findings(&report, "no-bare-panic").is_empty(), "{:?}", report.findings);
}

#[test]
fn bogus_gates_do_not_exempt() {
    // A non-test feature gate is production code under a flag.
    let feature_gated = "#[cfg(feature = \"fast-path\")]\nmod m {\n    fn f(v: Option<u32>) -> u32 { v.unwrap() }\n}\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", feature_gated);
    assert_eq!(rule_findings(&report, "no-bare-panic").len(), 1, "{:?}", report.findings);
    // `not(test)` is the *opposite* of a test gate.
    let negated = "#[cfg(not(test))]\nmod m {\n    fn f(v: Option<u32>) -> u32 { v.unwrap() }\n}\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", negated);
    assert_eq!(rule_findings(&report, "no-bare-panic").len(), 1, "{:?}", report.findings);
    // A `cfg_attr` whose applied part is not a test gate exempts nothing.
    let cfg_attr = "#[cfg_attr(docsrs, doc(hidden))]\nmod m {\n    fn f(v: Option<u32>) -> u32 { v.unwrap() }\n}\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", cfg_attr);
    assert_eq!(rule_findings(&report, "no-bare-panic").len(), 1, "{:?}", report.findings);
}

#[test]
fn unused_waiver_is_a_finding() {
    let src = "// lint: allow(no-bare-panic): nothing here actually violates the rule\nfn fine() -> u32 { 1 }\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", src);
    let hits = rule_findings(&report, "unused-waiver");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert_eq!(report.waivers_honored, 0);
}

#[test]
fn malformed_waiver_is_a_finding() {
    let src = "// lint: allow(no-bare-panic)\nfn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    let report = lint_fixture("crates/core/src/proto/fixture.rs", src);
    // The broken waiver is reported AND fails to suppress the unwrap.
    assert_eq!(rule_findings(&report, "bad-waiver").len(), 1);
    assert_eq!(rule_findings(&report, "no-bare-panic").len(), 1);
}

#[test]
fn deny_semantics_fixtures_are_nonzero_findings() {
    // What `--deny` keys on: a planted violation leaves findings
    // non-empty, a clean file leaves them empty.
    let dirty = lint_fixture(
        "crates/core/src/proto/fixture.rs",
        include_str!("../fixtures/no_bare_panic.rs"),
    );
    assert!(!dirty.findings.is_empty());
    let clean = lint_fixture("crates/core/src/proto/fixture.rs", "fn ok() -> u32 { 1 }\n");
    assert!(clean.findings.is_empty());
}
