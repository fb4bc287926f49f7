//! The repo lints itself clean: `cargo test` fails the moment a raw leaf
//! lock or a non-leaf slot closure in `core`, a mutate-before-revoke, or
//! an unused waiver lands — without waiting for the CI lint job.

use std::path::Path;

#[test]
fn repo_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = lint::collect_sources(&root).expect("read workspace sources");
    assert!(sources.len() > 100, "walker found only {} files — scan set broke", sources.len());
    let report = lint::lint_sources(&sources);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "deceit-lint found {} violation(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
    // The waivers written for this repo are load-bearing: if one stops
    // matching, the unused-waiver rule turns it into a finding above,
    // and this floor catches a waiver-parsing regression that silently
    // drops them all.
    assert!(report.waivers_honored >= 1, "only {} waivers honored", report.waivers_honored);
}
