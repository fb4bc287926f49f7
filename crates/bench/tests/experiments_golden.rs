//! The simulator's paper numbers, gated exactly: `experiments` with no
//! argument runs every section, and its stdout must match the committed
//! `experiments.golden` byte for byte. The run is deterministic, so any
//! difference is a change to a message count, a latency or a table — a
//! change that means to move them regenerates the file and says why.

use std::process::Command;

#[test]
fn experiments_stdout_matches_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments")).output().expect("run experiments");
    assert!(out.status.success(), "experiments failed: {}", String::from_utf8_lossy(&out.stderr));
    let golden = include_str!("experiments.golden");
    let got = String::from_utf8_lossy(&out.stdout);
    if got == golden {
        return;
    }
    let (mut want, mut have) = (golden.lines(), got.lines());
    let (line, want, have) = (1..)
        .map(|i| (i, want.next(), have.next()))
        .find(|(_, want, have)| want != have)
        .map(|(i, want, have)| (i, want.unwrap_or("<end>"), have.unwrap_or("<end>")))
        .unwrap_or((0, "<line endings>", "<line endings>"));
    panic!(
        "experiments stdout differs from crates/bench/tests/experiments.golden at line {line}:\n  \
         golden: {want}\n  now:    {have}\n\
         If the change is meant, regenerate the file from the repository root with\n  \
         cargo run --release -q -p deceit_bench --bin experiments > crates/bench/tests/experiments.golden\n\
         and say in the commit which numbers moved and why."
    );
}
