//! Consistency-audit storm driver: run a seeded fault storm, record the
//! operation history, audit it offline, and exit nonzero on violation.
//!
//! This is the repro binary named by every storm failure report — the
//! printed replay line is a literal invocation of this tool. It is also
//! the CI entry point: one invocation audits a run of seeds
//! (`--seed 1 --count 25`), so randomized storms run in every build.
//!
//! ```text
//! audit_storm [--seed N] [--count K] [--mode sim|live]
//!             [--servers N] [--files N] [--readers N] [--writes N]
//!             [--faults N] [--safety N] [--floor N]
//!             [--mutate] [--out PATH]
//! ```
//!
//! Every run starts from `StormConfig::quick(seed)`; the shape flags
//! override its fields. `--mode sim` (default) replays deterministically
//! per seed; `--mode live` races real threads. `--count K` audits seeds
//! `N..N+K`, stopping at the first failure. `--mutate` flips the
//! `danger_skip_safety_currency` knob — the planted protocol bug the
//! auditor must catch (expect a red exit). On failure the merged
//! history is written to `--out` (default `audit_history.json`), and the
//! rendered failure — verdict, shrunk config, replay command and flight
//! ring — to the same path with `.txt` appended, for artifact upload.
//! Any other argument, or a flag without a well-formed value, prints the
//! usage and exits 2.

use std::process::ExitCode;
use std::str::FromStr;

use deceit::runtime::nemesis::audit_storm;
use deceit::runtime::{RuntimeConfig, StormConfig};

const USAGE: &str = "usage: audit_storm [--seed N] [--count K] [--mode sim|live] [--servers N] \
                     [--files N] [--readers N] [--writes N] [--faults N] [--safety N] \
                     [--floor N] [--mutate] [--out PATH]";

/// One invocation, as parsed from the command line.
struct Run {
    cfg: StormConfig,
    count: u64,
    live: bool,
    mutate: bool,
    out: String,
}

fn value(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String> {
    let v = value(flag, args)?;
    v.parse().map_err(|_| format!("{flag} wants a number, got {v:?}"))
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Run, String> {
    let mut run = Run {
        cfg: StormConfig::quick(1),
        count: 1,
        live: false,
        mutate: false,
        out: "audit_history.json".to_string(),
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => run.cfg.seed = number(&flag, &mut args)?,
            "--count" => run.count = number(&flag, &mut args)?,
            "--servers" => run.cfg.servers = number(&flag, &mut args)?,
            "--files" => run.cfg.files = number(&flag, &mut args)?,
            "--readers" => run.cfg.readers = number(&flag, &mut args)?,
            "--writes" => run.cfg.writes_per_file = number(&flag, &mut args)?,
            "--faults" => run.cfg.faults = number(&flag, &mut args)?,
            "--safety" => run.cfg.write_safety = number(&flag, &mut args)?,
            "--floor" => run.cfg.min_replicas = number(&flag, &mut args)?,
            "--mode" => {
                run.live = match value(&flag, &mut args)?.as_str() {
                    "sim" => false,
                    "live" => true,
                    other => return Err(format!("--mode wants sim|live, got {other:?}")),
                }
            }
            "--mutate" => run.mutate = true,
            "--out" => run.out = value(&flag, &mut args)?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(run)
}

fn main() -> ExitCode {
    let Run { mut cfg, count, live, mutate, out } = match parse(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(msg) => {
            eprintln!("audit_storm: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut rcfg = RuntimeConfig::new(cfg.servers);
    if mutate {
        eprintln!("audit_storm: MUTATION ON — safety-lane currency check disabled");
        rcfg.cluster.danger_skip_safety_currency = true;
    }

    let first = cfg.seed;
    for s in first..first.saturating_add(count) {
        cfg.seed = s;
        let mode = if live { "live" } else { "sim" };
        match audit_storm(&cfg, &rcfg, live) {
            Err(e) => {
                eprintln!("seed {s} ({mode}): the storm could not run: {e}");
                return ExitCode::FAILURE;
            }
            Ok(Ok(report)) => {
                println!(
                    "seed {s} ({mode}): GREEN — {} acked writes, {} checked reads, {} faults",
                    report.writes_acked, report.reads_checked, report.faults_seen
                );
            }
            Ok(Err(failure)) => {
                let rendered = failure.render();
                eprintln!("seed {s} ({mode}): RED\n{rendered}");
                let report = format!("{out}.txt");
                for (path, body) in [(&out, failure.history.to_json()), (&report, rendered)] {
                    match std::fs::write(path, body) {
                        Ok(()) => eprintln!("audit_storm: failure written to {path}"),
                        Err(e) => eprintln!("audit_storm: could not write {path}: {e}"),
                    }
                }
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
