//! CLI for `deceit-lint`. Report-only by default; `--deny` makes
//! findings fatal (exit 1) for CI and the tier-1 verify line.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: deceit-lint [--deny] [--json <path>] [--root <dir>] [--list-rules]

  --deny         exit nonzero on any finding
  --json <path>  write the machine-readable report (CI artifact)
  --root <dir>   workspace root (default: walk up from the cwd)
  --list-rules   print the rule catalog and exit";

fn main() -> ExitCode {
    let mut deny = false;
    let mut json: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--json" => match args.next() {
                Some(p) => json = Some(PathBuf::from(p)),
                None => return usage_error("--json needs a path"),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a directory"),
            },
            "--list-rules" => {
                for r in lint::rules::RULES {
                    println!("{:<16} {}", r.id, r.summary);
                    println!("{:<16}   motivation: {}", "", r.motivation);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root =
        match root.or_else(|| std::env::current_dir().ok().and_then(|cwd| lint::find_root(&cwd))) {
            Some(r) => r,
            None => {
                eprintln!("deceit-lint: could not locate the workspace root (pass --root)");
                return ExitCode::FAILURE;
            }
        };

    let sources = match lint::collect_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("deceit-lint: failed to read sources under {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    let report = lint::lint_sources(&sources);

    for f in &report.findings {
        println!("{f}");
    }
    let n = report.findings.len();
    let plural = if n == 1 { "" } else { "s" };
    println!("deceit-lint: {n} finding{plural} across {} files", report.files_scanned);

    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("deceit-lint: failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if deny && !report.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("deceit-lint: {msg}\n{USAGE}");
    ExitCode::FAILURE
}
