//! `compile-fail-codes`: compiles every `compile_fail` doc-test block in
//! `crates/*/src` as a standalone crate against the workspace, offline,
//! and fails unless each reports exactly the error code its fence names
//! (see `lint::compile_fail`). Run from anywhere in the workspace:
//!
//! ```text
//! cargo run -p lint --release --bin compile-fail-codes
//! ```
//!
//! The crates are generated under `target/compile-fail/`, one binary per
//! block, and built there with their own target directory. Exit 0 when
//! every block checks out, 1 when one does not, 2 when the check itself
//! could not run.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use lint::compile_fail::{cases, codes, Case};

fn main() -> ExitCode {
    let root = std::env::current_dir().ok().and_then(|cwd| lint::find_root(&cwd));
    let Some(root) = root else {
        eprintln!("compile-fail-codes: run it inside the workspace");
        return ExitCode::from(2);
    };
    match run(&root) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compile-fail-codes: {e}");
            ExitCode::from(2)
        }
    }
}

/// Checks every block; `Ok(false)` if one fails.
fn run(root: &Path) -> Result<bool, String> {
    let sources = lint::collect_sources(root).map_err(|e| format!("reading sources: {e}"))?;
    let cases = cases(&sources);
    if cases.is_empty() {
        return Err("no compile_fail block found — the scan broke".to_string());
    }
    let dir = root.join("target/compile-fail");
    write_package(root, &dir, &cases)?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut failed = 0;
    for (i, case) in cases.iter().enumerate() {
        let out = Command::new(&cargo)
            .args(["build", "--offline", "--quiet", "--color", "never", "--bin"])
            .arg(bin_name(i))
            .arg("--manifest-path")
            .arg(dir.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", dir.join("target"))
            .output()
            .map_err(|e| format!("running {cargo}: {e}"))?;
        let stderr = String::from_utf8_lossy(&out.stderr);
        let found = if out.status.success() { Vec::new() } else { codes(&stderr) };
        let at = format!("{}:{}", case.path, case.line);
        match case.verdict(&found) {
            Ok(()) => println!("ok    {at} {}", case.code.as_deref().unwrap_or_default()),
            Err(why) => {
                failed += 1;
                println!("FAIL  {at}: {why}");
                if !stderr.trim().is_empty() {
                    println!("{}", indent(&stderr));
                }
            }
        }
    }
    println!("compile-fail-codes: {} blocks, {failed} failed", cases.len());
    Ok(failed == 0)
}

/// The generated package: one binary per block, depending by path on
/// every workspace crate the block names and on the crate it is in.
fn write_package(root: &Path, dir: &Path, cases: &[Case]) -> Result<(), String> {
    let crates = workspace_crates(root)?;
    let mut deps: Vec<&(String, PathBuf)> = Vec::new();
    for case in cases {
        let home = crates.iter().find(|(_, p)| Path::new(&case.path).starts_with(rel(root, p)));
        let named = case.crates_named();
        for c in crates.iter().filter(|c| named.contains(&c.0)).chain(home) {
            if !deps.contains(&c) {
                deps.push(c);
            }
        }
    }
    let mut manifest = String::from(
        "# Generated by compile-fail-codes; rewritten on every run.\n\
         [package]\nname = \"compile-fail-cases\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         publish = false\n\n[workspace]\n\n[dependencies]\n",
    );
    for (name, path) in deps {
        let _ = writeln!(manifest, "{name} = {{ path = {:?} }}", path.display().to_string());
    }
    let bin = dir.join("src/bin");
    let _ = std::fs::remove_dir_all(&bin);
    std::fs::create_dir_all(&bin).map_err(|e| format!("creating {}: {e}", bin.display()))?;
    std::fs::write(dir.join("Cargo.toml"), manifest).map_err(|e| format!("manifest: {e}"))?;
    for (i, case) in cases.iter().enumerate() {
        let file = bin.join(format!("{}.rs", bin_name(i)));
        std::fs::write(&file, case.crate_root()).map_err(|e| format!("{}: {e}", file.display()))?;
    }
    Ok(())
}

/// `(package name, directory)` of every crate under `crates/`.
fn workspace_crates(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let entries = std::fs::read_dir(root.join("crates")).map_err(|e| format!("crates/: {e}"))?;
    let mut out = Vec::new();
    for dir in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        let name = manifest.lines().find_map(|l| {
            let v = l.strip_prefix("name")?.trim_start().strip_prefix('=')?;
            Some(v.trim().trim_matches('"').to_string())
        });
        out.extend(name.map(|n| (n, dir)));
    }
    out.sort();
    Ok(out)
}

fn rel(root: &Path, p: &Path) -> PathBuf {
    p.strip_prefix(root).unwrap_or(p).to_path_buf()
}

fn bin_name(i: usize) -> String {
    format!("case_{i:02}")
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("      {l}")).collect::<Vec<_>>().join("\n")
}
