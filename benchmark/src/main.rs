//! The benchmark of record for the live Deceit cell.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there). One
//! run = one workload in one mode: `--trace 0` measures the end-to-end
//! metrics on the stock cell, `--trace 1` hosts the engine behind a
//! timing wrapper and reports the per-layer metrics. Without
//! `--workload` every workload runs; without `--trace` both modes do.
//! Each run prints its metrics by name and ends with one JSON line.
//! See `README.md` beside this crate for what the numbers mean.

mod affinity;
mod compare;
mod gen;
mod json;
mod layers;
mod loadgen;
mod probe;
mod reference;
mod run;
mod stats;
mod trace;
mod workload;

use std::io::Write as _;
use std::process::ExitCode;

use json::Json;
use run::{Outcome, Plan};
use workload::{Spec, SESSIONS, SPECS};

/// The metric lists, bounds and run length of `BENCHMARK.json`.
pub struct Contract {
    pub run_seconds: f64,
    /// `(name, unit, lower_is_better, bound)`.
    pub end_to_end: Vec<(String, String, bool, f64)>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
    pub workloads: Vec<String>,
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
        let doc = Json::parse(&text)?;
        let list = |key: &str| {
            doc.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json: no `{key}` list"))
        };
        let text_of = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("BENCHMARK.json: metric without `{key}`"))
        };
        let mut end_to_end = Vec::new();
        for m in list("end_to_end")? {
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: metric without `bound`")?;
            end_to_end.push((
                text_of(m, "name")?,
                text_of(m, "unit")?,
                text_of(m, "better")? == "lower",
                bound,
            ));
        }
        let mut per_layer = Vec::new();
        for m in list("per_layer")? {
            per_layer.push((text_of(m, "name")?, text_of(m, "unit")?));
        }
        let workloads =
            list("workloads")?.iter().map(|w| text_of(w, "name")).collect::<Result<_, _>>()?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no `run_seconds`")?;
        Ok(Contract { run_seconds, end_to_end, per_layer, workloads })
    }

    /// A run must report exactly the metrics the contract names for its
    /// mode, in the contract's units — so the file and the code cannot
    /// drift apart unnoticed.
    fn check(&self, trace: bool, out: &Outcome) -> Result<(), String> {
        let want: Vec<(&str, &str)> = if trace {
            self.per_layer.iter().map(|(n, u)| (n.as_str(), u.as_str())).collect()
        } else {
            self.end_to_end.iter().map(|(n, u, ..)| (n.as_str(), u.as_str())).collect()
        };
        let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        for w in &want {
            if !got.contains(w) {
                return Err(format!(
                    "BENCHMARK.json names `{}` [{}], which this run did not report",
                    w.0, w.1
                ));
            }
        }
        for g in &got {
            if !want.contains(g) {
                return Err(format!(
                    "this run reported `{}` [{}], which BENCHMARK.json does not name",
                    g.0, g.1
                ));
            }
        }
        Ok(())
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1, seconds: None, trace: None, quick: false, out: None };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The checked-out commit, abbreviated, read straight from `.git` (no
/// subprocess); "unknown" outside a git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let hash = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(name) => read(&format!(".git/{name}")).map(|h| h.trim().to_owned()).or_else(|| {
            let packed = read(".git/packed-refs")?;
            packed.lines().find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_owned()))
        }),
    };
    match hash {
        Some(h) if h.len() >= 7 && h.bytes().all(|b| b.is_ascii_hexdigit()) => h[..7].to_owned(),
        _ => "unknown".into(),
    }
}

fn print_report(spec: &Spec, trace: bool, gated: bool, out: &Outcome) {
    println!(
        "-- {} · {}{} --",
        spec.name,
        if trace { "per-layer (traced run + probes)" } else { "end-to-end (untraced)" },
        if gated { "" } else { " · diagnostic workload, not in BENCHMARK.json" }
    );
    for m in &out.metrics {
        let spread = match stats::iqr_share(&m.reps) {
            Some(s) => format!("  IQR {:.1}% of median over {} reps", s * 100.0, m.reps.len()),
            None => String::new(),
        };
        println!("{:<34} {:>16.4} {:<6}{spread}", m.name, m.value, m.unit);
    }
    println!(
        "{:<34} {:>16.6} ratio   ({} failed of {} attempted)",
        "fail_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for note in &out.notes {
        println!("   {note}");
    }
    for f in out.failures.iter().take(8) {
        println!("   FAILED: {f}");
    }
}

/// The contract's result line, the last line of a run's output; with
/// `reps`, each metric also carries its per-repetition values.
fn result_line(out: &Outcome, reps: bool) -> Json {
    let metric = |m: &run::Metric| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if reps {
            fields.push(("reps", Json::nums(&m.reps)));
        }
        (m.name, Json::obj(fields))
    };
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(out.metrics.iter().map(metric))),
    ])
}

/// The record `--out` appends and `compare` reads: what was run, on
/// what, then the result line with repetitions.
fn result_record(
    spec: &Spec,
    args: &Args,
    plan: &Plan,
    trace: bool,
    build: (&str, usize),
    out: &Outcome,
) -> Json {
    let mut fields = vec![
        ("workload".to_owned(), Json::str(spec.name)),
        ("seed".to_owned(), Json::Num(args.seed as f64)),
        ("seconds".to_owned(), Json::Num(plan.seconds)),
        ("trace".to_owned(), Json::Num(f64::from(u8::from(trace)))),
        ("quick".to_owned(), Json::Bool(plan.quick)),
        ("commit".to_owned(), Json::str(build.0)),
        ("nproc".to_owned(), Json::Num(build.1 as f64)),
        ("sessions".to_owned(), Json::Num(SESSIONS as f64)),
    ];
    if let Json::Obj(result) = result_line(out, true) {
        fields.extend(result);
    }
    Json::Obj(fields)
}

fn run(args: &Args) -> Result<bool, String> {
    let contract = Contract::load()?;
    let specs: Vec<&Spec> = match &args.workload {
        Some(name) => vec![workload::spec_named(name).ok_or_else(|| {
            format!("no workload `{name}`; there are: {}", SPECS.map(|s| s.name).join(", "))
        })?],
        None => SPECS.iter().collect(),
    };
    if let Some(unknown) = contract.workloads.iter().find(|w| workload::spec_named(w).is_none()) {
        return Err(format!("BENCHMARK.json names a workload `{unknown}` the benchmark lacks"));
    }
    let modes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let seconds = args.seconds.unwrap_or(if args.quick { 1.2 } else { contract.run_seconds });
    let plan = Plan::new(seconds, args.quick);
    let commit = commit();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = match affinity::pin_to_one_cpu() {
        Ok(cpu) => format!("pinned to CPU {cpu}"),
        Err(why) => format!("NOT pinned ({why}): expect bimodal figures"),
    };

    println!(
        "deceit benchmark · commit {commit} · nproc {nproc}, {cpu} · {SESSIONS} sessions on 3 servers · seed {} · {seconds} s per run",
        args.seed
    );
    println!(
        "repetitions: set-up ×{}, closed loop {}×{:.2} s, solo {}×{:.2} s, interleaved; each figure is the median over its repetitions, each scaled to the host's nominal speed",
        plan.setups,
        plan.closed.0,
        plan.closed.1.as_secs_f64(),
        plan.solo.0,
        plan.solo.1.as_secs_f64(),
    );
    if plan.quick {
        println!("QUICK RUN: one or two short repetitions per phase — a smoke test, NOT comparable with full runs");
    }

    let mut all_correct = true;
    for spec in specs {
        for &trace in &modes {
            let out = if trace {
                layers::run_layers(spec, args.seed, &plan)?
            } else {
                run::run_end_to_end(spec, args.seed, &plan)?
            };
            contract.check(trace, &out)?;
            let gated = contract.workloads.iter().any(|w| w == spec.name);
            print_report(spec, trace, gated, &out);
            all_correct &= out.failed == 0;
            if let Some(path) = &args.out {
                let record = result_record(spec, args, &plan, trace, (&commit, nproc), &out);
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("{path}: {e}"))?;
                writeln!(file, "{}", record.encode()).map_err(|e| format!("{path}: {e}"))?;
            }
            println!("{}", result_line(&out, false).encode());
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        match files.as_slice() {
            [a, b] => compare::compare_files(a, b),
            _ => Err("usage: benchmark compare A.jsonl B.jsonl".into()),
        }
    } else {
        parse_args(argv).and_then(|args| run(&args))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
