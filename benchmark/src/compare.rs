//! `benchmark compare A.jsonl B.jsonl`: is B worse than A?
//!
//! Each file holds the records `--out` appended — one run or many, any
//! mix of workloads and seeds. A is the parent, B the change (or a
//! second set of runs of the same commit, for the benchmark's own
//! repeatability check). Every end-to-end metric × workload gets one
//! verdict against the bound `BENCHMARK.json` fixes for it; the two
//! simulator counts must be *equal*, seed by seed.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{iqr_share, median};
use crate::Contract;

/// Per-layer metrics that are exact counts: same commit, same seed,
/// same number — to the last digit.
const EXACT: [&str; 2] = ["core.sim_msgs_per_op", "core.sim_latency_us"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs scatter more widely than the bound, so "no worse than
    /// the bound" cannot be told from them.
    Unresolved,
}

/// One metric of one workload on one side: its value in every run, and
/// the per-repetition values of the first run (the only spread there is
/// when a side has a single run).
#[derive(Debug, Default, Clone)]
struct Side {
    runs: Vec<f64>,
    reps: Vec<f64>,
}

impl Side {
    fn spread(&self) -> Option<f64> {
        iqr_share(if self.runs.len() > 1 { &self.runs } else { &self.reps })
    }
}

/// The rule of the guide, for one metric × workload.
fn judge(a: &Side, b: &Side, lower_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(&a.runs), median(&b.runs));
    let worse_by = if lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
    let spread = a.spread().unwrap_or(0.0).max(b.spread().unwrap_or(0.0));
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all = |pred: &dyn Fn(f64, f64) -> bool| {
        b.runs.iter().all(|&y| a.runs.iter().all(|&x| pred(y, x)))
    };
    let verdict = if spread <= bound {
        if worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        }
    } else if all(&better) {
        Verdict::Ok
    } else if worse_by > bound && all(&|y, x| better(x, y)) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    };
    (verdict, worse_by, spread)
}

struct RunSet {
    /// `(workload, metric)` → values, from `--trace 0` records.
    end_to_end: BTreeMap<(String, String), Side>,
    /// `(workload, seed, metric)` → value, from `--trace 1` records.
    exact: BTreeMap<(String, u64, String), f64>,
    failed_ops: u64,
    quick: bool,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set =
        RunSet { end_to_end: BTreeMap::new(), exact: BTreeMap::new(), failed_ops: 0, quick: false };
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = |what: &str| format!("{path}:{}: {what}", n + 1);
        let rec = Json::parse(line).map_err(|e| at(&e))?;
        let workload =
            rec.get("workload").and_then(Json::as_str).ok_or_else(|| at("no `workload`"))?;
        let seed = rec.get("seed").and_then(Json::as_f64).ok_or_else(|| at("no `seed`"))? as u64;
        let traced = rec.get("trace").and_then(Json::as_f64) == Some(1.0);
        set.failed_ops += rec.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        set.quick |= rec.get("quick") == Some(&Json::Bool(true));
        for (name, m) in
            rec.get("metrics").and_then(Json::as_obj).ok_or_else(|| at("no `metrics`"))?
        {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("metric without `value`"))?;
            if traced {
                if EXACT.contains(&name.as_str()) {
                    set.exact.insert((workload.to_owned(), seed, name.clone()), value);
                }
                continue;
            }
            let side = set.end_to_end.entry((workload.to_owned(), name.clone())).or_default();
            if side.runs.is_empty() {
                side.reps = m
                    .get("reps")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
            }
            side.runs.push(value);
        }
    }
    Ok(set)
}

/// Prints one verdict per metric × workload; `Ok(false)` if anything
/// regressed or any run had failed operations.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let contract = Contract::load()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut clean = true;
    if a.quick || b.quick {
        println!("WARNING: --quick records present; their numbers are not comparable");
    }
    println!(
        "{:<11} {:<22} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for ((workload, metric), side_a) in &a.end_to_end {
        let Some(side_b) = b.end_to_end.get(&(workload.clone(), metric.clone())) else { continue };
        let Some((_, _, lower, bound)) = contract.end_to_end.iter().find(|(n, ..)| n == metric)
        else {
            continue;
        };
        let (verdict, worse_by, spread) = judge(side_a, side_b, *lower, *bound);
        clean &= verdict != Verdict::Regressed;
        println!(
            "{workload:<11} {metric:<22} {:>14.4} {:>14.4} {:>+8.1}% {:>7.1}% {:>5.0}%  {}",
            median(&side_a.runs),
            median(&side_b.runs),
            worse_by * 100.0,
            spread * 100.0,
            bound * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            },
        );
    }
    for (key @ (workload, seed, metric), va) in &a.exact {
        let Some(vb) = b.exact.get(key) else { continue };
        clean &= va == vb;
        let verdict = if va == vb { "ok" } else { "DIFFERS" };
        println!(
            "{workload:<11} {metric:<22} seed {seed:<4} A {va} B {vb}  {verdict} (exact count)"
        );
    }
    for (name, set) in [("A", &a), ("B", &b)] {
        if set.failed_ops > 0 {
            clean = false;
            println!("{name}: {} operations failed — its timings do not count", set.failed_ops);
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(runs: &[f64]) -> Side {
        Side { runs: runs.to_vec(), reps: Vec::new() }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // Lower is better, bound 10 %.
        let v = |b: &Side| judge(&steady, b, true, 0.10).0;
        assert_eq!(
            v(&side(&[104.0, 105.0, 103.0, 104.5, 105.5])),
            Verdict::Ok,
            "5 % worse, inside the bound"
        );
        assert_eq!(
            v(&side(&[114.0, 115.0, 113.0, 114.5, 115.5])),
            Verdict::Regressed,
            "15 % worse"
        );
        assert_eq!(
            v(&side(&[80.0, 81.0, 79.0, 80.5, 79.5])),
            Verdict::Ok,
            "an improvement is not a regression"
        );
        // Scatter wider than the bound: cannot tell.
        assert_eq!(v(&side(&[90.0, 130.0, 70.0, 100.0, 115.0])), Verdict::Unresolved);
        // ... unless every run of B beats every run of A,
        assert_eq!(v(&side(&[50.0, 90.0, 60.0, 80.0, 70.0])), Verdict::Ok);
        // ... or every run of B loses to every run of A by more than the bound.
        assert_eq!(v(&side(&[150.0, 190.0, 160.0, 250.0, 170.0])), Verdict::Regressed);
        // Higher is better flips the direction.
        assert_eq!(
            judge(&steady, &side(&[85.0, 86.0, 84.0, 85.5, 84.5]), false, 0.10).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&steady, &side(&[115.0, 116.0, 114.0]), false, 0.10).0, Verdict::Ok);
    }

    #[test]
    fn a_single_run_borrows_its_spread_from_its_repetitions() {
        let calm = Side { runs: vec![100.0], reps: vec![99.0, 100.0, 101.0, 100.0, 100.5] };
        let wild = Side { runs: vec![104.0], reps: vec![60.0, 104.0, 150.0, 90.0, 130.0] };
        assert_eq!(judge(&calm, &calm, true, 0.10).0, Verdict::Ok);
        assert_eq!(judge(&calm, &wild, true, 0.10).0, Verdict::Unresolved);
    }
}
