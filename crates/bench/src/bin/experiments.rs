//! Regenerates the paper's evaluation artifacts (Figures 1–8, Table 1,
//! and the quantitative claims P1–P8) on the deterministic simulator.
//!
//! ```text
//! experiments [name…]
//! ```
//!
//! With no argument, prints every section in [`SECTIONS`] order; with
//! names, prints those sections in the order given. An unknown name
//! prints the list of sections and exits 2.
//!
//! Run: `cargo run --release -p deceit_bench --bin experiments -- fig1`
use std::process::ExitCode;

use deceit_bench::experiments as ex;

/// Every section, by its `experiments` module name, in print order.
const SECTIONS: &[(&str, fn())] = &[
    ("fig1", || {
        let (before, after) = ex::fig1::run();
        before.print();
        after.print();
    }),
    ("fig2", || ex::fig2::run().0.print()),
    ("fig3", || ex::fig3::run().print()),
    ("fig4", || ex::fig4::run().0.print()),
    ("fig5", || ex::fig5::run().0.print()),
    ("fig7", || {
        let (t, total) = ex::fig7::run();
        t.print();
        assert_eq!(total, 9);
    }),
    ("fig8", || ex::fig8::run().0.print()),
    ("table1", || ex::table1::run().0.print()),
    ("p1_rounds", || ex::p1_rounds::run().0.print()),
    ("p2_safety", || ex::p2_safety::run().0.print()),
    ("p3_replicas", || ex::p3_replicas::run().0.print()),
    ("p4_stability", || ex::p4_stability::run().0.print()),
    ("p5_partition", || ex::p5_partition::run().0.print()),
    ("p6_migration", || ex::p6_migration::run().0.print()),
    ("p7_token_opts", || ex::p7_token_opts::run().0.print()),
    ("p8_hot_files", || ex::p8_hot_files::run().0.print()),
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut picked: Vec<fn()> = Vec::new();
    for name in &names {
        match SECTIONS.iter().find(|(n, _)| n == name) {
            Some(&(_, run)) => picked.push(run),
            None => {
                eprintln!("experiments: unknown section `{name}`; the sections are:");
                for (n, _) in SECTIONS {
                    eprintln!("  {n}");
                }
                return ExitCode::from(2);
            }
        }
    }
    if names.is_empty() {
        picked = SECTIONS.iter().map(|&(_, run)| run).collect();
    }
    for run in picked {
        run();
    }
    ExitCode::SUCCESS
}
