//! Experiment harness for the Deceit reproduction.
//!
//! The paper publishes no performance tables ("Performance measures would
//! be premature at this stage of our effort", §7); its evaluation
//! artifacts are Figures 1–8, Table 1, the §6 scenarios, and a set of
//! quantitative claims made in prose. This crate regenerates every one of
//! them on the deterministic simulator:
//!
//! * [`workload`] — generators for the §2.3 operational assumptions
//!   (small files, bursty whole-file access, directory locality, the
//!   getattr/lookup/read/write-dominated op mix).
//! * [`table`] — fixed-width table rendering for harness output.
//! * [`experiments`] — one module per figure/table/claim; each exposes a
//!   `run(…)` returning printable rows, which the `experiments` binary
//!   prints (`experiments [name…]`, every section by default).
//!
//! Live speed is measured by the benchmark of record in `benchmark/`
//! (`BENCHMARK.json`), not here.

pub mod experiments;
pub mod table;
pub mod workload;
