//! P6 — §3.1's migration claim: "In this manner, file migration is
//! achieved with the replication mechanism. Each client slowly gathers
//! its working set of files to the server to which it has connected."

use deceit::prelude::*;
use deceit_sim::SimRng;

use crate::table::Table;
use crate::workload;

/// One epoch of the migration curve.
#[derive(Debug, Clone, Copy)]
pub struct MigrationEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Fraction of reads served by a remote server (forwarded).
    pub remote_fraction: f64,
    /// Mean read latency in the epoch (us).
    pub read_us: f64,
}

/// A client works a fixed file set through one server; files start on
/// other servers and migrate toward it epoch by epoch.
pub fn run_with(migration: bool) -> Vec<MigrationEpoch> {
    let mut fs = DeceitFs::new(4, ClusterConfig::default().with_seed(6), FsConfig::default());
    let mut rng = SimRng::new(6);
    let params = FileParams { migration, ..FileParams::default() };
    // Corpus created round-robin across servers 0..3; the client uses
    // server 3 only.
    let corpus = workload::build_corpus(&mut fs, &mut rng, 3, 16, params);
    let client_server = NodeId(3);

    let mut epochs = Vec::new();
    for epoch in 0..6 {
        let before_local = fs.cluster.obs.count(Stat::ReadsLocal);
        let before_remote = fs.cluster.obs.count(Stat::ReadsForwarded)
            + fs.cluster.obs.count(Stat::ReadsForwardedUnstable);
        let mut total = SimDuration::ZERO;
        let mut n = 0;
        for (fh, _) in &corpus.files {
            let r = fs.read(client_server, *fh, 0, usize::MAX / 2).unwrap();
            total += r.latency;
            n += 1;
        }
        fs.cluster.run_until_quiet(); // background replica generation
        let local = fs.cluster.obs.count(Stat::ReadsLocal) - before_local;
        let remote = fs.cluster.obs.count(Stat::ReadsForwarded)
            + fs.cluster.obs.count(Stat::ReadsForwardedUnstable)
            - before_remote;
        epochs.push(MigrationEpoch {
            epoch,
            remote_fraction: remote as f64 / (local + remote).max(1) as f64,
            read_us: total.as_micros() as f64 / n as f64,
        });
    }
    epochs
}

/// Migration on vs off.
pub fn run() -> (Table, Vec<MigrationEpoch>, Vec<MigrationEpoch>) {
    let on = run_with(true);
    let off = run_with(false);
    let mut t = Table::new(
        "P6 — working set gathers to the client's server (§3.1 method 4)",
        &[
            "epoch",
            "remote reads (migration on)",
            "read us (on)",
            "remote reads (off)",
            "read us (off)",
        ],
    );
    for (a, b) in on.iter().zip(&off) {
        t.row(&[
            a.epoch.to_string(),
            format!("{:.0}%", a.remote_fraction * 100.0),
            format!("{:.0}", a.read_us),
            format!("{:.0}%", b.remote_fraction * 100.0),
            format!("{:.0}", b.read_us),
        ]);
    }
    (t, on, off)
}

#[cfg(test)]
mod tests {
    #[test]
    fn working_set_migrates_only_when_enabled() {
        let (_, on, off) = super::run();
        // With migration: epoch 0 mostly remote, later epochs all local.
        assert!(on[0].remote_fraction > 0.5, "{:?}", on[0]);
        assert_eq!(on.last().unwrap().remote_fraction, 0.0);
        assert!(on.last().unwrap().read_us < on[0].read_us / 2.0);
        // Without: the remote fraction never drops.
        assert!(off.last().unwrap().remote_fraction > 0.5, "{:?}", off.last());
    }
}
