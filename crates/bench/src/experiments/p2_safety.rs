//! P2 — §4's write safety level: latency vs durability.
//!
//! "A value of 0 produces asynchronous unsafe writes; a value greater
//! than or equal to the number of available replicas produces slow and
//! fully synchronous writes."

use deceit::prelude::*;

use crate::table::Table;

/// Measured safety point.
#[derive(Debug, Clone, Copy)]
pub struct SafetyPoint {
    /// The write safety level s.
    pub safety: usize,
    /// Mean write latency (microseconds).
    pub latency_us: f64,
    /// Out of `trials` crash-right-after-write probes, how many updates
    /// survived.
    pub survived: usize,
    /// Crash probes run.
    pub trials: usize,
}

/// Measures one safety level on a 3-replica file.
pub fn measure(safety: usize, writes: usize, trials: usize) -> SafetyPoint {
    // Latency measurement.
    let mut fs = fixture(safety, 7);
    let f = file_of(&mut fs);
    let mut total = SimDuration::ZERO;
    for i in 0..writes {
        total += fs.write(NodeId(0), f, 0, format!("w{i}").as_bytes()).unwrap().latency;
    }

    // Durability probes: write, then a site-wide power failure (every
    // server crashes before any write-behind work runs), recover all,
    // check whether the update survived. Exactly `s` replicas had written
    // through when the write returned.
    let mut survived = 0;
    for seed in 0..trials {
        let mut fs = fixture(safety, 100 + seed as u64);
        let f = file_of(&mut fs);
        let body = format!("probe-{seed}").into_bytes();
        fs.write(NodeId(0), f, 0, &body).unwrap();
        for s in fs.cluster.server_ids() {
            fs.cluster.crash_server(s);
        }
        for s in fs.cluster.server_ids() {
            fs.cluster.recover_server(s);
        }
        fs.cluster.run_until_quiet();
        let read = fs.read(NodeId(1), f, 0, 1 << 12).unwrap().value;
        if read.len() >= body.len() && read[..body.len()] == body[..] {
            survived += 1;
        }
    }
    SafetyPoint { safety, latency_us: total.as_micros() as f64 / writes as f64, survived, trials }
}

fn fixture(safety: usize, seed: u64) -> DeceitFs {
    let mut fs = DeceitFs::new(3, ClusterConfig::default().with_seed(seed), FsConfig::default());
    let root = fs.root();
    let f = fs.create(NodeId(0), root, "subject", 0o644).unwrap().value;
    fs.set_file_params(
        NodeId(0),
        f.handle,
        FileParams {
            min_replicas: 3,
            write_safety: safety,
            stability: false,
            ..FileParams::default()
        },
    )
    .unwrap();
    fs.write(NodeId(0), f.handle, 0, b"durable-base").unwrap();
    fs.cluster.run_until_quiet();
    fs
}

fn file_of(fs: &mut DeceitFs) -> FileHandle {
    let root = fs.root();
    fs.lookup(NodeId(0), root, "subject").unwrap().value.handle
}

/// The safety sweep s ∈ {0, 1, 2, 3}.
pub fn run() -> (Table, Vec<SafetyPoint>) {
    let pts: Vec<SafetyPoint> = (0..=3).map(|s| measure(s, 20, 8)).collect();
    let mut t = Table::new(
        "P2 — write safety level: latency vs durability (3 replicas)",
        &["safety s", "write latency (us)", "updates surviving holder crash"],
    );
    for p in &pts {
        t.row(&[
            p.safety.to_string(),
            format!("{:.0}", p.latency_us),
            format!("{}/{}", p.survived, p.trials),
        ]);
    }
    (t, pts)
}

#[cfg(test)]
mod tests {
    #[test]
    fn latency_rises_and_loss_disappears_with_safety() {
        let (_, pts) = super::run();
        // Latency is monotone-ish in s, with s=0 clearly cheapest and the
        // fully synchronous level clearly most expensive.
        assert!(pts[0].latency_us < pts[1].latency_us);
        assert!(pts[1].latency_us < pts[3].latency_us);
        // s=0 loses updates to a site-wide power failure; s≥1 has at
        // least one durable copy when the write returns.
        assert!(pts[0].survived < pts[0].trials, "unsafe writes must be lossy");
        assert_eq!(pts[1].survived, pts[1].trials, "s=1 durable at the primary");
        assert_eq!(pts[2].survived, pts[2].trials);
        assert_eq!(pts[3].survived, pts[3].trials);
    }
}
