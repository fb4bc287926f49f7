//! P3 — §1/§3's replication trade-off: "data replication reduces the
//! probability that the file will become unavailable for reading, but
//! file updates become more expensive."

use deceit::prelude::*;
use deceit_sim::SimRng;

use crate::table::Table;

/// Measured replication point.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaPoint {
    /// Minimum replica level r.
    pub replicas: usize,
    /// Mean write latency (us).
    pub write_us: f64,
    /// Read availability with 2 of 8 servers crashed (fraction of probes
    /// that succeeded).
    pub availability: f64,
}

/// Measures one replica level on an 8-server cell with 2 random crashes.
pub fn measure(replicas: usize, probes: usize) -> ReplicaPoint {
    let servers = 8;
    // Write cost.
    let mut fs = DeceitFs::new(servers, ClusterConfig::default().with_seed(3), FsConfig::default());
    let root = fs.root();
    let f = fs.create(NodeId(0), root, "f", 0o644).unwrap().value;
    fs.set_file_params(
        NodeId(0),
        f.handle,
        FileParams {
            min_replicas: replicas,
            write_safety: replicas, // fully synchronous: pay the whole cost
            stability: false,
            ..FileParams::default()
        },
    )
    .unwrap();
    fs.cluster.run_until_quiet();
    let mut total = SimDuration::ZERO;
    let writes = 15;
    for i in 0..writes {
        total += fs.write(NodeId(0), f.handle, 0, format!("w{i}").as_bytes()).unwrap().latency;
    }

    // Availability: crash 2 random servers, probe a read via a random
    // survivor, repeat.
    let mut rng = SimRng::new(31_337);
    let mut ok = 0;
    for _ in 0..probes {
        let victims = rng.sample_indices(servers, 2);
        for &v in &victims {
            fs.cluster.crash_server(NodeId(v as u32));
        }
        let survivor =
            (0..servers).find(|i| !victims.contains(i)).map(|i| NodeId(i as u32)).unwrap();
        if fs.read(survivor, f.handle, 0, 16).is_ok() {
            ok += 1;
        }
        for &v in &victims {
            fs.cluster.recover_server(NodeId(v as u32));
        }
        fs.cluster.run_until_quiet();
    }
    ReplicaPoint {
        replicas,
        write_us: total.as_micros() as f64 / writes as f64,
        availability: ok as f64 / probes as f64,
    }
}

/// The replica-level sweep r ∈ {1, 2, 3, 4, 5}.
pub fn run() -> (Table, Vec<ReplicaPoint>) {
    let pts: Vec<ReplicaPoint> = (1..=5).map(|r| measure(r, 12)).collect();
    let mut t = Table::new(
        "P3 — replica level: read availability (2/8 servers down) vs write cost",
        &["replicas r", "write latency (us, fully sync)", "read availability"],
    );
    for p in &pts {
        t.row(&[
            p.replicas.to_string(),
            format!("{:.0}", p.write_us),
            format!("{:.0}%", p.availability * 100.0),
        ]);
    }
    (t, pts)
}

#[cfg(test)]
mod tests {
    #[test]
    fn availability_up_write_cost_up() {
        let (_, pts) = super::run();
        assert!(pts[0].availability < 1.0, "1 replica must sometimes be unavailable");
        assert!(pts.last().unwrap().availability >= 0.99, "3+ replicas survive any 2 crashes");
        assert!(
            pts.last().unwrap().write_us > pts[0].write_us,
            "updates become more expensive with replication"
        );
        // r=3 is already fully available against 2 crashes.
        assert!((pts[2].availability - 1.0).abs() < 1e-9);
    }
}
