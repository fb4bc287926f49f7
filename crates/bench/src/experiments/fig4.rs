//! Figure 4: update distribution within the file group — and §3.2's
//! scalability claim: "only the size of f's file group affects the speed
//! of updates to f."

use deceit::prelude::*;

use crate::table::Table;

/// One measured sweep point.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// File-group size (replica count).
    pub group: usize,
    /// Total servers in the cell.
    pub cell: usize,
    /// Update messages per write (requests + replies on the wire).
    pub messages_per_update: f64,
    /// Mean client-visible write latency in microseconds.
    pub latency_us: f64,
}

/// Measures a stream of small updates at a given (cell size, replica
/// level) point.
pub fn measure(cell: usize, replicas: usize, writes: usize) -> SweepPoint {
    let mut fs = DeceitFs::new(cell, ClusterConfig::default().with_seed(44), FsConfig::default());
    let root = fs.root();
    let f = fs.create(NodeId(0), root, "target", 0o644).unwrap().value;
    fs.set_file_params(
        NodeId(0),
        f.handle,
        FileParams { min_replicas: replicas, stability: false, ..FileParams::default() },
    )
    .unwrap();
    fs.write(NodeId(0), f.handle, 0, b"warm").unwrap();
    fs.cluster.run_until_quiet();

    let msgs_before = fs.cluster.net.stats().tag_count("update");
    let mut total = SimDuration::ZERO;
    for i in 0..writes {
        let r = fs.write(NodeId(0), f.handle, 0, format!("w{i}").as_bytes()).unwrap();
        total += r.latency;
    }
    let msgs = fs.cluster.net.stats().tag_count("update") - msgs_before;
    SweepPoint {
        group: replicas,
        cell,
        messages_per_update: msgs as f64 / writes as f64,
        latency_us: total.as_micros() as f64 / writes as f64,
    }
}

/// The two sweeps: group size at fixed cell, cell size at fixed group.
pub fn run() -> (Table, Vec<SweepPoint>, Vec<SweepPoint>) {
    let writes = 30;
    let group_sweep: Vec<SweepPoint> =
        [1usize, 2, 3, 4, 6, 8].iter().map(|&r| measure(12, r, writes)).collect();
    let cell_sweep: Vec<SweepPoint> =
        [4usize, 8, 12, 16, 24, 32].iter().map(|&n| measure(n, 3, writes)).collect();

    let mut t = Table::new(
        "Figure 4 — update distribution: cost follows the file group, not the cell",
        &["sweep", "cell N", "group r", "msgs/update", "write latency (us)"],
    );
    for p in &group_sweep {
        t.row(&[
            "group size".to_string(),
            p.cell.to_string(),
            p.group.to_string(),
            format!("{:.1}", p.messages_per_update),
            format!("{:.0}", p.latency_us),
        ]);
    }
    for p in &cell_sweep {
        t.row(&[
            "cell size".to_string(),
            p.cell.to_string(),
            p.group.to_string(),
            format!("{:.1}", p.messages_per_update),
            format!("{:.0}", p.latency_us),
        ]);
    }
    (t, group_sweep, cell_sweep)
}

#[cfg(test)]
mod tests {
    #[test]
    fn update_cost_tracks_group_not_cell() {
        let (_, group, cell) = super::run();
        // Messages grow with the group size…
        assert!(
            group.last().unwrap().messages_per_update
                > group.first().unwrap().messages_per_update + 5.0
        );
        // …and are flat across cell sizes.
        let m0 = cell.first().unwrap().messages_per_update;
        for p in &cell {
            assert!((p.messages_per_update - m0).abs() < 0.5, "cell sweep not flat");
        }
    }
}
