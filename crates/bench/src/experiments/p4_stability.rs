//! P4 — §3.4's stability-notification overhead: "Overhead is incurred at
//! the beginning and end of a stream of updates. This overhead can be
//! expensive if updates are short and rare. Also, reads that are
//! concurrent with updates are more expensive."

use deceit::prelude::*;

use crate::table::Table;

/// Measured stability point.
#[derive(Debug, Clone, Copy)]
pub struct StabilityPoint {
    /// Whether stability notification was on.
    pub stability: bool,
    /// Updates per stream.
    pub stream_len: usize,
    /// Mean per-write latency (us).
    pub write_us: f64,
    /// Mean mid-stream remote-read latency (us).
    pub concurrent_read_us: f64,
    /// Whether a mid-stream remote read ever returned stale data.
    pub stale_read_possible: bool,
}

/// Runs streams of `stream_len` small writes via server 0 with a
/// mid-stream read via server 1, for both stability settings.
pub fn measure(stability: bool, stream_len: usize, streams: usize) -> StabilityPoint {
    let mut cfg = ClusterConfig::default().with_seed(4);
    cfg.lazy_apply_delay = SimDuration::from_millis(120);
    let mut fs = DeceitFs::new(2, cfg, FsConfig::default());
    let root = fs.root();
    let f = fs.create(NodeId(0), root, "f", 0o644).unwrap().value;
    fs.set_file_params(
        NodeId(0),
        f.handle,
        FileParams { min_replicas: 2, stability, ..FileParams::default() },
    )
    .unwrap();
    fs.write(NodeId(0), f.handle, 0, b"base").unwrap();
    fs.cluster.run_until_quiet();

    let mut write_total = SimDuration::ZERO;
    let mut read_total = SimDuration::ZERO;
    let mut reads = 0u32;
    let mut stale = false;
    let mut expected: Vec<u8>;
    for s in 0..streams {
        for i in 0..stream_len {
            let body = format!("s{s}w{i}").into_bytes();
            write_total += fs.write(NodeId(0), f.handle, 0, &body).unwrap().latency;
            expected = body;
            if i == stream_len / 2 {
                // A concurrent read through the other replica.
                let r = fs.read(NodeId(1), f.handle, 0, 64).unwrap();
                read_total += r.latency;
                reads += 1;
                let fresh =
                    r.value.len() >= expected.len() && r.value[..expected.len()] == expected[..];
                if !fresh {
                    stale = true;
                }
            }
        }
        // Quiet period between streams: the group restabilizes.
        fs.cluster.run_until_quiet();
    }
    StabilityPoint {
        stability,
        stream_len,
        write_us: write_total.as_micros() as f64 / (streams * stream_len) as f64,
        concurrent_read_us: read_total.as_micros() as f64 / reads.max(1) as f64,
        stale_read_possible: stale,
    }
}

/// The stability × stream-length grid.
pub fn run() -> (Table, Vec<StabilityPoint>) {
    let mut pts = Vec::new();
    for stability in [false, true] {
        for stream_len in [1usize, 4, 16] {
            pts.push(measure(stability, stream_len, 4));
        }
    }
    let mut t = Table::new(
        "P4 — stability notification: per-write overhead and read behavior",
        &["stability", "stream len", "write (us)", "concurrent read (us)", "stale reads?"],
    );
    for p in &pts {
        t.row(&[
            if p.stability { "on" } else { "off" }.to_string(),
            p.stream_len.to_string(),
            format!("{:.0}", p.write_us),
            format!("{:.0}", p.concurrent_read_us),
            p.stale_read_possible.to_string(),
        ]);
    }
    (t, pts)
}

#[cfg(test)]
mod tests {
    #[test]
    fn stability_costs_show_paper_shape() {
        let (_, pts) = super::run();
        let off = |len: usize| pts.iter().find(|p| !p.stability && p.stream_len == len).unwrap();
        let on = |len: usize| pts.iter().find(|p| p.stability && p.stream_len == len).unwrap();
        // Short, rare updates: the per-write overhead of the unstable/
        // stable rounds is largest at stream length 1.
        let overhead_1 = on(1).write_us - off(1).write_us;
        let overhead_16 = on(16).write_us - off(16).write_us;
        assert!(overhead_1 > overhead_16, "overhead amortizes over streams");
        // Concurrent reads cost more with stability (forwarded to holder).
        assert!(on(16).concurrent_read_us > off(16).concurrent_read_us);
        // But stability eliminates stale reads; without it they occur.
        assert!(!on(16).stale_read_possible);
        assert!(off(16).stale_read_possible);
    }
}
