//! P1 — §3.3's round-count claims: "An update requires only one
//! communication round if the token is held. … Token acquisition requires
//! one round, but it is only done for the first in a series of updates."

use deceit::prelude::*;

use crate::table::Table;

/// Measured amortization point.
#[derive(Debug, Clone, Copy)]
pub struct Amortization {
    /// Updates in the stream.
    pub stream_len: usize,
    /// Mean broadcast rounds per update (1.0 = the paper's steady state).
    pub rounds_per_update: f64,
}

/// Counts protocol rounds for an update stream issued by a server that
/// does not initially hold the token.
pub fn measure(stream_len: usize) -> Amortization {
    let mut fs = DeceitFs::new(3, ClusterConfig::deterministic(), FsConfig::default());
    let root = fs.root();
    let f = fs.create(NodeId(0), root, "f", 0o644).unwrap().value;
    fs.set_file_params(
        NodeId(0),
        f.handle,
        FileParams {
            min_replicas: 3,
            stability: false, // isolate the token protocol from stability rounds
            ..FileParams::default()
        },
    )
    .unwrap();
    fs.write(NodeId(0), f.handle, 0, b"warm").unwrap();
    fs.cluster.run_until_quiet();

    // Count one "round" per broadcast kind the token protocol uses.
    let rounds_tags = ["update", "token-request", "replica-inquiry", "locate"];
    let before: u64 = rounds_tags.iter().map(|t| fs.cluster.net.stats().tag_count(t)).sum();
    for i in 0..stream_len {
        fs.write(NodeId(1), f.handle, 0, format!("u{i}").as_bytes()).unwrap();
    }
    let after: u64 = rounds_tags.iter().map(|t| fs.cluster.net.stats().tag_count(t)).sum();
    // Each broadcast round to the 2 remote members costs 4 messages
    // (2 requests + 2 replies).
    let rounds = (after - before) as f64 / 4.0;
    Amortization { stream_len, rounds_per_update: rounds / stream_len as f64 }
}

/// The amortization curve.
pub fn run() -> (Table, Vec<Amortization>) {
    let points: Vec<Amortization> = [1usize, 2, 4, 8, 16, 32].iter().map(|&k| measure(k)).collect();
    let mut t = Table::new(
        "P1 — §3.3: rounds per update vs stream length (token initially elsewhere)",
        &["stream length", "rounds/update", "paper's claim"],
    );
    for p in &points {
        let claim = if p.stream_len == 1 {
            "1 update + acquisition overhead"
        } else {
            "→ 1.0 as the stream grows"
        };
        t.row(&[
            p.stream_len.to_string(),
            format!("{:.2}", p.rounds_per_update),
            claim.to_string(),
        ]);
    }
    (t, points)
}

#[cfg(test)]
mod tests {
    #[test]
    fn rounds_amortize_to_one() {
        let (_, pts) = super::run();
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(first.rounds_per_update > 1.4, "acquisition visible: {first:?}");
        assert!(
            (last.rounds_per_update - 1.0).abs() < 0.15,
            "steady state ≈ 1 round/update: {last:?}"
        );
    }
}
