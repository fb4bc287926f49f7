//! Table 1: the typical sequence of events in an update, regenerated from
//! the flight recorder's protocol events.

use deceit::core::ProtocolEvent;
use deceit::prelude::*;

use crate::table::Table;

/// Runs a "cold" update (token elsewhere, group stable, one replica
/// unreachable so regeneration triggers) and extracts the Table 1 action
/// sequence from the events every server recorded during the update.
pub fn run() -> (Table, Vec<&'static str>) {
    let mut fs = DeceitFs::new(4, ClusterConfig::deterministic(), FsConfig::default());
    let root = fs.root();
    let f = fs.create(NodeId(0), root, "subject", 0o644).unwrap().value;
    fs.set_file_params(NodeId(0), f.handle, FileParams::important(3)).unwrap();
    fs.write(NodeId(0), f.handle, 0, b"baseline").unwrap();
    fs.cluster.run_until_quiet();

    // Make the update "typical" per the table's preconditions: the writer
    // does not hold the token, replicas are stable, and a failure will be
    // detected (one replica holder is down).
    let holders = fs.file_replicas(NodeId(0), f.handle).unwrap().value;
    let down = holders[2];
    fs.cluster.crash_server(down);
    let mark = fs.cluster.obs.flight.mark();

    // The update, via a non-holder server.
    let writer = NodeId(1);
    assert!(
        !fs.cluster.server(writer).holds_token((f.handle.segment(), 0)) || writer != holders[0]
    );
    fs.write(writer, f.handle, 0, b"the update").unwrap();
    fs.cluster.run_until_quiet();

    // Project the update's events, merged across servers in protocol
    // time, onto Table 1's action vocabulary.
    let events = fs.cluster.obs.flight.since(&mark).expect(
        "a flight ring overwrote part of the Table 1 update; the event log would be partial",
    );
    let seg = f.handle.segment();
    let actions: Vec<&'static str> = events
        .iter()
        .map(|(_, _, e)| e)
        .filter(|e| e.segment() == Some(seg))
        .filter_map(ProtocolEvent::table1_action)
        .collect();
    let mut dedup = Vec::new();
    for a in actions {
        if dedup.last() != Some(&a) {
            dedup.push(a);
        }
    }

    let mut t = Table::new(
        "Table 1 — typical sequence of events in an update (observed)",
        &["precondition", "action (from protocol trace)"],
    );
    let preconditions = [
        ("token is not held", "acquire token"),
        ("replicas are not marked as unstable", "mark replicas as unstable"),
        ("true", "distributed update"),
        ("failure detected", "count update replies"),
        ("insufficient replicas", "generate new replicas"),
        ("period of no write activity", "mark replicas as stable"),
    ];
    for (pre, action) in preconditions {
        let observed = dedup.contains(&action);
        t.row(&[
            pre.to_string(),
            format!("{action}{}", if observed { "" } else { "  [NOT OBSERVED]" }),
        ]);
    }
    (t, dedup)
}

#[cfg(test)]
mod tests {
    #[test]
    fn observed_sequence_matches_table1() {
        let (_, actions) = super::run();
        let expected = [
            "acquire token",
            "mark replicas as unstable",
            "distributed update",
            "count update replies",
            "generate new replicas",
            "mark replicas as stable",
        ];
        // Every Table 1 action occurs, in the paper's order.
        let mut idx = 0;
        for a in &actions {
            if idx < expected.len() && *a == expected[idx] {
                idx += 1;
            }
        }
        assert_eq!(
            idx,
            expected.len(),
            "observed {actions:?}, missing action #{idx} ({})",
            expected.get(idx).unwrap_or(&"?")
        );
    }
}
