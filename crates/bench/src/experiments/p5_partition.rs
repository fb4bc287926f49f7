//! P5 — §3.5/§4's write-availability policies under partition: high
//! availability risks divergent versions; medium restricts writes to the
//! majority; low never diverges but may lose write access entirely.

use deceit::prelude::*;

use crate::table::Table;

/// Outcome of one policy under the partition schedule.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The availability policy.
    pub policy: WriteAvailability,
    /// Writes accepted on the token-holder (minority) side.
    pub minority_writes: usize,
    /// Writes accepted on the majority side.
    pub majority_writes: usize,
    /// Live versions after heal.
    pub versions_after_heal: usize,
    /// Conflicts logged after heal.
    pub conflicts: usize,
}

/// Partition a 5-server cell {holder, 1} | {2, 3, 4}, write W times on
/// each side, heal, and report the policy's behavior.
pub fn measure(policy: WriteAvailability, writes_per_side: usize) -> PolicyOutcome {
    let mut fs = DeceitFs::new(5, ClusterConfig::deterministic(), FsConfig::default());
    let root = fs.root();
    let f = fs.create(NodeId(0), root, "contested", 0o644).unwrap().value;
    fs.set_file_params(
        NodeId(0),
        f.handle,
        FileParams { min_replicas: 5, availability: policy, ..FileParams::default() },
    )
    .unwrap();
    fs.write(NodeId(0), f.handle, 0, b"base").unwrap();
    fs.cluster.run_until_quiet();

    fs.cluster.split(&[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3), NodeId(4)]]);
    let mut minority_writes = 0;
    let mut majority_writes = 0;
    for i in 0..writes_per_side {
        if fs.write(NodeId(0), f.handle, 0, format!("min{i}").as_bytes()).is_ok() {
            minority_writes += 1;
        }
        if fs.write(NodeId(2), f.handle, 0, format!("maj{i}").as_bytes()).is_ok() {
            majority_writes += 1;
        }
    }
    fs.cluster.heal();
    fs.cluster.run_until_quiet();
    let versions = fs.file_versions(NodeId(0), f.handle).unwrap().value.len();
    PolicyOutcome {
        policy,
        minority_writes,
        majority_writes,
        versions_after_heal: versions,
        conflicts: fs.cluster.conflicts.len(),
    }
}

/// All three policies through the same schedule.
pub fn run() -> (Table, Vec<PolicyOutcome>) {
    let outcomes: Vec<PolicyOutcome> =
        [WriteAvailability::High, WriteAvailability::Medium, WriteAvailability::Low]
            .into_iter()
            .map(|p| measure(p, 5))
            .collect();
    let mut t = Table::new(
        "P5 — availability policies under partition {holder,1} | {2,3,4}",
        &["policy", "minority writes", "majority writes", "versions after heal", "conflicts"],
    );
    for o in &outcomes {
        t.row(&[
            o.policy.to_string(),
            format!("{}/5", o.minority_writes),
            format!("{}/5", o.majority_writes),
            o.versions_after_heal.to_string(),
            o.conflicts.to_string(),
        ]);
    }
    (t, outcomes)
}

#[cfg(test)]
mod tests {
    use deceit::prelude::WriteAvailability;

    #[test]
    fn policies_match_section4() {
        let (_, os) = super::run();
        let by = |p: WriteAvailability| os.iter().find(|o| o.policy == p).unwrap();

        // High: both sides write; divergence + a conflict to resolve.
        let high = by(WriteAvailability::High);
        assert_eq!(high.minority_writes, 5);
        assert_eq!(high.majority_writes, 5);
        assert_eq!(high.versions_after_heal, 2);
        assert_eq!(high.conflicts, 1);

        // Medium: only the majority side writes; one lineage survives.
        let med = by(WriteAvailability::Medium);
        assert_eq!(med.minority_writes, 0, "token disabled without majority");
        assert_eq!(med.majority_writes, 5);
        assert_eq!(med.versions_after_heal, 1);
        assert_eq!(med.conflicts, 0);

        // Low: nobody can write once the token is cut off from… actually
        // the holder side retains its token and keeps writing; the other
        // side can never generate one. No divergence, ever.
        let low = by(WriteAvailability::Low);
        assert_eq!(low.majority_writes, 0, "no token generation at low");
        assert_eq!(low.versions_after_heal, 1);
        assert_eq!(low.conflicts, 0);
    }
}
