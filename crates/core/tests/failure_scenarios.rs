//! The §3.6 crash and partition scenarios, plus the §4 availability-policy
//! matrix. Each test reproduces one of the paper's narrated failure cases.

use deceit_core::{
    Cluster, ClusterConfig, DeceitError, FileParams, ProtocolEvent, Stat, WriteAvailability,
    WriteOp,
};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// A cluster with one segment replicated on the first `replicas` servers.
fn replicated_cluster(
    servers: usize,
    replicas: usize,
    availability: WriteAvailability,
) -> (Cluster, deceit_core::SegmentId) {
    let mut c = Cluster::new(servers, ClusterConfig::deterministic());
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(
        n(0),
        seg,
        FileParams { min_replicas: replicas, availability, ..FileParams::default() },
    )
    .unwrap();
    c.write(n(0), seg, WriteOp::replace(b"initial"), None).unwrap();
    c.run_until_quiet();
    assert_eq!(c.locate_replicas(n(0), seg).unwrap().value.len(), replicas);
    (c, seg)
}

// ---------------------------------------------------------------------
// §3.6 "Non-token Replica Crash"
// ---------------------------------------------------------------------

#[test]
fn non_token_replica_crash_destroys_obsolete_copy_on_recovery() {
    let (mut c, seg) = replicated_cluster(3, 3, WriteAvailability::Medium);
    // Server 2 (a plain replica holder) crashes; updates continue.
    c.crash_server(n(2));
    c.write(n(0), seg, WriteOp::replace(b"updated while 2 down"), None).unwrap();
    c.run_until_quiet();
    // On recovery, server 2 contacts the token holder, finds its replica
    // obsolete (its history is a prefix of the token's) and destroys it.
    c.recover_server(n(2));
    assert!(!c.server(n(2)).replicas.contains(&(seg, 0)), "obsolete replica destroyed");
    assert!(c.obs.count(Stat::RecoveryReplicasDestroyed) >= 1);
    // The holder regenerates to restore the minimum replica level; no
    // update was lost.
    c.run_until_quiet();
    assert_eq!(c.locate_replicas(n(0), seg).unwrap().value.len(), 3);
    let r = c.read(n(2), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"updated while 2 down");
}

#[test]
fn up_to_date_replica_rejoins_after_crash() {
    let (mut c, seg) = replicated_cluster(3, 3, WriteAvailability::Medium);
    c.crash_server(n(2));
    // No updates while down: the replica is still current on recovery.
    c.recover_server(n(2));
    assert!(c.server(n(2)).replicas.contains(&(seg, 0)), "current replica kept");
    let r = c.read(n(2), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"initial");
    assert_eq!(r.served_by, n(2));
}

// ---------------------------------------------------------------------
// §3.6 "Token Crash"
// ---------------------------------------------------------------------

#[test]
fn token_crash_generates_new_version_and_recovery_destroys_old() {
    let (mut c, seg) = replicated_cluster(3, 3, WriteAvailability::Medium);
    assert!(c.server(n(0)).holds_token((seg, 0)));
    c.crash_server(n(0));
    // A write via server 1 cannot contact the holder; with a majority of
    // replicas reachable it generates a new token (new major version).
    let v = c.write(n(1), seg, WriteOp::replace(b"post-crash"), None).unwrap().value;
    assert_ne!(v.major, 0, "a new major version was created");
    assert!(c.server(n(1)).holds_token((seg, v.major)));
    c.run_until_quiet();
    // The old holder recovers, learns of the descendant version, and
    // destroys the old version and its replicas.
    c.recover_server(n(0));
    assert!(!c.server(n(0)).holds_token((seg, 0)), "old token destroyed");
    assert!(!c.server(n(0)).replicas.contains(&(seg, 0)), "old replica destroyed");
    c.run_until_quiet();
    let r = c.read(n(0), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"post-crash");
    assert_eq!(r.version.major, v.major);
    assert!(c.conflicts.is_empty(), "a clean succession is not a conflict");
}

#[test]
fn availability_low_refuses_new_tokens() {
    let (mut c, seg) = replicated_cluster(3, 3, WriteAvailability::Low);
    c.crash_server(n(0));
    // §4: "low … prevents the production of additional tokens. Loss of
    // file write access may be frequent and long term, but there is no
    // chance of generation of multiple versions."
    let err = c.write(n(1), seg, WriteOp::replace(b"nope"), None).unwrap_err();
    assert!(matches!(err, DeceitError::WriteUnavailable(_)));
    // Reads still work.
    let r = c.read(n(1), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"initial");
    // When the holder recovers, writes resume with no divergence.
    c.recover_server(n(0));
    c.write(n(1), seg, WriteOp::replace(b"resumed"), None).unwrap();
    assert_eq!(c.list_versions(n(1), seg).unwrap().value.len(), 1);
}

#[test]
fn availability_medium_blocks_minority_side_holder() {
    let (mut c, seg) = replicated_cluster(3, 3, WriteAvailability::Medium);
    // Holder alone on the minority side.
    c.split(&[&[n(0)], &[n(1), n(2)]]);
    let err = c.write(n(0), seg, WriteOp::replace(b"minority"), None).unwrap_err();
    assert!(
        matches!(err, DeceitError::WriteUnavailable(_)),
        "medium disables the token without a majority"
    );
    // The majority side can generate a fresh token and write.
    let v = c.write(n(1), seg, WriteOp::replace(b"majority"), None).unwrap().value;
    assert_ne!(v.major, 0);
    // Heal: the sides reconcile; the untouched old version is destroyed
    // ("It will appear to the clients as if the token had actually been
    // moved").
    c.heal();
    c.run_until_quiet();
    assert!(c.conflicts.is_empty(), "no concurrent updates, no conflict");
    let r = c.read(n(0), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"majority");
}

#[test]
fn availability_medium_prevents_split_brain() {
    let (mut c, seg) = replicated_cluster(5, 5, WriteAvailability::Medium);
    c.split(&[&[n(0), n(1)], &[n(2), n(3), n(4)]]);
    // Minority side (with the token) is refused.
    assert!(c.write(n(0), seg, WriteOp::replace(b"a"), None).is_err());
    // Majority side succeeds.
    assert!(c.write(n(2), seg, WriteOp::replace(b"b"), None).is_ok());
    c.heal();
    c.run_until_quiet();
    // At most one lineage survives: never two divergent writable versions.
    assert!(c.conflicts.is_empty());
    let versions = c.list_versions(n(0), seg).unwrap().value;
    assert_eq!(versions.len(), 1, "exactly one live version after heal");
}

// ---------------------------------------------------------------------
// §3.6 "Partition" — the hard case: concurrent updates on both sides
// ---------------------------------------------------------------------

#[test]
fn partition_with_updates_on_both_sides_logs_conflict_and_keeps_both() {
    let (mut c, seg) = replicated_cluster(4, 4, WriteAvailability::High);
    c.split(&[&[n(0), n(1)], &[n(2), n(3)]]);
    // Both sides write concurrently.
    let va = c.write(n(0), seg, WriteOp::replace(b"side A"), None).unwrap().value;
    let vb = c.write(n(2), seg, WriteOp::replace(b"side B"), None).unwrap().value;
    assert_ne!(va.major, vb.major, "side B generated a new version");
    c.heal();
    c.run_until_quiet();
    // §3.6: "both of the incomparable versions of the file are kept, and a
    // notification is logged into a well known file."
    assert_eq!(c.conflicts.len(), 1);
    // The server that found it — side A's token holder, first of the
    // pair at heal time — flight-records it.
    assert!(
        c.obs
            .flight
            .events(n(0))
            .iter()
            .any(|(_, e)| matches!(e, ProtocolEvent::ConflictLogged { .. })),
        "{}",
        c.obs.flight.dump()
    );
    let versions = c.list_versions(n(0), seg).unwrap().value;
    assert_eq!(versions.len(), 2, "both versions available to the user");
    // Both versions are independently readable by qualified name.
    let a = c.read(n(1), seg, Some(va.major), 0, 100).unwrap().value;
    let b = c.read(n(1), seg, Some(vb.major), 0, 100).unwrap().value;
    assert_eq!(&a.data()[..], b"side A");
    assert_eq!(&b.data()[..], b"side B");
    // The user resolves by deleting one version; the conflict clears.
    c.delete_version(n(0), seg, va.major).unwrap();
    assert!(c.conflicts.is_empty());
    assert_eq!(c.list_versions(n(0), seg).unwrap().value.len(), 1);
}

#[test]
fn partition_without_remote_updates_resolves_silently() {
    let (mut c, seg) = replicated_cluster(4, 4, WriteAvailability::High);
    c.split(&[&[n(0), n(1)], &[n(2), n(3)]]);
    // Reads continue on the token side.
    let r = c.read(n(0), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"initial");
    // Token side writes; the other side stays quiet.
    c.write(n(0), seg, WriteOp::replace(b"token side"), None).unwrap();
    c.heal();
    c.run_until_quiet();
    assert!(c.conflicts.is_empty());
    let r = c.read(n(3), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"token side");
}

// ---------------------------------------------------------------------
// §3.6 "Stability Notification in the Presence of Failure"
// ---------------------------------------------------------------------

#[test]
fn stable_replica_search_after_holder_failure() {
    let (mut c, seg) = replicated_cluster(3, 3, WriteAvailability::Medium);
    // Server 2 is partitioned away and misses an update; replicas 0 and 1
    // are marked unstable for the stream.
    c.split(&[&[n(0), n(1)], &[n(2)]]);
    c.write(n(0), seg, WriteOp::replace(b"newer"), None).unwrap();
    // The holder crashes mid-stream, before marking the group stable.
    c.crash_server(n(0));
    c.heal();
    // A read at server 2 finds its replica unstable and the holder
    // unreachable: it broadcasts a state inquiry and forces the most
    // up-to-date replica stable (§3.6). Server 2's copy is a same-major
    // prefix of it, so it is caught up rather than destroyed: no obsolete
    // bytes survive, and the file keeps its replica there.
    c.advance(SimDuration::from_millis(200));
    let r = c.read(n(2), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"newer", "read served from the most up-to-date replica");
    assert!(c.obs.count(Stat::ReadsStableSearch) >= 1);
    let kept = c.server(n(2)).replicas.get(&(seg, 0));
    assert!(
        kept.is_some_and(|r| &r.data.read(0, 100)[..] == b"newer" && r.is_stable()),
        "the missed-update replica was caught up and marked stable"
    );
}

// ---------------------------------------------------------------------
// §3.6 "Disastrous Failure" — the acknowledged impossibility
// ---------------------------------------------------------------------

#[test]
fn disastrous_failure_file_goes_back_in_time() {
    let (mut c, seg) = replicated_cluster(3, 3, WriteAvailability::High);
    // Server 2 crashes and misses updates.
    c.crash_server(n(2));
    c.write(n(0), seg, WriteOp::replace(b"the future"), None).unwrap();
    c.run_until_quiet();
    // Then every other replica crashes and only the obsolete one recovers.
    c.crash_server(n(0));
    c.crash_server(n(1));
    c.recover_server(n(2));
    let r = c.read(n(2), seg, None, 0, 100).unwrap().value;
    // The paper: "if an obsolete file replica recovers and all other
    // replicas simultaneously crash, the file will appear to go back in
    // time." We reproduce the admitted weakness faithfully.
    assert_eq!(&r.data()[..], b"initial");
}

// ---------------------------------------------------------------------
// §4 write safety — durability exposure
// ---------------------------------------------------------------------

#[test]
fn write_safety_zero_loses_update_on_immediate_crash() {
    let mut c = Cluster::new(1, ClusterConfig::deterministic());
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(
        n(0),
        seg,
        FileParams { write_safety: 0, stability: false, ..FileParams::default() },
    )
    .unwrap();
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"durable base"), None).unwrap();
    c.run_until_quiet(); // flushed
    c.write(n(0), seg, WriteOp::replace(b"lost on crash"), None).unwrap();
    c.crash_server(n(0)); // before the write-behind flush fires
    c.recover_server(n(0));
    let r = c.read(n(0), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"durable base", "asynchronous unsafe write lost");
}

#[test]
fn write_safety_one_survives_immediate_crash() {
    let mut c = Cluster::new(1, ClusterConfig::deterministic());
    let seg = c.create(n(0)).unwrap().value;
    c.write(n(0), seg, WriteOp::replace(b"safe"), None).unwrap();
    c.crash_server(n(0));
    c.recover_server(n(0));
    let r = c.read(n(0), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"safe", "safety 1 is durable at the primary on return");
}

#[test]
fn reads_fail_over_when_no_replica_reachable() {
    let (mut c, seg) = replicated_cluster(4, 2, WriteAvailability::Medium);
    let holders = c.locate_replicas(n(0), seg).unwrap().value;
    for h in &holders {
        c.crash_server(*h);
    }
    // A server outside the replica set cannot satisfy the read.
    let outside = c.server_ids().into_iter().find(|s| !holders.contains(s)).unwrap();
    assert!(matches!(
        c.read(outside, seg, None, 0, 10),
        Err(DeceitError::NoSuchSegment(_)) | Err(DeceitError::Unavailable(_))
    ));
    // One replica holder recovers: service resumes.
    c.recover_server(holders[0]);
    let r = c.read(outside, seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"initial");
}

#[test]
fn deleted_segment_garbage_collected_at_recovery() {
    let (mut c, seg) = replicated_cluster(3, 3, WriteAvailability::Medium);
    c.crash_server(n(2));
    c.delete(n(0), seg).unwrap();
    c.recover_server(n(2));
    assert!(
        !c.server(n(2)).has_segment(seg),
        "stale replica of a deleted segment is garbage-collected"
    );
}
