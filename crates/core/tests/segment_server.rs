//! Behavioral tests of the segment server's normal-case protocols:
//! create/read/write, forwarding, token movement, stability notification,
//! optimistic concurrency, replica management, and migration.

use deceit_core::{
    Cluster, ClusterConfig, DeceitError, FileParams, ProtocolEvent, Stat, VersionPair, WriteOp,
};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

fn cluster(servers: usize) -> Cluster {
    Cluster::new(servers, ClusterConfig::deterministic())
}

#[test]
fn create_write_read_roundtrip() {
    let mut c = cluster(3);
    let seg = c.create(n(0)).unwrap().value;
    let v1 = c.write(n(0), seg, WriteOp::replace(b"contents"), None).unwrap().value;
    assert_eq!(v1, VersionPair { major: 0, sub: 1 });
    let r = c.read(n(0), seg, None, 0, 100).unwrap().value;
    assert_eq!(&r.data()[..], b"contents");
    assert_eq!(r.version, v1);
    assert_eq!(r.served_by, n(0));
}

#[test]
fn version_pair_increments_per_update() {
    let mut c = cluster(1);
    let seg = c.create(n(0)).unwrap().value;
    for i in 1..=5 {
        let v = c.write(n(0), seg, WriteOp::append(b"x"), None).unwrap().value;
        assert_eq!(v.sub, i);
        assert_eq!(v.major, 0);
    }
}

#[test]
fn read_via_other_server_forwards() {
    let mut c = cluster(3);
    let seg = c.create(n(0)).unwrap().value;
    c.write(n(0), seg, WriteOp::replace(b"remote data"), None).unwrap();
    c.run_until_quiet();
    // Server 2 holds no replica; the read is forwarded transparently.
    let r = c.read(n(2), seg, None, 0, 100).unwrap();
    assert_eq!(&r.value.data()[..], b"remote data");
    assert_eq!(r.value.served_by, n(0));
    assert!(c.obs.count(Stat::ReadsForwarded) >= 1);
    // Forwarding costs more than a local read.
    let local = c.read(n(0), seg, None, 0, 100).unwrap();
    assert!(r.latency > local.latency, "{} <= {}", r.latency, local.latency);
}

#[test]
fn migration_grows_local_replica() {
    let mut c = cluster(3);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { migration: true, ..FileParams::default() }).unwrap();
    c.write(n(0), seg, WriteOp::replace(b"hot file"), None).unwrap();
    c.run_until_quiet();
    assert!(!c.server(n(2)).replicas.contains(&(seg, 0)));
    c.read(n(2), seg, None, 0, 100).unwrap();
    c.run_until_quiet();
    // §3.1 method 4: a local replica was generated in the background.
    assert!(c.server(n(2)).replicas.contains(&(seg, 0)));
    assert_eq!(c.obs.count(Stat::MigrationsExecuted), 1, "the install counts as a migration");
    let again = c.read(n(2), seg, None, 0, 100).unwrap();
    assert_eq!(again.value.served_by, n(2), "now served locally");
}

#[test]
fn no_migration_by_default() {
    let mut c = cluster(3);
    let seg = c.create(n(0)).unwrap().value;
    c.write(n(0), seg, WriteOp::replace(b"cold file"), None).unwrap();
    c.read(n(2), seg, None, 0, 100).unwrap();
    c.run_until_quiet();
    assert!(
        !c.server(n(2)).replicas.contains(&(seg, 0)),
        "§4: default is that file migration not be used"
    );
    assert_eq!(c.obs.count(Stat::MigrationsExecuted), 0);
}

#[test]
fn token_moves_to_writing_server() {
    let mut c = cluster(3);
    let seg = c.create(n(0)).unwrap().value;
    c.write(n(0), seg, WriteOp::replace(b"v1"), None).unwrap();
    assert!(c.server(n(0)).holds_token((seg, 0)));
    // A write via server 1 acquires the token (one request round).
    let v = c.write(n(1), seg, WriteOp::replace(b"v2"), None).unwrap().value;
    assert_eq!(v.sub, 2);
    assert!(c.server(n(1)).holds_token((seg, 0)));
    assert!(!c.server(n(0)).holds_token((seg, 0)));
    c.run_until_quiet();
    // Both servers converge on the new contents.
    for s in [n(0), n(1)] {
        let r = c.server(s).replicas.get(&(seg, 0)).unwrap();
        assert_eq!(&r.data.contents()[..], b"v2", "server {s}");
        assert_eq!(r.version.sub, 2);
    }
}

#[test]
fn update_stream_amortizes_token_acquisition() {
    let mut c = cluster(2);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { min_replicas: 2, ..FileParams::default() }).unwrap();
    c.run_until_quiet();
    // First write via server 1 pays acquisition; the rest of the stream
    // does not (§3.3: "token acquisition … is only done for the first in a
    // series of updates").
    let first = c.write(n(1), seg, WriteOp::append(b"a"), None).unwrap().latency;
    let mut rest = Vec::new();
    for _ in 0..5 {
        rest.push(c.write(n(1), seg, WriteOp::append(b"b"), None).unwrap().latency);
    }
    let avg_rest = rest.iter().map(|d| d.as_micros()).sum::<u64>() / rest.len() as u64;
    assert!(
        first.as_micros() > avg_rest + 2_000,
        "first {first} should exceed steady-state {avg_rest}us by the token round"
    );
    assert_eq!(c.obs.count(Stat::TokenPasses), 1);
}

#[test]
fn conditional_write_conflict_and_restart() {
    let mut c = cluster(2);
    let seg = c.create(n(0)).unwrap().value;
    let v1 = c.write(n(0), seg, WriteOp::replace(b"base"), None).unwrap().value;
    // Writer A reads, writer B sneaks in an update, A's conditional write
    // fails with the actual version so it can restart (§5.1).
    let observed = c.read(n(0), seg, None, 0, 100).unwrap().value.version;
    assert_eq!(observed, v1);
    let v2 = c.write(n(0), seg, WriteOp::replace(b"sneak"), None).unwrap().value;
    let err = c.write(n(0), seg, WriteOp::replace(b"stale"), Some(observed)).unwrap_err();
    match err {
        DeceitError::VersionConflict { expected, actual, .. } => {
            assert_eq!(expected, v1);
            assert_eq!(actual, v2);
        }
        other => panic!("expected version conflict, got {other}"),
    }
    // Restart with the fresh version succeeds.
    let fresh = c.read(n(0), seg, None, 0, 100).unwrap().value.version;
    c.write(n(0), seg, WriteOp::replace(b"retry"), Some(fresh)).unwrap();
    assert_eq!(c.obs.count(Stat::OccConflicts), 1);
}

#[test]
fn stability_off_allows_stale_read_stability_on_prevents_it() {
    // The Figure 5 mechanism at segment level: a freshly written file read
    // through another replica holder before propagation lands.
    for stability in [false, true] {
        let mut c = cluster(2);
        let seg = c.create(n(0)).unwrap().value;
        c.set_params(n(0), seg, FileParams { min_replicas: 2, stability, ..FileParams::default() })
            .unwrap();
        c.write(n(0), seg, WriteOp::replace(b"old"), None).unwrap();
        c.run_until_quiet();
        // The update: visible at the holder immediately; at server 1 only
        // after the lazy apply delay.
        c.write(n(0), seg, WriteOp::replace(b"new"), None).unwrap();
        let r = c.read(n(1), seg, None, 0, 100).unwrap().value;
        if stability {
            assert_eq!(
                &r.data()[..],
                b"new",
                "stability notification forwards the read to the token holder"
            );
            assert_eq!(r.served_by, n(0));
        } else {
            assert_eq!(
                &r.data()[..],
                b"old",
                "without stability notification the stale local replica answers"
            );
            assert_eq!(r.served_by, n(1));
        }
        // Either way, replicas converge once propagation completes.
        c.run_until_quiet();
        let settled = c.read(n(1), seg, None, 0, 100).unwrap().value;
        assert_eq!(&settled.data()[..], b"new");
    }
}

#[test]
fn stability_marks_clear_after_quiet_period() {
    let mut c = cluster(2);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { min_replicas: 2, ..FileParams::default() }).unwrap();
    c.write(n(0), seg, WriteOp::replace(b"data"), None).unwrap();
    // While the stream is open the remote replica is unstable.
    assert!(!c.server(n(1)).replicas.get(&(seg, 0)).unwrap().is_stable());
    let mark = c.obs.flight.mark();
    c.advance(SimDuration::from_secs(2));
    assert!(c.server(n(1)).replicas.get(&(seg, 0)).unwrap().is_stable());
    let quiet = c.obs.flight.since(&mark).expect("no ring wrapped");
    assert!(quiet.iter().any(|(_, _, e)| matches!(e, ProtocolEvent::MarkedStable { .. })));
    // A later read at the remote replica is served locally again.
    let r = c.read(n(1), seg, None, 0, 100).unwrap().value;
    assert_eq!(r.served_by, n(1));
}

#[test]
fn set_params_replicates_to_requested_level() {
    let mut c = cluster(5);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { min_replicas: 3, ..FileParams::default() }).unwrap();
    c.run_until_quiet();
    let holders = c.locate_replicas(n(0), seg).unwrap().value;
    assert_eq!(holders.len(), 3);
    // Params agree everywhere.
    for h in holders {
        assert_eq!(c.server(h).replicas.get(&(seg, 0)).unwrap().params.min_replicas, 3);
    }
    assert_eq!(c.get_params(n(1), seg).unwrap().value.min_replicas, 3);
}

#[test]
fn lru_deletes_extra_replicas_on_update() {
    let mut cfg = ClusterConfig::deterministic();
    cfg.lru_keep = SimDuration::from_secs(1);
    let mut c = Cluster::new(4, cfg);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(
        n(0),
        seg,
        FileParams { min_replicas: 1, migration: true, ..FileParams::default() },
    )
    .unwrap();
    c.write(n(0), seg, WriteOp::replace(b"popular"), None).unwrap();
    // Reads through two other servers grow extra replicas (migration).
    c.read(n(1), seg, None, 0, 100).unwrap();
    c.read(n(2), seg, None, 0, 100).unwrap();
    c.run_until_quiet();
    assert_eq!(c.locate_replicas(n(0), seg).unwrap().value.len(), 3);
    assert_eq!(c.obs.count(Stat::MigrationsExecuted), 2);
    // After a long idle period, an update deletes the idle extras in LRU
    // order (§3.1).
    c.advance(SimDuration::from_secs(10));
    c.write(n(0), seg, WriteOp::replace(b"update"), None).unwrap();
    c.run_until_quiet();
    let holders = c.locate_replicas(n(0), seg).unwrap().value;
    assert_eq!(holders, vec![n(0)], "extras deleted, primary kept");
    assert!(c.obs.count(Stat::ReplicasRetired) >= 2);
}

#[test]
fn recently_read_replicas_survive_update() {
    let mut cfg = ClusterConfig::deterministic();
    cfg.lru_keep = SimDuration::from_secs(3600);
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(
        n(0),
        seg,
        FileParams { min_replicas: 1, migration: true, ..FileParams::default() },
    )
    .unwrap();
    c.write(n(0), seg, WriteOp::replace(b"x"), None).unwrap();
    c.read(n(1), seg, None, 0, 10).unwrap();
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"y"), None).unwrap();
    c.run_until_quiet();
    assert_eq!(
        c.locate_replicas(n(0), seg).unwrap().value.len(),
        2,
        "a replica inside the LRU window is updated, not deleted"
    );
}

/// The floor invariant under a crash: when a crash thins the reachable
/// holders to the floor, an idle survivor is vetoed, not retired — the
/// replication floor always wins over the LRU window.
#[test]
fn floor_vetoes_retirement_when_a_crash_thins_the_holders() {
    let mut cfg = ClusterConfig::deterministic();
    // Wide enough that nothing is idle while the third copy grows (the
    // stabilize horizon alone jumps the clock ~500ms); the idleness
    // develops only after the crash below.
    cfg.lru_keep = SimDuration::from_secs(1);
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    let params = FileParams { migration: true, min_replicas: 2, ..FileParams::default() };
    c.set_params(n(0), seg, params).unwrap();
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"floor seed"), None).unwrap();
    c.run_until_quiet();
    let key = (seg, 0u64);

    // Grow the third copy by migration, then lose it to a crash.
    c.read(n(2), seg, None, 0, 64).unwrap();
    c.run_until_quiet();
    assert!(c.server(n(2)).replicas.contains(&key));
    assert!(c.server(n(1)).replicas.contains(&key), "nothing idle yet: no retirement");
    c.crash_server(n(2));
    c.advance(SimDuration::from_millis(1500)); // server 1's copy is now idle

    // The update-time LRU sweep sees an idle candidate (server 1) but
    // only the floor's worth of reachable holders: veto, not delete.
    let vetoes_before = c.obs.placement_snapshot().migrations_vetoed_floor;
    c.write(n(0), seg, WriteOp::append(b" after crash"), None).unwrap();
    c.run_until_quiet();
    assert!(c.server(n(1)).replicas.contains(&key), "the idle copy survives at the floor");
    assert!(
        c.obs.placement_snapshot().migrations_vetoed_floor > vetoes_before,
        "the blocked retirement is accounted as a floor veto"
    );
    let holders = [n(0), n(1)].iter().filter(|&&s| c.server(s).replicas.contains(&key)).count();
    assert_eq!(holders, 2, "never below min_replicas among reachable servers");
}

#[test]
fn delete_removes_segment_everywhere() {
    let mut c = cluster(3);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { min_replicas: 3, ..FileParams::default() }).unwrap();
    c.run_until_quiet();
    c.delete(n(1), seg).unwrap();
    for s in c.server_ids() {
        assert!(!c.server(s).has_segment(seg));
    }
    assert!(matches!(c.read(n(0), seg, None, 0, 10), Err(DeceitError::NoSuchSegment(_))));
}

#[test]
fn explicit_replica_placement_commands() {
    let mut c = cluster(4);
    let seg = c.create(n(0)).unwrap().value;
    c.write(n(0), seg, WriteOp::replace(b"payload"), None).unwrap();
    c.create_replica_on(n(0), seg, n(3)).unwrap();
    assert!(c.server(n(3)).replicas.contains(&(seg, 0)));
    // Duplicate placement is rejected.
    assert!(matches!(c.create_replica_on(n(0), seg, n(3)), Err(DeceitError::InvalidCommand(_))));
    c.delete_replica_on(n(0), seg, n(3)).unwrap();
    assert!(!c.server(n(3)).replicas.contains(&(seg, 0)));
    // The last replica cannot be deleted.
    assert!(matches!(c.delete_replica_on(n(0), seg, n(0)), Err(DeceitError::InvalidCommand(_))));
}

#[test]
fn version_of_and_list_versions() {
    let mut c = cluster(2);
    let seg = c.create(n(0)).unwrap().value;
    c.write(n(0), seg, WriteOp::replace(b"a"), None).unwrap();
    c.write(n(0), seg, WriteOp::replace(b"b"), None).unwrap();
    let v = c.version_of(n(1), seg).unwrap().value;
    assert_eq!(v, VersionPair { major: 0, sub: 2 });
    let versions = c.list_versions(n(0), seg).unwrap().value;
    assert_eq!(versions.len(), 1);
    assert_eq!(versions[0].major, 0);
    assert!(versions[0].has_token);
}

#[test]
fn explicit_version_creation_and_access() {
    let mut c = cluster(2);
    let seg = c.create(n(0)).unwrap().value;
    c.write(n(0), seg, WriteOp::replace(b"version zero"), None).unwrap();
    // "foo;3"-style explicit versions (§3.5 Version Control System).
    let new_major = c.create_version(n(0), seg).unwrap().value;
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"version one"), None).unwrap();
    // Unqualified access resolves to the most recent version.
    let latest = c.read(n(0), seg, None, 0, 100).unwrap().value;
    assert_eq!(&latest.data()[..], b"version one");
    assert_eq!(latest.version.major, new_major);
    // Qualified access still reaches the old version.
    let old = c.read(n(0), seg, Some(0), 0, 100).unwrap().value;
    assert_eq!(&old.data()[..], b"version zero");
    // Both are listed; deleting the old version removes it.
    assert_eq!(c.list_versions(n(0), seg).unwrap().value.len(), 2);
    c.delete_version(n(0), seg, 0).unwrap();
    assert_eq!(c.list_versions(n(0), seg).unwrap().value.len(), 1);
    assert!(matches!(c.read(n(0), seg, Some(0), 0, 1), Err(DeceitError::NoSuchVersion(_, 0))));
}

#[test]
fn write_safety_zero_returns_faster_than_synchronous() {
    let mut c = cluster(3);
    let fast = c.create(n(0)).unwrap().value;
    c.set_params(
        n(0),
        fast,
        FileParams { write_safety: 0, stability: false, ..FileParams::default() },
    )
    .unwrap();
    let slow = c.create(n(0)).unwrap().value;
    c.set_params(
        n(0),
        slow,
        FileParams { min_replicas: 3, write_safety: 3, stability: false, ..FileParams::default() },
    )
    .unwrap();
    c.run_until_quiet();
    let l_fast = c.write(n(0), fast, WriteOp::replace(b"x"), None).unwrap().latency;
    let l_slow = c.write(n(0), slow, WriteOp::replace(b"x"), None).unwrap().latency;
    assert!(
        l_slow > l_fast * 2,
        "safety 3 ({l_slow}) should be much slower than safety 0 ({l_fast})"
    );
}

#[test]
fn update_cost_scales_with_file_group_not_cell_size() {
    // §3.2: "only the size of f's file group affects the speed of updates
    // to f." Same replication level, very different cell sizes.
    let mut small = cluster(3);
    let mut large = cluster(30);
    let mut msgs = Vec::new();
    for c in [&mut small, &mut large] {
        let seg = c.create(n(0)).unwrap().value;
        c.set_params(n(0), seg, FileParams { min_replicas: 3, ..FileParams::default() }).unwrap();
        c.run_until_quiet();
        c.write(n(0), seg, WriteOp::replace(b"warm"), None).unwrap();
        c.run_until_quiet();
        let before = c.net.stats().tag_count("update");
        for _ in 0..10 {
            c.write(n(0), seg, WriteOp::append(b"z"), None).unwrap();
        }
        msgs.push(c.net.stats().tag_count("update") - before);
    }
    assert_eq!(msgs[0], msgs[1], "update traffic independent of cell size");
}

/// The segment server enforces the segment size cap itself (`nfs` has its
/// own guard in front, but `Cluster::write` is public): an op whose
/// result would pass `MAX_SEGMENT` — even one whose end overflows `usize`
/// — is refused with an error, through both entry points, and leaves
/// token, versions, stability and contents exactly as they were.
#[test]
fn oversized_writes_are_refused_before_anything_changes() {
    use deceit_storage::MAX_SEGMENT;
    let mut c = cluster(3);
    let seg = c.create(n(0)).unwrap().value;
    let params = FileParams { min_replicas: 3, ..FileParams::default() };
    c.set_params(n(0), seg, params).unwrap();
    c.write(n(0), seg, WriteOp::replace(b"kept"), None).unwrap();
    c.run_until_quiet();
    let key = (seg, 0);
    let snapshot = |c: &Cluster| {
        let replicas: Vec<_> = (0..3).map(|s| c.server(n(s)).replicas.get(&key)).collect();
        let tokens: Vec<_> = (0..3).map(|s| c.server(n(s)).tokens.get(&key)).collect();
        (replicas, tokens)
    };
    let before = snapshot(&c);
    assert!(c.server(n(0)).holds_token(key));

    let oversized = [
        WriteOp::write_at(usize::MAX, b"x"),
        WriteOp::write_at(1 << 40, b"x"),
        WriteOp::write_at(MAX_SEGMENT, b"x"),
        WriteOp::append(&vec![0u8; MAX_SEGMENT + 1]),
        WriteOp::Truncate(MAX_SEGMENT + 1),
        WriteOp::Truncate(usize::MAX),
    ];
    let slot = c.slot_of(seg);
    for op in oversized {
        // Through a server that does not hold the token: it must not even
        // ask for it.
        for via in [n(0), n(1)] {
            let err = c.write(via, seg, op.clone(), None).unwrap_err();
            assert_eq!(err, DeceitError::SegmentTooBig(seg), "{op:?} via {via}");
            let err = c.write_sharded(&[slot], via, seg, op.clone(), None).unwrap_err();
            assert_eq!(err, DeceitError::SegmentTooBig(seg), "{op:?} via {via}, sharded");
        }
    }
    c.run_until_quiet();
    assert_eq!(snapshot(&c), before);

    // The cap itself is reachable; what only passes it from there (an
    // append, judged against the primary copy's length) is refused too.
    c.write(n(0), seg, WriteOp::Truncate(MAX_SEGMENT), None).unwrap();
    c.run_until_quiet();
    let full = snapshot(&c);
    for via in [n(0), n(1)] {
        let err = c.write(via, seg, WriteOp::append(b"x"), None).unwrap_err();
        assert_eq!(err, DeceitError::SegmentTooBig(seg));
        let err = c.write_sharded(&[slot], via, seg, WriteOp::append(b"x"), None).unwrap_err();
        assert_eq!(err, DeceitError::SegmentTooBig(seg));
    }
    let (replicas, _) = snapshot(&c);
    assert_eq!(replicas, full.0, "versions, stability and contents unchanged");
    let r = c.read(n(2), seg, None, 0, 8).unwrap().value;
    assert_eq!((&r.data()[..], r.segment_len()), (&b"kept\0\0\0\0"[..], MAX_SEGMENT));
}
