//! Holder-local read leases (`ClusterConfig::opt_read_leases`) and
//! targeted read-repair (`ClusterConfig::opt_read_repair`): the two
//! mechanisms that recover the lock-free read path for files under
//! active write streams. (The forced-stabilize replica selection of §3.6
//! is covered beside it, in `proto::read`'s unit tests.)

use deceit_core::{Cluster, ClusterConfig, FileParams, ReplicaState, SegmentId, Stat, WriteOp};
use deceit_net::NodeId;
use deceit_sim::SimTime;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// A 3-server cell with the live runtime's read optimizations on
/// (pipeline + leases + repair), one segment replicated 3×, settled.
fn leased_cell() -> (Cluster, SegmentId) {
    let cfg =
        ClusterConfig::deterministic().with_write_pipeline().with_read_leases().with_read_repair();
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { min_replicas: 3, ..FileParams::default() }).unwrap();
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"initial"), None).unwrap();
    c.run_until_quiet();
    (c, seg)
}

// ---------------------------------------------------------------------
// Holder-local read leases
// ---------------------------------------------------------------------

/// What a forwarded read charges, read off the cell: `forward` messages,
/// read repairs armed, the protocol clock, and the reader's served count.
fn charges(c: &Cluster, reader: NodeId) -> (u64, u64, SimTime, u64) {
    (
        c.net.stats().tag_count("forward"),
        c.obs.count(Stat::RepairsScheduled),
        c.now(),
        c.server(reader).ops_served.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// During a write stream the token holder's replica is unstable, yet the
/// lock-free fast path serves it — against the published lease, at the
/// acked durable prefix, byte-for-byte what the full read path returns.
/// A non-holder's read still forwards to the holder (§3.4) and pays for
/// it, but the holder's lease answers it without ring locks.
#[test]
fn lease_serves_holders_unstable_file_lock_free() {
    let (mut c, seg) = leased_cell();
    let key = (seg, 0u64);
    c.write(n(0), seg, WriteOp::replace(b"mid-stream state"), None).unwrap();

    // The stream is active: the holder's replica is unstable and the
    // lease names exactly the acked version.
    let holder = c.server(n(0)).replicas.get(&key).unwrap();
    assert_eq!(holder.state, ReplicaState::Unstable);
    assert_eq!(c.read_lease_version(n(0), key), Some(holder.version));

    let fast = c.try_read_local(n(0), seg, None, 0, 64).expect("lease must serve the holder");
    assert_eq!(&fast.value.data()[..], b"mid-stream state");
    assert_eq!(fast.value.version, holder.version);

    // Non-holders' replicas are unstable and they have no lease: each
    // read forwards to the holder's lease — one charged exchange, the
    // clock advanced by what the read reports, and no repair armed: a
    // lease exists only mid-stream, where a repair stands down and the
    // §3.4 stabilize round owns catch-up.
    for s in [n(1), n(2)] {
        assert_eq!(c.server(s).replicas.get(&key).unwrap().state, ReplicaState::Unstable);
        let (msgs, repairs, clock, served) = charges(&c, s);
        let fwd = c.try_read_local(s, seg, None, 0, 64).expect("the holder's lease answers");
        assert_eq!(&fwd.value.data()[..], b"mid-stream state");
        assert_eq!(fwd.value.version, holder.version);
        assert_eq!(fwd.value.served_by, n(0));
        assert!(fwd.latency > c.cfg.local_read, "a forward costs a round trip");
        assert_eq!(charges(&c, s), (msgs + 2, repairs, clock + fwd.latency, served + 1));
    }

    // The full (exclusive) path agrees byte for byte.
    let slow = c.read(n(0), seg, None, 0, 64).unwrap();
    assert_eq!(fast.value.data(), slow.value.data());
    let slow = c.read(n(1), seg, None, 0, 64).unwrap();
    assert_eq!(fast.value.data(), slow.value.data());
}

/// A forward the lease cannot answer declines having charged nothing, so
/// the full path that follows charges it exactly once: the holder split
/// away from the reader, leases off, the §2.1 forward from a server with
/// no replica (a group join, which stays on the full path), and a holder
/// whose own lease its replica has moved past (counted as a lease
/// validation failure).
#[test]
fn declined_forwards_charge_nothing() {
    let declines = |c: &Cluster, via: NodeId, seg: SegmentId| {
        let before = charges(c, via);
        assert!(c.try_read_local(via, seg, None, 0, 64).is_none(), "via server {via:?}");
        assert_eq!(charges(c, via), before, "a declined read must charge nothing");
    };

    // The holder unreachable from the reader.
    let (mut c, seg) = leased_cell();
    c.write(n(0), seg, WriteOp::replace(b"split away"), None).unwrap();
    c.split(&[&[n(0)], &[n(1), n(2)]]);
    declines(&c, n(1), seg);

    // Leases off: the holder publishes none to forward to.
    let cfg = ClusterConfig::deterministic().with_write_pipeline().with_read_repair();
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { min_replicas: 3, ..FileParams::default() }).unwrap();
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"no lease"), None).unwrap();
    assert_eq!(c.server(n(1)).replicas.get(&(seg, 0)).unwrap().state, ReplicaState::Unstable);
    declines(&c, n(1), seg);

    // No replica at the reader, though the holder's lease would answer.
    let (mut c, _) = leased_cell();
    let pair = c.create(n(0)).unwrap().value;
    c.set_params(n(0), pair, FileParams { min_replicas: 2, ..FileParams::default() }).unwrap();
    c.run_until_quiet();
    c.write(n(0), pair, WriteOp::replace(b"settled"), None).unwrap();
    c.run_until_quiet();
    c.write(n(0), pair, WriteOp::replace(b"two copies"), None).unwrap();
    let key = (pair, *c.server(n(0)).majors_of(pair).last().unwrap());
    assert!(c.read_lease_version(n(0), key).is_some());
    let bare = [n(1), n(2)].into_iter().find(|&s| c.server(s).replicas.get(&key).is_none());
    declines(&c, bare.expect("one server without a replica"), pair);

    // The holder's own lease stale: with stability turned off mid-stream,
    // the next write advances the still-unstable replica but no lease.
    let (mut c, seg) = leased_cell();
    c.write(n(0), seg, WriteOp::replace(b"leased"), None).unwrap();
    let unstable = FileParams { min_replicas: 3, stability: false, ..FileParams::default() };
    c.set_params(n(0), seg, unstable).unwrap();
    c.write(n(0), seg, WriteOp::replace(b"past the lease"), None).unwrap();
    let key = (seg, 0u64);
    let replica = c.server(n(0)).replicas.get(&key).unwrap();
    assert_eq!(replica.state, ReplicaState::Unstable);
    assert_ne!(c.read_lease_version(n(0), key), Some(replica.version), "the lease is stale");
    let failures = c.obs.count(Stat::LeaseValidationFailures);
    declines(&c, n(0), seg);
    assert_eq!(c.obs.count(Stat::LeaseValidationFailures), failures + 1);
}

/// The lease is strictly opt-in: with the paper-faithful default, the
/// fast path declines the holder's unstable file exactly as before.
#[test]
fn lease_requires_opt_in() {
    let mut c = Cluster::new(3, ClusterConfig::deterministic().with_write_pipeline());
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { min_replicas: 3, ..FileParams::default() }).unwrap();
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"no lease"), None).unwrap();
    assert_eq!(c.read_lease_version(n(0), (seg, 0)), None);
    assert!(c.try_read_local(n(0), seg, None, 0, 64).is_none());
}

/// Every lease-served read observes exactly the acked prefix of the
/// stream: after each acked write, the fast path returns precisely the
/// bytes acked so far — never a torn or stale intermediate.
#[test]
fn reads_during_stream_return_only_acked_prefixes() {
    let (mut c, seg) = leased_cell();
    let mut expect = b"initial".to_vec();
    for i in 0..12 {
        let chunk = format!("[w{i}]").into_bytes();
        c.write(n(0), seg, WriteOp::append(&chunk), None).unwrap();
        expect.extend_from_slice(&chunk);
        let read = c.try_read_local(n(0), seg, None, 0, 4096).expect("lease serves the stream");
        assert_eq!(
            read.value.data().to_vec(),
            expect,
            "read after write {i} is not the acked prefix"
        );
    }
}

/// Stabilize retires the lease: once the stream goes quiet and the group
/// is marked stable, the lease is gone and the ordinary stable path
/// serves every replica.
#[test]
fn lease_invalidated_on_stabilize() {
    let (mut c, seg) = leased_cell();
    let key = (seg, 0u64);
    c.write(n(0), seg, WriteOp::replace(b"quiet soon"), None).unwrap();
    assert!(c.read_lease_version(n(0), key).is_some());

    c.run_until_quiet();
    assert_eq!(c.read_lease_version(n(0), key), None, "stabilize must retire the lease");
    for s in [n(0), n(1), n(2)] {
        assert_eq!(c.server(s).replicas.get(&key).unwrap().state, ReplicaState::Stable);
        let read = c.try_read_local(s, seg, None, 0, 64).expect("stable path serves");
        assert_eq!(&read.value.data()[..], b"quiet soon");
    }
}

/// Token movement revokes the lease at the old holder before the token
/// leaves, and the new holder publishes its own on its next write — which
/// is where the old holder's reads now forward.
#[test]
fn lease_invalidated_on_token_movement() {
    let (mut c, seg) = leased_cell();
    let key = (seg, 0u64);
    c.write(n(0), seg, WriteOp::replace(b"holder zero"), None).unwrap();
    assert!(c.read_lease_version(n(0), key).is_some());

    // A write via server 1 moves the token there mid-stream.
    c.write(n(1), seg, WriteOp::replace(b"holder one"), None).unwrap();
    assert!(c.server(n(1)).holds_token(key));

    assert_eq!(c.read_lease_version(n(0), key), None, "old holder's lease must be revoked");
    let read = c.try_read_local(n(1), seg, None, 0, 64).expect("new holder's lease serves");
    assert_eq!(&read.value.data()[..], b"holder one");
    let old = c.try_read_local(n(0), seg, None, 0, 64).expect("old holder forwards to the new");
    assert_eq!(&old.value.data()[..], b"holder one");
    assert_eq!(old.value.served_by, n(1));
}

/// The lease is volatile: a holder crash erases it with the rest of the
/// volatile state, and recovery re-stabilizes the group from the durable
/// primary — after which the ordinary stable path serves again.
#[test]
fn lease_dies_with_the_holder() {
    let (mut c, seg) = leased_cell();
    let key = (seg, 0u64);
    c.write(n(0), seg, WriteOp::replace(b"acked then crashed"), None).unwrap();
    assert!(c.read_lease_version(n(0), key).is_some());

    c.crash_server(n(0));
    assert_eq!(c.read_lease_version(n(0), key), None, "the lease is volatile");
    assert!(c.try_read_local(n(0), seg, None, 0, 64).is_none(), "a crashed server never serves");

    c.recover_server(n(0));
    c.run_until_quiet();
    assert_eq!(c.read_lease_version(n(0), key), None);
    let read = c.try_read_local(n(0), seg, None, 0, 64).expect("stable after recovery");
    assert_eq!(&read.value.data()[..], b"acked then crashed");
}

/// Every teardown path leaves no server publishing a lease on a key of
/// `keys` whose token it does not hold: a lease outliving its token would
/// serve reads for a file the server no longer writes.
fn assert_leases_follow_tokens(c: &Cluster, keys: &[(SegmentId, u64)]) {
    for s in [n(0), n(1), n(2)] {
        for &key in keys {
            let orphan = c.read_lease_version(s, key).is_some() && !c.server(s).holds_token(key);
            assert!(!orphan, "{s:?} publishes a lease on {key:?} without its token");
        }
    }
}

/// Segment delete tears the file down at every member it reaches, leases
/// included.
#[test]
fn lease_dies_with_its_segment() {
    let (mut c, seg) = leased_cell();
    c.write(n(0), seg, WriteOp::replace(b"doomed"), None).unwrap();
    assert!(c.read_lease_version(n(0), (seg, 0)).is_some());
    c.delete(n(1), seg).unwrap();
    assert_eq!(c.read_lease_version(n(0), (seg, 0)), None);
    assert_leases_follow_tokens(&c, &[(seg, 0)]);
}

/// Deleting a version deletes its token at every holder, reachable from
/// `via` or not — and with it the lease of a holder `via` cannot reach.
#[test]
fn lease_dies_with_its_version_beyond_a_partition() {
    let (mut c, seg) = leased_cell();
    let key = (seg, 0u64);
    c.write(n(0), seg, WriteOp::replace(b"holder split away"), None).unwrap();
    assert!(c.read_lease_version(n(0), key).is_some());
    c.split(&[&[n(0)], &[n(1), n(2)]]);
    c.delete_version(n(1), seg, 0).unwrap();
    assert!(!c.server(n(0)).holds_token(key), "the version's token is gone everywhere");
    assert_leases_follow_tokens(&c, &[key]);
}

/// LRU retirement deletes idle extras, never the holder's copy, and
/// leaves the holder's lease standing beside its token.
#[test]
fn lease_survives_lru_retirement_of_the_extras() {
    let mut cfg = ClusterConfig::deterministic().with_read_leases();
    cfg.lru_keep = deceit_sim::SimDuration::from_secs(1);
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    let params = FileParams { min_replicas: 1, migration: true, ..FileParams::default() };
    c.set_params(n(0), seg, params).unwrap();
    c.write(n(0), seg, WriteOp::replace(b"popular"), None).unwrap();
    c.read(n(1), seg, None, 0, 100).unwrap();
    c.read(n(2), seg, None, 0, 100).unwrap();
    c.run_until_quiet();
    assert_eq!(c.locate_replicas(n(0), seg).unwrap().value.len(), 3);
    c.advance(deceit_sim::SimDuration::from_secs(10));
    let retired = c.obs.count(Stat::ReplicasRetired);
    c.write(n(0), seg, WriteOp::replace(b"update"), None).unwrap();
    assert!(c.obs.count(Stat::ReplicasRetired) > retired, "the update retired the extras");
    assert!(c.read_lease_version(n(0), (seg, 0)).is_some());
    assert_leases_follow_tokens(&c, &[(seg, 0)]);
}

/// Reconciliation at heal destroys a version a newer one descends from —
/// at its holder too, whose stream was still leased when the partition
/// cut it off.
#[test]
fn lease_dies_with_an_obsolete_version_at_heal() {
    let (mut c, seg) = leased_cell();
    c.write(n(0), seg, WriteOp::replace(b"before the split"), None).unwrap();
    // The stream reaches every replica, but stays unstable and leased.
    c.advance(deceit_sim::SimDuration::from_millis(100));
    c.split(&[&[n(0)], &[n(1), n(2)]]);
    c.write(n(1), seg, WriteOp::replace(b"the majority's"), None).unwrap();
    let newer = *c.server(n(1)).majors_of(seg).last().unwrap();
    assert_ne!(newer, 0, "the majority side generated a new version");
    assert!(c.read_lease_version(n(0), (seg, 0)).is_some(), "the old holder's stream is leased");
    c.heal();
    assert!(!c.server(n(0)).holds_token((seg, 0)), "the obsolete version is destroyed");
    assert_leases_follow_tokens(&c, &[(seg, 0), (seg, newer)]);
}

// ---------------------------------------------------------------------
// Read-repair
// ---------------------------------------------------------------------

/// Builds the laggard scenario: server 2 is marked unstable by the
/// stream's first write, then transiently unreachable through the
/// propagation drain *and* the stabilize round, then reachable again —
/// lagging, unstable, with nothing pending to ever catch it up.
fn orphaned_laggard() -> (Cluster, SegmentId) {
    let (mut c, seg) = leased_cell();
    c.write(n(0), seg, WriteOp::replace(b"stream v1"), None).unwrap();
    assert_eq!(
        c.server(n(2)).replicas.get(&(seg, 0)).unwrap().state,
        ReplicaState::Unstable,
        "the unstable round must have reached server 2 before it drops out"
    );
    c.split(&[&[n(0), n(1)], &[n(2)]]);
    c.write(n(0), seg, WriteOp::append(b" + v2"), None).unwrap();
    // Propagation and the stabilize round both run while 2 is cut off.
    c.run_until_quiet();
    // Transport-level heal only: this models transient unreachability
    // that never escalated to the §3.6 reconciliation a real partition
    // heal performs — exactly the window where reads used to forward
    // forever.
    c.net.heal();
    let laggard = c.server(n(2)).replicas.get(&(seg, 0)).unwrap();
    assert_eq!(laggard.state, ReplicaState::Unstable, "the stabilize round must have missed 2");
    assert_eq!(&laggard.data.contents()[..], b"initial", "2 must have missed every batch");
    (c, seg)
}

/// A read that meets the laggard forwards (correct bytes immediately),
/// queues exactly one repair however many reads pile on, and after the
/// repair fires the laggard is caught up, stable, and locally servable.
#[test]
fn read_repair_catches_up_laggard_after_missed_stabilize() {
    let (mut c, seg) = orphaned_laggard();
    let key = (seg, 0u64);

    // Reads at the laggard forward to the holder — right bytes, wrong
    // path — and arm one single-flighted repair.
    let r = c.read(n(2), seg, None, 0, 64).unwrap();
    assert_eq!(&r.value.data()[..], b"stream v1 + v2");
    assert_eq!(c.obs.count(Stat::RepairsScheduled), 1);
    let r = c.read(n(2), seg, None, 0, 64).unwrap();
    assert_eq!(&r.value.data()[..], b"stream v1 + v2");
    assert_eq!(c.obs.count(Stat::RepairsScheduled), 1, "repairs are single-flighted");

    // The deferred repair state-transfers the laggard from the durable
    // primary and marks it stable.
    c.run_until_quiet();
    assert_eq!(c.obs.count(Stat::Repairs), 1);
    let repaired = c.server(n(2)).replicas.get(&key).unwrap();
    assert_eq!(repaired.state, ReplicaState::Stable);
    assert_eq!(&repaired.data.contents()[..], b"stream v1 + v2");

    // The lock-free path is recovered: no more forwarding.
    let fast = c.try_read_local(n(2), seg, None, 0, 64).expect("repaired replica serves locally");
    assert_eq!(&fast.value.data()[..], b"stream v1 + v2");
    let forwarded_before = c.obs.count(Stat::ReadsForwardedUnstable);
    let _ = c.read(n(2), seg, None, 0, 64).unwrap();
    assert_eq!(c.obs.count(Stat::ReadsForwardedUnstable), forwarded_before);
}

/// Without the opt flag the laggard stays unstable indefinitely and
/// every read keeps forwarding — the pre-repair behavior this PR closes.
#[test]
fn without_read_repair_laggard_forwards_forever() {
    let cfg = ClusterConfig::deterministic().with_write_pipeline();
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { min_replicas: 3, ..FileParams::default() }).unwrap();
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"stream v1"), None).unwrap();
    c.split(&[&[n(0), n(1)], &[n(2)]]);
    c.write(n(0), seg, WriteOp::append(b" + v2"), None).unwrap();
    c.run_until_quiet();
    c.net.heal();

    for _ in 0..3 {
        let r = c.read(n(2), seg, None, 0, 64).unwrap();
        assert_eq!(&r.value.data()[..], b"stream v1 + v2");
    }
    c.run_until_quiet();
    assert_eq!(c.obs.count(Stat::RepairsScheduled), 0);
    assert_eq!(
        c.server(n(2)).replicas.get(&(seg, 0)).unwrap().state,
        ReplicaState::Unstable,
        "without repair the laggard waits for a stabilize round that never comes"
    );
}

/// Mid-stream the repair stands down: the group is deliberately unstable
/// while updates flow, and the stabilize round owns the stream's end. A
/// repair that fired early must not mark anything stable.
#[test]
fn read_repair_defers_while_stream_active() {
    let (mut c, seg) = leased_cell();
    let key = (seg, 0u64);
    c.write(n(0), seg, WriteOp::replace(b"still streaming"), None).unwrap();

    // A read via a (current-stream, unstable) member forwards and arms
    // a repair.
    let r = c.read(n(1), seg, None, 0, 64).unwrap();
    assert_eq!(&r.value.data()[..], b"still streaming");
    assert_eq!(c.obs.count(Stat::RepairsScheduled), 1);

    // Advance just past the repair's damping window — well short of the
    // stability timeout, so the stream is still formally active.
    c.advance(c.cfg.lazy_apply_delay + c.cfg.lazy_apply_delay);
    assert_eq!(c.obs.count(Stat::Repairs), 0, "mid-stream repair must stand down");
    assert_eq!(c.server(n(1)).replicas.get(&key).unwrap().state, ReplicaState::Unstable);

    // The stream's own stabilize round — not the repair — finishes it.
    c.run_until_quiet();
    assert_eq!(c.obs.count(Stat::Repairs), 0);
    assert_eq!(c.server(n(1)).replicas.get(&key).unwrap().state, ReplicaState::Stable);
}
