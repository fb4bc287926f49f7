//! Access-driven replica placement (`ClusterConfig::opt_placement`):
//! forwarded reads feed always-on access counters; a server that keeps
//! serving remote reads for a file gets a replica migrated to it, and
//! idle extras retire down to the `FileParams::min_replicas` floor —
//! never through it, even when crashes thin the holder set.

use deceit_core::{Cluster, ClusterConfig, FileParams, ProtocolHost, SegmentId, Stat, WriteOp};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// A 3-server cell: one file created and written at server 0, replicated
/// to `min_replicas` servers (the fill picks the least-loaded, so the
/// second copy lands on server 1), settled. Server 2 starts with no
/// replica — its reads forward, which is the placement signal.
fn cell(cfg: ClusterConfig, min_replicas: usize) -> (Cluster, SegmentId) {
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { min_replicas, ..FileParams::default() }).unwrap();
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"placement seed"), None).unwrap();
    c.run_until_quiet();
    (c, seg)
}

/// Reads `key`'s file via `via` until the access counter crosses the
/// placement threshold.
fn read_past_threshold(c: &mut Cluster, seg: SegmentId, via: NodeId) {
    for _ in 0..c.cfg.placement_threshold + 2 {
        c.read(via, seg, None, 0, 64).expect("forwarded read");
    }
}

/// The tentpole end to end: server 2 keeps serving forwarded reads, so
/// the deferred migration grows it a replica — and from then on its
/// reads ride the lock-free local path instead of forwarding.
#[test]
fn repeated_forwarded_reads_migrate_a_replica_to_the_reader() {
    let (mut c, seg) = cell(ClusterConfig::deterministic().with_placement(), 1);
    let key = (seg, 0u64);
    assert!(!c.server(n(2)).replicas.contains(&key));
    assert!(c.try_read_local(n(2), seg, None, 0, 64).is_none(), "no local replica yet");

    read_past_threshold(&mut c, seg, n(2));
    c.run_until_quiet();

    assert!(c.server(n(2)).replicas.contains(&key), "migration grew the reader a replica");
    let snap = c.obs.placement_snapshot();
    assert_eq!(snap.migrations_proposed, 1);
    assert_eq!(snap.migrations_executed, 1);
    let fast = c.try_read_local(n(2), seg, None, 0, 64).expect("local stable path serves now");
    assert_eq!(&fast.value.data()[..], b"placement seed");
}

/// Placement activity lands in the one counter table every exporter
/// reads: the snapshot a host hands out names each placement counter
/// with the value the placement record shows.
#[test]
fn placement_counts_reach_the_exported_table() {
    let (mut c, seg) = cell(ClusterConfig::deterministic().with_placement(), 1);
    read_past_threshold(&mut c, seg, n(2));
    c.run_until_quiet();
    assert!(c.server(n(2)).replicas.contains(&(seg, 0u64)), "placement fired");
    let snap = c.obs.placement_snapshot();
    assert_eq!(snap.migrations_executed, 1);
    let table = c.stats_snapshot().expect("a cluster exports its counters");
    assert_eq!(table.get(Stat::MigrationsExecuted.name()), Some(snap.migrations_executed));
    assert_eq!(table.get(Stat::MigrationsProposed.name()), Some(snap.migrations_proposed));
    assert_eq!(table.get(Stat::ReplicasRetired.name()), Some(snap.replicas_retired));
}

/// Placement is strictly opt-in: with the paper-faithful default the
/// counters still record (always-on signal), but no migration is ever
/// proposed and the reader keeps forwarding.
#[test]
fn placement_requires_opt_in() {
    let (mut c, seg) = cell(ClusterConfig::deterministic(), 1);
    let key = (seg, 0u64);
    read_past_threshold(&mut c, seg, n(2));
    c.run_until_quiet();
    assert!(!c.server(n(2)).replicas.contains(&key), "no migration without opt_placement");
    let snap = c.obs.placement_snapshot();
    assert_eq!(snap.migrations_proposed, 0);
    assert!(
        c.obs.placement.remote_reads(n(2), seg, 0) >= c.cfg.placement_threshold,
        "the access signal records regardless — only the policy is opt-in"
    );
}

/// A burst of forwarded reads schedules exactly one migration: the
/// single-flight claim absorbs every crossing after the first.
#[test]
fn migration_is_single_flighted() {
    let (mut c, seg) = cell(ClusterConfig::deterministic().with_placement(), 1);
    for _ in 0..40 {
        c.read(n(2), seg, None, 0, 64).unwrap();
    }
    assert_eq!(c.obs.placement_snapshot().migrations_proposed, 1, "one claim per placement");
    assert_eq!(c.obs.count(Stat::MigrationsProposed), 1);
    c.run_until_quiet();
    let snap = c.obs.placement_snapshot();
    assert_eq!(snap.migrations_executed, 1);
    // Served locally now: further reads neither count nor re-propose.
    for _ in 0..40 {
        c.read(n(2), seg, None, 0, 64).unwrap();
    }
    assert_eq!(c.obs.placement_snapshot().migrations_proposed, 1);
}

/// A migration that comes due mid-write-stream waits the stream out
/// (re-queuing under its single-flight claim) instead of copying a
/// replica that would lag by the next buffered update.
#[test]
fn migration_waits_out_an_active_write_stream() {
    let (mut c, seg) = cell(ClusterConfig::deterministic().with_placement(), 1);
    let key = (seg, 0u64);
    // Open a write stream, then cross the threshold while it is active.
    c.write(n(0), seg, WriteOp::append(b" mid-stream"), None).unwrap();
    read_past_threshold(&mut c, seg, n(2));
    assert_eq!(c.obs.placement_snapshot().migrations_proposed, 1);

    // Past the damping window but short of the stability horizon: the
    // migration has fired at least once and stood down each time.
    c.advance(c.cfg.lazy_apply_delay * 4);
    assert!(!c.server(n(2)).replicas.contains(&key), "no copy while the stream is active");
    assert_eq!(c.obs.placement_snapshot().migrations_executed, 0);

    // Quiet: the stream stabilizes, then the parked migration lands.
    c.run_until_quiet();
    assert!(c.server(n(2)).replicas.contains(&key));
    let snap = c.obs.placement_snapshot();
    assert_eq!(snap.migrations_proposed, 1, "the parked claim was never re-proposed");
    assert_eq!(snap.migrations_executed, 1);
}

/// The retire half: once the reader serves locally, the replica nobody
/// reads is deleted in LRU order — down to the floor, never through it.
#[test]
fn migration_retires_the_idle_replica_down_to_the_floor() {
    let mut cfg = ClusterConfig::deterministic().with_placement();
    cfg.lru_keep = SimDuration::from_millis(1);
    let (mut c, seg) = cell(cfg, 2);
    let key = (seg, 0u64);
    assert!(c.server(n(1)).replicas.contains(&key), "the fill placed the second copy on 1");

    // Let server 1's copy go idle, then pull the file toward server 2.
    c.advance(SimDuration::from_millis(10));
    read_past_threshold(&mut c, seg, n(2));
    c.run_until_quiet();

    assert!(c.server(n(2)).replicas.contains(&key), "migrated toward the reader");
    assert!(!c.server(n(1)).replicas.contains(&key), "the idle copy retired");
    let snap = c.obs.placement_snapshot();
    assert_eq!(snap.migrations_executed, 1);
    assert!(snap.replicas_retired >= 1);
    let holders =
        [n(0), n(1), n(2)].iter().filter(|&&s| c.server(s).replicas.contains(&key)).count();
    assert_eq!(holders, 2, "exactly the floor remains");
}

/// The floor invariant under a crash: when a crash thins the reachable
/// holders to the floor, an idle survivor is vetoed, not retired — the
/// replication floor always wins over the LRU window.
#[test]
fn floor_vetoes_retirement_when_a_crash_thins_the_holders() {
    let mut cfg = ClusterConfig::deterministic().with_placement();
    // Wide enough that the migration's own retire pass finds nothing
    // idle yet (the stabilize horizon alone jumps the clock ~500ms);
    // the idleness develops only after the crash below.
    cfg.lru_keep = SimDuration::from_secs(1);
    let (mut c, seg) = cell(cfg, 2);
    let key = (seg, 0u64);

    // Grow the third copy, then lose it to a crash.
    read_past_threshold(&mut c, seg, n(2));
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
