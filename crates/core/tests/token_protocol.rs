//! Focused tests of the token protocol, including the §3.3 optimizations
//! and their interaction with failures.

use deceit_core::{
    Cluster, ClusterConfig, DeceitError, FileParams, SegmentId, Stat, WriteAvailability, WriteOp,
};
use deceit_net::NodeId;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

fn fixture(cfg: ClusterConfig) -> (Cluster, SegmentId) {
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(
        n(0),
        seg,
        FileParams { min_replicas: 3, stability: false, ..FileParams::default() },
    )
    .unwrap();
    c.write(n(0), seg, WriteOp::replace(b"base"), None).unwrap();
    c.run_until_quiet();
    (c, seg)
}

#[test]
fn piggyback_acquisition_saves_request_round() {
    let mut plain_cfg = ClusterConfig::deterministic();
    let mut piggy_cfg = plain_cfg.clone();
    piggy_cfg.opt_piggyback_acquire = true;
    let mut msgs = Vec::new();
    for cfg in [plain_cfg.clone(), piggy_cfg] {
        let (mut c, seg) = fixture(cfg);
        let before = c.net.stats().tag_count("token-request");
        c.write(n(1), seg, WriteOp::replace(b"move"), None).unwrap();
        msgs.push(c.net.stats().tag_count("token-request") - before);
        // Correctness identical: contents converge.
        c.run_until_quiet();
        let r = c.read(n(2), seg, None, 0, 16).unwrap().value;
        assert_eq!(&r.data()[..], b"move");
    }
    assert!(msgs[0] > 0, "plain acquisition uses a request round");
    assert_eq!(msgs[1], 0, "piggybacked acquisition sends no request messages");
    let _ = &mut plain_cfg;
}

#[test]
fn forward_small_keeps_token_parked() {
    let mut cfg = ClusterConfig::deterministic();
    cfg.opt_forward_small = true;
    let (mut c, seg) = fixture(cfg);
    for i in 0..6 {
        let via = n(i % 3);
        c.write(via, seg, WriteOp::replace(format!("w{i}").as_bytes()), None).unwrap();
    }
    assert!(c.server(n(0)).holds_token((seg, 0)), "token never moved");
    assert_eq!(c.obs.count(Stat::TokenPasses), 0);
    assert!(c.obs.count(Stat::UpdatesForwarded) >= 4);
    c.run_until_quiet();
    let r = c.read(n(2), seg, None, 0, 16).unwrap().value;
    assert_eq!(&r.data()[..], b"w5");
}

#[test]
fn forward_small_ignores_large_updates() {
    let mut cfg = ClusterConfig::deterministic();
    cfg.opt_forward_small = true;
    cfg.forward_small_threshold = 64;
    let (mut c, seg) = fixture(cfg);
    // A large write moves the token as usual.
    let big = vec![0u8; 4096];
    c.write(n(1), seg, WriteOp::Replace(big.into()), None).unwrap();
    assert!(c.server(n(1)).holds_token((seg, 0)), "large update moved the token");
    assert_eq!(c.obs.count(Stat::UpdatesForwarded), 0);
}

#[test]
fn forward_small_falls_back_when_holder_dead() {
    let mut cfg = ClusterConfig::deterministic();
    cfg.opt_forward_small = true;
    let (mut c, seg) = fixture(cfg);
    c.crash_server(n(0));
    // No reachable holder: the write falls through to the normal path and
    // generates a new token (majority of 3 reachable).
    let v = c.write(n(1), seg, WriteOp::replace(b"regenerated"), None).unwrap().value;
    assert_ne!(v.major, 0);
    assert!(c.server(n(1)).holds_token((seg, v.major)));
}

#[test]
fn conditional_write_checked_at_forward_target() {
    let mut cfg = ClusterConfig::deterministic();
    cfg.opt_forward_small = true;
    let (mut c, seg) = fixture(cfg);
    let v = c.read(n(1), seg, None, 0, 16).unwrap().value.version;
    // Another client's forwarded write bumps the version at the holder.
    c.write(n(2), seg, WriteOp::replace(b"sneak"), None).unwrap();
    let err = c.write(n(1), seg, WriteOp::replace(b"stale"), Some(v)).unwrap_err();
    assert!(matches!(err, DeceitError::VersionConflict { .. }));
}

#[test]
fn optimizations_respect_availability_policy() {
    // Medium availability + partition: the forwarded write cannot bypass
    // the majority rule, because the check runs at the token holder.
    let mut cfg = ClusterConfig::deterministic();
    cfg.opt_forward_small = true;
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(
        n(0),
        seg,
        FileParams {
            min_replicas: 3,
            availability: WriteAvailability::Medium,
            stability: false,
            ..FileParams::default()
        },
    )
    .unwrap();
    c.write(n(0), seg, WriteOp::replace(b"base"), None).unwrap();
    c.run_until_quiet();
    c.split(&[&[n(0)], &[n(1), n(2)]]);
    // Forwarding to the minority-side holder is reachable only from its
    // own side — and the holder's token is disabled there.
    let err = c.write(n(0), seg, WriteOp::replace(b"x"), None).unwrap_err();
    assert!(matches!(err, DeceitError::WriteUnavailable(_)));
}

#[test]
fn token_survives_holder_crash_and_recovery() {
    // The token is non-volatile (§3.5): after crash + recovery with no
    // competing version, the original holder still holds it.
    let (mut c, seg) = fixture(ClusterConfig::deterministic());
    assert!(c.server(n(0)).holds_token((seg, 0)));
    c.crash_server(n(0));
    c.recover_server(n(0));
    c.run_until_quiet();
    assert!(c.server(n(0)).holds_token((seg, 0)), "token state is durable");
    c.write(n(0), seg, WriteOp::replace(b"after"), None).unwrap();
    assert_eq!(c.obs.count(Stat::TokenGenerated), 0);
}

/// A file written once via server 0, which holds its token, kept at
/// `min_replicas`, with §3.3 optimization 2 on at the default threshold.
fn forwarding_fixture(min_replicas: usize) -> (Cluster, SegmentId) {
    let mut cfg = ClusterConfig::deterministic();
    cfg.opt_forward_small = true;
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, FileParams { min_replicas, stability: false, ..FileParams::default() })
        .unwrap();
    c.write(n(0), seg, WriteOp::replace(b"base"), None).unwrap();
    c.run_until_quiet();
    (c, seg)
}

#[test]
fn forward_gate_a_replica_holder_forwards() {
    let (mut c, seg) = forwarding_fixture(2);
    let (with, without) = match c.server(n(1)).has_segment(seg) {
        true => (n(1), n(2)),
        false => (n(2), n(1)),
    };
    assert!(!c.server(without).has_segment(seg), "two replicas: {with:?} and the holder");
    let passes = c.obs.count(Stat::TokenPasses);
    let forwarded = c.obs.count(Stat::UpdatesForwarded);
    c.write(with, seg, WriteOp::replace(b"from a replica holder"), None).unwrap();
    assert_eq!(c.obs.count(Stat::TokenPasses), passes, "the token stayed parked");
    assert_eq!(c.obs.count(Stat::UpdatesForwarded), forwarded + 1);
    assert!(c.server(n(0)).holds_token((seg, 0)));
    c.run_until_quiet();
    assert!(c.server(n(0)).has_segment(seg) && c.server(with).has_segment(seg), "both stay");
    assert!(!c.server(without).has_segment(seg));
    let r = c.read(with, seg, None, 0, 64).unwrap().value;
    assert_eq!(&r.data()[..], b"from a replica holder");
}

#[test]
fn forward_gate_a_server_without_a_replica_takes_the_token() {
    let (mut c, seg) = forwarding_fixture(1);
    assert!(!c.server(n(1)).has_segment(seg));
    let passes = c.obs.count(Stat::TokenPasses);
    c.write(n(1), seg, WriteOp::replace(b"moved"), None).unwrap();
    assert_eq!(c.obs.count(Stat::TokenPasses), passes + 1);
    assert_eq!(c.obs.count(Stat::UpdatesForwarded), 0);
    assert!(c.server(n(1)).holds_token((seg, 0)) && c.server(n(1)).has_segment(seg));
    // From here on, the old holder is a replica holder: its next small
    // write is forwarded, and the token stays where it went.
    c.write(n(0), seg, WriteOp::replace(b"back"), None).unwrap();
    assert_eq!(c.obs.count(Stat::TokenPasses), passes + 1);
    assert_eq!(c.obs.count(Stat::UpdatesForwarded), 1);
}

#[test]
fn forward_gate_a_write_above_the_threshold_takes_the_token() {
    let (mut c, seg) = forwarding_fixture(3);
    let threshold = ClusterConfig::default().forward_small_threshold;
    let big = WriteOp::Replace(vec![7u8; threshold + 1].into());
    assert!(big.wire_size() > threshold);
    c.write(n(1), seg, big, None).unwrap();
    assert!(c.server(n(1)).holds_token((seg, 0)), "a large update moved the token");
    assert_eq!(c.obs.count(Stat::TokenPasses), 1);
    assert_eq!(c.obs.count(Stat::UpdatesForwarded), 0);
}

/// A forwarded write charges the §3.2 search its server made to find the
/// file group: a replica holder that is out of the group's view and
/// whose volatile location cache a crash emptied must search the cell
/// before it knows where the token holder is.
#[test]
fn a_cold_cache_forward_charges_the_search_round() {
    let (mut c, seg) = forwarding_fixture(3);
    c.crash_server(n(1));
    c.recover_server(n(1));
    c.run_until_quiet();
    let gid = c.groups.lookup(&format!("file:{}", seg.0)).expect("file group");
    c.groups.leave(gid, n(1)).expect("leave the view");

    let searches = c.net.stats().tag_count("locate");
    let cold = c.write(n(1), seg, WriteOp::replace(b"cold"), None).unwrap().latency;
    assert!(c.net.stats().tag_count("locate") > searches, "the cold cache searched the cell");
    let searches = c.net.stats().tag_count("locate");
    let warm = c.write(n(1), seg, WriteOp::replace(b"warm"), None).unwrap().latency;
    assert_eq!(c.net.stats().tag_count("locate"), searches, "the search filled the cache");
    assert_eq!(c.obs.count(Stat::UpdatesForwarded), 2);
    // Fixed 2 ms links: the search round is at least one 4 ms round trip.
    let round = deceit_sim::SimDuration::from_millis(4);
    assert!(cold >= warm + round, "cold {cold:?} vs warm {warm:?}: the search time was dropped");
}
