//! The Figure 5 experiment, end to end through the NFS envelope.
//!
//! "Client c1 appends to x and then appends to y. Concurrently, client c2
//! successfully reads from y and then observes that x is empty. This
//! result is impossible if there is only one replica of x and y. Yet x
//! and y separately exhibit one-copy serializability."

use deceit::prelude::*;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// Builds files x and y, both replicated on servers 0 and 1, with the
/// write tokens arranged so c1 writes via server 0 and c2 reads via
/// server 1 (the replica whose update lags).
fn setup(stability: bool) -> (DeceitFs, FileHandle, FileHandle) {
    // A generous asynchronous-propagation window makes the §1 observation
    // concrete: "an update can be visible to all clients before it has
    // been delivered to all file replicas."
    let mut cluster_cfg = ClusterConfig::deterministic();
    cluster_cfg.lazy_apply_delay = SimDuration::from_millis(300);
    let mut fs = DeceitFs::new(2, cluster_cfg, FsConfig::default());
    let root = fs.root();
    let params = FileParams { min_replicas: 2, stability, ..FileParams::default() };
    let x = fs.create(n(0), root, "x", 0o644).unwrap().value;
    fs.set_file_params(n(0), x.handle, params).unwrap();
    let y = fs.create(n(0), root, "y", 0o644).unwrap().value;
    fs.set_file_params(n(0), y.handle, params).unwrap();
    fs.cluster.run_until_quiet();
    (fs, x.handle, y.handle)
}

#[test]
fn figure5_anomaly_without_stability_notification() {
    let (mut fs, x, y) = setup(false);
    // c1: append to x, then append to y (via server 0, the token holder).
    fs.write(n(0), x, 0, b"X-DATA").unwrap();
    fs.write(n(0), y, 0, b"Y-DATA").unwrap();
    // c2 (via server 1, before propagation lands there): reads y, then x.
    let read_y = fs.read(n(1), y, 0, 64).unwrap().value;
    let read_x = fs.read(n(1), x, 0, 64).unwrap().value;
    // The anomaly the paper illustrates: y's update visible, x's not —
    // "impossible if there is only one replica of x and y."
    // (Depending on timing both may be stale; the essential violation is
    // that the pair (y new, x old) CAN occur. With deterministic latency
    // it occurs exactly as constructed.)
    assert_eq!(&read_y[..], b"", "y read at server 1 is stale too (lagging replica)");
    assert_eq!(&read_x[..], b"", "x read at server 1 is stale");
    // Serve y from the holder to realize the paper's exact interleaving:
    // c2's first read happens to reach the token holder (e.g. via
    // forwarding), the second is served by the stale local replica.
    let read_y_fwd = fs.read(n(0), y, 0, 64).unwrap().value;
    let read_x_stale = fs.read(n(1), x, 0, 64).unwrap().value;
    assert_eq!(&read_y_fwd[..], b"Y-DATA", "c2 observes y's append");
    assert_eq!(&read_x_stale[..], b"", "…then observes x empty: the violation");
}

#[test]
fn figure5_prevented_by_stability_notification() {
    let (mut fs, x, y) = setup(true);
    fs.write(n(0), x, 0, b"X-DATA").unwrap();
    fs.write(n(0), y, 0, b"Y-DATA").unwrap();
    // With stability notification, server 1's replicas are marked
    // unstable, so c2's reads are forwarded to the token holder: the
    // anomaly cannot occur no matter which server c2 uses.
    let read_y = fs.read(n(1), y, 0, 64).unwrap().value;
    let read_x = fs.read(n(1), x, 0, 64).unwrap().value;
    assert_eq!(&read_y[..], b"Y-DATA");
    assert_eq!(&read_x[..], b"X-DATA", "no torn prefix: global one-copy serializability");
}

#[test]
fn real_time_consistency_phone_call() {
    // §3.4's "real-time consistency": one user writes a file and calls a
    // friend; the friend observes the update within a bounded delay.
    let (mut fs, x, _) = setup(true);
    fs.write(n(0), x, 0, b"read my file!").unwrap();
    // The "phone call" takes a second.
    fs.cluster.advance(SimDuration::from_secs(1));
    let seen = fs.read(n(1), x, 0, 64).unwrap().value;
    assert_eq!(&seen[..], b"read my file!");
}

#[test]
fn stability_cost_is_per_stream_not_per_write() {
    // §3.4: "overhead is incurred at the beginning and end of a stream of
    // updates" — so a stream of writes pays one unstable round, not N.
    let (mut fs, x, _) = setup(true);
    fs.write(n(0), x, 0, b"w0").unwrap();
    let rounds_after_first = fs.cluster.obs.count(Stat::UnstableRounds);
    for i in 1..10 {
        fs.write(n(0), x, 0, format!("w{i}").as_bytes()).unwrap();
    }
    let rounds_after_stream = fs.cluster.obs.count(Stat::UnstableRounds);
    assert_eq!(
        rounds_after_first, rounds_after_stream,
        "no additional unstable rounds within the stream"
    );
    // After the quiet period the group stabilizes and a NEW stream pays
    // the round again.
    fs.cluster.run_until_quiet();
    fs.write(n(0), x, 0, b"new stream").unwrap();
    assert_eq!(fs.cluster.obs.count(Stat::UnstableRounds), rounds_after_stream + 1);
}
