//! §3.3 optimization 2 through the NFS envelope: where a small update
//! from a server holding a replica but not the token applies is decided
//! in core before the read-modify-write loads anything, and the update
//! is then loaded and stored at the token holder — never made from the
//! forwarding server's own, possibly write-behind, replica.

use deceit_core::{ClusterConfig, FileParams, Stat};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, FileHandle, FsConfig};
use deceit_sim::SimDuration;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// Three servers forwarding small updates, and a settled file created
/// via server 0 — whose token stays there — replicated everywhere and
/// written back behind its writes (`stability` off, so every replica
/// serves reads as stable while it lags).
fn forwarding_fs() -> (DeceitFs, FileHandle) {
    let mut cfg = ClusterConfig::deterministic();
    cfg.opt_forward_small = true;
    let mut fs = DeceitFs::new(3, cfg, FsConfig::default());
    let root = fs.root();
    let fh = fs.create(n(0), root, "pingpong", 0o644).unwrap().value.handle;
    let params = FileParams { min_replicas: 3, stability: false, ..FileParams::default() };
    fs.set_file_params(n(0), fh, params).unwrap();
    fs.write(n(0), fh, 0, b"warm").unwrap();
    fs.cluster.run_until_quiet();
    (fs, fh)
}

/// Servers 0 and 1 take turns overwriting the file: every write from
/// server 1 is forwarded to the token parked at server 0, and none of
/// them restarts on a version conflict.
#[test]
fn alternating_writers_forward_without_conflicts() {
    const WRITES: usize = 40;
    let (mut fs, fh) = forwarding_fs();
    let counts = |fs: &DeceitFs| {
        [Stat::OccConflicts, Stat::UpdatesForwarded, Stat::TokenPasses]
            .map(|s| fs.cluster.obs.count(s))
    };
    let key = (fh.seg, *fs.cluster.server(n(0)).majors_of(fh.seg).last().unwrap());
    assert!(fs.cluster.server(n(0)).holds_token(key));
    let before = counts(&fs);
    for i in 0..WRITES {
        let data = format!("w{i:02}");
        fs.write(n((i % 2) as u32), fh, 0, data.as_bytes()).unwrap();
        assert!(fs.cluster.server(n(0)).holds_token(key), "the token moved at write {i}");
        assert_eq!(&fs.read(n(0), fh, 0, 3).unwrap().value[..], data.as_bytes());
    }
    let after = counts(&fs);
    assert_eq!(after[0] - before[0], 0, "a forwarded write met a version conflict");
    assert_eq!(after[1] - before[1], (WRITES / 2) as u64, "one forward per write via server 1");
    assert_eq!(after[2] - before[2], 0, "the token passed");
}

/// A forwarded write charges the §3.2 search its server made to find the
/// file group: a replica holder that is out of the group's view and
/// whose volatile location cache a crash emptied must search the cell
/// before it knows where the token holder is.
#[test]
fn a_cold_cache_forward_charges_the_search_round() {
    let (mut fs, fh) = forwarding_fs();
    fs.cluster.crash_server(n(1));
    fs.cluster.recover_server(n(1));
    fs.cluster.run_until_quiet();
    let gid = fs.cluster.groups.lookup(&format!("file:{}", fh.seg.0)).expect("file group");
    fs.cluster.groups.leave(gid, n(1)).expect("leave the view");

    let searches = fs.cluster.net.stats().tag_count("locate");
    let forwarded = fs.cluster.obs.count(Stat::UpdatesForwarded);
    let cold = fs.write(n(1), fh, 0, b"cold").unwrap().latency;
    assert!(fs.cluster.net.stats().tag_count("locate") > searches, "the cold cache searched");
    let searches = fs.cluster.net.stats().tag_count("locate");
    let warm = fs.write(n(1), fh, 0, b"warm").unwrap().latency;
    assert_eq!(fs.cluster.net.stats().tag_count("locate"), searches, "the search filled the cache");
    assert_eq!(fs.cluster.obs.count(Stat::UpdatesForwarded), forwarded + 2);
    // Fixed 2 ms links: the search round is at least one 4 ms round trip.
    let round = SimDuration::from_millis(4);
    assert!(cold >= warm + round, "cold {cold:?} vs warm {warm:?}: the search time was dropped");
}
