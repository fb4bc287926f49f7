//! The §3.6 crash scenarios driven through the full stack (NFS envelope
//! on top of the segment server), complementing the segment-level tests
//! in `deceit-core`.

use deceit::prelude::*;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

fn replicated_fs(servers: usize) -> DeceitFs {
    DeceitFs::new(
        servers,
        ClusterConfig::deterministic(),
        FsConfig {
            root_params: FileParams::important(servers.min(3)),
            dir_params: FileParams::important(servers.min(3)),
            ..FsConfig::default()
        },
    )
}

#[test]
fn file_survives_any_single_server_crash() {
    let mut fs = replicated_fs(3);
    let root = fs.root();
    let f = fs.create(n(0), root, "critical", 0o644).unwrap().value;
    fs.set_file_params(n(0), f.handle, FileParams::important(3)).unwrap();
    fs.write(n(0), f.handle, 0, b"must survive").unwrap();
    fs.cluster.run_until_quiet();
    for victim in [n(0), n(1), n(2)] {
        fs.cluster.crash_server(victim);
        let via = [n(0), n(1), n(2)].into_iter().find(|&s| s != victim).unwrap();
        let got = fs.read(via, f.handle, 0, 64).unwrap().value;
        assert_eq!(&got[..], b"must survive", "crash of {victim}");
        let listing = fs.readdir(via, root).unwrap().value;
        assert_eq!(listing.len(), 1, "namespace intact after {victim} crash");
        fs.cluster.recover_server(victim);
        fs.cluster.run_until_quiet();
    }
}

#[test]
fn directory_updates_survive_crash_recovery_cycle() {
    let mut fs = replicated_fs(3);
    let root = fs.root();
    // Create files while a replica holder of the root is down.
    fs.cluster.crash_server(n(2));
    fs.create(n(0), root, "made-during-outage", 0o644).unwrap();
    fs.cluster.run_until_quiet();
    fs.cluster.recover_server(n(2));
    fs.cluster.run_until_quiet();
    // The recovered server destroys its obsolete root replica, gets a
    // fresh one, and serves the new entry.
    let listing = fs.readdir(n(2), root).unwrap().value;
    assert!(listing.iter().any(|e| e.name == "made-during-outage"));
}

#[test]
fn namespace_conflict_from_partition_is_detected() {
    // Both sides create different files in the same directory during a
    // partition — the directory itself diverges (§5.2's hard problem).
    let mut fs = DeceitFs::new(
        4,
        ClusterConfig::deterministic(),
        FsConfig {
            root_params: FileParams {
                min_replicas: 4,
                availability: WriteAvailability::High,
                ..FileParams::default()
            },
            ..FsConfig::default()
        },
    );
    let root = fs.root();
    fs.cluster.run_until_quiet();
    fs.cluster.split(&[&[n(0), n(1)], &[n(2), n(3)]]);
    fs.create(n(0), root, "left.txt", 0o644).unwrap();
    fs.create(n(2), root, "right.txt", 0o644).unwrap();
    fs.cluster.heal();
    fs.cluster.run_until_quiet();
    // The directory has two incomparable versions, logged for the user
    // ("reconcile directory versions" is §2.1's special command).
    assert_eq!(fs.cluster.conflicts.len(), 1);
    assert_eq!(fs.cluster.conflicts[0].seg, root.segment());
    let versions = fs.file_versions(n(0), root).unwrap().value;
    assert_eq!(versions.len(), 2, "both directory versions preserved");
    // Each version shows its own side's file.
    let mut seen = Vec::new();
    for v in &versions {
        let pinned = FileHandle::versioned(root.segment(), v.major);
        let entries = fs.readdir(n(0), pinned).unwrap().value;
        seen.push(entries.iter().map(|e| e.name.clone()).collect::<Vec<_>>());
    }
    assert!(seen.iter().any(|names| names.contains(&"left.txt".to_string())));
    assert!(seen.iter().any(|names| names.contains(&"right.txt".to_string())));
}

#[test]
fn write_during_partition_blocked_at_medium_availability() {
    let mut fs = replicated_fs(3);
    let root = fs.root();
    let f = fs.create(n(0), root, "guarded", 0o644).unwrap().value;
    fs.set_file_params(n(0), f.handle, FileParams::important(3)).unwrap();
    fs.write(n(0), f.handle, 0, b"base").unwrap();
    fs.cluster.run_until_quiet();
    // Isolate the token holder; its side cannot write, the majority can.
    fs.cluster.split(&[&[n(0)], &[n(1), n(2)]]);
    assert!(fs.write(n(0), f.handle, 0, b"minority").is_err());
    fs.write(n(1), f.handle, 0, b"majority").unwrap();
    fs.cluster.heal();
    fs.cluster.run_until_quiet();
    // One lineage only; the majority's write won.
    assert!(fs.cluster.conflicts.is_empty());
    let got = fs.read(n(0), f.handle, 0, 64).unwrap().value;
    assert_eq!(&got[..], b"majority");
}

#[test]
fn agent_failover_during_crash_storm() {
    let fs = replicated_fs(3);
    let root = fs.root();
    let mut srv = NfsServer::new(fs);
    let mut agent = Agent::new(n(100), n(0), AgentConfig::default());
    let (f, _) = agent.create(&mut srv, root, "storm", 0o644).unwrap();
    agent.set_file_params(&mut srv, f.handle, FileParams::important(3)).expect("setparams");
    agent.write(&mut srv, f.handle, 0, b"v0").unwrap();
    srv.fs.cluster.run_until_quiet();

    // Crash whichever server the agent is on, four times in a row.
    for round in 0..4 {
        let dead = agent.server;
        srv.fs.cluster.crash_server(dead);
        srv.fs.cluster.advance(SimDuration::from_secs(5));
        let body = format!("v{}", round + 1).into_bytes();
        agent.write(&mut srv, f.handle, 0, &body).expect("write after failover");
        let (data, _) = agent.read_file(&mut srv, f.handle).unwrap();
        assert_eq!(data, bytes::Bytes::from(body));
        srv.fs.cluster.recover_server(dead);
        srv.fs.cluster.run_until_quiet();
    }
    assert!(agent.failovers >= 4);
}
