//! Agent behavior: caching, failover, shortcuts.

use deceit_agent::{Agent, AgentConfig, AgentPlacement};
use deceit_core::{FileParams, Stat};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, NfsReply, NfsRequest, NfsServer};

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// A 3-server cell with a replicated root and one file, plus an agent on
/// client machine 100.
fn fixture(cfg: AgentConfig) -> (NfsServer, Agent, deceit_nfs::FileHandle) {
    let mut fs = DeceitFs::with_defaults(3);
    let root = fs.root();
    fs.set_file_params(n(0), root, FileParams::important(3)).unwrap();
    let f = fs.create(n(0), root, "file", 0o644).unwrap().value;
    fs.set_file_params(n(0), f.handle, FileParams::important(3)).unwrap();
    fs.write(n(0), f.handle, 0, b"contents").unwrap();
    fs.cluster.run_until_quiet();
    let srv = NfsServer::new(fs);
    let agent = Agent::new(n(100), n(0), cfg);
    (srv, agent, f.handle)
}

#[test]
fn attr_cache_absorbs_repeat_getattrs() {
    let (mut srv, mut agent, fh) = fixture(AgentConfig::default());
    let (_, first) = agent.getattr(&mut srv, fh).unwrap();
    let (_, second) = agent.getattr(&mut srv, fh).unwrap();
    assert!(second < first / 2, "cached getattr ({second}) ≪ rpc ({first})");
    assert_eq!(agent.attr_cache_stats(), (1, 1));
    assert_eq!(agent.rpcs_sent, 1);
}

#[test]
fn data_cache_serves_unchanged_file() {
    let (mut srv, mut agent, fh) = fixture(AgentConfig::default());
    let (d1, l1) = agent.read_file(&mut srv, fh).unwrap();
    assert_eq!(&d1[..], b"contents");
    let (d2, l2) = agent.read_file(&mut srv, fh).unwrap();
    assert_eq!(&d2[..], b"contents");
    assert!(l2 < l1 / 2, "cached read ({l2}) ≪ remote read ({l1})");
    assert!(agent.data_cache_stats().0 >= 1);
}

#[test]
fn write_invalidates_data_cache() {
    let (mut srv, mut agent, fh) = fixture(AgentConfig::default());
    agent.read_file(&mut srv, fh).unwrap();
    agent.write(&mut srv, fh, 0, b"new stuff").unwrap();
    let (d, _) = agent.read_file(&mut srv, fh).unwrap();
    assert_eq!(&d[..], b"new stuff", "never serves stale cached data");
}

#[test]
fn failover_continues_after_server_crash() {
    let (mut srv, mut agent, fh) = fixture(AgentConfig::default());
    agent.read_file(&mut srv, fh).unwrap();
    srv.fs.cluster.crash_server(n(0));
    // Expire the attribute cache so the next read must talk to a server.
    srv.fs.cluster.advance(deceit_sim::SimDuration::from_secs(10));
    // The agent silently reconnects to another server.
    let (d, _) = agent.read_file(&mut srv, fh).unwrap();
    assert_eq!(&d[..], b"contents");
    assert_eq!(agent.failovers, 1);
    assert_ne!(agent.server, n(0));
}

#[test]
fn stock_sun_client_has_no_failover() {
    let (mut srv, mut agent, fh) = fixture(AgentConfig::sun_stock());
    srv.fs.cluster.crash_server(n(0));
    // §2.1: "standard NFS client software does not provide this
    // capability."
    assert!(agent.read_file(&mut srv, fh).is_err());
    assert_eq!(agent.failovers, 0);
}

#[test]
fn lookup_cache_short_circuits() {
    let (mut srv, mut agent, _) = fixture(AgentConfig::default());
    let root = srv.mount();
    let (a1, _) = agent.lookup(&mut srv, root, "file").unwrap();
    let sent_before = agent.rpcs_sent;
    let (a2, _) = agent.lookup(&mut srv, root, "file").unwrap();
    assert_eq!(a1.handle, a2.handle);
    assert_eq!(agent.rpcs_sent, sent_before, "second lookup needed no RPC");
}

#[test]
fn shortcut_routes_to_replica_holder() {
    // File replicated only on servers {0,1}; agent connected to server 2.
    let mut fs = DeceitFs::with_defaults(3);
    let root = fs.root();
    let f = fs.create(n(0), root, "near", 0o644).unwrap().value;
    fs.set_file_params(n(0), f.handle, FileParams::important(2)).unwrap();
    fs.write(n(0), f.handle, 0, b"data").unwrap();
    fs.cluster.run_until_quiet();
    let mut srv = NfsServer::new(fs);
    let mut cfg = AgentConfig::user_library_full();
    cfg.data_cache = false; // isolate the routing effect
    let mut agent = Agent::new(n(100), n(2), cfg);

    // Without priming, requests go to server 2 and get forwarded.
    let before = srv.fs.cluster.obs.count(Stat::ReadsForwarded);
    let read = NfsRequest::Read { fh: f.handle, offset: 0, count: 10 };
    let (reply, _) = agent.rpc(&mut srv, read.clone()).unwrap();
    assert!(matches!(reply, NfsReply::Data(_)));
    let after = srv.fs.cluster.obs.count(Stat::ReadsForwarded);
    assert!(after > before, "unshortcut read was forwarded server-side");

    // After priming, the agent talks straight to a replica holder.
    agent.prime_shortcut(&mut srv, f.handle).unwrap();
    let fwd_before = srv.fs.cluster.obs.count(Stat::ReadsForwarded);
    let (reply, _) = agent.rpc(&mut srv, read).unwrap();
    assert!(matches!(reply, NfsReply::Data(_)));
    let fwd_after = srv.fs.cluster.obs.count(Stat::ReadsForwarded);
    assert_eq!(fwd_after, fwd_before, "shortcut read needed no forwarding");
}

#[test]
fn placement_overheads_rank_correctly() {
    let mut latencies = Vec::new();
    for placement in
        [AgentPlacement::UserLibrary, AgentPlacement::Kernel, AgentPlacement::AuxProcess]
    {
        let cfg = AgentConfig { placement, data_cache: false, ..AgentConfig::default() };
        let (mut srv, mut agent, fh) = fixture(cfg);
        // Warm the attribute path so all placements do identical work.
        let (_, lat) = agent.getattr(&mut srv, fh).unwrap();
        latencies.push(lat);
    }
    assert!(latencies[0] < latencies[1], "user library beats kernel agent");
    assert!(latencies[1] < latencies[2], "kernel beats auxiliary process");
}

#[test]
fn create_and_readdir_through_agent() {
    let (mut srv, mut agent, _) = fixture(AgentConfig::default());
    let root = srv.mount();
    agent.create(&mut srv, root, "fresh.txt", 0o644).unwrap();
    let (entries, _) = agent.readdir(&mut srv, root).unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"fresh.txt"));
    // The created handle is immediately usable.
    let (attr, _) = agent.lookup(&mut srv, root, "fresh.txt").unwrap();
    agent.write(&mut srv, attr.handle, 0, b"x").unwrap();
}

#[test]
fn mkdir_remove_setattr_through_agent() {
    let (mut srv, mut agent, _) = fixture(AgentConfig::default());
    let root = srv.mount();
    let (d, _) = agent.mkdir(&mut srv, root, "workdir", 0o755).unwrap();
    let (f, _) = agent.create(&mut srv, d.handle, "note", 0o600).unwrap();
    agent.write(&mut srv, f.handle, 0, b"0123456789").unwrap();

    // setattr truncates and the data cache never serves the stale body.
    agent.read_file(&mut srv, f.handle).unwrap();
    let (a, _) = agent.setattr(&mut srv, f.handle, Some(0o644), Some(4)).unwrap();
    assert_eq!(a.size, 4);
    assert_eq!(a.mode, 0o644);
    let (data, _) = agent.read_file(&mut srv, f.handle).unwrap();
    assert_eq!(&data[..], b"0123");

    // remove cleans the caches; a re-lookup misses.
    agent.remove(&mut srv, d.handle, "note").unwrap();
    assert!(matches!(
        agent.lookup(&mut srv, d.handle, "note"),
        Err(deceit_nfs::NfsError::NotFound)
    ));
}
