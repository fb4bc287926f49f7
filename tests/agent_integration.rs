//! Agent-level integration: cache coherence across clients, Figure 2's
//! communication-path claims, and the Figure 8 configuration sweep, all
//! through the public API.

use deceit::prelude::*;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

fn service(servers: usize) -> (NfsServer, FileHandle) {
    let mut fs = DeceitFs::with_defaults(servers);
    let root = fs.root();
    fs.set_file_params(n(0), root, FileParams::important(servers.min(3))).unwrap();
    fs.cluster.run_until_quiet();
    (NfsServer::new(fs), root)
}

#[test]
fn cross_client_cache_coherence_via_version_pairs() {
    let (mut srv, root) = service(3);
    let mut writer = Agent::new(n(100), n(0), AgentConfig::default());
    let mut reader = Agent::new(n(101), n(1), AgentConfig::default());
    let (f, _) = writer.create(&mut srv, root, "shared", 0o644).unwrap();
    writer.write(&mut srv, f.handle, 0, b"one").unwrap();
    // Reader caches the contents…
    let (d, _) = reader.read_file(&mut srv, f.handle).unwrap();
    assert_eq!(&d[..], b"one");
    // …writer changes them; reader's attr cache expires and the version
    // pair invalidates the stale data cache entry.
    writer.write(&mut srv, f.handle, 0, b"two").unwrap();
    srv.fs.cluster.advance(SimDuration::from_secs(10));
    let (d, _) = reader.read_file(&mut srv, f.handle).unwrap();
    assert_eq!(&d[..], b"two", "version-validated cache never serves stale data");
}

#[test]
fn figure2_any_server_reaches_any_file() {
    // NFS: a client must talk to the server that owns the file. Deceit:
    // any server will do — requests forward server-side.
    let (mut srv, root) = service(4);
    // A file that lives only on server 0.
    let f = srv.fs.create(n(0), root, "owned-by-0", 0o644).unwrap().value;
    srv.fs.write(n(0), f.handle, 0, b"anywhere").unwrap();
    srv.fs.cluster.run_until_quiet();

    for client_server in 0..4 {
        let mut agent = Agent::new(
            n(200 + client_server),
            n(client_server),
            AgentConfig { data_cache: false, ..AgentConfig::default() },
        );
        let (d, _) = agent.read_file(&mut srv, f.handle).unwrap();
        assert_eq!(&d[..], b"anywhere", "via server {client_server}");
    }
    assert!(srv.fs.cluster.obs.count(Stat::ReadsForwarded) >= 3, "non-owner servers forwarded");
}

#[test]
fn figure8_configuration_sweep_through_public_api() {
    // Each placement runs the same workload; total latency must rank
    // user-library < kernel < aux-process.
    let mut totals = Vec::new();
    for placement in
        [AgentPlacement::UserLibrary, AgentPlacement::Kernel, AgentPlacement::AuxProcess]
    {
        let (mut srv, root) = service(2);
        let mut agent =
            Agent::new(n(100), n(0), AgentConfig { placement, ..AgentConfig::default() });
        let mut total = SimDuration::ZERO;
        let (f, l) = agent.create(&mut srv, root, "bench", 0o644).unwrap();
        total += l;
        for i in 0..10 {
            let (_, l) = agent.write(&mut srv, f.handle, 0, format!("{i}").as_bytes()).unwrap();
            total += l;
            let (_, l) = agent.read_file(&mut srv, f.handle).unwrap();
            total += l;
        }
        totals.push(total);
    }
    assert!(totals[0] < totals[1] && totals[1] < totals[2], "{totals:?}");
}

#[test]
fn caching_absorbs_the_dominant_op_mix() {
    // §2.3: "The vast majority of NFS operations are get attribute,
    // lookup, read, and write." The agent's caches must absorb repeats of
    // the first three.
    let (mut srv, root) = service(2);
    let mut agent = Agent::new(n(100), n(0), AgentConfig::default());
    let (f, _) = agent.create(&mut srv, root, "hot", 0o644).unwrap();
    agent.write(&mut srv, f.handle, 0, b"hot data").unwrap();

    // Warm.
    agent.lookup(&mut srv, root, "hot").unwrap();
    agent.getattr(&mut srv, f.handle).unwrap();
    agent.read_file(&mut srv, f.handle).unwrap();
    let sent_warm = agent.rpcs_sent;

    // 30 repeats of the hot mix — all cache hits, zero RPCs.
    for _ in 0..30 {
        agent.lookup(&mut srv, root, "hot").unwrap();
        agent.getattr(&mut srv, f.handle).unwrap();
        agent.read_file(&mut srv, f.handle).unwrap();
    }
    assert_eq!(agent.rpcs_sent, sent_warm, "hot mix fully absorbed by caches");
}
