//! Quickstart: the architecture of Figure 6, end to end.
//!
//! A client agent speaks the NFS protocol to a Deceit server; the NFS
//! envelope maps operations onto segments; the segment server replicates
//! them through ISIS-style broadcasts over the simulated network. This
//! example traces one file's life across every layer boundary.
//!
//! Run with: `cargo run --example quickstart`

use deceit::prelude::*;

fn main() {
    println!("== Deceit quickstart: one file through every layer ==\n");

    // Three interchangeable servers form the cell (abstract: "the illusion
    // of a single, large server machine").
    let fs = DeceitFs::with_defaults(3);
    let root = fs.root();
    let mut srv = NfsServer::new(fs);

    // A client agent on machine 100, mounted on server 0 (Figure 6's
    // "NFS client/server protocol" arrow).
    let mut agent = Agent::new(NodeId(100), NodeId(0), AgentConfig::default());
    let mounted_root = srv.mount();
    assert_eq!(mounted_root, root);
    println!("mounted root {root} from server n0");

    // CREATE walks: agent -> NFS envelope -> segment server.
    let (file, lat) = agent.create(&mut srv, root, "demo.txt", 0o644).unwrap();
    println!("create demo.txt       -> {} ({lat})", file.handle);

    // The Deceit difference: tune THIS file for availability (§4).
    let req = NfsRequest::DeceitSetParams {
        fh: file.handle,
        params: FileParams { min_replicas: 3, ..FileParams::default() },
    };
    let (reply, lat) = agent.rpc(&mut srv, req).unwrap();
    assert!(reply.as_error().is_none());
    println!("set min_replicas=3    -> ok ({lat})");

    let (_, lat) = agent.write(&mut srv, file.handle, 0, b"hello, 1989").unwrap();
    println!("write 11 bytes        -> ok ({lat})");
    srv.fs.cluster.run_until_quiet();

    let holders = srv.fs.file_replicas(NodeId(0), file.handle).unwrap().value;
    println!("replica holders       -> {holders:?}");

    // Reads are served from the agent's cache the second time (§5.3).
    let (data, lat1) = agent.read_file(&mut srv, file.handle).unwrap();
    let (_, lat2) = agent.read_file(&mut srv, file.handle).unwrap();
    println!("read #1               -> {:?} ({lat1})", String::from_utf8_lossy(&data));
    println!("read #2 (cached)      -> same ({lat2})");

    // Kill the mounted server; the agent fails over transparently (§2.1).
    srv.fs.cluster.crash_server(NodeId(0));
    srv.fs.cluster.advance(SimDuration::from_secs(10)); // expire caches
    let (data, lat) = agent.read_file(&mut srv, file.handle).unwrap();
    println!(
        "read after n0 crash   -> {:?} via n{} ({lat}, {} failover)",
        String::from_utf8_lossy(&data),
        agent.server.0,
        agent.failovers
    );

    // The protocol events underneath (Table 1's vocabulary), every
    // server's flight-recorder total.
    let events: u64 = srv.fs.cluster.obs.flight.mark().iter().sum();
    println!("\nprotocol events recorded: {events}");
    println!("network messages: {}", srv.fs.cluster.net.stats().messages);
    println!("\nOK: every layer exercised.");
}
