//! End-to-end integration: agent → NFS envelope → segment server → ISIS →
//! network, exercised together across a realistic filesystem workload.

use deceit::prelude::*;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

#[test]
fn multi_client_filesystem_session() {
    let fs = DeceitFs::with_defaults(4);
    let root = fs.root();
    let mut srv = NfsServer::new(fs);
    let mut alice = Agent::new(n(100), n(0), AgentConfig::default());
    let mut bob = Agent::new(n(101), n(2), AgentConfig::default());

    // Alice builds a tree through server 0.
    let (proj, _) = alice.create(&mut srv, root, "plan.txt", 0o644).unwrap();
    alice.write(&mut srv, proj.handle, 0, b"phase 1").unwrap();

    // Bob, mounted on a different server, sees it immediately (single
    // system image + stability notification).
    let (found, _) = bob.lookup(&mut srv, root, "plan.txt").unwrap();
    assert_eq!(found.handle, proj.handle);
    let (data, _) = bob.read_file(&mut srv, found.handle).unwrap();
    assert_eq!(&data[..], b"phase 1");

    // Bob updates; Alice reads the new contents (her cache revalidates by
    // version pair).
    bob.write(&mut srv, found.handle, 0, b"phase 2").unwrap();
    let (data, _) = alice.read_file(&mut srv, proj.handle).unwrap();
    assert_eq!(&data[..], b"phase 2");

    // Directory listing agrees through both agents.
    let (ea, _) = alice.readdir(&mut srv, root).unwrap();
    let (eb, _) = bob.readdir(&mut srv, root).unwrap();
    assert_eq!(ea, eb);
}

#[test]
fn deep_tree_and_namespace_operations() {
    let mut fs = DeceitFs::with_defaults(3);
    let root = fs.root();
    let via = n(0);

    // Build the paper's Figure 1 namespace.
    let usr = fs.mkdir(via, root, "usr", 0o755).unwrap().value;
    let bin = fs.mkdir(via, usr.handle, "bin", 0o755).unwrap().value;
    let lib = fs.mkdir(via, usr.handle, "lib", 0o755).unwrap().value;
    let home = fs.mkdir(via, usr.handle, "home", 0o755).unwrap().value;
    let siegel = fs.mkdir(via, home.handle, "Siegel", 0o755).unwrap().value;
    let memo = fs.create(via, siegel.handle, "memo", 0o644).unwrap().value;
    fs.write(via, memo.handle, 0, b"TR 89-1042").unwrap();
    let sh = fs.create(via, bin.handle, "sh", 0o755).unwrap().value;
    fs.create(via, lib.handle, "libc.a", 0o644).unwrap();

    // Path walking from any server.
    let attr = fs.lookup_path(n(2), "/usr/home/Siegel/memo").unwrap().value;
    assert_eq!(attr.handle.seg, memo.handle.seg);
    assert_eq!(attr.size, 10);

    // Unlike NFS, files are not statically bound to a server: move the
    // shell's replica and the path still resolves identically.
    let holders = fs.file_replicas(via, sh.handle).unwrap().value;
    let target = n(2);
    if !holders.contains(&target) {
        fs.cluster.create_replica_on(via, sh.handle.segment(), target).unwrap();
        fs.cluster.delete_replica_on(via, sh.handle.segment(), holders[0]).unwrap();
    }
    let again = fs.lookup_path(n(1), "/usr/bin/sh").unwrap().value;
    assert_eq!(again.handle.seg, sh.handle.seg);

    // Rename across the tree.
    fs.rename(via, siegel.handle, "memo", bin.handle, "memo-moved").unwrap();
    assert!(fs.lookup_path(n(1), "/usr/home/Siegel/memo").is_err());
    let moved = fs.lookup_path(n(1), "/usr/bin/memo-moved").unwrap().value;
    assert_eq!(moved.handle.seg, memo.handle.seg);
}

#[test]
fn workload_with_background_churn_converges() {
    // A mixed workload across servers with repeated crash/recover churn;
    // at the end every file must be readable with its last written value.
    let mut fs = DeceitFs::new(
        5,
        ClusterConfig::default().with_seed(99),
        FsConfig {
            dir_params: FileParams::important(3),
            root_params: FileParams::important(3),
            ..FsConfig::default()
        },
    );
    let root = fs.root();
    let mut files = Vec::new();
    for i in 0..10 {
        let via = n(i % 5);
        let f = fs.create(via, root, &format!("file{i}"), 0o644).unwrap().value;
        fs.set_file_params(via, f.handle, FileParams::important(2)).unwrap();
        files.push(f.handle);
    }
    let mut last_contents = vec![Vec::new(); files.len()];
    for round in 0u32..6 {
        let victim = n(round % 5);
        fs.cluster.crash_server(victim);
        for (i, fh) in files.iter().enumerate() {
            let via = (0..5u32).map(n).find(|&s| s != victim).unwrap();
            let body = format!("file{i} round{round}").into_bytes();
            // Writes may need a different entry server; availability medium
            // tolerates one dead server with 2 replicas only if the
            // majority is reachable, which it is (1 of 2 down at worst).
            if fs.write(via, *fh, 0, &body).is_ok() {
                last_contents[i] = body;
            }
        }
        fs.cluster.recover_server(victim);
        fs.cluster.run_until_quiet();
    }
    for (i, fh) in files.iter().enumerate() {
        let got = fs.read(n(4), *fh, 0, 1 << 16).unwrap().value;
        assert_eq!(&got[..], &last_contents[i][..], "file{i} diverged");
    }
    assert!(fs.cluster.conflicts.is_empty());
}

#[test]
fn statistics_reflect_architecture() {
    let fs = DeceitFs::with_defaults(3);
    let root = fs.root();
    let mut srv = NfsServer::new(fs);
    let mut agent = Agent::new(n(100), n(1), AgentConfig::default());
    for i in 0..5 {
        let (f, _) = agent.create(&mut srv, root, &format!("f{i}"), 0o644).unwrap();
        agent.write(&mut srv, f.handle, 0, b"data").unwrap();
    }
    let stats = srv.fs.cluster.net.stats();
    assert!(stats.tag_count("nfs-rpc") > 0, "client traffic accounted");
    assert!(stats.tag_count("update") > 0, "update broadcasts accounted");
    assert!(srv.fs.cluster.obs.count(Stat::Creates) >= 5);
    assert!(srv.fs.cluster.groups.len() >= 5, "one file group per live file");
}
