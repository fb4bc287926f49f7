//! Soak test: a long randomized mixed workload with continuous crash,
//! partition, and heal churn — the whole stack must end consistent.

use deceit::prelude::*;
use deceit::sim::SimRng;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// One seeded soak round: builds a tree, hammers it from every server
/// while injecting failures, then verifies full convergence.
fn soak(seed: u64) {
    let servers = 5;
    let mut fs = DeceitFs::new(
        servers,
        ClusterConfig::default().with_seed(seed),
        FsConfig {
            root_params: FileParams::important(3),
            dir_params: FileParams::important(3),
            ..FsConfig::default()
        },
    );
    let root = fs.root();
    let mut rng = SimRng::new(seed);

    // A small tree of replicated files.
    let mut files = Vec::new();
    let mut contents: Vec<Vec<u8>> = Vec::new();
    for i in 0..8 {
        let via = n((i % servers) as u32);
        let f = fs.create(via, root, &format!("soak{i}"), 0o644).unwrap().value;
        fs.set_file_params(via, f.handle, FileParams::important(2)).unwrap();
        let body = format!("init-{i}").into_bytes();
        fs.write(via, f.handle, 0, &body).unwrap();
        files.push(f.handle);
        contents.push(body);
    }
    fs.cluster.run_until_quiet();

    let mut down: Option<NodeId> = None;
    for step in 0..120 {
        // Failure churn every ~10 steps: crash one server or partition.
        if step % 10 == 3 {
            if let Some(d) = down.take() {
                fs.cluster.recover_server(d);
                fs.cluster.run_until_quiet();
            }
            let victim = n(rng.index(servers) as u32);
            fs.cluster.crash_server(victim);
            down = Some(victim);
        }
        let alive: Vec<NodeId> = (0..servers as u32).map(n).filter(|&s| Some(s) != down).collect();
        let via = alive[rng.index(alive.len())];
        let file_idx = rng.zipf(files.len(), 0.8);
        let fh = files[file_idx];
        match rng.index(10) {
            // Mostly reads and attribute checks (§2.3 op mix).
            0..=3 => {
                if let Ok(r) = fs.read(via, fh, 0, 1 << 16) {
                    // A read may be stale only within the propagation
                    // window; against a settled system it must be exact.
                    let want = &contents[file_idx];
                    let got = &r.value[..];
                    assert!(
                        got.is_empty()
                            || got.len() <= want.len() && &want[..got.len()] == got
                            || got == &want[..],
                        "read tore: got {:?} want {:?}",
                        String::from_utf8_lossy(got),
                        String::from_utf8_lossy(want)
                    );
                }
            }
            4..=6 => {
                let _ = fs.getattr(via, fh);
            }
            _ => {
                let body = format!("s{step}-f{file_idx}").into_bytes();
                if fs.write(via, fh, 0, &body).is_ok() {
                    // Writes replace a prefix; track the full expected
                    // contents (old tail survives shorter writes).
                    let mut next = contents[file_idx].clone();
                    if body.len() > next.len() {
                        next.resize(body.len(), 0);
                    }
                    next[..body.len()].copy_from_slice(&body);
                    contents[file_idx] = next;
                }
            }
        }
    }
    if let Some(d) = down {
        fs.cluster.recover_server(d);
    }
    fs.cluster.heal();
    fs.cluster.run_until_quiet();

    // Convergence: every file readable via every server with the exact
    // tracked contents; no unresolved conflicts (medium availability
    // never diverges); replica levels restored.
    assert!(fs.cluster.conflicts.is_empty());
    for (i, fh) in files.iter().enumerate() {
        for via in (0..servers as u32).map(n) {
            let got = fs.read(via, *fh, 0, 1 << 16).unwrap().value;
            assert_eq!(&got[..], &contents[i][..], "file {i} via {via} diverged (seed {seed})");
        }
        let holders = fs.file_replicas(n(0), *fh).unwrap().value;
        assert!(holders.len() >= 2, "file {i} under-replicated: {holders:?}");
    }
}

#[test]
fn soak_seed_1() {
    soak(1);
}

#[test]
fn soak_seed_2() {
    soak(2);
}

#[test]
fn soak_seed_3() {
    soak(3);
}

#[test]
fn soak_seed_4() {
    soak(0xDECE17);
}
