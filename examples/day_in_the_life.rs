//! A day in the life of a Deceit cell.
//!
//! Drives the full §2.3 operational model against an 8-server cell for a
//! simulated working day: bursty file activity ("long periods of total
//! inactivity punctuated by high activity"), directory locality, the
//! getattr/lookup/read/write-dominated op mix, small files — with one
//! server crash and one network partition along the way. Prints the
//! system's own accounting at the end of the day.
//!
//! Run with: `cargo run --release --example day_in_the_life`

use deceit::prelude::*;
use deceit::sim::SimRng;

fn main() {
    println!("== A day in the life of a Deceit cell ==\n");
    let servers = 8;
    let mut fs = DeceitFs::new(
        servers,
        ClusterConfig::default().with_seed(1989),
        FsConfig {
            root_params: FileParams::important(3),
            dir_params: FileParams::important(2),
            ..FsConfig::default()
        },
    );
    let root = fs.root();
    let mut rng = SimRng::new(1989);

    // Morning: users create their working sets (clustered directories).
    let mut dirs = Vec::new();
    let mut files: Vec<(FileHandle, usize)> = Vec::new();
    for d in 0..6 {
        let via = NodeId((d % servers) as u32);
        let dir = fs.mkdir(via, root, &format!("proj{d}"), 0o755).unwrap().value;
        dirs.push(dir.handle);
        for f in 0..5 {
            let via = NodeId(rng.index(servers) as u32);
            let attr = fs.create(via, dir.handle, &format!("file{f}"), 0o644).unwrap().value;
            fs.set_file_params(via, attr.handle, FileParams::important(2)).unwrap();
            let body = vec![b'.'; rng.file_size().min(16 * 1024)];
            fs.write(via, attr.handle, 0, &body).unwrap();
            files.push((attr.handle, d));
        }
    }
    fs.cluster.run_until_quiet();
    println!("morning: 6 project dirs, 30 files, replication 2, spread over 8 servers");

    // The working day: bursts of activity separated by idle gaps.
    let mut ops = 0u64;
    let mut total_latency = SimDuration::ZERO;
    let mut incidents = Vec::new();
    for burst in 0..20 {
        // Idle gap (exponential, mean 30 s of simulated time).
        fs.cluster.advance(rng.exp_duration(SimDuration::from_secs(30)));

        // Mid-morning incident: server 3 dies for two bursts.
        if burst == 6 {
            fs.cluster.crash_server(NodeId(3));
            incidents.push("burst 6: server n3 crashed");
        }
        if burst == 8 {
            fs.cluster.recover_server(NodeId(3));
            fs.cluster.run_until_quiet();
            incidents.push("burst 8: server n3 recovered (obsolete replicas GC'd)");
        }
        // Afternoon incident: a partition that heals.
        if burst == 14 {
            fs.cluster.split(&[
                &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
                &[NodeId(4), NodeId(5), NodeId(6), NodeId(7)],
            ]);
            incidents.push("burst 14: network partitioned 4|4");
        }
        if burst == 16 {
            fs.cluster.heal();
            fs.cluster.run_until_quiet();
            incidents.push("burst 16: partition healed, versions reconciled");
        }

        // The burst itself: a hot directory, §2.3 op mix.
        let hot_dir = rng.zipf(dirs.len(), 1.0);
        let burst_len = 20 + rng.index(30);
        for _ in 0..burst_len {
            let candidates: Vec<usize> = files
                .iter()
                .enumerate()
                .filter(|(_, (_, d))| *d == hot_dir)
                .map(|(i, _)| i)
                .collect();
            let (fh, _) = files[candidates[rng.index(candidates.len())]];
            let via = NodeId(rng.index(servers) as u32);
            if fs.cluster.check_up(via).is_err() {
                continue; // this user's server is down; they go for coffee
            }
            let p = rng.unit();
            let lat = if p < 0.42 {
                fs.getattr(via, fh).map(|r| r.latency)
            } else if p < 0.70 {
                fs.read(via, fh, 0, 1 << 16).map(|r| r.latency)
            } else if p < 0.92 {
                let body = vec![b'x'; rng.file_size().min(16 * 1024)];
                fs.write(via, fh, 0, &body).map(|r| r.latency)
            } else {
                fs.readdir(via, dirs[hot_dir]).map(|r| r.latency)
            };
            if let Ok(l) = lat {
                ops += 1;
                total_latency += l;
            }
        }
    }
    fs.cluster.run_until_quiet();

    println!("\nincidents:");
    for i in &incidents {
        println!("  {i}");
    }
    println!("\nend of day ({} simulated):", fs.cluster.now());
    println!("  client ops completed : {ops}");
    println!(
        "  mean op latency      : {:.1} ms",
        total_latency.as_micros() as f64 / ops as f64 / 1000.0
    );
    let stats = fs.cluster.net.stats();
    println!("  network messages     : {}", stats.messages);
    println!("  bytes moved          : {} KB", stats.bytes / 1024);
    println!("  token passes         : {}", fs.cluster.obs.count(Stat::TokenPasses));
    println!("  replicas regenerated : {}", fs.cluster.obs.count(Stat::ReplicasGenerated));
    println!(
        "  stability rounds     : {} unstable / {} stable",
        fs.cluster.obs.count(Stat::UnstableRounds),
        fs.cluster.obs.count(Stat::StableRounds)
    );
    println!("  version conflicts    : {}", fs.cluster.conflicts.len());

    // The invariant that matters at the end of any day: everything
    // readable everywhere, replication restored.
    for (fh, _) in &files {
        let holders = fs.file_replicas(NodeId(0), *fh).unwrap().value;
        assert!(holders.len() >= 2, "under-replicated after the day: {holders:?}");
        fs.read(NodeId(0), *fh, 0, 16).unwrap();
    }
    println!("\nOK: all 30 files replicated ≥2 and readable after the day's churn.");
}
