//! A live (multi-threaded) Deceit cluster.
//!
//! Every experiment in this repository runs on the deterministic
//! simulator, but the protocol stack is plain Rust that works just as
//! well on real threads. This example runs the **full file system live**:
//! three server threads host the segment-server protocols (replication,
//! tokens, stability, recovery) behind the NFS envelope, while four
//! client threads hammer them with concurrent create/write/read traffic
//! over the in-memory [`deceit::net::live::LiveBus`] transport. Mid-run,
//! one server is crashed without notification; the survivors keep
//! serving every replicated byte, and after a restart the cell heals to
//! full replication.
//!
//! Run with: `cargo run --example live_cluster`

use std::thread;

use deceit::prelude::*;

fn main() {
    println!("== Deceit live cluster: 3 server threads, 4 client threads ==\n");
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let root = rt.client().root();

    // Phase 1: concurrent load. Each client owns a set of files at
    // replication level 3, written through coalescing write batches.
    let workers: Vec<_> = (0..4)
        .map(|c| {
            let mut client = rt.client();
            thread::spawn(move || {
                let mut names = Vec::new();
                for i in 0..5 {
                    let name = format!("client{c}/file{i}").replace('/', "_");
                    let attr = client.create(root, &name, 0o644).expect("create");
                    client
                        .set_file_params(attr.handle, FileParams::important(3))
                        .expect("replicate");
                    let body = format!("{name}: written live by client thread {c}");
                    let mut batch = client.batch(attr.handle);
                    for (j, chunk) in body.as_bytes().chunks(8).enumerate() {
                        batch.push(j * 8, chunk);
                    }
                    batch.flush(&mut client).expect("batched write");
                    let back = client.read(attr.handle, 0, 1 << 16).expect("read back");
                    assert_eq!(&back[..], body.as_bytes());
                    names.push((name, body));
                }
                (c, client.home(), names)
            })
        })
        .collect();

    let mut files = Vec::new();
    for w in workers {
        let (c, home, names) = w.join().expect("client thread");
        println!("client {c} (homed on {home}): wrote {} files", names.len());
        files.extend(names);
    }
    rt.settle();

    // Phase 2: crash a server without notification.
    let victim = NodeId(0);
    println!("\ncrashing {victim} without notification ...");
    rt.fault(&FaultEvent::Crash { server: victim.0 });

    // A client homed on the victim transparently fails over for reads.
    let mut survivor_client = rt.client_homed(victim);
    let (name, body) = &files[0];
    let attr = survivor_client.lookup(root, name).expect("failover lookup");
    let data = survivor_client.read(attr.handle, 0, 1 << 16).expect("failover read");
    assert_eq!(&data[..], body.as_bytes());
    println!(
        "client homed on {victim} failed over to {} and read {name} intact",
        survivor_client.home()
    );

    // Every replicated file survives, served by the remaining threads.
    let mut reader = rt.client_homed(NodeId(1));
    for (name, body) in &files {
        let attr = reader.lookup(root, name).expect("lookup via survivor");
        let data = reader.read(attr.handle, 0, 1 << 16).expect("read via survivor");
        assert_eq!(&data[..], body.as_bytes(), "{name} lost data in the crash");
    }
    println!("all {} files read back intact through the survivors", files.len());

    // Phase 3: restart; the next update round restores replication 3.
    println!("\nrestarting {victim} and rewriting to regenerate replicas ...");
    rt.fault(&FaultEvent::Restart { server: victim.0 });
    rt.settle();
    for (name, body) in &files {
        let attr = reader.lookup(root, name).expect("lookup");
        reader.write(attr.handle, 0, body.as_bytes()).expect("regenerating write");
    }
    rt.settle();
    for (name, _) in &files {
        let attr = reader.lookup(root, name).expect("lookup");
        let holders = reader.locate_replicas(attr.handle).expect("locate");
        assert_eq!(holders.len(), 3, "{name} must be back at replication 3");
    }
    println!("every file is back at replication level 3");

    let stats = rt.stats();
    let (_engine, report) = rt.shutdown();
    println!(
        "\nbus: {} delivered, {} rejected by crash/partition state",
        report.bus_delivered, report.bus_rejected
    );
    println!(
        "servers served {} requests total ({} while this snapshot was taken)",
        report.served.iter().map(|(_, n)| n).sum::<u64>(),
        stats.requests_served
    );
    assert!(report.bus_rejected > 0, "the crash must have rejected traffic");
    println!("\nOK: the Deceit protocols held on real threads, through crash and recovery.");
}
