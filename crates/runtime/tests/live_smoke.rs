//! Smoke test of the live cluster: real threads, concurrent clients,
//! replication, a crash, and a clean shutdown.

use std::thread;
use std::time::Duration;

use deceit_core::{FaultEvent, FileParams, ProtocolHost};
use deceit_net::NodeId;
use deceit_runtime::{ClusterRuntime, RuntimeConfig, RuntimeError};
use deceit_sim::SimDuration;

/// The acceptance scenario: 3 servers, 4 concurrent clients doing
/// create/write/read at replication level 3; one server crashes; every
/// byte is read back through a survivor; shutdown is clean.
#[test]
fn concurrent_clients_survive_a_crash() {
    const CLIENTS: usize = 4;
    const FILES_PER_CLIENT: usize = 3;

    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let root = rt.client().root();

    // Phase 1: concurrent load. Each client thread creates its own
    // files, sets replication 3, writes via a coalescing batch, and
    // reads its own data back.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut client = rt.client();
            thread::spawn(move || {
                let mut made = Vec::new();
                for i in 0..FILES_PER_CLIENT {
                    let name = format!("c{c}_f{i}");
                    let attr = client.create(root, &name, 0o644).expect("create");
                    client
                        .set_file_params(attr.handle, FileParams::important(3))
                        .expect("set replication");
                    let body = format!("body of {name}");
                    let mut batch = client.batch(attr.handle);
                    // Contiguous pushes coalesce into one wire request.
                    for (j, chunk) in body.as_bytes().chunks(4).enumerate() {
                        batch.push(j * 4, chunk);
                    }
                    assert_eq!(batch.len(), 1, "contiguous writes must coalesce");
                    batch.flush(&mut client).expect("flush").expect("attr");
                    let back = client.read(attr.handle, 0, 1 << 16).expect("read own file");
                    assert_eq!(&back[..], body.as_bytes(), "{name} read-your-writes");
                    made.push((name, body));
                }
                made
            })
        })
        .collect();

    let mut files = Vec::new();
    for w in workers {
        files.extend(w.join().expect("client thread"));
    }
    assert_eq!(files.len(), CLIENTS * FILES_PER_CLIENT);

    // Let replication finish, then kill a server without notification.
    rt.settle();
    let victim = NodeId(0);
    rt.fault(&FaultEvent::Crash { server: victim.0 });

    // A client homed on the victim times out on mutating requests...
    let mut stuck = rt.client_homed(victim);
    let probe = stuck.write(stuck.root(), 0, b"never lands");
    assert!(
        matches!(probe, Err(RuntimeError::Rpc(_))),
        "mutating request to a crashed server must fail, got {probe:?}"
    );

    // ...but its reads fail over to a survivor automatically.
    let survivor_read = stuck.lookup(root, &files[0].0);
    assert!(survivor_read.is_ok(), "read-only failover failed: {survivor_read:?}");
    assert!(stuck.failovers > 0);
    assert_ne!(stuck.home(), victim, "session must re-home onto the survivor");

    // Phase 2: every file, written by any client, is fully readable
    // through an explicitly chosen survivor.
    let mut reader = rt.client_homed(NodeId(1));
    for (name, body) in &files {
        let attr = reader.lookup(root, name).expect("lookup via survivor");
        let data = reader.read(attr.handle, 0, 1 << 16).expect("read via survivor");
        assert_eq!(&data[..], body.as_bytes(), "{name} must survive the crash");
        let holders = reader.locate_replicas(attr.handle).expect("locate");
        assert!(
            holders.len() >= 2,
            "{name}: at least the two survivors must hold replicas, got {holders:?}"
        );
    }

    // Clean shutdown: threads join, deferred work settles, and the
    // engine comes back for inspection.
    let stats = rt.stats();
    assert!(stats.requests_served > 0);
    let (engine, report) = rt.shutdown();
    assert_eq!(engine.pending_work(), 0, "shutdown must settle deferred work");
    assert!(report.bus_delivered > 0);
    assert!(report.bus_rejected > 0, "the crash must have rejected traffic");
    let total_served: u64 = report.served.iter().map(|(_, n)| n).sum();
    assert!(total_served >= (CLIENTS * FILES_PER_CLIENT) as u64);
}

/// Restarting the crashed server brings it back into rotation: after a
/// post-recovery write round, every file regains replication 3 and the
/// recovered server answers reads itself.
#[test]
fn crashed_server_rejoins_after_restart() {
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let mut client = rt.client_homed(NodeId(1));
    let root = client.root();

    let attr = client.create(root, "phoenix", 0o644).expect("create");
    client.set_file_params(attr.handle, FileParams::important(3)).expect("params");
    client.write(attr.handle, 0, b"before the crash").expect("write");
    rt.settle();

    rt.fault(&FaultEvent::Crash { server: 0 });
    client.write(attr.handle, 0, b"during the outage").expect("write survives");
    rt.settle();

    rt.fault(&FaultEvent::Restart { server: 0 });
    rt.settle();
    // §3.1: the regenerated third replica appears with the next update.
    client.write(attr.handle, 0, b"after the recovery").expect("post-recovery write");
    rt.settle();

    let holders = client.locate_replicas(attr.handle).expect("locate");
    assert_eq!(holders.len(), 3, "replication level must be restored, got {holders:?}");

    let mut direct = rt.client_homed(NodeId(0));
    let data = direct.read(attr.handle, 0, 64).expect("read via recovered server");
    assert_eq!(&data[..], b"after the recovery");
    rt.shutdown();
}

/// Partition mirroring: a split rejects cross-group traffic at both the
/// bus and the protocol layer; healing restores service everywhere.
#[test]
fn partition_blocks_minority_and_heals() {
    let rt = ClusterRuntime::start(
        RuntimeConfig::new(3).with_request_timeout(Duration::from_millis(300)),
    );
    let mut majority = rt.client_homed(NodeId(1));
    let mut minority = rt.client_homed(NodeId(0));
    let root = majority.root();

    let attr = majority.create(root, "split-brain", 0o644).expect("create");
    majority.write(attr.handle, 0, b"agreed before split").expect("write");
    rt.settle();

    rt.fault(&FaultEvent::Split { groups: vec![vec![0], vec![1, 2]] });

    // The majority side keeps serving.
    let data = majority.read(attr.handle, 0, 64).expect("majority read");
    assert_eq!(&data[..], b"agreed before split");

    // The minority-side client is sealed off from the majority servers:
    // its own server still answers pings, but a mutating request routed
    // across the split fails.
    minority.null().expect("minority client reaches its own server");
    let cross = minority.call_via(NodeId(1), deceit_nfs::NfsRequest::Null);
    assert!(cross.is_err(), "cross-partition call must fail, got {cross:?}");

    // A session opened *during* the partition joins its home's side
    // instead of landing in the implicit rest group, on both sides.
    let mut late_majority = rt.client_homed(NodeId(2));
    late_majority.null().expect("session opened mid-split must reach its home");
    let mut late_minority = rt.client_homed(NodeId(0));
    late_minority.null().expect("mid-split session on the minority side too");
    let late_cross = late_minority.call_via(NodeId(2), deceit_nfs::NfsRequest::Null);
    assert!(late_cross.is_err(), "mid-split session must still respect the partition");

    rt.fault(&FaultEvent::Heal);
    minority.set_home(NodeId(1));
    minority.null().expect("healed network serves everyone");
    rt.shutdown();
}

/// `with_request_timeout(Duration::MAX)` — "never give up" — must not
/// kill the session thread on its first call: the deadline arithmetic
/// treats overflow as "no deadline".
#[test]
fn never_give_up_request_timeout_serves_calls() {
    let rt = ClusterRuntime::start(RuntimeConfig::new(3).with_request_timeout(Duration::MAX));
    let mut client = rt.client();
    let root = client.root();
    let attr = client.getattr(root).expect("getattr under an unbounded timeout");
    assert_eq!(attr.handle, root);
    rt.shutdown();
}

/// Server threads block on their mailboxes with no poll tick; shutdown
/// wakes them by closing the bus. An idle cell still comes down
/// promptly, hands back its engine, and reports exactly what happened.
#[test]
fn idle_cell_shuts_down_promptly_with_an_exact_report() {
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let mut client = rt.client_homed(NodeId(1));
    for _ in 0..5 {
        client.null().expect("ping");
    }
    drop(client);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = thread::spawn(move || {
        let out = rt.shutdown();
        done_tx.send(()).unwrap();
        out
    });
    done_rx.recv_timeout(Duration::from_secs(10)).expect("shutdown of an idle cell hung");
    let (engine, report) = stopper.join().unwrap();
    assert_eq!(engine.pending_work(), 0);
    assert_eq!(
        report,
        deceit_runtime::RuntimeReport {
            served: vec![(NodeId(0), 0), (NodeId(1), 5), (NodeId(2), 0)],
            bus_dropped_stale: 0,
            dropped_while_crashed: 0,
            bus_delivered: 10,
            bus_rejected: 0,
        }
    );
}

/// The protocol's event counters are on in live hosting: a write stream
/// drains through the pipeline, and a read entering at a server with no
/// replica forwards — both show in the exported table.
#[test]
fn live_counters_are_on() {
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let mut writer = rt.client_homed(NodeId(0));
    let attr = writer.create(writer.root(), "counted", 0o644).expect("create");
    writer.set_file_params(attr.handle, FileParams::important(2)).expect("params");
    for i in 0..16u8 {
        writer.write(attr.handle, 0, &[i; 64]).expect("write");
    }
    rt.settle();

    let holders = writer.locate_replicas(attr.handle).expect("locate");
    let bare = (0..3).map(NodeId).find(|s| !holders.contains(s)).expect("a server with no replica");
    let data = rt.client_homed(bare).read(attr.handle, 0, 64).expect("forwarded read");
    assert_eq!(&data[..], &[15u8; 64][..]);

    let stats = rt.observe().stats.expect("the engine exports its counters");
    let count = |name: &str| stats.get(name).unwrap_or_else(|| panic!("no counter {name}"));
    assert!(count("core/pipeline/batches") >= 1, "{stats:?}");
    assert!(count("core/reads/forwarded") >= 1, "{stats:?}");
    rt.shutdown();
}

/// Work that only reads schedule still runs: a read entering at a server
/// with no replica forwards and, past the placement threshold, schedules
/// a migration toward that server — without taking the exclusive lock or
/// mutating anything. The stats must count that work, and the pump must
/// run it, with no `settle` to push it along.
#[test]
fn work_scheduled_by_reads_alone_is_counted_and_runs() {
    let migrations = |rt: &ClusterRuntime| {
        let placement = rt.observe().core.expect("the standard engine keeps obs").placement;
        (placement.migrations_proposed, placement.migrations_executed)
    };
    // Forwarded reads through server 2 until one schedules a migration,
    // and no further: a later read could fire it once it is due.
    let read_until_scheduled = |rt: &ClusterRuntime| {
        let mut writer = rt.client_homed(NodeId(0));
        let attr = writer.create(writer.root(), "read-only", 0o644).expect("create");
        writer.write(attr.handle, 0, b"read, never written again").expect("write");
        rt.settle();
        let mut reader = rt.client_homed(NodeId(2));
        for _ in 0..20 {
            reader.read(attr.handle, 0, 64).expect("forwarded read");
            if migrations(rt).0 > 0 {
                break;
            }
        }
        assert_eq!(migrations(rt), (1, 0), "the reads schedule one migration");
    };

    // The stats report the engine's own count of pending work.
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    read_until_scheduled(&rt);
    let stats_pending = rt.stats().pending_work;
    let engine_pending = rt.with_engine(|e| e.pending_work());
    assert!(engine_pending >= 1, "the migration is due 5 s of protocol time out");
    assert_eq!(stats_pending, engine_pending, "stats must count the work reads schedule");
    rt.shutdown();

    // With a short delay, the pump runs the migration on its own: its
    // idle tick carries the protocol clock to the due time.
    let mut cfg = RuntimeConfig::new(3);
    cfg.cluster.lazy_apply_delay = SimDuration::from_millis(20);
    let rt = ClusterRuntime::start(cfg);
    read_until_scheduled(&rt);
    let mut polls = 0;
    while migrations(&rt).1 == 0 {
        polls += 1;
        assert!(polls <= 1_000, "the pump never ran the migration reads scheduled (10 s)");
        thread::sleep(Duration::from_millis(10));
    }
    rt.shutdown();
}
