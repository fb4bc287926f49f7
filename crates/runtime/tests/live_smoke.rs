//! Smoke test of the live cluster: real threads, concurrent clients,
//! replication, a crash, and a clean shutdown.

use std::thread;
use std::time::Duration;

use deceit_core::{FaultEvent, FileParams, ProtocolHost};
use deceit_net::NodeId;
use deceit_nfs::{NfsReply, NfsRequest};
use deceit_runtime::{live_agent, ClusterRuntime, RuntimeConfig, RuntimeError};
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
    // files, sets replication 3, writes them, and reads its own data
    // back.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut client = rt.client();
            let mut agent = live_agent(&client);
            thread::spawn(move || {
                let mut made = Vec::new();
                for i in 0..FILES_PER_CLIENT {
                    let name = format!("c{c}_f{i}");
                    let (attr, _) = agent.create(&mut client, root, &name, 0o644).expect("create");
                    agent
                        .set_file_params(&mut client, attr.handle, FileParams::important(3))
                        .expect("set replication");
                    let body = format!("body of {name}");
                    agent.write(&mut client, attr.handle, 0, body.as_bytes()).expect("write");
                    let (back, _) = agent.read_file(&mut client, attr.handle).expect("read back");
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

    // A session homed on the victim fails a mutating request on its own:
    // the raw session never retries...
    let mut stuck = rt.client_homed(victim);
    let write = NfsRequest::Write { fh: root, offset: 0, data: b"never lands"[..].into() };
    let probe = stuck.call(write);
    assert!(
        matches!(probe, Err(RuntimeError::Rpc(_))),
        "mutating request to a crashed server must fail, got {probe:?}"
    );

    // ...but through an agent its reads fail over to a survivor.
    let mut agent = live_agent(&stuck);
    let survivor_read = agent.lookup(&mut stuck, root, &files[0].0);
    assert!(survivor_read.is_ok(), "failover failed: {survivor_read:?}");
    assert!(agent.failovers > 0);
    assert_ne!(stuck.home(), victim, "session must re-home onto the survivor");

    // Phase 2: every file, written by any client, is fully readable
    // through an explicitly chosen survivor.
    let mut reader = rt.client_homed(NodeId(1));
    let mut agent = live_agent(&reader);
    for (name, body) in &files {
        let (attr, _) = agent.lookup(&mut reader, root, name).expect("lookup via survivor");
        let (data, _) = agent.read_file(&mut reader, attr.handle).expect("read via survivor");
        assert_eq!(&data[..], body.as_bytes(), "{name} must survive the crash");
        let (holders, _) = agent.locate_replicas(&mut reader, attr.handle).expect("locate");
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
    let (mut agent, root) = (live_agent(&client), client.root());
    let c = &mut client;

    let (attr, _) = agent.create(c, root, "phoenix", 0o644).expect("create");
    agent.set_file_params(c, attr.handle, FileParams::important(3)).expect("params");
    agent.write(c, attr.handle, 0, b"before the crash").expect("write");
    rt.settle();

    rt.fault(&FaultEvent::Crash { server: 0 });
    agent.write(c, attr.handle, 0, b"during the outage").expect("write survives");
    rt.settle();

    rt.fault(&FaultEvent::Restart { server: 0 });
    rt.settle();
    // §3.1: the regenerated third replica appears with the next update.
    agent.write(c, attr.handle, 0, b"after the recovery").expect("post-recovery write");
    rt.settle();

    let (holders, _) = agent.locate_replicas(c, attr.handle).expect("locate");
    assert_eq!(holders.len(), 3, "replication level must be restored, got {holders:?}");

    let mut direct = rt.client_homed(NodeId(0));
    let read = live_agent(&direct).read_file(&mut direct, attr.handle);
    let (data, _) = read.expect("read via recovered server");
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
    let (mut agent, root) = (live_agent(&majority), majority.root());

    let (attr, _) = agent.create(&mut majority, root, "split-brain", 0o644).expect("create");
    agent.write(&mut majority, attr.handle, 0, b"agreed before split").expect("write");
    rt.settle();

    rt.fault(&FaultEvent::Split { groups: vec![vec![0], vec![1, 2]] });

    // The majority side keeps serving.
    let (data, _) = agent.read_file(&mut majority, attr.handle).expect("majority read");
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
    minority.set_home(NodeId(1)).expect("server 1 is in the cell");
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
    let attr = client.call(NfsRequest::Getattr { fh: root });
    let Ok(NfsReply::Attr(attr)) = attr else { panic!("getattr under an unbounded timeout") };
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
    let (mut agent, root) = (live_agent(&writer), writer.root());
    let (attr, _) = agent.create(&mut writer, root, "counted", 0o644).expect("create");
    agent.set_file_params(&mut writer, attr.handle, FileParams::important(2)).expect("params");
    for i in 0..16u8 {
        agent.write(&mut writer, attr.handle, 0, &[i; 64]).expect("write");
    }
    rt.settle();

    let (holders, _) = agent.locate_replicas(&mut writer, attr.handle).expect("locate");
    let bare = (0..3).map(NodeId).find(|s| !holders.contains(s)).expect("a server with no replica");
    let mut reader = rt.client_homed(bare);
    let (data, _) =
        live_agent(&reader).read_file(&mut reader, attr.handle).expect("forwarded read");
    assert_eq!(&data[..], &[15u8; 64][..]);

    let stats = rt.observe().stats.expect("the engine exports its counters");
    let count = |name: &str| stats.get(name).unwrap_or_else(|| panic!("no counter {name}"));
    assert!(count("core/pipeline/batches") >= 1, "{stats:?}");
    assert!(count("core/reads/forwarded") >= 1, "{stats:?}");
    rt.shutdown();
}

/// Work that only reads schedule still runs: a read entering at a server
/// whose replica a stabilize round missed forwards and schedules a read
/// repair of that replica — without taking the exclusive lock or
/// mutating anything. The stats must count that work, and the pump must
/// run it, with no `settle` to push it along. (A repair waits out its
/// damping window, `lazy_apply_delay`, so nothing fires it before the
/// stats are compared.)
#[test]
fn work_scheduled_by_reads_alone_is_counted_and_runs() {
    let repairs = |rt: &ClusterRuntime| {
        let stats = rt.observe().stats.expect("the engine exports its counters");
        let count = |name: &str| stats.get(name).unwrap_or_else(|| panic!("no counter {name}"));
        (count("core/reads/repairs_scheduled"), count("core/reads/repairs"))
    };
    // Server 2's replica is marked unstable, then cut off through the
    // stream's drain and its stabilize round; the transport heals
    // without the §3.6 reconciliation, so nothing is pending. Then
    // forwarded reads through server 2 until one schedules a repair, and
    // no further: a later read could fire it once it is due.
    let read_until_scheduled = |rt: &ClusterRuntime| {
        let mut writer = rt.client_homed(NodeId(0));
        let (mut agent, root) = (live_agent(&writer), writer.root());
        let w = &mut writer;
        let (attr, _) = agent.create(w, root, "read-only", 0o644).expect("create");
        let params = FileParams { min_replicas: 3, ..FileParams::default() };
        agent.set_file_params(w, attr.handle, params).expect("set replication");
        agent.write(w, attr.handle, 0, b"stream v1").expect("write");
        rt.settle();
        agent.write(w, attr.handle, 0, b"stream v2").expect("write");
        rt.fault(&FaultEvent::Split { groups: vec![vec![0, 1], vec![2]] });
        agent.write(w, attr.handle, 0, b"stream v3").expect("write");
        rt.settle();
        rt.with_engine(|e| e.fs.cluster.net.heal());
        assert_eq!(rt.with_engine(|e| e.pending_work()), 0, "nothing pending before the reads");
        let mut reader = rt.client_homed(NodeId(2));
        let mut agent = live_agent(&reader);
        for _ in 0..20 {
            let (data, _) = agent.read_file(&mut reader, attr.handle).expect("forwarded read");
            assert_eq!(&data[..], b"stream v3");
            if repairs(rt).0 > 0 {
                break;
            }
        }
        assert_eq!(repairs(rt), (1, 0), "the reads schedule one repair");
    };

    // The stats report the engine's own count of pending work.
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    read_until_scheduled(&rt);
    let stats_pending = rt.stats().pending_work;
    let engine_pending = rt.with_engine(|e| e.pending_work());
    assert!(engine_pending >= 1, "the repair is due 5 s of protocol time out");
    assert_eq!(stats_pending, engine_pending, "stats must count the work reads schedule");
    rt.shutdown();

    // With a short delay, the pump runs the repair on its own: its idle
    // tick carries the protocol clock to the due time.
    let mut cfg = RuntimeConfig::new(3);
    cfg.cluster.lazy_apply_delay = SimDuration::from_millis(20);
    let rt = ClusterRuntime::start(cfg);
    read_until_scheduled(&rt);
    let mut polls = 0;
    while repairs(&rt).1 == 0 {
        polls += 1;
        assert!(polls <= 1_000, "the pump never ran the repair reads scheduled (10 s)");
        thread::sleep(Duration::from_millis(10));
    }
    rt.shutdown();
}
