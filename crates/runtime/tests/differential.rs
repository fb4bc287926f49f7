//! Differential tests: the same scripted scenario must produce identical
//! file contents and replica counts under the deterministic simulator
//! and the live threaded runtime.
//!
//! The simulator is the verified ground truth for the §3 protocols; these
//! tests pin the live runtime's transport, request addressing, crash
//! mirroring, and deferred-work pumping to it.

use deceit_runtime::{RuntimeConfig, Scenario, ScenarioStep};

#[test]
fn crash_scenario_matches_across_worlds() {
    let scenario = Scenario::crash_and_recover(3, 4);
    let cfg = RuntimeConfig::new(3);

    let sim = scenario.run_sim(&cfg);
    let (live, flight) = scenario.run_live_observed(&cfg).expect("live run");

    assert_eq!(
        sim.contents, live.contents,
        "file contents diverged between worlds; live flight recorder:\n{flight}"
    );
    assert_eq!(
        sim.replicas, live.replicas,
        "replica counts diverged between worlds; live flight recorder:\n{flight}"
    );

    // And both worlds are self-consistent with the script.
    assert_eq!(sim.contents.len(), 4);
    for (name, contents) in &sim.contents {
        let c: usize = name[1..].parse().unwrap();
        assert_eq!(contents, format!("v3 payload of client {c}").as_bytes());
    }
    assert!(sim.replicas.values().all(|&n| n == 3), "replicas: {:?}", sim.replicas);
}

/// A crash-free scenario with interleaved appends: pins ordering and
/// write semantics (offset writes, no truncation) across worlds.
#[test]
fn append_scenario_matches_across_worlds() {
    let mut steps = Vec::new();
    steps.push(ScenarioStep::Create { client: 0, name: "log".into() });
    steps.push(ScenarioStep::SetReplicas { client: 0, name: "log".into(), replicas: 2 });
    let mut offset = 0;
    for round in 0..6 {
        let client = round % 3;
        let chunk = format!("[entry {round} from {client}]").into_bytes();
        steps.push(ScenarioStep::Write { client, name: "log".into(), offset, data: chunk.clone() });
        offset += chunk.len();
        if round == 3 {
            steps.push(ScenarioStep::Settle);
        }
    }
    steps.push(ScenarioStep::Settle);
    let scenario = Scenario { servers: 3, clients: 3, steps };
    let cfg = RuntimeConfig::new(3);

    scenario.assert_worlds_match(&cfg);

    let sim = scenario.run_sim(&cfg);
    let log = &sim.contents["log"];
    let expected: Vec<u8> = (0..6)
        .flat_map(|round| format!("[entry {round} from {}]", round % 3).into_bytes())
        .collect();
    assert_eq!(log, &expected);
}

/// Repeating the live run produces the same outcome every time — the
/// engine-lock serialization plus scripted addressing keeps the live
/// world deterministic for sequential scripts despite real threading.
#[test]
fn live_runs_are_repeatable() {
    let scenario = Scenario::crash_and_recover(3, 2);
    let cfg = RuntimeConfig::new(3);
    let a = scenario.run_live(&cfg).expect("first live run");
    let b = scenario.run_live(&cfg).expect("second live run");
    assert_eq!(a, b);
}

/// The sharded-mutation stress differential: many client threads mutate
/// *disjoint* files concurrently through the live runtime — these
/// execute under shard ring locks, genuinely interleaved, not behind
/// the exclusive cell lock — while an observed global completion order
/// is recorded. The simulator then executes the same operations in that
/// exact completion order, and the final per-file contents must match
/// byte for byte: per-file append ordering must survive cross-file
/// concurrency.
#[test]
fn concurrent_disjoint_mutations_match_sim_in_completion_order() {
    use deceit_sim::atomic::PublishedU64;
    use std::sync::{Arc, Mutex};

    const CLIENTS: usize = 6;
    const WRITES_PER_CLIENT: usize = 12;

    let cfg = RuntimeConfig::new(3);
    let rt = deceit_runtime::ClusterRuntime::start(cfg.clone());
    let servers = rt.server_ids().to_vec();
    let root = rt.client().root();

    // Setup (sequential, mirrored exactly in the sim below): one file
    // per client, created via the client's home server.
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let mut client = rt.client_homed(servers[c % servers.len()]);
        let attr = client.create(root, &format!("f{c}"), 0o644).expect("create");
        handles.push(attr.handle);
    }
    rt.settle();

    // Stress (concurrent): each client appends its own chunks to its own
    // file; a global ticket stamps every completed write.
    let ticket = Arc::new(PublishedU64::new(0));
    let completions: Arc<Mutex<Vec<(u64, usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut client = rt.client_homed(servers[c % servers.len()]);
            let fh = handles[c];
            let ticket = Arc::clone(&ticket);
            let completions = Arc::clone(&completions);
            std::thread::spawn(move || {
                let mut offset = 0;
                for i in 0..WRITES_PER_CLIENT {
                    let chunk = format!("[c{c}w{i}]");
                    client.write(fh, offset, chunk.as_bytes()).expect("stress write");
                    offset += chunk.len();
                    let t = ticket.fetch_add(1);
                    completions.lock().unwrap().push((t, c, i));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("stress client");
    }
    rt.settle();

    // Live outcome.
    let mut reader = rt.client();
    let live_contents: Vec<Vec<u8>> =
        handles.iter().map(|&fh| reader.read(fh, 0, 4096).expect("read back").to_vec()).collect();
    let live_versions: Vec<u64> =
        handles.iter().map(|&fh| reader.getattr(fh).expect("getattr").version.sub).collect();
    let flight = rt.dump_flight_recorder();
    rt.shutdown();

    // Simulator replay, in the observed global completion order.
    let mut order = completions.lock().unwrap().clone();
    order.sort();
    assert_eq!(order.len(), CLIENTS * WRITES_PER_CLIENT, "every write completed exactly once");
    let mut fs = deceit_nfs::DeceitFs::new(3, cfg.cluster.clone(), cfg.fs.clone());
    let sim_root = fs.root();
    let mut sim_handles = Vec::new();
    for c in 0..CLIENTS {
        let via = deceit_net::NodeId((c % servers.len()) as u32);
        let attr = fs.create(via, sim_root, &format!("f{c}"), 0o644).expect("sim create");
        sim_handles.push(attr.value.handle);
    }
    fs.cluster.run_until_quiet();
    let mut offsets = [0usize; CLIENTS];
    for &(_, c, i) in &order {
        let via = deceit_net::NodeId((c % servers.len()) as u32);
        let chunk = format!("[c{c}w{i}]");
        fs.write(via, sim_handles[c], offsets[c], chunk.as_bytes()).expect("sim write");
        offsets[c] += chunk.len();
    }
    fs.cluster.run_until_quiet();

    for c in 0..CLIENTS {
        let via = deceit_net::NodeId((c % servers.len()) as u32);
        let sim_data = fs.read(via, sim_handles[c], 0, 4096).expect("sim read").value;
        assert_eq!(
            live_contents[c],
            sim_data.to_vec(),
            "file f{c} diverged between live (sharded) and sim (serial) execution; \
             live flight recorder:\n{flight}"
        );
        let sim_sub = fs.getattr(via, sim_handles[c]).expect("sim getattr").value.version.sub;
        assert_eq!(
            live_versions[c], sim_sub,
            "file f{c} applied a different number of updates; live flight recorder:\n{flight}"
        );
    }
}

/// The crash-mid-sharded-write stress differential: writer threads
/// hammer their own files through the live runtime — all homed on the
/// server that holds every file's write token — while that holder is
/// crashed mid-stream and later restarted. Completed (acked) writes are
/// stamped with a global ticket; the simulator then replays exactly the
/// observed history — acked writes in completion order, the crash, the
/// restart — and final contents, update counts, and replica levels must
/// match byte for byte.
///
/// A write in flight when the crash lands is ambiguous: it may have
/// applied at the holder without its ack surviving the crash. The live
/// contents decide — the replay includes that write exactly when the
/// live world kept it — which is precisely the guarantee the pipeline
/// makes: an ack means locally durable, and an un-acked write is either
/// fully applied or never happened, never torn.
#[test]
fn crash_of_token_holder_mid_write_matches_sim_replay() {
    use deceit_sim::atomic::PublishedU64;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    const WRITERS: usize = 4;
    const MAX_WRITES: usize = 2000; // cap; the crash ends the stream early

    let cfg = RuntimeConfig::new(3).with_request_timeout(Duration::from_millis(300));
    let rt = deceit_runtime::ClusterRuntime::start(cfg.clone());
    let home = rt.server_ids()[1]; // token holder of every stressed file
    let reader_home = rt.server_ids()[2];
    let root = rt.client().root();

    // Setup (mirrored exactly in the replay): per-writer files created,
    // replicated 3x, and warmed via the holder-to-be.
    let mut handles = Vec::new();
    for c in 0..WRITERS {
        let mut client = rt.client_homed(home);
        let attr = client.create(root, &format!("f{c}"), 0o644).expect("create");
        client
            .set_file_params(attr.handle, deceit_core::FileParams::important(3))
            .expect("set replicas");
        handles.push(attr.handle);
    }
    rt.settle();

    // Stress: sequential appends per writer, all via the token holder,
    // stopping at the first failed write (the crash). Acked writes are
    // ticket-stamped in completion order.
    let ticket = Arc::new(PublishedU64::new(0));
    let completions: Arc<Mutex<Vec<(u64, usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..WRITERS)
        .map(|c| {
            let mut client = rt.client_homed(home);
            let fh = handles[c];
            let ticket = Arc::clone(&ticket);
            let completions = Arc::clone(&completions);
            std::thread::spawn(move || {
                let mut offset = 0;
                for i in 0..MAX_WRITES {
                    let chunk = format!("[c{c}w{i}]");
                    if client.write(fh, offset, chunk.as_bytes()).is_err() {
                        return; // the crash: the stream ends here
                    }
                    offset += chunk.len();
                    let t = ticket.fetch_add(1);
                    completions.lock().unwrap().push((t, c, i));
                }
            })
        })
        .collect();

    // Crash the holder mid-stream, then bring it back.
    std::thread::sleep(Duration::from_millis(5));
    rt.crash_server(home);
    for w in workers {
        w.join().expect("stress writer");
    }
    rt.restart_server(home);
    rt.settle();

    // Live outcome, read via a survivor (forwarding resolves laggards).
    let mut reader = rt.client_homed(reader_home);
    let live_contents: Vec<Vec<u8>> = handles
        .iter()
        .map(|&fh| reader.read(fh, 0, 1 << 20).expect("read back").to_vec())
        .collect();
    let live_versions: Vec<u64> =
        handles.iter().map(|&fh| reader.getattr(fh).expect("getattr").version.sub).collect();
    let live_replicas: Vec<usize> =
        handles.iter().map(|&fh| reader.locate_replicas(fh).expect("locate").len()).collect();
    let flight = rt.dump_flight_recorder();
    rt.shutdown();

    // Observed history: acked writes per file, in completion order.
    let mut order = completions.lock().unwrap().clone();
    order.sort();
    let mut acked = [0usize; WRITERS];
    for &(_, c, _) in &order {
        acked[c] += 1;
    }
    // Resolve each writer's ambiguous in-flight write: the live bytes
    // decide whether it applied before the crash.
    let mut kept_inflight = [false; WRITERS];
    for c in 0..WRITERS {
        let acked_len: usize = (0..acked[c]).map(|i| format!("[c{c}w{i}]").len()).sum();
        match live_contents[c].len() {
            l if l == acked_len => {}
            l if l == acked_len + format!("[c{c}w{}]", acked[c]).len() => kept_inflight[c] = true,
            l => panic!(
                "file f{c}: live length {l} matches neither {acked_len} acked bytes \
                 nor one extra in-flight write — a write tore or vanished"
            ),
        }
    }

    // Simulator replay of exactly that history.
    let via = deceit_net::NodeId(home.0);
    let mut fs = deceit_nfs::DeceitFs::new(3, cfg.cluster.clone(), cfg.fs.clone());
    let sim_root = fs.root();
    let mut sim_handles = Vec::new();
    for c in 0..WRITERS {
        let attr = fs.create(via, sim_root, &format!("f{c}"), 0o644).expect("sim create");
        fs.set_file_params(via, attr.value.handle, deceit_core::FileParams::important(3))
            .expect("sim set replicas");
        sim_handles.push(attr.value.handle);
    }
    fs.cluster.run_until_quiet();
    let mut offsets = [0usize; WRITERS];
    for &(_, c, i) in &order {
        let chunk = format!("[c{c}w{i}]");
        fs.write(via, sim_handles[c], offsets[c], chunk.as_bytes()).expect("sim write");
        offsets[c] += chunk.len();
    }
    for c in 0..WRITERS {
        if kept_inflight[c] {
            let chunk = format!("[c{c}w{}]", acked[c]);
            fs.write(via, sim_handles[c], offsets[c], chunk.as_bytes()).expect("sim write");
        }
    }
    fs.cluster.crash_server(via);
    fs.cluster.recover_server(via);
    fs.cluster.run_until_quiet();

    let read_via = deceit_net::NodeId(reader_home.0);
    for c in 0..WRITERS {
        let sim_data = fs.read(read_via, sim_handles[c], 0, 1 << 20).expect("sim read").value;
        assert_eq!(
            live_contents[c],
            sim_data.to_vec(),
            "file f{c} diverged between the crashed live run and the sim replay; \
             live flight recorder:\n{flight}"
        );
        let sim_sub = fs.getattr(read_via, sim_handles[c]).expect("sim getattr").value.version.sub;
        assert_eq!(
            live_versions[c], sim_sub,
            "file f{c} applied a different number of updates; live flight recorder:\n{flight}"
        );
        let sim_replicas = fs.file_replicas(read_via, sim_handles[c]).expect("sim locate").value;
        assert_eq!(
            live_replicas[c],
            sim_replicas.len(),
            "file f{c} recovered to a different replica level; live flight recorder:\n{flight}"
        );
    }
}

/// The readers-vs-write-stream stress differential: one writer streams
/// appends through its file's token holder while reader threads hammer
/// the same file concurrently — some homed on the holder (the
/// holder-local read-lease path: lock-free serves of an unstable
/// primary), some homed on another server (the §3.4 forwarding path,
/// which arms read-repair). Every observed read must be *acked-prefix
/// consistent*: exactly the concatenation of the first k chunks for
/// some k, never torn, never shrinking within one reader's session.
/// The simulator then replays the acked writes in order, and final
/// contents, version, and replica count must match byte for byte.
#[test]
fn readers_vs_write_stream_matches_sim_replay() {
    use deceit_sim::atomic::PublishedBool;
    use std::sync::Arc;

    const WRITES: usize = 60;
    const READERS: usize = 3; // 2 on the holder (lease path), 1 remote

    let cfg = RuntimeConfig::new(3);
    let rt = deceit_runtime::ClusterRuntime::start(cfg.clone());
    let home = rt.server_ids()[0];
    let remote_home = rt.server_ids()[1];
    let root = rt.client().root();

    // Setup (mirrored in the replay): the streamed file, replicated 3x,
    // warmed via the holder-to-be, settled stable.
    let mut opener = rt.client_homed(home);
    let attr = opener.create(root, "stream", 0o644).expect("create");
    let fh = attr.handle;
    opener.set_file_params(fh, deceit_core::FileParams::important(3)).expect("set replicas");
    opener.write(fh, 0, b"warmup:").expect("warmup");
    rt.settle();

    // The full expected byte sequence and the set of valid acked-prefix
    // lengths a read may observe.
    let mut expected: Vec<u8> = b"warmup:".to_vec();
    let mut valid_lens = vec![expected.len()];
    for i in 0..WRITES {
        expected.extend_from_slice(format!("[w{i}]").as_bytes());
        valid_lens.push(expected.len());
    }

    let done = Arc::new(PublishedBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            // Reader 2 sits on a non-holder: its reads forward around
            // the unstable replica (and arm read-repair) instead of
            // riding the lease.
            let mut client = rt.client_homed(if r == READERS - 1 { remote_home } else { home });
            let done = Arc::clone(&done);
            let expected = expected.clone();
            let valid_lens = valid_lens.clone();
            std::thread::spawn(move || {
                let mut last_len = 0usize;
                let mut reads = 0u64;
                while !done.load() {
                    let data = client.read(fh, 0, 1 << 16).expect("concurrent stream read");
                    assert!(
                        valid_lens.contains(&data.len()),
                        "reader {r} observed a torn length {} (not an acked prefix)",
                        data.len()
                    );
                    assert_eq!(
                        &data[..],
                        &expected[..data.len()],
                        "reader {r} observed bytes that are not the acked prefix"
                    );
                    assert!(
                        data.len() >= last_len,
                        "reader {r} went back in time: {} after {last_len}",
                        data.len()
                    );
                    last_len = data.len();
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    let mut writer = rt.client_homed(home);
    let mut offset = b"warmup:".len();
    for i in 0..WRITES {
        let chunk = format!("[w{i}]");
        writer.write(fh, offset, chunk.as_bytes()).expect("stream write");
        offset += chunk.len();
    }
    done.store(true);
    let total_reads: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total_reads > 0, "the readers must have observed the stream");
    rt.settle();

    let mut verifier = rt.client_homed(remote_home);
    let live_final = verifier.read(fh, 0, 1 << 16).expect("final read").to_vec();
    let live_sub = verifier.getattr(fh).expect("getattr").version.sub;
    let live_replicas = verifier.locate_replicas(fh).expect("locate").len();
    let flight = rt.dump_flight_recorder();
    rt.shutdown();
    assert_eq!(
        live_final, expected,
        "the live stream lost or reordered an acked write; live flight recorder:\n{flight}"
    );

    // Simulator replay of the same history through the same config.
    let via = deceit_net::NodeId(home.0);
    let mut fs = deceit_nfs::DeceitFs::new(3, cfg.cluster.clone(), cfg.fs.clone());
    let sim_root = fs.root();
    let sim_fh = fs.create(via, sim_root, "stream", 0o644).expect("sim create").value.handle;
    fs.set_file_params(via, sim_fh, deceit_core::FileParams::important(3))
        .expect("sim set replicas");
    fs.write(via, sim_fh, 0, b"warmup:").expect("sim warmup");
    fs.cluster.run_until_quiet();
    let mut offset = b"warmup:".len();
    for i in 0..WRITES {
        let chunk = format!("[w{i}]");
        fs.write(via, sim_fh, offset, chunk.as_bytes()).expect("sim write");
        offset += chunk.len();
    }
    fs.cluster.run_until_quiet();

    let read_via = deceit_net::NodeId(remote_home.0);
    let sim_final = fs.read(read_via, sim_fh, 0, 1 << 16).expect("sim read").value;
    assert_eq!(
        live_final,
        sim_final.to_vec(),
        "stream contents diverged between worlds; live flight recorder:\n{flight}"
    );
    let sim_sub = fs.getattr(read_via, sim_fh).expect("sim getattr").value.version.sub;
    assert_eq!(
        live_sub, sim_sub,
        "the stream applied a different number of updates; live flight recorder:\n{flight}"
    );
    let sim_replicas = fs.file_replicas(read_via, sim_fh).expect("sim locate").value.len();
    assert_eq!(
        live_replicas, sim_replicas,
        "replica levels diverged between worlds; live flight recorder:\n{flight}"
    );
}

/// The placement-migration storm differential: cross-homed readers push
/// several files past the access threshold (arming deferred
/// migrations), then a replica server is crashed and restarted while a
/// writer streams appends through the token holder and the readers keep
/// hammering — migrations execute into that churn at the settle. Two
/// invariants must hold through the storm: every observed read is a
/// monotone acked prefix of its file (never torn, never shrinking
/// within a session), and no file's replica count ends below its
/// `min_replicas` floor even though the retire pass runs right after
/// each migration. The simulator then replays the acked writes plus the
/// crash/restart, and contents and update counts must match byte for
/// byte. (Replica *placement* is not compared: the sim replay performs
/// no reads, so it never migrates.)
#[test]
fn migration_storm_under_crash_keeps_floor_and_read_monotonicity() {
    use deceit_sim::atomic::PublishedBool;
    use std::sync::Arc;
    use std::time::Duration;

    const FILES: usize = 4;
    const FLOOR: usize = 2;
    const WARMUP_READS: usize = 12; // past the placement threshold (8)
    const WRITES: usize = 48; // round-robin across FILES
    const READERS: usize = 2;

    let cfg = RuntimeConfig::new(3).with_request_timeout(Duration::from_millis(300));
    let rt = deceit_runtime::ClusterRuntime::start(cfg.clone());
    let home = rt.server_ids()[0]; // token holder of every file
    let churn = rt.server_ids()[1]; // fill's second copy — crashed mid-storm
    let reader_home = rt.server_ids()[2]; // migration target
    let root = rt.client().root();

    // Setup (mirrored in the replay): FILES files homed on `home`,
    // replication floor FLOOR, seeded and settled stable.
    let mut opener = rt.client_homed(home);
    let mut handles = Vec::new();
    for c in 0..FILES {
        let attr = opener.create(root, &format!("f{c}"), 0o644).expect("create");
        opener
            .set_file_params(attr.handle, deceit_core::FileParams::important(FLOOR))
            .expect("set replicas");
        opener.write(attr.handle, 0, format!("seed{c}:").as_bytes()).expect("seed");
        handles.push(attr.handle);
    }
    rt.settle();

    // Warm-up: cross-homed reads past the threshold arm one deferred
    // migration per file (due-gated — they fire at a later settle, i.e.
    // *after* the crash lands: migrations in flight during the storm).
    let mut warm = rt.client_homed(reader_home);
    for &fh in &handles {
        for _ in 0..WARMUP_READS {
            warm.read(fh, 0, 1 << 16).expect("warm-up read");
        }
    }

    // Expected byte sequence and valid acked-prefix lengths per file.
    let mut expected: Vec<Vec<u8>> = (0..FILES).map(|c| format!("seed{c}:").into_bytes()).collect();
    let mut valid_lens: Vec<Vec<usize>> = expected.iter().map(|e| vec![e.len()]).collect();
    for i in 0..WRITES {
        let c = i % FILES;
        expected[c].extend_from_slice(format!("[w{i}]").as_bytes());
        valid_lens[c].push(expected[c].len());
    }

    // Readers: monotone acked prefixes per file per session, throughout
    // the crash, the restart, and the migrations.
    let done = Arc::new(PublishedBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let mut client = rt.client_homed(reader_home);
            let handles = handles.clone();
            let expected = expected.clone();
            let valid_lens = valid_lens.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_len = [0usize; FILES];
                let mut reads = 0u64;
                while !done.load() {
                    for c in 0..FILES {
                        let data = client.read(handles[c], 0, 1 << 16).expect("storm read");
                        assert!(
                            valid_lens[c].contains(&data.len()),
                            "reader {r} observed a torn length {} on f{c}",
                            data.len()
                        );
                        assert_eq!(
                            &data[..],
                            &expected[c][..data.len()],
                            "reader {r} observed non-prefix bytes on f{c}"
                        );
                        assert!(
                            data.len() >= last_len[c],
                            "reader {r} went back in time on f{c}: {} after {}",
                            data.len(),
                            last_len[c]
                        );
                        last_len[c] = data.len();
                        reads += 1;
                    }
                }
                reads
            })
        })
        .collect();

    // Writer: round-robin appends via the holder. While `churn` is down
    // only one of the FLOOR=2 replicas is reachable, so §3.5 Medium
    // availability refuses writes — retry until the restart restores
    // the majority. A refused write is never partially applied.
    let writer = {
        let mut client = rt.client_homed(home);
        let handles = handles.clone();
        std::thread::spawn(move || {
            let mut offsets: Vec<usize> = (0..FILES).map(|c| format!("seed{c}:").len()).collect();
            for i in 0..WRITES {
                let c = i % FILES;
                let chunk = format!("[w{i}]");
                let mut attempts = 0;
                while client.write(handles[c], offsets[c], chunk.as_bytes()).is_err() {
                    attempts += 1;
                    assert!(attempts < 2000, "write w{i} never recovered after the restart");
                    std::thread::sleep(Duration::from_millis(2));
                }
                offsets[c] += chunk.len();
            }
        })
    };

    // The storm: crash the second replica holder mid-stream with the
    // armed migrations still pending, then bring it back.
    std::thread::sleep(Duration::from_millis(5));
    rt.crash_server(churn);
    std::thread::sleep(Duration::from_millis(20));
    rt.restart_server(churn);
    writer.join().expect("storm writer");
    rt.settle(); // migrations (and their retire passes) execute here
    done.store(true);
    let total_reads: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total_reads > 0, "the readers must have observed the storm");
    rt.settle();

    // Live outcome: full contents, the replication floor held through
    // migration + retirement + crash, and the migrations really ran.
    let mut verifier = rt.client_homed(reader_home);
    let live_contents: Vec<Vec<u8>> = handles
        .iter()
        .map(|&fh| verifier.read(fh, 0, 1 << 16).expect("final read").to_vec())
        .collect();
    let live_versions: Vec<u64> =
        handles.iter().map(|&fh| verifier.getattr(fh).expect("getattr").version.sub).collect();
    for (c, &fh) in handles.iter().enumerate() {
        let replicas = verifier.locate_replicas(fh).expect("locate").len();
        assert!(
            replicas >= FLOOR,
            "f{c} ended with {replicas} replicas, below its floor of {FLOOR}"
        );
    }
    let placement = rt.observe().core.expect("core report").placement;
    assert!(
        placement.migrations_executed >= 1,
        "the storm ran without any migration executing: {placement:?}"
    );
    let flight = rt.dump_flight_recorder();
    rt.shutdown();
    for c in 0..FILES {
        assert_eq!(
            live_contents[c], expected[c],
            "f{c} lost or reordered an acked write; live flight recorder:\n{flight}"
        );
    }

    // Simulator replay: same files, same acked writes in order, same
    // crash/restart of the second replica holder.
    let via = deceit_net::NodeId(home.0);
    let mut fs = deceit_nfs::DeceitFs::new(3, cfg.cluster.clone(), cfg.fs.clone());
    let sim_root = fs.root();
    let mut sim_handles = Vec::new();
    for c in 0..FILES {
        let attr = fs.create(via, sim_root, &format!("f{c}"), 0o644).expect("sim create");
        fs.set_file_params(via, attr.value.handle, deceit_core::FileParams::important(FLOOR))
            .expect("sim set replicas");
        fs.write(via, attr.value.handle, 0, format!("seed{c}:").as_bytes()).expect("sim seed");
        sim_handles.push(attr.value.handle);
    }
    fs.cluster.run_until_quiet();
    let mut offsets: Vec<usize> = (0..FILES).map(|c| format!("seed{c}:").len()).collect();
    for i in 0..WRITES {
        let c = i % FILES;
        let chunk = format!("[w{i}]");
        fs.write(via, sim_handles[c], offsets[c], chunk.as_bytes()).expect("sim write");
        offsets[c] += chunk.len();
    }
    fs.cluster.crash_server(deceit_net::NodeId(churn.0));
    fs.cluster.recover_server(deceit_net::NodeId(churn.0));
    fs.cluster.run_until_quiet();

    let read_via = deceit_net::NodeId(reader_home.0);
    for c in 0..FILES {
        let sim_data = fs.read(read_via, sim_handles[c], 0, 1 << 16).expect("sim read").value;
        assert_eq!(
            live_contents[c],
            sim_data.to_vec(),
            "f{c} diverged between the storm and the sim replay; live flight recorder:\n{flight}"
        );
        let sim_sub = fs.getattr(read_via, sim_handles[c]).expect("sim getattr").value.version.sub;
        assert_eq!(
            live_versions[c], sim_sub,
            "f{c} applied a different number of updates; live flight recorder:\n{flight}"
        );
    }
}

/// Shard-lock exclusion: two mutations of the *same* file never
/// interleave. Concurrent writers replace the whole file with uniform
/// single-byte patterns; a concurrent reader (and the final state) must
/// only ever observe a uniform buffer — a torn write would mix bytes —
/// and the final subversion counts every write exactly once.
#[test]
fn same_file_mutations_never_interleave() {
    use deceit_sim::atomic::PublishedBool;
    use std::sync::{Arc, Barrier};

    const WRITERS: usize = 4;
    const WRITES_PER_CLIENT: usize = 25;
    const LEN: usize = 256;

    let rt = deceit_runtime::ClusterRuntime::start(RuntimeConfig::new(3));
    let root = rt.client().root();
    let mut opener = rt.client();
    let attr = opener.create(root, "contested", 0o644).expect("create");
    let fh = attr.handle;
    opener.write(fh, 0, &[b'@'; LEN]).expect("warmup");
    rt.settle();
    let sub_before = opener.getattr(fh).expect("getattr").version.sub;

    let stop = Arc::new(PublishedBool::new(false));
    // The writers start only once the reader has read once, so the
    // reader cannot see `stop` before its first read.
    let start = Arc::new(Barrier::new(WRITERS + 1));
    let reader = {
        let (stop, start) = (Arc::clone(&stop), Arc::clone(&start));
        let mut client = rt.client();
        std::thread::spawn(move || {
            let mut observed = 0u64;
            loop {
                let data = client.read(fh, 0, LEN).expect("concurrent read");
                assert!(!data.is_empty());
                assert!(
                    data.iter().all(|&b| b == data[0]),
                    "torn read: mixed patterns {:?}…",
                    &data[..8.min(data.len())]
                );
                observed += 1;
                if observed == 1 {
                    start.wait();
                }
                if stop.load() {
                    break observed;
                }
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let start = Arc::clone(&start);
            let mut client = rt.client();
            std::thread::spawn(move || {
                let pattern = [b'A' + w as u8; LEN];
                start.wait();
                for _ in 0..WRITES_PER_CLIENT {
                    client.write(fh, 0, &pattern).expect("contested write");
                }
            })
        })
        .collect();
    for t in writers {
        t.join().expect("writer");
    }
    stop.store(true);
    let reads = reader.join().expect("reader");
    assert!(reads > 0, "the concurrent reader must have observed the file");

    rt.settle();
    let final_data = opener.read(fh, 0, LEN).expect("final read");
    assert_eq!(final_data.len(), LEN);
    assert!(
        final_data.iter().all(|&b| b == final_data[0]),
        "final contents are torn: {:?}…",
        &final_data[..8]
    );
    assert!((b'A'..b'A' + WRITERS as u8).contains(&final_data[0]), "one writer's pattern wins");
    // Every write applied exactly once, serialized: the subversion
    // advanced by exactly the number of writes.
    let sub_after = opener.getattr(fh).expect("getattr").version.sub;
    assert_eq!(
        sub_after - sub_before,
        (WRITERS * WRITES_PER_CLIENT) as u64,
        "same-file mutations were lost or duplicated"
    );
    rt.shutdown();
}
