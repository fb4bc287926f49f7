//! Differential tests: the same scripted scenario must produce identical
//! file contents and replica counts under the deterministic simulator
//! and the live threaded runtime.
//!
//! The simulator is the verified ground truth for the §3 protocols; these
//! tests pin the live runtime's transport, request addressing, fault
//! mirroring, and deferred-work pumping to it. Scripts run once against
//! either `World`; the stress tests race real threads live, then replay
//! the observed history in a `SimWorld` through the same setup and
//! readback calls.

use deceit_agent::{Agent, AgentConfig};
use deceit_core::{FaultEvent, FileParams, WriteAvailability};
use deceit_net::NodeId;
use deceit_nfs::{FileHandle, NfsReply, NfsRequest};
use deceit_runtime::{
    live_agent, read_back, FileState, LiveWorld, RuntimeClient, RuntimeConfig, Scenario,
    ScenarioStep, SimWorld, World,
};

/// An agent whose requests land on the session's home or fail, so the
/// simulator can replay each acked write through the server that took it.
fn pinned(s: &RuntimeClient) -> Agent {
    Agent::new(s.node(), s.home(), AgentConfig { failover: false, ..AgentConfig::uncached() })
}

/// Sends `req` from session 0 to `via`; any failure stops the test.
fn call(world: &mut impl World, via: NodeId, req: NfsRequest) -> NfsReply {
    match world.call(0, via, req) {
        Ok(NfsReply::Error(e)) => panic!("server refused: {e}"),
        Ok(rep) => rep,
        Err(e) => panic!("call failed: {e}"),
    }
}

/// Writes `data` at `offset` of `fh` via `via`.
fn write(world: &mut impl World, via: NodeId, fh: FileHandle, offset: usize, data: &[u8]) {
    call(world, via, NfsRequest::Write { fh, offset, data: data.to_vec().into() });
}

/// Creates `name` in the root via `via`, with `params` if given, and
/// writes `seed` at offset 0 if it is not empty.
fn create(
    world: &mut impl World,
    via: NodeId,
    name: &str,
    params: Option<FileParams>,
    seed: &[u8],
) -> FileHandle {
    let dir = world.root();
    let NfsReply::Attr(attr) =
        call(world, via, NfsRequest::Create { dir, name: name.into(), mode: 0o644 })
    else {
        panic!("create {name}: not an attr reply");
    };
    if let Some(params) = params {
        call(world, via, NfsRequest::DeceitSetParams { fh: attr.handle, params });
    }
    if !seed.is_empty() {
        write(world, via, attr.handle, 0, seed);
    }
    attr.handle
}

/// The end state of every file, read back through `via(file index)`.
fn read_all(
    world: &mut impl World,
    via: impl Fn(usize) -> NodeId,
    handles: &[FileHandle],
) -> Vec<FileState> {
    handles
        .iter()
        .enumerate()
        .map(|(c, &fh)| read_back(world, 0, via(c), fh).expect("read back"))
        .collect()
}

#[test]
fn crash_scenario_matches_across_worlds() {
    let scenario = Scenario::crash_and_recover(3, 4);
    let cfg = RuntimeConfig::new(3);

    let sim = scenario.run_sim(&cfg).expect("sim run");
    let (live, flight) = scenario.run_live(&cfg).expect("live run");

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

/// §4: migration is a per-file parameter, off by default, in the live
/// profile as in the paper. A file with default parameters, read ten
/// times through a server with no replica and then settled, gains no
/// replica there — in both worlds, under the runtime's own config.
#[test]
fn unmarked_files_do_not_migrate_in_the_live_profile() {
    fn reads_stay_forwarded(world: &mut impl World) {
        let (home, reader) = (NodeId(0), NodeId(2));
        let fh = create(world, home, "cold", None, b"read remotely");
        world.fault(&FaultEvent::Settle);
        for _ in 0..10 {
            let read = NfsRequest::Read { fh, offset: 0, count: 64 };
            assert_eq!(call(world, reader, read), NfsReply::Data(b"read remotely"[..].into()));
        }
        world.fault(&FaultEvent::Settle);
        let NfsReply::Replicas(holders) =
            call(world, home, NfsRequest::DeceitLocateReplicas { fh })
        else {
            panic!("locate: not a replica list");
        };
        assert_eq!(holders, vec![home], "an unmarked file migrated toward its reader");
    }
    let cfg = RuntimeConfig::new(3);
    reads_stay_forwarded(&mut SimWorld::new(&cfg, 1));
    reads_stay_forwarded(&mut LiveWorld::start(cfg, 1));
}

/// §3.3 optimization 2 across a holder crash: homes 0 and 1 take turns
/// writing one file replicated on both, so home 1's writes are forwarded
/// to the token parked at server 0; server 0 then crashes mid-stream,
/// with updates still buffered for the pipeline. Home 1's next write
/// finds no holder to forward to and falls back to acquiring or
/// generating the token; the stream goes on there, server 0 restarts,
/// and both worlds must end byte for byte alike. At `write_safety` 2
/// every acked write reached a second replica before its ack, so none
/// is lost to the crash. It runs at availability "high", which lets
/// home 1 generate a token however many replicas the crash left it, and
/// at "medium" (§4), which needs a majority of the three: the §3.6
/// forced stabilize must catch server 2's lagging replica up, not
/// destroy it, or home 1's writes are refused.
#[test]
fn holder_crash_mid_forwarded_stream_matches_across_worlds() {
    fn stream(world: &mut impl World, availability: WriteAvailability) -> (FileState, String) {
        let (holder, other) = (NodeId(0), NodeId(1));
        let params = FileParams { write_safety: 2, availability, ..FileParams::important(3) };
        let fh = create(world, holder, "shared", Some(params), b"seed");
        world.fault(&FaultEvent::Settle);
        for i in 0..6 {
            write(world, holder, fh, 0, format!("[h{i}]").as_bytes());
            write(world, other, fh, 8, format!("[o{i}]").as_bytes());
        }
        world.fault(&FaultEvent::Crash { server: 0 });
        for i in 6..9 {
            write(world, other, fh, 8, format!("[o{i}]").as_bytes());
        }
        world.fault(&FaultEvent::Restart { server: 0 });
        world.fault(&FaultEvent::Settle);
        write(world, other, fh, 16, b"[after restart]");
        world.fault(&FaultEvent::Settle);
        let state = read_back(world, 0, other, fh).expect("read back");
        (state, world.flight())
    }
    for availability in [WriteAvailability::High, WriteAvailability::Medium] {
        let cfg = RuntimeConfig::new(3);
        let (sim, sim_flight) = stream(&mut SimWorld::new(&cfg, 1), availability);
        let (live, flight) = stream(&mut LiveWorld::start(cfg, 1), availability);
        assert_ends_match(&[live], std::slice::from_ref(&sim), true, &flight);
        // The run took the paths it is about: forwards before the crash,
        // and a token taken at home 1 after it.
        for dump in [&sim_flight, &flight] {
            assert!(dump.contains("UpdateForwarded"), "no forwarded write:\n{dump}");
            let taken = dump.contains("TokenGenerated") || dump.contains("TokenAcquired");
            assert!(taken, "home 1 never took the token:\n{dump}");
        }
        assert_eq!(&sim.data[..], b"[h5]\0\0\0\0[o8]\0\0\0\0[after restart]");
    }
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
            steps.push(ScenarioStep::Fault(FaultEvent::Settle));
        }
    }
    steps.push(ScenarioStep::Fault(FaultEvent::Settle));
    let scenario = Scenario { servers: 3, clients: 3, steps };
    let cfg = RuntimeConfig::new(3);

    scenario.assert_worlds_match(&cfg);

    let sim = scenario.run_sim(&cfg).expect("sim run");
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
    let (a, _) = scenario.run_live(&cfg).expect("first live run");
    let (b, _) = scenario.run_live(&cfg).expect("second live run");
    assert_eq!(a, b);
}

/// One concurrent read's contract: `data` is an acked prefix of
/// `expected` (its length is one of `valid_lens`, never torn), and no
/// shorter than the session's previous read of the file.
fn check_acked_prefix(
    data: &[u8],
    expected: &[u8],
    valid_lens: &[usize],
    last_len: &mut usize,
    who: &str,
) {
    assert!(valid_lens.contains(&data.len()), "{who} observed a torn length {}", data.len());
    assert_eq!(data, &expected[..data.len()], "{who} observed bytes that are not the acked prefix");
    assert!(data.len() >= *last_len, "{who} went back in time: {} after {last_len}", data.len());
    *last_len = data.len();
}

/// Asserts that every file ended alike in both worlds: contents, update
/// count (`version.sub`) and, if `replicas`, replica count. A mismatch
/// names the file and carries the live flight recorder.
fn assert_ends_match(live: &[FileState], sim: &[FileState], replicas: bool, flight: &str) {
    assert_eq!(live.len(), sim.len(), "worlds read back different file counts");
    for (c, (live, sim)) in live.iter().zip(sim).enumerate() {
        let at = format!("file #{c}; live flight recorder:\n{flight}");
        assert_eq!(live.data, sim.data, "contents diverged between worlds at {at}");
        assert_eq!(live.attr.version.sub, sim.attr.version.sub, "update counts diverged at {at}");
        if replicas {
            assert_eq!(live.replicas, sim.replicas, "replica levels diverged at {at}");
        }
    }
}

/// Writer `c`'s `i`-th append chunk in the ticketed stress tests.
fn chunk(c: usize, i: usize) -> String {
    format!("[c{c}w{i}]")
}

/// Runs one live writer thread per file: writer `c` appends up to
/// `writes` chunks to `handles[c]` through `home(c)`, stops at its first
/// failed write unless `must_ack`, in which case that failure fails the
/// test. Returns every acked write as `(writer, chunk)` in global
/// completion order, stamped by one shared ticket. `meanwhile` runs on
/// this thread while the writers stream.
fn ticketed_writers(
    live: &mut LiveWorld,
    handles: &[FileHandle],
    home: impl Fn(usize) -> NodeId,
    writes: usize,
    must_ack: bool,
    meanwhile: impl FnOnce(&mut LiveWorld),
) -> Vec<(usize, usize)> {
    use deceit_sim::atomic::PublishedU64;
    use parking_lot::Mutex;

    let ticket = PublishedU64::new(0);
    let completions = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (c, &fh) in handles.iter().enumerate() {
            let mut client = live.rt.client_homed(home(c));
            let mut agent = pinned(&client);
            let (ticket, completions) = (&ticket, &completions);
            s.spawn(move || {
                let mut offset = 0;
                for i in 0..writes {
                    let chunk = chunk(c, i);
                    if let Err(e) = agent.write(&mut client, fh, offset, chunk.as_bytes()) {
                        assert!(!must_ack, "stress write {chunk} failed: {e}");
                        return;
                    }
                    offset += chunk.len();
                    let t = ticket.fetch_add(1);
                    completions.lock().push((t, c, i));
                }
            });
        }
        meanwhile(live);
    });
    let mut order = completions.into_inner();
    order.sort();
    order.into_iter().map(|(_, c, i)| (c, i)).collect()
}

/// Replays acked chunk writes, in order, through `home(c)`; returns each
/// file's end offset.
fn replay(
    sim: &mut SimWorld,
    handles: &[FileHandle],
    home: impl Fn(usize) -> NodeId,
    order: &[(usize, usize)],
) -> Vec<usize> {
    let mut offsets = vec![0; handles.len()];
    for &(c, i) in order {
        let chunk = chunk(c, i);
        write(sim, home(c), handles[c], offsets[c], chunk.as_bytes());
        offsets[c] += chunk.len();
    }
    offsets
}

/// Partitions are part of the one fault vocabulary: the cell splits and
/// heals between two write rounds, clients act only while it is whole,
/// and both worlds must end with the same contents and replica counts.
#[test]
fn split_and_heal_between_write_rounds_matches_across_worlds() {
    let mut steps = Vec::new();
    for c in 0..3 {
        let name = format!("f{c}");
        steps.push(ScenarioStep::Create { client: c, name: name.clone() });
        steps.push(ScenarioStep::SetReplicas { client: c, name: name.clone(), replicas: 3 });
        let data = format!("v1 payload of client {c}").into_bytes();
        steps.push(ScenarioStep::Write { client: c, name, offset: 0, data });
    }
    steps.push(ScenarioStep::Fault(FaultEvent::Settle));
    steps.push(ScenarioStep::Fault(FaultEvent::Split { groups: vec![vec![0], vec![1, 2]] }));
    steps.push(ScenarioStep::Fault(FaultEvent::Settle));
    steps.push(ScenarioStep::Fault(FaultEvent::Heal));
    steps.push(ScenarioStep::Fault(FaultEvent::Settle));
    for c in 0..3 {
        let name = format!("f{c}");
        steps.push(ScenarioStep::Read { client: c, name: name.clone() });
        let data = format!("v2 payload of client {c}").into_bytes();
        steps.push(ScenarioStep::Write { client: c, name, offset: 0, data });
    }
    steps.push(ScenarioStep::Fault(FaultEvent::Settle));
    let scenario = Scenario { servers: 3, clients: 3, steps };
    let cfg = RuntimeConfig::new(3);

    scenario.assert_worlds_match(&cfg);

    let sim = scenario.run_sim(&cfg).expect("sim run");
    for (name, contents) in &sim.contents {
        assert_eq!(contents, format!("v2 payload of client {}", &name[1..]).as_bytes());
    }
    assert!(sim.replicas.values().all(|&n| n == 3), "replicas: {:?}", sim.replicas);
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
    const CLIENTS: usize = 6;
    const WRITES_PER_CLIENT: usize = 12;
    fn home(c: usize) -> NodeId {
        NodeId((c % 3) as u32)
    }
    /// Setup (sequential, run identically in both worlds): one file per
    /// client, created via the client's home server.
    fn setup(world: &mut impl World) -> Vec<FileHandle> {
        let handles = (0..CLIENTS).map(|c| create(world, home(c), &format!("f{c}"), None, b""));
        let handles = handles.collect();
        world.fault(&FaultEvent::Settle);
        handles
    }

    let cfg = RuntimeConfig::new(3);
    let mut live = LiveWorld::start(cfg.clone(), 1);
    let handles = setup(&mut live);

    // Stress (concurrent): each client appends its own chunks to its own
    // file; a global ticket stamps every completed write.
    let order = ticketed_writers(&mut live, &handles, home, WRITES_PER_CLIENT, true, |_| {});
    live.fault(&FaultEvent::Settle);
    let live_end = read_all(&mut live, home, &handles);
    let flight = live.flight();
    drop(live);

    // Simulator replay, in the observed global completion order.
    assert_eq!(order.len(), CLIENTS * WRITES_PER_CLIENT, "every write completed exactly once");
    let mut sim = SimWorld::new(&cfg, 1);
    let sim_handles = setup(&mut sim);
    replay(&mut sim, &sim_handles, home, &order);
    sim.fault(&FaultEvent::Settle);
    let sim_end = read_all(&mut sim, home, &sim_handles);

    // Per-file append order survived cross-file concurrency.
    assert_ends_match(&live_end, &sim_end, false, &flight);
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
    use std::time::Duration;

    const WRITERS: usize = 4;
    const MAX_WRITES: usize = 2000; // cap; the crash ends the stream early
    const HOME: NodeId = NodeId(1); // token holder of every stressed file
    let home = HOME;
    let reader_home = NodeId(2);
    /// Setup (run identically in both worlds): per-writer files created,
    /// replicated 3x, via the holder-to-be.
    fn setup(world: &mut impl World) -> Vec<FileHandle> {
        let params = Some(FileParams::important(3));
        let handles = (0..WRITERS).map(|c| create(world, HOME, &format!("f{c}"), params, b""));
        let handles = handles.collect();
        world.fault(&FaultEvent::Settle);
        handles
    }

    let cfg = RuntimeConfig::new(3).with_request_timeout(Duration::from_millis(300));
    let mut live = LiveWorld::start(cfg.clone(), 1);
    let handles = setup(&mut live);

    // Stress: sequential appends per writer, all via the token holder,
    // stopping at the first failed write (the crash). Acked writes are
    // ticket-stamped in completion order. Mid-stream the holder crashes;
    // once the writers stop, it comes back.
    let order = ticketed_writers(
        &mut live,
        &handles,
        |_| home,
        MAX_WRITES,
        false,
        |live| {
            std::thread::sleep(Duration::from_millis(5));
            live.fault(&FaultEvent::Crash { server: home.0 });
        },
    );
    live.fault(&FaultEvent::Restart { server: home.0 });
    live.fault(&FaultEvent::Settle);

    // Live outcome, read via a survivor (forwarding resolves laggards).
    let live_end = read_all(&mut live, |_| reader_home, &handles);
    let flight = live.flight();
    drop(live);

    // Observed history: acked writes per file, in completion order.
    let mut acked = [0usize; WRITERS];
    for &(c, _) in &order {
        acked[c] += 1;
    }
    // Resolve each writer's ambiguous in-flight write: the live bytes
    // decide whether it applied before the crash.
    let mut kept_inflight = [false; WRITERS];
    for c in 0..WRITERS {
        let acked_len: usize = (0..acked[c]).map(|i| chunk(c, i).len()).sum();
        match live_end[c].data.len() {
            l if l == acked_len => {}
            l if l == acked_len + chunk(c, acked[c]).len() => kept_inflight[c] = true,
            l => panic!(
                "file f{c}: live length {l} matches neither {acked_len} acked bytes \
                 nor one extra in-flight write — a write tore or vanished"
            ),
        }
    }

    // Simulator replay of exactly that history.
    let mut sim = SimWorld::new(&cfg, 1);
    let sim_handles = setup(&mut sim);
    let offsets = replay(&mut sim, &sim_handles, |_| home, &order);
    for c in 0..WRITERS {
        if kept_inflight[c] {
            write(&mut sim, home, sim_handles[c], offsets[c], chunk(c, acked[c]).as_bytes());
        }
    }
    sim.fault(&FaultEvent::Crash { server: home.0 });
    sim.fault(&FaultEvent::Restart { server: home.0 });
    sim.fault(&FaultEvent::Settle);
    let sim_end = read_all(&mut sim, |_| reader_home, &sim_handles);

    // Contents, update counts and recovered replica levels match.
    assert_ends_match(&live_end, &sim_end, true, &flight);
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
    use deceit_sim::atomic::{PublishedBool, PublishedU64};
    use std::sync::Arc;

    const WRITES: usize = 60;
    const READERS: usize = 3; // 2 on the holder (lease path), 1 remote
    let home = NodeId(0);
    let remote_home = NodeId(1);
    let params = Some(FileParams::important(3));

    // Setup (mirrored in the replay): the streamed file, replicated 3x,
    // warmed via the holder-to-be, settled stable.
    let cfg = RuntimeConfig::new(3);
    let mut live = LiveWorld::start(cfg.clone(), 1);
    let fh = create(&mut live, home, "stream", params, b"warmup:");
    live.fault(&FaultEvent::Settle);

    // The full expected byte sequence and the set of valid acked-prefix
    // lengths a read may observe.
    let mut expected: Vec<u8> = b"warmup:".to_vec();
    let mut valid_lens = vec![expected.len()];
    for i in 0..WRITES {
        expected.extend_from_slice(format!("[w{i}]").as_bytes());
        valid_lens.push(expected.len());
    }

    let done = Arc::new(PublishedBool::new(false));
    let started = Arc::new(PublishedU64::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            // Reader 2 sits on a non-holder: its reads forward around
            // the unstable replica (and arm read-repair) instead of
            // riding the lease.
            let mut client =
                live.rt.client_homed(if r == READERS - 1 { remote_home } else { home });
            let (done, started) = (Arc::clone(&done), Arc::clone(&started));
            let expected = expected.clone();
            let valid_lens = valid_lens.clone();
            let mut agent = live_agent(&client);
            std::thread::spawn(move || {
                let mut last_len = 0usize;
                let mut reads = 0u64;
                while !done.load() {
                    let read = agent.read_file(&mut client, fh);
                    let (data, _) = read.expect("concurrent stream read");
                    let who = format!("reader {r}");
                    check_acked_prefix(&data, &expected, &valid_lens, &mut last_len, &who);
                    reads += 1;
                    if reads == 1 {
                        started.fetch_add(1);
                    }
                }
                reads
            })
        })
        .collect();

    // The stream starts once every reader has read once, so no reader
    // can find `done` set before its first read, however the threads
    // are scheduled.
    while started.load() < READERS as u64 {
        assert!(!readers.iter().any(|r| r.is_finished()), "a reader stopped before its first read");
        std::thread::yield_now();
    }
    let mut writer = live.rt.client_homed(home);
    let mut agent = pinned(&writer);
    let mut offset = b"warmup:".len();
    for i in 0..WRITES {
        let chunk = format!("[w{i}]");
        agent.write(&mut writer, fh, offset, chunk.as_bytes()).expect("stream write");
        offset += chunk.len();
    }
    done.store(true);
    let total_reads: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total_reads > 0, "the readers must have observed the stream");
    live.fault(&FaultEvent::Settle);

    let live_end = read_all(&mut live, |_| remote_home, &[fh]);
    let flight = live.flight();
    drop(live);
    assert_eq!(
        live_end[0].data, expected,
        "the live stream lost or reordered an acked write; live flight recorder:\n{flight}"
    );

    // Simulator replay of the same history through the same config.
    let mut sim = SimWorld::new(&cfg, 1);
    let sim_fh = create(&mut sim, home, "stream", params, b"warmup:");
    sim.fault(&FaultEvent::Settle);
    let mut offset = b"warmup:".len();
    for i in 0..WRITES {
        let chunk = format!("[w{i}]");
        write(&mut sim, home, sim_fh, offset, chunk.as_bytes());
        offset += chunk.len();
    }
    sim.fault(&FaultEvent::Settle);
    let sim_end = read_all(&mut sim, |_| remote_home, &[sim_fh]);
    assert_ends_match(&live_end, &sim_end, true, &flight);
}

/// The migration storm differential: cross-homed readers of files marked
/// `migration` (§3.1 method 4) forward their first reads, each of which
/// schedules a replica generation toward them, while a writer streams
/// appends through the token holder and a replica server is crashed and
/// restarted — the migrations execute into that churn. Two invariants
/// must hold through the storm: every observed read is a monotone acked
/// prefix of its file (never torn, never shrinking within a session),
/// and no file's replica count ends below its `min_replicas` floor. The
/// simulator then replays the acked writes plus the crash/restart, and
/// contents and update counts must match byte for byte. (Replica
/// *placement* is not compared: the sim replay reads only at the end,
/// so it migrates later than the live cell.)
#[test]
fn migration_storm_under_crash_keeps_floor_and_read_monotonicity() {
    use deceit_sim::atomic::PublishedBool;
    use std::sync::Arc;
    use std::time::Duration;

    const FILES: usize = 4;
    const FLOOR: usize = 2;
    const WRITES: usize = 48; // round-robin across FILES
    const READERS: usize = 2;
    const HOME: NodeId = NodeId(0); // token holder of every file
    let home = HOME;
    let churn = NodeId(1); // fill's second copy — crashed mid-storm
    let reader_home = NodeId(2); // migration target
    /// Setup (run identically in both worlds): FILES files homed on
    /// `HOME`, marked `migration`, replication floor FLOOR, seeded and
    /// settled stable.
    fn setup(world: &mut impl World) -> Vec<FileHandle> {
        let params = Some(FileParams { migration: true, ..FileParams::important(FLOOR) });
        let handles = (0..FILES)
            .map(|c| create(world, HOME, &format!("f{c}"), params, format!("seed{c}:").as_bytes()));
        let handles = handles.collect();
        world.fault(&FaultEvent::Settle);
        handles
    }

    let cfg = RuntimeConfig::new(3).with_request_timeout(Duration::from_millis(300));
    let mut live = LiveWorld::start(cfg.clone(), 1);
    let handles = setup(&mut live);

    // Expected byte sequence and valid acked-prefix lengths per file.
    let mut expected: Vec<Vec<u8>> = (0..FILES).map(|c| format!("seed{c}:").into_bytes()).collect();
    let mut valid_lens: Vec<Vec<usize>> = expected.iter().map(|e| vec![e.len()]).collect();
    for i in 0..WRITES {
        let c = i % FILES;
        expected[c].extend_from_slice(format!("[w{i}]").as_bytes());
        valid_lens[c].push(expected[c].len());
    }

    // Readers: monotone acked prefixes per file per session, throughout
    // the crash, the restart, and the migrations their first reads
    // schedule.
    let done = Arc::new(PublishedBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let mut client = live.rt.client_homed(reader_home);
            let mut agent = live_agent(&client);
            let handles = handles.clone();
            let expected = expected.clone();
            let valid_lens = valid_lens.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_len = [0usize; FILES];
                let mut reads = 0u64;
                while !done.load() {
                    for c in 0..FILES {
                        let read = agent.read_file(&mut client, handles[c]);
                        let (data, _) = read.expect("storm read");
                        let (lens, who) = (&valid_lens[c], format!("reader {r} on f{c}"));
                        check_acked_prefix(&data, &expected[c], lens, &mut last_len[c], &who);
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
        let mut client = live.rt.client_homed(home);
        let mut agent = pinned(&client);
        let handles = handles.clone();
        std::thread::spawn(move || {
            let mut offsets: Vec<usize> = (0..FILES).map(|c| format!("seed{c}:").len()).collect();
            for i in 0..WRITES {
                let c = i % FILES;
                let chunk = format!("[w{i}]");
                let mut attempts = 0;
                while agent.write(&mut client, handles[c], offsets[c], chunk.as_bytes()).is_err() {
                    attempts += 1;
                    assert!(attempts < 2000, "write w{i} never recovered after the restart");
                    std::thread::sleep(Duration::from_millis(2));
                }
                offsets[c] += chunk.len();
            }
        })
    };

    // The storm: crash the second replica holder mid-stream, with the
    // readers' migrations landing around it, then bring it back.
    std::thread::sleep(Duration::from_millis(5));
    live.fault(&FaultEvent::Crash { server: churn.0 });
    std::thread::sleep(Duration::from_millis(20));
    live.fault(&FaultEvent::Restart { server: churn.0 });
    writer.join().expect("storm writer");
    live.fault(&FaultEvent::Settle);
    done.store(true);
    let total_reads: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total_reads > 0, "the readers must have observed the storm");
    live.fault(&FaultEvent::Settle);

    // Live outcome: full contents, the replication floor held through
    // migration + crash, and the migrations really ran.
    let live_end = read_all(&mut live, |_| reader_home, &handles);
    for (c, end) in live_end.iter().enumerate() {
        assert!(
            end.replicas >= FLOOR,
            "f{c} ended with {} replicas, below its floor of {FLOOR}",
            end.replicas
        );
    }
    let placement = live.rt.observe().core.expect("core report").placement;
    assert!(
        placement.migrations_executed >= 1,
        "the storm ran without any migration executing: {placement:?}"
    );
    let flight = live.flight();
    drop(live);
    for c in 0..FILES {
        assert_eq!(
            live_end[c].data, expected[c],
            "f{c} lost or reordered an acked write; live flight recorder:\n{flight}"
        );
    }

    // Simulator replay: same files, same acked writes in order, same
    // crash/restart of the second replica holder.
    let mut sim = SimWorld::new(&cfg, 1);
    let sim_handles = setup(&mut sim);
    let mut offsets: Vec<usize> = (0..FILES).map(|c| format!("seed{c}:").len()).collect();
    for i in 0..WRITES {
        let c = i % FILES;
        let chunk = format!("[w{i}]");
        write(&mut sim, home, sim_handles[c], offsets[c], chunk.as_bytes());
        offsets[c] += chunk.len();
    }
    sim.fault(&FaultEvent::Crash { server: churn.0 });
    sim.fault(&FaultEvent::Restart { server: churn.0 });
    sim.fault(&FaultEvent::Settle);
    let sim_end = read_all(&mut sim, |_| reader_home, &sim_handles);
    assert_ends_match(&live_end, &sim_end, false, &flight);
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
    let mut agent = live_agent(&opener);
    let (attr, _) = agent.create(&mut opener, root, "contested", 0o644).expect("create");
    let fh = attr.handle;
    agent.write(&mut opener, fh, 0, &[b'@'; LEN]).expect("warmup");
    rt.settle();
    let sub_before = agent.getattr(&mut opener, fh).expect("getattr").0.version.sub;

    let stop = Arc::new(PublishedBool::new(false));
    // The writers start only once the reader has read once, so the
    // reader cannot see `stop` before its first read.
    let start = Arc::new(Barrier::new(WRITERS + 1));
    let reader = {
        let (stop, start) = (Arc::clone(&stop), Arc::clone(&start));
        let mut client = rt.client();
        let mut agent = live_agent(&client);
        std::thread::spawn(move || {
            let mut observed = 0u64;
            loop {
                let (data, _) = agent.read_file(&mut client, fh).expect("concurrent read");
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
            let mut agent = live_agent(&client);
            std::thread::spawn(move || {
                let pattern = [b'A' + w as u8; LEN];
                start.wait();
                for _ in 0..WRITES_PER_CLIENT {
                    agent.write(&mut client, fh, 0, &pattern).expect("contested write");
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
    let (final_data, _) = agent.read_file(&mut opener, fh).expect("final read");
    assert_eq!(final_data.len(), LEN);
    assert!(
        final_data.iter().all(|&b| b == final_data[0]),
        "final contents are torn: {:?}…",
        &final_data[..8]
    );
    assert!((b'A'..b'A' + WRITERS as u8).contains(&final_data[0]), "one writer's pattern wins");
    // Every write applied exactly once, serialized: the subversion
    // advanced by exactly the number of writes.
    let sub_after = agent.getattr(&mut opener, fh).expect("getattr").0.version.sub;
    assert_eq!(
        sub_after - sub_before,
        (WRITERS * WRITES_PER_CLIENT) as u64,
        "same-file mutations were lost or duplicated"
    );
    rt.shutdown();
}
