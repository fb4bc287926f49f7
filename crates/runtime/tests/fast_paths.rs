//! Fast-path canaries: live traffic that must keep riding the lock-free
//! shared read path, each run under a watchdog.
//!
//! * **stream** — one session streams writes to a file while three
//!   others read it, all homed on the file's token holder: the §3.4
//!   worst case for the read fast path (the file is unstable the whole
//!   time), recovered by holder-local read leases. **remote stream** is
//!   the same with the readers on another server, whose reads forward
//!   to the holder and are answered from its lease.
//! * **cross-homed writers** — sessions homed on two servers take turns
//!   writing and reading one shared file: after the first acquisition
//!   the token stays parked (§3.3 optimization 2 forwards the other
//!   home's small writes to it), and both homes' reads stay on the
//!   shared path.
//! * **skew** — sixteen cross-homed sessions read sixteen round-robin-
//!   homed files marked `migration` (§3.1 method 4) under Zipf(1)
//!   popularity: the warm-up's forwarded reads must migrate the files
//!   toward their readers, so the timed reads are served locally.
//!
//! Workers are joined under [`WATCHDOG`], so a lock-order bug fails the
//! test with the workload's name instead of hanging the suite.

use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use deceit_core::FileParams;
use deceit_nfs::{FileHandle, NfsReply, NfsRequest};
use deceit_runtime::{live_agent, ClusterRuntime, RuntimeClient, RuntimeConfig};

/// How long a workload's workers may run before the test calls it a
/// deadlock.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Files in the skew workload's file set.
const SKEW_FILES: usize = 16;

/// Joins every worker, failing with `workload`'s name if any is still
/// running when the watchdog expires (a hung worker is left behind; the
/// test binary exits without it).
#[expect(clippy::disallowed_methods, reason = "the watchdog times the test, not the product")]
fn join_within<T>(workload: &str, workers: Vec<JoinHandle<T>>) -> Vec<T> {
    let deadline = Instant::now() + WATCHDOG;
    workers
        .into_iter()
        .map(|w| {
            while !w.is_finished() {
                assert!(
                    Instant::now() < deadline,
                    "{workload}: workers still running after {WATCHDOG:?} — deadlock?"
                );
                thread::sleep(Duration::from_millis(5));
            }
            w.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
        })
        .collect()
}

/// One session streams writes to a file replicated on every server while
/// three others read it through the server `reader_home` picks; fails
/// unless at least 90 % of the reads were served on the shared path.
fn stream_readers_ride_the_lease(workload: &str, reader_home: usize) {
    const READERS: usize = 3;
    const OPS: usize = 100;

    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    // The file is created via this server, so it holds the token.
    let holder = rt.server_ids()[0];
    let mut writer = rt.client_homed(holder);
    let (mut agent, root) = (live_agent(&writer), writer.root());
    let (attr, _) = agent.create(&mut writer, root, "stream", 0o644).expect("create");
    let fh = attr.handle;
    agent.set_file_params(&mut writer, fh, FileParams::important(3)).expect("set replicas");
    agent.write(&mut writer, fh, 0, b"warmup payload").expect("warmup write");
    let home = rt.server_ids()[reader_home];
    let readers: Vec<RuntimeClient> = (0..READERS).map(|_| rt.client_homed(home)).collect();

    // All four sessions start together, so the reads race the stream.
    let start = Arc::new(Barrier::new(READERS + 1));
    let before = rt.stats();
    let go = Arc::clone(&start);
    let mut workers = vec![thread::spawn(move || {
        go.wait();
        for i in 0..OPS {
            let chunk = format!("stream write {i:04}");
            agent.write(&mut writer, fh, 0, chunk.as_bytes()).expect("stream write");
        }
    })];
    workers.extend(readers.into_iter().map(|mut reader| {
        let go = Arc::clone(&start);
        thread::spawn(move || {
            let mut agent = live_agent(&reader);
            go.wait();
            for _ in 0..OPS {
                agent.read_file(&mut reader, fh).expect("stream read");
            }
        })
    }));
    join_within(workload, workers);
    let after = rt.stats();
    rt.shutdown();

    // The writer's requests are mutations, never shared, so the share is
    // taken over the readers' requests alone.
    let shared = after.requests_served_shared - before.requests_served_shared;
    let share = shared as f64 / (READERS * OPS) as f64;
    assert!(
        share >= 0.9,
        "{workload}: only {:.0}% of reader requests were served on the shared path (needs >= 90%) — the read-lease path has regressed",
        share * 100.0
    );
}

/// Every session sits on the token holder: the holder's own read path
/// under its own write stream.
#[test]
fn stream_readers_stay_on_the_lease_path() {
    stream_readers_ride_the_lease("stream", 0);
}

/// The readers sit on a server whose replica the stream keeps unstable:
/// each read forwards to the holder (§3.4), answered from its lease.
#[test]
fn remote_stream_readers_ride_the_holders_lease() {
    stream_readers_ride_the_lease("remote stream", 1);
}

/// Sessions homed on servers 0 and 1 take turns writing and reading one
/// (2,1) file created via server 2, so one home holds a replica and the
/// other does not. The one without takes the token with its first
/// write, and a replica with it (§3.3 optimization 2 forwards only from
/// a replica holder); from then on every write from the other home is
/// forwarded to the parked token, so `core/token/passes` stops growing,
/// and each home's reads stay on the shared path (≥ 90 % each): the
/// holder's from its lease, the other's forwarded to that lease. A
/// forwarded write is made at the holder, so it meets no version
/// conflict, and a lease-served read arms no read repair.
#[test]
fn cross_homed_writers_leave_the_token_parked() {
    const ROUNDS: usize = 200;

    let rt = Arc::new(ClusterRuntime::start(RuntimeConfig::new(3)));
    let ids = rt.server_ids().to_vec();
    let mut creator = rt.client_homed(ids[2]);
    let (mut agent, root) = (live_agent(&creator), creator.root());
    let (attr, _) = agent.create(&mut creator, root, "shared", 0o644).expect("create");
    let fh = attr.handle;
    let params = FileParams { write_safety: 1, ..FileParams::important(2) };
    agent.set_file_params(&mut creator, fh, params).expect("set params");
    rt.settle();
    let (holders, _) = agent.locate_replicas(&mut creator, fh).expect("locate replicas");
    let homes = [ids[0], ids[1]];
    let with_replica = homes.iter().filter(|h| holders.contains(h)).count();
    assert_eq!(with_replica, 1, "one home without a replica: {holders:?}");
    let mut sessions = homes.map(|home| rt.client_homed(home));

    let cell = Arc::clone(&rt);
    let worker = thread::spawn(move || {
        let count = |name: &str| {
            let stats = cell.observe().stats.expect("the engine exports its counters");
            stats.get(name).expect("an exported counter")
        };
        let counts = || {
            let names = ["core/token/passes", "core/occ/conflicts", "core/reads/repairs_scheduled"];
            names.map(count)
        };
        let shared = || cell.stats().requests_served_shared;
        let write = |s: &mut RuntimeClient, data: String| {
            let write = NfsRequest::Write { fh, offset: 0, data: data.into_bytes().into() };
            assert!(matches!(s.call(write), Ok(NfsReply::Attr(_))), "write refused");
        };
        // The first acquisition: the home without a replica takes the
        // token; the other's first write is already forwarded.
        for (h, s) in sessions.iter_mut().enumerate() {
            write(s, format!("first write from home {h}"));
        }
        let parked = counts();
        let mut served_shared = [0u64; 2];
        for round in 0..ROUNDS {
            for (h, s) in sessions.iter_mut().enumerate() {
                write(s, format!("round {round:04} from home {h}"));
                let before = shared();
                let read = NfsRequest::Read { fh, offset: 0, count: 64 };
                let Ok(NfsReply::Data(data)) = s.call(read) else { panic!("read refused") };
                let wrote = format!("round {round:04} from home {h}");
                assert!(data.starts_with(wrote.as_bytes()), "home {h} read {data:?}");
                served_shared[h] += shared() - before;
            }
        }
        let after = counts();
        (std::array::from_fn(|i| after[i] - parked[i]), served_shared)
    });
    let (counted, served_shared) = join_within("cross-homed writers", vec![worker]).remove(0);
    let [moved, conflicts, repairs] = counted;
    if let Ok(rt) = Arc::try_unwrap(rt) {
        rt.shutdown();
    }

    assert_eq!(moved, 0, "the token moved after the first acquisition: {moved} passes");
    // A forwarded write loads and stores at the holder, so no restart;
    // a forwarded read is served by the holder's lease, which arms no
    // repair.
    assert_eq!(conflicts, 0, "forwarded writes met {conflicts} version conflicts");
    assert_eq!(repairs, 0, "the reads armed {repairs} read repairs");
    for (h, shared) in served_shared.iter().enumerate() {
        let share = *shared as f64 / ROUNDS as f64;
        assert!(
            share >= 0.9,
            "cross-homed writers: only {:.0}% of home {h}'s reads were served on the shared path (needs >= 90%)",
            share * 100.0
        );
    }
}

/// Migration is the files' own parameter (§4: off by default), so the
/// warm-up moves only what the files ask for; unmarked, the same reads
/// stay well under the bound.
#[test]
fn skew_reads_go_local_after_placement_warmup() {
    const CLIENTS: usize = 16;
    const WARMUP: usize = 50;
    const OPS: usize = 50;

    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let servers = rt.server_ids().to_vec();
    let files: Vec<FileHandle> = (0..SKEW_FILES)
        .map(|f| {
            let mut client = rt.client_homed(servers[f % servers.len()]);
            let (mut agent, root) = (live_agent(&client), client.root());
            let (attr, _) =
                agent.create(&mut client, root, &format!("skew{f}"), 0o644).expect("create");
            let params = FileParams { migration: true, ..FileParams::important(1) };
            agent.set_file_params(&mut client, attr.handle, params).expect("set params");
            agent.write(&mut client, attr.handle, 0, b"migration warmup payload").expect("warmup");
            attr.handle
        })
        .collect();

    // Cross-homed reads under the timed section's access pattern: each
    // file's first forwarded read from a server schedules its migration
    // there; `settle` then executes them before anything is counted.
    let files = &files;
    let reads = |from: usize, to: usize| {
        move |(c, mut client): (usize, RuntimeClient)| {
            let files = files.clone();
            thread::spawn(move || {
                let mut agent = live_agent(&client);
                for i in from..to {
                    agent.read_file(&mut client, files[zipf16(c, i)]).expect("skew read");
                }
                (c, client)
            })
        }
    };
    let sessions = (0..CLIENTS).map(|c| (c, rt.client()));
    let sessions = join_within("skew warm-up", sessions.map(reads(0, WARMUP)).collect());
    rt.settle();

    let before = rt.stats();
    join_within("skew", sessions.into_iter().map(reads(WARMUP, WARMUP + OPS)).collect());
    let after = rt.stats();
    rt.shutdown();

    let served = after.requests_served - before.requests_served;
    let shared = after.requests_served_shared - before.requests_served_shared;
    let share = shared as f64 / served.max(1) as f64;
    assert!(
        share >= 0.6,
        "skew: only {:.0}% of reads were served on the shared path after migration warm-up (needs >= 60%) — §3.1 migration has regressed",
        share * 100.0
    );
}

/// Deterministic Zipf(s=1) rank over [`SKEW_FILES`] files, file 0 most
/// popular: splitmix64 of `(client, i)` drives an inverse-CDF walk over
/// the harmonic weights — no RNG state, identical across runs.
fn zipf16(client: usize, i: usize) -> usize {
    let mut x = (client as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let u = (x >> 11) as f64 / (1u64 << 53) as f64;
    let h16: f64 = (1..=SKEW_FILES).map(|r| 1.0 / r as f64).sum();
    let target = u * h16;
    let mut acc = 0.0;
    for r in 0..SKEW_FILES {
        acc += 1.0 / (r + 1) as f64;
        if acc >= target {
            return r;
        }
    }
    SKEW_FILES - 1
}

#[test]
fn zipf_is_deterministic_and_skewed() {
    let mut counts = [0usize; SKEW_FILES];
    for client in 0..16 {
        for i in 0..200 {
            let r = zipf16(client, i);
            assert_eq!(r, zipf16(client, i), "deterministic");
            counts[r] += 1;
        }
    }
    assert!(counts[0] > counts[4], "rank 0 beats rank 4: {counts:?}");
    assert!(counts[0] > counts[15] * 4, "heavy head: {counts:?}");
    let head: usize = counts[..4].iter().sum();
    let total: usize = counts.iter().sum();
    assert!(head * 2 > total, "top 4 of 16 files carry over half the traffic: {counts:?}");
}
