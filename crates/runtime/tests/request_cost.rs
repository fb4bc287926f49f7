//! What one request costs besides its hand-off, counted rather than
//! timed: wall-clock reads ([`deceit_sim::wall::reads`]), leaf-lock
//! rounds ([`deceit_sim::leaf::rounds`]) and allocator calls (the
//! counting allocator below), per request, on a live 3-server cell with
//! one session homed on server 0. The timed requests go through the
//! session's bare `call`, as the benchmark's closed loop sends them.
//!
//! * **read** — 512 B reads of a stable 1 KiB file replicated on every
//!   server (`min_replicas` 3): the paper's cheapest operation (§2.1,
//!   §3.4), served on the lock-free shared path. The client stamps the
//!   call twice and nothing else reads the clock; nothing allocates; the
//!   replica is found, copied out and its access recorded in one visit
//!   to the server's slot — one lock round.
//! * **write** — 512 B overwrites of a (3, 2) file from one reused
//!   payload: the client's two stamps, the ring-lock hold's two, and the
//!   pump's passes. It allocates the new image's buffer and that
//!   buffer's refcount box, and nothing else. Its lock rounds are the
//!   protocol's: the load's visit, the token check's visit and the
//!   group's existence, the safety lane's member set, reachability
//!   probe, exchange, failure-detector fold and delivery visit, the
//!   holder's end visit, and two flight-recorder entries — 11, and
//!   the pump's share of a drain.
//! * **forwarded write** — the same overwrites from a session homed on
//!   server 1, which holds a replica of the file but not its token
//!   (§3.3 optimization 2, on in the live profile). Core decides the
//!   forward before anything is loaded: at server 1 the token holder's
//!   load that misses, the replica-and-token probe, the key's
//!   resolution, the holder search, the `forward` exchange and the
//!   `UpdateForwarded` entry; then the holder's primary is loaded and
//!   written there, on the held-token path. 19.1 rounds and 2.04
//!   allocations — the held-token write's allocations, and no read of
//!   server 1's replica; the token never moves.
//! * **lease read** — 512 B reads of a file mid-stream (every replica
//!   unstable, §3.4), from a session homed on server 1, which holds a
//!   replica but not the token: one visit to server 1's slot decides
//!   that the read forwards, the holder search and one visit to the
//!   holder's slot answer it from the holder's read lease, and the
//!   `forward` exchange and the `ReadForwarded` entry charge it — 5
//!   rounds, no allocation, served on the shared path.
//! * **holder's read** — the same reads from the holder's own session:
//!   its lease answers in the visit that finds the replica unstable —
//!   one round.
//!
//! Mid-stream, the stream's stability check stays parked in the event
//! queue, and every pump wake probes its slot: one more round, about one
//! per 1,300 reads. Rounds are counted process-wide, so the two lease
//! shapes' bounds add the pump's wakes.
//!
//! Only a park with a deadline reads the clock beyond those stamps, and
//! every park a request pays ends in a wake-up the bus counts, so the
//! clock bounds add the `bus_wakes` delta. Counts are process-wide, so
//! the two shapes never run at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use deceit_core::{FileParams, WriteAvailability};
use deceit_nfs::{FileHandle, NfsReply, NfsRequest};
use deceit_runtime::{live_agent, ClusterRuntime, RuntimeClient, RuntimeConfig};
use deceit_sim::atomic::RelaxedU64;
use deceit_sim::{leaf, wall, SimDuration};
use parking_lot::Mutex;

/// Allocator calls (`alloc` + `realloc`) by every thread.
static TOTAL: RelaxedU64 = RelaxedU64::new(0);

thread_local! {
    /// Allocator calls by this thread: the session's, on the test thread.
    static MINE: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every call to `System` unchanged; the only additions
// are a relaxed atomic increment and a thread-local counter bump, which
// has no destructor and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        TOTAL.fetch_add(1);
        MINE.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        TOTAL.fetch_add(1);
        MINE.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The shapes count process-wide, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const WARMUP: usize = 2_000;
const TIMED: usize = 20_000;
const IO: usize = 512;

/// What `TIMED` requests cost, per request.
#[derive(Debug)]
struct Cost {
    clock_reads: f64,
    lock_rounds: f64,
    wakes: f64,
    allocs_client: f64,
    allocs_elsewhere: f64,
    served_shared: u64,
    /// Pump wakes: each one that finds deferred work parked but none
    /// ready probes the slot holding it — one lock round.
    pump_steps: f64,
}

/// A cell with one session homed on server 0, and a settled 1 KiB file
/// with `params` written through it.
fn cell(params: FileParams) -> (ClusterRuntime, RuntimeClient, FileHandle) {
    cell_with(RuntimeConfig::new(3), params)
}

/// [`cell`] under `cfg`.
fn cell_with(
    cfg: RuntimeConfig,
    params: FileParams,
) -> (ClusterRuntime, RuntimeClient, FileHandle) {
    let rt = ClusterRuntime::start(cfg);
    let mut c = rt.client_homed(rt.server_ids()[0]);
    let (mut agent, root) = (live_agent(&c), c.root());
    let fh = agent.create(&mut c, root, "f", 0o644).expect("create").0.handle;
    agent.set_file_params(&mut c, fh, params).expect("params");
    agent.write(&mut c, fh, 0, &[7u8; 2 * IO]).expect("fill");
    rt.settle();
    (rt, c, fh)
}

fn params(min_replicas: usize, write_safety: usize) -> FileParams {
    FileParams {
        min_replicas,
        write_safety,
        stability: true,
        migration: false,
        availability: WriteAvailability::Medium,
        read_optimized: false,
    }
}

/// Runs `op` for the warm-up, then counts `TIMED` more.
fn cost(rt: &ClusterRuntime, mut op: impl FnMut(usize)) -> Cost {
    (0..WARMUP).for_each(&mut op);
    let steps0 = rt.observe().pump_steps;
    let (s0, mine0, total0) = (rt.stats(), MINE.with(Cell::get), TOTAL.load());
    let (reads0, rounds0) = (wall::reads(), leaf::rounds());
    (WARMUP..WARMUP + TIMED).for_each(&mut op);
    let (reads1, rounds1) = (wall::reads(), leaf::rounds());
    let (s1, mine1, total1) = (rt.stats(), MINE.with(Cell::get), TOTAL.load());
    let steps1 = rt.observe().pump_steps;
    let per = |n: u64| n as f64 / TIMED as f64;
    let client = mine1 - mine0;
    Cost {
        clock_reads: per(reads1 - reads0),
        lock_rounds: per(rounds1 - rounds0),
        wakes: per(s1.bus_wakes - s0.bus_wakes),
        allocs_client: per(client),
        allocs_elsewhere: per(total1 - total0 - client),
        served_shared: s1.requests_served_shared - s0.requests_served_shared,
        pump_steps: per(steps1 - steps0),
    }
}

#[test]
fn a_local_read_costs_two_stamps_and_no_allocation() {
    let _turn = SERIAL.lock();
    let (rt, mut c, fh) = cell(params(3, 1));
    let got = cost(&rt, |i| {
        let read = NfsRequest::Read { fh, offset: (i % 2) * IO, count: IO };
        let Ok(NfsReply::Data(data)) = c.call(read) else { panic!("read {i}") };
        assert_eq!(data.len(), IO);
    });
    println!("read: {got:?}");
    assert_eq!(got.served_shared, TIMED as u64, "every read served on the shared path: {got:?}");
    assert!(got.clock_reads <= 2.0 + got.wakes, "clock reads per read: {got:?}");
    assert!(got.lock_rounds <= 1.0, "leaf-lock rounds per read: {got:?}");
    assert_eq!(got.allocs_client, 0.0, "the session allocates per read: {got:?}");
    assert!(got.allocs_elsewhere <= 0.01, "the servers allocate per read: {got:?}");
}

#[test]
fn a_replicated_write_stays_within_its_budget() {
    let _turn = SERIAL.lock();
    let (rt, mut c, fh) = cell(params(3, 2));
    let payload = Bytes::from(vec![9u8; IO]);
    let got = cost(&rt, |i| {
        let write = NfsRequest::Write { fh, offset: (i % 2) * IO, data: payload.clone() };
        assert!(matches!(c.call(write), Ok(NfsReply::Attr(_))), "write {i}");
    });
    println!("write: {got:?}");
    assert!(got.clock_reads <= 4.5 + got.wakes, "clock reads per write: {got:?}");
    assert!(got.lock_rounds <= 12.0, "leaf-lock rounds per write: {got:?}");
    let allocs = got.allocs_client + got.allocs_elsewhere;
    assert!(allocs <= 2.1, "allocations per write: {got:?}");
}

#[test]
fn a_forwarded_write_stays_within_its_budget() {
    let _turn = SERIAL.lock();
    let (rt, _holder, fh) = cell(params(3, 2));
    let mut c = rt.client_homed(rt.server_ids()[1]);
    let payload = Bytes::from(vec![9u8; IO]);
    let counters = || rt.observe().stats.expect("the engine exports its counters");
    let before = counters();
    let got = cost(&rt, |i| {
        let write = NfsRequest::Write { fh, offset: (i % 2) * IO, data: payload.clone() };
        assert!(matches!(c.call(write), Ok(NfsReply::Attr(_))), "write {i}");
    });
    let after = counters();
    println!("forwarded write: {got:?}");
    let delta = |name: &str| after.get(name).unwrap_or(0) - before.get(name).unwrap_or(0);
    assert_eq!(delta("core/token/passes"), 0, "the token stayed on server 0");
    assert_eq!(delta("core/token/updates_forwarded"), (WARMUP + TIMED) as u64);
    assert!(got.clock_reads <= 4.5 + got.wakes, "clock reads per write: {got:?}");
    assert!(got.lock_rounds <= 20.5, "leaf-lock rounds per write: {got:?}");
    let allocs = got.allocs_client + got.allocs_elsewhere;
    assert!(allocs <= 2.1, "allocations per write: {got:?}");
}

/// A (3, 2) [`cell`] whose file stays mid-stream through a count: one
/// more write through the holder's session marks every replica unstable
/// (§3.4) and publishes the holder's read lease, the pipeline's drain of
/// that write is run before anything is counted, and the stability
/// timeout is an hour — each forwarded read advances the protocol clock
/// by its round trip, which would otherwise quiet the stream part-way.
fn mid_stream_cell() -> (ClusterRuntime, RuntimeClient, FileHandle) {
    let mut cfg = RuntimeConfig::new(3);
    cfg.cluster.stability_timeout = SimDuration::from_secs(3600);
    let drain = cfg.cluster.lazy_apply_delay;
    let (rt, mut c, fh) = cell_with(cfg, params(3, 2));
    let write = NfsRequest::Write { fh, offset: 0, data: Bytes::from(vec![5u8; IO]) };
    assert!(matches!(c.call(write), Ok(NfsReply::Attr(_))), "the stream's first write");
    rt.with_engine(|e| e.fs.cluster.advance(drain));
    (rt, c, fh)
}

/// Reads through `c` of `fh`, counted.
fn reads(rt: &ClusterRuntime, c: &mut RuntimeClient, fh: FileHandle) -> Cost {
    cost(rt, |i| {
        let read = NfsRequest::Read { fh, offset: (i % 2) * IO, count: IO };
        let Ok(NfsReply::Data(data)) = c.call(read) else { panic!("read {i}") };
        assert_eq!(data.len(), IO);
    })
}

#[test]
fn a_forwarded_lease_read_is_one_visit_each_side() {
    let _turn = SERIAL.lock();
    let (rt, _holder, fh) = mid_stream_cell();
    let mut c = rt.client_homed(rt.server_ids()[1]);
    let counters = || rt.observe().stats.expect("the engine exports its counters");
    let before = counters();
    let got = reads(&rt, &mut c, fh);
    let after = counters();
    println!("forwarded lease read: {got:?}");
    let delta = |name: &str| after.get(name).unwrap_or(0) - before.get(name).unwrap_or(0);
    assert_eq!(delta("core/stability/stable_rounds"), 0, "the stream stayed active");
    assert_eq!(delta("core/reads/repairs_scheduled"), 0, "a lease-served forward arms no repair");
    assert_eq!(got.served_shared, TIMED as u64, "every read served on the shared path: {got:?}");
    assert!(got.lock_rounds <= 5.0 + got.pump_steps, "leaf-lock rounds per read: {got:?}");
    assert_eq!(got.allocs_client, 0.0, "the session allocates per read: {got:?}");
    assert!(got.allocs_elsewhere <= 0.01, "the servers allocate per read: {got:?}");
}

#[test]
fn the_holders_own_lease_read_is_one_visit() {
    let _turn = SERIAL.lock();
    let (rt, mut c, fh) = mid_stream_cell();
    let got = reads(&rt, &mut c, fh);
    println!("holder's lease read: {got:?}");
    assert_eq!(got.served_shared, TIMED as u64, "every read served on the shared path: {got:?}");
    assert!(got.lock_rounds <= 1.0 + got.pump_steps, "leaf-lock rounds per read: {got:?}");
    assert_eq!(got.allocs_client, 0.0, "the session allocates per read: {got:?}");
    assert!(got.allocs_elsewhere <= 0.01, "the servers allocate per read: {got:?}");
}
