//! The copy budget of the segment data path, counted in allocated bytes
//! and allocator calls so it does not depend on timing.
//!
//! Segment contents are a list of immutable refcounted extents from the
//! envelope down to every replica store (README § "Data path: who owns
//! the bytes"): a read is a view of one, a mutation builds one new
//! extent and shares the rest, and replication, durable mirroring and
//! deferred delivery pass the resulting image around by reference. A
//! copy proportional to the *file* anywhere on those paths shows up here
//! as a budget overrun.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deceit_core::{ClusterConfig, FileParams, ProtocolHost, WriteAvailability};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, FileHandle, FsConfig, NfsReply, NfsRequest, NfsServer, NfsService};

thread_local! {
    /// Bytes this thread has asked the allocator for. The engine under
    /// test runs entirely on the calling thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// Calls (`alloc` + `realloc`) this thread has made to the allocator.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every call to `System` unchanged; the only addition is a
// pair of thread-local counter bumps, which have no destructor and do not
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        CALLS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size.saturating_sub(layout.size())));
        CALLS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let (_, bytes, out) = allocations_during(f);
    (bytes, out)
}

/// Allocator calls made, and bytes allocated, on this thread while `f`
/// runs.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    let before = (CALLS.with(Cell::get), ALLOCATED.with(Cell::get));
    let out = f();
    (CALLS.with(Cell::get) - before.0, ALLOCATED.with(Cell::get) - before.1, out)
}

/// A cell configured like the live runtime's (write pipeline, read
/// leases, no trace; the counter table is always on).
fn live_like_server() -> NfsServer {
    NfsServer::new(DeceitFs::new(3, live_like_config(), FsConfig::default()))
}

fn live_like_config() -> ClusterConfig {
    ClusterConfig::default().with_write_pipeline().with_read_leases()
}

/// Creates `name` with `params` and fills it with `len` bytes, settled.
fn filled_file(srv: &mut NfsServer, name: &str, params: FileParams, len: usize) -> FileHandle {
    let root = srv.mount_root();
    let via = NodeId(0);
    let (rep, _) = srv.serve(via, NfsRequest::Create { dir: root, name: name.into(), mode: 0o644 });
    let NfsReply::Attr(attr) = rep else { panic!("create failed: {rep:?}") };
    let fh = attr.handle;
    let (rep, _) = srv.serve(via, NfsRequest::DeceitSetParams { fh, params });
    assert!(rep.as_error().is_none(), "{rep:?}");
    let fill: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    let (rep, _) = srv.serve(via, NfsRequest::Write { fh, offset: 0, data: fill.into() });
    assert!(rep.as_error().is_none(), "{rep:?}");
    srv.settle();
    fh
}

/// What a READ allocates does not depend on the size of the file it
/// reads from: the reply is a view of the stored buffer.
#[test]
fn read_allocation_is_independent_of_file_size() {
    let mut srv = live_like_server();
    let small = filled_file(&mut srv, "small", FileParams::default(), 64 << 10);
    let large = filled_file(&mut srv, "large", FileParams::default(), 4 << 20);
    let cost = |fh, via: u32| {
        let read = NfsRequest::Read { fh, offset: 8 << 10, count: 4 << 10 };
        let via = NodeId(via);
        // Lock-free path at the replica's home…
        let (shared, (rep, _)) =
            allocated_during(|| srv.serve_shared(via, &read).expect("local stable replica"));
        let NfsReply::Data(data) = rep else { panic!("read failed: {rep:?}") };
        assert_eq!(data.len(), 4 << 10);
        assert_eq!(data[0], ((8 << 10) % 251) as u8);
        // …and the forwarding ring path from a server without one.
        let other = NodeId((via.0 + 1) % 3);
        let (ring, (rep, _)) =
            allocated_during(|| srv.serve_read_sharded(other, &read).expect("keyed read"));
        assert_eq!(rep, NfsReply::Data(data));
        (shared, ring)
    };
    let (small_shared, small_ring) = cost(small, 0);
    let (large_shared, large_ring) = cost(large, 0);
    assert!(
        small_shared.abs_diff(large_shared) <= 1024,
        "serve_shared allocates {small_shared} B reading a 64 KiB file, {large_shared} B a 4 MiB one"
    );
    assert!(
        small_ring.abs_diff(large_ring) <= 1024,
        "serve_read_sharded allocates {small_ring} B reading a 64 KiB file, {large_ring} B a 4 MiB one"
    );
}

/// A 64 KiB WRITE into a 1 MiB file kept on all three servers adopts the
/// request's buffer as the one new extent and shares every other extent
/// of the old image: nothing payload-sized is allocated at all, neither
/// in the serving call nor in the drain that carries the update to both
/// remote replicas and mirrors it into their durable stores.
#[test]
fn replicated_write_shares_every_untouched_extent() {
    const SEGMENT: usize = 1 << 20;
    let mut srv = live_like_server();
    let fh = filled_file(&mut srv, "f", FileParams::important(3), SEGMENT);
    let holders = srv.fs.file_replicas(NodeId(0), fh).unwrap().value;
    assert_eq!(holders.len(), 3, "replicated on every server");

    let patch = vec![0xA5u8; 64 << 10];
    let write = NfsRequest::Write { fh, offset: 128 << 10, data: patch.clone().into() };
    let (bytes, ()) = allocated_during(|| {
        let (rep, _) = srv.serve_sharded(NodeId(0), &write).expect("single-file mutation");
        assert!(rep.as_error().is_none(), "{rep:?}");
        srv.settle();
    });
    assert!(
        bytes < 16 << 10,
        "a 64 KiB write into a 1 MiB 3-replica file allocated {bytes} B server-side"
    );

    // The budget was not met by skipping work: every server's own replica
    // serves the new contents — here through a READ that starts in the
    // extent before the patch and ends in the one after it.
    for via in 0..3 {
        let read = NfsRequest::Read { fh, offset: (128 << 10) - 1, count: (64 << 10) + 2 };
        let (rep, _) = srv.serve_shared(NodeId(via), &read).expect("stable replica everywhere");
        let NfsReply::Data(data) = rep else { panic!("read failed: {rep:?}") };
        assert_eq!(data[0], (((128 << 10) - 1) % 251) as u8);
        assert_eq!(&data[1..=64 << 10], &patch[..]);
        assert_eq!(data[(64 << 10) + 1], (((192 << 10) % 251) as u8));
    }
}

/// "Files tend to be written in their entirety in one sequential burst of
/// writes" (§2.3): building a 4 MiB file in 8 KiB WRITEs costs the
/// servers a small multiple of the file — the extent lists, a header per
/// write — not the square of it.
#[test]
fn sequential_burst_is_linear() {
    const BLOCK: usize = 8 << 10;
    const FILE: usize = 4 << 20;
    let mut srv = live_like_server();
    let fh = filled_file(&mut srv, "burst", FileParams::important(3), 0);
    // The client's buffers are the client's: built outside the count.
    let writes: Vec<NfsRequest> = (0..FILE / BLOCK)
        .map(|b| {
            let data: Vec<u8> = (0..BLOCK).map(|i| ((b * BLOCK + i) % 251) as u8).collect();
            NfsRequest::Write { fh, offset: b * BLOCK, data: data.into() }
        })
        .collect();
    let (bytes, ()) = allocated_during(|| {
        for write in &writes {
            let (rep, _) = srv.serve_sharded(NodeId(0), write).expect("single-file mutation");
            assert!(rep.as_error().is_none(), "{rep:?}");
        }
        srv.settle();
    });
    assert!(
        bytes < 12 << 20,
        "a 4 MiB file in 8 KiB writes allocated {bytes} B server-side ({:.1} file lengths)",
        bytes as f64 / FILE as f64
    );

    let read = NfsRequest::Read { fh, offset: FILE / 2 - 3, count: 2 * BLOCK };
    let (rep, _) = srv.serve_shared(NodeId(2), &read).expect("stable replica everywhere");
    let NfsReply::Data(data) = rep else { panic!("read failed: {rep:?}") };
    let expect: Vec<u8> =
        (FILE / 2 - 3..FILE / 2 - 3 + 2 * BLOCK).map(|i| (i % 251) as u8).collect();
    assert_eq!(&data[..], &expect[..]);
}

/// A chmod rewrites the inode header and nothing else: the new image
/// shares the whole payload with the old one.
#[test]
fn setattr_shares_the_payload() {
    let mut srv = live_like_server();
    let fh = filled_file(&mut srv, "big", FileParams::important(3), 4 << 20);
    let chmod = NfsRequest::Setattr { fh, mode: Some(0o600), uid: None, gid: None, size: None };
    let (bytes, ()) = allocated_during(|| {
        let (rep, _) = srv.serve_sharded(NodeId(0), &chmod).expect("single-file mutation");
        let NfsReply::Attr(attr) = rep else { panic!("setattr failed: {rep:?}") };
        assert_eq!((attr.mode, attr.size), (0o600, 4 << 20));
        srv.settle();
    });
    assert!(bytes < 4 << 10, "chmod of a 4 MiB 3-replica file allocated {bytes} B server-side");
}

/// A cell with the runtime's cluster settings and horizons
/// (`RuntimeConfig::new`): at ~20 ms of protocol time a write, the
/// simulator's would declare each of 64 interleaved streams quiet between
/// two of its writes.
fn runtime_like_server() -> NfsServer {
    let mut cfg = live_like_config().with_read_repair();
    cfg.stability_timeout = deceit_sim::SimDuration::from_secs(30);
    cfg.lazy_apply_delay = deceit_sim::SimDuration::from_secs(5);
    NfsServer::new(DeceitFs::new(3, cfg, FsConfig::default()))
}

/// Runs `writes` at server 0 the way the runtime does: every write on
/// the ring path, and every 9th a pump pass over the pending shards.
fn pumped(srv: &NfsServer, writes: &[NfsRequest]) {
    let shards = srv.shard_count();
    for (i, write) in writes.iter().enumerate() {
        let (rep, _) = srv.serve_sharded(NodeId(0), write).expect("single-file mutation");
        assert!(rep.as_error().is_none(), "{rep:?}");
        if i % 9 == 8 {
            let mask = srv.pending_shard_mask();
            for slot in (0..shards).filter(|s| mask & (1 << s) != 0) {
                srv.try_pump_shard(slot, 64);
            }
        }
    }
}

/// Overwrites of `io` bytes cycling through `blocks` block-aligned
/// offsets of each of `files`, round-robin: one write to each file, then
/// `count` more.
fn overwrites(files: &[FileHandle], blocks: usize, io: usize, count: usize) -> Vec<NfsRequest> {
    (0..files.len() + count)
        .map(|i| NfsRequest::Write {
            fh: files[i % files.len()],
            offset: (i / files.len() % blocks) * io,
            data: vec![(i % 251) as u8; io].into(),
        })
        .collect()
}

/// Allocator calls and bytes per write of `writes`, pumped.
fn cost_per_write(srv: &NfsServer, writes: &[NfsRequest]) -> (f64, f64) {
    let (calls, bytes, ()) = allocations_during(|| pumped(srv, writes));
    (calls as f64 / writes.len() as f64, bytes as f64 / writes.len() as f64)
}

/// The (`min_replicas`, `write_safety`) file profile the benchmark's
/// workloads use.
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

/// The fixed cost of the common case (§3.3: "an update requires only one
/// communication round if the token is held"): a 512 B write into a
/// 1 KiB file kept on three servers at write safety 2, token already
/// local, pumped the way the runtime pumps. Counted per write, amortised
/// over the drains: the new image's buffer and its refcount box — the
/// one-extent segment holds its extent inline, the rewrite builds no side
/// list, the safety round's replies stay off the heap — and nothing else.
#[test]
fn small_replicated_write_budget() {
    const FILES: usize = 64;
    const WRITES: usize = 2_000;
    let mut srv = runtime_like_server();
    let files: Vec<FileHandle> = (0..FILES)
        .map(|i| filled_file(&mut srv, &format!("f{i}"), params(3, 2), 1 << 10))
        .collect();
    // The client's buffers are the client's: built outside the count.
    let writes = overwrites(&files, 2, 512, WRITES);
    // Open every stream (mark-unstable round, lease, stream state) first.
    pumped(&srv, &writes[..FILES]);
    let holder = &srv.fs.cluster.server(NodeId(0)).replicas;
    let async_before = holder.async_writes();
    let rounds_before = deceit_sim::leaf::rounds_here();
    let (calls, bytes) = cost_per_write(&srv, &writes[FILES..]);
    let rounds = (deceit_sim::leaf::rounds_here() - rounds_before) as f64 / WRITES as f64;
    assert_eq!(
        holder.async_writes(),
        async_before,
        "a held-token write at safety >= 1 puts nothing behind at the holder"
    );
    println!("small write: {calls:.2} allocations, {bytes:.0} B, {rounds:.2} leaf-lock rounds");
    assert!(
        calls <= 3.0 && bytes <= 1_300.0,
        "a 512 B write into a 1 KiB (3, 2) file costs {calls:.2} allocations, {bytes:.0} B"
    );
    // One visit per step at each server: 18.2 a write, the every-9th pump
    // pass's queue probes included (33.8 when each map had its own lock).
    assert!(rounds <= 19.0, "a 512 B write into a 1 KiB (3, 2) file takes {rounds:.2} lock rounds");

    // The budget was not met by skipping work: after the drains every
    // server's own replica holds the same bytes, the last two writes to
    // each half of each file.
    srv.settle();
    for (f, fh) in files.iter().enumerate() {
        let read = NfsRequest::Read { fh: *fh, offset: 0, count: 1 << 10 };
        let (rep, _) = srv.serve_shared(NodeId(0), &read).expect("stable replica everywhere");
        let NfsReply::Data(want) = rep else { panic!("read failed: {rep:?}") };
        let last = |half: usize| {
            (FILES..FILES + WRITES).rev().find(|i| i % FILES == f && i / FILES % 2 == half).unwrap()
        };
        assert_eq!(want[0], (last(0) % 251) as u8);
        assert_eq!(want[1023], (last(1) % 251) as u8);
        for other in 1..3 {
            let (rep, _) = srv.serve_shared(NodeId(other), &read).expect("stable replica");
            assert_eq!(rep, NfsReply::Data(want.clone()), "file {f} at server {other}");
        }
    }
}

/// The multi-extent path, in the benchmark's `bulk-io` shape: 64 KiB
/// overwrites, block-aligned, into 256 KiB files kept on two servers.
/// Each write adopts its payload and shares the file's other extents, so
/// what it allocates is bookkeeping — the extent list, the update record,
/// the events: 5.14 calls and 3 221 B a write before one-extent segments
/// went inline, held there so this path cannot quietly grow.
#[test]
fn bulk_replicated_write_budget() {
    const FILES: usize = 16;
    const IO: usize = 64 << 10;
    let mut srv = runtime_like_server();
    let files: Vec<FileHandle> =
        (0..FILES).map(|i| filled_file(&mut srv, &format!("b{i}"), params(2, 1), 4 * IO)).collect();
    let writes = overwrites(&files, 4, IO, 400);
    pumped(&srv, &writes[..FILES]);
    let (calls, bytes) = cost_per_write(&srv, &writes[FILES..]);
    println!("bulk write: {calls:.2} allocations, {bytes:.0} B");
    assert!(
        calls <= 5.2 && bytes <= 3_300.0,
        "a 64 KiB write into a 256 KiB (2, 1) file costs {calls:.2} allocations, {bytes:.0} B"
    );
    srv.settle();
    for (f, fh) in files.iter().enumerate() {
        let read = NfsRequest::Read { fh: *fh, offset: 0, count: 4 * IO };
        let (rep, _) = srv.serve_shared(NodeId(0), &read).expect("stable replica");
        let NfsReply::Data(want) = rep else { panic!("read failed: {rep:?}") };
        assert_eq!(want.len(), 4 * IO, "file {f}");
        let holders = srv.fs.file_replicas(NodeId(0), *fh).unwrap().value;
        assert_eq!(holders.len(), 2, "file {f} kept on two servers");
        for via in holders {
            let (rep, _) = srv.serve_shared(via, &read).expect("stable replica");
            assert_eq!(rep, NfsReply::Data(want.clone()), "file {f} at {via:?}");
        }
    }
}
