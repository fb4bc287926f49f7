//! The copy budget of the segment data path, counted in allocated bytes
//! so it does not depend on timing.
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

use deceit_core::{ClusterConfig, FileParams, ProtocolHost};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, FileHandle, FsConfig, NfsReply, NfsRequest, NfsServer, NfsService};

thread_local! {
    /// Bytes this thread has asked the allocator for. The engine under
    /// test runs entirely on the calling thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every call to `System` unchanged; the only addition is a
// thread-local counter bump, which has no destructor and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size.saturating_sub(layout.size())));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (ALLOCATED.with(Cell::get) - before, out)
}

/// A cell configured like the live runtime's (write pipeline, read
/// leases, no trace or stats accumulation).
fn live_like_server() -> NfsServer {
    let cfg = ClusterConfig::default()
        .without_trace()
        .without_stats()
        .with_write_pipeline()
        .with_read_leases();
    NfsServer::new(DeceitFs::new(3, cfg, FsConfig::default()))
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
