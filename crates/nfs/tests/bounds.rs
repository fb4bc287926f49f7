//! Client-chosen offsets, counts and sizes at the request boundary: no
//! value a request can carry may panic the serving thread, wrap an
//! offset, allocate without bound, or grow a file past what a load reads
//! back.

use deceit_core::ProtocolHost;
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, FileHandle, NfsError, NfsReply, NfsRequest, NfsServer, NfsService};

/// The whole-segment read window of the envelope (`fs::WHOLE_SEGMENT`).
const WINDOW: usize = 64 * 1024 * 1024;

/// A settled 3-server cell holding one single-replica file (on server 0)
/// with `contents`.
fn server_with_file(contents: &[u8]) -> (NfsServer, FileHandle) {
    let mut srv = NfsServer::new(DeceitFs::with_defaults(3));
    let root = srv.mount_root();
    let (rep, _) =
        srv.serve(NodeId(0), NfsRequest::Create { dir: root, name: "f".into(), mode: 0o644 });
    let NfsReply::Attr(attr) = rep else { panic!("create failed: {rep:?}") };
    let write = NfsRequest::Write { fh: attr.handle, offset: 0, data: contents.to_vec().into() };
    let (rep, _) = srv.serve(NodeId(0), write);
    assert!(rep.as_error().is_none(), "{rep:?}");
    srv.settle();
    (srv, attr.handle)
}

fn data(rep: NfsReply) -> Vec<u8> {
    match rep {
        NfsReply::Data(d) => d.to_vec(),
        other => panic!("expected data, got {other:?}"),
    }
}

/// `offset + count` past `usize::MAX` used to wrap in release builds and
/// then fail `Bytes::slice`'s `lo <= hi` assertion, killing the serving
/// thread. Every serving path clamps instead.
#[test]
fn read_with_overflowing_range_is_clamped_on_every_path() {
    let (mut srv, fh) = server_with_file(b"0123456789");
    for (offset, count, want) in [
        (1, usize::MAX, &b"123456789"[..]),
        (usize::MAX, usize::MAX, b""),
        (usize::MAX, 1, b""),
        (10, usize::MAX, b""),
        (0, usize::MAX, b"0123456789"),
    ] {
        let read = NfsRequest::Read { fh, offset, count };
        // Lock-free path: server 0 holds the stable replica.
        let (rep, _) = srv.serve_shared(NodeId(0), &read).expect("local stable replica");
        assert_eq!(data(rep), want, "serve_shared {offset}+{count}");
        // Ring path: server 1 holds no replica, so the read forwards.
        assert!(srv.serve_shared(NodeId(1), &read).is_none());
        let (rep, _) = srv.serve_read_sharded(NodeId(1), &read).expect("keyed read");
        assert_eq!(data(rep), want, "serve_read_sharded {offset}+{count}");
        // Exclusive path.
        let (rep, _) = srv.serve(NodeId(2), read);
        assert_eq!(data(rep), want, "serve {offset}+{count}");
    }
}

/// Runs one mutation on the exclusive and on the sharded path and
/// expects both to refuse it with `TooBig`, leaving the file as it was.
fn assert_too_big(srv: &mut NfsServer, fh: FileHandle, req: NfsRequest, before: &[u8]) {
    let (rep, _) = srv.serve_sharded(NodeId(0), &req).expect("single-file mutation");
    assert_eq!(rep.as_error(), Some(&NfsError::TooBig), "sharded {req:?}");
    let (rep, _) = srv.serve(NodeId(0), req.clone());
    assert_eq!(rep.as_error(), Some(&NfsError::TooBig), "exclusive {req:?}");
    let (rep, _) = srv.serve(NodeId(0), NfsRequest::Read { fh, offset: 0, count: usize::MAX });
    assert_eq!(data(rep), before, "a refused mutation changes nothing");
}

/// A write or a size that would grow the file past the window the next
/// load reads back is refused (it used to be accepted, then silently cut
/// off by the next read-modify-write) — and refused before anything is
/// allocated, so a terabyte offset costs nothing.
#[test]
fn growth_past_the_segment_window_is_refused() {
    let (mut srv, fh) = server_with_file(b"keep");
    let write = |offset, data: &'static [u8]| NfsRequest::Write { fh, offset, data: data.into() };
    let resize =
        |size| NfsRequest::Setattr { fh, mode: None, uid: None, gid: None, size: Some(size) };
    for req in [
        write(1 << 40, b"x"),
        write(usize::MAX, b"xy"), // offset + len wraps
        write(usize::MAX - 1, b"x"),
        write(WINDOW, b"x"),
        write(WINDOW - 4, b"spill"), // the header pushes it over too
        resize(1 << 40),
        resize(usize::MAX),
        resize(WINDOW),
    ] {
        assert_too_big(&mut srv, fh, req, b"keep");
    }
    // Just inside the window still works: the largest payload is the
    // window less the inode header.
    let segment_len = srv
        .fs
        .cluster
        .try_read_local(NodeId(0), fh.seg, None, 0, WINDOW)
        .unwrap()
        .value
        .segment_len();
    let limit = WINDOW - (segment_len - b"keep".len());
    let (rep, _) = srv.serve_sharded(NodeId(0), &resize(limit)).unwrap();
    let NfsReply::Attr(attr) = rep else { panic!("resize to the limit failed: {rep:?}") };
    assert_eq!(attr.size, limit);
    let (rep, _) = srv.serve(NodeId(0), NfsRequest::Read { fh, offset: 0, count: 4 });
    assert_eq!(data(rep), b"keep");
    let (rep, _) = srv.serve_sharded(NodeId(0), &write(limit, b"x")).unwrap();
    assert_eq!(rep.as_error(), Some(&NfsError::TooBig));
}
