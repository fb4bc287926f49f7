//! The contract of the three serve levels, through [`NfsService`]'s
//! public methods only.
//!
//! A host may serve a request holding the shared cell lock alone
//! (`serve_shared`), that plus the ring locks of the request's files
//! (`serve_read_sharded` / `serve_sharded`), or the whole cell (`serve`).
//! A narrower level either answers exactly what the whole cell would
//! answer, or declines — and which requests decline where is part of the
//! contract, pinned here as data.

use proptest::prelude::*;

use deceit_core::{ClusterConfig, FileParams, OpClass, ProtocolHost};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, FileHandle, FsConfig, NfsReply, NfsRequest, NfsServer, NfsService};

/// The narrowest level that answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    /// `serve_shared`: the shared cell lock only.
    Snapshot,
    /// `serve_read_sharded` / `serve_sharded`: plus the request's ring
    /// locks.
    Ring,
    /// `serve`: the whole cell.
    Cell,
}

/// Serves `req` the way the live runtime's serve loop does: the narrowest
/// level first, wider on decline.
fn ladder(srv: &mut NfsServer, via: NodeId, req: &NfsRequest) -> (NfsReply, Level) {
    let narrow = match req.class() {
        OpClass::ReadOnly => {
            srv.serve_shared(via, req).map(|(rep, _)| (rep, Level::Snapshot)).or_else(|| {
                req.shard_key()?;
                srv.serve_read_sharded(via, req).map(|(rep, _)| (rep, Level::Ring))
            })
        }
        _ => srv.serve_sharded(via, req).map(|(rep, _)| (rep, Level::Ring)),
    };
    narrow.unwrap_or_else(|| (srv.serve(via, req.clone()).0, Level::Cell))
}

/// A cell configured like the live runtime's: write pipeline and read
/// leases on, so a write stream leaves its file unstable until settled.
fn live_like_server() -> NfsServer {
    let cfg = ClusterConfig::default().with_write_pipeline().with_read_leases();
    NfsServer::new(DeceitFs::new(3, cfg, FsConfig::default()))
}

/// A reply with the fields that depend on the protocol clock blanked: the
/// lean paths charge the clock less than the full protocol does, so two
/// cells driven through different levels agree on everything but the
/// time of day.
fn timeless(mut rep: NfsReply) -> NfsReply {
    if let NfsReply::Attr(attr) = &mut rep {
        (attr.mtime, attr.ctime) = (0, 0);
    }
    rep
}

fn name(n: &str) -> String {
    n.to_string()
}

// ---------------------------------------------------------------------
// (a) Ladder equivalence
// ---------------------------------------------------------------------

/// One step of a generated session: which request, on which file (a
/// position in the list of handles created so far; the root directory
/// stands in while it is empty), under which names, with which numbers
/// and bytes.
type Step = ((u8, usize, u8, u8), (usize, usize, Vec<u8>));

fn step() -> impl Strategy<Value = Step> {
    let bytes = proptest::collection::vec(any::<u8>(), 1..24);
    ((0u8..14, 0usize..8, 0u8..4, 0u8..4), (0usize..64, 0usize..64, bytes))
}

/// Turns a step into the request it stands for.
fn request(step: &Step, root: FileHandle, files: &[FileHandle]) -> NfsRequest {
    use NfsRequest::*;
    let ((kind, file, a, b), (x, y, bytes)) = step;
    let fh = if files.is_empty() { root } else { files[file % files.len()] };
    let (dir, n, to_name) = (root, format!("f{a}"), format!("f{b}"));
    match kind {
        0 => Create { dir, name: n, mode: 0o644 },
        1 => Create { dir, name: format!("{n};9"), mode: 0o644 },
        2 => Write { fh, offset: *x, data: bytes.clone().into() },
        3 => Setattr { fh, mode: None, uid: None, gid: None, size: Some(*x) },
        4 => Link { target: fh, dir, name: n },
        5 => Lookup { dir, name: n },
        6 => Lookup { dir, name: format!("{n};{b}") },
        7 => Getattr { fh },
        8 => Read { fh, offset: *x, count: *y },
        9 => Readdir { dir },
        10 => Remove { dir, name: n },
        11 => Rename { from_dir: dir, from_name: n, to_dir: dir, to_name },
        12 => DeceitGetParams { fh },
        _ => DeceitSetParams { fh, params: FileParams::important(1 + x % 3) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two identical cells, one served through `serve` alone and one
    /// through the runtime's ladder, give the same reply at every step
    /// and read back the same through every server at the end.
    #[test]
    fn ladder_answers_what_the_whole_cell_answers(
        steps in proptest::collection::vec((step(), 0u32..3, any::<bool>()), 1..48),
    ) {
        let mut whole = live_like_server();
        let mut laddered = live_like_server();
        let root = whole.mount_root();
        prop_assert_eq!(root, laddered.mount_root());
        let mut files: Vec<FileHandle> = Vec::new();
        let mut same = |req: &NfsRequest, via: u32, settle: bool| {
            let (expected, _) = whole.serve(NodeId(via), req.clone());
            let (got, level) = ladder(&mut laddered, NodeId(via), req);
            prop_assert_eq!(
                timeless(got), timeless(expected.clone()),
                "{:?} via server {} answered at {:?}", req, via, level
            );
            if settle {
                whole.settle();
                laddered.settle();
            }
            expected
        };

        for (step, via, settle) in &steps {
            let req = request(step, root, &files);
            let rep = same(&req, *via, *settle);
            if let (NfsRequest::Create { .. }, NfsReply::Attr(attr)) = (&req, rep) {
                files.push(attr.handle);
            }
        }
        same(&NfsRequest::Readdir { dir: root }, 0, true);
        for &fh in &files {
            for via in 0..3 {
                same(&NfsRequest::Getattr { fh }, via, false);
                same(&NfsRequest::Read { fh, offset: 0, count: 1 << 10 }, via, false);
            }
        }
    }
}

// ---------------------------------------------------------------------
// (b) The escape table
// ---------------------------------------------------------------------

/// What the table's cell holds: a directory with two regular files and a
/// symlink in it.
struct Fixture {
    srv: NfsServer,
    root: FileHandle,
    /// Replicated on every server, settled.
    stable: FileHandle,
    /// The one major version `stable` has.
    major: u64,
    /// Kept on server 0 alone, and in the middle of a write stream there.
    streaming: FileHandle,
    link: FileHandle,
    /// A directory replicated on every server, settled.
    shelf: FileHandle,
    /// In `shelf`, replicated on every server, and in the middle of a
    /// write stream at server 0.
    mirrored: FileHandle,
}

fn fixture() -> Fixture {
    use NfsRequest::*;
    let mut srv = live_like_server();
    let root = srv.mount_root();
    let mut done = |req: NfsRequest| match srv.serve(NodeId(0), req).0 {
        NfsReply::Error(e) => panic!("fixture request failed: {e:?}"),
        rep => rep,
    };
    let mut made = |req: NfsRequest| match done(req) {
        NfsReply::Attr(attr) => attr.handle,
        other => panic!("fixture request made nothing: {other:?}"),
    };
    let stable = made(Create { dir: root, name: name("stable"), mode: 0o644 });
    let streaming = made(Create { dir: root, name: name("streaming"), mode: 0o644 });
    let link = made(Symlink { dir: root, name: name("link"), target: name("stable") });
    let shelf = made(Mkdir { dir: root, name: name("shelf"), mode: 0o755 });
    let mirrored = made(Create { dir: shelf, name: name("mirrored"), mode: 0o644 });
    for fh in [shelf, mirrored, stable] {
        done(DeceitSetParams { fh, params: FileParams::important(3) });
    }
    done(Write { fh: stable, offset: 0, data: b"settled".into() });
    let NfsReply::Versions(versions) = done(DeceitListVersions { fh: stable }) else {
        panic!("no version listing")
    };
    srv.settle();
    for fh in [streaming, mirrored] {
        let (rep, _) = srv.serve(NodeId(0), Write { fh, offset: 0, data: b"stream".into() });
        assert!(rep.as_error().is_none(), "{rep:?}");
    }
    Fixture { srv, root, stable, major: versions[0].major, streaming, link, shelf, mirrored }
}

/// The narrowest level that answers `req` at server `via` on a fresh
/// fixture (handles are allocated deterministically, so a request built
/// from one fixture's handles addresses the same files in another), and
/// whether the answer is an error reply.
fn narrowest(via: u32, req: &NfsRequest) -> (Level, bool) {
    let (rep, level) = ladder(&mut fixture().srv, NodeId(via), req);
    (level, rep.as_error().is_some())
}

/// Server 0 holds a replica of everything in the fixture and the tokens
/// of the streaming files; server 1 holds replicas of the stable file,
/// the shelf and the mirrored file only, so its reads of anything else
/// forward.
const HOME: u32 = 0;
const AWAY: u32 = 1;

/// For one request of every variant: the narrowest level that answers
/// it.
#[test]
fn escape_table() {
    use Level::{Cell, Ring, Snapshot};
    use NfsRequest::*;
    let Fixture { root, stable, major, streaming, link, shelf, mirrored, .. } = fixture();
    let table = [
        // Requests without a file never need more than the shared lock.
        (AWAY, Null, Snapshot),
        (AWAY, Statfs, Snapshot),
        // Reads: a stable local replica answers under the shared lock…
        (AWAY, Getattr { fh: stable }, Snapshot),
        (AWAY, Read { fh: stable, offset: 0, count: 8 }, Snapshot),
        (HOME, Readlink { fh: link }, Snapshot),
        (HOME, Readdir { dir: root }, Snapshot),
        (HOME, Lookup { dir: root, name: name("stable") }, Snapshot),
        (HOME, Lookup { dir: root, name: format!("stable;{major}") }, Snapshot),
        // …as does the token holder's read lease mid-stream, for the
        // holder and for a server whose unstable replica forwards to it…
        (HOME, Read { fh: streaming, offset: 0, count: 8 }, Snapshot),
        (HOME, Lookup { dir: root, name: name("streaming") }, Snapshot),
        (AWAY, Read { fh: mirrored, offset: 0, count: 8 }, Snapshot),
        (AWAY, Getattr { fh: mirrored }, Snapshot),
        (AWAY, Lookup { dir: shelf, name: name("mirrored") }, Snapshot),
        // …and a read from a server with no replica takes the file's ring
        // lock: the §2.1 forward joins the file group.
        (AWAY, Read { fh: streaming, offset: 0, count: 8 }, Ring),
        (AWAY, Getattr { fh: streaming }, Ring),
        (AWAY, Readlink { fh: link }, Ring),
        (AWAY, Readdir { dir: root }, Ring),
        // A lookup holds the directory's ring lock only: a child it
        // cannot snapshot needs the whole cell.
        (AWAY, Lookup { dir: root, name: name("streaming") }, Cell),
        // Parameter reads run the protocol: never under the shared lock
        // alone.
        (HOME, DeceitGetParams { fh: stable }, Ring),
        // Single-file mutations and LINK declare every file they touch.
        (HOME, Setattr { fh: stable, mode: Some(0o600), uid: None, gid: None, size: None }, Ring),
        (AWAY, Write { fh: stable, offset: 0, data: b"x".into() }, Ring),
        (HOME, DeceitSetParams { fh: streaming, params: FileParams::important(2) }, Ring),
        (HOME, Link { target: stable, dir: root, name: name("again") }, Ring),
        // Everything whose footprint is not in the request: a newborn
        // segment, another file's versions, a victim resolved by name, a
        // moved file, the cell.
        (HOME, Create { dir: root, name: name("new"), mode: 0o644 }, Cell),
        (HOME, Create { dir: root, name: name("stable;7"), mode: 0o644 }, Cell),
        (HOME, Mkdir { dir: root, name: name("d"), mode: 0o755 }, Cell),
        (HOME, Symlink { dir: root, name: name("s"), target: name("t") }, Cell),
        (HOME, Remove { dir: root, name: name("stable") }, Cell),
        (HOME, Remove { dir: root, name: format!("stable;{major}") }, Cell),
        (HOME, Rmdir { dir: root, name: name("stable") }, Cell),
        (
            HOME,
            Rename { from_dir: root, from_name: name("stable"), to_dir: root, to_name: name("x") },
            Cell,
        ),
        (HOME, DeceitListVersions { fh: stable }, Cell),
        (HOME, DeceitLocateReplicas { fh: stable }, Cell),
        (HOME, DeceitReconcile { dir: root }, Cell),
    ];
    for (via, req, level) in &table {
        assert_eq!(narrowest(*via, req).0, *level, "{req:?} via server {via}");
    }
}

/// A refusal the state decides is an answer, not an escape: the level
/// that could have served the request reports the error itself.
#[test]
fn deterministic_errors_are_answered_where_they_are_found() {
    use NfsRequest::*;
    let Fixture { root, stable, .. } = fixture();
    for (req, level) in [
        (Lookup { dir: root, name: name("missing") }, Level::Snapshot),
        (Read { fh: root, offset: 0, count: 8 }, Level::Snapshot),
        (Write { fh: root, offset: 0, data: b"x".into() }, Level::Ring),
        (Link { target: stable, dir: root, name: name("streaming") }, Level::Ring),
    ] {
        assert_eq!(narrowest(HOME, &req), (level, true), "{req:?}");
    }
    // A crashed server has no snapshot to answer from: a read through it
    // escapes until a level that runs the protocol can say so.
    let mut srv = fixture().srv;
    srv.crash_node(NodeId(AWAY));
    let read = Read { fh: stable, offset: 0, count: 8 };
    assert!(srv.serve_shared(NodeId(AWAY), &read).is_none());
    assert!(ladder(&mut srv, NodeId(AWAY), &read).0.as_error().is_some());
}

/// The levels are disjoint by request class: the ring-lock entry for
/// mutations declines reads, the one for reads declines everything else,
/// and the shared-lock entry never runs a mutation.
#[test]
fn each_entry_point_declines_the_other_classes() {
    let Fixture { srv, root, stable: fh, .. } = fixture();
    let via = NodeId(HOME);
    let read = NfsRequest::Read { fh, offset: 0, count: 8 };
    let write = NfsRequest::Write { fh, offset: 0, data: b"x".into() };
    let reconcile = NfsRequest::DeceitReconcile { dir: root };
    assert!(srv.serve_sharded(via, &read).is_none());
    assert!(srv.serve_read_sharded(via, &read).is_some());
    assert!(srv.serve_read_sharded(via, &write).is_none());
    assert!(srv.serve_shared(via, &write).is_none());
    assert!(srv.serve_read_sharded(via, &NfsRequest::Null).is_none(), "no shard key");
    assert!(srv.serve_read_sharded(via, &NfsRequest::Statfs).is_none(), "no shard key");
    assert!(srv.serve_shared(via, &reconcile).is_none(), "cell-wide");
    assert!(srv.serve_read_sharded(via, &reconcile).is_none(), "cell-wide");
    assert!(srv.serve_sharded(via, &reconcile).is_none(), "cell-wide");
}
