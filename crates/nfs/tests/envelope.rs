//! Behavioral tests of the NFS envelope: the full operation surface,
//! link/GC semantics, version-qualified names, and request forwarding.

use deceit_core::{DeceitError, FileParams, Stat};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, FileType, NfsError, NfsReply, NfsRequest, NfsServer, NfsService};

fn n(v: u32) -> NodeId {
    NodeId(v)
}

#[test]
fn create_write_read_through_any_server() {
    let mut fs = DeceitFs::with_defaults(3);
    let root = fs.root();
    let f = fs.create(n(0), root, "hello.txt", 0o644).unwrap().value;
    assert_eq!(f.ftype, FileType::Regular);
    assert_eq!(f.nlink, 1);
    fs.write(n(0), f.handle, 0, b"hello envelope").unwrap();
    // Deceit's single-system image: the same handle works via any server.
    for via in [n(0), n(1), n(2)] {
        let data = fs.read(via, f.handle, 0, 100).unwrap().value;
        assert_eq!(&data[..], b"hello envelope", "via {via}");
    }
}

#[test]
fn lookup_and_path_walk() {
    let mut fs = DeceitFs::with_defaults(2);
    let root = fs.root();
    let usr = fs.mkdir(n(0), root, "usr", 0o755).unwrap().value;
    let bin = fs.mkdir(n(0), usr.handle, "bin", 0o755).unwrap().value;
    let sh = fs.create(n(0), bin.handle, "sh", 0o755).unwrap().value;
    fs.write(n(0), sh.handle, 0, b"#!shell").unwrap();

    let found = fs.lookup(n(1), usr.handle, "bin").unwrap().value;
    assert_eq!(found.handle, bin.handle);
    assert_eq!(found.ftype, FileType::Directory);

    let walked = fs.lookup_path(n(1), "/usr/bin/sh").unwrap().value;
    assert_eq!(walked.handle.seg, sh.handle.seg);
    assert_eq!(walked.size, 7);

    assert!(matches!(fs.lookup(n(0), usr.handle, "nope"), Err(NfsError::NotFound)));
    assert!(matches!(fs.lookup(n(0), sh.handle, "x"), Err(NfsError::NotDir)));
}

#[test]
fn getattr_setattr_roundtrip() {
    let mut fs = DeceitFs::with_defaults(1);
    let root = fs.root();
    let f = fs.create(n(0), root, "f", 0o600).unwrap().value;
    fs.write(n(0), f.handle, 0, b"0123456789").unwrap();
    let a = fs.getattr(n(0), f.handle).unwrap().value;
    assert_eq!(a.size, 10);
    assert_eq!(a.mode, 0o600);

    let b = fs.setattr(n(0), f.handle, Some(0o644), Some(42), Some(7), Some(4)).unwrap().value;
    assert_eq!(b.mode, 0o644);
    assert_eq!(b.uid, 42);
    assert_eq!(b.gid, 7);
    assert_eq!(b.size, 4, "truncated");
    let data = fs.read(n(0), f.handle, 0, 100).unwrap().value;
    assert_eq!(&data[..], b"0123");
}

#[test]
fn sparse_write_and_offset_read() {
    let mut fs = DeceitFs::with_defaults(1);
    let root = fs.root();
    let f = fs.create(n(0), root, "sparse", 0o644).unwrap().value;
    fs.write(n(0), f.handle, 5, b"tail").unwrap();
    let a = fs.getattr(n(0), f.handle).unwrap().value;
    assert_eq!(a.size, 9);
    let data = fs.read(n(0), f.handle, 0, 100).unwrap().value;
    assert_eq!(&data[..], b"\0\0\0\0\0tail");
    let mid = fs.read(n(0), f.handle, 5, 2).unwrap().value;
    assert_eq!(&mid[..], b"ta");
    let past = fs.read(n(0), f.handle, 100, 5).unwrap().value;
    assert!(past.is_empty());
}

#[test]
fn readdir_lists_sorted_entries() {
    let mut fs = DeceitFs::with_defaults(1);
    let root = fs.root();
    fs.create(n(0), root, "zeta", 0o644).unwrap();
    fs.mkdir(n(0), root, "alpha", 0o755).unwrap();
    fs.symlink(n(0), root, "mid", "/zeta").unwrap();
    let entries = fs.readdir(n(0), root).unwrap().value;
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    assert_eq!(entries[0].ftype, FileType::Directory.to_byte());
    assert_eq!(entries[1].ftype, FileType::Symlink.to_byte());
}

#[test]
fn symlink_readlink() {
    let mut fs = DeceitFs::with_defaults(1);
    let root = fs.root();
    let l = fs.symlink(n(0), root, "ln", "/usr/bin/sh").unwrap().value;
    assert_eq!(l.ftype, FileType::Symlink);
    let target = fs.readlink(n(0), l.handle).unwrap().value;
    assert_eq!(target, "/usr/bin/sh");
    let f = fs.create(n(0), root, "plain", 0o644).unwrap().value;
    assert!(fs.readlink(n(0), f.handle).is_err());
}

#[test]
fn duplicate_create_rejected() {
    let mut fs = DeceitFs::with_defaults(1);
    let root = fs.root();
    fs.create(n(0), root, "dup", 0o644).unwrap();
    assert!(matches!(fs.create(n(0), root, "dup", 0o644), Err(NfsError::Exists)));
    assert!(matches!(fs.mkdir(n(0), root, "dup", 0o755), Err(NfsError::Exists)));
}

#[test]
fn remove_deallocates_unlinked_file() {
    let mut fs = DeceitFs::with_defaults(2);
    let root = fs.root();
    let f = fs.create(n(0), root, "gone", 0o644).unwrap().value;
    fs.write(n(0), f.handle, 0, b"bye").unwrap();
    fs.remove(n(0), root, "gone").unwrap();
    assert!(matches!(fs.lookup(n(0), root, "gone"), Err(NfsError::NotFound)));
    // The segment itself was deallocated by the uplink GC.
    assert!(matches!(fs.getattr(n(0), f.handle), Err(NfsError::Stale)));
    assert_eq!(fs.cluster.obs.count(Stat::GcDeallocated), 1);
}

#[test]
fn hard_links_keep_file_alive() {
    let mut fs = DeceitFs::with_defaults(2);
    let root = fs.root();
    let d = fs.mkdir(n(0), root, "d", 0o755).unwrap().value;
    let f = fs.create(n(0), root, "orig", 0o644).unwrap().value;
    fs.write(n(0), f.handle, 0, b"shared").unwrap();
    fs.link(n(0), f.handle, d.handle, "alias").unwrap();
    let a = fs.getattr(n(0), f.handle).unwrap().value;
    assert_eq!(a.nlink, 2);

    // Removing one name keeps the file alive through the other.
    fs.remove(n(0), root, "orig").unwrap();
    let via_alias = fs.lookup(n(1), d.handle, "alias").unwrap().value;
    assert_eq!(via_alias.nlink, 1);
    let data = fs.read(n(1), via_alias.handle, 0, 100).unwrap().value;
    assert_eq!(&data[..], b"shared");

    // Removing the last name deallocates.
    fs.remove(n(0), d.handle, "alias").unwrap();
    assert!(matches!(fs.getattr(n(0), f.handle), Err(NfsError::Stale)));
}

/// A LINK the directory refuses (name taken, or not a directory) leaves
/// the target's link count and uplink list as it found them — whether the
/// host held the whole cell or only the two files' ring locks. An
/// over-count would keep REMOVE from ever reaching zero, leaving the file
/// to a GC scan.
#[test]
fn refused_link_leaves_link_count_alone() {
    let mut srv = NfsServer::new(DeceitFs::with_defaults(2));
    let root = srv.mount_root();
    let f = srv.fs.create(n(0), root, "f", 0o644).unwrap().value;
    let other = srv.fs.create(n(0), root, "other", 0o644).unwrap().value;
    let d = srv.fs.mkdir(n(0), root, "d", 0o755).unwrap().value;
    srv.fs.link(n(0), f.handle, d.handle, "alias").unwrap();
    let refused = [
        (NfsRequest::Link { target: f.handle, dir: root, name: "other".into() }, NfsError::Exists),
        (
            NfsRequest::Link { target: f.handle, dir: other.handle, name: "x".into() },
            NfsError::NotDir,
        ),
        // The uplink to `d` predates this attempt and must survive it.
        (
            NfsRequest::Link { target: f.handle, dir: d.handle, name: "alias".into() },
            NfsError::Exists,
        ),
    ];
    for (req, err) in &refused {
        let (rep, _) = srv.serve(n(0), req.clone());
        assert_eq!(rep, NfsReply::Error(err.clone()), "{req:?} holding the cell");
        let (rep, _) = srv.serve_sharded(n(0), req).expect("a link names both files it touches");
        assert_eq!(rep, NfsReply::Error(err.clone()), "{req:?} holding the ring locks");
    }
    assert_eq!(srv.fs.getattr(n(0), f.handle).unwrap().value.nlink, 2);

    // Both real names go; the second REMOVE reaches zero and deallocates
    // without the uplink scan having anything to correct.
    srv.fs.remove(n(0), root, "f").unwrap();
    srv.fs.remove(n(0), d.handle, "alias").unwrap();
    assert!(matches!(srv.fs.getattr(n(0), f.handle), Err(NfsError::Stale)));
    assert_eq!(srv.fs.cluster.obs.count(Stat::GcCorrected), 0);
    assert_eq!(srv.fs.cluster.obs.count(Stat::GcDeallocated), 1);
}

#[test]
fn gc_corrects_bad_link_count_hint() {
    let mut fs = DeceitFs::with_defaults(1);
    let root = fs.root();
    let d = fs.mkdir(n(0), root, "d", 0o755).unwrap().value;
    let f = fs.create(n(0), root, "f", 0o644).unwrap().value;
    fs.link(n(0), f.handle, d.handle, "alias").unwrap();
    // Corrupt the hint downward ("the link counts can be corrupted by an
    // ill timed crash", §5.2): force nlink to 1 so the next remove drives
    // it to zero even though a link remains.
    fs.setattr(n(0), f.handle, None, None, None, None).unwrap();
    let latency = fs.update_segment_for_test(n(0), f.handle, |inode| inode.nlink = 1).unwrap();
    let _ = latency;
    fs.remove(n(0), root, "f").unwrap();
    // The uplink scan finds the surviving link in `d` and corrects the
    // count instead of deallocating.
    let alias = fs.lookup(n(0), d.handle, "alias").unwrap().value;
    assert_eq!(alias.nlink, 1, "count corrected from the uplink scan");
    assert_eq!(fs.cluster.obs.count(Stat::GcCorrected), 1);
    let data_ok = fs.read(n(0), alias.handle, 0, 10);
    assert!(data_ok.is_ok(), "file not deallocated");
}

#[test]
fn rename_within_and_across_directories() {
    let mut fs = DeceitFs::with_defaults(2);
    let root = fs.root();
    let a = fs.mkdir(n(0), root, "a", 0o755).unwrap().value;
    let b = fs.mkdir(n(0), root, "b", 0o755).unwrap().value;
    let f = fs.create(n(0), a.handle, "one", 0o644).unwrap().value;
    fs.write(n(0), f.handle, 0, b"payload").unwrap();

    // Same-directory rename.
    fs.rename(n(0), a.handle, "one", a.handle, "two").unwrap();
    assert!(matches!(fs.lookup(n(0), a.handle, "one"), Err(NfsError::NotFound)));
    assert!(fs.lookup(n(0), a.handle, "two").is_ok());

    // Cross-directory rename updates the uplink list.
    fs.rename(n(0), a.handle, "two", b.handle, "three").unwrap();
    let moved = fs.lookup(n(1), b.handle, "three").unwrap().value;
    assert_eq!(&fs.read(n(1), moved.handle, 0, 100).unwrap().value[..], b"payload");
    // Removing it from the new home still deallocates correctly, proving
    // the uplinks track the move.
    fs.remove(n(0), b.handle, "three").unwrap();
    assert!(matches!(fs.getattr(n(0), moved.handle), Err(NfsError::Stale)));
}

#[test]
fn rmdir_requires_empty() {
    let mut fs = DeceitFs::with_defaults(1);
    let root = fs.root();
    let d = fs.mkdir(n(0), root, "d", 0o755).unwrap().value;
    fs.create(n(0), d.handle, "child", 0o644).unwrap();
    assert!(matches!(fs.rmdir(n(0), root, "d"), Err(NfsError::NotEmpty)));
    fs.remove(n(0), d.handle, "child").unwrap();
    fs.rmdir(n(0), root, "d").unwrap();
    assert!(matches!(fs.lookup(n(0), root, "d"), Err(NfsError::NotFound)));
}

#[test]
fn version_qualified_lookup_and_create() {
    let mut fs = DeceitFs::with_defaults(2);
    let root = fs.root();
    let f = fs.create(n(0), root, "doc", 0o644).unwrap().value;
    let orig_major = f.version.major;
    fs.write(n(0), f.handle, 0, b"first draft").unwrap();
    // Explicitly create a new version ("foo;N" creation, §3.5). The
    // qualifier in the *created* name is advisory; Deceit allocates the
    // globally unique major itself.
    let v1 = fs.create(n(0), root, "doc;1", 0o644).unwrap().value;
    assert_eq!(v1.handle.seg, f.handle.seg, "same file, new version");
    assert_ne!(v1.version.major, orig_major);
    fs.cluster.run_until_quiet();
    fs.write(n(0), f.handle, 0, b"second draft").unwrap();

    // Unqualified lookup returns the most recent version's contents.
    let latest = fs.lookup(n(1), root, "doc").unwrap().value;
    assert_eq!(&fs.read(n(1), latest.handle, 0, 100).unwrap().value[..], b"second draft");
    // Qualified lookup pins the original.
    let pinned = fs.lookup(n(1), root, &format!("doc;{orig_major}")).unwrap().value;
    assert_eq!(pinned.handle.version, Some(orig_major));
    assert_eq!(&fs.read(n(1), pinned.handle, 0, 100).unwrap().value[..], b"first draft");
    // The version listing shows both.
    assert_eq!(fs.file_versions(n(0), f.handle).unwrap().value.len(), 2);
    // Removing the qualified name deletes only that version.
    fs.remove(n(0), root, &format!("doc;{orig_major}")).unwrap();
    assert_eq!(fs.file_versions(n(0), f.handle).unwrap().value.len(), 1);
    assert!(fs.lookup(n(1), root, "doc").is_ok());
}

#[test]
fn per_file_params_through_envelope() {
    let mut fs = DeceitFs::with_defaults(4);
    let root = fs.root();
    let f = fs.create(n(0), root, "precious", 0o644).unwrap().value;
    fs.set_file_params(n(0), f.handle, FileParams::important(3)).unwrap();
    fs.write(n(0), f.handle, 0, b"replicated thrice").unwrap();
    fs.cluster.run_until_quiet();
    assert_eq!(fs.file_replicas(n(0), f.handle).unwrap().value.len(), 3);
    assert_eq!(fs.file_params(n(1), f.handle).unwrap().value.min_replicas, 3);
}

#[test]
fn server_crash_transparent_through_other_servers() {
    let mut fs = DeceitFs::with_defaults(3);
    let root = fs.root();
    // Replicate the root and the file so a crash leaves live replicas.
    fs.set_file_params(n(0), root, FileParams::important(3)).unwrap();
    let f = fs.create(n(0), root, "ha", 0o644).unwrap().value;
    fs.set_file_params(n(0), f.handle, FileParams::important(3)).unwrap();
    fs.write(n(0), f.handle, 0, b"survives").unwrap();
    fs.cluster.run_until_quiet();
    fs.cluster.crash_server(n(0));
    // The envelope keeps working through any other server.
    let got = fs.read(n(1), f.handle, 0, 100).unwrap().value;
    assert_eq!(&got[..], b"survives");
    let listing = fs.readdir(n(2), root).unwrap().value;
    assert_eq!(listing.len(), 1);
}

#[test]
fn io_errors_surface_as_nfs_errors() {
    let mut fs = DeceitFs::with_defaults(2);
    let root = fs.root();
    fs.cluster.crash_server(n(1));
    let err = fs.readdir(n(1), root).unwrap_err();
    assert!(matches!(err, NfsError::Io(DeceitError::ServerDown(_))));
}
