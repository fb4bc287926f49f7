//! The §5.2 garbage-collection design and its acknowledged drawbacks,
//! reproduced faithfully.

use deceit_core::Stat;
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, NfsError};

fn n(v: u32) -> NodeId {
    NodeId(v)
}

#[test]
fn oversized_link_count_prevents_collection() {
    // "Another drawback is that if the link count of f is corrupted so
    // that it is too large, f may never be garbage collected."
    let mut fs = DeceitFs::with_defaults(1);
    let root = fs.root();
    let f = fs.create(n(0), root, "leak", 0o644).unwrap().value;
    // Corrupt the hint upward (an "ill timed crash").
    fs.update_segment_for_test(n(0), f.handle, |inode| inode.nlink = 5).unwrap();
    fs.remove(n(0), root, "leak").unwrap();
    // The count went 5 → 4, never reached zero, so the scan never ran:
    // the segment leaks exactly as the paper warns.
    assert!(fs.getattr(n(0), f.handle).is_ok(), "segment not collected despite being unlinked");
    assert_eq!(fs.cluster.obs.count(Stat::GcDeallocated), 0);
}

#[test]
fn uplink_scan_rederives_truth_from_directories() {
    // The flip side: when the count DOES reach zero spuriously, the
    // uplink scan consults the directories themselves and corrects it
    // ("otherwise, the link count is corrected").
    let mut fs = DeceitFs::with_defaults(2);
    let root = fs.root();
    let d = fs.mkdir(n(0), root, "d", 0o755).unwrap().value;
    let f = fs.create(n(0), root, "f", 0o644).unwrap().value;
    fs.link(n(0), f.handle, d.handle, "alias").unwrap();
    fs.link(n(0), f.handle, d.handle, "alias2").unwrap();
    // Corrupt downward so the next remove hits zero.
    fs.update_segment_for_test(n(0), f.handle, |inode| inode.nlink = 1).unwrap();
    fs.remove(n(0), root, "f").unwrap();
    // Two links survive in d; the scan found both and fixed the hint.
    let alias = fs.lookup(n(1), d.handle, "alias").unwrap().value;
    assert_eq!(alias.nlink, 2, "hint corrected to the true link count");
    assert_eq!(fs.cluster.obs.count(Stat::GcCorrected), 1);
}

#[test]
fn uplink_list_overapproximates_during_rename() {
    // §5.2: "when a file is moved, two directories, a link count, and an
    // uplink list must be modified in some safe order." Our order keeps
    // the uplink list an over-approximation at every step, so a scan at
    // ANY point never under-counts (and thus never prematurely frees).
    let mut fs = DeceitFs::with_defaults(1);
    let root = fs.root();
    let a = fs.mkdir(n(0), root, "a", 0o755).unwrap().value;
    let b = fs.mkdir(n(0), root, "b", 0o755).unwrap().value;
    let f = fs.create(n(0), a.handle, "move-me", 0o644).unwrap().value;
    fs.write(n(0), f.handle, 0, b"body").unwrap();
    fs.rename(n(0), a.handle, "move-me", b.handle, "moved").unwrap();
    // The file survived the move and removing it afterwards collects it.
    let moved = fs.lookup(n(0), b.handle, "moved").unwrap().value;
    assert_eq!(moved.handle.seg, f.handle.seg);
    fs.remove(n(0), b.handle, "moved").unwrap();
    assert!(matches!(fs.getattr(n(0), f.handle), Err(NfsError::Stale)));
    assert_eq!(fs.cluster.obs.count(Stat::GcDeallocated), 1);
}

#[test]
fn gc_scans_every_version_of_every_uplink_directory() {
    // A link that exists only in an OLD version of a directory still
    // keeps the file alive — the scan covers "every available version of
    // every directory in the uplink list".
    let mut fs = DeceitFs::with_defaults(2);
    let root = fs.root();
    let d = fs.mkdir(n(0), root, "versioned", 0o755).unwrap().value;
    let f = fs.create(n(0), d.handle, "keeper", 0o644).unwrap().value;
    // Snapshot the directory (old version still lists "keeper"), then
    // remove the entry from the NEW version only, via a rename away and
    // a link elsewhere to keep nlink > 0 during the shuffle.
    fs.cluster.create_version(n(0), d.handle.segment()).unwrap();
    fs.cluster.run_until_quiet();
    // Force the hint to zero and run a remove on the new version: the
    // scan must find the link in the old version and keep the file.
    fs.update_segment_for_test(n(0), f.handle, |inode| inode.nlink = 1).unwrap();
    fs.remove(n(0), d.handle, "keeper").unwrap();
    assert!(
        fs.getattr(n(0), f.handle).is_ok(),
        "link in an old directory version keeps the file alive"
    );
    assert_eq!(fs.cluster.obs.count(Stat::GcCorrected), 1);
}
