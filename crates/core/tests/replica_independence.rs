//! Replicas that share a buffer do not share a fate.
//!
//! A `WriteOp::Replace` is adopted — not copied — by every replica that
//! applies it, and a §3.1 state transfer (`Replica::cloned_from`) shares
//! the source's buffer too, as do the durable and volatile sides of each
//! server's store. These tests pin down that the sharing is invisible:
//! an update that reaches one server only changes that server only, and a
//! crash recovers exactly the last synced image.

use bytes::Bytes;
use deceit_core::{
    Cluster, ClusterConfig, FileParams, SegmentId, VersionPair, WriteAvailability, WriteOp,
};
use deceit_net::NodeId;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// A 3-server cell with one segment; `replicas` of them hold it.
fn cell(cfg: ClusterConfig, replicas: usize, write_safety: usize) -> (Cluster, SegmentId) {
    let mut c = Cluster::new(3, cfg);
    let seg = c.create(n(0)).unwrap().value;
    let params = FileParams {
        min_replicas: replicas,
        write_safety,
        stability: false,
        // The lone side of a partition must be allowed to keep writing.
        availability: WriteAvailability::High,
        ..FileParams::default()
    };
    c.set_params(n(0), seg, params).unwrap();
    c.run_until_quiet();
    (c, seg)
}

/// The replica of `seg` stored at `at`: its bytes and version.
fn replica(c: &Cluster, at: u32, seg: SegmentId) -> (Bytes, VersionPair) {
    let r = c.server(n(at)).replicas.get(&(seg, 0)).expect("replica present");
    (r.data.contents(), r.version)
}

fn configs() -> [ClusterConfig; 2] {
    [ClusterConfig::deterministic(), ClusterConfig::deterministic().with_write_pipeline()]
}

/// Three replicas adopt one `Replace` buffer; a later write that only the
/// token holder sees leaves the other two — and the writer's own handle on
/// the buffer — exactly as they were.
#[test]
fn write_behind_a_partition_leaves_adopted_replicas_untouched() {
    for cfg in configs() {
        let (mut c, seg) = cell(cfg, 3, 1);
        let image = Bytes::from(b"one image, adopted by every replica".to_vec());
        c.write(n(0), seg, WriteOp::Replace(image.clone().into()), None).unwrap();
        c.run_until_quiet();
        let (_, adopted_at) = replica(&c, 0, seg);
        for at in 0..3 {
            let (bytes, version) = replica(&c, at, seg);
            assert_eq!(bytes, image);
            assert_eq!(version, adopted_at);
            assert_eq!(bytes.as_ptr(), image.as_ptr(), "server {at} adopted the buffer");
        }

        c.split(&[&[n(0)], &[n(1), n(2)]]);
        let after = c.write(n(0), seg, WriteOp::write_at(4, b"IMAGE"), None).unwrap().value;
        c.run_until_quiet();

        let (bytes, version) = replica(&c, 0, seg);
        assert_eq!(&bytes[..], b"one IMAGE, adopted by every replica");
        assert_eq!(version, after);
        assert!(after > adopted_at);
        for at in 1..3 {
            let (bytes, version) = replica(&c, at, seg);
            assert_eq!(bytes, image, "server {at} was cut off from the update");
            assert_eq!(version, adopted_at, "server {at} was cut off from the update");
        }
        assert_eq!(&image[..], b"one image, adopted by every replica");
    }
}

/// A replica generated by state transfer shares its source's buffer and
/// is just as independent of it afterwards — in both directions.
#[test]
fn state_transferred_replica_is_independent_of_its_source() {
    for cfg in configs() {
        let (mut c, seg) = cell(cfg, 2, 1);
        c.write(n(0), seg, WriteOp::replace(b"drawn from the existing replica"), None).unwrap();
        c.run_until_quiet();
        let newcomer = (0..3u32)
            .find(|&s| !c.server(n(s)).replicas.contains(&(seg, 0)))
            .expect("two replicas leave one server without");

        // Raising the replica level fills the third server by §3.1 state
        // transfer from the token holder.
        let params = c.get_params(n(0), seg).unwrap().value;
        c.set_params(n(0), seg, FileParams { min_replicas: 3, ..params }).unwrap();
        c.run_until_quiet();
        let (source, transferred_at) = replica(&c, 0, seg);
        let (copy, version) = replica(&c, newcomer, seg);
        assert_eq!(version, transferred_at);
        assert_eq!(copy.as_ptr(), source.as_ptr(), "the transfer shared the buffer");

        // The holder moves on alone.
        let others: Vec<NodeId> = (0..3).map(n).filter(|&s| s != n(0)).collect();
        c.split(&[&[n(0)], &others]);
        let after = c.write(n(0), seg, WriteOp::append(b", then changed"), None).unwrap().value;
        c.run_until_quiet();
        assert_eq!(replica(&c, 0, seg).1, after);
        let (copy, version) = replica(&c, newcomer, seg);
        assert_eq!(&copy[..], b"drawn from the existing replica");
        assert_eq!(version, transferred_at);
    }
}

/// The durable and volatile sides of the holder's store share each synced
/// image. A crash discards the unsynced update on top of it and recovers
/// that image — bytes and version — while the other replicas keep theirs.
#[test]
fn holder_crash_recovers_exactly_the_last_synced_image() {
    for cfg in configs() {
        // Safety 0: the holder's own apply is write-behind.
        let (mut c, seg) = cell(cfg, 3, 0);
        let image = Bytes::from(b"flushed before the crash".to_vec());
        c.write(n(0), seg, WriteOp::Replace(image.clone().into()), None).unwrap();
        c.run_until_quiet(); // fires the deferred flushes
        let (_, synced_at) = replica(&c, 0, seg);

        c.split(&[&[n(0)], &[n(1), n(2)]]);
        let after = c.write(n(0), seg, WriteOp::write_at(0, b"UNSYNCED"), None).unwrap().value;
        let (bytes, version) = replica(&c, 0, seg);
        assert_eq!(&bytes[..], b"UNSYNCEDbefore the crash");
        assert_eq!(version, after);

        let lost_before = c.server(n(0)).replicas.lost_writes();
        c.crash_server(n(0));
        assert!(c.server(n(0)).replicas.lost_writes() > lost_before, "the update was unsynced");
        for at in 0..3 {
            let (bytes, version) = replica(&c, at, seg);
            assert_eq!(bytes, image, "server {at}");
            assert_eq!(version, synced_at, "server {at}");
        }
    }
}
