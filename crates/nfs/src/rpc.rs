//! The NFS-shaped wire protocol.
//!
//! §2.1: "Deceit and NFS use the same client/server communication protocol
//! (i.e. the same transport and RPC interface), so a Deceit service appears
//! to be a NFS file service to a client. … All NFS operations are
//! supported with no change to any client software." Clients access the
//! extra Deceit functionality "by using special RPCs" — the `Deceit*`
//! variants below.

use bytes::Bytes;

use deceit_core::{FileParams, OpClass, OpResult, ShardKey, VersionInfo};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::DirEntry;
use crate::fs::{DeceitFs, FileAttr, NfsError, NfsResult};
use crate::handle::FileHandle;
use crate::scope::{Scope, Scoped, Stop};

/// One NFS (or Deceit-extension) request.
#[derive(Debug, Clone, PartialEq)]
pub enum NfsRequest {
    /// NFSPROC_NULL — ping.
    Null,
    /// NFSPROC_GETATTR.
    Getattr { fh: FileHandle },
    /// NFSPROC_SETATTR (any subset of mode/uid/gid/size).
    Setattr {
        fh: FileHandle,
        mode: Option<u32>,
        uid: Option<u32>,
        gid: Option<u32>,
        size: Option<usize>,
    },
    /// NFSPROC_LOOKUP.
    Lookup { dir: FileHandle, name: String },
    /// NFSPROC_READLINK.
    Readlink { fh: FileHandle },
    /// NFSPROC_READ.
    Read { fh: FileHandle, offset: usize, count: usize },
    /// NFSPROC_WRITE. The payload is refcounted ([`Bytes`]) so retries,
    /// batching, and queueing hand the same buffer around instead of
    /// copying it per hop.
    Write { fh: FileHandle, offset: usize, data: Bytes },
    /// NFSPROC_CREATE.
    Create { dir: FileHandle, name: String, mode: u32 },
    /// NFSPROC_REMOVE.
    Remove { dir: FileHandle, name: String },
    /// NFSPROC_RENAME.
    Rename { from_dir: FileHandle, from_name: String, to_dir: FileHandle, to_name: String },
    /// NFSPROC_LINK.
    Link { target: FileHandle, dir: FileHandle, name: String },
    /// NFSPROC_SYMLINK.
    Symlink { dir: FileHandle, name: String, target: String },
    /// NFSPROC_MKDIR.
    Mkdir { dir: FileHandle, name: String, mode: u32 },
    /// NFSPROC_RMDIR.
    Rmdir { dir: FileHandle, name: String },
    /// NFSPROC_READDIR.
    Readdir { dir: FileHandle },
    /// NFSPROC_STATFS.
    Statfs,
    /// Deceit extension: set per-file parameters (§4).
    DeceitSetParams { fh: FileHandle, params: FileParams },
    /// Deceit extension: read per-file parameters.
    DeceitGetParams { fh: FileHandle },
    /// Deceit extension: list all versions of a file (§2.1).
    DeceitListVersions { fh: FileHandle },
    /// Deceit extension: locate all replicas of a file (§2.1).
    DeceitLocateReplicas { fh: FileHandle },
    /// Deceit extension: reconcile divergent directory versions (§2.1).
    DeceitReconcile { dir: FileHandle },
}

impl NfsRequest {
    /// Approximate request size on the wire, for client-link accounting.
    pub fn wire_size(&self) -> usize {
        40 + match self {
            NfsRequest::Write { data, .. } => data.len(),
            NfsRequest::Lookup { name, .. }
            | NfsRequest::Create { name, .. }
            | NfsRequest::Remove { name, .. }
            | NfsRequest::Mkdir { name, .. }
            | NfsRequest::Rmdir { name, .. } => name.len(),
            NfsRequest::Rename { from_name, to_name, .. } => from_name.len() + to_name.len(),
            NfsRequest::Symlink { name, target, .. } => name.len() + target.len(),
            NfsRequest::Link { name, .. } => name.len(),
            _ => 0,
        }
    }

    /// Whether the request mutates state (used by failover logic: reads
    /// are always safe to retry elsewhere).
    pub fn is_read_only(&self) -> bool {
        self.class() == OpClass::ReadOnly
    }

    /// The primary file this request addresses — its shard key — or
    /// `None` for requests without one (ping, statfs).
    ///
    /// For mutating requests this is *derived from* [`NfsRequest::class`]
    /// (the first shard the class declares), so the two seams cannot
    /// disagree; a cross-shard class declares one further shard that
    /// lock footprints must also take.
    pub fn shard_key(&self) -> Option<ShardKey> {
        match self.class() {
            OpClass::Mutate(k) | OpClass::CrossShard(k, _) => Some(k),
            OpClass::ReadOnly | OpClass::CellWide => match self {
                NfsRequest::Getattr { fh }
                | NfsRequest::Readlink { fh }
                | NfsRequest::Read { fh, .. }
                | NfsRequest::DeceitGetParams { fh }
                | NfsRequest::DeceitListVersions { fh }
                | NfsRequest::DeceitLocateReplicas { fh } => Some(fh.seg.0),
                NfsRequest::Lookup { dir, .. }
                | NfsRequest::Readdir { dir }
                | NfsRequest::DeceitReconcile { dir } => Some(dir.seg.0),
                _ => None,
            },
        }
    }

    /// How this request interacts with engine state — what a concurrent
    /// host dispatches on (see [`OpClass`]).
    ///
    /// `Remove`/`Rmdir` also rewrite the victim they resolve *by name*
    /// during execution; the class declares the directory, and the
    /// host's exclusive cell lock covers the resolved segment. `Create`/
    /// `Mkdir`/`Symlink` additionally touch a newborn segment that no
    /// other request can address yet.
    pub fn class(&self) -> OpClass {
        match self {
            NfsRequest::Null
            | NfsRequest::Getattr { .. }
            | NfsRequest::Lookup { .. }
            | NfsRequest::Readlink { .. }
            | NfsRequest::Read { .. }
            | NfsRequest::Readdir { .. }
            | NfsRequest::Statfs
            | NfsRequest::DeceitGetParams { .. }
            | NfsRequest::DeceitListVersions { .. }
            | NfsRequest::DeceitLocateReplicas { .. } => OpClass::ReadOnly,
            NfsRequest::Setattr { fh, .. }
            | NfsRequest::Write { fh, .. }
            | NfsRequest::DeceitSetParams { fh, .. } => OpClass::Mutate(fh.seg.0),
            NfsRequest::Create { dir, .. }
            | NfsRequest::Remove { dir, .. }
            | NfsRequest::Symlink { dir, .. }
            | NfsRequest::Mkdir { dir, .. }
            | NfsRequest::Rmdir { dir, .. } => OpClass::Mutate(dir.seg.0),
            NfsRequest::Rename { from_dir, to_dir, .. } => {
                OpClass::CrossShard(from_dir.seg.0, to_dir.seg.0)
            }
            NfsRequest::Link { target, dir, .. } => OpClass::CrossShard(target.seg.0, dir.seg.0),
            // Reconciliation touches every version of a directory across
            // the whole cell.
            NfsRequest::DeceitReconcile { .. } => OpClass::CellWide,
        }
    }
}

/// One NFS reply.
#[derive(Debug, Clone, PartialEq)]
pub enum NfsReply {
    /// NULL response.
    Void,
    /// Attributes (getattr/setattr/lookup/create/write/...).
    Attr(FileAttr),
    /// File data.
    Data(Bytes),
    /// Symlink target.
    Path(String),
    /// Directory listing.
    Entries(Vec<DirEntry>),
    /// Filesystem stats: (files, bytes) on the serving machine.
    Fsstat { files: usize, bytes: usize },
    /// Parameters of a file.
    Params(FileParams),
    /// Version listing.
    Versions(Vec<VersionInfo>),
    /// Replica locations.
    Replicas(Vec<NodeId>),
    /// Reconciliation report.
    Reconciled(crate::reconcile::ReconcileReport),
    /// Operation failed.
    Error(NfsError),
}

impl NfsReply {
    /// Approximate reply size on the wire.
    pub fn wire_size(&self) -> usize {
        40 + match self {
            NfsReply::Data(d) => d.len(),
            NfsReply::Entries(es) => es.iter().map(|e| 16 + e.name.len()).sum(),
            NfsReply::Path(p) => p.len(),
            NfsReply::Versions(vs) => vs.len() * 32,
            NfsReply::Replicas(rs) => rs.len() * 4,
            _ => 0,
        }
    }

    /// Extracts an error, if this reply is one.
    pub fn as_error(&self) -> Option<&NfsError> {
        match self {
            NfsReply::Error(e) => Some(e),
            _ => None,
        }
    }
}

/// The per-cell NFS service: dispatches requests into the envelope.
#[derive(Debug)]
pub struct NfsServer {
    /// The file service this server fronts.
    pub fs: DeceitFs,
}

impl NfsServer {
    /// Wraps a file service.
    pub fn new(fs: DeceitFs) -> Self {
        NfsServer { fs }
    }

    /// The root handle returned by the mount protocol.
    pub fn mount(&self) -> FileHandle {
        self.fs.root()
    }

    /// Handles one request arriving at server `via` holding the whole
    /// cell, returning the reply and the server-side latency.
    pub fn handle(&mut self, via: NodeId, req: NfsRequest) -> (NfsReply, SimDuration) {
        Self::dispatch(&mut Scope::Cell(&mut self.fs), via, &req).unwrap_or_else(escaped_cell_reply)
    }

    /// The request table: runs `req`, arriving at server `via`, against
    /// what the caller holds. `None` means its footprint escapes that —
    /// nothing was changed, and the caller retries holding more. The rows
    /// that go through `whole` need the whole cell (see
    /// [`crate::ops_dir`]); every other row escapes only if a segment it
    /// needs does.
    pub fn dispatch(
        scope: &mut Scope<'_>,
        via: NodeId,
        req: &NfsRequest,
    ) -> Option<(NfsReply, SimDuration)> {
        match req {
            NfsRequest::Null => Some((NfsReply::Void, SimDuration::from_micros(50))),
            NfsRequest::Getattr { fh } => reply(scope.getattr(via, *fh), NfsReply::Attr),
            NfsRequest::Setattr { fh, mode, uid, gid, size } => {
                reply(scope.setattr(via, *fh, *mode, *uid, *gid, *size), NfsReply::Attr)
            }
            NfsRequest::Lookup { dir, name } => {
                reply(scope.lookup(via, *dir, name), NfsReply::Attr)
            }
            NfsRequest::Readlink { fh } => reply(scope.readlink(via, *fh), NfsReply::Path),
            NfsRequest::Read { fh, offset, count } => {
                reply(scope.read(via, *fh, *offset, *count), NfsReply::Data)
            }
            NfsRequest::Write { fh, offset, data } => {
                reply(scope.write_bytes(via, *fh, *offset, data), NfsReply::Attr)
            }
            NfsRequest::Create { dir, name, mode } => {
                reply(whole(scope, |fs| fs.create(via, *dir, name, *mode)), NfsReply::Attr)
            }
            NfsRequest::Remove { dir, name } => {
                reply(whole(scope, |fs| fs.remove(via, *dir, name)), |()| NfsReply::Void)
            }
            NfsRequest::Rename { from_dir, from_name, to_dir, to_name } => reply(
                whole(scope, |fs| fs.rename(via, *from_dir, from_name, *to_dir, to_name)),
                |()| NfsReply::Void,
            ),
            NfsRequest::Link { target, dir, name } => {
                reply(scope.link(via, *target, *dir, name), |()| NfsReply::Void)
            }
            NfsRequest::Symlink { dir, name, target } => {
                reply(whole(scope, |fs| fs.symlink(via, *dir, name, target)), NfsReply::Attr)
            }
            NfsRequest::Mkdir { dir, name, mode } => {
                reply(whole(scope, |fs| fs.mkdir(via, *dir, name, *mode)), NfsReply::Attr)
            }
            NfsRequest::Rmdir { dir, name } => {
                reply(whole(scope, |fs| fs.rmdir(via, *dir, name)), |()| NfsReply::Void)
            }
            NfsRequest::Readdir { dir } => reply(scope.readdir(via, *dir), NfsReply::Entries),
            NfsRequest::Statfs => {
                reply(scope.statfs(via), |(files, bytes)| NfsReply::Fsstat { files, bytes })
            }
            NfsRequest::DeceitSetParams { fh, params } => {
                reply(scope.set_file_params(via, *fh, *params), |()| NfsReply::Void)
            }
            NfsRequest::DeceitGetParams { fh } => {
                reply(scope.file_params(via, *fh), NfsReply::Params)
            }
            NfsRequest::DeceitListVersions { fh } => {
                reply(whole(scope, |fs| fs.file_versions(via, *fh)), NfsReply::Versions)
            }
            NfsRequest::DeceitLocateReplicas { fh } => {
                reply(whole(scope, |fs| fs.file_replicas(via, *fh)), NfsReply::Replicas)
            }
            NfsRequest::DeceitReconcile { dir } => reply(
                whole(scope, |fs| crate::reconcile::reconcile_directory(fs, via, *dir)),
                NfsReply::Reconciled,
            ),
        }
    }
}

/// The reply to a request that escaped the whole cell.
fn escaped_cell_reply() -> (NfsReply, SimDuration) {
    (NfsReply::Error(crate::scope::escaped_cell()), SimDuration::from_micros(50))
}

/// Runs an operation that needs the whole cell, if `scope` holds it.
fn whole<T>(scope: &mut Scope<'_>, op: impl FnOnce(&mut DeceitFs) -> NfsResult<T>) -> Scoped<T> {
    Ok(op(scope.cell()?)?)
}

/// Converts an operation's outcome into a reply + latency pair; an
/// escape into `None`.
fn reply<T>(res: Scoped<T>, into: impl FnOnce(T) -> NfsReply) -> Option<(NfsReply, SimDuration)> {
    match res {
        Ok(OpResult { value, latency }) => Some((into(value), latency)),
        // Failures still consumed some server time; a small constant is
        // close enough for the error path.
        Err(Stop::Err(e)) => Some((NfsReply::Error(e), SimDuration::from_micros(500))),
        Err(Stop::Escape) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deceit_core::{shard_slot, SegmentId};

    fn fh(seg: u64) -> FileHandle {
        FileHandle::new(SegmentId(seg))
    }

    /// One request per variant group, covering every class.
    fn sample_requests() -> Vec<NfsRequest> {
        vec![
            NfsRequest::Null,
            NfsRequest::Statfs,
            NfsRequest::Getattr { fh: fh(1) },
            NfsRequest::Lookup { dir: fh(2), name: "x".into() },
            NfsRequest::Read { fh: fh(3), offset: 0, count: 8 },
            NfsRequest::Readdir { dir: fh(4) },
            NfsRequest::Readlink { fh: fh(5) },
            NfsRequest::DeceitGetParams { fh: fh(6) },
            NfsRequest::DeceitListVersions { fh: fh(7) },
            NfsRequest::DeceitLocateReplicas { fh: fh(8) },
            NfsRequest::Setattr { fh: fh(9), mode: None, uid: None, gid: None, size: None },
            NfsRequest::Write { fh: fh(10), offset: 0, data: b"d".into() },
            NfsRequest::DeceitSetParams { fh: fh(11), params: FileParams::default() },
            NfsRequest::Create { dir: fh(12), name: "x".into(), mode: 0o644 },
            NfsRequest::Remove { dir: fh(13), name: "x".into() },
            NfsRequest::Symlink { dir: fh(14), name: "x".into(), target: "y".into() },
            NfsRequest::Mkdir { dir: fh(15), name: "x".into(), mode: 0o755 },
            NfsRequest::Rmdir { dir: fh(16), name: "x".into() },
            NfsRequest::Rename {
                from_dir: fh(17),
                from_name: "x".into(),
                to_dir: fh(18),
                to_name: "y".into(),
            },
            NfsRequest::Link { target: fh(19), dir: fh(20), name: "x".into() },
            NfsRequest::DeceitReconcile { dir: fh(21) },
        ]
    }

    /// The two classification seams must agree: whenever a request has
    /// a shard key and a mutating class, the key is among the shards
    /// the class declares (it *is* the first one, by derivation).
    #[test]
    fn shard_key_is_consistent_with_class() {
        const SLOTS: usize = 8;
        for req in sample_requests() {
            let class = req.class();
            match class {
                OpClass::Mutate(k) | OpClass::CrossShard(k, _) => {
                    assert_eq!(req.shard_key(), Some(k), "{req:?}");
                    let declared: Vec<_> = class.slots(SLOTS).collect();
                    assert!(
                        declared.contains(&shard_slot(k, SLOTS)),
                        "{req:?}: key {k} not in declared slots {declared:?}"
                    );
                }
                OpClass::ReadOnly | OpClass::CellWide => {
                    assert!(req.is_read_only() == (class == OpClass::ReadOnly), "{req:?}");
                }
            }
        }
    }

    /// Pin each variant group to its class: lock footprints are wire
    /// contract, not an implementation detail.
    #[test]
    fn classes_cover_the_protocol_as_documented() {
        assert_eq!(NfsRequest::Null.class(), OpClass::ReadOnly);
        assert_eq!(NfsRequest::Read { fh: fh(3), offset: 0, count: 1 }.class(), OpClass::ReadOnly);
        assert_eq!(
            NfsRequest::Write { fh: fh(10), offset: 0, data: b"d".into() }.class(),
            OpClass::Mutate(10)
        );
        assert_eq!(
            NfsRequest::Create { dir: fh(12), name: "x".into(), mode: 0o644 }.class(),
            OpClass::Mutate(12)
        );
        assert_eq!(
            NfsRequest::Rename {
                from_dir: fh(17),
                from_name: "x".into(),
                to_dir: fh(18),
                to_name: "y".into(),
            }
            .class(),
            OpClass::CrossShard(17, 18)
        );
        assert_eq!(
            NfsRequest::Link { target: fh(19), dir: fh(20), name: "x".into() }.class(),
            OpClass::CrossShard(19, 20)
        );
        assert_eq!(NfsRequest::DeceitReconcile { dir: fh(21) }.class(), OpClass::CellWide);
        // Requests with no addressed file have no shard key.
        assert_eq!(NfsRequest::Null.shard_key(), None);
        assert_eq!(NfsRequest::Statfs.shard_key(), None);
        // Read requests keep a key for future read-side sharding.
        assert_eq!(NfsRequest::Getattr { fh: fh(1) }.shard_key(), Some(1));
    }
}
