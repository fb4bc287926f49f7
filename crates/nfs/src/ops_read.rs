//! Operations that only inspect segments (`OpClass::ReadOnly`):
//! attributes, file contents, directory listings, link targets, and the
//! Deceit inquiry commands. None of them changes client-visible state,
//! which is what lets a concurrent host run them under its shared cell
//! lock.
//!
//! Each is written once against the [`Scope`] its caller holds, and what
//! a scope can answer follows from how `Scope::load` obtains segments
//! there. Holding the shared cell lock alone, an operation answers
//! exactly when the serving server locally holds a stable, current
//! replica of every segment involved — or, under
//! `ClusterConfig::opt_read_leases`, when it is the token holder of an
//! *unstable* file mid-write-stream and its published read lease covers
//! the replica (the §3.4 "reads are forwarded to the token holder" case
//! where this server *is* the holder). Holding the primary file's ring
//! lock as well, the full protocol may forward, join groups and account
//! the clock for that file; a `LOOKUP`'s child, in a slot of its own,
//! is still only ever snapshotted. Whatever a narrower scope does answer
//! is byte-for-byte what the whole cell would have answered; what it
//! cannot, escapes. The inquiries that search the cell ask for all of it.

use bytes::Bytes;

use deceit_core::{DeceitError, FileParams, OpResult};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::DirEntry;
use crate::fs::{attr_from, DeceitFs, FileAttr, FileType, NfsError, NfsResult};
use crate::handle::FileHandle;
use crate::name::QualifiedName;
use crate::scope::{at_cell, Scope, Scoped};

/// The bodies; each is documented on its `DeceitFs` method below.
impl Scope<'_> {
    pub(crate) fn getattr(&mut self, via: NodeId, fh: FileHandle) -> Scoped<FileAttr> {
        let (inode, payload, version, latency) = self.load(via, fh)?;
        Ok(OpResult { value: attr_from(fh, &inode, payload.len(), version), latency })
    }

    pub(crate) fn lookup(&mut self, via: NodeId, dir: FileHandle, name: &str) -> Scoped<FileAttr> {
        let q = QualifiedName::parse(name)?;
        let (_, table, _, latency) = self.load_dir(via, dir)?;
        let entry = table.get(&q.base).ok_or(NfsError::NotFound)?;
        let fh = match q.version {
            Some(v) => FileHandle::versioned(entry.handle.seg, v),
            None => entry.handle,
        };
        let mut out = self.getattr(via, fh)?;
        out.latency += latency;
        Ok(out)
    }

    pub(crate) fn read(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        count: usize,
    ) -> Scoped<Bytes> {
        let (inode, payload, _, latency) = self.load(via, fh)?;
        if inode.ftype == FileType::Directory.to_byte() {
            return Err(NfsError::IsDir.into());
        }
        Ok(OpResult { value: payload.read(offset, count), latency })
    }

    pub(crate) fn readlink(&mut self, via: NodeId, fh: FileHandle) -> Scoped<String> {
        let (inode, payload, _, latency) = self.load(via, fh)?;
        if inode.ftype != FileType::Symlink.to_byte() {
            return Err(DeceitError::InvalidCommand("readlink on non-symlink".to_string()).into());
        }
        Ok(OpResult { value: String::from_utf8_lossy(&payload.bytes()).into_owned(), latency })
    }

    pub(crate) fn readdir(&mut self, via: NodeId, dir: FileHandle) -> Scoped<Vec<DirEntry>> {
        let (_, table, _, latency) = self.load_dir(via, dir)?;
        Ok(OpResult { value: table.entries().to_vec(), latency })
    }

    /// Purely local accounting, the same at every level.
    pub(crate) fn statfs(&mut self, via: NodeId) -> Scoped<(usize, usize)> {
        let cluster = &self.fs().cluster;
        cluster.check_up(via)?;
        let s = cluster.server(via);
        let value = (s.replicas.len(), s.replicas.durable_bytes());
        Ok(OpResult { value, latency: SimDuration::from_micros(100) })
    }

    pub(crate) fn file_params(&mut self, via: NodeId, fh: FileHandle) -> Scoped<FileParams> {
        let (cluster, held) = self.held(fh.seg)?;
        Ok(cluster.get_params_scoped(held, via, fh.seg)?)
    }
}

/// The operations as code holding `&mut DeceitFs` — the whole cell —
/// calls them, and the ones that need it.
impl DeceitFs {
    /// `GETATTR`.
    pub fn getattr(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<FileAttr> {
        at_cell(Scope::Cell(self).getattr(via, fh))
    }

    /// `LOOKUP`: resolves one component in a directory, honoring the
    /// `name;version` syntax (§3.5).
    pub fn lookup(&mut self, via: NodeId, dir: FileHandle, name: &str) -> NfsResult<FileAttr> {
        at_cell(Scope::Cell(self).lookup(via, dir, name))
    }

    /// `READ`: file contents (the inode header is invisible to clients).
    pub fn read(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        count: usize,
    ) -> NfsResult<Bytes> {
        at_cell(Scope::Cell(self).read(via, fh, offset, count))
    }

    /// `READLINK`.
    pub fn readlink(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<String> {
        at_cell(Scope::Cell(self).readlink(via, fh))
    }

    /// `READDIR`: lists a directory.
    pub fn readdir(&mut self, via: NodeId, dir: FileHandle) -> NfsResult<Vec<DirEntry>> {
        at_cell(Scope::Cell(self).readdir(via, dir))
    }

    /// `STATFS`-style summary: live files and total bytes on one server.
    pub fn statfs(&mut self, via: NodeId) -> NfsResult<(usize, usize)> {
        at_cell(Scope::Cell(self).statfs(via))
    }

    /// Reads the per-file semantic parameters.
    pub fn file_params(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<FileParams> {
        at_cell(Scope::Cell(self).file_params(via, fh))
    }

    /// Lists all versions of a file (§2.1 "list all versions of a file").
    pub fn file_versions(
        &mut self,
        via: NodeId,
        fh: FileHandle,
    ) -> NfsResult<Vec<deceit_core::VersionInfo>> {
        let r = self.cluster.list_versions(via, fh.seg)?;
        Ok(OpResult { value: r.value, latency: r.latency })
    }

    /// Locates all replicas of a file (§2.1 "locate all replicas").
    pub fn file_replicas(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<Vec<NodeId>> {
        let r = self.cluster.locate_replicas(via, fh.seg)?;
        Ok(OpResult { value: r.value, latency: r.latency })
    }

    /// NFS `ACCESS`: whether `cred` may perform `want` on the file.
    pub fn access(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        cred: crate::auth::Credentials,
        want: crate::auth::AccessMode,
    ) -> NfsResult<bool> {
        let (inode, _, _, latency) = at_cell(Scope::Cell(self).load(via, fh))?;
        Ok(OpResult { value: crate::auth::permits(&inode, cred, want), latency })
    }

    /// `READ` with credential enforcement: `EACCES` unless the mode bits
    /// permit reading.
    pub fn read_as(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        cred: crate::auth::Credentials,
        offset: usize,
        count: usize,
    ) -> NfsResult<Bytes> {
        let allowed = self.access(via, fh, cred, crate::auth::AccessMode::Read)?;
        if !allowed.value {
            return Err(NfsError::Access);
        }
        let mut out = self.read(via, fh, offset, count)?;
        out.latency += allowed.latency;
        Ok(out)
    }

    /// Walks an absolute slash-separated path from the root.
    pub fn lookup_path(&mut self, via: NodeId, path: &str) -> NfsResult<FileAttr> {
        let mut latency = SimDuration::ZERO;
        let mut cur = self.root();
        let mut attr = {
            let a = self.getattr(via, cur)?;
            latency += a.latency;
            a.value
        };
        for comp in path.split('/').filter(|c| !c.is_empty() && *c != ".") {
            let next = self.lookup(via, cur, comp)?;
            latency += next.latency;
            attr = next.value;
            cur = attr.handle;
        }
        Ok(OpResult { value: attr, latency })
    }
}
