//! Read-only envelope entry points (`OpClass::ReadOnly`).
//!
//! Every operation here only *inspects* segments: attributes, file
//! contents, directory listings, link targets, and the Deceit inquiry
//! commands. None of them changes client-visible state, which is what
//! lets a concurrent host run them under its shared cell lock.
//!
//! Each exclusive (`&mut self`) operation has a shared (`&self`)
//! `*_shared` twin built on [`Cluster::try_read_local`]: the twin
//! answers exactly when the serving server locally holds a stable,
//! current replica of every segment involved — or, under
//! `ClusterConfig::opt_read_leases`, when it is the token holder of an
//! *unstable* file mid-write-stream and its published read lease
//! covers the replica (the §3.4 "reads are forwarded to the token
//! holder" case where this server *is* the holder) — and returns
//! `None` otherwise so the host falls back to the exclusive path
//! (which performs forwarding, cache updates, and clock accounting).
//! When the twin does answer, it returns byte-for-byte what the
//! exclusive path would have returned.

use bytes::Bytes;

use deceit_core::{DeceitError, FileParams, OpResult, VersionPair};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::{DirEntry, Directory};
use crate::fs::{
    split_image, DeceitFs, FileAttr, FileType, NfsError, NfsResult, Payload, WHOLE_SEGMENT,
};
use crate::handle::FileHandle;
use crate::inode::Inode;
use crate::name::QualifiedName;

impl DeceitFs {
    /// `GETATTR`.
    pub fn getattr(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<FileAttr> {
        let (inode, payload, version, latency) = self.load(via, fh)?;
        let attr = self.attr_from(fh, &inode, payload.len(), version);
        Ok(OpResult { value: attr, latency })
    }

    /// `LOOKUP`: resolves one component in a directory, honoring the
    /// `name;version` syntax (§3.5).
    pub fn lookup(&mut self, via: NodeId, dir: FileHandle, name: &str) -> NfsResult<FileAttr> {
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

    /// `READ`: file contents (the inode header is invisible to clients).
    pub fn read(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        count: usize,
    ) -> NfsResult<Bytes> {
        let (inode, payload, _, latency) = self.load(via, fh)?;
        if inode.ftype == FileType::Directory.to_byte() {
            return Err(NfsError::IsDir);
        }
        Ok(OpResult { value: payload.read(offset, count), latency })
    }

    /// `READLINK`.
    pub fn readlink(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<String> {
        let (inode, payload, _, latency) = self.load(via, fh)?;
        if inode.ftype != FileType::Symlink.to_byte() {
            return Err(NfsError::Io(DeceitError::InvalidCommand(
                "readlink on non-symlink".to_string(),
            )));
        }
        Ok(OpResult { value: String::from_utf8_lossy(&payload.bytes()).into_owned(), latency })
    }

    /// `READDIR`: lists a directory.
    pub fn readdir(&mut self, via: NodeId, dir: FileHandle) -> NfsResult<Vec<DirEntry>> {
        let (_, table, _, latency) = self.load_dir(via, dir)?;
        Ok(OpResult { value: table.entries().to_vec(), latency })
    }

    /// `STATFS`-style summary: live files and total bytes on one server.
    pub fn statfs(&mut self, via: NodeId) -> NfsResult<(usize, usize)> {
        self.cluster.check_up(via)?;
        let s = self.cluster.server(via);
        let files = s.replicas.len();
        let bytes = s.replicas.durable_bytes();
        Ok(OpResult { value: (files, bytes), latency: SimDuration::from_micros(100) })
    }

    /// Reads the per-file semantic parameters.
    pub fn file_params(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<FileParams> {
        let r = self.cluster.get_params(via, fh.seg)?;
        Ok(OpResult { value: r.value, latency: r.latency })
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
        let (inode, _, _, latency) = self.load(via, fh)?;
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

    // ------------------------------------------------------------------
    // Sharded read twins (`&self` + held ring locks)
    //
    // The full read protocol — forwarding, group joins, LRU touches,
    // clock accounting — through the scoped cluster entry points, for
    // requests the lock-free fast path above cannot answer (no local
    // stable replica). Run by a concurrent host under the shared cell
    // lock plus the ring lock of the request's primary file; a
    // lookup's child (a slot these locks do not cover) is only ever
    // answered from single-acquisition snapshots, never the mutating
    // full protocol.
    // ------------------------------------------------------------------

    /// Sharded-path `READ`.
    pub fn read_ring(
        &self,
        slots: &[usize],
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        count: usize,
    ) -> NfsResult<Bytes> {
        let (inode, payload, _, latency) = self.load_sharded(slots, via, fh)?;
        if inode.ftype == FileType::Directory.to_byte() {
            return Err(NfsError::IsDir);
        }
        Ok(OpResult { value: payload.read(offset, count), latency })
    }

    /// Sharded-path `LOOKUP`. The directory runs under its held ring
    /// lock; the *child* lives in a slot these locks do not cover, so
    /// its attributes come only from the single-acquisition snapshot
    /// paths (local stable replica, or the token holder's primary copy)
    /// — never from the full read protocol, which mutates child-slot
    /// state. `None` means the child is not atomically answerable here:
    /// the host falls back to the exclusive path.
    pub fn lookup_ring(
        &self,
        slots: &[usize],
        via: NodeId,
        dir: FileHandle,
        name: &str,
    ) -> Option<NfsResult<FileAttr>> {
        let q = match QualifiedName::parse(name) {
            Ok(q) => q,
            Err(e) => return Some(Err(e.into())),
        };
        let (_, table, _, latency) = match self.load_dir_sharded(slots, via, dir) {
            Ok(l) => l,
            Err(e) => return Some(Err(e)),
        };
        let Some(entry) = table.get(&q.base) else { return Some(Err(NfsError::NotFound)) };
        let fh = match q.version {
            Some(v) => FileHandle::versioned(entry.handle.seg, v),
            None => entry.handle,
        };
        let read = self
            .cluster
            .try_read_local(via, fh.seg, fh.version, 0, WHOLE_SEGMENT)
            .or_else(|| self.cluster.try_read_primary(via, fh.seg, fh.version, 0, WHOLE_SEGMENT))?;
        Some((|| {
            let (inode, payload) = split_image(read.value.image)?;
            let attr = self.attr_from(fh, &inode, payload.len(), read.value.version);
            Ok(OpResult { value: attr, latency: latency + read.latency })
        })())
    }

    /// Sharded-path `READLINK`.
    pub fn readlink_ring(&self, slots: &[usize], via: NodeId, fh: FileHandle) -> NfsResult<String> {
        let (inode, payload, _, latency) = self.load_sharded(slots, via, fh)?;
        if inode.ftype != FileType::Symlink.to_byte() {
            return Err(NfsError::Io(DeceitError::InvalidCommand(
                "readlink on non-symlink".to_string(),
            )));
        }
        Ok(OpResult { value: String::from_utf8_lossy(&payload.bytes()).into_owned(), latency })
    }

    /// Sharded-path `READDIR`.
    pub fn readdir_ring(
        &self,
        slots: &[usize],
        via: NodeId,
        dir: FileHandle,
    ) -> NfsResult<Vec<DirEntry>> {
        let (_, table, _, latency) = self.load_dir_sharded(slots, via, dir)?;
        Ok(OpResult { value: table.entries().to_vec(), latency })
    }

    /// Sharded-path parameter read.
    pub fn file_params_ring(
        &self,
        slots: &[usize],
        via: NodeId,
        fh: FileHandle,
    ) -> NfsResult<FileParams> {
        let r = self.cluster.get_params_sharded(slots, via, fh.seg)?;
        Ok(OpResult { value: r.value, latency: r.latency })
    }

    // ------------------------------------------------------------------
    // The shared fast path
    // ------------------------------------------------------------------

    /// Shared-access load: the whole segment split into (inode, payload,
    /// version), served only from a local stable replica at `via`.
    pub(crate) fn load_shared(
        &self,
        via: NodeId,
        fh: FileHandle,
    ) -> Option<Result<(Inode, Payload, VersionPair, SimDuration), NfsError>> {
        let read = self.cluster.try_read_local(via, fh.seg, fh.version, 0, WHOLE_SEGMENT)?;
        Some(match split_image(read.value.image) {
            Ok((inode, payload)) => Ok((inode, payload, read.value.version, read.latency)),
            // A present-but-undecodable segment is deterministic state:
            // the exclusive path would report the same corruption.
            Err(e) => Err(NfsError::Corrupt(e)),
        })
    }

    /// Shared-access directory load.
    fn load_dir_shared(
        &self,
        via: NodeId,
        fh: FileHandle,
    ) -> Option<Result<(Inode, Directory, VersionPair, SimDuration), NfsError>> {
        let loaded = match self.load_shared(via, fh)? {
            Ok(l) => l,
            Err(e) => return Some(Err(e)),
        };
        let (inode, payload, version, latency) = loaded;
        if inode.ftype != FileType::Directory.to_byte() {
            return Some(Err(NfsError::NotDir));
        }
        Some(match Directory::decode(&payload.bytes()) {
            Ok(dir) => Ok((inode, dir, version, latency)),
            Err(e) => Err(NfsError::Corrupt(e)),
        })
    }

    /// Shared-access `GETATTR`.
    pub fn getattr_shared(&self, via: NodeId, fh: FileHandle) -> Option<NfsResult<FileAttr>> {
        let (inode, payload, version, latency) = match self.load_shared(via, fh)? {
            Ok(l) => l,
            Err(e) => return Some(Err(e)),
        };
        let attr = self.attr_from(fh, &inode, payload.len(), version);
        Some(Ok(OpResult { value: attr, latency }))
    }

    /// Shared-access `LOOKUP`: both the directory and the target must be
    /// locally servable, otherwise the exclusive path takes over.
    pub fn lookup_shared(
        &self,
        via: NodeId,
        dir: FileHandle,
        name: &str,
    ) -> Option<NfsResult<FileAttr>> {
        let q = match QualifiedName::parse(name) {
            Ok(q) => q,
            Err(e) => return Some(Err(e.into())),
        };
        let (_, table, _, latency) = match self.load_dir_shared(via, dir)? {
            Ok(l) => l,
            Err(e) => return Some(Err(e)),
        };
        let Some(entry) = table.get(&q.base) else { return Some(Err(NfsError::NotFound)) };
        let fh = match q.version {
            Some(v) => FileHandle::versioned(entry.handle.seg, v),
            None => entry.handle,
        };
        let mut out = self.getattr_shared(via, fh)?;
        if let Ok(attr) = &mut out {
            attr.latency += latency;
        }
        Some(out)
    }

    /// Shared-access `READ`.
    pub fn read_shared(
        &self,
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        count: usize,
    ) -> Option<NfsResult<Bytes>> {
        let (inode, payload, _, latency) = match self.load_shared(via, fh)? {
            Ok(l) => l,
            Err(e) => return Some(Err(e)),
        };
        if inode.ftype == FileType::Directory.to_byte() {
            return Some(Err(NfsError::IsDir));
        }
        Some(Ok(OpResult { value: payload.read(offset, count), latency }))
    }

    /// Shared-access `READLINK`.
    pub fn readlink_shared(&self, via: NodeId, fh: FileHandle) -> Option<NfsResult<String>> {
        let (inode, payload, _, latency) = match self.load_shared(via, fh)? {
            Ok(l) => l,
            Err(e) => return Some(Err(e)),
        };
        if inode.ftype != FileType::Symlink.to_byte() {
            return Some(Err(NfsError::Io(DeceitError::InvalidCommand(
                "readlink on non-symlink".to_string(),
            ))));
        }
        Some(Ok(OpResult {
            value: String::from_utf8_lossy(&payload.bytes()).into_owned(),
            latency,
        }))
    }

    /// Shared-access `READDIR`.
    pub fn readdir_shared(&self, via: NodeId, dir: FileHandle) -> Option<NfsResult<Vec<DirEntry>>> {
        let (_, table, _, latency) = match self.load_dir_shared(via, dir)? {
            Ok(l) => l,
            Err(e) => return Some(Err(e)),
        };
        Some(Ok(OpResult { value: table.entries().to_vec(), latency }))
    }

    /// Shared-access `STATFS`: purely local per-server accounting.
    pub fn statfs_shared(&self, via: NodeId) -> Option<NfsResult<(usize, usize)>> {
        if self.cluster.check_up(via).is_err() {
            // Let the exclusive path produce the canonical error.
            return None;
        }
        let s = self.cluster.server(via);
        let files = s.replicas.len();
        let bytes = s.replicas.durable_bytes();
        Some(Ok(OpResult { value: (files, bytes), latency: SimDuration::from_micros(100) }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::DeceitFs;

    /// The shared fast path must agree byte-for-byte with the exclusive
    /// path whenever it answers at all.
    #[test]
    fn shared_path_matches_exclusive_answers() {
        let mut fs = DeceitFs::with_defaults(3);
        let root = fs.root();
        let via = NodeId(0);
        let attr = fs.create(via, root, "f", 0o644).unwrap().value;
        fs.write(via, attr.handle, 0, b"shared vs exclusive").unwrap();
        fs.symlink(via, root, "l", "f").unwrap();
        fs.cluster.run_until_quiet();

        let shared = fs.read_shared(via, attr.handle, 0, 64).expect("local stable replica");
        let exclusive = fs.read(via, attr.handle, 0, 64).unwrap();
        assert_eq!(shared.unwrap().value, exclusive.value);

        let shared = fs.getattr_shared(via, attr.handle).unwrap().unwrap();
        let exclusive = fs.getattr(via, attr.handle).unwrap();
        assert_eq!(shared.value, exclusive.value);

        let shared = fs.lookup_shared(via, root, "f").unwrap().unwrap();
        let exclusive = fs.lookup(via, root, "f").unwrap();
        assert_eq!(shared.value, exclusive.value);

        let shared = fs.readdir_shared(via, root).unwrap().unwrap();
        let exclusive = fs.readdir(via, root).unwrap();
        assert_eq!(shared.value, exclusive.value);

        let lh = fs.lookup(via, root, "l").unwrap().value.handle;
        let shared = fs.readlink_shared(via, lh).unwrap().unwrap();
        assert_eq!(shared.value, "f");

        // Deterministic errors are answered, not deferred.
        assert_eq!(
            fs.lookup_shared(via, root, "missing").unwrap().unwrap_err(),
            NfsError::NotFound
        );
        assert_eq!(fs.read_shared(via, root, 0, 8).unwrap().unwrap_err(), NfsError::IsDir);
    }

    /// Under `opt_read_leases`, the shared twins serve the token
    /// holder's own file even mid-write-stream (unstable, lease
    /// published) — and still defer for every other server, whose reads
    /// must forward to the holder (§3.4).
    #[test]
    fn shared_path_serves_holder_under_write_stream_with_leases() {
        use deceit_core::{ClusterConfig, FileParams};
        let cfg = ClusterConfig::deterministic().with_write_pipeline().with_read_leases();
        let mut fs = DeceitFs::new(3, cfg, crate::fs::FsConfig::default());
        let root = fs.root();
        let via = NodeId(0);
        let attr = fs.create(via, root, "f", 0o644).unwrap().value;
        fs.set_file_params(via, attr.handle, FileParams::important(3)).unwrap();
        fs.cluster.run_until_quiet();
        fs.write(via, attr.handle, 0, b"streaming").unwrap();

        // The file is unstable (stream active), yet the holder's shared
        // twins answer at the acked prefix — and match the exclusive
        // path byte for byte.
        let shared = fs.read_shared(via, attr.handle, 0, 64).expect("lease serves the holder");
        assert_eq!(&shared.unwrap().value[..], b"streaming");
        let shared_attr = fs.getattr_shared(via, attr.handle).expect("lease getattr").unwrap();
        let exclusive_attr = fs.getattr(via, attr.handle).unwrap();
        assert_eq!(shared_attr.value, exclusive_attr.value);
        // Non-holders keep deferring: their reads must forward.
        assert!(fs.read_shared(NodeId(1), attr.handle, 0, 64).is_none());
        // And once the stream stabilizes, the ordinary stable path
        // takes over everywhere.
        fs.cluster.run_until_quiet();
        assert!(fs.read_shared(NodeId(1), attr.handle, 0, 64).is_some());
    }

    /// Servers without a local replica defer to the exclusive
    /// (forwarding) path instead of answering.
    #[test]
    fn shared_path_defers_when_not_locally_servable() {
        let mut fs = DeceitFs::with_defaults(3);
        let root = fs.root();
        let attr = fs.create(NodeId(0), root, "only-on-0", 0o644).unwrap().value;
        fs.write(NodeId(0), attr.handle, 0, b"x").unwrap();
        fs.cluster.run_until_quiet();
        // Default params keep one replica, placed at the creating server.
        let holders = fs.file_replicas(NodeId(0), attr.handle).unwrap().value;
        assert_eq!(holders, vec![NodeId(0)]);
        assert!(fs.read_shared(NodeId(1), attr.handle, 0, 8).is_none());
        // Crashed servers never answer the fast path either.
        fs.cluster.crash_server(NodeId(0));
        assert!(fs.read_shared(NodeId(0), attr.handle, 0, 8).is_none());
        assert!(fs.statfs_shared(NodeId(0)).is_none());
    }
}
