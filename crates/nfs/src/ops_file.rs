//! Single-file mutating entry points (`OpClass::Mutate`).
//!
//! Every operation here rewrites exactly one segment — the one its file
//! handle names — through the §5.1 optimistic read-modify-write loop.
//! A concurrent host serializes them per shard (the handle's segment id
//! is the shard key): the `*_sharded` twins run under the shared cell
//! lock plus the file's shard ring lock, concurrently with reads and
//! with mutations of files in other shards.

use bytes::Bytes;

use deceit_core::{FileParams, OpResult};
use deceit_net::NodeId;

use crate::fs::{DeceitFs, Edit, FileAttr, FileType, NfsError, NfsResult};
use crate::handle::FileHandle;

impl DeceitFs {
    /// `SETATTR`: chmod/chown/truncate.
    pub fn setattr(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        mode: Option<u32>,
        uid: Option<u32>,
        gid: Option<u32>,
        size: Option<usize>,
    ) -> NfsResult<FileAttr> {
        let now = self.cluster.now().as_micros();
        let latency = self.update_segment(via, fh, |inode, _| {
            if size.is_some() && inode.ftype == FileType::Directory.to_byte() {
                return Err(NfsError::IsDir);
            }
            if let Some(m) = mode {
                inode.mode = m;
            }
            if let Some(u) = uid {
                inode.uid = u;
            }
            if let Some(g) = gid {
                inode.gid = g;
            }
            inode.ctime = now;
            if size.is_some() {
                inode.mtime = now;
            }
            Ok(Some(size.map_or(Edit::Keep, Edit::Resize)))
        })?;
        let mut out = self.getattr(via, fh)?;
        out.latency += latency;
        Ok(out)
    }

    /// `WRITE` of a copy of `data`; see [`DeceitFs::write_bytes`].
    pub fn write(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        data: &[u8],
    ) -> NfsResult<FileAttr> {
        self.write_bytes(via, fh, offset, &Bytes::copy_from_slice(data))
    }

    /// `WRITE`: writes `data` at `offset`, extending the file as needed.
    /// The buffer itself becomes part of the file's segment image.
    pub fn write_bytes(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        data: &Bytes,
    ) -> NfsResult<FileAttr> {
        let now = self.cluster.now().as_micros();
        let latency = self.update_segment(via, fh, |inode, _| {
            if inode.ftype == FileType::Directory.to_byte() {
                return Err(NfsError::IsDir);
            }
            inode.mtime = now;
            Ok(Some(Edit::WriteAt(offset, data.clone())))
        })?;
        let mut out = self.getattr(via, fh)?;
        out.latency += latency;
        Ok(out)
    }

    /// `WRITE` with credential enforcement.
    pub fn write_as(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        cred: crate::auth::Credentials,
        offset: usize,
        data: &[u8],
    ) -> NfsResult<FileAttr> {
        let allowed = self.access(via, fh, cred, crate::auth::AccessMode::Write)?;
        if !allowed.value {
            return Err(NfsError::Access);
        }
        let mut out = self.write(via, fh, offset, data)?;
        out.latency += allowed.latency;
        Ok(out)
    }

    /// Sets the per-file semantic parameters (§4).
    pub fn set_file_params(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        params: FileParams,
    ) -> NfsResult<()> {
        let r = self.cluster.set_params(via, fh.seg, params)?;
        Ok(OpResult { value: (), latency: r.latency })
    }

    // ------------------------------------------------------------------
    // Sharded-path twins (`&self` + held ring locks)
    // ------------------------------------------------------------------

    /// Sharded-path `SETATTR`: same semantics as [`DeceitFs::setattr`],
    /// executed under the handle's shard ring lock.
    #[allow(clippy::too_many_arguments)] // mirrors the NFS SETATTR surface
    pub fn setattr_sharded(
        &self,
        slots: &[usize],
        via: NodeId,
        fh: FileHandle,
        mode: Option<u32>,
        uid: Option<u32>,
        gid: Option<u32>,
        size: Option<usize>,
    ) -> NfsResult<FileAttr> {
        let now = self.cluster.now().as_micros();
        let (inode, len, version, latency) =
            self.update_segment_sharded(slots, via, fh, |inode, _| {
                if size.is_some() && inode.ftype == FileType::Directory.to_byte() {
                    return Err(NfsError::IsDir);
                }
                if let Some(m) = mode {
                    inode.mode = m;
                }
                if let Some(u) = uid {
                    inode.uid = u;
                }
                if let Some(g) = gid {
                    inode.gid = g;
                }
                inode.ctime = now;
                if size.is_some() {
                    inode.mtime = now;
                }
                Ok(Some(size.map_or(Edit::Keep, Edit::Resize)))
            })?;
        Ok(OpResult { value: self.attr_from(fh, &inode, len, version), latency })
    }

    /// Sharded-path `WRITE`: same semantics as [`DeceitFs::write`],
    /// executed under the handle's shard ring lock — concurrent with
    /// reads and with mutations of files in other slots.
    ///
    /// Under the asynchronous write pipeline (the live runtime's
    /// default), the reply means: durable at the token holder plus the
    /// file's `write_safety - 1` synchronous replicas; propagation to
    /// the rest of the group is deferred work the pump ships in
    /// batches, with lagging replicas' reads forwarding to the holder
    /// meanwhile (§3.4). See the README's "failure semantics" section
    /// for what a holder crash recovers.
    pub fn write_sharded(
        &self,
        slots: &[usize],
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        data: &Bytes,
    ) -> NfsResult<FileAttr> {
        let now = self.cluster.now().as_micros();
        let (inode, len, version, latency) =
            self.update_segment_sharded(slots, via, fh, |inode, _| {
                if inode.ftype == FileType::Directory.to_byte() {
                    return Err(NfsError::IsDir);
                }
                inode.mtime = now;
                Ok(Some(Edit::WriteAt(offset, data.clone())))
            })?;
        Ok(OpResult { value: self.attr_from(fh, &inode, len, version), latency })
    }

    /// Sharded-path parameter change: rides the per-file update
    /// machinery, so the same ring locks suffice.
    pub fn set_file_params_sharded(
        &self,
        slots: &[usize],
        via: NodeId,
        fh: FileHandle,
        params: FileParams,
    ) -> NfsResult<()> {
        let r = self.cluster.set_params_sharded(slots, via, fh.seg, params)?;
        Ok(OpResult { value: (), latency: r.latency })
    }
}
