//! Single-file mutations (`OpClass::Mutate`).
//!
//! Every operation here rewrites exactly one segment — the one its file
//! handle names — through the §5.1 optimistic read-modify-write loop, so
//! the file's ring lock is all it needs: a concurrent host runs it under
//! the shared cell lock plus that lock, concurrently with reads and with
//! mutations of files in other slots. Each is written once against the
//! [`Scope`] its caller holds; with less than the file's ring lock it
//! escapes before touching anything.
//!
//! Under the asynchronous write pipeline (the live runtime's default), a
//! `WRITE`'s reply means: durable at the token holder plus the file's
//! `write_safety - 1` synchronous replicas; propagation to the rest of
//! the group is deferred work the pump ships in batches, with lagging
//! replicas' reads forwarding to the holder meanwhile (§3.4). See the
//! README's "failure semantics" section for what a holder crash recovers.

use bytes::Bytes;

use deceit_core::FileParams;
use deceit_net::NodeId;

use crate::fs::{DeceitFs, Edit, FileAttr, FileType, NfsError, NfsResult};
use crate::handle::FileHandle;
use crate::scope::{at_cell, Scope, Scoped, ATTR_ARGS};

/// The bodies; each is documented on its `DeceitFs` method below.
impl Scope<'_> {
    pub(crate) fn setattr(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        mode: Option<u32>,
        uid: Option<u32>,
        gid: Option<u32>,
        size: Option<usize>,
    ) -> Scoped<FileAttr> {
        let now = self.fs().cluster.now().as_micros();
        let done = self.update_segment(via, fh, ATTR_ARGS, |inode, _| {
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
        self.attr_after(via, fh, done)
    }

    pub(crate) fn write_bytes(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        data: &Bytes,
    ) -> Scoped<FileAttr> {
        let now = self.fs().cluster.now().as_micros();
        let done = self.update_segment(via, fh, data.len(), |inode, _| {
            if inode.ftype == FileType::Directory.to_byte() {
                return Err(NfsError::IsDir);
            }
            inode.mtime = now;
            Ok(Some(Edit::WriteAt(offset, data.clone())))
        })?;
        self.attr_after(via, fh, done)
    }

    /// The change rides the per-file update machinery, so the file's ring
    /// lock suffices.
    pub(crate) fn set_file_params(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        params: FileParams,
    ) -> Scoped<()> {
        let (cluster, held) = self.held(fh.seg)?;
        Ok(cluster.set_params_scoped(held, via, fh.seg, params)?)
    }
}

/// The operations as code holding `&mut DeceitFs` — the whole cell —
/// calls them.
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
        at_cell(Scope::Cell(self).setattr(via, fh, mode, uid, gid, size))
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
        at_cell(Scope::Cell(self).write_bytes(via, fh, offset, data))
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
        at_cell(Scope::Cell(self).set_file_params(via, fh, params))
    }
}
