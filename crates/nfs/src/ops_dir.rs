//! Namespace operations (`OpClass::Mutate` on the directory, or
//! `OpClass::CrossShard` when two statically-known files are touched):
//! they rewrite directory segments and the link metadata of the files
//! they name. What each one touches decides what its caller must hold.
//!
//! `link` names both files it rewrites in the request, so their two ring
//! locks cover its footprint: it is written against a [`Scope`] like the
//! single-file mutations. The rest reach a segment the request does not
//! declare, so they take `&mut DeceitFs` — the whole cell:
//!
//! * `create` / `mkdir` / `symlink` — a *newborn* segment. No other
//!   request can address it yet, but its deferred protocol work lands in
//!   its own slot's queue, which a concurrent host's pump drains under a
//!   ring lock the creator does not hold.
//! * `remove` / `rmdir` — a victim resolved *by name* during execution.
//! * `rename` — the moved file's inode, a third segment.
//! * `name;N` forms — another file's versions.

use deceit_core::OpResult;
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::{DirEntry, Directory};
use crate::fs::{segment_image, DeceitFs, Edit, FileAttr, FileType, NfsError, NfsResult, Payload};
use crate::gc;
use crate::handle::FileHandle;
use crate::inode::Inode;
use crate::name::{NameError, QualifiedName};
use crate::scope::{at_cell, Scope, Scoped, ATTR_ARGS};

impl Scope<'_> {
    /// The body of [`DeceitFs::link`].
    pub(crate) fn link(
        &mut self,
        via: NodeId,
        target: FileHandle,
        dir: FileHandle,
        name: &str,
    ) -> Scoped<()> {
        let q = QualifiedName::parse(name)?;
        if q.version.is_some() {
            let why = "hard links cannot be version-qualified".to_string();
            return Err(NameError::BadVersion(why).into());
        }
        let now = self.fs().cluster.now().as_micros();
        let (tnode, _, _, mut latency) = self.load(via, target)?;
        if tnode.ftype == FileType::Directory.to_byte() {
            return Err(NfsError::IsDir.into());
        }
        // §5.2: "When a hard link is made to f in directory d, d is added
        // to the uplink list of all versions of f which can be updated at
        // that time" — updates flow to the current version. Count first,
        // insert second: in between the count and the uplink list
        // over-approximate, the direction the uplink check tolerates.
        let dir_seg = dir.seg;
        let mut new_uplink = false;
        let bumped = self.update_segment(via, target, ATTR_ARGS, |inode, _| {
            inode.nlink += 1;
            new_uplink = inode.add_uplink(dir_seg);
            inode.ctime = now;
            Ok(Some(Edit::Keep))
        })?;
        latency += bumped.latency;
        let entry =
            DirEntry { name: q.base.clone(), handle: target.unpinned(), ftype: tnode.ftype };
        let inserted = self.update_segment(via, dir, entry.wire_size(), |dnode, dpayload| {
            if dnode.ftype != FileType::Directory.to_byte() {
                return Err(NfsError::NotDir);
            }
            let mut t = Directory::decode(&dpayload.bytes())?;
            if !t.insert(entry.clone()) {
                return Err(NfsError::Exists);
            }
            dnode.mtime = now;
            Ok(Some(Edit::Set(t.encode())))
        });
        match inserted {
            Ok(done) => Ok(OpResult { value: (), latency: latency + done.latency }),
            Err(refused) => {
                // The directory took no entry: take the count back, so a
                // later `REMOVE` still reaches zero (as `create` rolls
                // back its orphan segment).
                let _ = self.update_segment(via, target, ATTR_ARGS, |inode, _| {
                    inode.nlink = inode.nlink.saturating_sub(1);
                    if new_uplink {
                        inode.remove_uplink(dir_seg);
                    }
                    Ok(Some(Edit::Keep))
                });
                Err(refused)
            }
        }
    }
}

impl DeceitFs {
    /// `CREATE`: a new regular file.
    pub fn create(
        &mut self,
        via: NodeId,
        dir: FileHandle,
        name: &str,
        mode: u32,
    ) -> NfsResult<FileAttr> {
        let params = self.config().file_params;
        self.create_node(via, dir, name, mode, FileType::Regular, Vec::new(), params)
    }

    /// `MKDIR`.
    pub fn mkdir(
        &mut self,
        via: NodeId,
        dir: FileHandle,
        name: &str,
        mode: u32,
    ) -> NfsResult<FileAttr> {
        let payload = Directory::new().encode();
        let params = self.config().dir_params;
        self.create_node(via, dir, name, mode, FileType::Directory, payload, params)
    }

    /// `SYMLINK`.
    pub fn symlink(
        &mut self,
        via: NodeId,
        dir: FileHandle,
        name: &str,
        target: &str,
    ) -> NfsResult<FileAttr> {
        let params = self.config().file_params;
        self.create_node(via, dir, name, 0o777, FileType::Symlink, target.into(), params)
    }

    #[expect(clippy::too_many_arguments, reason = "mirrors the NFS CREATE surface")]
    fn create_node(
        &mut self,
        via: NodeId,
        dir: FileHandle,
        name: &str,
        mode: u32,
        ftype: FileType,
        payload: Vec<u8>,
        params: deceit_core::FileParams,
    ) -> NfsResult<FileAttr> {
        let q = QualifiedName::parse(name)?;
        if q.version.is_some() {
            return self.create_qualified_version(via, dir, &q);
        }
        let mut latency = SimDuration::ZERO;

        // Check for an existing entry first (cheap read).
        let (_, table, _, l0) = self.load_dir(via, dir)?;
        latency += l0;
        if table.get(&q.base).is_some() {
            return Err(NfsError::Exists);
        }

        // Create and format the new segment.
        let created = self.cluster.create_with_params(via, params)?;
        latency += created.latency;
        let seg = created.value;
        let fh = FileHandle::new(seg);
        let now = self.cluster.now().as_micros();
        let mut inode = Inode::new(ftype.to_byte(), mode, now);
        inode.nlink = 1;
        inode.add_uplink(dir.seg);
        let image = segment_image(&inode, &Payload::default(), Edit::Set(payload))?;
        let (_, l1) = at_cell(Scope::Cell(self).store(via, fh, image, None))?;
        latency += l1;

        // Add the directory entry under the §5.1 restart loop.
        let entry = DirEntry { name: q.base.clone(), handle: fh, ftype: ftype.to_byte() };
        let insert_res = self.update_segment(via, dir, entry.wire_size(), |dnode, dpayload| {
            if dnode.ftype != FileType::Directory.to_byte() {
                return Err(NfsError::NotDir);
            }
            let mut table = Directory::decode(&dpayload.bytes())?;
            if !table.insert(entry.clone()) {
                return Err(NfsError::Exists);
            }
            dnode.mtime = now;
            Ok(Some(Edit::Set(table.encode())))
        });
        match insert_res {
            Ok(l2) => latency += l2,
            Err(e) => {
                // Roll the orphan segment back before surfacing the error.
                let _ = self.cluster.delete(via, seg);
                return Err(e);
            }
        }
        let mut out = self.getattr(via, fh)?;
        out.latency += latency;
        Ok(out)
    }

    /// Creating `name;N` for an existing file materializes a new explicit
    /// version of its segment (§3.5 "specific versions can be created").
    fn create_qualified_version(
        &mut self,
        via: NodeId,
        dir: FileHandle,
        q: &QualifiedName,
    ) -> NfsResult<FileAttr> {
        let (_, table, _, mut latency) = self.load_dir(via, dir)?;
        let entry = table.get(&q.base).ok_or(NfsError::NotFound)?;
        let seg = entry.handle.seg;
        let created = self.cluster.create_version(via, seg)?;
        latency += created.latency;
        let mut out = self.getattr(via, FileHandle::versioned(seg, created.value))?;
        out.latency += latency;
        Ok(out)
    }

    /// `REMOVE`: unlinks a file or symlink from a directory.
    pub fn remove(&mut self, via: NodeId, dir: FileHandle, name: &str) -> NfsResult<()> {
        let q = QualifiedName::parse(name)?;
        if let Some(major) = q.version {
            // Deleting a qualified name deletes that version only (§3.5).
            let (_, table, _, l) = self.load_dir(via, dir)?;
            let entry = table.get(&q.base).ok_or(NfsError::NotFound)?;
            let seg = entry.handle.seg;
            let r = self.cluster.delete_version(via, seg, major)?;
            return Ok(OpResult { value: (), latency: l + r.latency });
        }
        let mut latency = SimDuration::ZERO;
        let now = self.cluster.now().as_micros();

        // Find and type-check the victim.
        let (_, table, _, l0) = self.load_dir(via, dir)?;
        latency += l0;
        let entry = table.get(&q.base).ok_or(NfsError::NotFound)?.clone();
        if entry.ftype == FileType::Directory.to_byte() {
            return Err(NfsError::IsDir);
        }

        // Drop the directory entry (restart loop).
        latency += self.update_segment(via, dir, entry.wire_size(), |dnode, dpayload| {
            let mut t = Directory::decode(&dpayload.bytes())?;
            if t.remove(&q.base).is_none() {
                return Err(NfsError::NotFound);
            }
            dnode.mtime = now;
            Ok(Some(Edit::Set(t.encode())))
        })?;

        // Decrement the link-count hint; on zero run the uplink check.
        let target = entry.handle;
        let dir_seg = dir.seg;
        let mut went_zero = false;
        latency += self.update_segment(via, target, ATTR_ARGS, |inode, _| {
            inode.nlink = inode.nlink.saturating_sub(1);
            inode.ctime = now;
            // The uplink stays if other links from this directory remain;
            // the GC scan re-derives the truth anyway (§5.2).
            if inode.nlink == 0 {
                went_zero = true;
            } else {
                inode.remove_uplink(dir_seg);
            }
            Ok(Some(Edit::Keep))
        })?;
        if went_zero {
            latency += gc::collect_if_unlinked(self, via, target)?;
        }
        Ok(OpResult { value: (), latency })
    }

    /// `RMDIR`: removes an empty directory.
    pub fn rmdir(&mut self, via: NodeId, dir: FileHandle, name: &str) -> NfsResult<()> {
        let q = QualifiedName::parse(name)?;
        let mut latency = SimDuration::ZERO;
        let (_, table, _, l0) = self.load_dir(via, dir)?;
        latency += l0;
        let entry = table.get(&q.base).ok_or(NfsError::NotFound)?.clone();
        if entry.ftype != FileType::Directory.to_byte() {
            return Err(NfsError::NotDir);
        }
        let (_, victim_table, _, l1) = self.load_dir(via, entry.handle)?;
        latency += l1;
        if !victim_table.is_empty() {
            return Err(NfsError::NotEmpty);
        }
        let now = self.cluster.now().as_micros();
        latency += self.update_segment(via, dir, entry.wire_size(), |dnode, dpayload| {
            let mut t = Directory::decode(&dpayload.bytes())?;
            if t.remove(&q.base).is_none() {
                return Err(NfsError::NotFound);
            }
            dnode.mtime = now;
            Ok(Some(Edit::Set(t.encode())))
        })?;
        let del = self.cluster.delete(via, entry.handle.seg)?;
        latency += del.latency;
        Ok(OpResult { value: (), latency })
    }

    /// `RENAME`: moves an entry, possibly across directories.
    ///
    /// §5.2's ordering concern ("two directories, a link count, and an
    /// uplink list must be modified in some safe order") is realized as:
    /// add the new uplink, insert the new entry, remove the old entry,
    /// drop the old uplink — at every intermediate step the uplink list
    /// over-approximates, which GC tolerates.
    pub fn rename(
        &mut self,
        via: NodeId,
        from_dir: FileHandle,
        from_name: &str,
        to_dir: FileHandle,
        to_name: &str,
    ) -> NfsResult<()> {
        let qf = QualifiedName::parse(from_name)?;
        let qt = QualifiedName::parse(to_name)?;
        let mut latency = SimDuration::ZERO;
        let now = self.cluster.now().as_micros();

        let (_, ftable, _, l0) = self.load_dir(via, from_dir)?;
        latency += l0;
        let entry = ftable.get(&qf.base).ok_or(NfsError::NotFound)?.clone();
        let target = entry.handle;

        // 1. Uplink to the destination directory.
        let to_seg = to_dir.seg;
        latency += self.update_segment(via, target, ATTR_ARGS, |inode, _| {
            inode.add_uplink(to_seg);
            inode.ctime = now;
            Ok(Some(Edit::Keep))
        })?;

        // 2. Entry in the destination (replacing any existing target
        // entry, per POSIX rename).
        let new_entry = DirEntry { name: qt.base.clone(), handle: target, ftype: entry.ftype };
        latency += self.update_segment(via, to_dir, new_entry.wire_size(), |dnode, dpayload| {
            if dnode.ftype != FileType::Directory.to_byte() {
                return Err(NfsError::NotDir);
            }
            let mut t = Directory::decode(&dpayload.bytes())?;
            t.remove(&qt.base);
            t.insert(new_entry.clone());
            dnode.mtime = now;
            Ok(Some(Edit::Set(t.encode())))
        })?;

        // 3. Remove the source entry.
        latency += self.update_segment(via, from_dir, entry.wire_size(), |dnode, dpayload| {
            let mut t = Directory::decode(&dpayload.bytes())?;
            if t.remove(&qf.base).is_none() {
                return Err(NfsError::NotFound);
            }
            dnode.mtime = now;
            Ok(Some(Edit::Set(t.encode())))
        })?;

        // 4. Drop the stale uplink (unless it was a same-directory rename).
        if from_dir.seg != to_dir.seg {
            let from_seg = from_dir.seg;
            latency += self.update_segment(via, target, ATTR_ARGS, |inode, _| {
                inode.remove_uplink(from_seg);
                Ok(Some(Edit::Keep))
            })?;
        }
        Ok(OpResult { value: (), latency })
    }

    /// `LINK`: a new hard link to an existing file.
    pub fn link(
        &mut self,
        via: NodeId,
        target: FileHandle,
        dir: FileHandle,
        name: &str,
    ) -> NfsResult<()> {
        at_cell(Scope::Cell(self).link(via, target, dir, name))
    }
}
