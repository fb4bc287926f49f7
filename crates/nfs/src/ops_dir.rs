//! Namespace entry points (`OpClass::Mutate` on the directory, or
//! `OpClass::CrossShard` when two statically-known files are touched).
//!
//! These operations rewrite directory segments and the link metadata of
//! the files they name. What each one touches:
//!
//! * `create` / `mkdir` / `symlink` — the parent directory plus a
//!   *newborn* segment nobody else can address yet: classified
//!   `Mutate(dir)`.
//! * `remove` / `rmdir` — the parent directory plus the victim resolved
//!   *by name* during execution; the victim is not statically known, so
//!   the class declares the directory and the host's exclusive cell
//!   lock covers the resolved segment.
//! * `rename` — both directories are in the request: `CrossShard`.
//! * `link` — the target handle and the directory are both in the
//!   request: `CrossShard`.

use deceit_core::OpResult;
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::{DirEntry, Directory};
use crate::fs::{segment_image, DeceitFs, Edit, FileAttr, FileType, NfsError, NfsResult, Payload};
use crate::gc;
use crate::handle::FileHandle;
use crate::inode::Inode;
use crate::name::QualifiedName;

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

    #[allow(clippy::too_many_arguments)] // mirrors the NFS CREATE surface
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
        let (_, l1) = self.store(via, fh, image, None)?;
        latency += l1;

        // Add the directory entry under the §5.1 restart loop.
        let entry = DirEntry { name: q.base.clone(), handle: fh, ftype: ftype.to_byte() };
        let insert_res = self.update_segment(via, dir, |dnode, dpayload| {
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

    // ------------------------------------------------------------------
    // Sharded-path twins (`&self` + held ring locks)
    //
    // Only `link` qualifies: both files it rewrites are named in the
    // request, so the class's ring locks cover the whole footprint.
    // Creations do NOT — the newborn segment is unaddressable to other
    // *requests* until published, but its deferred protocol work
    // (stabilize checks, flushes, replica fills) lands in the newborn's
    // own slot queue, which the pump drains under that slot's ring lock
    // — a lock the creator does not hold. Creations therefore run on
    // the exclusive path, where the pump is excluded by the cell lock.
    // ------------------------------------------------------------------

    /// Sharded-path `LINK`: both the target and the directory are named
    /// in the request, so the class's two ring locks cover the whole
    /// footprint.
    pub fn link_sharded(
        &self,
        slots: &[usize],
        via: NodeId,
        target: FileHandle,
        dir: FileHandle,
        name: &str,
    ) -> NfsResult<()> {
        let q = QualifiedName::parse(name)?;
        if q.version.is_some() {
            return Err(NfsError::Name(crate::name::NameError::BadVersion(
                "hard links cannot be version-qualified".to_string(),
            )));
        }
        let mut latency = SimDuration::ZERO;
        let now = self.cluster.now().as_micros();
        let (tnode, _, _, l0) = self.load_sharded(slots, via, target)?;
        latency += l0;
        if tnode.ftype == FileType::Directory.to_byte() {
            return Err(NfsError::IsDir);
        }
        let dir_seg = dir.seg;
        latency += self
            .update_segment_sharded(slots, via, target, |inode, _| {
                inode.nlink += 1;
                inode.add_uplink(dir_seg);
                inode.ctime = now;
                Ok(Some(Edit::Keep))
            })?
            .3;
        let entry =
            DirEntry { name: q.base.clone(), handle: target.unpinned(), ftype: tnode.ftype };
        latency += self
            .update_segment_sharded(slots, via, dir, |dnode, dpayload| {
                if dnode.ftype != FileType::Directory.to_byte() {
                    return Err(NfsError::NotDir);
                }
                let mut t = Directory::decode(&dpayload.bytes())?;
                if !t.insert(entry.clone()) {
                    return Err(NfsError::Exists);
                }
                dnode.mtime = now;
                Ok(Some(Edit::Set(t.encode())))
            })?
            .3;
        Ok(OpResult { value: (), latency })
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
        latency += self.update_segment(via, dir, |dnode, dpayload| {
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
        latency += self.update_segment(via, target, |inode, _| {
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
        latency += self.update_segment(via, dir, |dnode, dpayload| {
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
        latency += self.update_segment(via, target, |inode, _| {
            inode.add_uplink(to_seg);
            inode.ctime = now;
            Ok(Some(Edit::Keep))
        })?;

        // 2. Entry in the destination (replacing any existing target
        // entry, per POSIX rename).
        let new_entry = DirEntry { name: qt.base.clone(), handle: target, ftype: entry.ftype };
        latency += self.update_segment(via, to_dir, |dnode, dpayload| {
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
        latency += self.update_segment(via, from_dir, |dnode, dpayload| {
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
            latency += self.update_segment(via, target, |inode, _| {
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
        let q = QualifiedName::parse(name)?;
        if q.version.is_some() {
            return Err(NfsError::Name(crate::name::NameError::BadVersion(
                "hard links cannot be version-qualified".to_string(),
            )));
        }
        let mut latency = SimDuration::ZERO;
        let now = self.cluster.now().as_micros();
        let (tnode, _, _, l0) = self.load(via, target)?;
        latency += l0;
        if tnode.ftype == FileType::Directory.to_byte() {
            return Err(NfsError::IsDir);
        }
        // §5.2: "When a hard link is made to f in directory d, d is added
        // to the uplink list of all versions of f which can be updated at
        // that time" — updates flow to the current version.
        let dir_seg = dir.seg;
        latency += self.update_segment(via, target, |inode, _| {
            inode.nlink += 1;
            inode.add_uplink(dir_seg);
            inode.ctime = now;
            Ok(Some(Edit::Keep))
        })?;
        let entry =
            DirEntry { name: q.base.clone(), handle: target.unpinned(), ftype: tnode.ftype };
        latency += self.update_segment(via, dir, |dnode, dpayload| {
            if dnode.ftype != FileType::Directory.to_byte() {
                return Err(NfsError::NotDir);
            }
            let mut t = Directory::decode(&dpayload.bytes())?;
            if !t.insert(entry.clone()) {
                return Err(NfsError::Exists);
            }
            dnode.mtime = now;
            Ok(Some(Edit::Set(t.encode())))
        })?;
        Ok(OpResult { value: (), latency })
    }
}
