//! The file-service envelope: NFS operations over segments.
//!
//! Every operation decomposes into segment-server calls (create, delete,
//! read, write, setparam) exactly as §5.2 prescribes, with directory
//! updates protected by the optimistic-concurrency mechanism of §5.1:
//! "The directory is read, and a position is selected … Then, an update
//! is given to the segment server with the version pair returned by the
//! original read. If a version pair conflict occurs, the whole operation
//! is restarted."
//!
//! A segment's *image* is an inode header followed by the payload clients
//! see, held as the segment server holds it: a [`SegmentData`] extent
//! list. The plumbing here never flattens it. A load takes the image by
//! reference and decodes the inode from its first extent; `READ` answers
//! with a view of the extent its range lies in; and a mutation builds its
//! successor (`segment_image`) as one fresh header extent plus the old
//! payload's extents, sharing every one the edit does not touch and
//! adopting a `WRITE`'s buffer as the one it does. One whole-image
//! `Replace` per mutation still goes to the segment server — the same
//! update record, the same (full-length) wire and disk accounting — but
//! building it costs what the mutation writes, not what the file holds.
//!
//! This module holds the envelope's shared types and the segment image
//! codec. Every operation is written once against what its caller holds
//! — see [`crate::scope`], which also has the segment plumbing — and
//! grouped by how it interacts with engine state, the classification a
//! concurrent host dispatches on (see [`deceit_core::OpClass`]):
//!
//! * [`crate::ops_read`] — operations that only inspect segments;
//! * [`crate::ops_file`] — single-file mutations;
//! * [`crate::ops_dir`] — namespace (directory / cross-file) mutations.

use bytes::Bytes;

use deceit_core::{
    Cluster, ClusterConfig, DeceitError, FileParams, OpResult, SegmentData, VersionPair, WriteOp,
    MAX_SEGMENT,
};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::Directory;
use crate::handle::FileHandle;
use crate::inode::{CodecError, Inode};
use crate::name::NameError;

/// File types the envelope stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
}

impl FileType {
    /// The byte stored in inode headers and directory entries.
    pub fn to_byte(self) -> u8 {
        match self {
            FileType::Regular => 0,
            FileType::Directory => 1,
            FileType::Symlink => 2,
        }
    }

    /// Decodes the byte form.
    pub fn from_byte(b: u8) -> Option<FileType> {
        match b {
            0 => Some(FileType::Regular),
            1 => Some(FileType::Directory),
            2 => Some(FileType::Symlink),
            _ => None,
        }
    }
}

/// NFS-visible attributes of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileAttr {
    /// The handle the attributes describe.
    pub handle: FileHandle,
    /// File type.
    pub ftype: FileType,
    /// Permission bits.
    pub mode: u32,
    /// Hard-link count (the hint; exact after GC correction).
    pub nlink: u32,
    /// Owner and group.
    pub uid: u32,
    /// Group id.
    pub gid: u32,
    /// Size of the client-visible contents in bytes.
    pub size: usize,
    /// The Deceit version pair — doubles as NFS's change attribute.
    pub version: VersionPair,
    /// Modification time (simulated microseconds).
    pub mtime: u64,
    /// Attribute-change time (simulated microseconds).
    pub ctime: u64,
}

/// Envelope errors (the NFS error surface plus codec/transport causes).
#[derive(Debug, Clone, PartialEq)]
pub enum NfsError {
    /// ENOENT.
    NotFound,
    /// EEXIST.
    Exists,
    /// ENOTDIR.
    NotDir,
    /// EISDIR.
    IsDir,
    /// ENOTEMPTY.
    NotEmpty,
    /// ESTALE — the handle no longer names a live file.
    Stale,
    /// EACCES — the caller's credentials do not permit the operation.
    Access,
    /// EFBIG — the write or size would grow the file past what one
    /// segment holds.
    TooBig,
    /// Invalid component name.
    Name(NameError),
    /// The directory update kept conflicting (heavy write sharing —
    /// "very rare" per §2.3 — exhausted the restart budget).
    Busy,
    /// Underlying segment-server failure.
    Io(DeceitError),
    /// A segment the envelope expected to be formatted was not.
    Corrupt(CodecError),
}

impl std::fmt::Display for NfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NfsError::NotFound => write!(f, "no such file or directory"),
            NfsError::Exists => write!(f, "file exists"),
            NfsError::NotDir => write!(f, "not a directory"),
            NfsError::IsDir => write!(f, "is a directory"),
            NfsError::NotEmpty => write!(f, "directory not empty"),
            NfsError::Stale => write!(f, "stale file handle"),
            NfsError::Access => write!(f, "permission denied"),
            NfsError::TooBig => write!(f, "file too large"),
            NfsError::Name(e) => write!(f, "{e}"),
            NfsError::Busy => write!(f, "directory update conflicted repeatedly"),
            NfsError::Io(e) => write!(f, "segment server: {e}"),
            NfsError::Corrupt(e) => write!(f, "corrupt segment: {e}"),
        }
    }
}

impl std::error::Error for NfsError {}

impl From<DeceitError> for NfsError {
    fn from(e: DeceitError) -> Self {
        match e {
            DeceitError::NoSuchSegment(_) | DeceitError::NoSuchVersion(_, _) => NfsError::Stale,
            DeceitError::SegmentTooBig(_) => NfsError::TooBig,
            other => NfsError::Io(other),
        }
    }
}

impl From<NameError> for NfsError {
    fn from(e: NameError) -> Self {
        NfsError::Name(e)
    }
}

impl From<CodecError> for NfsError {
    fn from(e: CodecError) -> Self {
        NfsError::Corrupt(e)
    }
}

/// Result alias: every envelope operation reports its latency.
pub type NfsResult<T> = Result<OpResult<T>, NfsError>;

/// Envelope configuration.
#[derive(Debug, Clone, Default)]
pub struct FsConfig {
    /// Parameters applied to the root directory (administrators replicate
    /// "all important system directories", §6.1).
    pub root_params: FileParams,
    /// Parameters applied to newly created directories.
    pub dir_params: FileParams,
    /// Parameters applied to newly created files (§1: "The default
    /// behavior is equivalent to NFS").
    pub file_params: FileParams,
}

/// One Deceit cell's file service.
#[derive(Debug)]
pub struct DeceitFs {
    /// The segment-server cell underneath.
    pub cluster: Cluster,
    cfg: FsConfig,
    root: FileHandle,
}

/// The count the envelope reads a segment with — all of it ("most files
/// are small", §2.3): the longest a segment can be.
pub(crate) const WHOLE_SEGMENT: usize = MAX_SEGMENT;

/// The client-visible part of a loaded segment image — everything after
/// the inode header — still cut into the image's extents.
#[derive(Debug, Default)]
pub(crate) struct Payload {
    image: SegmentData,
    hdr_len: usize,
}

impl Payload {
    /// Payload length: the file size clients see.
    pub(crate) fn len(&self) -> usize {
        self.image.len() - self.hdr_len
    }

    /// The `READ` reply: up to `count` bytes from `offset` — a view of the
    /// stored extent the range lies in, a gather of just the range when
    /// it spans several. Both ends are clamped to the payload, so no
    /// client-chosen `offset`/`count` (not even ones whose sum overflows)
    /// can reach outside it.
    pub(crate) fn read(&self, offset: usize, count: usize) -> Bytes {
        self.image.read(self.hdr_len + offset.min(self.len()), count)
    }

    /// The whole payload as one buffer, for the codecs that need it flat
    /// (directory tables, link targets): a view when it lies in one
    /// extent.
    pub(crate) fn bytes(&self) -> Bytes {
        self.read(0, usize::MAX)
    }
}

/// Splits a segment image at its inode header, decoded in place from the
/// image's first extent (every image [`segment_image`] builds starts
/// with its header as one piece).
pub(crate) fn split_image(image: SegmentData) -> Result<(Inode, Payload), CodecError> {
    let head = image.read(0, image.head().len());
    let decoded = match Inode::decode(&head) {
        // Not one of ours, then: a header cut across extents.
        Err(CodecError::Truncated) if head.len() < image.len() => Inode::decode(&image.contents()),
        decoded => decoded,
    };
    decoded.map(|(inode, hdr_len)| (inode, Payload { image, hdr_len }))
}

/// What a mutation makes of a segment's payload.
pub(crate) enum Edit {
    /// Used as it is (a mutation that changed only the inode keeps the
    /// payload it loaded).
    Keep,
    /// Replaced by a fresh encoding.
    Set(Vec<u8>),
    /// Truncated or zero-extended to this length.
    Resize(usize),
    /// Overwritten from this offset by these bytes — adopted, not copied
    /// — zero-filling any gap before them.
    WriteAt(usize, Bytes),
}

/// Assembles a segment image: a fresh extent for `inode`'s header, then
/// the extents of `old` as changed by `edit` — shared wherever the edit
/// does not reach, so a mutation costs what it writes, not the file.
/// Refuses images longer than [`MAX_SEGMENT`] before allocating anything
/// for them.
pub(crate) fn segment_image(
    inode: &Inode,
    old: &Payload,
    edit: Edit,
) -> Result<SegmentData, NfsError> {
    let mut image = old.image.rewrite();
    image.skip(old.hdr_len);
    image.push_with(inode.encoded_len(), |buf| inode.encode_into(buf));
    match edit {
        Edit::Keep => image.keep(usize::MAX),
        Edit::Set(new) => image.push(new.into()),
        Edit::Resize(len) => image.keep_padded(len),
        Edit::WriteAt(offset, data) => {
            image.keep_padded(offset);
            image.skip(data.len());
            image.push(data);
            image.keep(usize::MAX);
        }
    }
    image.finish().ok_or(NfsError::TooBig)
}

/// Creates and formats the root directory of a fresh cell.
fn format_root(cluster: &mut Cluster, cfg: &FsConfig) -> Result<FileHandle, NfsError> {
    let via = NodeId(0);
    let root_seg = cluster.create_with_params(via, cfg.root_params)?.value;
    let mut inode = Inode::new(FileType::Directory.to_byte(), 0o755, cluster.now().as_micros());
    inode.nlink = 1;
    let image = segment_image(&inode, &Payload::default(), Edit::Set(Directory::new().encode()))?;
    cluster.write(via, root_seg, WriteOp::Replace(image), None)?;
    Ok(FileHandle::new(root_seg))
}

/// Assembles the NFS-visible attributes of a loaded segment.
pub(crate) fn attr_from(
    fh: FileHandle,
    inode: &Inode,
    payload_len: usize,
    version: VersionPair,
) -> FileAttr {
    FileAttr {
        handle: fh,
        ftype: FileType::from_byte(inode.ftype).unwrap_or(FileType::Regular),
        mode: inode.mode,
        nlink: inode.nlink,
        uid: inode.uid,
        gid: inode.gid,
        size: payload_len,
        version,
        mtime: inode.mtime,
        ctime: inode.ctime,
    }
}

impl DeceitFs {
    /// Builds a file service over `servers` Deceit servers and creates the
    /// root directory (via server 0).
    pub fn new(servers: usize, cluster_cfg: ClusterConfig, cfg: FsConfig) -> Self {
        let mut cluster = Cluster::new(servers, cluster_cfg);
        #[expect(
            clippy::expect_used,
            reason = "a fresh cell has every server up and nothing stored, so creating and formatting one empty directory cannot fail; `new` has no error channel"
        )]
        let root =
            format_root(&mut cluster, &cfg).expect("root creation cannot fail on a fresh cell");
        cluster.run_until_quiet();
        DeceitFs { cluster, cfg, root }
    }

    /// A file service with default configs — the common test fixture.
    pub fn with_defaults(servers: usize) -> Self {
        DeceitFs::new(servers, ClusterConfig::deterministic(), FsConfig::default())
    }

    /// The root directory handle (what `mount` returns).
    pub fn root(&self) -> FileHandle {
        self.root
    }

    /// The envelope configuration.
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// Fault-injection support: applies `f` to a segment's inode header in
    /// place, bypassing normal NFS semantics. Used by tests and the bench
    /// harness to reproduce the §5.2 corrupted-link-count scenarios ("the
    /// link counts can be corrupted by an ill timed crash").
    #[doc(hidden)]
    pub fn update_segment_for_test(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        f: impl FnOnce(&mut Inode),
    ) -> Result<SimDuration, NfsError> {
        let mut f = Some(f);
        self.update_segment(via, fh, crate::scope::ATTR_ARGS, |inode, _| {
            if let Some(f) = f.take() {
                f(inode);
            }
            Ok(Some(Edit::Keep))
        })
    }
}
