//! What the caller holds, and the segment plumbing written once against
//! it.
//!
//! A host serves a request holding the shared cell lock alone, that plus
//! the ring locks of some shard slots, or the whole cell; [`Scope`] names
//! which. Every envelope operation is written once against a scope, and
//! only this module asks which level it is: `Scope::load` knows how
//! each level obtains a segment, `Scope::held` names what is held to
//! the segment server for whatever runs the full protocol there,
//! `Scope::attr_after` assembles a mutation's attribute reply, and
//! `Scope::cell` is how an operation that needs the whole cell says so.
//! An operation whose footprint reaches past what is held stops with
//! `Stop::Escape` — nothing has been changed — and the host retries it
//! holding more.

use deceit_core::{
    Cluster, DeceitError, Held, OpResult, ReadData, SegmentData, SegmentId, VersionPair, WriteOp,
};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::Directory;
use crate::fs::{
    attr_from, segment_image, split_image, DeceitFs, Edit, FileAttr, FileType, NfsError, Payload,
    WHOLE_SEGMENT,
};
use crate::handle::FileHandle;
use crate::inode::Inode;

/// Restart budget for conflicting directory updates (§5.1).
const OCC_RETRIES: u32 = 8;

/// An update's fixed part on the wire, as core's `WriteOp::wire_size`
/// counts it.
const UPDATE_HEADER: usize = 16;

/// What an attribute update carries: `SETATTR`'s arguments (mode, uid
/// and gid, 4 bytes each, and a size, 8), which also bound a link count
/// or uplink change.
pub(crate) const ATTR_ARGS: usize = 20;

/// What the caller of an envelope operation holds.
///
/// `Cell` carries the `&mut`: the whole cell cannot be claimed from a
/// shared borrow, so an operation that runs the unrestricted protocol
/// has the same type-level proof of exclusivity `Cluster::read(&mut
/// self)` asks for.
///
/// ```compile_fail,E0308
/// fn whole_cell_from_a_shared_borrow(fs: &deceit_nfs::DeceitFs) -> deceit_nfs::Scope<'_> {
///     deceit_nfs::Scope::Cell(fs)
/// }
/// ```
#[derive(Debug)]
pub enum Scope<'a> {
    /// The shared cell lock only: segments are answered from
    /// single-acquisition snapshots of what the serving server holds
    /// locally or, mid-stream, of the token holder's leased replica, or
    /// not at all.
    Snapshot(&'a DeceitFs),
    /// The shared cell lock plus the ring locks of these shard slots: the
    /// full protocol may run on segments in them, firing only their
    /// deferred work.
    Ring(&'a DeceitFs, &'a [usize]),
    /// The whole cell.
    Cell(&'a mut DeceitFs),
}

/// Why an operation stopped short of a result.
#[derive(Debug)]
pub(crate) enum Stop {
    /// Its footprint escapes what the caller holds: retry holding more.
    Escape,
    /// It failed, and would fail the same way at any level.
    Err(NfsError),
}

impl<E: Into<NfsError>> From<E> for Stop {
    fn from(e: E) -> Self {
        Stop::Err(e.into())
    }
}

/// What an operation written against a [`Scope`] returns.
pub(crate) type Scoped<T> = Result<OpResult<T>, Stop>;

/// The error for an escape from the whole cell: a bug in an operation
/// (nothing is wider), reported rather than panicked on.
pub(crate) fn escaped_cell() -> NfsError {
    debug_assert!(false, "an operation escaped the whole cell");
    NfsError::Io(DeceitError::InvalidCommand("operation escaped the whole cell".to_string()))
}

/// Ends an operation that ran holding the whole cell.
pub(crate) fn at_cell<T>(res: Result<T, Stop>) -> Result<T, NfsError> {
    res.map_err(|stop| match stop {
        Stop::Err(e) => e,
        Stop::Escape => escaped_cell(),
    })
}

/// A loaded segment: (inode, payload, version, latency).
pub(crate) type Loaded = (Inode, Payload, VersionPair, SimDuration);

/// Splits a read of a whole segment into what [`Loaded`] names.
fn split_read(read: OpResult<ReadData>) -> Result<Loaded, Stop> {
    let (inode, payload) = split_image(read.value.image)?;
    Ok((inode, payload, read.value.version, read.latency))
}

/// A segment as [`Scope::update_segment`] left it: the inode and payload
/// length just written (or just loaded, when the mutation declined), the
/// resulting version pair, and the time spent.
pub(crate) struct Updated {
    pub(crate) inode: Inode,
    pub(crate) len: usize,
    pub(crate) version: VersionPair,
    pub(crate) latency: SimDuration,
}

impl Scope<'_> {
    /// The file service, whatever is held of it.
    pub(crate) fn fs(&self) -> &DeceitFs {
        match self {
            Scope::Snapshot(fs) | Scope::Ring(fs, _) => fs,
            Scope::Cell(fs) => fs,
        }
    }

    /// The whole cell, for operations whose footprint is not in the
    /// request — a newborn segment, a victim resolved by name, another
    /// file's versions, a cell-wide search. Anything less escapes.
    pub(crate) fn cell(&mut self) -> Result<&mut DeceitFs, Stop> {
        match self {
            Scope::Cell(fs) => Ok(fs),
            Scope::Snapshot(_) | Scope::Ring(..) => Err(Stop::Escape),
        }
    }

    /// The segment server, with its name for what is held — provided
    /// that covers `seg`, so the full protocol may run on it.
    pub(crate) fn held(&mut self, seg: SegmentId) -> Result<(&Cluster, Held<'_>), Stop> {
        let (cluster, held) = match self {
            Scope::Snapshot(_) => return Err(Stop::Escape),
            Scope::Ring(fs, slots) => (&fs.cluster, Held::slots(slots)),
            Scope::Cell(fs) => fs.cluster.whole(),
        };
        if held.covers(cluster.slot_of(seg)) {
            Ok((cluster, held))
        } else {
            Err(Stop::Escape)
        }
    }

    /// Reads a whole segment — its image, by reference — and splits it
    /// into (inode, payload, version).
    pub(crate) fn load(&mut self, via: NodeId, fh: FileHandle) -> Result<Loaded, Stop> {
        self.fetch(via, fh, false)
    }

    /// How each level obtains a segment. `own_write` marks the load half
    /// of a mutation's own read-modify-write.
    fn fetch(&mut self, via: NodeId, fh: FileHandle, own_write: bool) -> Result<Loaded, Stop> {
        let (seg, major) = (fh.seg, fh.version);
        let cluster = &self.fs().cluster;
        let local = || cluster.try_read_local(via, seg, major, 0, WHOLE_SEGMENT);
        let lean = match self {
            // A stable local replica (or the token holder's read lease,
            // read here or forwarded to), as one single-acquisition
            // snapshot.
            Scope::Snapshot(_) => local(),
            // The same — then the token holder's primary copy, the steady
            // state of a write stream. A mutation at the holder reads it
            // as the write's own: no LRU touch for its store to fold and
            // then overwrite.
            Scope::Ring(..) => own_write
                .then(|| cluster.load_primary(via, seg, major))
                .flatten()
                .or_else(local)
                .or_else(|| cluster.try_read_primary(via, seg, major, 0, WHOLE_SEGMENT)),
            // Not tried: the lean paths skip part of the full protocol's
            // accounting (its deferred work, statistics, and for a local
            // answer the clock), and holding the
            // whole cell is how the simulator runs — every count and
            // latency it reports stays what the paper's protocol charges.
            Scope::Cell(_) => None,
        };
        let read = match lean {
            Some(read) => read,
            // The full protocol, if what is held covers the segment — a
            // `LOOKUP`'s child usually lives in a slot it does not.
            None => {
                let (cluster, held) = self.held(seg)?;
                cluster.read_scoped(held, via, seg, major, 0, WHOLE_SEGMENT)?
            }
        };
        split_read(read)
    }

    /// Writes a whole segment image (see [`segment_image`]) conditionally
    /// on `expected`; every replica adopts its extents as they are.
    pub(crate) fn store(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        image: SegmentData,
        expected: Option<VersionPair>,
    ) -> Result<(VersionPair, SimDuration), Stop> {
        let (cluster, held) = self.held(fh.seg)?;
        let w = cluster.write_scoped(held, via, fh.seg, WriteOp::Replace(image), expected)?;
        Ok((w.value, w.latency))
    }

    /// Runs a read-modify-write on a segment with the §5.1 restart loop.
    /// `mutate` returns `Ok(Some(edit))` to write the inode and the
    /// payload so edited, `Ok(None)` to leave the segment untouched.
    /// `carries` is the size of what the update changes — a `WRITE`'s
    /// data, a `SETATTR`'s arguments ([`ATTR_ARGS`]), a directory entry —
    /// which, behind the update header, §3.3's forward compares with
    /// `ClusterConfig::forward_small_threshold`.
    ///
    /// Where the mutation applies is decided before anything is loaded.
    /// On the ring rung the token holder's own load comes first, so a
    /// stream of writes at the holder pays nothing for the decision.
    /// Otherwise core decides ([`Cluster::forward_update`]): a small
    /// update from a replica holder without the token is forwarded, and
    /// the mutation loads the holder's primary copy and stores via the
    /// holder — never a read-modify-write of `via`'s own replica, which
    /// may lag the primary (write-behind, or unstable mid-stream).
    pub(crate) fn update_segment(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        carries: usize,
        mut mutate: impl FnMut(&mut Inode, &Payload) -> Result<Option<Edit>, NfsError>,
    ) -> Result<Updated, Stop> {
        // Nothing to load for a caller who could not store.
        self.held(fh.seg)?;
        let primary = match self {
            Scope::Ring(fs, _) => fs.cluster.load_primary(via, fh.seg, fh.version),
            // Holding the whole cell, the full protocol loads.
            Scope::Snapshot(_) | Scope::Cell(_) => None,
        };
        let mut latency = SimDuration::ZERO;
        let (at, mut first) = match primary {
            Some(read) => (via, Some(split_read(read)?)),
            None => {
                let (cluster, held) = self.held(fh.seg)?;
                match cluster.forward_update(held, via, fh.seg, UPDATE_HEADER + carries)? {
                    Some(forward) => {
                        latency += forward.latency;
                        (forward.value, None)
                    }
                    None => (via, Some(self.load(via, fh)?)),
                }
            }
        };
        for attempt in 0..OCC_RETRIES {
            let (mut inode, payload, version, l1) = match first.take() {
                Some(loaded) => loaded,
                None => self.fetch(at, fh, true)?,
            };
            latency += l1;
            let Some(edit) = mutate(&mut inode, &payload)? else {
                return Ok(Updated { inode, len: payload.len(), version, latency });
            };
            let image = segment_image(&inode, &payload, edit)?;
            let len = image.len() - inode.encoded_len();
            match self.store(at, fh, image, Some(version)) {
                Ok((version, l2)) => {
                    return Ok(Updated { inode, len, version, latency: latency + l2 })
                }
                Err(Stop::Err(NfsError::Io(DeceitError::VersionConflict { .. }))) => {
                    // §5.1: "the whole operation is restarted." Restarting
                    // takes real time — back off so asynchronously
                    // propagating updates can land before the re-read (a
                    // zero-time retry against a write-behind replica would
                    // spin on the same stale version). Only deferred work
                    // within what is held fires during the backoff.
                    let backoff = SimDuration::from_millis(10 * (attempt as u64 + 1));
                    let (cluster, held) = self.held(fh.seg)?;
                    cluster.advance_scoped(held, backoff);
                    latency += backoff;
                }
                Err(stop) => return Err(stop),
            }
        }
        Err(NfsError::Busy.into())
    }

    /// Loads a directory segment's entry table.
    pub(crate) fn load_dir(
        &mut self,
        via: NodeId,
        fh: FileHandle,
    ) -> Result<(Inode, Directory, VersionPair, SimDuration), Stop> {
        let (inode, payload, version, latency) = self.load(via, fh)?;
        if inode.ftype != FileType::Directory.to_byte() {
            return Err(NfsError::NotDir.into());
        }
        Ok((inode, Directory::decode(&payload.bytes())?, version, latency))
    }

    /// The attributes a mutation replies with, given how it left the
    /// segment.
    pub(crate) fn attr_after(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        done: Updated,
    ) -> Scoped<FileAttr> {
        match self {
            // The NFS envelope re-reads them, and the paper-faithful
            // simulator charges for it.
            Scope::Cell(_) => {
                let mut out = self.getattr(via, fh)?;
                out.latency += done.latency;
                Ok(out)
            }
            // Under the file's ring lock nothing can have touched it since
            // the store: what was written *is* what a re-read would see.
            Scope::Snapshot(_) | Scope::Ring(..) => Ok(OpResult {
                value: attr_from(fh, &done.inode, done.len, done.version),
                latency: done.latency,
            }),
        }
    }
}

/// The plumbing as the operations that take `&mut DeceitFs` — the whole
/// cell — call it.
impl DeceitFs {
    /// [`Scope::update_segment`]; returns the time spent.
    pub(crate) fn update_segment(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        carries: usize,
        mutate: impl FnMut(&mut Inode, &Payload) -> Result<Option<Edit>, NfsError>,
    ) -> Result<SimDuration, NfsError> {
        at_cell(Scope::Cell(self).update_segment(via, fh, carries, mutate)).map(|done| done.latency)
    }

    /// [`Scope::load_dir`].
    pub(crate) fn load_dir(
        &mut self,
        via: NodeId,
        fh: FileHandle,
    ) -> Result<(Inode, Directory, VersionPair, SimDuration), NfsError> {
        at_cell(Scope::Cell(self).load_dir(via, fh))
    }
}
