//! Segment operations.
//!
//! §5.1: "The interface to the segment server consists of five normal
//! procedure calls: create, delete, read, write, and setparam. … Write
//! modifies a segment by replacing, appending, or truncating data in the
//! segment."
//!
//! A [`WriteOp`] carries its payload refcounted: cloning an op or an
//! [`UpdateRecord`] — into an outbound stream, a sequenced message, a
//! deferred apply — shares the payload. A [`WriteOp::Replace`] carries a
//! whole segment image as a [`SegmentData`] extent list, which every
//! replica that applies it — the token holder's and the remote ones
//! alike — *adopts* by reference: an image that shares all but the
//! written extent with its predecessor costs each replica a pointer, not
//! the file. The byte-range ops hand their [`Bytes`] to the replica's
//! extent list the same way. Wire and disk accounting still charge a
//! `Replace` its full length: what crosses the (simulated) network is
//! the image, whatever the in-process representation shares.
//!
//! No op may grow a segment past [`MAX_SEGMENT`]:
//! [`WriteOp::resulting_len`] is the check the write path runs before it
//! changes anything.

use bytes::Bytes;

use deceit_storage::{SegmentData, MAX_SEGMENT};

use crate::params::FileParams;
use crate::version::VersionPair;

/// One mutation of a segment, distributed to the file group as an update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Replace the entire contents ("files tend to be written … in their
    /// entirety", §2.3 — the common case).
    Replace(SegmentData),
    /// Replace bytes starting at an offset, extending as needed.
    WriteAt {
        /// Byte offset of the first written byte.
        offset: usize,
        /// The bytes to write.
        data: Bytes,
    },
    /// Append at the current end of segment.
    Append(Bytes),
    /// Truncate (or zero-extend) to an exact length.
    Truncate(usize),
    /// Replace the semantic parameters (the `setparam` call; distributed
    /// through the same ordered-update machinery so every replica agrees
    /// on the parameters in effect).
    SetParams(FileParams),
}

impl WriteOp {
    /// [`WriteOp::Replace`] holding a copy of `data`.
    pub fn replace(data: &[u8]) -> Self {
        WriteOp::Replace(SegmentData::from_bytes(data))
    }

    /// [`WriteOp::Append`] holding a copy of `data`.
    pub fn append(data: &[u8]) -> Self {
        WriteOp::Append(Bytes::copy_from_slice(data))
    }

    /// [`WriteOp::WriteAt`] holding a copy of `data`.
    pub fn write_at(offset: usize, data: &[u8]) -> Self {
        WriteOp::WriteAt { offset, data: Bytes::copy_from_slice(data) }
    }

    /// Applies the mutation to a replica's contents and parameters.
    /// Returns whether it was applied: a byte-range op that would grow
    /// the segment past [`MAX_SEGMENT`] leaves the replica as it was (the
    /// write path refuses such an op before it is ever distributed).
    pub fn apply(&self, data: &mut SegmentData, params: &mut FileParams) -> bool {
        match self {
            WriteOp::Replace(image) => {
                data.clone_from(image);
                true
            }
            WriteOp::WriteAt { offset, data: bytes } => data.write_bytes(*offset, bytes.clone()),
            WriteOp::Append(bytes) => data.write_bytes(data.len(), bytes.clone()),
            WriteOp::Truncate(len) => data.truncate(*len),
            WriteOp::SetParams(p) => {
                *params = *p;
                true
            }
        }
    }

    /// The length a segment of `current` bytes has after this op, or
    /// `None` if that is past [`MAX_SEGMENT`] (or past `usize`).
    pub fn resulting_len(&self, current: usize) -> Option<usize> {
        let len = match self {
            WriteOp::Replace(image) => image.len(),
            WriteOp::WriteAt { offset, data } => offset.checked_add(data.len())?.max(current),
            WriteOp::Append(data) => current.checked_add(data.len())?,
            WriteOp::Truncate(len) => *len,
            WriteOp::SetParams(_) => current,
        };
        (len <= MAX_SEGMENT).then_some(len)
    }

    /// Payload size on the wire, for network accounting.
    pub fn wire_size(&self) -> usize {
        16 + match self {
            WriteOp::Replace(image) => image.len(),
            WriteOp::Append(b) => b.len(),
            WriteOp::WriteAt { data, .. } => data.len(),
            WriteOp::Truncate(_) => 0,
            WriteOp::SetParams(_) => crate::params::PARAMS_WIRE_SIZE,
        }
    }

    /// Bytes written to local storage when applied (approximation used for
    /// disk-latency accounting).
    pub fn disk_size(&self) -> usize {
        self.wire_size()
    }
}

/// One update as shipped to the file group: the mutation plus the version
/// pair it produces. The new subversion number doubles as the total-order
/// sequence number within a major (§3.5: "v2 is incremented on every
/// update"), so replicas can apply updates in identical order regardless
/// of token movement (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateRecord {
    /// The version pair the segment carries after this update.
    pub new_version: VersionPair,
    /// The mutation itself.
    pub op: WriteOp,
}

/// The result of a read: data plus the version pair it was served at.
///
/// §5.1: "A read call not only returns data, but it also returns the
/// version pair associated with that data" — the foundation of the
/// optimistic concurrency mechanism.
///
/// The served replica's contents come back as the image itself — a
/// pointer bump under the replica's lock — with the requested range
/// beside it; [`ReadData::data`] cuts the range out when (and if) the
/// caller wants it flat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadData {
    /// The whole segment at serve time, shared with the serving replica.
    pub image: SegmentData,
    /// Offset of the first requested byte.
    pub offset: usize,
    /// Number of bytes requested.
    pub count: usize,
    /// Version pair of the replica served.
    pub version: VersionPair,
    /// Which server's replica satisfied the read (after any forwarding).
    pub served_by: deceit_net::NodeId,
}

impl ReadData {
    /// The bytes read: the requested range, clamped to the segment.
    pub fn data(&self) -> Bytes {
        self.image.read(self.offset, self.count)
    }

    /// Total length of the segment at serve time.
    pub fn segment_len(&self) -> usize {
        self.image.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (SegmentData, FileParams) {
        (SegmentData::new(), FileParams::default())
    }

    #[test]
    fn replace_apply() {
        let (mut d, mut p) = fresh();
        WriteOp::replace(b"abc").apply(&mut d, &mut p);
        assert_eq!(&d.contents()[..], b"abc");
        WriteOp::replace(b"z").apply(&mut d, &mut p);
        assert_eq!(&d.contents()[..], b"z");
    }

    #[test]
    fn write_at_and_append_apply() {
        let (mut d, mut p) = fresh();
        WriteOp::append(b"hello").apply(&mut d, &mut p);
        WriteOp::write_at(0, b"J").apply(&mut d, &mut p);
        assert_eq!(&d.contents()[..], b"Jello");
        WriteOp::Truncate(2).apply(&mut d, &mut p);
        assert_eq!(&d.contents()[..], b"Je");
    }

    #[test]
    fn resulting_len_is_capped_and_checked() {
        assert_eq!(WriteOp::write_at(2, b"abc").resulting_len(10), Some(10));
        assert_eq!(WriteOp::write_at(9, b"abc").resulting_len(10), Some(12));
        assert_eq!(WriteOp::append(b"abc").resulting_len(10), Some(13));
        assert_eq!(WriteOp::Truncate(MAX_SEGMENT).resulting_len(0), Some(MAX_SEGMENT));
        assert_eq!(WriteOp::Truncate(MAX_SEGMENT + 1).resulting_len(0), None);
        assert_eq!(WriteOp::write_at(usize::MAX, b"abc").resulting_len(0), None);
        assert_eq!(WriteOp::write_at(MAX_SEGMENT - 2, b"abc").resulting_len(0), None);
        assert_eq!(WriteOp::append(b"abc").resulting_len(MAX_SEGMENT - 2), None);
        let (mut d, mut p) = fresh();
        assert!(!WriteOp::write_at(1 << 40, b"abc").apply(&mut d, &mut p));
        assert!(d.is_empty());
    }

    #[test]
    fn set_params_applies_to_params_only() {
        let (mut d, mut p) = fresh();
        d.append(b"x");
        let newp = FileParams { min_replicas: 3, ..FileParams::default() };
        WriteOp::SetParams(newp).apply(&mut d, &mut p);
        assert_eq!(p.min_replicas, 3);
        assert_eq!(d.len(), 1, "data untouched");
    }

    #[test]
    fn wire_size_tracks_payload() {
        assert_eq!(WriteOp::replace(b"1234").wire_size(), 20);
        assert_eq!(WriteOp::Truncate(99).wire_size(), 16);
        assert!(WriteOp::SetParams(FileParams::default()).wire_size() > 16);
    }
}
