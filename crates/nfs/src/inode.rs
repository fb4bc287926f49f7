//! The per-segment metadata header.
//!
//! Every segment the envelope creates begins with an inode header: the
//! file type, mode bits, ownership, timestamps, the link-count *hint*, and
//! the uplink list (§5.2: "An uplink list of directory file handles is
//! stored with each file. … Deceit also keeps a standard hard link count
//! with f, but it is only considered to be a hint."). The client-visible
//! file contents start after the header.
//!
//! Every load decodes a header, but only links, removals, renames and the
//! garbage collector look at the uplink list. An inode therefore keeps
//! the list as the header encodes it — after a decode, a view of the
//! segment image — and parses an entry only when asked: a read or a
//! write never allocates for the list.

use bytes::{Buf, BufMut, Bytes};

use deceit_core::SegmentId;

/// Magic tag identifying an envelope-formatted segment.
const INODE_MAGIC: u16 = 0xDF5A;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The segment is shorter than a header.
    Truncated,
    /// The magic tag is wrong — not an envelope segment.
    BadMagic(u16),
    /// Unknown file-type byte.
    BadType(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "segment too short for inode header"),
            CodecError::BadMagic(m) => write!(f, "bad inode magic {m:#06x}"),
            CodecError::BadType(t) => write!(f, "unknown file type byte {t}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The metadata header of one envelope segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// 0 = regular file, 1 = directory, 2 = symlink (decoded via
    /// [`crate::fs::FileType`]).
    pub ftype: u8,
    /// UNIX permission bits.
    pub mode: u32,
    /// Owner.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// Hard-link count — "only considered to be a hint" (§5.2).
    pub nlink: u32,
    /// Last access, microseconds of simulated time.
    pub atime: u64,
    /// Last data modification.
    pub mtime: u64,
    /// Last attribute change.
    pub ctime: u64,
    /// Directories that (may) contain a link to this file (§5.2), as
    /// the header encodes them: 8 big-endian bytes each.
    uplinks: Bytes,
}

impl Inode {
    /// A fresh inode of the given type and mode.
    pub fn new(ftype: u8, mode: u32, now_us: u64) -> Self {
        Inode {
            ftype,
            mode,
            uid: 0,
            gid: 0,
            nlink: 0,
            atime: now_us,
            mtime: now_us,
            ctime: now_us,
            uplinks: Bytes::new(),
        }
    }

    /// Serialized length of this header.
    pub fn encoded_len(&self) -> usize {
        FIXED_LEN + self.uplinks.len()
    }

    /// Encodes the header.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the encoded header to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.put_u16(INODE_MAGIC);
        buf.put_u8(self.ftype);
        buf.put_u32(self.mode);
        buf.put_u32(self.uid);
        buf.put_u32(self.gid);
        buf.put_u32(self.nlink);
        buf.put_u64(self.atime);
        buf.put_u64(self.mtime);
        buf.put_u64(self.ctime);
        buf.put_u32((self.uplinks.len() / 8) as u32);
        buf.put_slice(&self.uplinks);
    }

    /// Decodes a header from the start of a segment, returning the inode
    /// and the header length (the offset where file contents begin). The
    /// uplink list stays a view of `image`.
    pub fn decode(image: &Bytes) -> Result<(Inode, usize), CodecError> {
        let mut buf: &[u8] = image;
        if buf.len() < FIXED_LEN {
            return Err(CodecError::Truncated);
        }
        let magic = buf.get_u16();
        if magic != INODE_MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let ftype = buf.get_u8();
        if ftype > 2 {
            return Err(CodecError::BadType(ftype));
        }
        let mode = buf.get_u32();
        let uid = buf.get_u32();
        let gid = buf.get_u32();
        let nlink = buf.get_u32();
        let atime = buf.get_u64();
        let mtime = buf.get_u64();
        let ctime = buf.get_u64();
        let n_up = buf.get_u32() as usize;
        if buf.len() < 8 * n_up {
            return Err(CodecError::Truncated);
        }
        let uplinks = image.slice(FIXED_LEN..FIXED_LEN + 8 * n_up);
        let inode = Inode { ftype, mode, uid, gid, nlink, atime, mtime, ctime, uplinks };
        Ok((inode, FIXED_LEN + 8 * n_up))
    }

    /// The uplink list, in the order the directories were added.
    pub fn uplinks(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.uplinks.chunks_exact(8).map(|mut id| SegmentId(id.get_u64()))
    }

    /// Adds a directory to the uplink list if absent; whether it was.
    pub fn add_uplink(&mut self, dir: SegmentId) -> bool {
        let absent = !self.uplinks().any(|d| d == dir);
        if absent {
            let mut raw = self.uplinks.to_vec();
            raw.put_u64(dir.0);
            self.uplinks = raw.into();
        }
        absent
    }

    /// Removes a directory from the uplink list.
    pub fn remove_uplink(&mut self, dir: SegmentId) {
        let kept = self.uplinks().filter(|&d| d != dir);
        self.uplinks = kept.flat_map(|d| d.0.to_be_bytes()).collect();
    }
}

/// Header length without the uplink list: magic, type, four `u32`s,
/// three timestamps and the uplink count.
const FIXED_LEN: usize = 2 + 1 + 4 * 4 + 8 * 3 + 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_plain() {
        let inode = Inode::new(0, 0o644, 42);
        let enc = Bytes::from(inode.encode());
        let (dec, used) = Inode::decode(&enc).unwrap();
        assert_eq!(dec, inode);
        assert_eq!(used, enc.len());
        assert_eq!(used, inode.encoded_len());
    }

    #[test]
    fn roundtrip_with_uplinks() {
        let mut inode = Inode::new(1, 0o755, 7);
        inode.nlink = 3;
        assert!(inode.add_uplink(SegmentId(9)));
        assert!(inode.add_uplink(SegmentId(12)));
        assert!(!inode.add_uplink(SegmentId(9)), "dedup");
        assert_eq!(inode.uplinks().count(), 2);
        let mut padded = inode.encode();
        padded.extend_from_slice(b"file contents here");
        let padded = Bytes::from(padded);
        let (dec, used) = Inode::decode(&padded).unwrap();
        assert_eq!(dec, inode);
        assert_eq!(&padded[used..], b"file contents here");
        // Decoded, the list reads, re-encodes and edits the same.
        assert_eq!(dec.uplinks().collect::<Vec<_>>(), [SegmentId(9), SegmentId(12)]);
        assert_eq!(dec.encode(), inode.encode());
        let mut edited = dec.clone();
        assert!(!edited.add_uplink(SegmentId(12)));
        edited.remove_uplink(SegmentId(9));
        assert_eq!(edited.uplinks().collect::<Vec<_>>(), [SegmentId(12)]);
    }

    #[test]
    fn remove_uplink() {
        let mut inode = Inode::new(0, 0, 0);
        inode.add_uplink(SegmentId(1));
        inode.add_uplink(SegmentId(2));
        inode.remove_uplink(SegmentId(1));
        assert_eq!(inode.uplinks().collect::<Vec<_>>(), [SegmentId(2)]);
    }

    #[test]
    fn decode_errors() {
        let decode = |b: &[u8]| Inode::decode(&Bytes::copy_from_slice(b));
        assert_eq!(decode(&[]), Err(CodecError::Truncated));
        let mut enc = Inode::new(0, 0, 0).encode();
        enc[0] = 0;
        assert!(matches!(decode(&enc), Err(CodecError::BadMagic(_))));
        let mut enc2 = Inode::new(0, 0, 0).encode();
        enc2[2] = 9;
        assert_eq!(decode(&enc2), Err(CodecError::BadType(9)));
        // Truncated uplink table.
        let mut inode = Inode::new(0, 0, 0);
        inode.add_uplink(SegmentId(1));
        let enc3 = inode.encode();
        assert_eq!(decode(&enc3[..enc3.len() - 4]), Err(CodecError::Truncated));
    }
}
