//! Directory contents.
//!
//! A directory's segment payload (after the inode header) is an encoded
//! entry table. §3.5: "A directory entry actually uses the unqualified
//! filename" — version qualifiers are resolved at lookup time, never
//! stored. §5.1's worked example (read the directory, pick a position,
//! write back conditionally) is exactly how the envelope updates these.

use bytes::{Buf, BufMut};

use deceit_core::SegmentId;

use crate::handle::FileHandle;
use crate::inode::CodecError;

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Component name (unqualified).
    pub name: String,
    /// Handle of the file/directory/symlink.
    pub handle: FileHandle,
    /// File-type byte (same encoding as [`crate::inode::Inode::ftype`]),
    /// cached here so `readdir` needs no per-entry getattr.
    pub ftype: u8,
}

impl DirEntry {
    /// The entry's size in the directory's encoding — what a directory
    /// update that inserts or removes it carries.
    pub fn wire_size(&self) -> usize {
        2 + self.name.len() + 8 + 1
    }
}

/// An in-memory directory: a sorted entry table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Directory {
    entries: Vec<DirEntry>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a name up.
    pub fn get(&self, name: &str) -> Option<&DirEntry> {
        self.entries.binary_search_by(|e| e.name.as_str().cmp(name)).ok().map(|i| &self.entries[i])
    }

    /// Inserts an entry; returns false (leaving the table unchanged) if
    /// the name already exists.
    pub fn insert(&mut self, entry: DirEntry) -> bool {
        match self.entries.binary_search_by(|e| e.name.cmp(&entry.name)) {
            Ok(_) => false,
            Err(pos) => {
                self.entries.insert(pos, entry);
                true
            }
        }
    }

    /// Removes a name; returns the removed entry if present.
    pub fn remove(&mut self, name: &str) -> Option<DirEntry> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| self.entries.remove(i))
    }

    /// All entries in name order.
    pub fn entries(&self) -> &[DirEntry] {
        &self.entries
    }

    /// Whether any entry references `seg` (the uplink-GC probe, §5.2).
    pub fn links_to(&self, seg: SegmentId) -> bool {
        self.entries.iter().any(|e| e.handle.segment() == seg)
    }

    /// Encodes the entry table.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            buf.put_u16(e.name.len() as u16);
            buf.put_slice(e.name.as_bytes());
            buf.put_u64(e.handle.segment().0);
            buf.put_u8(e.ftype);
        }
        buf
    }

    /// Decodes an entry table.
    pub fn decode(mut buf: &[u8]) -> Result<Directory, CodecError> {
        if buf.len() < 4 {
            return Err(CodecError::Truncated);
        }
        let count = buf.get_u32() as usize;
        let mut entries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            if buf.len() < 2 {
                return Err(CodecError::Truncated);
            }
            let name_len = buf.get_u16() as usize;
            if buf.len() < name_len + 9 {
                return Err(CodecError::Truncated);
            }
            let name = String::from_utf8_lossy(&buf[..name_len]).into_owned();
            buf.advance(name_len);
            let seg = SegmentId(buf.get_u64());
            let ftype = buf.get_u8();
            entries.push(DirEntry { name, handle: FileHandle::new(seg), ftype });
        }
        // Defensive: preserve the sorted invariant even for tables written
        // by older encoders.
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Directory { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(name: &str, seg: u64) -> DirEntry {
        DirEntry { name: name.to_string(), handle: FileHandle::new(SegmentId(seg)), ftype: 0 }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut d = Directory::new();
        assert!(d.insert(e("beta", 2)));
        assert!(d.insert(e("alpha", 1)));
        assert!(!d.insert(e("alpha", 9)), "duplicate rejected");
        assert_eq!(d.len(), 2);
        assert_eq!(d.get("alpha").unwrap().handle, FileHandle::new(SegmentId(1)));
        assert!(d.get("gamma").is_none());
        let removed = d.remove("alpha").unwrap();
        assert_eq!(removed.handle.segment().0, 1);
        assert!(d.remove("alpha").is_none());
    }

    #[test]
    fn entries_are_sorted() {
        let mut d = Directory::new();
        for name in ["zz", "mm", "aa"] {
            d.insert(e(name, 1));
        }
        let names: Vec<&str> = d.entries().iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut d = Directory::new();
        d.insert(e("hello.txt", 5));
        d.insert(DirEntry {
            name: "subdir".to_string(),
            handle: FileHandle::new(SegmentId(6)),
            ftype: 1,
        });
        let enc = d.encode();
        let dec = Directory::decode(&enc).unwrap();
        assert_eq!(dec, d);
    }

    #[test]
    fn empty_roundtrip() {
        let d = Directory::new();
        assert_eq!(Directory::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn decode_truncation() {
        let mut d = Directory::new();
        d.insert(e("x", 1));
        let enc = d.encode();
        assert!(Directory::decode(&enc[..enc.len() - 1]).is_err());
        assert!(Directory::decode(&[]).is_err());
    }

    #[test]
    fn links_to_probe() {
        let mut d = Directory::new();
        d.insert(e("a", 7));
        assert!(d.links_to(SegmentId(7)));
        assert!(!d.links_to(SegmentId(8)));
    }
}
