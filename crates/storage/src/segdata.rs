//! Segment contents: a byte array indexed by offset.
//!
//! §5.1: "A segment contains an array of bytes that can be indexed by an
//! offset. … Write modifies a segment by replacing, appending, or
//! truncating data in the segment." NFS reads and writes map directly onto
//! these operations.
//!
//! The array is an immutable, refcounted [`Bytes`]. Reading and cloning
//! share it; every mutator builds the one new buffer its result needs
//! and swaps it in, so a buffer that has been handed out — to a reader,
//! to another replica, to the durable side of a [`crate::Disk`] — never
//! changes underneath its holder.

use bytes::Bytes;

use crate::disk::StoredSize;

/// The contents of one segment replica.
///
/// `clone`, [`SegmentData::contents`] and [`SegmentData::read`] are
/// pointer bumps onto the same backing buffer; it is freed when the last
/// of them is dropped (a short `read` of a large segment pins the whole
/// buffer until then).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentData {
    buf: Bytes,
}

impl SegmentData {
    /// An empty segment ("create … returns a handle for a new segment of
    /// zero length", §5.1).
    pub fn new() -> Self {
        SegmentData::default()
    }

    /// Builds a segment holding a copy of `data`.
    pub fn from_bytes(data: &[u8]) -> Self {
        SegmentData { buf: Bytes::copy_from_slice(data) }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reads up to `count` bytes starting at `offset`, as a view of the
    /// segment's buffer.
    ///
    /// Reads past end-of-segment return the available prefix (possibly
    /// empty), matching NFS read semantics.
    pub fn read(&self, offset: usize, count: usize) -> Bytes {
        let start = offset.min(self.buf.len());
        let end = offset.saturating_add(count).min(self.buf.len());
        self.buf.slice(start..end)
    }

    /// The full contents, shared with the segment.
    pub fn contents(&self) -> Bytes {
        self.buf.clone()
    }

    /// Writes `data` at `offset`, replacing existing bytes and extending
    /// the segment as needed. Writing past end-of-segment zero-fills the
    /// gap (UNIX sparse-write semantics).
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` overflows `usize`.
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        let end = offset.checked_add(data.len()).expect("segment end overflows usize");
        let old = &self.buf[..];
        let mut new = Vec::with_capacity(old.len().max(end));
        new.extend_from_slice(&old[..offset.min(old.len())]);
        new.resize(offset, 0);
        new.extend_from_slice(data);
        new.extend_from_slice(old.get(end..).unwrap_or_default());
        self.buf = Bytes::from(new);
    }

    /// Appends `data` at the current end.
    pub fn append(&mut self, data: &[u8]) {
        self.write(self.buf.len(), data);
    }

    /// Truncates (or zero-extends) the segment to exactly `len` bytes.
    /// Shrinking keeps a view of the old buffer.
    pub fn truncate(&mut self, len: usize) {
        if len <= self.buf.len() {
            self.buf = self.buf.slice(..len);
        } else {
            self.write(len, &[]);
        }
    }

    /// Replaces the entire contents, adopting `data` without a copy.
    pub fn replace(&mut self, data: Bytes) {
        self.buf = data;
    }
}

impl StoredSize for SegmentData {
    fn stored_size(&self) -> usize {
        self.buf.len()
    }
}

impl From<&[u8]> for SegmentData {
    fn from(data: &[u8]) -> Self {
        SegmentData::from_bytes(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_is_zero_length() {
        let s = SegmentData::new();
        assert!(s.is_empty());
        assert_eq!(s.read(0, 10), Bytes::new());
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut s = SegmentData::new();
        s.write(0, b"hello world");
        assert_eq!(s.len(), 11);
        assert_eq!(&s.read(0, 5)[..], b"hello");
        assert_eq!(&s.read(6, 100)[..], b"world");
    }

    #[test]
    fn overwrite_replaces_in_place() {
        let mut s = SegmentData::from_bytes(b"aaaaaa");
        s.write(2, b"BB");
        assert_eq!(&s.contents()[..], b"aaBBaa");
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut s = SegmentData::from_bytes(b"ab");
        s.write(5, b"z");
        assert_eq!(&s.contents()[..], b"ab\0\0\0z");
    }

    #[test]
    fn append_extends() {
        let mut s = SegmentData::from_bytes(b"ab");
        s.append(b"cd");
        assert_eq!(&s.contents()[..], b"abcd");
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut s = SegmentData::from_bytes(b"abcdef");
        s.truncate(3);
        assert_eq!(&s.contents()[..], b"abc");
        s.truncate(5);
        assert_eq!(&s.contents()[..], b"abc\0\0");
    }

    #[test]
    fn read_past_end_returns_prefix() {
        let s = SegmentData::from_bytes(b"abc");
        assert_eq!(&s.read(1, 100)[..], b"bc");
        assert_eq!(s.read(3, 1), Bytes::new());
        assert_eq!(s.read(99, 1), Bytes::new());
    }

    #[test]
    fn replace_swaps_contents() {
        let mut s = SegmentData::from_bytes(b"old contents");
        s.replace(Bytes::from(b"new"));
        assert_eq!(&s.contents()[..], b"new");
        assert_eq!(s.stored_size(), 3);
    }
}
