//! Segment contents: a byte array indexed by offset.
//!
//! §5.1: "A segment contains an array of bytes that can be indexed by an
//! offset. … Write modifies a segment by replacing, appending, or
//! truncating data in the segment." NFS reads and writes map directly onto
//! these operations.
//!
//! The array is a persistent list of *extents*: windows onto immutable,
//! refcounted [`Bytes`] buffers, in segment order, each carrying its
//! cumulative end offset. A one-extent segment (any under 16 KiB, by the
//! merge rule below) holds it in place: two heap blocks, the buffer and
//! its refcount. A longer list sits behind one refcount of its own, so
//! `clone` is a refcount bump, and every mutator is one left-to-right
//! [`Rewrite`] of the list that shares each extent the edit does not
//! touch: a write costs what it writes plus the list, not the segment.
//! Nothing handed out — to a reader, to another replica, to the durable
//! side of a [`crate::Disk`] — ever changes underneath its holder.
//!
//! Two rules keep the list bounded, both applied by every rewrite:
//!
//! * **merge** — neighbours are copied into one buffer when the shorter
//!   is under one 8 KiB NFS block and the two together are under two
//!   blocks. Any two neighbours therefore span at least 16 KiB: a
//!   segment has at most `len / 8 KiB + 1` extents, and a segment
//!   shorter than 16 KiB is exactly one flat buffer.
//! * **compact** — when an edit leaves a buffer less than half
//!   referenced by the segment, what the segment still uses of it is
//!   copied out and the buffer let go. The buffers a segment pins
//!   therefore add up to at most twice its length. (A buffer is known
//!   by the `Bytes` it arrived as: adopting a *slice* of a larger
//!   allocation pins that allocation, uncounted.)
//!
//! Merges copy less than 16 KiB per seam; a compaction copies less than
//! half a buffer, and only after more than half of it was overwritten.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use deceit_sim::InlineVec;

use crate::disk::StoredSize;

/// The longest a segment may grow: every mutator refuses an edit whose
/// result would be longer, before allocating anything for it.
pub const MAX_SEGMENT: usize = 64 * 1024 * 1024;

/// The merge size: one 8 KiB NFS block.
const MERGE: usize = 8 * 1024;

/// Whether neighbouring extents of these lengths are merged by copying.
fn mergeable(a: usize, b: usize) -> bool {
    a.min(b) < MERGE && a + b < 2 * MERGE
}

/// The address that identifies a backing buffer among the live ones.
fn buffer_id(backing: &Bytes) -> usize {
    backing.as_ptr() as usize
}

/// One window of a segment onto a shared buffer.
#[derive(Clone)]
struct Extent {
    /// The whole buffer, exactly as it was built or adopted.
    backing: Bytes,
    /// Where the window begins in `backing`.
    start: usize,
    /// Segment offset one past the window's last byte; its first byte
    /// sits at the previous extent's `end`.
    end: usize,
}

/// A segment's extents: none, one held in place, or a longer list
/// shared behind one refcount.
#[derive(Clone, Default)]
enum Extents {
    #[default]
    None,
    One(Extent),
    Many(Arc<Vec<Extent>>),
}

/// The contents of one segment replica.
///
/// `clone` shares the extents; [`SegmentData::read`] of a range inside
/// one extent is a view of that extent's buffer, which stays allocated
/// while the view lives — the extent, not the whole segment.
#[derive(Clone, Default)]
pub struct SegmentData {
    extents: Extents,
}

impl SegmentData {
    /// An empty segment ("create … returns a handle for a new segment of
    /// zero length", §5.1).
    pub fn new() -> Self {
        SegmentData::default()
    }

    /// Builds a segment holding a copy of `data`.
    pub fn from_bytes(data: &[u8]) -> Self {
        SegmentData::from(Bytes::copy_from_slice(data))
    }

    /// The extents, in segment order.
    fn extents(&self) -> &[Extent] {
        match &self.extents {
            Extents::None => &[],
            Extents::One(e) => std::slice::from_ref(e),
            Extents::Many(list) => list,
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.extents().last().map_or(0, |e| e.end)
    }

    /// Whether the segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.extents().is_empty()
    }

    /// The extents' bytes, in segment order.
    fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        let mut begin = 0;
        self.extents().iter().map(move |e| {
            let len = e.end - begin;
            begin = e.end;
            &e.backing[e.start..e.start + len]
        })
    }

    /// The first extent's bytes (empty for an empty segment): the prefix
    /// of the segment that can be inspected in place. Whatever was last
    /// written as one piece at offset 0 lies wholly inside it.
    pub fn head(&self) -> &[u8] {
        self.chunks().next().unwrap_or_default()
    }

    /// Reads up to `count` bytes starting at `offset`: a view when the
    /// range lies inside one extent, otherwise a gather of exactly the
    /// bytes returned.
    ///
    /// Reads past end-of-segment return the available prefix (possibly
    /// empty), matching NFS read semantics.
    pub fn read(&self, offset: usize, count: usize) -> Bytes {
        let len = self.len();
        let from = offset.min(len);
        let to = offset.saturating_add(count).min(len);
        let extents = self.extents();
        let first = extents.partition_point(|e| e.end <= from);
        let Some(e) = extents.get(first).filter(|_| from < to) else {
            return Bytes::new();
        };
        let begin = first.checked_sub(1).map_or(0, |p| extents[p].end);
        if to <= e.end {
            let at = e.start + (from - begin);
            return e.backing.slice(at..at + (to - from));
        }
        let mut out = Vec::with_capacity(to - from);
        let mut skip = from - begin;
        for chunk in self.chunks().skip(first) {
            let take = (chunk.len() - skip).min(to - from - out.len());
            out.extend_from_slice(&chunk[skip..skip + take]);
            skip = 0;
            if out.len() == to - from {
                break;
            }
        }
        Bytes::from(out)
    }

    /// The full contents: shared when the segment is one extent, gathered
    /// otherwise.
    pub fn contents(&self) -> Bytes {
        self.read(0, usize::MAX)
    }

    /// Starts a left-to-right rewrite of this segment; see [`Rewrite`].
    pub fn rewrite(&self) -> Rewrite<'_> {
        let len = self.len();
        Rewrite {
            src: self.extents(),
            // A segment short enough to be one buffer usually stays its
            // length under an edit: new buffers are sized for that.
            hint: if len < 2 * MERGE { len } else { 0 },
            next: 0,
            used: 0,
            out: Vec::new(),
            tail: Tail::Empty,
            len: 0,
            shares: false,
            retired: InlineVec::default(),
            too_big: false,
        }
    }

    /// Replaces the segment by `edit`'s rewrite of it; `false` (and no
    /// change) if that was refused.
    fn edit(&mut self, edit: impl FnOnce(&mut Rewrite<'_>)) -> bool {
        let mut r = self.rewrite();
        edit(&mut r);
        match r.finish() {
            Some(new) => {
                *self = new;
                true
            }
            None => false,
        }
    }

    /// Replaces the `len` bytes at `offset` by what `push` pushes, first
    /// zero-filling up to `offset` if the segment ends before it.
    fn overwrite(
        &mut self,
        offset: usize,
        len: usize,
        push: impl FnOnce(&mut Rewrite<'_>),
    ) -> bool {
        self.edit(|r| {
            r.keep_padded(offset);
            r.skip(len);
            push(r);
            r.keep(usize::MAX);
        })
    }

    /// Writes `data` at `offset`, *adopting* it as an extent: replaces
    /// existing bytes and extends the segment as needed. Writing past
    /// end-of-segment zero-fills the gap (UNIX sparse-write semantics).
    ///
    /// Returns whether the write was applied: one that would end past
    /// [`MAX_SEGMENT`] is refused and leaves the segment as it was.
    pub fn write_bytes(&mut self, offset: usize, data: Bytes) -> bool {
        self.overwrite(offset, data.len(), |r| r.push(data))
    }

    /// [`SegmentData::write_bytes`] of a copy of `data`.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> bool {
        self.overwrite(offset, data.len(), |r| r.push_copy(data))
    }

    /// Appends a copy of `data` at the current end; refused like
    /// [`SegmentData::write_bytes`].
    pub fn append(&mut self, data: &[u8]) -> bool {
        self.write(self.len(), data)
    }

    /// Truncates (or zero-extends) the segment to exactly `len` bytes;
    /// refused like [`SegmentData::write_bytes`].
    pub fn truncate(&mut self, len: usize) -> bool {
        self.edit(|r| r.keep_padded(len))
    }

    /// Replaces the entire contents, adopting `data` without a copy;
    /// refused if `data` is longer than [`MAX_SEGMENT`].
    pub fn replace(&mut self, data: Bytes) -> bool {
        let fits = data.len() <= MAX_SEGMENT;
        if fits {
            *self = SegmentData::from(data);
        }
        fits
    }

    /// Number of extents (at most `len / 8 KiB + 1`).
    pub fn extent_count(&self) -> usize {
        self.extents().len()
    }

    /// Total size of the distinct buffers the extents are windows of (at
    /// most `2 × len`): what this segment alone keeps allocated.
    pub fn pinned_bytes(&self) -> usize {
        let mut buffers: Vec<_> =
            self.extents().iter().map(|e| (buffer_id(&e.backing), e.backing.len())).collect();
        buffers.sort_unstable();
        buffers.dedup();
        buffers.iter().map(|&(_, size)| size).sum()
    }
}

/// The extent still open at the end of a [`Rewrite`]'s output: it may
/// yet be merged with what is pushed next.
enum Tail {
    Empty,
    /// A window onto a shared buffer.
    Shared {
        backing: Bytes,
        start: usize,
        len: usize,
    },
    /// Copied bytes: a merge in progress, or a pushed copy.
    Owned(Vec<u8>),
}

/// One pass over a segment, front to back, producing its successor: each
/// step keeps the next bytes of the source (sharing their extents), skips
/// them, or pushes new bytes in between; [`Rewrite::finish`] drops
/// whatever of the source is left. The merge and compaction rules of the
/// [module](self) are applied on the way, and a result longer than
/// [`MAX_SEGMENT`] is refused before anything is allocated for the part
/// that does not fit.
pub struct Rewrite<'a> {
    src: &'a [Extent],
    /// Least capacity to give a buffer built for the result.
    hint: usize,
    /// The next source extent, and how much of it is already consumed.
    next: usize,
    used: usize,
    /// The result's extents before `tail`: none for a one-extent result.
    out: Vec<Extent>,
    tail: Tail,
    /// Result length so far, `tail` included.
    len: usize,
    /// Whether the result windows a buffer it did not build (if not,
    /// there is nothing to compact).
    shares: bool,
    /// `(buffer, size, bytes of it in the result)` for every buffer that
    /// lost bytes it may also hold elsewhere in the segment.
    retired: InlineVec<(usize, usize, usize), 4>,
    too_big: bool,
}

impl Rewrite<'_> {
    /// Keeps the next `count` bytes of the source (or what is left of it).
    pub fn keep(&mut self, count: usize) {
        self.advance(count, true);
    }

    /// Keeps the next `count` bytes of the source, making up with zeros
    /// what the source is short of them.
    pub fn keep_padded(&mut self, count: usize) {
        let missing = count - self.advance(count, true);
        if missing > 0 && self.room_for(missing) {
            self.push(Bytes::from(vec![0; missing]));
        }
    }

    /// Skips the next `count` bytes of the source (or what is left of it).
    pub fn skip(&mut self, count: usize) {
        self.advance(count, false);
    }

    /// Pushes `data`, adopted as an extent.
    pub fn push(&mut self, data: Bytes) {
        self.emit(data.len(), Some((&data, 0)), |buf| buf.extend_from_slice(&data));
    }

    /// Pushes a copy of `data`.
    pub fn push_copy(&mut self, data: &[u8]) {
        self.emit(data.len(), None, |buf| buf.extend_from_slice(data));
    }

    /// Pushes the `len` bytes `write` appends to the buffer it is given —
    /// an encoder's output, written straight into the result's buffer
    /// instead of into one of its own first.
    pub fn push_with(&mut self, len: usize, write: impl FnOnce(&mut Vec<u8>)) {
        self.emit(len, None, write);
    }

    /// The rewritten segment, or `None` if it would be longer than
    /// [`MAX_SEGMENT`].
    pub fn finish(mut self) -> Option<SegmentData> {
        self.skip(usize::MAX);
        if self.too_big {
            return None;
        }
        let Some(mut last) = self.close() else {
            return Some(SegmentData::new());
        };
        let extents = if self.out.is_empty() {
            self.compact(std::slice::from_mut(&mut last));
            Extents::One(last)
        } else {
            let mut out = std::mem::take(&mut self.out);
            out.push(last);
            self.compact(&mut out);
            Extents::Many(Arc::new(out))
        };
        Some(SegmentData { extents })
    }

    /// Consumes up to `count` source bytes, keeping or dropping them;
    /// returns how many there were.
    fn advance(&mut self, count: usize, keep: bool) -> usize {
        let src = self.src;
        let mut todo = count;
        while let Some(e) = src.get(self.next).filter(|_| todo > 0) {
            let begin = self.next.checked_sub(1).map_or(0, |p| src[p].end);
            let left = e.end - begin - self.used;
            let take = left.min(todo);
            if keep {
                let at = e.start + self.used;
                let window = &e.backing[at..at + take];
                self.emit(take, Some((&e.backing, at)), |buf| buf.extend_from_slice(window));
            } else {
                self.retire(&e.backing, take);
            }
            todo -= take;
            if take == left {
                self.next += 1;
                self.used = 0;
            } else {
                self.used += take;
            }
        }
        count - todo
    }

    /// Whether the result can take `more` bytes; once it cannot, the
    /// rewrite is refused.
    fn room_for(&mut self, more: usize) -> bool {
        self.too_big |= self.len.checked_add(more).is_none_or(|len| len > MAX_SEGMENT);
        !self.too_big
    }

    /// Appends `len` bytes to the result — the window of `from.0`
    /// starting at `from.1`, or else bytes to be copied — merging them
    /// into the tail when the merge rule says so. `copy` appends exactly
    /// those bytes to a buffer, and is called only if they are copied.
    fn emit(&mut self, len: usize, from: Option<(&Bytes, usize)>, copy: impl FnOnce(&mut Vec<u8>)) {
        if len == 0 || !self.room_for(len) {
            return;
        }
        self.len += len;
        let hint = self.hint;
        let tail_len = match &self.tail {
            Tail::Empty => 0,
            Tail::Shared { len, .. } => *len,
            Tail::Owned(buf) => buf.len(),
        };
        if tail_len > 0 && mergeable(tail_len, len) {
            let mut buf = match std::mem::replace(&mut self.tail, Tail::Empty) {
                Tail::Owned(buf) => buf,
                Tail::Shared { backing, start, len: first } => {
                    let mut buf = Vec::with_capacity(hint.max(first + len));
                    buf.extend_from_slice(&backing[start..start + first]);
                    self.retire(&backing, first);
                    buf
                }
                Tail::Empty => Vec::new(),
            };
            Self::copied(&mut buf, len, copy);
            if let Some((backing, _)) = from {
                self.retire(backing, len);
            }
            self.tail = Tail::Owned(buf);
        } else {
            if let Some(e) = self.close() {
                self.out.reserve((self.src.len() + 3).saturating_sub(self.out.len()));
                self.out.push(e);
            }
            self.tail = match from {
                Some((backing, start)) => Tail::Shared { backing: backing.clone(), start, len },
                None => {
                    let mut buf = Vec::with_capacity(hint.max(len));
                    Self::copied(&mut buf, len, copy);
                    Tail::Owned(buf)
                }
            };
        }
    }

    /// Runs `copy`, holding it to the length the result was sized by.
    fn copied(buf: &mut Vec<u8>, len: usize, copy: impl FnOnce(&mut Vec<u8>)) {
        let before = buf.len();
        copy(buf);
        assert_eq!(buf.len() - before, len, "a pushed encoder wrote another length than it said");
    }

    /// Closes the open extent, if any, and returns it.
    fn close(&mut self) -> Option<Extent> {
        let (backing, start, len) = match std::mem::replace(&mut self.tail, Tail::Empty) {
            Tail::Empty => return None,
            Tail::Shared { backing, start, len } => {
                self.shares = true;
                (backing, start, len)
            }
            Tail::Owned(buf) => {
                let len = buf.len();
                (Bytes::from(buf), 0, len)
            }
        };
        let end = self.out.last().map_or(0, |e| e.end) + len;
        Some(Extent { backing, start, end })
    }

    /// Notes that `dropped` bytes of `backing` did not make it into the
    /// result as a window. A buffer dropped whole has no other window.
    fn retire(&mut self, backing: &Bytes, dropped: usize) {
        let id = buffer_id(backing);
        if dropped < backing.len() && !self.retired.iter().any(|r| r.0 == id) {
            self.retired.push((id, backing.len(), 0));
        }
    }

    /// The compaction rule: copies out the windows in `out` of every
    /// retired buffer the result references less than half of.
    fn compact(&mut self, out: &mut [Extent]) {
        if !self.shares || self.retired.is_empty() {
            return;
        }
        self.retired.sort_unstable();
        let find = |retired: &[(usize, usize, usize)], e: &Extent| {
            retired.binary_search_by_key(&buffer_id(&e.backing), |r| r.0).ok()
        };
        let mut begin = 0;
        for e in out.iter() {
            if let Some(i) = find(&self.retired, e) {
                self.retired[i].2 += e.end - begin;
            }
            begin = e.end;
        }
        begin = 0;
        for e in out {
            let len = e.end - begin;
            begin = e.end;
            if let Some(i) = find(&self.retired, e) {
                let (_, size, referenced) = self.retired[i];
                if referenced * 2 < size {
                    e.backing = Bytes::copy_from_slice(&e.backing[e.start..e.start + len]);
                    e.start = 0;
                }
            }
        }
    }
}

impl StoredSize for SegmentData {
    fn stored_size(&self) -> usize {
        self.len()
    }
}

impl From<Bytes> for SegmentData {
    /// A one-extent segment adopting `data`.
    fn from(data: Bytes) -> Self {
        let end = data.len();
        let one = Extents::One(Extent { backing: data, start: 0, end });
        SegmentData { extents: if end == 0 { Extents::None } else { one } }
    }
}

impl From<Vec<u8>> for SegmentData {
    fn from(data: Vec<u8>) -> Self {
        SegmentData::from(Bytes::from(data))
    }
}

impl From<&[u8]> for SegmentData {
    fn from(data: &[u8]) -> Self {
        SegmentData::from_bytes(data)
    }
}

impl PartialEq for SegmentData {
    /// Segments are equal when their bytes are, however they are cut
    /// into extents.
    fn eq(&self, other: &Self) -> bool {
        let shared = matches!((&self.extents, &other.extents),
            (Extents::Many(a), Extents::Many(b)) if Arc::ptr_eq(a, b));
        self.len() == other.len()
            && (shared || self.chunks().flatten().eq(other.chunks().flatten()))
    }
}

impl Eq for SegmentData {}

impl fmt::Debug for SegmentData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SegmentData").field(&self.contents()).finish()
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
    fn a_small_segment_is_one_extent_pinning_one_buffer() {
        let mut s = SegmentData::from_bytes(&[1; 1024]);
        assert!(s.write(256, &[2; 512]));
        assert_eq!((s.extent_count(), s.pinned_bytes()), (1, 1024));
        assert_eq!(&s.read(255, 3)[..], &[1, 2, 2]);
        // A clone shares the buffer, not a copy of it.
        let c = s.clone();
        assert_eq!(c.read(0, 1024).as_ptr(), s.read(0, 1024).as_ptr());
        assert_eq!(c, s);
    }

    #[test]
    fn an_adopted_slice_is_compacted_only_past_half() {
        let big = Bytes::from(vec![7u8; 64 << 10]);
        let inside = |s: &SegmentData, at: usize| {
            let (p, b) = (s.read(at, 1).as_ptr() as usize, big.as_ptr() as usize);
            (b..b + big.len()).contains(&p)
        };
        let mut s = SegmentData::new();
        assert!(s.write_bytes(0, big.slice(..32 << 10)));
        // 24 of the slice's 32 KiB still referenced: kept.
        assert!(s.write(8 << 10, &[1; 8 << 10]));
        assert!(inside(&s, 0) && inside(&s, 31 << 10));
        assert_eq!((s.extent_count(), s.pinned_bytes()), (3, (32 << 10) + (8 << 10)));
        // 12 of 32 KiB referenced: both windows copied out.
        assert!(s.write(4 << 10, &[2; 20 << 10]));
        assert!(!inside(&s, 0) && !inside(&s, 31 << 10));
        assert_eq!((s.extent_count(), s.pinned_bytes()), (3, 32 << 10));
        assert_eq!(&s.read((4 << 10) - 1, 2)[..], &[7, 2]);
        assert_eq!(&s.read((24 << 10) - 1, 2)[..], &[2, 7]);
    }

    #[test]
    fn replace_swaps_contents() {
        let mut s = SegmentData::from_bytes(b"old contents");
        s.replace(Bytes::from(b"new"));
        assert_eq!(&s.contents()[..], b"new");
        assert_eq!(s.stored_size(), 3);
    }
}
