//! Property tests: the simulated disk and segment data behave like their
//! obvious reference models under arbitrary operation sequences.

use bytes::Bytes;
use deceit_storage::{Disk, DiskConfig, SegmentData, MAX_SEGMENT};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum SegOp {
    Write { offset: usize, data: Vec<u8> },
    WriteBytes { offset: usize, data: Vec<u8> },
    Append { data: Vec<u8> },
    Truncate { len: usize },
    Replace { data: Vec<u8> },
}

/// Payloads from a few bytes to several extents, clustered around the
/// 8 KiB merge size where the extent rules change their answer.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    (prop_oneof![0usize..64, 8_000usize..8_400, 0usize..40_000], any::<u8>())
        .prop_map(|(len, seed)| (0..len).map(|i| seed.wrapping_add((i % 253) as u8)).collect())
}

fn seg_op() -> impl Strategy<Value = SegOp> {
    prop_oneof![
        (0usize..96_000, payload()).prop_map(|(offset, data)| SegOp::Write { offset, data }),
        (0usize..96_000, payload()).prop_map(|(offset, data)| SegOp::WriteBytes { offset, data }),
        (0usize..96_000, payload()).prop_map(|(offset, data)| SegOp::WriteBytes { offset, data }),
        payload().prop_map(|data| SegOp::Append { data }),
        (0usize..128_000).prop_map(|len| SegOp::Truncate { len }),
        payload().prop_map(|data| SegOp::Replace { data }),
    ]
}

/// Reference model: a plain Vec<u8> with the same semantics.
fn apply_model(model: &mut Vec<u8>, op: &SegOp) {
    match op {
        SegOp::Write { offset, data } | SegOp::WriteBytes { offset, data } => {
            let end = offset + data.len();
            if end > model.len() {
                model.resize(end, 0);
            }
            model[*offset..end].copy_from_slice(data);
        }
        SegOp::Append { data } => model.extend_from_slice(data),
        SegOp::Truncate { len } => model.resize(*len, 0),
        SegOp::Replace { data } => model.clone_from(data),
    }
}

fn apply_seg(seg: &mut SegmentData, op: &SegOp) {
    let applied = match op {
        SegOp::Write { offset, data } => seg.write(*offset, data),
        SegOp::WriteBytes { offset, data } => seg.write_bytes(*offset, Bytes::from(data.clone())),
        SegOp::Append { data } => seg.append(data),
        SegOp::Truncate { len } => seg.truncate(*len),
        SegOp::Replace { data } => seg.replace(Bytes::from(data.clone())),
    };
    assert!(applied, "{op:?} is far below the cap");
}

const BLOCK: usize = 8 * 1024;

#[derive(Debug, Clone)]
enum DiskOp {
    PutSync(u32, Vec<u8>),
    PutAsync(u32, Vec<u8>),
    UpdateSync(u32, u8),
    UpdateAsync(u32, u8),
    DeleteSync(u32),
    DeleteAsync(u32),
    FlushKey(u32),
    Crash,
}

fn disk_op() -> impl Strategy<Value = DiskOp> {
    let key = || 0u32..6;
    let value = || proptest::collection::vec(any::<u8>(), 0..24);
    prop_oneof![
        (key(), value()).prop_map(|(k, v)| DiskOp::PutSync(k, v)),
        (key(), value()).prop_map(|(k, v)| DiskOp::PutAsync(k, v)),
        (key(), any::<u8>()).prop_map(|(k, b)| DiskOp::UpdateSync(k, b)),
        (key(), any::<u8>()).prop_map(|(k, b)| DiskOp::UpdateSync(k, b)),
        (key(), any::<u8>()).prop_map(|(k, b)| DiskOp::UpdateAsync(k, b)),
        (key(), any::<u8>()).prop_map(|(k, b)| DiskOp::UpdateAsync(k, b)),
        key().prop_map(DiskOp::DeleteSync),
        key().prop_map(DiskOp::DeleteAsync),
        key().prop_map(DiskOp::FlushKey),
        Just(DiskOp::Crash),
    ]
}

/// The two-map reference model of a [`Disk`]: what a crash keeps, what a
/// read sees, which keys differ, and the three counters.
#[derive(Debug, Default)]
struct DiskModel {
    durable: BTreeMap<u32, Vec<u8>>,
    volatile: BTreeMap<u32, Vec<u8>>,
    dirty: std::collections::BTreeSet<u32>,
    sync_writes: u64,
    async_writes: u64,
    lost_writes: u64,
}

impl DiskModel {
    fn put_sync(&mut self, k: u32, v: Vec<u8>) {
        self.durable.insert(k, v.clone());
        self.volatile.insert(k, v);
        self.dirty.remove(&k);
        self.sync_writes += 1;
    }

    fn put_async(&mut self, k: u32, v: Vec<u8>) {
        self.volatile.insert(k, v);
        self.dirty.insert(k);
        self.async_writes += 1;
    }

    fn apply(&mut self, op: &DiskOp) {
        match op {
            DiskOp::PutSync(k, v) => self.put_sync(*k, v.clone()),
            DiskOp::PutAsync(k, v) => self.put_async(*k, v.clone()),
            // An update is a get, a change to the copy, and a put.
            DiskOp::UpdateSync(k, b) => {
                if let Some(mut v) = self.volatile.get(k).cloned() {
                    v.push(*b);
                    self.put_sync(*k, v);
                }
            }
            DiskOp::UpdateAsync(k, b) => {
                if let Some(mut v) = self.volatile.get(k).cloned() {
                    v.push(*b);
                    self.put_async(*k, v);
                }
            }
            DiskOp::DeleteSync(k) => {
                self.durable.remove(k);
                self.volatile.remove(k);
                self.dirty.remove(k);
                self.sync_writes += 1;
            }
            DiskOp::DeleteAsync(k) => {
                self.volatile.remove(k);
                self.dirty.insert(*k);
                self.async_writes += 1;
            }
            DiskOp::FlushKey(k) => {
                if self.dirty.remove(k) {
                    match self.volatile.get(k) {
                        Some(v) => self.durable.insert(*k, v.clone()),
                        None => self.durable.remove(k),
                    };
                }
            }
            DiskOp::Crash => {
                self.lost_writes += self.dirty.len() as u64;
                self.volatile = self.durable.clone();
                self.dirty.clear();
            }
        }
    }
}

/// Every mutator refuses an edit whose result would pass `MAX_SEGMENT`
/// — without panicking, without allocating for it, and without touching
/// the segment.
#[test]
fn mutators_refuse_results_past_the_cap() {
    let mut seg = SegmentData::from_bytes(b"kept");
    for offset in [usize::MAX, usize::MAX - 1, 1 << 40, MAX_SEGMENT] {
        assert!(!seg.write(offset, b"xy"), "write at {offset}");
        assert!(!seg.write_bytes(offset, Bytes::from(b"xy")), "write_bytes at {offset}");
    }
    assert!(!seg.truncate(MAX_SEGMENT + 1));
    assert!(!seg.truncate(usize::MAX));
    assert!(!seg.replace(Bytes::from(vec![0; MAX_SEGMENT + 1])));
    assert_eq!(&seg.contents()[..], b"kept");

    // The cap itself is reachable, and an append from there is not.
    assert!(seg.truncate(MAX_SEGMENT));
    assert!(seg.write(MAX_SEGMENT - 2, b"xy"));
    assert!(!seg.append(b"z"));
    assert!(!seg.write(MAX_SEGMENT - 1, b"xy"));
    assert_eq!(seg.len(), MAX_SEGMENT);
    assert_eq!(&seg.read(MAX_SEGMENT - 3, 8)[..], b"\0xy");
    assert_eq!(&seg.read(0, 4)[..], b"kept");
}

proptest! {
    /// The extent list matches the Vec<u8> reference model op-for-op —
    /// and its sharing stays invisible and bounded: everything handed
    /// out earlier (a `read`, a `clone()`) keeps equalling the model *as
    /// of when it was taken* through every later mutation, the extent
    /// count stays within `len / 8 KiB + 2`, and the distinct buffers the
    /// segment holds on to stay within `2 × len + 16 KiB`.
    #[test]
    fn segment_matches_model(ops in proptest::collection::vec(seg_op(), 0..30)) {
        let mut seg = SegmentData::new();
        let mut model: Vec<u8> = Vec::new();
        // (what was handed out, what the model said at that moment)
        let mut views: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let mut clones: Vec<(SegmentData, Vec<u8>)> = Vec::new();
        for op in &ops {
            apply_seg(&mut seg, op);
            apply_model(&mut model, op);
            prop_assert_eq!(seg.len(), model.len());
            prop_assert!(seg.contents()[..] == model[..], "contents differ after {:?}", op);
            for (view, then) in &views {
                prop_assert!(view[..] == then[..], "a handed-out view changed after {:?}", op);
            }
            for (clone, then) in &clones {
                prop_assert!(clone.contents()[..] == then[..], "a clone changed after {:?}", op);
            }
            prop_assert!(
                seg.extent_count() <= seg.len() / BLOCK + 2,
                "{} extents for {} bytes after {:?}", seg.extent_count(), seg.len(), op
            );
            prop_assert!(
                seg.pinned_bytes() <= 2 * seg.len() + 2 * BLOCK,
                "{} bytes pinned for {} after {:?}", seg.pinned_bytes(), seg.len(), op
            );
            // A short read (usually a view of one extent) and one long
            // enough to be gathered across several.
            let mid = model.len() / 2;
            for count in [16, 3 * BLOCK] {
                let expect = model[mid..(mid + count).min(model.len())].to_vec();
                views.push((seg.read(mid, count), expect));
            }
            clones.push((seg.clone(), model.clone()));
        }
        // Random-access reads agree too, whatever the count.
        for off in [0usize, 1, model.len() / 2, model.len(), usize::MAX] {
            for count in [16usize, BLOCK + 1, usize::MAX] {
                prop_assert_eq!(
                    &seg.read(off, count)[..],
                    &model[off.min(model.len())..off.saturating_add(count).min(model.len())]
                );
            }
        }
        // Equality is by content, not by how the bytes are cut up.
        prop_assert_eq!(&seg, &SegmentData::from_bytes(&model));
    }

    /// A `Disk`'s durable and volatile sides share a value's buffer, yet a
    /// crash still recovers exactly the synced image: mutating a clone of
    /// what was synced and putting it write-behind never reaches back.
    #[test]
    fn disk_sides_share_a_buffer_but_not_a_fate(
        first in proptest::collection::vec(any::<u8>(), 1..64),
        ops in proptest::collection::vec(seg_op(), 1..10),
    ) {
        let mut disk: Disk<u32, SegmentData> = Disk::new(DiskConfig::workstation());
        let synced = SegmentData::from_bytes(&first);
        disk.put_sync(7, synced.clone());
        let mut later = disk.get(&7).unwrap().clone();
        let mut model = first.clone();
        for op in &ops {
            apply_seg(&mut later, op);
            apply_model(&mut model, op);
        }
        disk.put_async(7, later);
        prop_assert_eq!(&disk.get(&7).unwrap().contents()[..], &model[..]);
        disk.crash();
        prop_assert_eq!(disk.get(&7), Some(&synced));
        prop_assert_eq!(&disk.get(&7).unwrap().contents()[..], &first[..]);
        prop_assert_eq!(disk.lost_writes, 1);
    }

    /// `update_sync` / `update_async` are observationally `get` + change +
    /// `put_sync` / `put_async`: mixed with every other operation, the
    /// values read, the dirty set, the three counters and `durable_bytes`
    /// match the two-map model after each step, and the costs and results
    /// an update returns are the ones the put would have.
    #[test]
    fn disk_update_is_get_then_put(ops in proptest::collection::vec(disk_op(), 0..60)) {
        let cfg = DiskConfig::workstation();
        let mut disk: Disk<u32, Vec<u8>> = Disk::new(cfg);
        let mut model = DiskModel::default();
        for op in &ops {
            let had = model.volatile.get(match op {
                DiskOp::UpdateSync(k, _) | DiskOp::UpdateAsync(k, _) => k,
                _ => &u32::MAX,
            }).map(Vec::len);
            match op {
                DiskOp::PutSync(k, v) => drop(disk.put_sync(*k, v.clone())),
                DiskOp::PutAsync(k, v) => disk.put_async(*k, v.clone()),
                DiskOp::UpdateSync(k, b) => {
                    let got = disk.update_sync(k, |v| { v.push(*b); v.len() });
                    prop_assert_eq!(got, had.map(|len| (len + 1, cfg.write_cost(len + 1))));
                }
                DiskOp::UpdateAsync(k, b) => {
                    let got = disk.update_async(k, |v| { v.push(*b); v.len() });
                    prop_assert_eq!(got, had.map(|len| len + 1));
                }
                DiskOp::DeleteSync(k) => drop(disk.delete_sync(k)),
                DiskOp::DeleteAsync(k) => disk.delete_async(k),
                DiskOp::FlushKey(k) => drop(disk.flush_key(k)),
                DiskOp::Crash => disk.crash(),
            }
            model.apply(op);
            for k in 0..6 {
                prop_assert_eq!(disk.get(&k), model.volatile.get(&k), "key {} after {:?}", k, op);
            }
            prop_assert_eq!(disk.len(), model.volatile.len());
            prop_assert_eq!(
                disk.dirty_keys().copied().collect::<Vec<_>>(),
                model.dirty.iter().copied().collect::<Vec<_>>(),
                "dirty set after {:?}", op
            );
            prop_assert_eq!(
                (disk.sync_writes, disk.async_writes, disk.lost_writes),
                (model.sync_writes, model.async_writes, model.lost_writes),
                "counters after {:?}", op
            );
            prop_assert_eq!(
                disk.durable_bytes(),
                model.durable.values().map(Vec::len).sum::<usize>(),
                "durable bytes after {:?}", op
            );
        }
        // The durable side itself: what a crash brings back.
        disk.crash();
        model.apply(&DiskOp::Crash);
        for k in 0..6 {
            prop_assert_eq!(disk.get(&k), model.volatile.get(&k));
        }
    }

    /// Disk invariant: after a crash, exactly the sync-or-flushed state is
    /// visible; after a flush_all + crash, nothing is lost.
    #[test]
    fn disk_crash_semantics(
        ops in proptest::collection::vec((0u32..8, any::<bool>(), proptest::collection::vec(any::<u8>(), 0..16)), 0..40)
    ) {
        let mut disk: Disk<u32, Vec<u8>> = Disk::new(DiskConfig::workstation());
        let mut durable_model: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        let mut volatile_model: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for (k, sync, v) in &ops {
            if *sync {
                disk.put_sync(*k, v.clone());
                durable_model.insert(*k, v.clone());
            } else {
                disk.put_async(*k, v.clone());
            }
            volatile_model.insert(*k, v.clone());
        }
        // Volatile view sees every write.
        for (k, v) in &volatile_model {
            prop_assert_eq!(disk.get(k), Some(v));
        }
        disk.crash();
        // After crash: sync writes that were not overwritten async... the
        // durable model only tracks the *last sync* value per key, but an
        // async overwrite of a synced key reverts to that synced value.
        for (k, v) in &durable_model {
            prop_assert_eq!(disk.get(k), Some(v));
        }
        for k in volatile_model.keys() {
            if !durable_model.contains_key(k) {
                prop_assert!(disk.get(k).is_none(), "async-only key {} survived crash", k);
            }
        }
    }

    /// flush_all makes everything crash-proof.
    #[test]
    fn flush_makes_durable(
        ops in proptest::collection::vec((0u32..8, proptest::collection::vec(any::<u8>(), 0..16)), 1..30)
    ) {
        let mut disk: Disk<u32, Vec<u8>> = Disk::new(DiskConfig::workstation());
        let mut model: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for (k, v) in &ops {
            disk.put_async(*k, v.clone());
            model.insert(*k, v.clone());
        }
        disk.flush_all();
        disk.crash();
        for (k, v) in &model {
            prop_assert_eq!(disk.get(k), Some(v));
        }
        prop_assert_eq!(disk.lost_writes, 0);
    }
}
