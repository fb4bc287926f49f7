//! Property tests: the simulated disk and segment data behave like their
//! obvious reference models under arbitrary operation sequences.

use bytes::Bytes;
use deceit_storage::{Disk, DiskConfig, SegmentData};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum SegOp {
    Write { offset: usize, data: Vec<u8> },
    Append { data: Vec<u8> },
    Truncate { len: usize },
    Replace { data: Vec<u8> },
}

fn seg_op() -> impl Strategy<Value = SegOp> {
    prop_oneof![
        (0usize..64, proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(offset, data)| SegOp::Write { offset, data }),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(|data| SegOp::Append { data }),
        (0usize..128).prop_map(|len| SegOp::Truncate { len }),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(|data| SegOp::Replace { data }),
    ]
}

/// Reference model: a plain Vec<u8> with the same semantics.
fn apply_model(model: &mut Vec<u8>, op: &SegOp) {
    match op {
        SegOp::Write { offset, data } => {
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
    match op {
        SegOp::Write { offset, data } => seg.write(*offset, data),
        SegOp::Append { data } => seg.append(data),
        SegOp::Truncate { len } => seg.truncate(*len),
        SegOp::Replace { data } => seg.replace(Bytes::from(data.clone())),
    }
}

proptest! {
    /// SegmentData matches the Vec<u8> reference model op-for-op — and,
    /// because its buffer is shared rather than copied, everything handed
    /// out earlier (a `contents()`, a `read`, a `clone()`) keeps equalling
    /// the model *as of when it was taken* through every later mutation.
    #[test]
    fn segment_matches_model(ops in proptest::collection::vec(seg_op(), 0..60)) {
        let mut seg = SegmentData::new();
        let mut model: Vec<u8> = Vec::new();
        // (what was handed out, what the model said at that moment)
        let mut views: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let mut clones: Vec<(SegmentData, Vec<u8>)> = Vec::new();
        for op in &ops {
            apply_seg(&mut seg, op);
            apply_model(&mut model, op);
            prop_assert_eq!(seg.len(), model.len());
            for (view, then) in &views {
                prop_assert_eq!(&view[..], &then[..], "a handed-out view changed after {:?}", op);
            }
            for (clone, then) in &clones {
                prop_assert_eq!(&clone.contents()[..], &then[..], "a clone changed after {:?}", op);
            }
            let mid = model.len() / 2;
            views.push((seg.contents(), model.clone()));
            views.push((seg.read(mid, 16), model[mid..(mid + 16).min(model.len())].to_vec()));
            clones.push((seg.clone(), model.clone()));
        }
        prop_assert_eq!(&seg.contents()[..], &model[..]);
        // Random-access reads agree too, whatever the count.
        for off in [0usize, 1, model.len() / 2, model.len(), usize::MAX] {
            for count in [16usize, usize::MAX] {
                prop_assert_eq!(
                    &seg.read(off, count)[..],
                    &model[off.min(model.len())..off.saturating_add(count).min(model.len())]
                );
            }
        }
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
