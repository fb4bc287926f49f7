//! Per-server state.
//!
//! §3.5 fixes what must live in non-volatile storage (replica data and
//! metadata, token state, the handle map); everything else — delivery
//! queues, location caches, the failure detector, write-stream state — is
//! volatile and lost on a crash.
//!
//! All hot state (everything keyed by segment or replica key) is
//! partitioned by shard slot, and a server keeps its whole slice of one
//! slot — both stores and every volatile map ([`ServerSlot`]) — behind
//! **one leaf lock**. `ServerState::visit` is the one way the engine
//! reads or changes it: a protocol step that reads or changes several of
//! a file's records at one server is one lock round. A mutation holding
//! its shard's ring lock rewrites exactly its file's slice of every
//! server without exclusive access to the cell. A closure run under the
//! slot lock is a leaf: it takes no lock and visits nothing else — not
//! even the same server, whose lock it already holds — and returns what
//! follows from it to be done after. The type says so: the visits go
//! through [`crate::hot::visit`], whose closure is `'static` (see the
//! module doc of [`crate::hot`]). The `replicas` and `tokens` fields
//! are read-only observers of the same slots ([`ShardedDisk`]) for
//! callers outside the engine.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use deceit_isis::{BcastOutcome, FailureDetector, GroupId, OrderedReceiver, SequencedMsg};
use deceit_net::NodeId;
use deceit_sim::leaf;
use deceit_storage::{DiskConfig, Durability};

use crate::hot::{self, DiskSlot, ShardedDisk, SlotInput, Slots};
use crate::ops::UpdateRecord;
use crate::replica::Replica;
use crate::token::WriteToken;

/// The flat, name-free identity of one segment (§5.1). The NFS envelope
/// maps file handles onto these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u64);

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// A replica is identified by (segment, major version): §3.5 "Every file
/// replica is associated with only one token. The new token represents a
/// distinct new file with a distinct set of replicas."
pub type ReplicaKey = (SegmentId, u64);

/// Volatile, holder-side buffer of updates awaiting batched propagation
/// to the rest of the file group — the buffering half of the
/// asynchronous write pipeline (`ClusterConfig::opt_write_pipeline`).
///
/// Losing this buffer in a crash is safe by construction: every buffered
/// update is already applied (durably, at safety ≥ 1) to the holder's
/// own replica, so recovery finds the authoritative copy intact and the
/// lagging group members are caught up by the §3.1/§3.4 regeneration
/// machinery (stabilize-round state transfer, replica regeneration).
#[derive(Debug, Clone, Default)]
pub(crate) struct OutboundStream {
    /// Updates in subversion order, not yet shipped to the group.
    pub updates: Vec<UpdateRecord>,
    /// Whether a `Pending::PropagateStream` drain is already queued, so
    /// a stream of writes schedules one event, not one per write.
    pub scheduled: bool,
}

/// Volatile, holder-side read lease on one unstable replica
/// (`ClusterConfig::opt_read_leases`).
///
/// While a write stream keeps a file's group unstable, §3.4 forwards
/// every *other* server's reads to the token holder — but the holder
/// itself answers directly, and its replica is the primary copy. The
/// lease is the holder's published promise that its local replica is
/// exactly the acked durable prefix of the stream, so the lock-free read
/// fast path ([`crate::Cluster::try_read_local`]) can serve it without
/// ring locks. The fast path reads the lease and copies the replica out
/// in one visit to the holder's slot, so the invalidation rule is
/// *remove before the fact it asserts stops holding*, under the slot
/// lock — and it is a type: deleting the key's replica or token, or
/// putting a replica over it, takes the `Unleased` handle that only
/// `ServerSlot::unlease` makes, after removing the lease; a crash clears
/// every lease before it reverts the stores (`ServerSlot::crash`).
/// Stabilize unleases when the stream ends. The holder's own write
/// changes its replica in place and advances the lease in the same
/// visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadLease {
    /// The version pair of the stream's acked durable prefix: the fast
    /// path serves the local replica only while its version equals this
    /// exactly.
    pub version: crate::version::VersionPair,
}

/// Volatile, holder-side state of an active write stream on one replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamState {
    /// Whether the group has been marked unstable for the current stream.
    pub group_unstable: bool,
    /// Time of the most recent write in the stream.
    pub last_write: deceit_sim::SimTime,
    /// Bumped on every write; stabilize-checks carry the epoch they were
    /// scheduled under and fire only if it is still current.
    pub epoch: u64,
    /// Whether a stabilize-check is already queued for this stream. A
    /// stream of writes keeps exactly one check pending (re-armed to the
    /// newest quiet horizon when it fires stale) instead of queueing one
    /// per write.
    pub check_scheduled: bool,
}

/// One server's slice of one shard slot: every piece of its hot state for
/// the files in the slot, behind one lock (`ServerState::visit`).
#[derive(Debug)]
pub struct ServerSlot {
    /// Non-volatile replica storage, and the read touches recorded
    /// against it.
    pub(crate) replicas: DiskSlot<Replica>,
    /// Non-volatile token storage.
    pub(crate) tokens: DiskSlot<WriteToken>,
    /// Volatile: per-replica ordered-delivery buffers for in-flight
    /// updates (ABCAST reordering; §3.3 identical-order requirement).
    pub(crate) receivers: BTreeMap<ReplicaKey, OrderedReceiver<UpdateRecord>>,
    /// Volatile: cached segment → file-group mapping, so repeat operations
    /// skip the global search (§3.2).
    pub(crate) group_cache: BTreeMap<SegmentId, GroupId>,
    /// Volatile: active write-stream state for replicas whose token this
    /// server holds.
    pub(crate) streams: BTreeMap<ReplicaKey, StreamState>,
    /// Volatile: per-file outbound update buffers of the asynchronous
    /// write pipeline (empty unless `opt_write_pipeline` is on).
    pub(crate) outbound: BTreeMap<ReplicaKey, OutboundStream>,
    /// Volatile: per-file read leases published while this server holds
    /// the token of an unstable replica (empty unless `opt_read_leases`
    /// is on).
    pub(crate) leases: BTreeMap<ReplicaKey, ReadLease>,
    /// Volatile: replica keys with a read-repair catch-up already queued
    /// for this server, so a burst of reads against one laggard schedules
    /// one repair, not one per read (`opt_read_repair` single-flighting).
    pub(crate) repairs: BTreeMap<ReplicaKey, ()>,
}

impl ServerSlot {
    fn new(disk_cfg: DiskConfig) -> Self {
        ServerSlot {
            replicas: DiskSlot::new(disk_cfg),
            tokens: DiskSlot::new(disk_cfg),
            receivers: BTreeMap::new(),
            group_cache: BTreeMap::new(),
            streams: BTreeMap::new(),
            outbound: BTreeMap::new(),
            leases: BTreeMap::new(),
            repairs: BTreeMap::new(),
        }
    }
}

/// One Deceit server.
///
/// Its hot state lives in [`ServerSlot`]s, one per shard slot, reached
/// through `ServerState::visit`; `replicas` and `tokens` observe the
/// same slots read-only (see the [module](self) doc).
#[derive(Debug)]
pub struct ServerState {
    /// This server's machine identity.
    pub id: NodeId,
    slots: Arc<Slots<ServerSlot>>,
    /// Non-volatile replica storage, sharded by segment (read-only).
    pub replicas: ShardedDisk<Replica>,
    /// Non-volatile token storage, sharded by segment (read-only).
    pub tokens: ShardedDisk<WriteToken>,
    /// Volatile: failure suspicion derived from communication outcomes.
    /// Per-server (not per-file), so it sits behind its own leaf lock.
    pub(crate) fd: Mutex<FailureDetector>,
    /// Count of client operations served by this server (load accounting):
    /// a tally bumped on every served op and read as the §3.1 fill's
    /// least-loaded hint, so every access is `Relaxed`.
    #[expect(
        clippy::disallowed_types,
        reason = "a raw std atomic, not `deceit_sim::atomic::RelaxedU64`, because the benchmark of record calls `.load(Ordering::Relaxed)` on it"
    )]
    pub ops_served: std::sync::atomic::AtomicU64,
}

impl ServerState {
    /// A fresh server with empty disks, hot state sharded over `shards`
    /// slots.
    pub fn new(id: NodeId, disk_cfg: DiskConfig, shards: usize) -> Self {
        let slots = Arc::new(Slots::new(shards, || ServerSlot::new(disk_cfg)));
        ServerState {
            id,
            replicas: ShardedDisk { slots: slots.clone(), part: |s| &s.replicas },
            tokens: ShardedDisk { slots: slots.clone(), part: |s| &s.tokens },
            slots,
            fd: Mutex::new(FailureDetector::new()),
            #[expect(clippy::disallowed_types, reason = "see the `ops_served` field")]
            ops_served: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Runs `f` on this server's slot of `seg` — every map of it — under
    /// one lock round, counting any read touch `f` records into the
    /// pending-touch flag. `f` is a leaf: it goes through
    /// [`crate::hot::visit`], so it owns what it captures and can reach
    /// no other lock (see the [module](self) doc).
    pub(crate) fn visit<R>(
        &self,
        seg: SegmentId,
        f: impl FnOnce(&mut ServerSlot) -> R + 'static,
    ) -> R {
        self.visit_with(seg, (), move |s, ()| f(s))
    }

    /// [`ServerState::visit`], with `input` handed to `f`: the one
    /// borrowed thing a slot closure may read ([`SlotInput`]).
    pub(crate) fn visit_with<I: SlotInput, R>(
        &self,
        seg: SegmentId,
        input: I,
        f: impl FnOnce(&mut ServerSlot, I) -> R + 'static,
    ) -> R {
        let mut slot = self.slots.lock_key(seg.0);
        let before = slot.replicas.touches.len();
        let out = hot::visit(&mut slot, input, f);
        self.slots.add_pending(slot.replicas.touches.len().saturating_sub(before));
        out
    }

    /// `f` of each of this server's slots in turn, one lock round each —
    /// the whole-server scans of recovery and reconciliation. `f` is a
    /// leaf, as for [`ServerState::visit`], and records no touch.
    pub(crate) fn visit_all<R>(
        &self,
        f: impl FnOnce(&mut ServerSlot) -> R + Copy + 'static,
    ) -> impl Iterator<Item = R> + '_ {
        (0..self.slots.len())
            .map(move |i| hot::visit(&mut self.slots.lock_slot(i), (), move |s, ()| f(s)))
    }

    /// Folds the read touches recorded in slot `slot` into `last_access`
    /// of the replicas they touched, under the slot lock, so a concurrent
    /// mutation is never clobbered. A touch is metadata: a replica it
    /// moves is written behind, and one it does not move is not written.
    /// Takes no lock while no touch is buffered in any slot.
    pub(crate) fn apply_touches(&self, slot: usize) {
        if self.slots.pending() == 0 {
            return;
        }
        self.slots.sub_pending(hot::visit(&mut self.slots.lock_slot(slot), (), |s, ()| {
            let touches = std::mem::take(&mut s.replicas.touches);
            let n = touches.len();
            for (k, at) in touches {
                s.replicas.update_with(&k, |r| {
                    let moved = r.last_access < at;
                    r.last_access = r.last_access.max(at);
                    ((), moved.then_some(Durability::Async))
                });
            }
            n
        }));
    }

    /// Folds a communication round's outcome into the failure detector.
    pub(crate) fn observe_round(&self, outcome: &BcastOutcome) {
        leaf::lock(&self.fd).observe_round(outcome);
    }

    /// Simulates a crash: non-volatile state reverts to its durable
    /// contents; volatile state is lost.
    ///
    /// Each slot is reverted whole under its lock, leases first
    /// (`ServerSlot::crash`): a leased read sees the slot either
    /// before the crash or after it, never a lease beside reverted
    /// contents.
    pub fn crash(&self) {
        for i in 0..self.slots.len() {
            self.slots.sub_pending(hot::visit(&mut self.slots.lock_slot(i), (), |s, ()| s.crash()));
        }
        *leaf::lock(&self.fd) = FailureDetector::new();
    }

    /// Whether this server stores any replica of `seg` (any major).
    pub fn has_segment(&self, seg: SegmentId) -> bool {
        self.visit(seg, move |s| s.replicas.latest(seg).is_some())
    }

    /// All major versions of `seg` stored here, ascending. A range scan
    /// within the segment's one shard slot, not a sweep of every replica
    /// on the server.
    pub fn majors_of(&self, seg: SegmentId) -> Vec<u64> {
        self.visit(seg, move |s| s.replicas.segment(seg).map(|(major, _)| major).collect())
    }

    /// Whether this server holds the write token for a replica.
    pub fn holds_token(&self, key: ReplicaKey) -> bool {
        self.visit(key.0, move |s| s.tokens.disk().contains(&key))
    }

    /// Routes one sequenced update through the replica's ordered-delivery
    /// buffer (created on first use to expect the update after the
    /// replica's current subversion), returning whatever became
    /// deliverable in order.
    pub(crate) fn receive_ordered(
        &self,
        key: ReplicaKey,
        msg: SequencedMsg<UpdateRecord>,
    ) -> Vec<(u64, UpdateRecord)> {
        self.visit(key.0, move |s| {
            let start = s.replicas.disk().get(&key).map_or(1, |r| r.version.sub + 1);
            s.receivers
                .entry(key)
                .or_insert_with(|| OrderedReceiver::starting_at(start))
                .receive(msg)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FileParams;
    use deceit_sim::SimTime;

    fn server() -> ServerState {
        ServerState::new(NodeId(0), DiskConfig::workstation(), 8)
    }

    fn replica(major: u64) -> Replica {
        Replica::new(major, FileParams::default(), SimTime::ZERO)
    }

    fn version(sub: u64) -> crate::version::VersionPair {
        crate::version::VersionPair { major: 0, sub }
    }

    /// Stores `r` at `key`, durably.
    fn put(s: &ServerState, key: ReplicaKey, r: Replica) {
        s.visit(key.0, move |slot| slot.unlease(key).put_replica(r));
    }

    #[test]
    fn segment_queries() {
        let s = server();
        let seg = SegmentId(7);
        assert!(!s.has_segment(seg));
        put(&s, (seg, 0), replica(0));
        put(&s, (seg, 3), replica(3));
        assert!(s.has_segment(seg));
        assert_eq!(s.majors_of(seg), vec![0, 3]);
        assert!(s.majors_of(SegmentId(9)).is_empty());
    }

    /// A visit changes several maps of one slot under one lock: a
    /// concurrent visit sees all of the change or none of it.
    #[test]
    fn a_visit_changes_several_maps_of_a_slot_atomically() {
        use deceit_sim::atomic::PublishedBool;
        use std::thread;

        let s = Arc::new(server());
        let key = (SegmentId(3), 0);
        s.visit(key.0, move |slot| {
            slot.unlease(key).put_replica(replica(0));
            slot.leases.insert(key, ReadLease { version: version(0) });
        });
        let stop = Arc::new(PublishedBool::new(false));
        let reader = {
            let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
            thread::spawn(move || {
                let mut seen = 0u64;
                loop {
                    s.visit(key.0, move |slot| {
                        let lease = slot.leases[&key].version;
                        let epoch = slot.streams.get(&key).map_or(0, |st| st.epoch);
                        assert_eq!(Some(lease), slot.replicas.disk().get(&key).map(|r| r.version));
                        assert_eq!(epoch, lease.sub, "the stream moved with the lease");
                    });
                    seen += 1;
                    if stop.load() {
                        return seen;
                    }
                }
            })
        };
        for _ in 0..2_000 {
            s.visit(key.0, move |slot| {
                let next = slot.leases[&key].version.bump();
                slot.replicas.update_with(&key, |r| (r.version = next, Some(Durability::Sync)));
                slot.leases.insert(key, ReadLease { version: next });
                slot.streams.entry(key).or_default().epoch = next.sub;
            });
        }
        stop.store(true);
        assert!(reader.join().unwrap() > 0);
        let end = s.visit(key.0, move |slot| {
            let epoch = slot.streams.get(&key).map(|st| st.epoch);
            (slot.leases.get(&key).copied(), epoch, slot.replicas.disk().sync_writes)
        });
        assert_eq!(end, (Some(ReadLease { version: version(2_000) }), Some(2_000), 2_001));
    }

    /// The touch-accounting crash race on a server, with visits that
    /// record one touch, several touches, or a repeat of a key already
    /// buffered (which adds nothing to the flag), racing crashes and
    /// applies. The fast flag may over-report while they run, but it
    /// settles to the truth and never hides a buffered touch from the
    /// apply fold.
    #[test]
    fn touch_flag_never_under_reports_across_visits_and_crashes() {
        use deceit_sim::atomic::PublishedBool;
        use std::thread;

        let s = Arc::new(ServerState::new(NodeId(0), DiskConfig::workstation(), 4));
        let seed = |s: &ServerState| {
            for seg in 0..8u64 {
                put(s, (SegmentId(seg), 0), replica(0));
            }
        };
        seed(&s);
        let stop = Arc::new(PublishedBool::new(false));
        let readers: Vec<_> = (0..3u64)
            .map(|t| {
                let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
                thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load() {
                        let seg = (i + t) % 8;
                        let (key, at) = ((SegmentId(seg), 0), SimTime::from_micros(i));
                        // Segments `seg` and `seg ^ 4` share a slot.
                        let twin = (SegmentId(seg ^ 4), 0);
                        s.visit(key.0, move |slot| match i % 3 {
                            0 => slot.replicas.record_touch(key, at),
                            1 => {
                                slot.replicas.record_touch(key, at);
                                slot.replicas.record_touch(twin, at);
                            }
                            _ => {
                                slot.replicas.record_touch(key, at);
                                slot.replicas.record_touch(key, at);
                            }
                        });
                        i += 1;
                    }
                })
            })
            .collect();
        for round in 0..300 {
            if round % 3 == 0 {
                s.crash();
                seed(&s);
            }
            (0..4).for_each(|slot| s.apply_touches(slot));
        }
        stop.store(true);
        for r in readers {
            r.join().unwrap();
        }
        (0..4).for_each(|slot| s.apply_touches(slot));
        assert_eq!(s.slots.pending(), 0, "flag settles to the truth");
        let (key, late) = ((SegmentId(1), 0), SimTime::from_micros(1 << 40));
        s.visit(key.0, move |slot| slot.replicas.record_touch(key, late));
        s.apply_touches(1);
        let applied =
            s.visit(key.0, move |slot| slot.replicas.disk().get(&key).map(|r| r.last_access));
        assert_eq!(applied, Some(late), "fast flag hid a buffered touch");
    }

    /// A crash reverts every map of a slot together, under its lock.
    #[test]
    fn crash_reverts_every_map_of_a_slot_together() {
        let s = server();
        let key = (SegmentId(5), 0);
        let behind = Some(deceit_storage::Durability::Async);
        s.visit(key.0, move |slot| {
            slot.unlease(key).put_replica(replica(0));
            slot.tokens.put(key, WriteToken::new(version(0), NodeId(0)));
        });
        s.visit(key.0, move |slot| {
            slot.replicas.update_with(&key, |r| (r.version = version(9), behind));
            slot.tokens.update_with(&key, |t| (t.version = version(9), behind));
            slot.leases.insert(key, ReadLease { version: version(9) });
            slot.streams.insert(key, StreamState { group_unstable: true, ..Default::default() });
            slot.outbound.insert(key, OutboundStream::default());
            slot.receivers.insert(key, OrderedReceiver::starting_at(10));
            slot.group_cache.insert(key.0, GroupId(1));
            slot.repairs.insert(key, ());
            slot.replicas.record_touch(key, SimTime::from_micros(7));
        });
        assert_eq!(s.slots.pending(), 1, "a visit's touch is counted");
        s.crash();
        s.visit(key.0, move |slot| {
            assert_eq!(slot.replicas.disk().get(&key).map(|r| r.version), Some(version(0)));
            assert_eq!(slot.tokens.disk().get(&key).map(|t| t.version), Some(version(0)));
            assert!(slot.leases.is_empty() && slot.streams.is_empty() && slot.outbound.is_empty());
            assert!(slot.receivers.is_empty() && slot.group_cache.is_empty());
            assert!(slot.repairs.is_empty());
            assert!(slot.replicas.touches.is_empty());
            assert_eq!((slot.replicas.disk().lost_writes, slot.tokens.disk().lost_writes), (1, 1));
        });
        assert_eq!(s.slots.pending(), 0, "dropped touches leave the flag");
    }

    #[test]
    fn crash_preserves_durable_loses_volatile() {
        let s = server();
        let (seg, key) = (SegmentId(1), (SegmentId(1), 0));
        s.visit(seg, move |slot| {
            slot.unlease(key).put_replica(replica(0));
            slot.group_cache.insert(seg, GroupId(5));
            slot.streams.insert(key, StreamState::default());
            slot.leases.insert(key, ReadLease { version: version(3) });
            slot.repairs.insert(key, ());
        });
        s.crash();
        assert!(s.has_segment(seg), "durable replica survives");
        s.visit(seg, move |slot| {
            assert!(slot.group_cache.is_empty() && slot.streams.is_empty());
            assert!(slot.leases.is_empty(), "read leases are volatile");
            assert!(slot.repairs.is_empty(), "repair single-flight flags are volatile");
        });
    }

    #[test]
    fn ordered_receiver_starts_after_current_sub() {
        let s = server();
        let seg = SegmentId(1);
        let mut r = replica(0);
        r.version.sub = 4;
        put(&s, (seg, 0), r);
        // An update matching the next expected subversion delivers; a
        // stale one does not.
        let upd = |sub: u64| UpdateRecord {
            new_version: crate::version::VersionPair { major: 0, sub },
            op: crate::ops::WriteOp::Truncate(0),
        };
        let out = s.receive_ordered((seg, 0), SequencedMsg { seq: 5, payload: upd(5) });
        assert_eq!(out.len(), 1);
        let out = s.receive_ordered((SegmentId(2), 0), SequencedMsg { seq: 3, payload: upd(3) });
        assert!(out.is_empty(), "unknown replica expects sub 1 first");
    }
}
