//! The ShardKey-indexed hot-state seam.
//!
//! The engine's state divides into *cold* cell-wide state (membership,
//! topology, configuration, allocators) and *hot* per-file state: replica
//! tables, token tables, ordered-delivery buffers, write-stream state,
//! location caches, branch tables, and the deferred-work queue. This
//! module holds the containers the hot state lives in.
//!
//! Every container is physically partitioned by shard slot
//! ([`crate::shard_slot`] of the segment id), with **one leaf lock per
//! slot** ([`Slots`]). A server keeps its whole slice of a slot — replica
//! and token stores, delivery buffers, location cache, stream, pipeline
//! and lease state, single-flight flags ([`crate::server::ServerSlot`]) —
//! behind one lock, and `ServerState::visit` is the one
//! way the engine reads or changes it: a protocol step that touches
//! several of a file's records at one server is one lock round. The
//! branch tables have slots of their own ([`crate::Cluster::with_branch_table`]);
//! [`ShardedDisk`] only observes, for callers outside the engine. So:
//!
//! * all access works through `&self` — protocol code can mutate one
//!   file's hot state while holding only the host's *shared* cell lock;
//! * operations on files in different slots touch disjoint lock sets and
//!   proceed concurrently;
//! * the slot locks are *leaf* locks, held only across one visit, never
//!   while taking another lock — so they can never participate in a
//!   deadlock cycle.
//!
//! **Closures under a slot lock are leaves.** A visit runs a closure with
//! the slot locked, because the protocol's common step is "find this
//! file's records and change a few fields of them", and doing that where
//! the records lie is one lock round and no copy. The price is a rule the
//! type system does not enforce: such a closure takes no lock of its own
//! — not another visit (one lock guards all of a server's slot, so a
//! visit of the same server deadlocks on itself), no network send, no
//! event push, no group-table call. What it needs from elsewhere (the
//! clock, reachability, a majority) is computed before the call; what
//! follows from the change (a flush to schedule, an event to emit) is
//! returned from the closure and done after it.
//! [`deceit_net::Network::reachable`] and [`crate::Cluster::now`] read
//! plain fields and an atomic, and are the only outside calls such
//! closures make. Debug builds assert that no thread takes a slot lock
//! while holding one ([`deceit_sim::leaf::lock_slot`]); the levels above
//! the slots, cell then ascending rings, are carried by the types of the
//! runtime's `shard::CellLock`. The leaf rule itself is lexical, so it is
//! the one lock rule left to `deceit-lint`: its `lock-order` rule rejects
//! `self` inside a closure handed to `visit` or `visit_all`.
//!
//! Exclusion between two protocol executions touching the *same* file is
//! not this module's job: the hosting layer serializes them on the shard
//! ring lock their [`crate::OpClass`] declares (or on the exclusive cell
//! lock). The data locks here only make the interleaving of *independent*
//! executions sound.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use deceit_sim::atomic::{PublishedU64, RelaxedU64};
use deceit_sim::leaf::{self, SlotGuard};
use deceit_sim::{EventQueue, SimTime};
use deceit_storage::{Disk, DiskConfig, StoredSize};

use crate::event::Pending;
use crate::host::{shard_slot, ShardKey};
use crate::server::{ReplicaKey, SegmentId, ServerSlot};

fn lock<T>(m: &Mutex<T>) -> SlotGuard<'_, T> {
    leaf::lock_slot(m)
}

/// State partitioned by shard slot, one leaf lock per slot.
#[derive(Debug)]
pub struct Slots<S> {
    slots: Box<[Mutex<S>]>,
    /// Pending recorded read touches across all slots — lets the touch
    /// fold skip every slot lock when nothing is buffered, which is the
    /// common case on mutation entry (see
    /// [`crate::server::ServerState::apply_touches`]). A skip hint, so
    /// relaxed: the touches it counts are read under their slot's lock,
    /// and a stale count costs one slot-lock probe.
    pending_touches: RelaxedU64,
}

impl<S> Slots<S> {
    /// `shards` slots (at least one), each made by `mk`.
    pub fn new(shards: usize, mut mk: impl FnMut() -> S) -> Self {
        Slots {
            slots: (0..shards.max(1)).map(|_| Mutex::new(mk())).collect(),
            pending_touches: RelaxedU64::new(0),
        }
    }

    /// Locks slot `i`: one leaf-lock round.
    pub(crate) fn lock_slot(&self, i: usize) -> SlotGuard<'_, S> {
        lock(&self.slots[i])
    }

    /// Runs `f` on every slot in turn, one lock at a time.
    pub(crate) fn each(&self, mut f: impl FnMut(&mut S)) {
        for slot in self.slots.iter() {
            f(&mut lock(slot));
        }
    }

    /// Locks the slot `key` routes to.
    pub(crate) fn lock_key(&self, key: ShardKey) -> SlotGuard<'_, S> {
        self.lock_slot(shard_slot(key, self.slots.len()))
    }

    /// Counts `n` newly buffered read touches into the fast flag. Called
    /// under the slot lock the touches were buffered under.
    pub(crate) fn add_pending(&self, n: usize) {
        if n > 0 {
            self.pending_touches.fetch_add(n as u64);
        }
    }

    /// Decrements the pending-touch fast flag without ever wrapping.
    ///
    /// Every mutation of the counter happens under some slot's data lock,
    /// but the counter itself is global across slots, so two slots'
    /// drains race on it. The adds and subs are balanced by construction
    /// (each buffered touch is counted exactly once in, once out), but a
    /// plain `fetch_sub` turns any future accounting slip into a wrapped
    /// counter that reads as "billions pending" — or, worse, a later
    /// balancing add lands on the wrapped value and the flag reads zero
    /// with touches still buffered, wedging the pump's fast-path skip
    /// permanently. Saturating keeps the flag self-healing: it can
    /// transiently over-report (harmless — one extra slot probe) but can
    /// never wedge below the true count.
    pub(crate) fn sub_pending(&self, n: usize) {
        if n == 0 {
            return;
        }
        self.pending_touches.saturating_sub(n as u64);
    }

    /// The pending-touch fast flag. A stale zero is impossible (the flag
    /// saturates, never under-reports); a stale nonzero costs one
    /// slot-lock probe.
    pub(crate) fn pending(&self) -> usize {
        self.pending_touches.load() as usize
    }
}

/// One server's store in one slot: the durable/volatile [`Disk`], and the
/// read touches recorded against it but not yet folded in.
///
/// The touch buffer is how the lock-free read fast path feeds the LRU: a
/// read records an access (`DiskSlot::served`) without mutating the
/// value, and `ServerState::apply_touches` folds the
/// recorded accesses into the values *under the slot lock*, so a
/// concurrent mutation can never be clobbered by a stale clone.
#[derive(Debug)]
pub struct DiskSlot<V: Clone + StoredSize> {
    pub(crate) disk: Disk<ReplicaKey, V>,
    pub(crate) touches: BTreeMap<ReplicaKey, SimTime>,
}

impl<V: Clone + StoredSize> DiskSlot<V> {
    /// An empty slot with the given disk timing.
    pub fn new(cfg: DiskConfig) -> Self {
        DiskSlot { disk: Disk::new(cfg), touches: BTreeMap::new() }
    }

    /// Every major of `seg` stored here with its value, ascending — a
    /// range scan within the one slot the segment lives in.
    pub(crate) fn segment(&self, seg: SegmentId) -> impl Iterator<Item = (u64, &V)> {
        let d = &self.disk;
        d.keys_in_range(&(seg, 0), &(seg, u64::MAX)).filter_map(|k| Some((k.1, d.get(k)?)))
    }

    /// The key of the newest (highest-numbered) major of `seg` stored
    /// here.
    pub(crate) fn latest(&self, seg: SegmentId) -> Option<ReplicaKey> {
        self.disk.keys_in_range(&(seg, 0), &(seg, u64::MAX)).last().copied()
    }

    /// What `f` serves from the value of `k`, recording a read touch of
    /// `k` at `at` when it serves — the read and its LRU input in one
    /// lock round.
    pub(crate) fn served<R>(
        &mut self,
        k: ReplicaKey,
        at: SimTime,
        f: impl FnOnce(&V) -> Option<R>,
    ) -> Option<R> {
        let out = f(self.disk.get(&k)?)?;
        self.record_touch(k, at);
        Some(out)
    }

    /// Buffers one read touch of `k` at `at`, deduplicated by key (so the
    /// buffer is bounded by the entry count). Whoever holds the slot lock
    /// counts a grown buffer into the fast flag before releasing it
    /// ([`Slots::add_pending`]).
    pub(crate) fn record_touch(&mut self, k: ReplicaKey, at: SimTime) {
        let entry = self.touches.entry(k).or_insert(at);
        *entry = (*entry).max(at);
    }

    /// Reverts the store to its durable contents and drops the buffered
    /// touches, returning how many were dropped.
    pub(crate) fn crash(&mut self) -> usize {
        self.disk.crash();
        std::mem::take(&mut self.touches).len()
    }
}

/// One store of a server — its replicas or its tokens — across every
/// slot, read-only: owned copies and totals, one slot lock per call.
///
/// The engine reads and changes a store only inside a visit
/// (`ServerState::visit`); these observers are for
/// callers outside it — tests, statfs, the benchmark's storage figures.
/// Nothing can be written through them:
///
/// ```
/// use deceit_core::{Cluster, ClusterConfig, SegmentId};
/// use deceit_net::NodeId;
///
/// let c = Cluster::new(1, ClusterConfig::deterministic());
/// let replicas = &c.server(NodeId(0)).replicas;
/// assert!(replicas.get(&(SegmentId(0), 0)).is_none() && replicas.is_empty());
/// ```
///
/// ```compile_fail
/// # use deceit_core::{Cluster, ClusterConfig, SegmentId};
/// # use deceit_net::NodeId;
/// # let c = Cluster::new(1, ClusterConfig::deterministic());
/// let replica = c.server(NodeId(0)).replicas.get(&(SegmentId(0), 0)).unwrap();
/// c.server(NodeId(0)).replicas.put_sync((SegmentId(0), 0), replica);
/// ```
///
/// ```compile_fail
/// # use deceit_core::{Cluster, ClusterConfig, SegmentId};
/// # use deceit_net::NodeId;
/// # let c = Cluster::new(1, ClusterConfig::deterministic());
/// c.server(NodeId(0)).tokens.update_with(&(SegmentId(0), 0), |t| ((), None));
/// ```
#[derive(Debug)]
pub struct ShardedDisk<V: Clone + StoredSize> {
    pub(crate) slots: Arc<Slots<ServerSlot>>,
    pub(crate) part: fn(&ServerSlot) -> &DiskSlot<V>,
}

impl<V: Clone + StoredSize> ShardedDisk<V> {
    /// `f` of the store's slot of `k`, under its lock.
    fn at<R>(&self, k: &ReplicaKey, f: impl FnOnce(&Disk<ReplicaKey, V>) -> R) -> R {
        f(&(self.part)(&self.slots.lock_key(k.0 .0)).disk)
    }

    /// Sums `f` over every slot, one lock at a time.
    fn sum<T: std::ops::AddAssign + Default>(&self, f: impl Fn(&Disk<ReplicaKey, V>) -> T) -> T {
        let mut total = T::default();
        self.slots.each(|s| total += f(&(self.part)(s).disk));
        total
    }

    /// An owned copy of the newest value (volatile view).
    pub fn get(&self, k: &ReplicaKey) -> Option<V> {
        self.at(k, |d| d.get(k).cloned())
    }

    /// Whether the key currently exists (volatile view).
    pub fn contains(&self, k: &ReplicaKey) -> bool {
        self.at(k, |d| d.contains(k))
    }

    /// Number of live entries (volatile view).
    pub fn len(&self) -> usize {
        self.sum(Disk::len)
    }

    /// Whether no entries exist (volatile view).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total durable bytes (capacity accounting).
    pub fn durable_bytes(&self) -> usize {
        self.sum(Disk::durable_bytes)
    }

    /// Total synchronous writes performed.
    pub fn sync_writes(&self) -> u64 {
        self.sum(|d| d.sync_writes)
    }

    /// Total asynchronous writes performed.
    pub fn async_writes(&self) -> u64 {
        self.sum(|d| d.async_writes)
    }

    /// Writes lost to crashes (unflushed at crash time).
    pub fn lost_writes(&self) -> u64 {
        self.sum(|d| d.lost_writes)
    }
}

/// The cluster's deferred-work queue, partitioned by shard slot.
///
/// Each [`Pending`] routes to the slot of its [`Pending::shard_hint`].
/// All queues share one atomic sequence source, so a global pop (the
/// simulator's drain) observes the exact `(time, seq)` order a single
/// queue would have produced, while a per-slot pop (the live pump, the
/// sharded mutation path) never needs any other slot's lock.
///
/// Each slot also publishes the due time of its earliest event, so the
/// question every client operation asks twice — "is anything of mine
/// due?" — is answered without a lock when the answer is no.
#[derive(Debug)]
pub(crate) struct ShardedEvents {
    slots: Box<[EventSlot]>,
    /// Sequence allocator: uniqueness needs only read-modify-write
    /// atomicity.
    seq: RelaxedU64,
    /// Advisory length: the queues behind the slot locks are the
    /// authority, and a stale length costs one wasted probe.
    len: RelaxedU64,
}

#[derive(Debug)]
struct EventSlot {
    queue: Mutex<EventQueue<Pending>>,
    /// Due time (µs) of the queue's earliest event; `u64::MAX` when it
    /// is empty. Written only under the queue lock, after every change
    /// to the queue, so it is exact whenever the lock is free; a reader
    /// racing a push sees the queue as it was before the push.
    earliest: PublishedU64,
}

impl EventSlot {
    fn new() -> Self {
        EventSlot { queue: Mutex::new(EventQueue::new()), earliest: PublishedU64::new(u64::MAX) }
    }

    /// Runs `f` on the locked queue and republishes the earliest due
    /// time before the lock is released — the only way the queue is
    /// ever changed.
    fn change<R>(&self, f: impl FnOnce(&mut EventQueue<Pending>) -> R) -> R {
        let mut q = lock(&self.queue);
        let out = f(&mut q);
        let earliest = q.peek_time().map_or(u64::MAX, |t| t.as_micros());
        self.earliest.store(earliest);
        out
    }

    /// Whether the slot holds nothing due by `deadline` (nothing at all,
    /// for `None`) — lock-free.
    fn nothing_due(&self, deadline: Option<SimTime>) -> bool {
        let earliest = self.earliest.load();
        deadline.map_or(earliest == u64::MAX, |d| earliest > d.as_micros())
    }
}

impl ShardedEvents {
    /// An empty queue over `shards` slots (at least one, at most 64 so a
    /// pending-work scan fits in one `u64` mask).
    pub(crate) fn new(shards: usize) -> Self {
        let shards = shards.clamp(1, 64);
        ShardedEvents {
            slots: (0..shards).map(|_| EventSlot::new()).collect(),
            seq: RelaxedU64::new(0),
            len: RelaxedU64::new(0),
        }
    }

    /// Number of shard slots.
    pub(crate) fn shard_count(&self) -> usize {
        self.slots.len()
    }

    fn slot_of(&self, ev: &Pending) -> usize {
        shard_slot(ev.shard_hint(), self.slots.len())
    }

    /// Schedules `ev` at `at` in its slot's queue.
    pub(crate) fn push(&self, at: SimTime, ev: Pending) {
        let seq = self.seq.fetch_add(1);
        let slot = self.slot_of(&ev);
        self.slots[slot].change(|q| q.push_with_seq(at, seq, ev));
        self.len.fetch_add(1);
    }

    /// Pops the globally earliest event (any due time).
    pub(crate) fn pop(&self) -> Option<(SimTime, Pending)> {
        self.pop_from(None, None)
    }

    /// Pops the globally earliest event due at or before `deadline`.
    pub(crate) fn pop_due(&self, deadline: SimTime) -> Option<(SimTime, Pending)> {
        self.pop_from(None, Some(deadline))
    }

    /// Pops the earliest event of the given slots due at or before
    /// `deadline` — the scoped drain of the sharded mutation path.
    pub(crate) fn pop_due_slots(
        &self,
        slots: &[usize],
        deadline: SimTime,
    ) -> Option<(SimTime, Pending)> {
        self.pop_from(Some(slots), Some(deadline))
    }

    /// Pops the earliest *ready* event of one slot: anything already due
    /// at `now`, plus any not-yet-due event that is not time-gated
    /// ([`Pending::due_gated`]) — the live pump's per-shard drain, which
    /// advances deferred work eagerly without declaring time conditions
    /// satisfied early.
    pub(crate) fn pop_slot_ready(&self, slot: usize, now: SimTime) -> Option<(SimTime, Pending)> {
        let out = self.slots[slot].change(|q| q.pop_ready(|at, ev| at <= now || !ev.due_gated()));
        if out.is_some() {
            self.len.fetch_sub(1);
        }
        out
    }

    fn pop_from(
        &self,
        slots: Option<&[usize]>,
        deadline: Option<SimTime>,
    ) -> Option<(SimTime, Pending)> {
        // Find the slot holding the globally earliest (time, seq) key,
        // then pop from it. Single-threaded callers (the simulator, the
        // exclusive path) see the exact order one queue would produce;
        // concurrent scoped callers only race with pushes, and popping a
        // newly earlier event instead is equally valid. A slot whose
        // published earliest due time rules it out is not locked at all.
        let candidate = |i: usize| {
            let slot = &self.slots[i];
            if slot.nothing_due(deadline) {
                return None;
            }
            let key = lock(&slot.queue).peek_key()?;
            match deadline {
                Some(d) if key.0 > d => None,
                _ => Some((key, i)),
            }
        };
        let best = match slots {
            Some(list) => list.iter().filter_map(|&i| candidate(i)).min(),
            None => (0..self.slots.len()).filter_map(candidate).min(),
        };
        let (_, slot) = best?;
        let out = self.slots[slot].change(|q| match deadline {
            Some(d) => q.pop_due(d),
            None => q.pop(),
        });
        if out.is_some() {
            self.len.fetch_sub(1);
        }
        out
    }

    /// Pending events in one slot.
    pub(crate) fn slot_len(&self, slot: usize) -> usize {
        lock(&self.slots[slot].queue).len()
    }

    /// Pending events that are time-gated (diagnostics and tests).
    #[cfg(test)]
    pub(crate) fn gated_len(&self) -> usize {
        self.slots.iter().map(|s| lock(&s.queue).iter().filter(|e| e.due_gated()).count()).sum()
    }

    /// Total pending events. Lock-free.
    pub(crate) fn len(&self) -> usize {
        self.len.load() as usize
    }

    /// Bitmask of slots with pending work — allocation-free, one lock
    /// probe per slot. (Production paths use [`ShardedEvents::ready_mask`];
    /// this unfiltered form remains for tests pinning queue contents.)
    #[cfg(test)]
    pub(crate) fn pending_mask(&self) -> u64 {
        let mut mask = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            if !lock(&slot.queue).is_empty() {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Bitmask of slots with work a live pump can fire at `now`: due
    /// events plus anything not time-gated. A slot holding only parked
    /// future checks reports clear, so an otherwise idle pump does not
    /// contend on its ring lock every interval.
    pub(crate) fn ready_mask(&self, now: SimTime) -> u64 {
        let mut mask = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.nothing_due(None) {
                continue;
            }
            if lock(&slot.queue).any_entry(|at, ev| at <= now || !ev.due_gated()) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Drops every pending event for which `pred` returns false.
    pub(crate) fn retain(&self, mut pred: impl FnMut(&Pending) -> bool) {
        let mut removed = 0usize;
        for slot in self.slots.iter() {
            removed += slot.change(|q| {
                let before = q.len();
                q.retain(&mut pred);
                before - q.len()
            });
        }
        self.len.fetch_sub(removed as u64);
    }

    /// Removes and returns every event of `key`'s slot matching `pred`,
    /// in queue order — the ordered-drain primitive behind
    /// write-through catch-up.
    pub(crate) fn drain_matching(
        &self,
        key_slot: usize,
        mut pred: impl FnMut(&Pending) -> bool,
    ) -> Vec<Pending> {
        let mut drained = Vec::new();
        self.slots[key_slot].change(|q| {
            q.retain(|ev| {
                if pred(ev) {
                    drained.push(ev.clone());
                    false
                } else {
                    true
                }
            });
        });
        self.len.fetch_sub(drained.len() as u64);
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FileParams;
    use crate::replica::Replica;
    use crate::server::ServerState;
    use deceit_net::NodeId;
    use deceit_storage::Durability;

    fn apply_ev(seg: u64, at_us: u64) -> (SimTime, Pending) {
        (
            SimTime::from_micros(at_us),
            Pending::StabilizeCheck { server: NodeId(0), key: (SegmentId(seg), 0), epoch: 0 },
        )
    }

    #[test]
    fn sharded_events_pop_in_global_order() {
        let q = ShardedEvents::new(4);
        // Interleave pushes across slots with equal and distinct times.
        for (seg, at) in [(0, 30), (1, 10), (2, 10), (3, 20), (4, 10)] {
            let (t, ev) = apply_ev(seg, at);
            q.push(t, ev);
        }
        let order: Vec<u64> =
            std::iter::from_fn(|| q.pop()).map(|(_, ev)| ev.shard_hint()).collect();
        // Time order, FIFO within equal times — exactly one queue's order.
        assert_eq!(order, vec![1, 2, 4, 3, 0]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn scoped_pop_never_touches_other_slots() {
        let q = ShardedEvents::new(4);
        for (seg, at) in [(0, 5), (1, 1), (2, 1)] {
            let (t, ev) = apply_ev(seg, at);
            q.push(t, ev);
        }
        // Scope {0}: slot 1/2 events are earlier but out of scope.
        let (_, ev) = q.pop_due_slots(&[0], SimTime::from_micros(100)).unwrap();
        assert_eq!(ev.shard_hint(), 0);
        assert!(q.pop_due_slots(&[0], SimTime::from_micros(100)).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pending_mask(), 0b0110);
    }

    /// The earliest-due hint is what lets a scoped pop skip a slot's
    /// lock: it must follow every way the queue changes.
    #[test]
    fn earliest_due_hint_tracks_the_queue() {
        let q = ShardedEvents::new(4);
        let at = SimTime::from_micros;
        assert!(q.slots[1].nothing_due(None));
        for (seg, due) in [(1, 30), (5, 10), (9, 20)] {
            let (t, ev) = apply_ev(seg, due);
            q.push(t, ev);
        }
        assert!(q.slots[1].nothing_due(Some(at(9))) && !q.slots[1].nothing_due(Some(at(10))));
        assert!(q.pop_due_slots(&[1], at(9)).is_none());
        assert_eq!(q.pop_due_slots(&[1], at(10)).map(|(t, _)| t), Some(at(10)));
        assert!(q.slots[1].nothing_due(Some(at(19))), "a pop republishes the next due time");
        // Removal by predicate republishes too.
        let drained = q.drain_matching(1, |ev| ev.shard_hint() == 9);
        assert_eq!(drained.len(), 1);
        assert!(q.slots[1].nothing_due(Some(at(29))) && !q.slots[1].nothing_due(Some(at(30))));
        q.retain(|_| false);
        assert!(q.slots[1].nothing_due(None));
        assert_eq!((q.len(), q.ready_mask(at(1_000))), (0, 0));
    }

    fn server(shards: usize) -> ServerState {
        ServerState::new(NodeId(0), DiskConfig::workstation(), shards)
    }

    fn replica(major: u64) -> Replica {
        Replica::new(major, FileParams::default(), SimTime::ZERO)
    }

    fn put(s: &ServerState, key: ReplicaKey) {
        s.visit(key.0, |slot| slot.replicas.disk.put_sync(key, replica(key.1)));
    }

    /// A store is changed in place inside a visit, each change counted by
    /// how far it reaches; the observers total what the visits wrote.
    #[test]
    fn sharded_disk_updates_in_place() {
        let s = server(4);
        let key = (SegmentId(2), 0u64);
        let set = |sub: u64, reach: Option<Durability>| {
            s.visit(key.0, |slot| {
                let out = slot.replicas.disk.update_with(&key, |r| {
                    r.version.sub = if reach.is_some() { sub } else { r.version.sub };
                    (r.version.sub, reach)
                });
                out.map(|(sub, _)| sub)
            })
        };
        assert_eq!(set(1, Some(Durability::Sync)), None, "absent: no write");
        assert!(s.replicas.is_empty() && !s.replicas.contains(&key));
        put(&s, key);
        put(&s, (SegmentId(7), 1));
        assert_eq!(set(1, Some(Durability::Sync)), Some(1));
        assert_eq!(set(2, Some(Durability::Async)), Some(2));
        // "Changed nothing" writes nothing.
        assert_eq!(set(3, None), Some(2));
        let r = &s.replicas;
        assert_eq!((r.len(), r.sync_writes(), r.async_writes(), r.durable_bytes()), (2, 3, 1, 128));
        s.crash();
        let sub = s.replicas.get(&key).map(|r| r.version.sub);
        assert_eq!(sub, Some(1), "the write-behind change is the one lost");
        assert_eq!((s.replicas.lost_writes(), s.tokens.sync_writes()), (1, 0));
    }

    #[test]
    fn sharded_disk_touches_apply_atomically() {
        let s = server(4);
        let key = (SegmentId(2), 0u64);
        let at = SimTime::from_micros;
        s.visit(key.0, |slot| {
            slot.replicas.disk.put_sync(key, replica(0));
            slot.replicas.record_touch(key, at(90));
            slot.replicas.record_touch(key, at(50));
        });
        s.apply_touches(2);
        // Deduplicated to the latest touch, and written behind.
        assert_eq!(s.replicas.get(&key).map(|r| r.last_access), Some(at(90)));
        assert_eq!(s.replicas.async_writes(), 1);
        // Applying again is a no-op: the buffer was drained. A touch
        // that moves nothing writes nothing.
        s.apply_touches(2);
        s.visit(key.0, |slot| slot.replicas.record_touch(key, at(70)));
        s.apply_touches(2);
        assert_eq!(s.replicas.get(&key).map(|r| r.last_access), Some(at(90)));
        assert_eq!((s.replicas.async_writes(), s.replicas.slots.pending()), (1, 0));
    }

    /// The touch-accounting crash race (`crash` racing visits that record
    /// touches and the fold that applies them): hammer all three from
    /// concurrent threads, then verify the fast flag is neither wedged
    /// high (over-counting that never drains) nor wedged low (a buffered
    /// touch the flag hides, which would permanently disable the pump's
    /// LRU feed).
    #[test]
    fn touch_accounting_survives_crash_and_apply_races() {
        use deceit_sim::atomic::PublishedBool;
        use std::thread;

        let s = Arc::new(server(4));
        let seed = |s: &ServerState| (0..8).for_each(|seg| put(s, (SegmentId(seg), 0)));
        seed(&s);
        let stop = Arc::new(PublishedBool::new(false));
        let readers: Vec<_> = (0..3u64)
            .map(|t| {
                let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
                thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load() {
                        let (key, at) = ((SegmentId((i + t) % 8), 0), SimTime::from_micros(i));
                        s.visit(key.0, |slot| slot.replicas.record_touch(key, at));
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

        // Quiesce: drain whatever the readers left behind.
        (0..4).for_each(|slot| s.apply_touches(slot));
        assert_eq!(s.replicas.slots.pending(), 0, "flag must settle to the truth at quiescence");

        // And the fast path must not be wedged: a fresh touch still
        // reaches the fold.
        let (key, late) = ((SegmentId(1), 0), SimTime::from_micros(1 << 40));
        s.visit(key.0, |slot| slot.replicas.record_touch(key, late));
        s.apply_touches(1);
        let applied = s.replicas.get(&key).map(|r| r.last_access);
        assert_eq!(applied, Some(late), "fast flag hid a buffered touch");
    }

    #[test]
    fn sharded_disk_majors_scan_one_slot() {
        let s = server(4);
        put(&s, (SegmentId(5), 0));
        put(&s, (SegmentId(5), 3));
        put(&s, (SegmentId(9), 7)); // same slot (5 % 4 == 9 % 4)
        assert_eq!(s.majors_of(SegmentId(5)), vec![0, 3]);
        let latest = |seg: SegmentId| s.visit(seg, |slot| slot.replicas.latest(seg));
        assert_eq!(latest(SegmentId(5)), Some((SegmentId(5), 3)));
        assert_eq!(latest(SegmentId(1)), None);
        assert_eq!(s.replicas.len(), 3);
    }
}
