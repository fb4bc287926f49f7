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
//! behind one lock, so a protocol step that reads or changes several of
//! them is one lock round ([`crate::server::ServerState::visit`]). The
//! per-map containers ([`ShardedMap`], [`ShardedDisk`]) are views that
//! project one part of every slot, for steps that need only that part;
//! the cell-wide branch tables are a [`ShardedMap`] over slots of their
//! own. So:
//!
//! * all access works through `&self` — protocol code can mutate one
//!   file's hot state while holding only the host's *shared* cell lock;
//! * operations on files in different slots touch disjoint lock sets and
//!   proceed concurrently;
//! * the slot locks are *leaf* locks, held only across one visit or one
//!   view operation, never while taking another lock — so they can never
//!   participate in a deadlock cycle.
//!
//! **Closures under a slot lock are leaves.** A visit, and several view
//! operations — [`ShardedDisk::update`], [`ShardedDisk::with_ref`],
//! [`ShardedMap::with`] — run a closure with the slot locked, because
//! the protocol's common step is "find this file's records and change
//! a few fields of them", and doing that where the records lie is one
//! lock round and no copy, where get → change → put is two rounds per
//! record and a clone of it (a replica's extent list, a token's holder
//! set) each way. The price is a rule the type system does not enforce:
//! such a closure takes no lock of its own — not another visit, not
//! another view of the same server (one lock guards all of a server's
//! slot, so that deadlocks on itself), no network send, no event push, no
//! group-table call. Whatever it needs from elsewhere (the clock,
//! reachability, a majority) is computed before the call; whatever
//! follows from the change (a flush to schedule, an event to emit) is
//! returned from the closure and done after it.
//! [`deceit_net::Network::reachable`] and [`crate::Cluster::now`] read
//! plain fields and an atomic, and are the only outside calls such
//! closures make. Debug builds assert that no thread takes a slot lock
//! while holding one ([`deceit_sim::leaf::lock_slot`]), as they assert
//! the host's cell lock is not taken twice (the levels above the slots,
//! cell then ascending rings, are carried by the types of the runtime's
//! `shard::CellLock`). The leaf rule itself is lexical, so it is the
//! one lock rule left to `deceit-lint`: its `lock-order` rule rejects
//! `self` inside a closure handed to `visit`, `update` or `update_with`.
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
use deceit_sim::{EventQueue, SimDuration, SimTime};
use deceit_storage::{Disk, DiskConfig, Durability, StoredSize};

use crate::event::Pending;
use crate::host::{shard_slot, ShardKey};
use crate::server::{ReplicaKey, SegmentId};

/// Keys that know which shard their hot state lives in.
pub trait HotKey: Ord + Clone {
    /// The shard key this key routes by.
    fn shard_key(&self) -> ShardKey;
}

impl HotKey for ReplicaKey {
    fn shard_key(&self) -> ShardKey {
        self.0 .0
    }
}

impl HotKey for SegmentId {
    fn shard_key(&self) -> ShardKey {
        self.0
    }
}

fn lock<T>(m: &Mutex<T>) -> SlotGuard<'_, T> {
    leaf::lock_slot(m)
}

/// State partitioned by shard slot, one leaf lock per slot, shared by the
/// views ([`ShardedMap`], [`ShardedDisk`]) that each project one part of
/// a slot.
#[derive(Debug)]
pub struct Slots<S> {
    slots: Box<[Mutex<S>]>,
    /// Pending recorded read touches across all slots — lets the apply
    /// paths skip every slot lock when nothing is buffered, which is the
    /// common case on mutation entry (see [`ShardedDisk::note_read`]).
    /// A skip hint, so relaxed: the touches it counts are read under
    /// their slot's lock, and a stale count costs one slot-lock probe.
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

    /// Number of shard slots.
    pub fn count(&self) -> usize {
        self.slots.len()
    }

    /// Locks slot `i`: one leaf-lock round.
    pub(crate) fn lock(&self, i: usize) -> SlotGuard<'_, S> {
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
        self.lock(shard_slot(key, self.slots.len()))
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

    fn pending(&self) -> usize {
        // A stale zero is impossible (the flag saturates, never
        // under-reports); a stale nonzero costs one slot-lock probe.
        self.pending_touches.load() as usize
    }
}

fn own<T>(t: &mut T) -> &mut T {
    t
}

/// A `BTreeMap` partitioned by shard slot: over slots of its own
/// ([`ShardedMap::new`]), or a view of one map in every slot of shared
/// [`Slots`] ([`ShardedMap::view`]).
#[derive(Debug)]
pub struct ShardedMap<K: HotKey, V, S = BTreeMap<K, V>> {
    slots: Arc<Slots<S>>,
    part: fn(&mut S) -> &mut BTreeMap<K, V>,
}

impl<K: HotKey, V> ShardedMap<K, V> {
    /// An empty map over `shards` slots (at least one).
    pub fn new(shards: usize) -> Self {
        ShardedMap::view(Arc::new(Slots::new(shards, BTreeMap::new)), own)
    }
}

impl<K: HotKey, V, S> ShardedMap<K, V, S> {
    /// The map `part` projects out of every slot of `slots`.
    pub fn view(slots: Arc<Slots<S>>, part: fn(&mut S) -> &mut BTreeMap<K, V>) -> Self {
        ShardedMap { slots, part }
    }

    /// Runs `f` on `k`'s slot of the map, under the slot lock.
    fn map<R>(&self, k: &K, f: impl FnOnce(&mut BTreeMap<K, V>) -> R) -> R {
        f((self.part)(&mut self.slots.lock_key(k.shard_key())))
    }

    /// Runs `f` on every slot of the map in turn, one lock at a time.
    fn each(&self, mut f: impl FnMut(&mut BTreeMap<K, V>)) {
        self.slots.each(|s| f((self.part)(s)));
    }

    /// Inserts, returning the previous value.
    pub fn insert(&self, k: K, v: V) -> Option<V> {
        self.map(&k.clone(), |m| m.insert(k, v))
    }

    /// Removes, returning the previous value.
    pub fn remove(&self, k: &K) -> Option<V> {
        self.map(k, |m| m.remove(k))
    }

    /// Whether the key is present.
    pub fn contains(&self, k: &K) -> bool {
        self.map(k, |m| m.contains_key(k))
    }

    /// An owned copy of the value.
    pub fn get(&self, k: &K) -> Option<V>
    where
        V: Clone,
    {
        self.map(k, |m| m.get(k).cloned())
    }

    /// Runs `f` on the value (present or not) under the slot lock — one
    /// atomic read-modify-write.
    pub fn with<R>(&self, k: &K, f: impl FnOnce(Option<&mut V>) -> R) -> R {
        self.map(k, |m| f(m.get_mut(k)))
    }

    /// Runs `f` on the value, inserting `mk()` first if absent.
    pub fn with_or_insert<R>(
        &self,
        k: K,
        mk: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        self.map(&k.clone(), |m| f(m.entry(k).or_insert_with(mk)))
    }

    /// Every key, ascending within and across slots.
    pub fn keys(&self) -> Vec<K> {
        let mut out = Vec::new();
        self.each(|m| out.extend(m.keys().cloned()));
        out.sort();
        out
    }

    /// Empties the map.
    pub fn clear(&self) {
        self.each(BTreeMap::clear);
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.each(|m| n += m.len());
        n
    }

    /// Whether no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One slot of a [`ShardedDisk`]: that slot's store, and the read touches
/// recorded against it but not yet folded in.
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

    /// The key of the newest (highest-numbered) major of `seg` stored
    /// here.
    pub(crate) fn latest(&self, seg: SegmentId) -> Option<ReplicaKey> {
        self.disk.keys_in_range(&(seg, 0), &(seg, u64::MAX)).last().copied()
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

/// A durable/volatile [`Disk`] partitioned by shard slot, with an
/// integrated read-touch buffer: over slots of its own
/// ([`ShardedDisk::new`]), or a view of one store in every slot of shared
/// [`Slots`] ([`ShardedDisk::view`]).
///
/// The touch buffer is how the lock-free read fast path feeds the LRU:
/// [`ShardedDisk::note_read`] records an access without mutating the
/// value; [`ShardedDisk::apply_touches_slot`] folds the recorded accesses
/// into the values *atomically under the slot lock*, so a concurrent
/// mutation can never be clobbered by a stale clone.
#[derive(Debug)]
pub struct ShardedDisk<V: Clone + StoredSize, S = DiskSlot<V>> {
    slots: Arc<Slots<S>>,
    part: fn(&mut S) -> &mut DiskSlot<V>,
}

impl<V: Clone + StoredSize> ShardedDisk<V> {
    /// An empty store over `shards` slots with the given disk timing.
    pub fn new(cfg: DiskConfig, shards: usize) -> Self {
        ShardedDisk::view(Arc::new(Slots::new(shards, || DiskSlot::new(cfg))), own)
    }
}

impl<V: Clone + StoredSize, S> ShardedDisk<V, S> {
    /// The store `part` projects out of every slot of `slots`.
    pub fn view(slots: Arc<Slots<S>>, part: fn(&mut S) -> &mut DiskSlot<V>) -> Self {
        ShardedDisk { slots, part }
    }

    /// Runs `f` on the slot `key` routes to, under its lock, counting any
    /// touch `f` buffers into the fast flag.
    fn at<R>(&self, key: ShardKey, f: impl FnOnce(&mut DiskSlot<V>) -> R) -> R {
        let mut guard = self.slots.lock_key(key);
        let slot = (self.part)(&mut guard);
        let before = slot.touches.len();
        let out = f(slot);
        self.slots.add_pending(slot.touches.len().saturating_sub(before));
        out
    }

    /// Runs `f` on every slot of the store in turn, one lock at a time.
    fn each(&self, mut f: impl FnMut(&mut DiskSlot<V>)) {
        self.slots.each(|s| f((self.part)(s)));
    }

    /// Sums `f` over every slot, one lock at a time.
    fn sum<T: std::ops::AddAssign + Default>(&self, f: impl Fn(&DiskSlot<V>) -> T) -> T {
        let mut total = T::default();
        self.each(|d| total += f(d));
        total
    }

    /// An owned copy of the newest value (volatile view).
    pub fn get(&self, k: &ReplicaKey) -> Option<V> {
        self.at(k.shard_key(), |d| d.disk.get(k).cloned())
    }

    /// Runs `f` on a borrow of the newest value under the slot lock —
    /// the clone-free read path.
    pub fn with_ref<R>(&self, k: &ReplicaKey, f: impl FnOnce(Option<&V>) -> R) -> R {
        self.at(k.shard_key(), |d| f(d.disk.get(k)))
    }

    /// Runs `f` on a borrow of the newest value and — when `f` serves
    /// (returns `Some`) — records a read touch of `k` at `at` in the
    /// *same* slot-lock acquisition: [`ShardedDisk::with_ref`] +
    /// [`ShardedDisk::note_read`] fused into one lock round, for the
    /// read paths hot enough that the second acquisition shows up.
    pub fn with_ref_served<R>(
        &self,
        k: &ReplicaKey,
        at: SimTime,
        f: impl FnOnce(Option<&V>) -> Option<R>,
    ) -> Option<R> {
        self.at(k.shard_key(), |d| {
            let out = f(d.disk.get(k))?;
            d.record_touch(*k, at);
            Some(out)
        })
    }

    /// The newest major of `seg` stored here and what `f` serves from it,
    /// recording a read touch when `f` serves — [`ShardedDisk::latest_major`]
    /// and [`ShardedDisk::with_ref_served`] in one slot visit. `None` when
    /// no major of `seg` is stored.
    pub fn latest_served<R>(
        &self,
        seg: SegmentId,
        at: SimTime,
        f: impl FnOnce(&V) -> Option<R>,
    ) -> Option<(ReplicaKey, Option<R>)> {
        self.at(seg.0, |d| {
            let key = d.latest(seg)?;
            let out = d.disk.get(&key).and_then(f);
            if out.is_some() {
                d.record_touch(key, at);
            }
            Some((key, out))
        })
    }

    /// Whether the key currently exists (volatile view).
    pub fn contains(&self, k: &ReplicaKey) -> bool {
        self.at(k.shard_key(), |d| d.disk.contains(k))
    }

    /// Write-through; durable on return. Returns the disk time consumed.
    pub fn put_sync(&self, k: ReplicaKey, v: V) -> SimDuration {
        self.at(k.shard_key(), |d| d.disk.put_sync(k, v))
    }

    /// Write-behind; visible immediately, durable after a flush.
    pub fn put_async(&self, k: ReplicaKey, v: V) {
        self.at(k.shard_key(), |d| d.disk.put_async(k, v))
    }

    /// Durable removal. Returns the disk time consumed.
    pub fn delete_sync(&self, k: &ReplicaKey) -> SimDuration {
        self.at(k.shard_key(), |d| d.disk.delete_sync(k))
    }

    /// Read-modify-write in place: one slot lock, one lookup, `f` changes
    /// the value where it lies, and the change is written through or
    /// behind as `reach` says — observationally [`ShardedDisk::get`], the
    /// change, and the `put_*` of that durability, without the two clones.
    /// `None` (and nothing written) when the key is absent. `f` runs under
    /// the slot lock: it is a leaf (see the [module](self) doc).
    pub fn update<R>(
        &self,
        k: &ReplicaKey,
        reach: Durability,
        f: impl FnOnce(&mut V) -> R,
    ) -> Option<R> {
        self.update_with(k, |v| (f(v), Some(reach)))
    }

    /// [`ShardedDisk::update`] where `f` itself decides how far the change
    /// reaches — or, with `None`, that it changed nothing, and nothing is
    /// written or counted (see [`Disk::update_with`]).
    pub fn update_with<R>(
        &self,
        k: &ReplicaKey,
        f: impl FnOnce(&mut V) -> (R, Option<Durability>),
    ) -> Option<R> {
        self.at(k.shard_key(), |d| d.disk.update_with(k, f).map(|(out, _)| out))
    }

    /// Makes every pending write in every slot durable. Returns total
    /// disk time.
    pub fn flush_all(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        self.each(|d| total += d.disk.flush_all());
        total
    }

    /// Simulates a machine crash: every slot reverts to durable contents
    /// and pending read touches are dropped.
    pub fn crash(&self) {
        self.each(|d| self.slots.sub_pending(d.crash()));
    }

    /// Every current key, ascending.
    pub fn keys(&self) -> Vec<ReplicaKey> {
        let mut out = Vec::new();
        self.each(|d| out.extend(d.disk.keys().cloned()));
        out.sort();
        out
    }

    /// All major versions of `seg` stored here, ascending — a range scan
    /// within the one slot the segment lives in.
    pub fn majors_of(&self, seg: SegmentId) -> Vec<u64> {
        self.at(seg.0, |d| {
            d.disk.keys_in_range(&(seg, 0), &(seg, u64::MAX)).map(|(_, major)| *major).collect()
        })
    }

    /// The highest-numbered (most recent) major of `seg` stored here.
    pub fn latest_major(&self, seg: SegmentId) -> Option<u64> {
        self.at(seg.0, |d| d.latest(seg)).map(|(_, major)| major)
    }

    /// Whether no entries exist (volatile view).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live entries (volatile view).
    pub fn len(&self) -> usize {
        self.sum(|d| d.disk.len())
    }

    /// Total durable bytes (capacity accounting).
    pub fn durable_bytes(&self) -> usize {
        self.sum(|d| d.disk.durable_bytes())
    }

    /// Total synchronous writes performed.
    pub fn sync_writes(&self) -> u64 {
        self.sum(|d| d.disk.sync_writes)
    }

    /// Total asynchronous writes performed.
    pub fn async_writes(&self) -> u64 {
        self.sum(|d| d.disk.async_writes)
    }

    /// Writes lost to crashes (unflushed at crash time).
    pub fn lost_writes(&self) -> u64 {
        self.sum(|d| d.disk.lost_writes)
    }

    /// Records a read of `k` at `at` without touching the value; applied
    /// by the next [`ShardedDisk::apply_touches_slot`] covering the key.
    /// Deduplicated by key, so the buffer is bounded by the entry count.
    pub fn note_read(&self, k: ReplicaKey, at: SimTime) {
        self.at(k.shard_key(), |d| d.record_touch(k, at));
    }

    /// Folds the recorded read touches of one slot into the stored
    /// values. `apply` mutates a value for one touch and reports whether
    /// anything changed; changes are written back asynchronously (the
    /// touch is metadata, not worth a durable write).
    pub fn apply_touches_slot(&self, slot: usize, apply: &impl Fn(&mut V, SimTime) -> bool) {
        if self.slots.pending() == 0 {
            return;
        }
        let mut guard = self.slots.lock(slot);
        let d = (self.part)(&mut guard);
        if d.touches.is_empty() {
            return;
        }
        let touches = std::mem::take(&mut d.touches);
        self.slots.sub_pending(touches.len());
        for (k, at) in touches {
            // The touch is metadata: written behind, and only if it moved.
            d.disk.update_with(&k, |v| ((), apply(v, at).then_some(Durability::Async)));
        }
    }

    /// The pending-touch fast flag's current reading (diagnostics; may
    /// transiently over-report under concurrency, never under-report).
    pub fn pending_touch_count(&self) -> usize {
        self.slots.pending()
    }

    /// Folds the recorded read touches of every slot.
    pub fn apply_touches_all(&self, apply: &impl Fn(&mut V, SimTime) -> bool) {
        // Same skip hint as `apply_touches_slot`: never a stale zero,
        // worst case one wasted sweep.
        if self.slots.pending() == 0 {
            return;
        }
        for slot in 0..self.slots.count() {
            self.apply_touches_slot(slot, apply);
        }
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
    use deceit_net::NodeId;

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

    #[test]
    fn sharded_disk_updates_in_place() {
        let d: ShardedDisk<Vec<u8>> = ShardedDisk::new(DiskConfig::workstation(), 4);
        let key = (SegmentId(2), 0u64);
        assert_eq!(d.update(&key, Durability::Sync, |v| v.push(1)), None, "absent: no write");
        assert_eq!((d.sync_writes(), d.async_writes()), (0, 0));
        d.put_sync(key, vec![1]);
        assert_eq!(d.update(&key, Durability::Sync, |v| (v.push(2), v.len()).1), Some(2));
        assert_eq!(d.update(&key, Durability::Async, |v| v.push(3)), Some(()));
        // "Changed nothing" writes nothing.
        assert_eq!(d.update_with(&key, |v| (v.len(), None)), Some(3));
        assert_eq!((d.sync_writes(), d.async_writes()), (2, 1));
        d.crash();
        assert_eq!(d.get(&key), Some(vec![1, 2]), "the write-behind change is the one lost");
    }

    #[test]
    fn sharded_map_routes_and_mutates() {
        let m: ShardedMap<SegmentId, u32> = ShardedMap::new(4);
        assert!(m.insert(SegmentId(6), 1).is_none());
        assert_eq!(m.get(&SegmentId(6)), Some(1));
        m.with_or_insert(SegmentId(6), || 0, |v| *v += 10);
        assert_eq!(m.get(&SegmentId(6)), Some(11));
        assert!(m.contains(&SegmentId(6)));
        assert_eq!(m.remove(&SegmentId(6)), Some(11));
        assert!(m.is_empty());
    }

    #[test]
    fn sharded_disk_touches_apply_atomically() {
        let d: ShardedDisk<Vec<u8>> = ShardedDisk::new(DiskConfig::workstation(), 4);
        let key = (SegmentId(2), 0u64);
        d.put_sync(key, vec![1]);
        d.note_read(key, SimTime::from_micros(50));
        d.note_read(key, SimTime::from_micros(90));
        let mut applied = Vec::new();
        d.apply_touches_slot(2, &|v: &mut Vec<u8>, at| {
            v.push(at.as_micros() as u8);
            true
        });
        // Deduplicated to the latest touch.
        applied.extend(d.get(&key).unwrap());
        assert_eq!(applied, vec![1, 90]);
        // Applying again is a no-op: the buffer was drained.
        d.apply_touches_all(&|_v, _at| panic!("no touches left"));
    }

    /// The touch-accounting crash race (`crash` racing `note_read` /
    /// `apply_touches_slot`): hammer all three from concurrent threads,
    /// then verify the fast flag is neither wedged high (over-counting
    /// that never drains) nor wedged low (a buffered touch the flag
    /// hides, which would permanently disable the pump's LRU feed).
    #[test]
    fn touch_accounting_survives_crash_and_apply_races() {
        use deceit_sim::atomic::PublishedBool;
        use std::sync::Arc;
        use std::thread;

        let d: Arc<ShardedDisk<Vec<u8>>> = Arc::new(ShardedDisk::new(DiskConfig::workstation(), 4));
        let seed = |d: &ShardedDisk<Vec<u8>>| {
            for seg in 0..8u64 {
                d.put_sync((SegmentId(seg), 0), vec![0]);
            }
        };
        seed(&d);
        let stop = Arc::new(PublishedBool::new(false));
        let readers: Vec<_> = (0..3u64)
            .map(|t| {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load() {
                        d.note_read((SegmentId((i + t) % 8), 0), SimTime::from_micros(i));
                        i += 1;
                    }
                })
            })
            .collect();
        for round in 0..300 {
            if round % 3 == 0 {
                d.crash();
                seed(&d);
            }
            for slot in 0..4 {
                d.apply_touches_slot(slot, &|_v, _at| false);
            }
        }
        stop.store(true);
        for r in readers {
            r.join().unwrap();
        }

        // Quiesce: drain whatever the readers left behind.
        d.apply_touches_all(&|_v, _at| false);
        assert_eq!(d.pending_touch_count(), 0, "flag must settle to the truth at quiescence");

        // And the fast path must not be wedged: a fresh touch still
        // reaches the apply fold.
        d.note_read((SegmentId(0), 0), SimTime::from_micros(9_999));
        let applied = PublishedBool::new(false);
        d.apply_touches_slot(0, &|_v, _at| {
            applied.store(true);
            false
        });
        assert!(applied.load(), "fast flag hid a buffered touch");
        assert_eq!(d.pending_touch_count(), 0);
    }

    #[test]
    fn sharded_disk_majors_scan_one_slot() {
        let d: ShardedDisk<Vec<u8>> = ShardedDisk::new(DiskConfig::workstation(), 4);
        d.put_sync((SegmentId(5), 0), vec![0]);
        d.put_sync((SegmentId(5), 3), vec![0]);
        d.put_sync((SegmentId(9), 7), vec![0]); // same slot (5 % 4 == 9 % 4)
        assert_eq!(d.majors_of(SegmentId(5)), vec![0, 3]);
        assert_eq!(d.latest_major(SegmentId(5)), Some(3));
        assert_eq!(d.latest_major(SegmentId(1)), None);
        assert_eq!(d.len(), 3);
    }
}
