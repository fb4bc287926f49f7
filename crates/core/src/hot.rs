//! The ShardKey-indexed hot-state seam.
//!
//! The engine's state divides into *cold* cell-wide state (membership,
//! topology, configuration, allocators) and *hot* per-file state: replica
//! tables, token tables, ordered-delivery buffers, write-stream state,
//! location caches, branch tables, and the deferred-work queue. This
//! module holds the containers the hot state lives in.
//!
//! Every container is physically partitioned by shard slot
//! ([`crate::shard_slot`] of the segment id) and internally locked per
//! slot, so:
//!
//! * all access works through `&self` — protocol code can mutate one
//!   file's hot state while holding only the host's *shared* cell lock;
//! * operations on files in different slots touch disjoint lock sets and
//!   proceed concurrently;
//! * the per-slot data locks are *leaf* locks, held only across one
//!   container operation, never while taking another lock — so they can
//!   never participate in a deadlock cycle.
//!
//! **Closures under a slot lock are leaves.** Several operations here
//! take a closure and run it with the slot locked — [`ShardedDisk::update`],
//! [`ShardedDisk::with_ref`], [`ShardedMap::with`] — because the
//! protocol's common step is "find this file's record and change two
//! fields of it", and doing that where the record lies is one lock round
//! and no copy, where get → change → put is two rounds and a clone of the
//! record (a replica's extent list, a token's holder set) each way. The
//! price is a rule the type system does not enforce: such a closure takes
//! no lock of its own — no other container of this module, no network
//! send, no event push, no group-table call. Whatever it needs from
//! elsewhere (the clock, reachability, a majority) is computed before the
//! call; whatever follows from the change (a flush to schedule, an event
//! to emit) is returned from the closure and done after it.
//! [`deceit_net::Network::reachable`] and [`crate::Cluster::now`] read
//! plain fields and an atomic, and are the only outside calls such
//! closures make.
//!
//! Exclusion between two protocol executions touching the *same* file is
//! not this module's job: the hosting layer serializes them on the shard
//! ring lock their [`crate::OpClass`] declares (or on the exclusive cell
//! lock). The data locks here only make the interleaving of *independent*
//! executions sound.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

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

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A `BTreeMap` partitioned by shard slot, with per-slot interior locks.
#[derive(Debug)]
pub struct ShardedMap<K: HotKey, V> {
    slots: Box<[Mutex<BTreeMap<K, V>>]>,
}

impl<K: HotKey, V> ShardedMap<K, V> {
    /// An empty map over `shards` slots (at least one).
    pub fn new(shards: usize) -> Self {
        ShardedMap { slots: (0..shards.max(1)).map(|_| Mutex::new(BTreeMap::new())).collect() }
    }

    fn slot(&self, k: &K) -> &Mutex<BTreeMap<K, V>> {
        &self.slots[shard_slot(k.shard_key(), self.slots.len())]
    }

    /// Inserts, returning the previous value.
    pub fn insert(&self, k: K, v: V) -> Option<V> {
        lock(self.slot(&k)).insert(k, v)
    }

    /// Removes, returning the previous value.
    pub fn remove(&self, k: &K) -> Option<V> {
        lock(self.slot(k)).remove(k)
    }

    /// Whether the key is present.
    pub fn contains(&self, k: &K) -> bool {
        lock(self.slot(k)).contains_key(k)
    }

    /// An owned copy of the value.
    pub fn get(&self, k: &K) -> Option<V>
    where
        V: Clone,
    {
        lock(self.slot(k)).get(k).cloned()
    }

    /// Runs `f` on the value (present or not) under the slot lock — one
    /// atomic read-modify-write.
    pub fn with<R>(&self, k: &K, f: impl FnOnce(Option<&mut V>) -> R) -> R {
        f(lock(self.slot(k)).get_mut(k))
    }

    /// Runs `f` on the value, inserting `mk()` first if absent.
    pub fn with_or_insert<R>(
        &self,
        k: K,
        mk: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        let slot = self.slot(&k);
        let mut map = lock(slot);
        f(map.entry(k).or_insert_with(mk))
    }

    /// Every key, ascending within and across slots.
    pub fn keys(&self) -> Vec<K> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            out.extend(lock(slot).keys().cloned());
        }
        out.sort();
        out
    }

    /// Empties the map.
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            lock(slot).clear();
        }
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A durable/volatile [`Disk`] partitioned by shard slot, with per-slot
/// interior locks and an integrated read-touch buffer.
///
/// The touch buffer is how the lock-free read fast path feeds the LRU:
/// [`ShardedDisk::note_read`] records an access without mutating the
/// value; [`ShardedDisk::apply_touches_slot`] folds the recorded accesses
/// into the values *atomically under the slot lock*, so a concurrent
/// mutation can never be clobbered by a stale clone.
#[derive(Debug)]
pub struct ShardedDisk<V: Clone + StoredSize> {
    slots: Box<[Mutex<DiskSlot<V>>]>,
    /// Pending recorded read touches across all slots — lets the
    /// apply paths skip every slot lock when nothing is buffered,
    /// which is the common case on mutation entry.
    pending_touches: AtomicUsize,
}

#[derive(Debug)]
struct DiskSlot<V: Clone + StoredSize> {
    disk: Disk<ReplicaKey, V>,
    touches: BTreeMap<ReplicaKey, SimTime>,
}

impl<V: Clone + StoredSize> ShardedDisk<V> {
    /// An empty store over `shards` slots with the given disk timing.
    pub fn new(cfg: DiskConfig, shards: usize) -> Self {
        ShardedDisk {
            slots: (0..shards.max(1))
                .map(|_| Mutex::new(DiskSlot { disk: Disk::new(cfg), touches: BTreeMap::new() }))
                .collect(),
            pending_touches: AtomicUsize::new(0),
        }
    }

    /// Number of shard slots.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    fn slot(&self, k: &ReplicaKey) -> &Mutex<DiskSlot<V>> {
        &self.slots[shard_slot(k.0 .0, self.slots.len())]
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
    fn sub_pending(&self, n: usize) {
        if n == 0 {
            return;
        }
        let _ = self
            .pending_touches
            // lint: allow(ordering-audit): saturating fast flag — the RMW needs no ordering because the buffered touches it summarizes are read under the slot mutex, and staleness only costs one extra slot probe
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
    }

    fn seg_slot(&self, seg: SegmentId) -> &Mutex<DiskSlot<V>> {
        &self.slots[shard_slot(seg.0, self.slots.len())]
    }

    /// An owned copy of the newest value (volatile view).
    pub fn get(&self, k: &ReplicaKey) -> Option<V> {
        lock(self.slot(k)).disk.get(k).cloned()
    }

    /// Runs `f` on a borrow of the newest value under the slot lock —
    /// the clone-free read path.
    pub fn with_ref<R>(&self, k: &ReplicaKey, f: impl FnOnce(Option<&V>) -> R) -> R {
        f(lock(self.slot(k)).disk.get(k))
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
        let mut slot = lock(self.slot(k));
        let out = f(slot.disk.get(k))?;
        self.record_touch(&mut slot, *k, at);
        Some(out)
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
        let mut slot = lock(self.seg_slot(seg));
        let key = *slot.disk.keys_in_range(&(seg, 0), &(seg, u64::MAX)).last()?;
        let out = slot.disk.get(&key).and_then(f);
        if out.is_some() {
            self.record_touch(&mut slot, key, at);
        }
        Some((key, out))
    }

    /// Buffers one read touch in a locked slot, maintaining the
    /// pending-touch fast flag — the single copy of the touch/counter
    /// protocol [`ShardedDisk::note_read`] and
    /// [`ShardedDisk::with_ref_served`] share (the len-delta drives the
    /// atomic flag; see [`ShardedDisk::sub_pending`] for why the two
    /// must never drift apart).
    fn record_touch(&self, slot: &mut DiskSlot<V>, k: ReplicaKey, at: SimTime) {
        let before = slot.touches.len();
        let entry = slot.touches.entry(k).or_insert(at);
        *entry = (*entry).max(at);
        if slot.touches.len() > before {
            // lint: allow(ordering-audit): fast-flag increment published under the slot mutex the touch itself lives behind; readers tolerate a stale count by design
            self.pending_touches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the key currently exists (volatile view).
    pub fn contains(&self, k: &ReplicaKey) -> bool {
        lock(self.slot(k)).disk.contains(k)
    }

    /// Write-through; durable on return. Returns the disk time consumed.
    pub fn put_sync(&self, k: ReplicaKey, v: V) -> SimDuration {
        lock(self.slot(&k)).disk.put_sync(k, v)
    }

    /// Write-behind; visible immediately, durable after a flush.
    pub fn put_async(&self, k: ReplicaKey, v: V) {
        lock(self.slot(&k)).disk.put_async(k, v)
    }

    /// Durable removal. Returns the disk time consumed.
    pub fn delete_sync(&self, k: &ReplicaKey) -> SimDuration {
        lock(self.slot(k)).disk.delete_sync(k)
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
        lock(self.slot(k)).disk.update_with(k, f).map(|(out, _)| out)
    }

    /// Makes every pending write in every slot durable. Returns total
    /// disk time.
    pub fn flush_all(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for slot in self.slots.iter() {
            total += lock(slot).disk.flush_all();
        }
        total
    }

    /// Makes every pending write in `seg`'s slot durable — the slice a
    /// per-file flush event covers. Returns the disk time consumed.
    pub fn flush_slot_of(&self, seg: SegmentId) -> SimDuration {
        lock(self.seg_slot(seg)).disk.flush_all()
    }

    /// Simulates a machine crash: every slot reverts to durable contents
    /// and pending read touches are dropped.
    pub fn crash(&self) {
        for slot in self.slots.iter() {
            let mut slot = lock(slot);
            slot.disk.crash();
            self.sub_pending(slot.touches.len());
            slot.touches.clear();
        }
    }

    /// Every current key, ascending.
    pub fn keys(&self) -> Vec<ReplicaKey> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            out.extend(lock(slot).disk.keys().cloned());
        }
        out.sort();
        out
    }

    /// All major versions of `seg` stored here, ascending — a range scan
    /// within the one slot the segment lives in.
    pub fn majors_of(&self, seg: SegmentId) -> Vec<u64> {
        lock(self.seg_slot(seg))
            .disk
            .keys_in_range(&(seg, 0), &(seg, u64::MAX))
            .map(|(_, major)| *major)
            .collect()
    }

    /// The highest-numbered (most recent) major of `seg` stored here.
    pub fn latest_major(&self, seg: SegmentId) -> Option<u64> {
        lock(self.seg_slot(seg))
            .disk
            .keys_in_range(&(seg, 0), &(seg, u64::MAX))
            .map(|(_, major)| *major)
            .last()
    }

    /// Whether no entries exist (volatile view).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live entries (volatile view).
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| lock(s).disk.len()).sum()
    }

    /// Total durable bytes (capacity accounting).
    pub fn durable_bytes(&self) -> usize {
        self.slots.iter().map(|s| lock(s).disk.durable_bytes()).sum()
    }

    /// Total synchronous writes performed.
    pub fn sync_writes(&self) -> u64 {
        self.slots.iter().map(|s| lock(s).disk.sync_writes).sum()
    }

    /// Total asynchronous writes performed.
    pub fn async_writes(&self) -> u64 {
        self.slots.iter().map(|s| lock(s).disk.async_writes).sum()
    }

    /// Writes lost to crashes (unflushed at crash time).
    pub fn lost_writes(&self) -> u64 {
        self.slots.iter().map(|s| lock(s).disk.lost_writes).sum()
    }

    /// Records a read of `k` at `at` without touching the value; applied
    /// by the next [`ShardedDisk::apply_touches_slot`] covering the key.
    /// Deduplicated by key, so the buffer is bounded by the entry count.
    pub fn note_read(&self, k: ReplicaKey, at: SimTime) {
        let mut slot = lock(self.slot(&k));
        self.record_touch(&mut slot, k, at);
    }

    /// Folds the recorded read touches of one slot into the stored
    /// values. `apply` mutates a value for one touch and reports whether
    /// anything changed; changes are written back asynchronously (the
    /// touch is metadata, not worth a durable write).
    pub fn apply_touches_slot(&self, slot: usize, apply: &impl Fn(&mut V, SimTime) -> bool) {
        // lint: allow(ordering-audit): skip hint only — a stale zero is impossible (the flag saturates, never under-reports) and a stale nonzero costs one slot-lock probe
        if self.pending_touches.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut guard = lock(&self.slots[slot]);
        if guard.touches.is_empty() {
            return;
        }
        let touches = std::mem::take(&mut guard.touches);
        self.sub_pending(touches.len());
        for (k, at) in touches {
            // The touch is metadata: written behind, and only if it moved.
            guard.disk.update_with(&k, |v| ((), apply(v, at).then_some(Durability::Async)));
        }
    }

    /// The pending-touch fast flag's current reading (diagnostics; may
    /// transiently over-report under concurrency, never under-report).
    pub fn pending_touch_count(&self) -> usize {
        // lint: allow(ordering-audit): diagnostics read of the fast flag; advisory by contract
        self.pending_touches.load(Ordering::Relaxed)
    }

    /// Folds the recorded read touches of every slot.
    pub fn apply_touches_all(&self, apply: &impl Fn(&mut V, SimTime) -> bool) {
        // lint: allow(ordering-audit): same skip hint as apply_touches_slot — never a stale zero, worst case one wasted sweep
        if self.pending_touches.load(Ordering::Relaxed) == 0 {
            return;
        }
        for slot in 0..self.slots.len() {
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
    seq: AtomicU64,
    len: AtomicUsize,
}

#[derive(Debug)]
struct EventSlot {
    queue: Mutex<EventQueue<Pending>>,
    /// Due time (µs) of the queue's earliest event; `u64::MAX` when it
    /// is empty. Written only under the queue lock, after every change
    /// to the queue, so it is exact whenever the lock is free; a reader
    /// racing a push sees the queue as it was before the push.
    earliest: AtomicU64,
}

impl EventSlot {
    fn new() -> Self {
        EventSlot { queue: Mutex::new(EventQueue::new()), earliest: AtomicU64::new(u64::MAX) }
    }

    /// Runs `f` on the locked queue and republishes the earliest due
    /// time before the lock is released — the only way the queue is
    /// ever changed.
    fn change<R>(&self, f: impl FnOnce(&mut EventQueue<Pending>) -> R) -> R {
        let mut q = lock(&self.queue);
        let out = f(&mut q);
        let earliest = q.peek_time().map_or(u64::MAX, |t| t.as_micros());
        self.earliest.store(earliest, Ordering::Release);
        out
    }

    /// Whether the slot holds nothing due by `deadline` (nothing at all,
    /// for `None`) — lock-free.
    fn nothing_due(&self, deadline: Option<SimTime>) -> bool {
        let earliest = self.earliest.load(Ordering::Acquire);
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
            seq: AtomicU64::new(0),
            len: AtomicUsize::new(0),
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
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot_of(&ev);
        self.slots[slot].change(|q| q.push_with_seq(at, seq, ev));
        self.len.fetch_add(1, Ordering::Relaxed);
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
            self.len.fetch_sub(1, Ordering::Relaxed);
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
            self.len.fetch_sub(1, Ordering::Relaxed);
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
        self.len.load(Ordering::Relaxed)
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
        self.len.fetch_sub(removed, Ordering::Relaxed);
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
        self.len.fetch_sub(drained.len(), Ordering::Relaxed);
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
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        use std::thread;

        let d: Arc<ShardedDisk<Vec<u8>>> = Arc::new(ShardedDisk::new(DiskConfig::workstation(), 4));
        let seed = |d: &ShardedDisk<Vec<u8>>| {
            for seg in 0..8u64 {
                d.put_sync((SegmentId(seg), 0), vec![0]);
            }
        };
        seed(&d);
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3u64)
            .map(|t| {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
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
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }

        // Quiesce: drain whatever the readers left behind.
        d.apply_touches_all(&|_v, _at| false);
        assert_eq!(d.pending_touch_count(), 0, "flag must settle to the truth at quiescence");

        // And the fast path must not be wedged: a fresh touch still
        // reaches the apply fold.
        d.note_read((SegmentId(0), 0), SimTime::from_micros(9_999));
        let applied = AtomicBool::new(false);
        d.apply_touches_slot(0, &|_v, _at| {
            applied.store(true, Ordering::Relaxed);
            false
        });
        assert!(applied.load(Ordering::Relaxed), "fast flag hid a buffered touch");
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
