//! The sharded concurrent execution layer.
//!
//! The first live runtime hosted the whole protocol engine behind one
//! `Mutex`, so `n` server threads executed one request at a time and
//! throughput *fell* as clients were added. [`ShardedEngine`] replaces
//! that global lock with the locking structure the engine's state
//! actually calls for:
//!
//! * the cold cell-wide state lives under a read-mostly [`RwLock`]:
//!   read-only requests run under the shared lock, concurrently with
//!   each other *and* with mutations;
//! * `K` shard ring mutexes serialize executions per file
//!   ([`deceit_core::shard_slot`] maps a segment id to its slot):
//!   single-shard mutations take the shared cell lock plus their slot,
//!   cross-shard operations (link) take the shared cell lock plus both
//!   slots in ascending order, and the pump drains one slot's deferred
//!   work under that slot's lock. The engine's hot state is itself
//!   partitioned by the same slot function (see `deceit_core::hot`), so
//!   holding a slot's ring lock covers exactly the data the execution
//!   touches.
//!
//! The exclusive cell lock is the *fallback* path, not the mutation
//! path: it serves operations whose footprint escapes their declared
//! shards — removals that resolve their victim by name, renames that
//! rewrite a third segment, version-qualified names, reconciliation —
//! plus failure injection, settling, and inspection hatches. Read-only
//! requests that cannot be answered from local stable state also fall
//! back here, because the exclusive serve performs forwarding and group
//! joins.
//!
//! **Lock order invariant: cell lock first (shared or exclusive), then
//! shard ring locks in ascending slot index.** Nothing acquires the cell
//! lock while holding a ring lock, and ring locks are only ever taken as
//! a strictly ascending batch (a `debug_assert` enforces it on every
//! acquisition), so the hierarchy is acyclic and deadlock-free by
//! construction. The engine's interior per-slot *data* locks sit below
//! everything: they are leaf locks, held for single container
//! operations, never across another lock acquisition.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use deceit_core::{AtomicHistogram, OpClass};
use deceit_sim::wall;

/// Contention telemetry for one ring slot.
#[derive(Debug, Default)]
pub(crate) struct SlotCounters {
    /// Mutations executed on this slot's sharded fast path.
    pub sharded: AtomicU64,
    /// Executions that fell back to the exclusive cell lock while
    /// declaring this slot (footprint escaped the ring locks).
    pub fallbacks: AtomicU64,
}

/// The engine's lock-level observability: acquisition counts per path,
/// per-slot contention counters, and the two engine phases of every
/// request — how long it waited to get in (cell-lock acquisition) and
/// how long it held its ring locks. All atomics and [`AtomicHistogram`]s;
/// recording adds a few relaxed ops per execution.
#[derive(Debug)]
pub(crate) struct EngineObs {
    /// Shared (read) cell-lock acquisitions.
    pub shared_acquisitions: AtomicU64,
    /// Exclusive (write) cell-lock acquisitions.
    pub exclusive_acquisitions: AtomicU64,
    /// Cell-lock acquisition wait, microseconds — the "queue wait" of a
    /// request: how long it sat behind the lock before executing.
    pub cell_wait: AtomicHistogram,
    /// Ring-lock hold time, microseconds — lock acquisition through body
    /// completion on the sharded and exclusive mutation paths.
    pub ring_hold: AtomicHistogram,
    /// Per-slot contention counters.
    pub slots: Box<[SlotCounters]>,
}

impl EngineObs {
    fn new(shards: usize) -> Self {
        EngineObs {
            shared_acquisitions: AtomicU64::new(0),
            exclusive_acquisitions: AtomicU64::new(0),
            cell_wait: AtomicHistogram::new(),
            ring_hold: AtomicHistogram::new(),
            slots: (0..shards).map(|_| SlotCounters::default()).collect(),
        }
    }

    /// One `cell_wait` sample per cell-lock acquisition: zero, without
    /// reading the clock, when the lock was free (`uncontended`), the
    /// time `block` took otherwise.
    fn waited<G>(&self, uncontended: Option<G>, block: impl FnOnce() -> G) -> G {
        if let Some(guard) = uncontended {
            self.cell_wait.record(0);
            return guard;
        }
        let start = wall::now();
        let guard = block();
        self.cell_wait.record_micros(wall::since(start));
        guard
    }

    fn count_slots(&self, class: OpClass, fallback: bool) {
        for slot in class.slots(self.slots.len()) {
            let c = &self.slots[slot];
            if fallback {
                c.fallbacks.fetch_add(1, Ordering::Relaxed);
            } else {
                c.sharded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A protocol engine under sharded concurrency control.
#[derive(Debug)]
pub(crate) struct ShardedEngine<S> {
    cell: RwLock<S>,
    shards: Box<[Mutex<()>]>,
    /// Lock-level telemetry; recording is always on (relaxed atomics).
    pub(crate) obs: EngineObs,
}

impl<S> ShardedEngine<S> {
    /// Wraps `engine` with `shards` ring slots (clamped to 1..=64 to
    /// match the engine's pending-work mask).
    pub(crate) fn new(engine: S, shards: usize) -> Self {
        let shards: Box<[Mutex<()>]> = (0..shards.clamp(1, 64)).map(|_| Mutex::new(())).collect();
        let obs = EngineObs::new(shards.len());
        ShardedEngine { cell: RwLock::new(engine), shards, obs }
    }

    /// Number of ring slots.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shared access to the engine, concurrent with other readers.
    pub(crate) fn read_guard(&self) -> RwLockReadGuard<'_, S> {
        let guard = self.obs.waited(self.cell.try_read(), || self.cell.read());
        self.obs.shared_acquisitions.fetch_add(1, Ordering::Relaxed);
        guard
    }

    /// Exclusive access to the engine.
    fn write_guard(&self) -> RwLockWriteGuard<'_, S> {
        let guard = self.obs.waited(self.cell.try_write(), || self.cell.write());
        self.obs.exclusive_acquisitions.fetch_add(1, Ordering::Relaxed);
        guard
    }

    /// Runs `f` with shared access.
    #[cfg(test)]
    pub(crate) fn shared<T>(&self, f: impl FnOnce(&S) -> T) -> T {
        f(&self.read_guard())
    }

    /// The ring locks `class` declares, acquired in ascending order. A
    /// class declares at most two slots; the debug assertion pins the
    /// strictly-ascending invariant so a future `slots()` refactor that
    /// stopped deduplicating same-slot keys would fail loudly here (a
    /// duplicate slot would self-deadlock) instead of hanging.
    fn lock_ring<'a>(
        &'a self,
        class: OpClass,
    ) -> (Option<MutexGuard<'a, ()>>, Option<MutexGuard<'a, ()>>) {
        let mut slots = class.slots(self.shards.len());
        let first = slots.next();
        let second = slots.next();
        debug_assert!(slots.next().is_none(), "OpClass declares at most two shard slots");
        debug_assert!(
            match (first, second) {
                (Some(a), Some(b)) => a < b,
                _ => true,
            },
            "shard slots must be strictly ascending (got {first:?}, {second:?})"
        );
        (first.map(|s| self.shards[s].lock()), second.map(|s| self.shards[s].lock()))
    }

    /// Runs `f` with *shared* cell access plus the ring locks `class`
    /// declares — the sharded mutation path. `f` returns `None` when the
    /// engine cannot execute the request within that footprint; the
    /// caller then falls back to [`ShardedEngine::execute`].
    pub(crate) fn try_execute_sharded<T>(
        &self,
        class: OpClass,
        f: impl FnOnce(&S) -> Option<T>,
    ) -> Option<T> {
        let cell = self.read_guard();
        let held = wall::now();
        let _ring = self.lock_ring(class);
        let out = f(&cell);
        self.obs.ring_hold.record_micros(wall::since(held));
        if out.is_some() {
            self.obs.count_slots(class, false);
        }
        out
    }

    /// Runs `f` with exclusive access, holding the shard locks `class`
    /// declares — the fallback path for footprint-escaping requests.
    /// (The ring locks are redundant under the exclusive cell lock but
    /// kept so the declared footprint is exercised on every path.)
    pub(crate) fn execute<T>(&self, class: OpClass, f: impl FnOnce(&mut S) -> T) -> T {
        let mut cell = self.write_guard();
        let held = wall::now();
        let _ring = self.lock_ring(class);
        let out = f(&mut cell);
        self.obs.ring_hold.record_micros(wall::since(held));
        self.obs.count_slots(class, true);
        out
    }

    /// Runs `f` with shared cell access and one ring slot held — the
    /// pump's per-shard drain.
    pub(crate) fn with_slot_shared<T>(&self, slot: usize, f: impl FnOnce(&S) -> T) -> T {
        let cell = self.read_guard();
        let held = wall::now();
        // lint: allow(lock-order): single-slot acquisition — a one-element ring batch is trivially ascending, and the cell lock is already held above
        let _shard = self.shards[slot].lock();
        let out = f(&cell);
        self.obs.ring_hold.record_micros(wall::since(held));
        out
    }

    /// Runs `f` with exclusive access and one ring slot held — the
    /// pump's fallback for engines that cannot pump a shard through
    /// `&self`.
    pub(crate) fn with_slot<T>(&self, slot: usize, f: impl FnOnce(&mut S) -> T) -> T {
        let mut cell = self.write_guard();
        let held = wall::now();
        // lint: allow(lock-order): single-slot acquisition — a one-element ring batch is trivially ascending, and the exclusive cell lock already serializes this pump
        let _shard = self.shards[slot].lock();
        let out = f(&mut cell);
        self.obs.ring_hold.record_micros(wall::since(held));
        out
    }

    /// Runs `f` with exclusive access and no shard locks (cell-wide
    /// operations, inspection hatches, read-path fallbacks).
    pub(crate) fn exclusive<T>(&self, f: impl FnOnce(&mut S) -> T) -> T {
        let mut cell = self.write_guard();
        f(&mut cell)
    }

    /// Consumes the wrapper, returning the engine.
    pub(crate) fn into_inner(self) -> S {
        self.cell.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::thread;

    #[test]
    fn readers_run_concurrently() {
        let engine = Arc::new(ShardedEngine::new(0u64, 4));
        let barrier = Arc::new(Barrier::new(2));
        // Two readers must be inside the engine at the same time: each
        // waits at a barrier only the other can release while both hold
        // the shared lock. A serializing engine would deadlock here.
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    engine.shared(|_| {
                        barrier.wait();
                    })
                })
            })
            .collect();
        for t in threads {
            t.join().expect("concurrent readers must not deadlock");
        }
    }

    #[test]
    fn sharded_mutations_on_distinct_slots_run_concurrently() {
        let engine = Arc::new(ShardedEngine::new((), 4));
        let barrier = Arc::new(Barrier::new(2));
        // Two sharded executions on different slots must be inside the
        // engine at the same time — the whole point of the layer. Each
        // waits at a barrier only the other can release.
        let threads: Vec<_> = [OpClass::Mutate(1), OpClass::Mutate(2)]
            .into_iter()
            .map(|class| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    engine.try_execute_sharded(class, |_| {
                        barrier.wait();
                        Some(())
                    })
                })
            })
            .collect();
        for t in threads {
            t.join().expect("distinct-slot mutations must not serialize").unwrap();
        }
    }

    #[test]
    fn same_slot_sharded_mutations_are_mutually_exclusive() {
        let engine = Arc::new(ShardedEngine::new((), 4));
        let max_inside = Arc::new(AtomicUsize::new(0));
        let inside = Arc::new(AtomicUsize::new(0));
        // Same slot (keys 1 and 5 with 4 shards): never two inside.
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let inside = Arc::clone(&inside);
                let max_inside = Arc::clone(&max_inside);
                let class = if i % 2 == 0 { OpClass::Mutate(1) } else { OpClass::Mutate(5) };
                thread::spawn(move || {
                    for _ in 0..500 {
                        engine.try_execute_sharded(class, |_| {
                            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                            max_inside.fetch_max(now, Ordering::SeqCst);
                            std::hint::spin_loop();
                            inside.fetch_sub(1, Ordering::SeqCst);
                            Some(())
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no deadlock on same-slot contention");
        }
        assert_eq!(max_inside.load(Ordering::SeqCst), 1, "same-slot mutators must exclude");
    }

    #[test]
    fn class_locking_excludes_conflicts_without_deadlock() {
        let engine = Arc::new(ShardedEngine::new(0u64, 4));
        let max_inside = Arc::new(AtomicUsize::new(0));
        let inside = Arc::new(AtomicUsize::new(0));
        // Hammer overlapping classes — same shard, crossing shards in
        // both orders, cell-wide — from many threads through the
        // *exclusive* path. Exclusivity: at most one mutator inside at a
        // time; liveness: all joins finish.
        let classes = [
            OpClass::Mutate(1),
            OpClass::Mutate(5), // same slot as 1 with 4 shards
            OpClass::CrossShard(1, 2),
            OpClass::CrossShard(2, 1),
            OpClass::CellWide,
        ];
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let inside = Arc::clone(&inside);
                let max_inside = Arc::clone(&max_inside);
                let class = classes[i % classes.len()];
                thread::spawn(move || {
                    for _ in 0..200 {
                        engine.execute(class, |n| {
                            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                            max_inside.fetch_max(now, Ordering::SeqCst);
                            *n += 1;
                            inside.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no deadlock under mixed classes");
        }
        assert_eq!(max_inside.load(Ordering::SeqCst), 1, "mutators must be mutually exclusive");
        assert_eq!(engine.shared(|n| *n), 8 * 200);
    }

    /// Sharded and exclusive executions on the same class exclude each
    /// other (the cell read/write lock is the bridge).
    #[test]
    fn sharded_and_exclusive_paths_exclude() {
        let engine = Arc::new(ShardedEngine::new(0u64, 4));
        let inside = Arc::new(AtomicUsize::new(0));
        let max_inside = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let inside = Arc::clone(&inside);
                let max_inside = Arc::clone(&max_inside);
                thread::spawn(move || {
                    for _ in 0..300 {
                        let body = |n: &mut u64| {
                            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                            max_inside.fetch_max(now, Ordering::SeqCst);
                            *n += 1;
                            inside.fetch_sub(1, Ordering::SeqCst);
                        };
                        if i % 2 == 0 {
                            engine.execute(OpClass::Mutate(3), body);
                        } else {
                            // Sharded path on the same slot: the ring
                            // lock is what excludes it from the other
                            // sharded executions; the cell lock excludes
                            // it from the exclusive ones. We mutate
                            // through a cell that is a plain counter, so
                            // emulate with execute for the counter but
                            // verify the locks via try_execute_sharded.
                            engine.try_execute_sharded(OpClass::Mutate(3), |_| {
                                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                                max_inside.fetch_max(now, Ordering::SeqCst);
                                inside.fetch_sub(1, Ordering::SeqCst);
                                Some(())
                            });
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no deadlock between paths");
        }
        assert_eq!(max_inside.load(Ordering::SeqCst), 1);
    }
}
