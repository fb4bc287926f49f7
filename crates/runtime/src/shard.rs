//! The sharded concurrent execution layer, and the serve ladder on it.
//!
//! The first live runtime hosted the whole protocol engine behind one
//! `Mutex`, so `n` server threads executed one request at a time and
//! throughput *fell* as clients were added. `ShardedEngine` replaces
//! that global lock with the locking structure the engine's state
//! actually calls for:
//!
//! * the cold cell-wide state lives under a read-mostly [`parking_lot::RwLock`]:
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
//! `ShardedEngine::serve` is the one place a request meets these
//! locks. It climbs a ladder of three rungs, narrowest first, and
//! stops at the first that answers:
//!
//! 1. a read-only request runs under the shared cell lock alone
//!    ([`NfsService::serve_shared`]), answered from what the addressed
//!    server holds — a stable local replica or a read lease;
//! 2. the ring rung adds ring locks: a read the shared rung declined
//!    takes its shard key's slot ([`NfsService::serve_read_sharded`]:
//!    the §2.1 forward from a server with no replica), anything else
//!    the slots its [`OpClass`] declares ([`NfsService::serve_sharded`]);
//! 3. the exclusive cell lock ([`NfsService::serve`]) serves what
//!    escapes its declared shards — creations, removals that resolve
//!    their victim by name, renames that rewrite a third segment,
//!    version-qualified names, cell-wide inquiries, reconciliation, and
//!    reads that have no shard key or whose lookup must forward a child.
//!
//! A narrower rung that declines changed nothing, so climbing is always
//! safe. Failure injection, settling and the inspection hatches take the
//! exclusive lock through `ShardedEngine::exclusive`.
//!
//! **Lock order invariant: cell lock first (shared or exclusive), then
//! shard ring locks in ascending slot index.** Both levels live in one
//! [`CellLock`], defined in the child module `cell_lock` so that its
//! private fields are out of reach of this module's ladder too, and its
//! types carry the order: a ring guard exists only
//! by consuming a cell guard ([`CellGuard::ring`]), at most once, for a
//! [`Slots`] value that is ascending and deduplicated by construction.
//! So a ring lock without the cell lock, a ring lock under a ring lock,
//! a ring mutex indexed by hand, an unsorted or duplicated batch — none
//! of them compiles (the `compile_fail` examples on [`CellLock`]). The
//! one rule types cannot carry — a thread taking the cell lock while it
//! already holds it, directly or two calls below a ring guard — is
//! asserted in debug builds, as `deceit_sim::leaf::lock_slot` asserts
//! the slot rule. The engine's interior per-slot *data* locks sit below
//! everything: they are leaf locks, held for single container
//! operations, never across another lock acquisition.

mod cell_lock;
pub use cell_lock::{CellGuard, CellLock, RingGuard, Slots};

use parking_lot::{RwLockReadGuard, RwLockWriteGuard};

use deceit_core::{AtomicHistogram, OpClass, ProtocolHost};
use deceit_net::NodeId;
use deceit_nfs::{NfsReply, NfsRequest, NfsService};
use deceit_sim::atomic::RelaxedU64;
use deceit_sim::wall;

/// The rung of the serve ladder that answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    /// The shared cell lock alone.
    Shared,
    /// The shared cell lock plus ring locks.
    Ring,
    /// The exclusive cell lock.
    Cell,
}

impl Rung {
    /// Every rung, narrowest first; `rung as usize` indexes it.
    pub(crate) const ALL: [Rung; 3] = [Rung::Shared, Rung::Ring, Rung::Cell];
}

/// The engine's lock-level observability: acquisition counts per cell
/// lock mode, and the two engine phases of every request — how long it
/// waited to get in (cell-lock acquisition) and how long it held its ring
/// locks. All atomics and [`AtomicHistogram`]s; recording adds a few
/// relaxed ops per execution.
#[derive(Debug)]
pub(crate) struct EngineObs {
    /// Shared (read) cell-lock acquisitions.
    pub shared_acquisitions: RelaxedU64,
    /// Exclusive (write) cell-lock acquisitions.
    pub exclusive_acquisitions: RelaxedU64,
    /// Cell-lock acquisition wait, microseconds — the "queue wait" of a
    /// request: how long it sat behind the lock before executing.
    pub cell_wait: AtomicHistogram,
    /// Ring-lock hold time, microseconds — lock acquisition through body
    /// completion on the ring and exclusive rungs and the pump's drains.
    pub ring_hold: AtomicHistogram,
}

impl EngineObs {
    fn new() -> Self {
        EngineObs {
            shared_acquisitions: RelaxedU64::new(0),
            exclusive_acquisitions: RelaxedU64::new(0),
            cell_wait: AtomicHistogram::new(),
            ring_hold: AtomicHistogram::new(),
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
}

/// A protocol engine under sharded concurrency control. It caches
/// nothing of the engine's state: the pump and the stats ask the engine
/// for its pending work under the shared cell lock, so work scheduled on
/// any rung — a read's lease forward or §2.1 forward included — is seen.
#[derive(Debug)]
pub(crate) struct ShardedEngine<S> {
    locks: CellLock<S>,
    /// Lock-level telemetry; recording is always on (relaxed atomics).
    pub(crate) obs: EngineObs,
}

impl<S> ShardedEngine<S> {
    /// Wraps `engine` with `shards` ring slots (clamped to 1..=64 to
    /// match the engine's pending-work mask).
    fn with_shards(engine: S, shards: usize) -> Self {
        ShardedEngine { locks: CellLock::new(engine, shards.min(64)), obs: EngineObs::new() }
    }

    /// Number of ring slots.
    pub(crate) fn shard_count(&self) -> usize {
        self.locks.slot_count()
    }

    /// Shared access to the engine, concurrent with other readers.
    pub(crate) fn read_guard(&self) -> CellGuard<'_, RwLockReadGuard<'_, S>> {
        let guard = self.obs.waited(self.locks.try_shared(), || self.locks.shared());
        self.obs.shared_acquisitions.fetch_add(1);
        guard
    }

    /// Exclusive access to the engine.
    fn write_guard(&self) -> CellGuard<'_, RwLockWriteGuard<'_, S>> {
        let guard = self.obs.waited(self.locks.try_exclusive(), || self.locks.exclusive());
        self.obs.exclusive_acquisitions.fetch_add(1);
        guard
    }

    /// Runs `f` with *shared* cell access plus the ring locks of `slots`
    /// — the ring rung. `f` returns `None` when the engine cannot execute
    /// within that footprint.
    fn ring<T>(&self, slots: Slots, f: impl FnOnce(&S) -> Option<T>) -> Option<T> {
        let cell = self.read_guard();
        let held = wall::now();
        let ring = cell.ring(slots);
        let out = f(&ring);
        self.obs.ring_hold.record_micros(wall::since(held));
        out
    }

    /// Runs `f` with exclusive access, holding the ring locks of `slots`
    /// — the last rung. (The ring locks are redundant under the exclusive
    /// cell lock but kept so the declared footprint is exercised on every
    /// rung.)
    fn cell<T>(&self, slots: Slots, f: impl FnOnce(&mut S) -> T) -> T {
        let cell = self.write_guard();
        let held = wall::now();
        let mut ring = cell.ring(slots);
        let out = f(&mut ring);
        self.obs.ring_hold.record_micros(wall::since(held));
        out
    }

    /// Consumes the wrapper, returning the engine.
    pub(crate) fn into_inner(self) -> S {
        self.locks.into_inner()
    }
}

impl<S: ProtocolHost> ShardedEngine<S> {
    /// Wraps `engine` with one ring lock per engine shard slot, so
    /// holding slot `s` covers exactly the engine's slot-`s` hot state.
    pub(crate) fn new(engine: S) -> Self {
        let shards = engine.shard_count();
        ShardedEngine::with_shards(engine, shards)
    }

    /// Runs `f` with exclusive access and no shard locks (cell-wide
    /// operations, inspection hatches).
    pub(crate) fn exclusive<T>(&self, f: impl FnOnce(&mut S) -> T) -> T {
        f(&mut self.write_guard())
    }

    /// Fires up to `batch` units of `slot`'s deferred work under the
    /// shared cell lock and that slot's ring lock — concurrent with
    /// request service on every other slot — or, for an engine that
    /// cannot pump a shard through `&self`, under the exclusive lock.
    /// Returns how many fired.
    pub(crate) fn pump_slot(&self, slot: usize, batch: usize) -> usize {
        let fired = self.ring(Slots::one(slot), |e| e.try_pump_shard(slot, batch));
        fired.unwrap_or_else(|| self.cell(Slots::one(slot), |e| e.pump(batch)))
    }
}

impl<S: NfsService + ProtocolHost> ShardedEngine<S> {
    /// Serves one request arriving at server `via` on the narrowest rung
    /// that answers it (see the module doc), returning the reply and that
    /// rung.
    pub(crate) fn serve(&self, via: NodeId, req: NfsRequest) -> (NfsReply, Rung) {
        let class = req.class();
        if class == OpClass::ReadOnly {
            let shared = self.read_guard().serve_shared(via, &req);
            if let Some((rep, _latency)) = shared {
                return (rep, Rung::Shared);
            }
        }
        let shards = self.shard_count();
        let ringed = match class {
            OpClass::ReadOnly => req.shard_key().and_then(|key| {
                self.ring(Slots::of(OpClass::Mutate(key), shards), |e| {
                    e.serve_read_sharded(via, &req)
                })
            }),
            _ => self.ring(Slots::of(class, shards), |e| e.serve_sharded(via, &req)),
        };
        if let Some((rep, _latency)) = ringed {
            return (rep, Rung::Ring);
        }
        let (rep, _latency) = self.cell(Slots::of(class, shards), |e| e.serve(via, req));
        (rep, Rung::Cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::thread;

    fn sharded<S>(s: S) -> Arc<ShardedEngine<S>> {
        Arc::new(ShardedEngine::with_shards(s, 4))
    }

    fn slots(class: OpClass) -> Slots {
        Slots::of(class, 4)
    }

    #[test]
    fn readers_run_concurrently() {
        let engine = sharded(0u64);
        let barrier = Arc::new(Barrier::new(2));
        // Two readers must be inside the engine at the same time: each
        // waits at a barrier only the other can release while both hold
        // the shared lock. A serializing engine would deadlock here.
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let _shared = engine.read_guard();
                    barrier.wait();
                })
            })
            .collect();
        for t in threads {
            t.join().expect("concurrent readers must not deadlock");
        }
    }

    #[test]
    fn sharded_mutations_on_distinct_slots_run_concurrently() {
        let engine = sharded(());
        let barrier = Arc::new(Barrier::new(2));
        // Two ring-rung executions on different slots must be inside the
        // engine at the same time — the whole point of the layer. Each
        // waits at a barrier only the other can release.
        let threads: Vec<_> = [OpClass::Mutate(1), OpClass::Mutate(2)]
            .into_iter()
            .map(|class| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    engine.ring(slots(class), |_| {
                        barrier.wait();
                        Some(())
                    })
                })
            })
            .collect();
        for t in threads {
            t.join().expect("distinct-slot executions must not serialize").unwrap();
        }
    }

    #[test]
    fn same_slot_sharded_mutations_are_mutually_exclusive() {
        let engine = sharded(());
        // Read-modify-writes of one location are totally ordered whatever
        // their memory ordering, so relaxed counters count exactly; the
        // final reads follow the joins.
        let max_inside = Arc::new(RelaxedU64::new(0));
        let inside = Arc::new(RelaxedU64::new(0));
        // Same slot (keys 1 and 5 with 4 shards): never two inside.
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let inside = Arc::clone(&inside);
                let max_inside = Arc::clone(&max_inside);
                let class = if i % 2 == 0 { OpClass::Mutate(1) } else { OpClass::Mutate(5) };
                thread::spawn(move || {
                    for _ in 0..500 {
                        engine.ring(slots(class), |_| {
                            let now = inside.fetch_add(1) + 1;
                            max_inside.fetch_max(now);
                            std::hint::spin_loop();
                            inside.fetch_sub(1);
                            Some(())
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no deadlock on same-slot contention");
        }
        assert_eq!(max_inside.load(), 1, "same-slot mutators must exclude");
    }

    #[test]
    fn class_locking_excludes_conflicts_without_deadlock() {
        let engine = sharded(0u64);
        let max_inside = Arc::new(RelaxedU64::new(0));
        let inside = Arc::new(RelaxedU64::new(0));
        // Hammer overlapping classes — same shard, crossing shards in
        // both orders, cell-wide — from many threads through the
        // *exclusive* rung. Exclusivity: at most one mutator inside at a
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
                        engine.cell(slots(class), |n| {
                            let now = inside.fetch_add(1) + 1;
                            max_inside.fetch_max(now);
                            *n += 1;
                            inside.fetch_sub(1);
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no deadlock under mixed classes");
        }
        assert_eq!(max_inside.load(), 1, "mutators must be mutually exclusive");
        assert_eq!(*engine.read_guard(), 8 * 200);
    }

    /// Ring and exclusive executions on the same class exclude each
    /// other (the cell read/write lock is the bridge).
    #[test]
    fn sharded_and_exclusive_paths_exclude() {
        let engine = sharded(0u64);
        let inside = Arc::new(RelaxedU64::new(0));
        let max_inside = Arc::new(RelaxedU64::new(0));
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let inside = Arc::clone(&inside);
                let max_inside = Arc::clone(&max_inside);
                thread::spawn(move || {
                    let enter = || {
                        let now = inside.fetch_add(1) + 1;
                        max_inside.fetch_max(now);
                        inside.fetch_sub(1);
                    };
                    for _ in 0..300 {
                        // The ring lock excludes the other ring-rung
                        // executions on the slot; the cell lock excludes
                        // the exclusive ones.
                        if i % 2 == 0 {
                            engine.cell(slots(OpClass::Mutate(3)), |_| enter());
                        } else {
                            engine.ring(slots(OpClass::Mutate(3)), |_| {
                                enter();
                                Some(())
                            });
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no deadlock between rungs");
        }
        assert_eq!(max_inside.load(), 1);
    }

    #[test]
    fn slots_are_ascending_and_deduplicated_by_construction() {
        assert_eq!(Slots::pair(3, 1), Slots::pair(1, 3));
        assert_eq!(Slots::pair(2, 2), Slots::one(2));
        assert_eq!(slots(OpClass::CrossShard(5, 1)), Slots::one(1), "same slot with 4 shards");
        assert_eq!(slots(OpClass::CrossShard(6, 1)), Slots::pair(1, 2));
        assert_eq!(slots(OpClass::CellWide), Slots::NONE);
    }

    /// The cell lock taken two calls below a held ring guard: a deadlock
    /// in release builds whenever a writer queues between the two
    /// acquisitions, refused outright in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    fn cell_lock_under_a_ring_guard_panics() {
        fn top(locks: &CellLock<()>) {
            let ring = locks.shared().ring(Slots::one(1));
            middle(locks);
            drop(ring);
        }
        fn middle(locks: &CellLock<()>) {
            deep(locks);
        }
        fn deep(locks: &CellLock<()>) {
            drop(locks.shared());
        }
        let locks = CellLock::new((), 4);
        let err = std::panic::catch_unwind(|| top(&locks)).expect_err("refused");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("lock order"), "{msg}");
        // The refusal left nothing held: the cell and the slot are free.
        drop(locks.exclusive().ring(Slots::one(1)));
    }
}
