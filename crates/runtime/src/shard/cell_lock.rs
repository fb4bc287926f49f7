//! The engine's two lock levels as one type, [`CellLock`]: the cell
//! `RwLock` and the shard ring mutexes behind it.
//!
//! This module is the privacy boundary that carries the lock order (see
//! the parent module's doc). Its fields are invisible to the serve
//! ladder in the parent, so a ring mutex is reachable only through
//! [`CellGuard::ring`], and a [`CellGuard`] only through the methods
//! that claim the thread's debug-build `Entered` mark.

use std::ops::{Deref, DerefMut};

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use deceit_core::OpClass;

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a cell guard (and so maybe ring guards).
    static IN_CELL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// This thread's claim on the cell lock. In debug builds, making one
/// asserts the thread holds no cell guard yet, and dropping it clears the
/// mark; in release builds it is nothing.
#[derive(Debug)]
struct Entered(());

impl Entered {
    fn claim() -> Entered {
        #[cfg(debug_assertions)]
        IN_CELL.with(|held| {
            assert!(
                !held.replace(true),
                "lock order: the cell lock taken while this thread holds it (or a ring lock under it)"
            );
        });
        Entered(())
    }
}

#[cfg(debug_assertions)]
impl Drop for Entered {
    fn drop(&mut self) {
        IN_CELL.with(|held| held.set(false));
    }
}

/// The engine's two lock levels: the cell `RwLock` around the engine,
/// and one ring mutex per shard slot, reachable only through a cell
/// guard (see the `shard` module doc's lock-order invariant). Each rule
/// below is a pair of nearly identical examples: the first compiles, so
/// the second fails for its planted violation alone (with the error
/// named).
///
/// A ring guard exists only by consuming a cell guard; without the cell
/// lock there is no way to a ring lock (E0599: no method `ring` on
/// `CellLock`).
///
/// ```
/// use deceit_runtime::shard::{CellLock, Slots};
///
/// let locks = CellLock::new(7u64, 4);
/// let ring = locks.shared().ring(Slots::one(1));
/// assert_eq!(*ring, 7);
/// ```
///
/// ```compile_fail,E0599
/// use deceit_runtime::shard::{CellLock, Slots};
///
/// let locks = CellLock::new(7u64, 4);
/// let ring = locks.ring(Slots::one(1));
/// ```
///
/// A ring guard takes no more ring locks: a second slot joins the
/// batch, which is taken in ascending order (E0599: no method `ring` on
/// `RingGuard`).
///
/// ```
/// use deceit_runtime::shard::{CellLock, Slots};
///
/// let locks = CellLock::new(7u64, 4);
/// let mut ring = locks.exclusive().ring(Slots::pair(2, 1));
/// *ring += 1;
/// ```
///
/// ```compile_fail,E0599
/// use deceit_runtime::shard::{CellLock, Slots};
///
/// let locks = CellLock::new(7u64, 4);
/// let ring = locks.shared().ring(Slots::one(1)).ring(Slots::one(2));
/// ```
///
/// The ring mutexes cannot be indexed and locked by hand, not even
/// under the cell lock (E0616: the field is private).
///
/// ```
/// use deceit_runtime::shard::{CellLock, Slots};
///
/// let locks = CellLock::new(7u64, 4);
/// let cell = locks.shared();
/// let ring = cell.ring(Slots::one(1));
/// ```
///
/// ```compile_fail,E0616
/// use deceit_runtime::shard::{CellLock, Slots};
///
/// let locks = CellLock::new(7u64, 4);
/// let cell = locks.shared();
/// let ring = locks.rings[1].lock();
/// ```
///
/// A batch is a [`Slots`], never a slice that could be unsorted, name a
/// slot twice (a self-deadlock) or name a third slot left unlocked
/// (E0308: mismatched types).
///
/// ```
/// use deceit_runtime::shard::{CellLock, Slots};
///
/// let locks = CellLock::new(7u64, 4);
/// let ring = locks.shared().ring(Slots::pair(3, 1));
/// ```
///
/// ```compile_fail,E0308
/// use deceit_runtime::shard::{CellLock, Slots};
///
/// let locks = CellLock::new(7u64, 4);
/// let ring = locks.shared().ring(&[3, 1, 3]);
/// ```
#[derive(Debug)]
pub struct CellLock<S> {
    cell: RwLock<S>,
    rings: Box<[Mutex<()>]>,
}

impl<S> CellLock<S> {
    /// Wraps `engine` with `slots` ring slots (at least one).
    pub fn new(engine: S, slots: usize) -> Self {
        let rings = (0..slots.max(1)).map(|_| Mutex::new(())).collect();
        CellLock { cell: RwLock::new(engine), rings }
    }

    /// Number of ring slots.
    pub fn slot_count(&self) -> usize {
        self.rings.len()
    }

    /// The shared cell lock, blocking.
    pub fn shared(&self) -> CellGuard<'_, RwLockReadGuard<'_, S>> {
        let entered = Entered::claim();
        self.guard(self.cell.read(), entered)
    }

    /// The shared cell lock, if it is free of writers now.
    pub fn try_shared(&self) -> Option<CellGuard<'_, RwLockReadGuard<'_, S>>> {
        let entered = Entered::claim();
        Some(self.guard(self.cell.try_read()?, entered))
    }

    /// The exclusive cell lock, blocking.
    pub fn exclusive(&self) -> CellGuard<'_, RwLockWriteGuard<'_, S>> {
        let entered = Entered::claim();
        self.guard(self.cell.write(), entered)
    }

    /// The exclusive cell lock, if it is free now.
    pub fn try_exclusive(&self) -> Option<CellGuard<'_, RwLockWriteGuard<'_, S>>> {
        let entered = Entered::claim();
        Some(self.guard(self.cell.try_write()?, entered))
    }

    fn guard<G>(&self, cell: G, entered: Entered) -> CellGuard<'_, G> {
        CellGuard { cell, rings: &self.rings, _entered: entered }
    }

    /// Consumes the lock, returning the engine.
    pub fn into_inner(self) -> S {
        self.cell.into_inner()
    }
}

/// Up to two ring slots, strictly ascending: a batch that can be taken
/// in order without deadlock and without a slot left out or taken twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slots {
    lo: Option<usize>,
    hi: Option<usize>,
}

impl Slots {
    /// No ring slot.
    pub const NONE: Slots = Slots { lo: None, hi: None };

    /// One slot.
    pub fn one(slot: usize) -> Slots {
        Slots { lo: Some(slot), hi: None }
    }

    /// Two slots in either order; the same slot twice is one.
    pub fn pair(a: usize, b: usize) -> Slots {
        let (lo, hi) = (a.min(b), a.max(b));
        Slots { lo: Some(lo), hi: (hi != lo).then_some(hi) }
    }

    /// The slots `class` declares among `shards` ring slots.
    pub fn of(class: OpClass, shards: usize) -> Slots {
        // `OpClass::slots` yields at most two, ascending and deduplicated.
        let mut slots = class.slots(shards);
        Slots { lo: slots.next(), hi: slots.next() }
    }
}

/// A held cell lock: `G` is the shared or the exclusive guard.
#[derive(Debug)]
pub struct CellGuard<'a, G> {
    cell: G,
    rings: &'a [Mutex<()>],
    _entered: Entered,
}

impl<'a, G> CellGuard<'a, G> {
    /// Adds the ring locks of `slots`, ascending, keeping the cell lock.
    pub fn ring(self, slots: Slots) -> RingGuard<'a, G> {
        let rings = self.rings;
        let _ring = [slots.lo.map(|s| rings[s].lock()), slots.hi.map(|s| rings[s].lock())];
        RingGuard { _ring, cell: self }
    }
}

impl<G: Deref> Deref for CellGuard<'_, G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.cell
    }
}

impl<G: DerefMut> DerefMut for CellGuard<'_, G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.cell
    }
}

/// A held cell lock plus ring locks. The ring locks are released first.
#[derive(Debug)]
pub struct RingGuard<'a, G> {
    _ring: [Option<MutexGuard<'a, ()>>; 2],
    cell: CellGuard<'a, G>,
}

impl<G: Deref> Deref for RingGuard<'_, G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.cell
    }
}

impl<G: DerefMut> DerefMut for RingGuard<'_, G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.cell
    }
}
