//! The one leaf-lock acquisition.
//!
//! A *leaf* lock guards one short critical section that takes no other
//! lock: a shard slot of the engine's hot state, a flight-recorder ring,
//! a server's failure detector, the simulated network's accounting, the
//! group directory. Every acquisition of one goes through this module,
//! which
//!
//! * **counts** it against the acquiring thread, the way [`crate::wall`]
//!   counts clock reads, so a test can pin how many lock rounds a request
//!   costs ([`rounds`]);
//! * **recovers a poisoned lock**: a leaf section leaves its data valid
//!   at every step a panic could interrupt, so the next holder carries
//!   on rather than propagating the panic;
//! * in debug builds, **asserts the slot rule**: a thread holds at most
//!   one slot lock ([`lock_slot`]) at a time. A closure run under one is
//!   a leaf, so taking a second — another visit, another map of the same
//!   server (which would deadlock on itself) — is a bug wherever it
//!   happens, not only where it happens to deadlock.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::atomic::{RelaxedU64, Tally};

static ROUNDS: Tally = Tally::new();

thread_local! {
    static MINE: &'static RelaxedU64 = ROUNDS.register();
}

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a slot lock.
    static IN_SLOT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count() {
    MINE.with(|mine| mine.bump_own());
}

/// Locks a leaf mutex: one counted round.
#[expect(clippy::disallowed_methods, reason = "the leaf-lock funnel: counts the round here")]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    count();
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks a leaf `RwLock`: one counted round.
#[expect(clippy::disallowed_methods, reason = "the leaf-lock funnel: counts the round here")]
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    count();
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks a leaf `RwLock`: one counted round.
#[expect(clippy::disallowed_methods, reason = "the leaf-lock funnel: counts the round here")]
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    count();
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Locks one shard slot: [`lock`], plus — in debug builds — the
/// assertion that this thread holds no other slot lock.
pub fn lock_slot<T>(m: &Mutex<T>) -> SlotGuard<'_, T> {
    #[cfg(debug_assertions)]
    IN_SLOT.with(|held| {
        assert!(
            !held.replace(true),
            "a slot lock taken while holding another: slot closures are leaves"
        );
    });
    SlotGuard(lock(m))
}

/// A held slot lock ([`lock_slot`]).
#[derive(Debug)]
pub struct SlotGuard<'a, T>(MutexGuard<'a, T>);

impl<T> Deref for SlotGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for SlotGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> Drop for SlotGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        IN_SLOT.with(|held| held.set(false));
    }
}

/// Leaf-lock rounds so far by every thread of the process, live or
/// exited.
pub fn rounds() -> u64 {
    ROUNDS.sum()
}

/// Leaf-lock rounds so far by the calling thread alone: what a
/// single-threaded engine loop costs, whatever runs beside it.
pub fn rounds_here() -> u64 {
    MINE.with(|mine| mine.load())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test in this crate that takes leaf locks, so the
    /// process-wide count moves by exactly what it does.
    #[test]
    fn every_acquisition_is_one_round_and_poison_is_recovered() {
        let before = rounds();
        let m = Mutex::new(1);
        let l = RwLock::new(2);
        *lock(&m) += 1;
        assert_eq!(*read(&l), 2);
        *write(&l) += 1;
        *lock_slot(&m) += 1;
        assert_eq!(rounds(), before + 4);
        let here = rounds_here();
        drop(lock(&m));
        assert_eq!(rounds_here(), here + 1);
        let poisoned = std::panic::catch_unwind(|| {
            let _held = lock(&m);
            panic!("poison it");
        });
        assert!(poisoned.is_err() && m.is_poisoned());
        assert_eq!(*lock_slot(&m), 3, "a poisoned leaf is recovered");
        std::thread::spawn(|| drop(lock(&Mutex::new(())))).join().unwrap();
        assert_eq!(rounds(), before + 8, "an exited thread's rounds stay counted");
        // One slot lock after another (not inside it) is fine; one inside
        // another is refused in debug builds. (Checked here, not in a test
        // of its own, so the count above is not raced.)
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        drop(lock_slot(&a));
        drop(lock_slot(&b));
        let nested = std::panic::catch_unwind(|| {
            let _outer = lock_slot(&a);
            let _inner = lock_slot(&b);
        });
        if cfg!(debug_assertions) {
            let msg = nested.expect_err("nested slot locks are refused");
            let msg = msg.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("slot closures are leaves"), "{msg}");
        }
        drop(lock_slot(&a)); // the refusal left no slot marked held
    }
}
