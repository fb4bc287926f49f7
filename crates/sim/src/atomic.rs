//! The one place std atomics are named.
//!
//! Each type here wraps one std atomic and fixes its memory ordering, so
//! a declaration says how every access to it is ordered and no call site
//! can pick another. Clippy's `disallowed_types` (the workspace
//! `clippy.toml`) keeps the std atomics out of every other module, test
//! code included:
//!
//! * [`RelaxedU64`] — every access `Relaxed`: tallies, gauges, hints and
//!   id allocators, whose readers tolerate a stale value and never use it
//!   to justify reading other shared memory;
//! * [`PublishedU64`] and [`PublishedBool`] — every write `Release`,
//!   every load `Acquire`: a value a reader acts on, such as a flag or an
//!   epoch, published together with the memory written before it.
//!
//! The per-thread counters of [`crate::wall`] and [`crate::leaf`] live
//! here too (`Tally`).
#![expect(
    clippy::disallowed_types,
    reason = "the one module that names std atomics: each type below fixes the ordering of every access to the atomic it wraps"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A `u64` whose every access is `Relaxed`. Read-modify-writes stay
/// atomic, so counts are never lost and allocated ids never repeat; only
/// the order in which other memory becomes visible is left open.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct RelaxedU64(AtomicU64);

impl RelaxedU64 {
    #[inline]
    pub const fn new(v: u64) -> Self {
        RelaxedU64(AtomicU64::new(v))
    }

    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Subtracts `n` (wrapping), returning the previous value.
    #[inline]
    pub fn fetch_sub(&self, n: u64) -> u64 {
        self.0.fetch_sub(n, Ordering::Relaxed)
    }

    /// Subtracts `n`, stopping at zero.
    #[inline]
    pub fn saturating_sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Raises the value to `v` if it is lower, returning the previous
    /// value.
    #[inline]
    pub fn fetch_max(&self, v: u64) -> u64 {
        self.0.fetch_max(v, Ordering::Relaxed)
    }

    #[inline]
    pub fn swap(&self, v: u64) -> u64 {
        self.0.swap(v, Ordering::Relaxed)
    }

    /// Stores `new` if the value is `current`; returns the value seen.
    #[inline]
    pub fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.0.compare_exchange(current, new, Ordering::Relaxed, Ordering::Relaxed)
    }

    /// Counts one on a counter only the calling thread writes: a plain
    /// load and store, no read-modify-write.
    #[inline]
    pub(crate) fn bump_own(&self) {
        self.store(self.load() + 1);
    }
}

/// A `u64` whose every write (store or read-modify-write) is `Release`
/// and every load `Acquire`: a reader that sees a value also sees what
/// the writer wrote before it.
#[derive(Debug)]
#[repr(transparent)]
pub struct PublishedU64(AtomicU64);

impl PublishedU64 {
    #[inline]
    pub const fn new(v: u64) -> Self {
        PublishedU64(AtomicU64::new(v))
    }

    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Release);
    }

    /// Adds `n`, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Release)
    }

    /// Subtracts `n` (wrapping), returning the previous value.
    #[inline]
    pub fn fetch_sub(&self, n: u64) -> u64 {
        self.0.fetch_sub(n, Ordering::Release)
    }
}

/// A flag whose every store is `Release` and every load `Acquire`.
#[derive(Debug)]
#[repr(transparent)]
pub struct PublishedBool(AtomicBool);

impl PublishedBool {
    #[inline]
    pub const fn new(v: bool) -> Self {
        PublishedBool(AtomicBool::new(v))
    }

    #[inline]
    pub fn load(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    #[inline]
    pub fn store(&self, v: bool) {
        self.0.store(v, Ordering::Release);
    }
}

/// Per-thread counts, summed over every thread of the process.
///
/// Counting stays off shared cache lines: each thread owns one counter,
/// written only by that thread with a plain load and store (no atomic
/// read-modify-write), and registered in the tally's list the first time
/// the thread counts. The counter is never freed (8 bytes per thread that
/// ever counted), so an exited thread's counts stay in the sum. Pushing a
/// counter leaves the list valid, so a poisoned lock is recovered.
pub(crate) struct Tally(Mutex<Vec<&'static RelaxedU64>>);

#[expect(
    clippy::disallowed_methods,
    reason = "`leaf` counts its rounds in a tally, so a tally's own lock cannot go through `leaf`"
)]
impl Tally {
    #[inline]
    pub(crate) const fn new() -> Self {
        Tally(Mutex::new(Vec::new()))
    }

    /// A fresh counter for the calling thread, counted in this tally;
    /// keep it in a `thread_local!` and count with
    /// [`RelaxedU64::bump_own`].
    pub(crate) fn register(&self) -> &'static RelaxedU64 {
        let mine: &'static RelaxedU64 = Box::leak(Box::new(RelaxedU64::new(0)));
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(mine);
        mine
    }

    /// The counts of every thread, live or exited.
    pub(crate) fn sum(&self) -> u64 {
        let counters = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        counters.iter().map(|c| c.load()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static HITS: RelaxedU64 = RelaxedU64::new(7);
    static READY: PublishedBool = PublishedBool::new(false);
    static EPOCH: PublishedU64 = PublishedU64::new(1);

    #[test]
    fn statics_are_built_by_const_new() {
        assert_eq!(HITS.fetch_add(2), 7);
        assert_eq!(HITS.fetch_max(5), 9);
        assert_eq!(HITS.fetch_max(20), 9);
        assert_eq!(HITS.compare_exchange(0, 1), Err(20));
        assert_eq!(HITS.swap(3), 20);
        HITS.saturating_sub(5);
        assert_eq!(HITS.load(), 0, "saturates at zero");
        assert_eq!(EPOCH.fetch_add(1), 1);
        assert_eq!(EPOCH.fetch_sub(2), 2);
        let waiter = std::thread::spawn(|| {
            while !READY.load() {
                std::hint::spin_loop();
            }
            EPOCH.load()
        });
        EPOCH.store(9);
        READY.store(true);
        assert_eq!(waiter.join().unwrap(), 9, "the flag publishes the epoch stored before it");
    }

    #[test]
    fn per_thread_counts_survive_an_exited_thread() {
        static COUNTS: Tally = Tally::new();
        thread_local! {
            static MINE: &'static RelaxedU64 = COUNTS.register();
        }
        MINE.with(|mine| mine.bump_own());
        std::thread::spawn(|| {
            for _ in 0..5 {
                MINE.with(|mine| mine.bump_own());
            }
            assert_eq!(MINE.with(|mine| mine.load()), 5, "a thread sees only its own count");
        })
        .join()
        .unwrap();
        assert_eq!(MINE.with(|mine| mine.load()), 1);
        assert_eq!(COUNTS.sum(), 6, "an exited thread's counts stay in the sum");
    }
}
