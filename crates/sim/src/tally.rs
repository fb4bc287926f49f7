//! Per-thread counts, summed over every thread of the process.
//!
//! Counting stays off shared cache lines: each thread owns one counter,
//! written only by that thread with a plain load and store (no atomic
//! read-modify-write), and registered in the tally's list the first time
//! the thread counts. The counter is never freed (8 bytes per thread that
//! ever counted), so an exited thread's counts stay in the sum.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Every registered thread's counter. Pushing one leaves the list valid,
/// so a poisoned lock is recovered.
pub(crate) struct Tally(Mutex<Vec<&'static AtomicU64>>);

impl Tally {
    pub(crate) const fn new() -> Self {
        Tally(Mutex::new(Vec::new()))
    }

    /// A fresh counter for the calling thread, counted in this tally.
    pub(crate) fn register(&self) -> &'static AtomicU64 {
        let mine: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(mine);
        mine
    }

    /// The counts of every thread, live or exited.
    pub(crate) fn sum(&self) -> u64 {
        let counters = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Counts one on a thread's own counter (its only writer).
pub(crate) fn bump(mine: &AtomicU64) {
    mine.store(mine.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}
