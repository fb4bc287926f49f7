//! The one wall clock.
//!
//! Simulated time ([`crate::SimTime`]) never reads the wall clock; the
//! live transport and runtime must, to stamp latencies and bound waits.
//! Every such read goes through [`now`] (or [`since`], which is one
//! [`now`]) and is counted, so a test can pin how many clock reads a
//! request costs ([`reads`]). `deceit-lint`'s `one-clock` rule keeps
//! product code from reading an `Instant` anywhere else.
//!
//! Counting stays off shared cache lines: each thread owns one counter,
//! written only by that thread with a plain load and store (no atomic
//! read-modify-write), and registered in a global list the first time
//! the thread reads the clock. The counter is never freed (8 bytes per
//! thread that ever read the clock), so an exited thread's reads stay
//! counted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Every thread's counter. Pushing one leaves the list valid, so a
/// poisoned lock is recovered.
static COUNTERS: Mutex<Vec<&'static AtomicU64>> = Mutex::new(Vec::new());

thread_local! {
    static MINE: &'static AtomicU64 = {
        let mine: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        COUNTERS.lock().unwrap_or_else(PoisonError::into_inner).push(mine);
        mine
    };
}

/// Reads the wall clock, counting the read against this thread.
pub fn now() -> Instant {
    MINE.with(|mine| mine.store(mine.load(Ordering::Relaxed) + 1, Ordering::Relaxed));
    Instant::now()
}

/// The time since `start`: one counted read.
pub fn since(start: Instant) -> Duration {
    now().saturating_duration_since(start)
}

/// Clock reads so far by every thread of the process, live or exited.
pub fn reads() -> u64 {
    let counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test in this crate that reads the clock, so the
    /// process-wide count moves by exactly what it does.
    #[test]
    fn reads_count_every_thread_live_and_exited() {
        let before = reads();
        let start = now();
        assert_eq!(reads(), before + 1);
        std::thread::spawn(|| {
            for _ in 0..5 {
                now();
            }
        })
        .join()
        .unwrap();
        assert_eq!(reads(), before + 6, "an exited thread's reads stay counted");
        assert!(since(start) >= Duration::ZERO);
        assert_eq!(reads(), before + 7, "`since` is one read");
    }
}
