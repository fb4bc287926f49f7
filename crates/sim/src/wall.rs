//! The one wall clock.
//!
//! Simulated time ([`crate::SimTime`]) never reads the wall clock; the
//! live transport and runtime must, to stamp latencies and bound waits.
//! Every such read goes through [`now`] (or [`since`], which is one
//! [`now`]) and is counted against the reading thread, so a test can pin
//! how many clock reads a request costs ([`reads`]). Clippy's
//! `disallowed_methods` (the workspace `clippy.toml`) keeps code from
//! reading an `Instant` anywhere else.

use std::time::{Duration, Instant};

use crate::atomic::{RelaxedU64, Tally};

static READS: Tally = Tally::new();

thread_local! {
    static MINE: &'static RelaxedU64 = READS.register();
}

/// Reads the wall clock, counting the read against this thread.
#[expect(clippy::disallowed_methods, reason = "the one clock: every read is counted above")]
pub fn now() -> Instant {
    MINE.with(|mine| mine.bump_own());
    Instant::now()
}

/// The time since `start`: one counted read.
pub fn since(start: Instant) -> Duration {
    now().saturating_duration_since(start)
}

/// Clock reads so far by every thread of the process, live or exited.
pub fn reads() -> u64 {
    READS.sum()
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
