//! Planted violations for `one-clock`, linted as if this file were
//! `crates/runtime/src/fixture.rs` or `crates/net/src/fixture.rs`.
//! Never compiled — read as text by `tests/fixtures.rs`.

use std::time::{Duration, Instant, SystemTime};

fn planted_instant() -> Instant {
    Instant::now() // VIOLATION
}

fn planted_system_time() -> SystemTime {
    std::time::SystemTime::now() // VIOLATION
}

fn planted_elapsed(start: Instant) -> Duration {
    start.elapsed() // VIOLATION
}

fn negative_cases(start: Instant) -> Duration {
    // A comment may say Instant::now() and .elapsed().
    let s = "so may a string: Instant::now()";
    let _ = s;
    deceit_sim::wall::since(start)
}

fn waived() -> Instant {
    // lint: allow(one-clock): fixture waiver — proves suppression and waiver-usage accounting
    Instant::now()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_time_themselves() {
        let t0 = std::time::Instant::now();
        assert!(t0.elapsed() >= std::time::Duration::ZERO);
    }
}
