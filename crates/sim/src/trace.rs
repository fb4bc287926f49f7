//! Structured protocol tracing.
//!
//! Table 1 of the paper lists the "typical sequence of events in an update"
//! (acquire token → mark unstable → distributed update → count replies →
//! generate replicas → mark stable). To regenerate that table we need the
//! protocol layers to emit machine-checkable events rather than log lines;
//! [`TraceLog`] collects them with their simulated timestamps and the tests
//! assert on the observed order.
//!
//! The log is internally synchronized: [`TraceLog::emit`] takes `&self`,
//! so protocol code running under a shared lock (the concurrent host's
//! sharded mutation path) can trace without exclusive access. Entries are
//! appended in lock-acquisition order, which in a single-threaded run is
//! exactly emission order.

use std::fmt;
use std::sync::Mutex;

use crate::time::SimTime;

/// Marker trait for trace event payloads.
///
/// The event type lives in the layer that emits it (e.g. the segment
/// server's `ProtocolEvent`); the kernel only requires that events can be
/// printed and compared in tests.
pub trait TraceEvent: fmt::Debug + Clone + PartialEq {}

impl<T: fmt::Debug + Clone + PartialEq> TraceEvent for T {}

/// An append-only, timestamped log of protocol events.
#[derive(Debug)]
pub struct TraceLog<E: TraceEvent> {
    entries: Mutex<Vec<(SimTime, E)>>,
    enabled: bool,
}

impl<E: TraceEvent> Clone for TraceLog<E> {
    fn clone(&self) -> Self {
        TraceLog { entries: Mutex::new(self.entries()), enabled: self.enabled }
    }
}

impl<E: TraceEvent> TraceLog<E> {
    /// Creates an enabled, empty log.
    pub fn new() -> Self {
        TraceLog { entries: Mutex::new(Vec::new()), enabled: true }
    }

    /// Creates a disabled log; [`TraceLog::emit`] becomes a no-op.
    ///
    /// Benchmarks disable tracing so the trace cost does not pollute
    /// measured latencies.
    pub fn disabled() -> Self {
        TraceLog { entries: Mutex::new(Vec::new()), enabled: false }
    }

    /// Whether [`TraceLog::emit`] records anything — lets a caller that
    /// would have to clone an event for the log skip the clone.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event at the given simulated time.
    pub fn emit(&self, at: SimTime, event: E) {
        if self.enabled {
            self.lock().push((at, event));
        }
    }

    /// All entries in emission order.
    pub fn entries(&self) -> Vec<(SimTime, E)> {
        self.lock().clone()
    }

    /// Just the events, without timestamps.
    pub fn events(&self) -> Vec<E> {
        self.lock().iter().map(|(_, e)| e.clone()).collect()
    }

    /// Events matching a predicate, in order.
    pub fn filter(&self, pred: impl Fn(&E) -> bool) -> Vec<E> {
        self.lock().iter().filter(|(_, e)| pred(e)).map(|(_, e)| e.clone()).collect()
    }

    /// True when the events matching `pred` appear in exactly the order of
    /// `expected` (other events may be interleaved).
    pub fn subsequence_matches(&self, pred: impl Fn(&E) -> bool, expected: &[E]) -> bool {
        self.filter(pred) == expected
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Discards all entries.
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(SimTime, E)>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<E: TraceEvent> Default for TraceLog<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Acquire,
        Unstable,
        Update(u32),
        Stable,
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn records_in_order() {
        let log = TraceLog::new();
        log.emit(t(1), Ev::Acquire);
        log.emit(t(2), Ev::Unstable);
        log.emit(t(3), Ev::Update(1));
        log.emit(t(9), Ev::Stable);
        assert_eq!(log.len(), 4);
        assert_eq!(log.events(), vec![Ev::Acquire, Ev::Unstable, Ev::Update(1), Ev::Stable]);
    }

    #[test]
    fn filter_and_subsequence() {
        let log = TraceLog::new();
        log.emit(t(1), Ev::Acquire);
        log.emit(t(2), Ev::Update(1));
        log.emit(t(3), Ev::Update(2));
        log.emit(t(4), Ev::Stable);
        let updates = log.filter(|e| matches!(e, Ev::Update(_)));
        assert_eq!(updates, vec![Ev::Update(1), Ev::Update(2)]);
        assert!(log.subsequence_matches(
            |e| matches!(e, Ev::Acquire | Ev::Stable),
            &[Ev::Acquire, Ev::Stable]
        ));
        assert!(!log.subsequence_matches(|_| true, &[Ev::Stable]));
    }

    #[test]
    fn disabled_log_drops_events() {
        let log = TraceLog::disabled();
        log.emit(t(1), Ev::Acquire);
        assert!(log.is_empty());
    }

    #[test]
    fn clear_empties() {
        let log = TraceLog::new();
        log.emit(t(1), Ev::Acquire);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn emit_is_shared_access() {
        // The point of the interior lock: many emitters, one log, no
        // exclusive borrow needed.
        let log = std::sync::Arc::new(TraceLog::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || log.emit(t(i), Ev::Update(i as u32)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 4);
    }
}
