//! Pending-event queue.
//!
//! The Deceit cluster drives every deferred action — asynchronous disk
//! write-back, stability timeouts, background replica generation, delayed
//! update propagation — through a single [`EventQueue`]. The queue is
//! *stable*: events scheduled for the same instant pop in the order they
//! were pushed, which keeps simulation runs deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A deterministic min-heap of `(time, payload)` pairs.
///
/// # Examples
///
/// ```
/// use deceit_sim::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(10), "b");
/// q.push(SimTime::from_micros(5), "a");
/// q.push(SimTime::from_micros(10), "c");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "c")));
/// assert_eq!(q.pop(), None);
/// # let _ = SimDuration::ZERO;
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Schedules `payload` at `time` with a caller-provided tiebreak
    /// sequence number.
    ///
    /// A set of queues that shares one external sequence source (the
    /// cluster's per-shard queues share an atomic counter) pops in the
    /// exact `(time, seq)` order a single queue would have produced, even
    /// though the events are physically partitioned. The internal counter
    /// is kept ahead of `seq` so mixing [`EventQueue::push`] in stays
    /// well-ordered.
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, payload: E) {
        self.seq = self.seq.max(seq + 1);
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// The `(time, seq)` key of the earliest pending event — what a
    /// multi-queue pop compares to pick the globally next event.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.time, e.seq))
    }

    /// Schedules `payload` to fire `delay` after `now`.
    pub fn push_after(&mut self, now: SimTime, delay: SimDuration, payload: E) {
        self.push(now + delay, payload);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }

    /// Removes and returns the earliest event due at or before `deadline`.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Removes and returns the earliest event whose payload matches
    /// `pred`, regardless of due time. Non-matching events keep their
    /// positions, so relative order *within* the matching subset is the
    /// same order [`EventQueue::pop`] would have produced.
    ///
    /// This is the per-shard drain primitive: a live host pumps one
    /// shard's deferred work at a time without disturbing the rest of
    /// the queue. Cost is `O(k log n)` where `k` is the number of
    /// earlier non-matching entries, which stays cheap at the queue
    /// depths the runtime sees.
    pub fn pop_where(&mut self, mut pred: impl FnMut(&E) -> bool) -> Option<(SimTime, E)> {
        let mut skipped = Vec::new();
        let mut found = None;
        while let Some(Reverse(e)) = self.heap.pop() {
            if pred(&e.payload) {
                found = Some((e.time, e.payload));
                break;
            }
            skipped.push(Reverse(e));
        }
        self.heap.extend(skipped);
        found
    }

    /// Removes and returns the earliest event for which `pred(time,
    /// payload)` holds, leaving the rest in place — like
    /// [`EventQueue::pop_where`], but the predicate also sees the due
    /// time, so a caller can pop "anything due, plus anything whose
    /// firing needn't wait for its due time" in one primitive.
    pub fn pop_ready(&mut self, mut pred: impl FnMut(SimTime, &E) -> bool) -> Option<(SimTime, E)> {
        // Nothing ready — how every drain ends — is settled by a look,
        // not by popping the whole heap and pushing it back.
        if !self.any_entry(&mut pred) {
            return None;
        }
        let mut skipped = Vec::new();
        let mut found = None;
        while let Some(Reverse(e)) = self.heap.pop() {
            if pred(e.time, &e.payload) {
                found = Some((e.time, e.payload));
                break;
            }
            skipped.push(Reverse(e));
        }
        self.heap.extend(skipped);
        found
    }

    /// Whether any pending entry satisfies `pred(time, payload)` — the
    /// cheap "anything ready here?" probe, without disturbing the heap.
    pub fn any_entry(&self, mut pred: impl FnMut(SimTime, &E) -> bool) -> bool {
        self.heap.iter().any(|Reverse(e)| pred(e.time, &e.payload))
    }

    /// Visits every pending payload, in no particular order — the cheap
    /// "which shards have work" scan, without disturbing the heap.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.heap.iter().map(|Reverse(e)| &e.payload)
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event for which `pred` returns true.
    ///
    /// Used when a server crashes: its scheduled timers and write-backs must
    /// not fire after the crash.
    pub fn retain(&mut self, mut pred: impl FnMut(&E) -> bool) {
        let drained: Vec<_> = std::mem::take(&mut self.heap).into_vec();
        for Reverse(e) in drained {
            if pred(&e.payload) {
                self.heap.push(Reverse(e));
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn pop_due_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(t(10), "early");
        q.push(t(50), "late");
        assert_eq!(q.pop_due(t(20)), Some((t(10), "early")));
        assert_eq!(q.pop_due(t(20)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(50)));
    }

    #[test]
    fn push_after_offsets_from_now() {
        let mut q = EventQueue::new();
        q.push_after(t(100), SimDuration::from_micros(11), ());
        assert_eq!(q.peek_time(), Some(t(111)));
    }

    #[test]
    fn pop_where_preserves_relative_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(t(i), i);
        }
        // Drain the odd subset: comes out in queue order.
        assert_eq!(q.pop_where(|v| v % 2 == 1), Some((t(1), 1)));
        assert_eq!(q.pop_where(|v| v % 2 == 1), Some((t(3), 3)));
        // Non-matching entries were untouched.
        assert_eq!(q.pop(), Some((t(0), 0)));
        assert_eq!(q.pop(), Some((t(2), 2)));
        assert_eq!(q.pop(), Some((t(4), 4)));
        // No match leaves the queue intact.
        assert_eq!(q.pop_where(|v| *v > 100), None);
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop(), Some((t(5), 5)));
    }

    #[test]
    fn retain_filters_payloads() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(t(i), i);
        }
        q.retain(|v| v % 2 == 0);
        let mut kept = Vec::new();
        while let Some((_, v)) = q.pop() {
            kept.push(v);
        }
        assert_eq!(kept, vec![0, 2, 4, 6, 8]);
    }
}
