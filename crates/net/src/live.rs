//! A real multi-threaded in-memory transport.
//!
//! The simulator in [`crate::network`] is the substrate every experiment
//! runs on, but a distributed file system ultimately exchanges messages
//! between concurrently executing machines. [`LiveBus`] provides exactly
//! the same connectivity semantics (crashes, partitions, symmetric
//! reachability) over real threads, so the live runtime can run the
//! message layer off the simulator. It is intentionally unordered across
//! senders — ordering is ISIS's job, one layer up.
//!
//! # The hand-off
//!
//! Every request in the live cell is two hand-offs (client → server
//! thread → client), so the bus owns the primitive instead of borrowing
//! a general-purpose channel. Each endpoint has one mailbox: a mutex
//! over the frame deque and a count of parked receivers, plus a condvar.
//!
//! * **send** takes the topology read lock once (liveness, partition,
//!   destination look-up and the destination's crash epoch all come out
//!   of that one critical section), pushes under the mailbox lock, and
//!   issues a wake-up *only if a receiver is actually parked* — a send to
//!   a busy receiver is two uncontended lock round trips and no syscall.
//! * **receive** takes only the mailbox lock. Finding the deque empty,
//!   an endpoint that has sent since it last yielded or parked *owes a
//!   turn*: it drops the lock, calls `yield_now` exactly once, and looks
//!   again; then — or at once, if no turn was owed — it parks. The
//!   node's crash flag and epoch are mirrored into atomics on its
//!   mailbox, so neither the receive side nor a server's "am I crashed?"
//!   check touches a shared lock.
//!
//! There is no spin-before-park, and the one yield is its complement:
//! while the receiver *spins* the sender cannot run on the same CPU;
//! while it *yields*, the peer it has just handed work to is what runs.
//! In a closed loop on a shared CPU that peer answers a mailbox whose
//! owner is not parked (no wake-up), finds its own empty and gives the
//! turn back: a request costs two `sched_yield`s where it cost two
//! wake-ups and two parks. An endpoint that only receives owes nothing;
//! a yield that finds nothing costs one system call and then the same
//! park. Correctness never depends on what the yield does — the re-check
//! and the park run under the mailbox lock as without it — and the turn
//! is a flag outside any loop: [`LiveBus::yields`] ≤ accepted sends.
//!
//! # Partitions
//!
//! A partition holds groups of the nodes that have a network identity
//! of their own — a cell's servers. A client session has none: its
//! endpoint is attached to its home ([`LiveEndpoint::attach`]) and sits
//! on the home's side of any split, so a split never names it and a
//! re-homed session moves with its home. A send looks at the homes only
//! while a split is in force.
//!
//! # Delivery invariants
//!
//! 1. A frame accepted before [`LiveBus::crash`]`(n)` returns is never
//!    delivered by `n`: frames carry the destination's crash epoch, read
//!    under the same lock as the liveness check, and a crash bumps it.
//! 2. Crash state and epoch belong to the node and outlive its endpoint.
//! 3. A send to a crashed, partitioned-away or unregistered peer returns
//!    `false` and counts in [`LiveBus::rejected`].
//! 4. [`LiveBus::delivered`] counts at enqueue, and `delivered −
//!    dropped_stale` is the number of frames handed to receivers.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use deceit_sim::atomic::{PublishedBool, PublishedU64, RelaxedU64};
use deceit_sim::wall;
use parking_lot::RwLock;

use crate::node::NodeId;
use crate::topology::Partition;

/// One delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending machine.
    pub from: NodeId,
    /// Payload.
    pub msg: M,
}

/// The queued frame: an envelope stamped with the destination's crash
/// epoch at send time, so traffic queued before a crash can be told
/// apart from traffic sent after the recovery.
#[derive(Debug)]
struct Sealed<M> {
    env: Envelope<M>,
    epoch: u64,
}

#[derive(Debug)]
struct Queue<M> {
    frames: VecDeque<Sealed<M>>,
    /// Receivers blocked in [`Mailbox::ready`]; a send wakes one only
    /// when this is non-zero.
    parked: usize,
    /// Set by [`LiveBus::close`]: an empty queue stops blocking.
    closed: bool,
}

/// One endpoint's receive queue and the lock-free mirror of its node's
/// crash state. The mirror is written only under the topology write
/// lock; senders read it under the topology read lock, the owning
/// endpoint reads it with no lock at all.
#[derive(Debug)]
struct Mailbox<M> {
    queue: Mutex<Queue<M>>,
    ready: Condvar,
    crashed: PublishedBool,
    epoch: PublishedU64,
}

impl<M> Mailbox<M> {
    /// The queue guard. Every update under it (push, pop, the parked
    /// count) leaves the queue valid, so a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, Queue<M>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Everything a send must agree on, behind one lock.
#[derive(Debug)]
struct Topology<M> {
    mailboxes: BTreeMap<NodeId, Arc<Mailbox<M>>>,
    partition: Partition,
    /// `(crashed, crash count)` of every node that ever crashed. Kept
    /// apart from the mailboxes because it outlives them.
    faults: BTreeMap<NodeId, (bool, u64)>,
    /// The home of every endpoint attached to one
    /// ([`LiveEndpoint::attach`]); an entry leaves with its endpoint.
    homes: BTreeMap<NodeId, NodeId>,
}

impl<M> Topology<M> {
    /// The node whose side of a partition `node` sits on: its home if
    /// it is attached to one, else itself.
    fn site(&self, node: NodeId) -> NodeId {
        self.homes.get(&node).copied().unwrap_or(node)
    }

    /// Whether the partition lets `a` and `b` exchange frames, each on
    /// its home's side. The homes are read only while a split is in
    /// force.
    fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        self.partition.is_connected() || self.partition.can_reach(self.site(a), self.site(b))
    }
}

#[derive(Debug)]
struct BusInner<M> {
    topology: RwLock<Topology<M>>,
    /// Delivery tallies, read only by stats that tolerate staleness.
    delivered: RelaxedU64,
    rejected: RelaxedU64,
    dropped_stale: RelaxedU64,
    wakes: RelaxedU64,
    yields: RelaxedU64,
}

/// A shared in-memory message bus connecting live endpoints.
#[derive(Debug)]
pub struct LiveBus<M> {
    inner: Arc<BusInner<M>>,
}

impl<M> Clone for LiveBus<M> {
    fn clone(&self) -> Self {
        LiveBus { inner: Arc::clone(&self.inner) }
    }
}

/// When a wait that starts now and lasts `timeout` gives up; `None` —
/// never — if the sum overflows. `Duration::MAX` means "no deadline"
/// and does not read the clock to find that out.
pub fn deadline_after(timeout: Duration) -> Option<Instant> {
    if timeout == Duration::MAX {
        return None;
    }
    wall::now().checked_add(timeout)
}

impl<M: Send + 'static> LiveBus<M> {
    /// Creates an empty bus.
    pub fn new() -> Self {
        LiveBus {
            inner: Arc::new(BusInner {
                topology: RwLock::new(Topology {
                    mailboxes: BTreeMap::new(),
                    partition: Partition::connected(),
                    faults: BTreeMap::new(),
                    homes: BTreeMap::new(),
                }),
                delivered: RelaxedU64::new(0),
                rejected: RelaxedU64::new(0),
                dropped_stale: RelaxedU64::new(0),
                wakes: RelaxedU64::new(0),
                yields: RelaxedU64::new(0),
            }),
        }
    }

    /// Registers a machine and returns its endpoint. The endpoint takes
    /// up the node's crash state and epoch where a previous endpoint of
    /// the same node left them.
    ///
    /// # Panics
    ///
    /// Panics if the node is already registered.
    pub fn register(&self, node: NodeId) -> LiveEndpoint<M> {
        let mut topo = self.inner.topology.write();
        let (crashed, epoch) = topo.faults.get(&node).copied().unwrap_or((false, 0));
        let mailbox = Arc::new(Mailbox {
            queue: Mutex::new(Queue { frames: VecDeque::new(), parked: 0, closed: false }),
            ready: Condvar::new(),
            crashed: PublishedBool::new(crashed),
            epoch: PublishedU64::new(epoch),
        });
        let prev = topo.mailboxes.insert(node, Arc::clone(&mailbox));
        assert!(prev.is_none(), "node {node} registered twice");
        drop(topo);
        LiveEndpoint { node, mailbox, bus: self.clone(), owes_turn: PublishedBool::new(false) }
    }

    /// Imposes a partition on the bus. An endpoint attached to a home
    /// ([`LiveEndpoint::attach`]) sits on its home's side; any other
    /// node not named in `groups` sits in the implicit rest group.
    pub fn split(&self, groups: &[&[NodeId]]) {
        self.inner.topology.write().partition = Partition::split(groups);
    }

    /// Heals any partition.
    pub fn heal(&self) {
        self.inner.topology.write().partition.heal();
    }

    /// Marks a machine as crashed: its traffic is rejected in both
    /// directions until [`LiveBus::recover`], and everything already
    /// queued at the machine evaporates — a dead kernel's buffers do not
    /// survive the reboot. (The queue is invalidated by bumping the
    /// node's crash epoch; the endpoint discards stale frames on
    /// receive.)
    pub fn crash(&self, node: NodeId) {
        let mut topo = self.inner.topology.write();
        let fault = topo.faults.entry(node).or_insert((false, 0));
        if fault.0 {
            return;
        }
        *fault = (true, fault.1 + 1);
        let epoch = fault.1;
        if let Some(mailbox) = topo.mailboxes.get(&node) {
            // Release: pairs with the owner's lock-free Acquire loads.
            mailbox.crashed.store(true);
            mailbox.epoch.store(epoch);
        }
    }

    /// Recovers a crashed machine.
    pub fn recover(&self, node: NodeId) {
        let mut topo = self.inner.topology.write();
        if let Some(fault) = topo.faults.get_mut(&node) {
            fault.0 = false;
        }
        if let Some(mailbox) = topo.mailboxes.get(&node) {
            mailbox.crashed.store(false);
        }
    }

    /// Whether `node` is currently marked crashed — by node id, for
    /// tests and failure injection. A server's message loop asks its own
    /// endpoint instead ([`LiveEndpoint::is_crashed`], no lock).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.inner.topology.read().faults.get(&node).is_some_and(|f| f.0)
    }

    /// All registered node ids, in ascending order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.inner.topology.read().mailboxes.keys().copied().collect()
    }

    /// Whether `a` and `b` can currently exchange messages (crash and
    /// partition state combined, each endpoint on its home's side) — the
    /// same rule a send enforces, exposed for differential testing
    /// against the simulator's topology rules.
    pub fn can_exchange(&self, a: NodeId, b: NodeId) -> bool {
        let topo = self.inner.topology.read();
        let crashed = |n| topo.faults.get(&n).is_some_and(|f| f.0);
        !crashed(a) && !crashed(b) && topo.reaches(a, b)
    }

    /// Closes every registered mailbox: its receiver, parked now or
    /// receiving later, gets `None` as soon as the queue is empty,
    /// whatever its timeout. Sends are unaffected. This is how a cell
    /// wakes its server threads to stop.
    pub fn close(&self) {
        for mailbox in self.inner.topology.read().mailboxes.values() {
            mailbox.lock().closed = true;
            mailbox.ready.notify_all();
        }
    }

    /// Sends accepted by the bus so far. Counted at enqueue time: a
    /// frame that later evaporates because its destination crashed
    /// before draining it stays counted here *and* appears in
    /// [`LiveBus::dropped_stale`] — subtract to get frames actually
    /// handed to receivers.
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.load()
    }

    /// Send attempts rejected by crash/partition state.
    pub fn rejected(&self) -> u64 {
        self.inner.rejected.load()
    }

    /// Messages that were queued at a machine when it crashed and were
    /// therefore discarded on receive.
    pub fn dropped_stale(&self) -> u64 {
        self.inner.dropped_stale.load()
    }

    /// Wake-ups issued: sends that found a receiver parked. A send to a
    /// receiver that is running costs no wake-up.
    pub fn wakes(&self) -> u64 {
        self.inner.wakes.load()
    }

    /// Turns given: receives that yielded once before parking. Never
    /// more than the accepted sends.
    pub fn yields(&self) -> u64 {
        self.inner.yields.load()
    }

    fn send(&self, from: &LiveEndpoint<M>, to: NodeId, msg: M) -> bool {
        // One critical section: liveness, partition, destination and the
        // destination's epoch. A crash() cannot land between the liveness
        // check and the epoch read, so pre-crash traffic can never carry
        // the post-crash epoch and survive the reboot.
        let topo = self.inner.topology.read();
        let dest = topo.mailboxes.get(&to).filter(|dest| {
            !from.mailbox.crashed.load() && !dest.crashed.load() && topo.reaches(from.node, to)
        });
        let Some(dest) = dest else {
            drop(topo);
            self.inner.rejected.fetch_add(1);
            return false;
        };
        let sealed = Sealed { env: Envelope { from: from.node, msg }, epoch: dest.epoch.load() };
        let mut queue = dest.lock();
        queue.frames.push_back(sealed);
        let wake = queue.parked > 0;
        drop(queue);
        if wake {
            dest.ready.notify_one();
            self.inner.wakes.fetch_add(1);
        }
        drop(topo);
        self.inner.delivered.fetch_add(1);
        from.owes_turn.store(true);
        true
    }
}

impl<M: Send + 'static> Default for LiveBus<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// One machine's connection to the bus.
#[derive(Debug)]
pub struct LiveEndpoint<M> {
    node: NodeId,
    mailbox: Arc<Mailbox<M>>,
    bus: LiveBus<M>,
    /// Set by an accepted send (`Release`), read and cleared by the
    /// owner's next yield or park (`Acquire`): a peer has work this
    /// endpoint gave it and has not been let run.
    owes_turn: PublishedBool,
}

impl<M> Drop for LiveEndpoint<M> {
    /// Unplugs the machine: its mailbox and its attachment leave the
    /// bus, so sends to it fail fast instead of queueing where nobody
    /// will drain. Without this, every short-lived endpoint (client
    /// sessions, most of all) would leak table entries for the bus's
    /// lifetime.
    fn drop(&mut self) {
        let mut topo = self.bus.inner.topology.write();
        topo.mailboxes.remove(&self.node);
        topo.homes.remove(&self.node);
    }
}

impl<M: Send + 'static> LiveEndpoint<M> {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether this machine is currently marked crashed. Lock-free: a
    /// server loop asks on every request whether what it just received
    /// was in a dead machine's buffers.
    pub fn is_crashed(&self) -> bool {
        self.mailbox.crashed.load()
    }

    /// Attaches this endpoint to `home`: under a partition its frames
    /// travel on `home`'s side, in both directions. An endpoint that
    /// never attached sits on its own id's side, and the attachment
    /// leaves the bus with the endpoint.
    pub fn attach(&self, home: NodeId) {
        self.bus.inner.topology.write().homes.insert(self.node, home);
    }

    /// Sends a message; returns false if the peer is unreachable.
    pub fn send(&self, to: NodeId, msg: M) -> bool {
        self.bus.send(self, to, msg)
    }

    /// Blocks until a message arrives or the timeout elapses.
    ///
    /// Frames queued before this machine's most recent crash are
    /// silently discarded — they were in a dead machine's buffers.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.recv_deadline(deadline_after(timeout))
    }

    /// [`LiveEndpoint::recv_timeout`] against an absolute deadline
    /// (`None`: wait until a frame arrives or the bus closes), so a
    /// caller that receives in a loop computes its deadline once.
    pub fn recv_deadline(&self, deadline: Option<Instant>) -> Option<Envelope<M>> {
        let mut queue = self.mailbox.lock();
        if queue.frames.is_empty() && !queue.closed && self.owes_turn.load() {
            // Give the turn: once, outside the lock, then look again.
            // Nothing below depends on what the scheduler made of it.
            self.owes_turn.store(false);
            drop(queue);
            self.bus.inner.yields.fetch_add(1);
            thread::yield_now();
            queue = self.mailbox.lock();
        }
        loop {
            if let Some(env) = self.pop_live(&mut queue) {
                return Some(env);
            }
            if queue.closed {
                return None;
            }
            // Park; the sender sees the count and wakes us. A deadline
            // already past returns before the count goes up.
            self.owes_turn.store(false);
            let left = match deadline {
                None => None,
                Some(deadline) => match deadline.saturating_duration_since(wall::now()) {
                    left if left.is_zero() => return None,
                    left => Some(left),
                },
            };
            queue.parked += 1;
            queue = match left {
                None => self.mailbox.ready.wait(queue).unwrap_or_else(PoisonError::into_inner),
                Some(left) => {
                    let woken = self.mailbox.ready.wait_timeout(queue, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
            queue.parked -= 1;
        }
    }

    /// Returns an already-queued message without blocking, discarding
    /// any frames that predate this machine's most recent crash.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.pop_live(&mut self.mailbox.lock())
    }

    /// Pops the first frame that is not from before the latest crash of
    /// this node, counting the ones that are.
    fn pop_live(&self, queue: &mut Queue<M>) -> Option<Envelope<M>> {
        while let Some(sealed) = queue.frames.pop_front() {
            if sealed.epoch >= self.mailbox.epoch.load() {
                return Some(sealed.env);
            }
            self.bus.inner.dropped_stale.fetch_add(1);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn ping_pong_across_threads() {
        let bus: LiveBus<String> = LiveBus::new();
        let a = bus.register(n(0));
        let b = bus.register(n(1));
        let handle = thread::spawn(move || {
            let env = b.recv_timeout(Duration::from_secs(2)).expect("ping");
            assert_eq!(env.from, n(0));
            assert_eq!(env.msg, "ping");
            assert!(b.send(env.from, "pong".to_string()));
        });
        assert!(a.send(n(1), "ping".to_string()));
        let env = a.recv_timeout(Duration::from_secs(2)).expect("pong");
        assert_eq!(env.msg, "pong");
        handle.join().unwrap();
        assert_eq!(bus.delivered(), 2);
    }

    #[test]
    fn partition_rejects_cross_traffic() {
        let bus: LiveBus<u32> = LiveBus::new();
        let a = bus.register(n(0));
        let b = bus.register(n(1));
        bus.split(&[&[n(0)], &[n(1)]]);
        assert!(!a.send(n(1), 7));
        assert_eq!(bus.rejected(), 1);
        bus.heal();
        assert!(a.send(n(1), 7));
        assert_eq!(b.try_recv().unwrap().msg, 7);
    }

    #[test]
    fn crash_and_recover() {
        let bus: LiveBus<u32> = LiveBus::new();
        let a = bus.register(n(0));
        let b = bus.register(n(1));
        bus.crash(n(1));
        assert!(!a.send(n(1), 1));
        bus.recover(n(1));
        assert!(a.send(n(1), 2));
        assert_eq!(b.try_recv().unwrap().msg, 2);
    }

    #[test]
    fn unregistered_destination_rejected() {
        let bus: LiveBus<u32> = LiveBus::new();
        let a = bus.register(n(0));
        assert!(!a.send(n(9), 1));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_register_panics() {
        let bus: LiveBus<u32> = LiveBus::new();
        let _a = bus.register(n(0));
        let _b = bus.register(n(0));
    }
}
