//! The transport-agnostic hosting seam.
//!
//! The simulator drives the §3 protocols from a single thread: client
//! operations execute synchronously against [`Cluster`], and deferred work
//! fires from the event queue as the simulated clock advances. A *live*
//! deployment has neither luxury — requests arrive concurrently from real
//! threads, and nothing blocks on simulated time.
//!
//! [`ProtocolHost`] is the seam between those two worlds. It captures
//! exactly what a hosting environment needs from a protocol engine,
//! independent of transport:
//!
//! * advancing deferred protocol work in bounded slices ([`pump`]) or to
//!   quiescence ([`settle`]) — globally with exclusive access, or one
//!   shard at a time with shared access ([`try_pump_shard`]),
//! * failure injection (crash, restart, partition, heal) mirroring the
//!   simulator's API so the same scenarios run in both worlds,
//! * liveness and clock introspection.
//!
//! [`Cluster`] implements it directly; the NFS envelope layers forward
//! their implementations to the cluster underneath, and the
//! `deceit_runtime` crate hosts any implementor on real threads over the
//! live bus.
//!
//! [`pump`]: ProtocolHost::pump
//! [`settle`]: ProtocolHost::settle
//! [`try_pump_shard`]: ProtocolHost::try_pump_shard

use deceit_net::NodeId;
use deceit_sim::SimTime;

use crate::cluster::Cluster;

/// The sharding key of an operation: the per-file identity (segment id)
/// whose hot state the operation touches. Hosts map keys onto a fixed
/// number of shard slots with [`shard_slot`].
pub type ShardKey = u64;

/// Maps a [`ShardKey`] onto one of `shards` shard slots.
///
/// Segment ids are allocated sequentially, so a plain modulus already
/// spreads a cell's files evenly across slots.
pub fn shard_slot(key: ShardKey, shards: usize) -> usize {
    debug_assert!(shards > 0, "a host needs at least one shard");
    (key % shards.max(1) as u64) as usize
}

/// How an operation interacts with engine state — the classification
/// seam a concurrent host dispatches on.
///
/// The engine's state divides into *cold cell-wide* state (membership,
/// groups, the clock and event queues) and *hot per-file* state
/// (replicas, tokens, streams, directory segments). A hosting
/// environment keeps the cell state under a read-mostly lock and the
/// per-file state under shard locks; every operation declares up front
/// which slice it touches so the host can take exactly the locks the
/// class requires (lock order: cell lock first, then shard locks in
/// ascending slot order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Reads per-file or cell state without mutating either: may execute
    /// under the shared cell lock, concurrently with other read-only
    /// operations.
    ReadOnly,
    /// Mutates the hot state of a single file (and, behind it, cell-wide
    /// bookkeeping such as the clock and deferred-work queue).
    Mutate(ShardKey),
    /// Mutates the hot state of two files at once (rename across
    /// directories, hard links): the host takes both shard locks in
    /// ascending slot order.
    CrossShard(ShardKey, ShardKey),
    /// Touches cell-wide state or an unbounded set of files (failure
    /// injection, reconciliation, settling): requires the exclusive cell
    /// lock with no specific shard.
    CellWide,
}

impl OpClass {
    /// The shard slots this class touches, deduplicated and in ascending
    /// order — the exact sequence a host must lock.
    pub fn slots(&self, shards: usize) -> impl Iterator<Item = usize> {
        let (a, b) = match *self {
            OpClass::ReadOnly | OpClass::CellWide => (None, None),
            OpClass::Mutate(k) => (Some(shard_slot(k, shards)), None),
            OpClass::CrossShard(x, y) => {
                let (x, y) = (shard_slot(x, shards), shard_slot(y, shards));
                let (lo, hi) = (x.min(y), x.max(y));
                (Some(lo), (hi != lo).then_some(hi))
            }
        };
        a.into_iter().chain(b)
    }

    /// Writes the slot sequence into a fixed buffer (a class never
    /// declares more than two slots), returning how many were written —
    /// the allocation-free form hosts use on the request hot path.
    pub fn slots_into(&self, shards: usize, buf: &mut [usize; 2]) -> usize {
        let mut n = 0;
        for s in self.slots(shards) {
            buf[n] = s;
            n += 1;
        }
        n
    }
}

/// A protocol engine that can be hosted outside the simulator.
pub trait ProtocolHost {
    /// Fires up to `max_events` units of deferred protocol work
    /// (asynchronous propagation, write-back, stability timeouts,
    /// background replica generation), returning how many fired.
    fn pump(&mut self, max_events: usize) -> usize;

    /// The number of shard slots the engine partitions its deferred work
    /// (and hot state) into. Hosts size their ring locks to match, so
    /// holding slot `s`'s ring lock covers exactly the engine's slot-`s`
    /// state. At most 64 (the pending-work scan is a `u64` mask).
    fn shard_count(&self) -> usize;

    /// Fires up to `max_events` units of deferred work belonging to one
    /// shard slot with *shared* engine access, returning how many fired.
    /// Every engine here pumps a shard through `&self`, so it answers
    /// `Some`.
    ///
    /// The caller must hold the ring lock of `slot`: relative order
    /// *within* a slot is preserved, and the ring lock is what keeps a
    /// concurrent mutation of the same files out while the slot drains.
    fn try_pump_shard(&self, slot: usize, max_events: usize) -> Option<usize>;

    /// Bitmask of shard slots that currently have deferred work —
    /// allocation-free, so an idle host can poll it without garbage.
    fn pending_shard_mask(&self) -> u64;

    /// Advances the protocol clock by `d` without running any work —
    /// the live pump's idle tick. On a quiet cell nothing else moves
    /// the clock, yet the remaining deferred horizons (a stability
    /// check's "period of no write activity", a pipeline drain's
    /// batching window) are protocol-clock durations; mapping idle wall
    /// time onto the clock lets them elapse instead of waiting for
    /// traffic that may never come.
    fn advance_idle_clock(&self, d: deceit_sim::SimDuration);

    /// Drives deferred work to quiescence.
    fn settle(&mut self);

    /// Units of deferred work currently pending.
    fn pending_work(&self) -> usize;

    /// Crashes a node without notification: volatile state is lost and its
    /// traffic is rejected until [`ProtocolHost::restart_node`].
    fn crash_node(&mut self, node: NodeId);

    /// Restarts a crashed node and runs its recovery protocol.
    fn restart_node(&mut self, node: NodeId);

    /// Imposes a network partition between the given groups of nodes.
    fn split_nodes(&mut self, groups: &[&[NodeId]]);

    /// Heals any partition (reconciling divergent state where the
    /// protocol calls for it).
    fn heal_nodes(&mut self);

    /// Whether `node` is currently up.
    fn node_is_up(&self, node: NodeId) -> bool;

    /// The engine's protocol clock.
    ///
    /// Live hosting keeps the simulated clock as *protocol time*: it
    /// orders deferred work and ages caches, while wall-clock time governs
    /// nothing but thread scheduling.
    fn protocol_now(&self) -> SimTime;

    /// The engine's always-on observability bundle (flight recorder,
    /// core-side histograms), if it keeps one. Hosts use it to stamp
    /// serve-path phases and to dump the flight recorder on failure;
    /// `None` means the engine carries no observability state.
    fn obs_core(&self) -> Option<&crate::obs::ObsCore>;

    /// A point-in-time copy of the engine's protocol counters, if it
    /// keeps them: by default, the counter table of its
    /// [`obs_core`](ProtocolHost::obs_core).
    fn stats_snapshot(&self) -> Option<deceit_sim::StatsSnapshot> {
        self.obs_core().map(crate::obs::ObsCore::stats)
    }
}

impl ProtocolHost for Cluster {
    fn pump(&mut self, max_events: usize) -> usize {
        Cluster::pump(self, max_events)
    }

    fn shard_count(&self) -> usize {
        Cluster::shard_count(self)
    }

    fn try_pump_shard(&self, slot: usize, max_events: usize) -> Option<usize> {
        Some(Cluster::pump_shard(self, slot, max_events))
    }

    fn pending_shard_mask(&self) -> u64 {
        Cluster::pending_shard_mask(self)
    }

    fn advance_idle_clock(&self, d: deceit_sim::SimDuration) {
        self.clock_add(d);
    }

    fn settle(&mut self) {
        self.run_until_quiet();
    }

    fn pending_work(&self) -> usize {
        self.pending_events()
    }

    fn crash_node(&mut self, node: NodeId) {
        self.crash_server(node);
    }

    fn restart_node(&mut self, node: NodeId) {
        self.recover_server(node);
    }

    fn split_nodes(&mut self, groups: &[&[NodeId]]) {
        self.split(groups);
    }

    fn heal_nodes(&mut self) {
        self.heal();
    }

    fn node_is_up(&self, node: NodeId) -> bool {
        self.check_up(node).is_ok()
    }

    fn protocol_now(&self) -> SimTime {
        self.now()
    }

    fn obs_core(&self) -> Option<&crate::obs::ObsCore> {
        Some(&self.obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::ops::WriteOp;
    use crate::params::FileParams;

    #[test]
    fn cluster_pumps_deferred_work_in_slices() {
        let mut c = Cluster::new(3, ClusterConfig::deterministic());
        let seg = c.create(NodeId(0)).unwrap().value;
        c.set_params(NodeId(0), seg, FileParams { min_replicas: 3, ..FileParams::default() })
            .unwrap();
        c.write(NodeId(0), seg, WriteOp::replace(b"pump me"), None).unwrap();
        assert!(ProtocolHost::pending_work(&c) > 0, "replication work should be deferred");
        let mut total = 0;
        loop {
            let fired = ProtocolHost::pump(&mut c, 2);
            if fired == 0 {
                break;
            }
            assert!(fired <= 2, "pump must respect its budget");
            total += fired;
        }
        assert!(total > 0);
        assert_eq!(c.locate_replicas(NodeId(0), seg).unwrap().value.len(), 3);
    }

    #[test]
    fn op_class_slots_are_ascending_and_deduplicated() {
        assert_eq!(OpClass::ReadOnly.slots(8).collect::<Vec<_>>(), Vec::<usize>::new());
        assert_eq!(OpClass::CellWide.slots(8).collect::<Vec<_>>(), Vec::<usize>::new());
        assert_eq!(OpClass::Mutate(11).slots(8).collect::<Vec<_>>(), vec![3]);
        assert_eq!(OpClass::CrossShard(13, 2).slots(8).collect::<Vec<_>>(), vec![2, 5]);
        // Two keys on the same slot collapse to one lock acquisition.
        assert_eq!(OpClass::CrossShard(9, 1).slots(8).collect::<Vec<_>>(), vec![1]);
    }

    /// No constructible class may ever yield duplicate or descending
    /// slots: a host locks the sequence in order, and a duplicate would
    /// self-deadlock. This pins the dedup so a future `slots()` refactor
    /// cannot silently reintroduce it.
    #[test]
    fn op_class_slots_never_duplicate_for_any_key_pair() {
        for shards in [1usize, 2, 3, 8, 64] {
            for a in 0..130u64 {
                for b in 0..130u64 {
                    let slots: Vec<usize> = OpClass::CrossShard(a, b).slots(shards).collect();
                    assert!(
                        slots.windows(2).all(|w| w[0] < w[1]),
                        "CrossShard({a},{b}) with {shards} shards yielded {slots:?}"
                    );
                    assert!(!slots.is_empty() && slots.len() <= 2);
                }
            }
        }
    }

    #[test]
    fn cluster_pump_shard_only_fires_matching_work() {
        let mut c = Cluster::new(3, ClusterConfig::deterministic());
        let seg = c.create(NodeId(0)).unwrap().value;
        c.set_params(NodeId(0), seg, FileParams { min_replicas: 3, ..FileParams::default() })
            .unwrap();
        c.write(NodeId(0), seg, WriteOp::replace(b"shard me"), None).unwrap();
        assert!(c.pending_events() > 0);
        let shards = c.shard_count();
        let own = c.slot_of(seg);
        // Only the segment's own slot reports (and fires) work.
        assert_eq!(c.pending_shard_mask(), 1 << own);
        let mut fired = 0;
        loop {
            let pass: usize =
                (0..shards).map(|s| ProtocolHost::try_pump_shard(&c, s, 16).unwrap()).sum();
            if pass == 0 {
                break;
            }
            fired += pass;
        }
        assert!(fired > 0);
        // Everything but time-gated stability checks drains through the
        // per-shard pump; the gated remainder fires once the clock truly
        // reaches it (settling covers that).
        assert_eq!(c.events.gated_len(), c.pending_events());
        assert_eq!(c.locate_replicas(NodeId(0), seg).unwrap().value.len(), 3);
        c.run_until_quiet();
        assert_eq!(c.pending_events(), 0);
    }

    #[test]
    fn host_failure_injection_mirrors_cluster_api() {
        let mut c = Cluster::new(3, ClusterConfig::deterministic());
        let host: &mut dyn ProtocolHost = &mut c;
        assert!(host.node_is_up(NodeId(1)));
        host.crash_node(NodeId(1));
        assert!(!host.node_is_up(NodeId(1)));
        host.restart_node(NodeId(1));
        host.settle();
        assert!(host.node_is_up(NodeId(1)));
        host.split_nodes(&[&[NodeId(0)], &[NodeId(1), NodeId(2)]]);
        host.heal_nodes();
        assert_eq!(host.pending_work(), 0);
        assert!(host.protocol_now() >= SimTime::ZERO);
    }
}
