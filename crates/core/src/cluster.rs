//! The Deceit deployment: servers + network + event engine.
//!
//! One [`Cluster`] is one Deceit cell: a set of interchangeable servers
//! that "collectively provide the illusion of a single, large server
//! machine" (abstract). Client operations enter at any server (`via`); the
//! cluster executes the §3 protocols against the simulated network,
//! advances the simulated clock by each operation's latency, and drives
//! deferred work (asynchronous propagation, write-back, stability
//! timeouts, background replica generation) through per-shard event
//! queues.
//!
//! # Two ways in
//!
//! The *exclusive* entry points (`&mut self`: [`Cluster::write`],
//! [`Cluster::read`], failure injection, recovery, settling) are the
//! simulator's API and the concurrent host's fallback path; they may
//! touch anything and fire any due deferred work.
//!
//! The *scoped* entry points (`&self` plus a [`Held`]:
//! [`Cluster::write_scoped`] and friends) are the same bodies with what
//! the caller holds named explicitly. Given ring locks
//! ([`Held::slots`], the concurrent host's mutation path) the caller
//! declares — and must hold the ring locks for — the shard slots the
//! operation's [`crate::OpClass`] names; the operation then only touches
//! hot state in those slots (plus cold cell state behind its own leaf
//! locks) and only fires deferred work belonging to them. Given the
//! whole cell ([`Cluster::whole`]) they are the exclusive entry points.
//! See [`crate::hot`] for the data-lock discipline that makes the
//! interleaving sound.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use deceit_isis::GroupTable;
use deceit_net::{Network, NodeId};
use deceit_sim::atomic::{PublishedU64, RelaxedU64};
use deceit_sim::{leaf, SimDuration, SimTime};

use crate::config::ClusterConfig;
use crate::error::{DeceitError, DeceitResult};
use crate::host::shard_slot;
use crate::hot::{self, ShardedEvents, Slots};
use crate::obs::{ObsCore, Stat};
use crate::server::{SegmentId, ServerState};
use crate::trace_events::ProtocolEvent;
use crate::version::BranchTable;

/// The value of a client-visible operation together with the latency the
/// client observed.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult<T> {
    /// Operation result.
    pub value: T,
    /// Client-observed latency of the operation.
    pub latency: SimDuration,
}

/// A logged incomparable-version conflict (§3.6: "a notification is logged
/// into a well known file. It is the responsibility of the user to resolve
/// such conflicts").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictRecord {
    /// Segment with divergent versions.
    pub seg: SegmentId,
    /// The two incomparable major version numbers.
    pub majors: (u64, u64),
    /// When the conflict was detected.
    pub at: SimTime,
}

/// Which slice of the cell an operation is entitled to touch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpScope<'a> {
    /// The exclusive path: everything, including every slot's due events.
    Global,
    /// The sharded path: only the named slots' hot state and due events.
    /// The caller holds these slots' ring locks.
    Slots(&'a [usize]),
}

/// What the caller of a `*_scoped` entry point holds: the whole cell, or
/// the ring locks of some shard slots. Opaque, so the whole cell can only
/// be claimed through [`Cluster::whole`] — which takes `&mut`, the same
/// proof of exclusivity the `&mut self` entry points demand.
#[derive(Debug, Clone, Copy)]
pub struct Held<'a>(pub(crate) OpScope<'a>);

impl<'a> Held<'a> {
    /// The ring locks of `slots`.
    pub fn slots(slots: &'a [usize]) -> Self {
        Held(OpScope::Slots(slots))
    }

    /// Whether what is held covers shard slot `slot`.
    pub fn covers(&self, slot: usize) -> bool {
        match self.0 {
            OpScope::Global => true,
            OpScope::Slots(slots) => slots.contains(&slot),
        }
    }
}

/// One Deceit cell: the paper's unit of deployment (§2.2).
#[derive(Debug)]
pub struct Cluster {
    /// Deployment configuration.
    pub cfg: ClusterConfig,
    /// The simulated network. Sending is `&self` (internally locked);
    /// topology changes (crash, partition) require `&mut` and only ever
    /// happen on the exclusive path.
    pub net: Network,
    pub(crate) servers: Vec<ServerState>,
    /// The ISIS group directory for this cell (internally synchronized).
    pub groups: GroupTable,
    /// Deferred actions, partitioned by shard slot.
    pub(crate) events: ShardedEvents,
    /// Protocol time, in microseconds. Monotone; advanced by operation
    /// latencies and event due times. Advisory, so relaxed: protocol
    /// ordering comes from message delivery, not from reads of this value.
    clock: RelaxedU64,
    /// Always-on observability: per-server flight recorder (the one
    /// protocol event log; Table 1 reads it), the protocol's event
    /// counters ([`crate::obs::Stat`]) and the core-side histograms. It
    /// has no off switch — it is bounded and lock-free (or nearly so) by
    /// construction, so live hosting keeps it running.
    pub obs: ObsCore,
    /// Per-segment history-tree branch records, sharded by segment.
    ///
    /// The paper stores branch records with each replica; we keep the
    /// per-segment union here. This is equivalent for every §3.6 scenario
    /// because version comparisons only ever happen between servers that
    /// can communicate — exactly when the paper's records would be
    /// exchangeable — and it makes reconciliation auditable in one place.
    pub(crate) branches: Slots<BTreeMap<SegmentId, BranchTable>>,
    /// Per shard slot, how many segments' branch tables record a branch
    /// (see [`Cluster::single_major`]).
    branched: Box<[PublishedU64]>,
    /// The "well known file" of version conflicts awaiting the user.
    /// Only written on the exclusive path (recovery, reconciliation,
    /// version deletion), so it needs no interior lock.
    pub conflicts: Vec<ConflictRecord>,
    /// Segments that have been explicitly deleted; recovering servers
    /// garbage-collect any stale replicas of these. Behind a leaf lock:
    /// the sharded create path's rollback deletes its newborn segment.
    pub(crate) deleted: Mutex<BTreeSet<SegmentId>>,
    /// Id allocators: uniqueness needs only read-modify-write atomicity.
    next_segment: RelaxedU64,
    next_major: RelaxedU64,
}

impl Cluster {
    /// Builds a cell of `n_servers` servers, fully connected and all alive.
    pub fn new(n_servers: usize, cfg: ClusterConfig) -> Self {
        assert!(n_servers > 0, "a cell needs at least one server");
        let shards = cfg.shards.clamp(1, 64);
        let net = Network::new(cfg.latency.clone(), cfg.seed);
        let servers =
            (0..n_servers).map(|i| ServerState::new(NodeId::from(i), cfg.disk, shards)).collect();
        Cluster {
            net,
            servers,
            groups: GroupTable::new(),
            events: ShardedEvents::new(shards),
            clock: RelaxedU64::new(0),
            obs: ObsCore::new(n_servers),
            branches: Slots::new(shards, BTreeMap::new),
            branched: (0..shards).map(|_| PublishedU64::new(0)).collect(),
            conflicts: Vec::new(),
            deleted: Mutex::new(BTreeSet::new()),
            next_segment: RelaxedU64::new(0),
            next_major: RelaxedU64::new(0),
            cfg,
        }
    }

    /// The cell seen through `&self`, with the proof that the caller
    /// holds all of it: what the `*_scoped` entry points take to run
    /// exactly as their `&mut self` forms do.
    pub fn whole(&mut self) -> (&Cluster, Held<'_>) {
        (self, Held(OpScope::Global))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.clock.load())
    }

    /// Advances the clock to at least `at` (events jump time forward).
    pub(crate) fn clock_to(&self, at: SimTime) {
        self.clock.fetch_max(at.as_micros());
    }

    /// Adds an operation's latency to the clock.
    pub(crate) fn clock_add(&self, d: SimDuration) {
        self.clock.fetch_add(d.as_micros());
    }

    /// The number of shard slots the hot state is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.events.shard_count()
    }

    /// The shard slot of one segment.
    pub fn slot_of(&self, seg: SegmentId) -> usize {
        shard_slot(seg.0, self.shard_count())
    }

    /// Number of servers in the cell.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// All server ids.
    pub fn server_ids(&self) -> Vec<NodeId> {
        self.servers.iter().map(|s| s.id).collect()
    }

    /// Read access to one server's state.
    pub fn server(&self, id: NodeId) -> &ServerState {
        &self.servers[id.index()]
    }

    /// Errors unless `via` designates a live server.
    pub fn check_up(&self, via: NodeId) -> DeceitResult<()> {
        if via.index() >= self.servers.len() {
            return Err(DeceitError::NoSuchServer(via));
        }
        if !self.net.is_up(via) {
            return Err(DeceitError::ServerDown(via));
        }
        Ok(())
    }

    /// Allocates a fresh segment id.
    pub(crate) fn alloc_segment(&self) -> SegmentId {
        SegmentId(self.next_segment.fetch_add(1))
    }

    /// Allocates a globally unique major version number (§3.5: "Deceit
    /// selects major version numbers carefully to insure global
    /// uniqueness").
    pub(crate) fn alloc_major(&self) -> u64 {
        self.next_major.fetch_add(1)
    }

    /// Runs `f` on the branch table of one segment (created empty on
    /// first use), under its shard's data lock — keeping the slot's count
    /// of branched segments, which `Cluster::single_major` reads
    /// without the lock, in step with the table.
    pub fn with_branch_table<R>(
        &self,
        seg: SegmentId,
        f: impl FnOnce(&mut BranchTable) -> R + 'static,
    ) -> R {
        let branched = &self.branched[self.slot_of(seg)];
        let mut tables = self.branches.lock_key(seg.0);
        let (out, before, after) = hot::visit(&mut tables, (), move |tables, ()| {
            let t = tables.entry(seg).or_default();
            let before = t.branch_count() > 0;
            let out = f(t);
            (out, before, t.branch_count() > 0)
        });
        match (before, after) {
            (false, true) => branched.fetch_add(1),
            (true, false) => branched.fetch_sub(1),
            _ => 0,
        };
        out
    }

    /// Whether `seg` has only ever had one major version. A second major
    /// can only come from §3.5 token generation, which records the new
    /// major's branch point *before* installing any replica of it — so an
    /// empty branch table proves no server anywhere holds a newer major
    /// than whichever one a server has.
    ///
    /// On a slot with no branched segment this is one `Acquire` load, no
    /// lock. [`Cluster::with_branch_table`] moves the slot's count inside
    /// the table's lock, before that lock is released and so before any
    /// replica of the new major is installed; the `Release` increment and
    /// this load are one location's modification order. A load that
    /// reads zero is ordered before the first branch was recorded —
    /// exactly where the locked read that finds no branch linearises —
    /// and a nonzero count falls back to that locked read, per segment.
    pub(crate) fn single_major(&self, seg: SegmentId) -> bool {
        self.branched[self.slot_of(seg)].load() == 0
            || hot::visit(&mut self.branches.lock_key(seg.0), (), move |tables, ()| {
                tables.get(&seg).is_none_or(|t| t.branch_count() == 0)
            })
    }

    /// An owned snapshot of one segment's branch table (empty if never
    /// materialized).
    pub fn branch_table_snapshot(&self, seg: SegmentId) -> BranchTable {
        hot::visit(&mut self.branches.lock_key(seg.0), (), move |tables, ()| {
            tables.get(&seg).cloned().unwrap_or_default()
        })
    }

    /// Emits a protocol event attributed to the server that performed
    /// it: the flight recorder keeps it in `actor`'s ring (bounded,
    /// always on).
    pub(crate) fn emit_from(&self, actor: NodeId, ev: ProtocolEvent) {
        self.obs.flight.record(actor, self.now(), ev);
    }

    /// Emits `LeaseRevoked` if `server` revoked its lease on `seg`
    /// ([`crate::hot::Unleased::revoked`]).
    pub(crate) fn lease_revoked(&self, server: NodeId, seg: SegmentId, revoked: bool) {
        if revoked {
            self.emit_from(server, ProtocolEvent::LeaseRevoked { seg, on: server });
        }
    }

    // ------------------------------------------------------------------
    // Event engine
    // ------------------------------------------------------------------

    /// Fires every pending event due at or before the current clock,
    /// within the given scope.
    pub(crate) fn fire_due(&self, scope: OpScope<'_>) {
        if self.events.len() == 0 {
            return;
        }
        loop {
            let due = match scope {
                OpScope::Global => self.events.pop_due(self.now()),
                OpScope::Slots(slots) => self.events.pop_due_slots(slots, self.now()),
            };
            match due {
                Some((at, ev)) => self.handle_event(at, ev),
                None => break,
            }
        }
    }

    /// Advances the clock by `d`, firing events as they come due.
    pub fn advance(&mut self, d: SimDuration) {
        self.advance_scoped(Held(OpScope::Global), d);
    }

    /// [`Cluster::advance`] within what the caller holds: under ring locks
    /// only the held slots' due events fire (the §5.1 restart backoff
    /// needs *this file's* lazy applies to land before the re-read; other
    /// files' work belongs to whoever holds their locks).
    pub fn advance_scoped(&self, held: Held<'_>, d: SimDuration) {
        let deadline = self.now() + d;
        loop {
            let due = match held.0 {
                OpScope::Global => self.events.pop_due(deadline),
                OpScope::Slots(slots) => self.events.pop_due_slots(slots, deadline),
            };
            match due {
                Some((at, ev)) => {
                    self.clock_to(at);
                    self.handle_event(at, ev);
                }
                None => break,
            }
        }
        self.clock_to(deadline);
    }

    /// Drains the event queue entirely, jumping the clock forward to each
    /// event. Afterwards all propagation, flushing, stabilization, and
    /// background replication has settled.
    pub fn run_until_quiet(&mut self) {
        self.apply_read_touches();
        // A backstop against event-scheduling bugs producing livelock; in
        // practice the queue drains in a handful of iterations.
        let mut budget = 1_000_000u64;
        while let Some((at, ev)) = self.events.pop() {
            self.clock_to(at);
            self.handle_event(at, ev);
            budget -= 1;
            assert!(budget > 0, "event queue failed to quiesce");
        }
    }

    /// Fires up to `max_events` pending events regardless of their due
    /// time, jumping the clock forward exactly as [`Cluster::run_until_quiet`]
    /// does, and returns how many fired.
    ///
    /// This is the live runtime's drive method: real threads cannot block
    /// on simulated time, so deferred protocol work (propagation,
    /// write-back, stability timeouts, background replication) is advanced
    /// in bounded slices between client requests. Firing an event "early"
    /// relative to its simulated due time is safe for the same reason
    /// `run_until_quiet` is: every deferred action is valid at any later
    /// point, and the queue drains in the same deterministic
    /// (time, scheduling-order) sequence either way.
    pub fn pump(&mut self, max_events: usize) -> usize {
        self.apply_read_touches();
        let mut fired = 0;
        while fired < max_events {
            match self.events.pop() {
                Some((at, ev)) => {
                    self.clock_to(at);
                    self.handle_event(at, ev);
                    fired += 1;
                }
                None => break,
            }
        }
        fired
    }

    /// Fires up to `max_events` *ready* events belonging to one shard
    /// slot, exactly as [`Cluster::pump`] fires them but restricted to
    /// that slice of the cell — and through `&self`, so a concurrent
    /// host's pump runs it under the shared cell lock plus the slot's
    /// ring lock.
    ///
    /// "Ready" means due, or not time-gated (`Pending::due_gated`):
    /// ordinary deferred work fires whenever the pump reaches its slot,
    /// but a stability check is left until the protocol clock genuinely
    /// reaches its quiet horizon — firing it early would both declare a
    /// busy stream quiet and drag the shared clock forward, thrashing
    /// every other stream's stability state.
    ///
    /// Relative order within the slot is preserved — same-segment
    /// actions still apply in their scheduled order — so per-file
    /// outcomes are identical to a global drain; only the interleaving
    /// *across* files changes, which deferred work tolerates by design
    /// (see [`Cluster::pump`]).
    pub fn pump_shard(&self, slot: usize, max_events: usize) -> usize {
        self.apply_read_touches_slot(slot);
        // Bound the drain by the work present at entry so events the
        // fired handlers push are picked up next pass, not chased
        // forever within one slice.
        let budget = self.events.slot_len(slot).min(max_events);
        let mut fired = 0;
        while fired < budget {
            match self.events.pop_slot_ready(slot, self.now()) {
                Some((at, ev)) => {
                    self.clock_to(at);
                    self.handle_event(at, ev);
                    fired += 1;
                }
                None => break,
            }
        }
        fired
    }

    /// Bitmask of shard slots with deferred work a pump can fire *now* —
    /// due events plus anything not time-gated. Allocation-free, so an
    /// idle pump can poll it cheaply; slots holding only parked future
    /// stability checks report clear rather than drawing the pump onto
    /// their ring locks every interval.
    pub fn pending_shard_mask(&self) -> u64 {
        self.events.ready_mask(self.now())
    }

    /// Number of deferred actions currently awaiting execution.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Applies the replica accesses recorded by the shared read fast
    /// path to `last_access`, so concurrent reads feed LRU retention
    /// (§3.1) exactly as exclusive reads do — just deferred to the next
    /// engine entry covering the key's slot. The fold happens atomically
    /// under each slot's data lock (see [`ServerState::apply_touches`]),
    /// so it can never clobber a concurrent mutation.
    pub(crate) fn apply_read_touches(&self) {
        for slot in 0..self.shard_count() {
            self.apply_read_touches_slot(slot);
        }
    }

    /// Slot-scoped form of [`Cluster::apply_read_touches`].
    pub(crate) fn apply_read_touches_slot(&self, slot: usize) {
        for s in &self.servers {
            s.apply_touches(slot);
        }
    }

    fn apply_read_touches_scope(&self, scope: OpScope<'_>) {
        match scope {
            OpScope::Global => self.apply_read_touches(),
            OpScope::Slots(slots) => {
                for &slot in slots {
                    self.apply_read_touches_slot(slot);
                }
            }
        }
    }

    /// Book-keeping shared by all client-visible operations: fire due
    /// events, run the body, advance the clock by the observed latency.
    ///
    /// On the sharded path ([`OpScope::Slots`]) every step is restricted
    /// to the slots the caller's ring locks cover.
    pub(crate) fn client_op_scoped<T>(
        &self,
        via: NodeId,
        scope: OpScope<'_>,
        body: impl FnOnce(&Self) -> DeceitResult<(T, SimDuration)>,
    ) -> DeceitResult<OpResult<T>> {
        self.apply_read_touches_scope(scope);
        self.fire_due(scope);
        self.check_up(via)?;
        self.server(via).ops_served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (value, latency) = body(self)?;
        self.clock_add(latency);
        self.fire_due(scope);
        Ok(OpResult { value, latency })
    }

    // ------------------------------------------------------------------
    // Failure injection
    // ------------------------------------------------------------------

    /// Crashes a server "without notification" (§2.3). Volatile state is
    /// lost; unflushed asynchronous writes are lost; its pending deferred
    /// actions are cancelled.
    pub fn crash_server(&mut self, id: NodeId) {
        self.net.crash(id);
        self.servers[id.index()].crash();
        self.events.retain(move |e| e.owner() != id);
        self.obs.bump(Stat::Crashes);
    }

    /// Imposes a network partition between the given groups of servers.
    pub fn split(&mut self, groups: &[&[NodeId]]) {
        self.net.split(groups);
    }

    /// Heals any partition and reconciles divergent versions (§3.6).
    pub fn heal(&mut self) {
        self.net.heal();
        self.reconcile_all();
    }

    /// Reachable-from-`from` servers currently storing a replica of `key`.
    pub(crate) fn reachable_replica_holders(
        &self,
        from: NodeId,
        key: crate::server::ReplicaKey,
    ) -> Vec<NodeId> {
        self.servers
            .iter()
            .filter(|s| s.visit(key.0, move |s| s.replicas.disk().contains(&key)))
            .filter(|s| self.net.reachable(from, s.id))
            .map(|s| s.id)
            .collect()
    }

    /// All servers (any reachability) currently storing a replica of `key`.
    pub(crate) fn all_replica_holders(&self, key: crate::server::ReplicaKey) -> Vec<NodeId> {
        let holds = |s: &&ServerState| s.visit(key.0, move |s| s.replicas.disk().contains(&key));
        self.servers.iter().filter(holds).map(|s| s.id).collect()
    }

    /// The live members of the segment's file group, if any.
    pub fn group_members(&self, seg: SegmentId) -> Option<(deceit_isis::GroupId, Vec<NodeId>)> {
        self.groups.members_by_name(&group_name(seg))
    }

    /// Whether `seg` is recorded as deleted.
    pub(crate) fn is_deleted(&self, seg: SegmentId) -> bool {
        leaf::lock(&self.deleted).contains(&seg)
    }

    /// Records `seg` as deleted (recovering servers GC stale replicas).
    pub(crate) fn mark_deleted(&self, seg: SegmentId) {
        leaf::lock(&self.deleted).insert(seg);
    }
}

/// The ISIS group name for a segment's file group.
pub(crate) fn group_name(seg: SegmentId) -> String {
    format!("file:{}", seg.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let c = Cluster::new(4, ClusterConfig::deterministic());
        assert_eq!(c.num_servers(), 4);
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.server_ids().len(), 4);
        assert!(c.check_up(NodeId(3)).is_ok());
        assert_eq!(c.check_up(NodeId(9)), Err(DeceitError::NoSuchServer(NodeId(9))));
        assert_eq!(c.shard_count(), ClusterConfig::default().shards);
    }

    #[test]
    fn crash_makes_server_unavailable() {
        let mut c = Cluster::new(2, ClusterConfig::deterministic());
        c.crash_server(NodeId(1));
        assert_eq!(c.check_up(NodeId(1)), Err(DeceitError::ServerDown(NodeId(1))));
        assert_eq!(c.obs.count(Stat::Crashes), 1);
    }

    #[test]
    fn advance_moves_clock() {
        let mut c = Cluster::new(1, ClusterConfig::deterministic());
        c.advance(SimDuration::from_millis(5));
        assert_eq!(c.now(), SimTime::from_micros(5_000));
    }

    #[test]
    fn allocators_are_unique() {
        let c = Cluster::new(1, ClusterConfig::deterministic());
        let a = c.alloc_segment();
        let b = c.alloc_segment();
        assert_ne!(a, b);
        assert_ne!(c.alloc_major(), c.alloc_major());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cell_rejected() {
        let _ = Cluster::new(0, ClusterConfig::default());
    }

    #[test]
    fn shared_reads_feed_lru_on_next_engine_entry() {
        let mut c = Cluster::new(1, ClusterConfig::deterministic());
        let seg = c.create(NodeId(0)).unwrap().value;
        c.write(NodeId(0), seg, crate::ops::WriteOp::replace(b"touch me"), None).unwrap();
        c.run_until_quiet();
        let last_access = |c: &Cluster| {
            c.server(NodeId(0))
                .visit(seg, move |s| s.replicas.segment(seg).last().unwrap().1.last_access)
        };
        let before = last_access(&c);

        c.advance(SimDuration::from_millis(500));
        let read = c.try_read_local(NodeId(0), seg, None, 0, 16).expect("local stable replica");
        assert_eq!(&read.value.data()[..], b"touch me");
        // The shared path records the access without mutating the
        // replica; the next engine entry covering the slot applies it.
        assert_eq!(last_access(&c), before);
        c.apply_read_touches();
        let after = last_access(&c);
        assert!(after > before, "LRU input must advance: {before:?} -> {after:?}");
    }

    /// An unbranched slot answers `single_major` without a lock; a
    /// branch anywhere in the slot sends its files to the locked read,
    /// which still answers per file.
    #[test]
    fn single_major_is_lock_free_on_an_unbranched_slot() {
        let c = Cluster::new(1, ClusterConfig::deterministic());
        let shards = c.shard_count() as u64;
        let (branched, neighbour, elsewhere) = (SegmentId(1), SegmentId(1 + shards), SegmentId(2));
        let rounds = |f: &dyn Fn() -> bool| {
            let before = leaf::rounds_here();
            (f(), leaf::rounds_here() - before)
        };
        assert_eq!(rounds(&|| c.single_major(branched)), (true, 0));
        c.with_branch_table(branched, |t| {
            t.record_branch(7, crate::version::VersionPair { major: 0, sub: 3 })
        });
        assert_eq!(rounds(&|| c.single_major(branched)), (false, 1));
        assert_eq!(rounds(&|| c.single_major(neighbour)), (true, 1), "same slot: locked read");
        assert_eq!(rounds(&|| c.single_major(elsewhere)), (true, 0));
    }

    /// §3.5: a write at `write_safety` 0 leaves exactly one write-back
    /// of the holder pending — the write's only deferred work when the
    /// file has one replica and no stability checks.
    #[test]
    fn unsafe_write_schedules_one_write_back() {
        let mut c = Cluster::new(1, ClusterConfig::deterministic());
        let seg = c.create(NodeId(0)).unwrap().value;
        let params =
            crate::params::FileParams { write_safety: 0, stability: false, ..Default::default() };
        c.set_params(NodeId(0), seg, params).unwrap();
        c.run_until_quiet();
        c.write(NodeId(0), seg, crate::ops::WriteOp::replace(b"later"), None).unwrap();
        assert_eq!(c.pending_events(), 1, "one FlushServer, scheduled once");
    }

    #[test]
    fn sharded_advance_only_fires_own_slots() {
        let mut c = Cluster::new(3, ClusterConfig::deterministic());
        let seg_a = c.create(NodeId(0)).unwrap().value;
        let seg_b = c.create(NodeId(0)).unwrap().value;
        c.set_params(
            NodeId(0),
            seg_a,
            crate::params::FileParams { min_replicas: 3, ..Default::default() },
        )
        .unwrap();
        c.set_params(
            NodeId(0),
            seg_b,
            crate::params::FileParams { min_replicas: 3, ..Default::default() },
        )
        .unwrap();
        c.run_until_quiet();
        c.write(NodeId(0), seg_a, crate::ops::WriteOp::replace(b"a"), None).unwrap();
        c.write(NodeId(0), seg_b, crate::ops::WriteOp::replace(b"b"), None).unwrap();
        let (slot_a, slot_b) = (c.slot_of(seg_a), c.slot_of(seg_b));
        assert_ne!(slot_a, slot_b, "consecutive segments land in distinct slots");
        assert!(c.pending_events() > 0);
        // Advancing within slot A's scope must not fire slot B's work.
        let b_before = c.events.slot_len(slot_b);
        c.advance_scoped(Held::slots(&[slot_a]), SimDuration::from_secs(10));
        assert_eq!(c.events.slot_len(slot_a), 0, "own slot drains");
        assert_eq!(c.events.slot_len(slot_b), b_before, "foreign slot untouched");
        c.run_until_quiet();
    }
}
