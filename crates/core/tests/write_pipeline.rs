//! The asynchronous replicated-write pipeline
//! (`ClusterConfig::opt_write_pipeline`): acknowledgement semantics,
//! batching, safety-path synchrony, and holder-crash recovery.

use deceit_core::{
    Cluster, ClusterConfig, FileParams, Held, ProtocolHost, ReplicaState, SegmentId, Stat, WriteOp,
};
use deceit_net::NodeId;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// A 3-server pipelined cell with one segment replicated 3×, settled.
fn pipelined_cell(params: FileParams) -> (Cluster, SegmentId) {
    let mut c = Cluster::new(3, ClusterConfig::deterministic().with_write_pipeline());
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, params).unwrap();
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"initial"), None).unwrap();
    c.run_until_quiet();
    (c, seg)
}

/// An ack means: durable at the token holder, not yet at the group. The
/// pump's drain then converges every replica.
#[test]
fn ack_is_local_durability_and_pump_converges_replicas() {
    let (mut c, seg) =
        pipelined_cell(FileParams { min_replicas: 3, stability: false, ..FileParams::default() });
    let key = (seg, 0u64);

    c.write(n(0), seg, WriteOp::replace(b"pipelined"), None).unwrap();

    // Holder: applied, and durable (write-through at safety 1).
    let holder = c.server(n(0)).replicas.get(&key).unwrap();
    assert_eq!(&holder.data.contents()[..], b"pipelined");

    // Replicas: still the old contents — propagation is deferred work.
    for s in [n(1), n(2)] {
        let r = c.server(s).replicas.get(&key).unwrap();
        assert_eq!(&r.data.contents()[..], b"initial", "replica at {s} applied early");
    }
    assert!(c.pending_events() > 0, "a propagate drain must be queued");

    // Drain: everyone converges on the holder's version.
    c.run_until_quiet();
    let holder_sub = c.server(n(0)).replicas.get(&key).unwrap().version.sub;
    for s in [n(0), n(1), n(2)] {
        let r = c.server(s).replicas.get(&key).unwrap();
        assert_eq!(&r.data.contents()[..], b"pipelined");
        assert_eq!(r.version.sub, holder_sub);
    }
}

/// Consecutive updates to the same file ride one batched broadcast: a
/// whole stream drains in far fewer "update" rounds than writes.
#[test]
fn consecutive_updates_batch_into_one_message() {
    let (mut c, seg) =
        pipelined_cell(FileParams { min_replicas: 3, stability: false, ..FileParams::default() });
    let msgs_before = c.net.stats().tag_count("update");
    for i in 0..16 {
        c.write(n(0), seg, WriteOp::append(format!("w{i}").as_bytes()), None).unwrap();
    }
    c.run_until_quiet();
    // Each round is 4 messages (2 members × request+reply). Drains fire
    // as the stream's writes advance the clock past the lazy-apply
    // delay, so several writes amortize into each round — strictly
    // fewer rounds than the eager one-per-write.
    let rounds = (c.net.stats().tag_count("update") - msgs_before) / 4;
    assert!(rounds <= 8, "16 writes must amortize into fewer update rounds, took {rounds}");
    assert!(c.obs.count(Stat::PipelineBatches) >= 1);
    assert!(c.obs.count(Stat::PipelineBatchedUpdates) >= 16);
    // And the batch applied in order, byte for byte.
    let key = (seg, 0u64);
    let expect: Vec<u8> = b"initial"
        .iter()
        .copied()
        .chain((0..16).flat_map(|i| format!("w{i}").into_bytes()))
        .collect();
    for s in [n(1), n(2)] {
        assert_eq!(c.server(s).replicas.get(&key).unwrap().data.contents()[..], expect[..]);
    }
}

/// write_safety ≥ 2 keeps its synchronous guarantee through the
/// pipeline: the safety replica has applied (durably) when the write
/// returns, while the remaining replica still lags.
#[test]
fn safety_replicas_stay_synchronous() {
    let (mut c, seg) = pipelined_cell(FileParams {
        min_replicas: 3,
        write_safety: 2,
        stability: false,
        ..FileParams::default()
    });
    let key = (seg, 0u64);
    c.write(n(0), seg, WriteOp::replace(b"safe at two"), None).unwrap();

    let applied: Vec<bool> = [n(1), n(2)]
        .iter()
        .map(|&s| &c.server(s).replicas.get(&key).unwrap().data.contents()[..] == b"safe at two")
        .collect();
    assert_eq!(
        applied.iter().filter(|&&a| a).count(),
        1,
        "exactly one remote replica is on the synchronous safety path: {applied:?}"
    );
    c.run_until_quiet();
    for s in [n(1), n(2)] {
        assert_eq!(&c.server(s).replicas.get(&key).unwrap().data.contents()[..], b"safe at two");
    }
}

/// Stability notification still masks the propagation window: during the
/// stream the lagging replicas are unstable, so reads forward to the
/// holder and no client ever observes a version behind the ack.
#[test]
fn reads_never_observe_pre_ack_state_with_stability() {
    let (mut c, seg) = pipelined_cell(FileParams { min_replicas: 3, ..FileParams::default() });
    c.write(n(0), seg, WriteOp::replace(b"acked"), None).unwrap();
    let key = (seg, 0u64);
    assert_eq!(
        c.server(n(1)).replicas.get(&key).unwrap().state,
        ReplicaState::Unstable,
        "stream members must be marked unstable before the first buffered update"
    );
    // A read via the lagging replica forwards to the holder (§3.4).
    let r = c.read(n(1), seg, None, 0, 64).unwrap().value;
    assert_eq!(&r.data()[..], b"acked");
    c.run_until_quiet();
    let r = c.read(n(1), seg, None, 0, 64).unwrap().value;
    assert_eq!(&r.data()[..], b"acked");
}

/// Crash of the token holder mid-stream: the buffered (acked but
/// unpropagated) updates are lost from the buffer, but the holder's own
/// durable copy carries them — recovery regenerates the group from the
/// primary instead of leaving replicas waiting on updates that no longer
/// exist, and nothing panics.
#[test]
fn holder_crash_mid_stream_recovers_via_regeneration() {
    let (mut c, seg) = pipelined_cell(FileParams { min_replicas: 3, ..FileParams::default() });
    let key = (seg, 0u64);

    // Acked writes whose propagation is still buffered.
    c.write(n(0), seg, WriteOp::replace(b"acked-then-crashed"), None).unwrap();
    c.write(n(0), seg, WriteOp::append(b" twice"), None).unwrap();
    assert_eq!(
        &c.server(n(1)).replicas.get(&key).unwrap().data.contents()[..],
        b"initial",
        "updates must still be buffered when the crash lands"
    );

    c.crash_server(n(0));
    c.recover_server(n(0));
    c.run_until_quiet();

    // The acked updates survived at the primary and the group was
    // regenerated from it: every replica converges, stable again.
    for s in [n(0), n(1), n(2)] {
        let r = c.server(s).replicas.get(&key).unwrap();
        assert_eq!(&r.data.contents()[..], b"acked-then-crashed twice", "diverged at {s}");
        assert_eq!(r.state, ReplicaState::Stable);
    }
    // And the file is writable again through the recovered holder.
    c.write(n(0), seg, WriteOp::append(b", and alive"), None).unwrap();
    c.run_until_quiet();
    let r = c.read(n(2), seg, None, 0, 128).unwrap().value;
    assert_eq!(&r.data()[..], b"acked-then-crashed twice, and alive");
}

/// Crash of a *replica* mid-stream: it misses the batch, recovers behind
/// the token, and the §3.1 path destroys-and-regenerates it.
#[test]
fn replica_crash_mid_stream_regenerates() {
    let (mut c, seg) = pipelined_cell(FileParams { min_replicas: 3, ..FileParams::default() });
    let key = (seg, 0u64);
    c.crash_server(n(2));
    c.write(n(0), seg, WriteOp::replace(b"while two was down"), None).unwrap();
    c.run_until_quiet();
    c.recover_server(n(2));
    c.run_until_quiet();
    let r = c.server(n(2)).replicas.get(&key).expect("regenerated");
    assert_eq!(&r.data.contents()[..], b"while two was down");
    assert_eq!(c.locate_replicas(n(0), seg).unwrap().value.len(), 3);
}

/// The pipeline keeps the ProtocolHost seam honest: buffered propagation
/// is pending work, drained by the per-shard pump under shared access —
/// but only once the protocol clock reaches the drain's batching window
/// (a drain fired the instant it is queued would make every batch one
/// update).
#[test]
fn pump_drains_buffered_propagation_per_shard() {
    let (mut c, seg) =
        pipelined_cell(FileParams { min_replicas: 3, stability: false, ..FileParams::default() });
    c.write(n(0), seg, WriteOp::replace(b"pumped"), None).unwrap();
    let slot = c.slot_of(seg);
    let key = (seg, 0u64);

    // Inside the batching window the drain is parked: the ready mask
    // keeps the pump off the slot entirely, and a pump pass that does
    // land there fires nothing.
    assert_eq!(c.pending_shard_mask() & (1 << slot), 0, "parked drain must not draw the pump");
    assert!(c.pending_events() > 0, "the drain is still pending work");
    assert_eq!(ProtocolHost::try_pump_shard(&c, slot, 8), Some(0));
    assert_eq!(&c.server(n(1)).replicas.get(&key).unwrap().data.contents()[..], b"initial");

    // The rest of the cell's traffic advances the shared clock past the
    // window (scoped to no slots, so nothing fires on the way); the pump
    // then ships the batch under the slot's own locks.
    c.advance_scoped(Held::slots(&[]), c.cfg.lazy_apply_delay + c.cfg.lazy_apply_delay);
    assert!(c.pending_shard_mask() & (1 << slot) != 0, "due drain must surface in the mask");
    let mut fired = 0;
    loop {
        let pass = ProtocolHost::try_pump_shard(&c, slot, 8).unwrap();
        if pass == 0 {
            break;
        }
        fired += pass;
    }
    assert!(fired > 0);
    for s in [n(1), n(2)] {
        assert_eq!(&c.server(s).replicas.get(&key).unwrap().data.contents()[..], b"pumped");
    }
}

/// A write does not trip its own LRU fold. An NFS mutation is a
/// read-modify-write: load the image, edit it, store it conditionally on
/// the loaded version. At the token holder the load is the write's own
/// ([`Cluster::load_primary`]) and records no read touch — so the store
/// that follows has nothing to fold into `last_access` (a slot lock and a
/// write-behind put on every server) just to overwrite it when it
/// applies. The LRU input still advances: the apply stamps it.
#[test]
fn a_write_does_not_fold_its_own_load() {
    let mut c = Cluster::new(3, ClusterConfig::deterministic().with_write_pipeline());
    let seg = c.create(n(0)).unwrap().value;
    let params = FileParams { min_replicas: 3, write_safety: 2, ..FileParams::default() };
    c.set_params(n(0), seg, params).unwrap();
    c.run_until_quiet();
    let key = (seg, 0u64);
    let slots = [c.slot_of(seg)];
    let rmw = |c: &Cluster, i: u32| {
        let loaded = c.load_primary(n(0), seg, None).expect("the holder loads its own copy").value;
        let mut image = loaded.image.clone();
        image.append(&i.to_le_bytes());
        c.write_sharded(&slots, n(0), seg, WriteOp::Replace(image), Some(loaded.version)).unwrap();
    };
    // Open the stream (the mark-unstable round writes the marker behind).
    rmw(&c, 0);
    let holder = &c.server(n(0)).replicas;
    let (puts_behind, mut last) = (holder.async_writes(), holder.get(&key).unwrap().last_access);
    for i in 1..=1_000 {
        rmw(&c, i);
        let at = holder.get(&key).unwrap().last_access;
        assert!(at > last, "write {i}: last_access must keep advancing ({last:?} -> {at:?})");
        last = at;
    }
    assert_eq!(holder.async_writes(), puts_behind, "a write's own load caused a put");
    assert_eq!(holder.get(&key).unwrap().data.len(), 4 * 1_001);
    // Nor did it leave a touch for the next one to fold: with none
    // buffered, the fold takes no lock.
    let rounds = deceit_sim::leaf::rounds_here();
    c.pump(0);
    assert_eq!(deceit_sim::leaf::rounds_here(), rounds, "a write's own load left a touch");
}

// ---------------------------------------------------------------------
// The delivery contract.
//
// What a replica may hold, stated as checks that run after every step of
// a seeded schedule over one `(min_replicas 3, write_safety 2)` file:
// whatever version a replica is at, it holds exactly the bytes the acked
// write of that version produced (so no update was skipped, applied
// twice, or applied out of order); an ack at safety 2 means two durable
// copies *at the acked version*; and a held-token write costs one token
// write-through and `write_safety` replica write-throughs, no more.
// Written before the in-place delivery rewrite and green against the
// code it replaced.
// ---------------------------------------------------------------------

mod delivery_contract {
    use std::collections::BTreeMap;

    use deceit_core::{
        Cluster, ClusterConfig, FileParams, SegmentId, Stat, VersionPair, WriteAvailability,
        WriteOp,
    };
    use deceit_net::{LatencyModel, NodeId};
    use deceit_sim::{SimDuration, SimRng};

    use super::n;

    const PARAMS: FileParams = FileParams {
        min_replicas: 3,
        write_safety: 2,
        stability: true,
        migration: false,
        availability: WriteAvailability::Medium,
        read_optimized: false,
    };

    /// Sums of the storage counters the contract speaks about.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Counters {
        token_sync: u64,
        replica_sync: u64,
        replica_async: [u64; 3],
    }

    /// One `(3, 2)` file plus the sequential model of what it must hold.
    struct File {
        c: Cluster,
        seg: SegmentId,
        /// The file's bytes at every version an acked update produced.
        history: BTreeMap<VersionPair, Vec<u8>>,
        /// The bytes after the newest acked update.
        model: Vec<u8>,
        newest: VersionPair,
        writes: u32,
    }

    impl File {
        fn new(cfg: ClusterConfig) -> File {
            let mut c = Cluster::new(3, cfg);
            let seg = c.create(n(0)).unwrap().value;
            c.set_params(n(0), seg, PARAMS).unwrap();
            c.run_until_quiet();
            let newest = c.server(n(0)).replicas.get(&(seg, 0)).unwrap().version;
            let f = File {
                c,
                seg,
                history: BTreeMap::from([(newest, Vec::new())]),
                model: Vec::new(),
                newest,
                writes: 0,
            };
            f.check("setup");
            for s in 0..3 {
                assert!(f.c.server(n(s)).replicas.contains(&(seg, 0)), "3 replicas after setup");
            }
            f
        }

        fn counters(&self) -> Counters {
            let srv = |s| self.c.server(n(s));
            Counters {
                token_sync: (0..3).map(|s| srv(s).tokens.sync_writes()).sum(),
                replica_sync: (0..3).map(|s| srv(s).replicas.sync_writes()).sum(),
                replica_async: [0, 1, 2].map(|s| srv(s).replicas.async_writes()),
            }
        }

        /// An order-sensitive update: appends, in-place patches and the odd
        /// truncate, so a skipped, doubled or reordered delivery changes
        /// the bytes, not just the version.
        fn next_op(&mut self, rng: &mut SimRng) -> WriteOp {
            self.writes += 1;
            let tag = format!("<{}>", self.writes).into_bytes();
            let op = match rng.index(8) {
                0..=3 => WriteOp::append(&tag),
                4..=6 => WriteOp::write_at(rng.index(self.model.len() + 1), &tag),
                _ => WriteOp::Truncate(rng.index(self.model.len() + 1)),
            };
            let mut data = deceit_core::SegmentData::new();
            data.replace(self.model.clone().into());
            op.apply(&mut data, &mut PARAMS.clone());
            self.model = data.contents().to_vec();
            op
        }

        /// One acked write via `via`; returns the storage-counter deltas.
        fn write(&mut self, via: NodeId, rng: &mut SimRng) -> Counters {
            let op = self.next_op(rng);
            let before = self.counters();
            let v = self.c.write(via, self.seg, op, None).expect("write acks").value;
            let after = self.counters();
            assert_eq!(v.sub, self.newest.sub + 1, "one subversion per update");
            self.newest = v;
            self.history.insert(v, self.model.clone());
            // §3.3: the first `s` *correct* replies — at the ack, two
            // servers hold the acked version (and `check` below proves the
            // bytes under that version are the acked bytes).
            let current = (0..3)
                .filter(|&s| {
                    self.c.server(n(s)).replicas.get(&(self.seg, v.major)).map(|r| r.version)
                        == Some(v)
                })
                .count();
            assert!(current >= 2, "write {} acked on {current} current copies", self.writes);
            self.check("write");
            Counters {
                token_sync: after.token_sync - before.token_sync,
                replica_sync: after.replica_sync - before.replica_sync,
                replica_async: [0, 1, 2].map(|s| after.replica_async[s] - before.replica_async[s]),
            }
        }

        /// Every stored replica holds exactly the bytes of its version.
        fn check(&self, step: &str) {
            for s in 0..3 {
                for major in self.c.server(n(s)).majors_of(self.seg) {
                    let r = self.c.server(n(s)).replicas.get(&(self.seg, major)).unwrap();
                    let want = self.history.get(&r.version).unwrap_or_else(|| {
                        panic!(
                            "after {step}: server {s} is at {:?}, which no ack produced",
                            r.version
                        )
                    });
                    assert_eq!(
                        &r.data.contents()[..],
                        &want[..],
                        "after {step}: server {s} at {:?} (write {})",
                        r.version,
                        self.writes
                    );
                }
            }
        }

        /// Fires deferred events one at a time, checking after each;
        /// returns how many single firings moved some replica forward by
        /// two or more updates (a held-back delivery being released).
        fn drain_stepwise(&mut self) -> usize {
            let mut releases = 0;
            loop {
                let before = self.subs();
                if self.c.pump(1) == 0 {
                    return releases;
                }
                self.check("pump");
                let after = self.subs();
                releases += (0..3).filter(|&s| after[s] >= before[s] + 2).count();
            }
        }

        fn subs(&self) -> [u64; 3] {
            [0, 1, 2].map(|s| {
                self.c.server(n(s)).replicas.get(&(self.seg, 0)).map_or(0, |r| r.version.sub)
            })
        }

        fn settled_everywhere(&mut self) {
            self.c.run_until_quiet();
            self.check("settle");
            for s in 0..3 {
                let r = self.c.server(n(s)).replicas.get(&(self.seg, self.newest.major));
                assert_eq!(r.map(|r| r.version), Some(self.newest), "server {s} converged");
            }
        }
    }

    /// The live runtime's shape: pipelined, drains and stabilize checks far
    /// enough out that the schedule, not the clock, decides when they run.
    fn pipelined(seed: u64) -> ClusterConfig {
        let mut cfg = ClusterConfig::default().with_seed(seed).with_write_pipeline();
        cfg.lazy_apply_delay = SimDuration::from_secs(10);
        cfg.stability_timeout = SimDuration::from_secs(600);
        cfg
    }

    #[test]
    fn in_order_stream_costs_one_token_write_and_safety_replica_writes() {
        for seed in 0..8 {
            let mut rng = SimRng::new(seed);
            let mut f = File::new(pipelined(seed));
            for i in 0..40 {
                let d = f.write(n(0), &mut rng);
                assert_eq!(d.token_sync, 1, "seed {seed} write {i}: token write-throughs");
                assert_eq!(d.replica_sync, 2, "seed {seed} write {i}: = write_safety");
                if i > 0 {
                    assert_eq!(d.replica_async, [0; 3], "seed {seed} write {i}: nothing behind");
                }
                if rng.chance(0.2) {
                    f.c.advance(SimDuration::from_secs(10));
                    f.check("drain");
                }
            }
            f.settled_everywhere();
        }
    }

    /// The drained batch re-delivers to the safety replica what the safety
    /// lane already gave it: dropped whole, not a byte or a counter moved;
    /// the third replica takes the batch in one write-behind put.
    #[test]
    fn duplicate_redelivery_is_dropped_without_a_write() {
        for seed in 0..8 {
            let mut rng = SimRng::new(100 + seed);
            let mut f = File::new(pipelined(seed));
            for round in 0..4 {
                let batch = 1 + rng.index(6);
                for _ in 0..batch {
                    f.write(n(0), &mut rng);
                }
                let subs = f.subs();
                let lane = (1..3).find(|&s| subs[s] == f.newest.sub).expect("a safety replica");
                let lagging = 3 - lane;
                assert_eq!(subs[lagging] + batch as u64, f.newest.sub, "seed {seed} round {round}");
                let before = f.counters();
                f.c.advance(SimDuration::from_secs(10));
                f.check("drain");
                let after = f.counters();
                assert_eq!(
                    after.replica_async[lane], before.replica_async[lane],
                    "dups put nothing"
                );
                assert_eq!(after.replica_async[lagging], before.replica_async[lagging] + 1);
                assert_eq!(after.replica_sync, before.replica_sync);
                assert_eq!(f.subs(), [f.newest.sub; 3]);
            }
            f.settled_everywhere();
        }
    }

    /// The paper's eager distribution over a jittery network: a replica's
    /// lazy applies can come due out of order; the later update waits in
    /// the ordered receiver until the earlier one lands.
    #[test]
    fn reordered_pair_is_held_back_then_released_in_order() {
        let mut releases = 0;
        for seed in 0..24 {
            let mut cfg = ClusterConfig::default().with_seed(seed);
            cfg.latency = LatencyModel::Uniform {
                lo: SimDuration::from_micros(100),
                hi: SimDuration::from_millis(40),
                per_kb: SimDuration::ZERO,
            };
            cfg.disk.seek = SimDuration::ZERO;
            cfg.disk.per_kb = SimDuration::ZERO;
            cfg.stability_timeout = SimDuration::from_secs(600);
            let mut rng = SimRng::new(200 + seed);
            let mut f = File::new(cfg);
            for _ in 0..6 {
                for _ in 0..2 + rng.index(3) {
                    f.write(n(0), &mut rng);
                }
                releases += f.drain_stepwise();
            }
            f.settled_everywhere();
        }
        assert!(releases > 0, "no schedule reordered a pair: the test lost its subject");
    }

    /// A safety replica cut off across a drain misses updates that no
    /// longer exist as messages. Rejoined mid-stream it is a safety target
    /// again: the gap must end in state transfer, never in an ack counted
    /// on its stale copy.
    #[test]
    fn sequence_gap_on_the_safety_lane_ends_in_state_transfer() {
        let mut gaps_closed = 0;
        for seed in 0..8 {
            let mut rng = SimRng::new(300 + seed);
            let mut f = File::new(pipelined(seed));
            for _ in 0..3 {
                f.write(n(0), &mut rng);
            }
            let subs = f.subs();
            let lane = (1..3).find(|&s| subs[s] == f.newest.sub).expect("a safety replica");
            let other = 3 - lane;
            f.c.split(&[&[n(0), n(other as u32)], &[n(lane as u32)]]);
            for _ in 0..1 + rng.index(4) {
                f.write(n(0), &mut rng);
            }
            // The drain the cut-off replica misses.
            f.c.advance(SimDuration::from_secs(10));
            f.check("drain");
            assert!(f.subs()[lane] < f.newest.sub, "seed {seed}: cut off, so behind");
            f.c.heal();
            f.check("heal");
            let transfers = f.c.obs.count(Stat::SafetyTransfers);
            for _ in 0..3 {
                f.write(n(0), &mut rng);
            }
            if f.subs()[lane] == f.newest.sub {
                assert!(
                    f.c.obs.count(Stat::SafetyTransfers) > transfers,
                    "seed {seed}: a gapped replica became current without a transfer"
                );
                gaps_closed += 1;
            }
            f.settled_everywhere();
        }
        assert!(gaps_closed > 0, "no schedule put a gapped replica back on the safety lane");
    }

    /// The same, by crash: recovery finds the replica obsolete, destroys it
    /// and regenerates it from the primary (§3.6), mid-stream.
    #[test]
    fn safety_replica_crashed_across_a_drain_rejoins_current() {
        for seed in 0..8 {
            let mut rng = SimRng::new(400 + seed);
            let mut f = File::new(pipelined(seed));
            for _ in 0..3 {
                f.write(n(0), &mut rng);
            }
            let subs = f.subs();
            let lane = (1..3).find(|&s| subs[s] == f.newest.sub).expect("a safety replica");
            f.c.crash_server(n(lane as u32));
            for _ in 0..1 + rng.index(4) {
                f.write(n(0), &mut rng);
            }
            f.c.advance(SimDuration::from_secs(10));
            f.check("drain");
            f.c.recover_server(n(lane as u32));
            f.check("recover");
            for _ in 0..3 {
                f.write(n(0), &mut rng);
                f.c.advance(SimDuration::from_millis(5));
                f.check("advance");
            }
            f.settled_everywhere();
        }
    }

    /// The token moves mid-stream (a write arrives at another server):
    /// the new holder starts from the primary's state and the sequence
    /// continues — one linear history through the move.
    #[test]
    fn token_moved_mid_stream_keeps_one_history() {
        for seed in 0..8 {
            let mut rng = SimRng::new(500 + seed);
            for cfg in [pipelined(seed), ClusterConfig::default().with_seed(seed)] {
                let mut f = File::new(cfg);
                let mut via = n(0);
                for _ in 0..30 {
                    if rng.chance(0.15) {
                        via = n(rng.index(3) as u32);
                    }
                    f.write(via, &mut rng);
                    if rng.chance(0.2) {
                        f.c.pump(1 + rng.index(3));
                        f.check("pump");
                    }
                }
                assert_eq!(f.newest.major, 0, "a moved token is the same token");
                f.settled_everywhere();
            }
        }
    }

    /// The holder crashes after its safety replica acked but before the
    /// drain: the buffered updates are gone as messages; recovery
    /// regenerates the group from the primary.
    #[test]
    fn holder_crash_between_safety_ack_and_drain_converges() {
        for seed in 0..8 {
            let mut rng = SimRng::new(600 + seed);
            let mut f = File::new(pipelined(seed));
            for _ in 0..2 + rng.index(5) {
                f.write(n(0), &mut rng);
            }
            f.c.crash_server(n(0));
            f.check("crash");
            assert_eq!(
                f.c.server(n(0)).replicas.get(&(f.seg, 0)).map(|r| r.version),
                Some(f.newest),
                "seed {seed}: acked writes are durable at the holder"
            );
            f.c.recover_server(n(0));
            f.check("recover");
            f.settled_everywhere();
            for _ in 0..3 {
                let d = f.write(n(0), &mut rng);
                assert_eq!((d.token_sync, d.replica_sync), (1, 2), "seed {seed}: steady again");
            }
            f.settled_everywhere();
        }
    }

    /// What one fixed-seed run puts on the wire and leaves queued. The
    /// literals were recorded from the commit before the in-place delivery
    /// rewrite: same messages, same sizes, same RNG draws, same clock.
    #[test]
    fn fixed_seed_run_sends_the_recorded_messages() {
        for (pipeline, want) in [(false, recorded_eager()), (true, recorded_pipelined())] {
            let mut cfg = ClusterConfig::default().with_seed(0x5EED);
            cfg.opt_write_pipeline = pipeline;
            let mut rng = SimRng::new(7);
            let mut f = File::new(cfg);
            let mut via = n(0);
            for i in 0..60 {
                if i % 17 == 16 {
                    via = n((via.0 + 1) % 2);
                }
                f.write(via, &mut rng);
                if i == 30 {
                    f.c.crash_server(n(2));
                }
                if i == 40 {
                    f.c.recover_server(n(2));
                }
            }
            let stats = f.c.net.stats();
            let got = Recorded {
                messages: stats.messages,
                bytes: stats.bytes,
                tags: stats.tags().collect(),
                clock_us: f.c.now().as_micros(),
                pending: f.c.pending_events(),
            };
            assert_eq!(got, want, "pipeline {pipeline}");
            f.settled_everywhere();
        }
    }

    #[derive(Debug, PartialEq)]
    struct Recorded {
        messages: u64,
        bytes: u64,
        tags: Vec<(&'static str, u64)>,
        clock_us: u64,
        pending: usize,
    }

    fn recorded_eager() -> Recorded {
        Recorded {
            messages: 260,
            bytes: 5184,
            tags: vec![
                ("mark-stable", 4),
                ("mark-unstable", 14),
                ("replica-xfer", 6),
                ("token-request", 10),
                ("update", 220),
                ("view-change", 6),
            ],
            clock_us: 2_120_857,
            pending: 2,
        }
    }

    fn recorded_pipelined() -> Recorded {
        Recorded {
            messages: 245,
            bytes: 6191,
            tags: vec![
                ("mark-stable", 4),
                ("mark-unstable", 14),
                ("replica-xfer", 5),
                ("token-request", 10),
                ("update", 206),
                ("view-change", 6),
            ],
            clock_us: 2_087_043,
            pending: 2,
        }
    }
}
