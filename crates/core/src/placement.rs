//! Access-driven replica placement and file migration (§3.1 method 4,
//! made measured instead of eager).
//!
//! # Policy
//!
//! Every server keeps an always-on, lock-free table of per-file remote
//! read counters ([`PlacementCore`]): a read that enters at a server with
//! no local replica — and therefore forwards (§2.1) — bumps that
//! (server, file) counter. When a counter crosses
//! [`ClusterConfig::placement_threshold`](crate::ClusterConfig) and
//! `opt_placement` is on, the cluster schedules one deferred migration
//! that (a) *creates* a replica on the forwarding server from a durable
//! stable copy (the existing §3.1 regeneration path,
//! `Cluster::generate_replica_now`), then (b) *retires* idle replicas
//! nobody reads via the §3.1 LRU extra-replica deletion — never dropping
//! below the per-file [`FileParams::min_replicas`](crate::FileParams)
//! floor. A retirement proposal the floor blocks is counted as
//! vetoed, not forced. Proposals, executions, vetoes, retirements and
//! counter decays are counted in [`ObsCore`](crate::ObsCore)'s counter
//! table (the `Migrations*`, `ReplicasRetired` and `DecayEpochs`
//! [`Stat`]s), like every other protocol event.
//!
//! # Damping windows
//!
//! Three windows keep the policy from thrashing:
//!
//! * **epoch decay** — counters halve once per
//!   `placement_epoch` of protocol time, so a file that *was* hot does
//!   not stay "hot" forever; the signal tracks current traffic.
//! * **migration damping** — a crossing schedules the migration
//!   `lazy_apply_delay` out (due-gated, exactly like read-repair), so a
//!   burst of forwarded reads queues one deferred move, not a storm.
//! * **stream stand-off** — a migration that fires while the file's
//!   write stream is active re-queues itself for the next window instead
//!   of copying a replica that would lag by the next buffered update.
//!
//! # Floor invariant
//!
//! The placement subsystem can only ever *add* replicas directly; every
//! deletion goes through `Cluster::delete_extra_replicas`, which
//! deletes at most `holders - min_replicas` idle copies. The replication
//! floor therefore cannot be violated by any migration/retirement
//! interleaving, including under crash or partition — a crash can make
//! copies *unreachable*, but placement never destroys the last
//! `min_replicas` of them.
//!
//! Migrations are single-flighted per (server, file) through
//! [`ServerState`](crate::server::ServerState)'s volatile `migrations`
//! map, the same discipline read-repair uses: a burst of forwarded reads
//! arms one deferred move, a crash of the destination clears the claim
//! with the rest of the volatile state, and the pending event dies with
//! its owner.

use deceit_net::NodeId;
use deceit_sim::atomic::RelaxedU64;

use crate::cluster::Cluster;
use crate::event::Pending;
use crate::obs::Stat;
use crate::server::{ReplicaKey, SegmentId};

/// Slots per server in the access table. Power of two; at 24 bytes a
/// slot the whole table is ~12 KiB per server, allocated once.
const TABLE_SLOTS: usize = 512;

/// Linear-probe length before a recording gives up. A full probe window
/// means the table region is saturated with other hot files; the read
/// proceeds unrecorded rather than ever blocking on the signal path.
const PROBE: usize = 8;

fn hash_seg(seg: u64) -> usize {
    // splitmix64 finalizer: cheap, well-distributed, no allocation.
    let mut x = seg.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) as usize
}

/// One open-addressed counter slot: the segment it tracks (`seg + 1`,
/// 0 = empty), the epoch the count was last decayed to, and the decayed
/// remote-read count itself. A heuristic signal, so every access is
/// relaxed.
#[derive(Debug)]
struct AccessSlot {
    key: RelaxedU64,
    epoch: RelaxedU64,
    count: RelaxedU64,
}

impl AccessSlot {
    fn new() -> Self {
        AccessSlot { key: RelaxedU64::new(0), epoch: RelaxedU64::new(0), count: RelaxedU64::new(0) }
    }

    /// Decays the count to `epoch` (halving once per elapsed epoch),
    /// then adds one and returns the new count. Wait-free but
    /// approximate under races: two concurrent decayers can at worst
    /// halve once instead of twice, which a heuristic signal tolerates.
    fn bump(&self, epoch: u64, decays: &RelaxedU64) -> u64 {
        let seen = self.epoch.load();
        if epoch > seen && self.epoch.compare_exchange(seen, epoch).is_ok() {
            let shift = (epoch - seen).min(63) as u32;
            let old = self.count.swap(0);
            self.count.fetch_add(old >> shift);
            decays.fetch_add(1);
        }
        self.count.fetch_add(1) + 1
    }

    /// The count as it would read in `epoch`, without recording.
    fn peek(&self, epoch: u64) -> u64 {
        let seen = self.epoch.load();
        let shift = epoch.saturating_sub(seen).min(63) as u32;
        self.count.load() >> shift
    }
}

/// One server's fixed-footprint access table.
#[derive(Debug)]
struct AccessTable {
    slots: Box<[AccessSlot]>,
}

impl AccessTable {
    fn new() -> Self {
        AccessTable { slots: (0..TABLE_SLOTS).map(|_| AccessSlot::new()).collect() }
    }

    fn slot_of(&self, seg: u64) -> Option<&AccessSlot> {
        let tag = seg.wrapping_add(1);
        let h = hash_seg(seg);
        for p in 0..PROBE {
            let s = &self.slots[(h + p) & (TABLE_SLOTS - 1)];
            if s.key.load() == tag {
                return Some(s);
            }
        }
        None
    }

    fn record(&self, seg: u64, epoch: u64, decays: &RelaxedU64) -> u64 {
        let tag = seg.wrapping_add(1);
        let h = hash_seg(seg);
        for p in 0..PROBE {
            let s = &self.slots[(h + p) & (TABLE_SLOTS - 1)];
            let k = s.key.load();
            if k == tag {
                return s.bump(epoch, decays);
            }
            if k == 0 {
                if s.key.compare_exchange(0, tag).is_ok() {
                    s.epoch.store(epoch);
                    return s.bump(epoch, decays);
                }
                // Lost the claim race; the winner may be us by another
                // thread's hand or a different segment — re-check.
                if s.key.load() == tag {
                    return s.bump(epoch, decays);
                }
            }
        }
        0 // probe window saturated: no signal, never a stall
    }
}

/// An owned snapshot of the placement activity counters, for export
/// (`ObsReport` / `obs_report.json`) and assertions. The counters live
/// in [`ObsCore`](crate::ObsCore)'s table ([`crate::obs::Stat`]);
/// [`ObsCore::placement_snapshot`](crate::ObsCore::placement_snapshot)
/// reads them out as one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementSnapshot {
    /// Migrations scheduled (a counter crossed the threshold and claimed
    /// the single-flight slot).
    pub migrations_proposed: u64,
    /// Migrations that executed: a replica was created at the reader.
    pub migrations_executed: u64,
    /// Retirement proposals the replication floor blocked: idle replicas
    /// existed beyond the LRU window, but deleting any would drop the
    /// file below its `min_replicas`.
    pub migrations_vetoed_floor: u64,
    /// Idle replicas retired by the §3.1 LRU extra-replica deletion.
    pub replicas_retired: u64,
    /// Per-slot counter decays applied (epoch rollovers observed).
    pub decay_epochs: u64,
}

/// The always-on placement signal: one fixed-footprint access table per
/// server, recorded into lock-free. It has no off switch, like the rest
/// of [`ObsCore`](crate::ObsCore), which owns it and keeps the
/// placement activity counters in its counter table.
#[derive(Debug)]
pub struct PlacementCore {
    tables: Vec<AccessTable>,
}

impl PlacementCore {
    /// Tables for a cell of `n_servers`.
    pub fn new(n_servers: usize) -> Self {
        PlacementCore { tables: (0..n_servers).map(|_| AccessTable::new()).collect() }
    }

    /// Records one remote (forwarded) read of `seg` entering at
    /// `server`, decayed to `epoch`, and returns the new count; each
    /// decay applied is added to `decays`. Wait-free.
    pub fn record_remote_read(
        &self,
        server: NodeId,
        seg: SegmentId,
        epoch: u64,
        decays: &RelaxedU64,
    ) -> u64 {
        match self.tables.get(server.index()) {
            Some(t) => t.record(seg.0, epoch, decays),
            None => 0,
        }
    }

    /// The current decayed remote-read count for (server, seg) as of
    /// `epoch`, without recording (tests and diagnostics).
    pub fn remote_reads(&self, server: NodeId, seg: SegmentId, epoch: u64) -> u64 {
        self.tables.get(server.index()).and_then(|t| t.slot_of(seg.0)).map_or(0, |s| s.peek(epoch))
    }
}

impl Cluster {
    /// The current placement epoch: protocol time quantized by
    /// `placement_epoch`. Counters decay when their slot's epoch lags
    /// this.
    pub(crate) fn placement_epoch_now(&self) -> u64 {
        self.now().as_micros() / self.cfg.placement_epoch.as_micros().max(1)
    }

    /// Records a forwarded read of `key` that entered at `via` (always
    /// on), and — when `opt_placement` is enabled and the decayed count
    /// crosses the threshold — schedules one deferred migration that
    /// grows a replica at `via`.
    pub(crate) fn observe_remote_read(&self, via: NodeId, key: ReplicaKey) {
        let n = self.obs.record_remote_read(via, key.0, self.placement_epoch_now());
        if self.cfg.opt_placement && n >= self.cfg.placement_threshold {
            self.schedule_migration(via, key);
        }
    }

    /// Queues one deferred migration of `key` toward `reader`.
    /// Single-flighted per (server, file) and due-gated one damping
    /// window out, exactly like read-repair: a burst of forwarded reads
    /// arms one move, not one per read.
    pub(crate) fn schedule_migration(&self, reader: NodeId, key: ReplicaKey) {
        // Already placed (or raced with a fill), or a migration for this
        // placement already in flight: nothing to arm.
        let armed = self.server(reader).visit(key.0, |s| {
            !s.replicas.disk.contains(&key) && s.migrations.insert(key, ()).is_none()
        });
        if !armed {
            return;
        }
        self.obs.bump(Stat::MigrationsProposed);
        self.events.push(
            self.now() + self.cfg.lazy_apply_delay,
            Pending::MigrateReplica { server: reader, key },
        );
    }

    /// The deferred migration handler: creates a replica of `key` at
    /// `reader` from a durable stable copy via the §3.1 regeneration
    /// path, then retires idle extras elsewhere (floor-respecting).
    ///
    /// The migration stands down (releasing the single-flight claim so
    /// the next forwarded read re-arms it) when the destination crashed,
    /// already holds a replica, or no stable source is reachable. While
    /// the file's write stream is active it instead re-queues itself for
    /// the next damping window — a replica copied mid-stream would lag
    /// by the next buffered update and serve nothing.
    pub(crate) fn migrate_replica(&self, reader: NodeId, key: ReplicaKey) {
        let up = self.net.is_up(reader);
        let placed = self.server(reader).visit(key.0, |s| {
            let placed = !up || s.replicas.disk.contains(&key);
            if placed {
                s.migrations.remove(&key);
            }
            placed
        });
        if placed {
            return;
        }
        let holder = self.find_reachable_token_holder(reader, key);
        if let Some(h) = holder {
            if self.streaming(h, key) {
                // Keep the claim: one parked move waits out the stream.
                self.events.push(
                    self.now() + self.cfg.lazy_apply_delay,
                    Pending::MigrateReplica { server: reader, key },
                );
                return;
            }
        }
        self.server(reader).visit(key.0, |s| s.migrations.remove(&key));
        let stable = |h: NodeId| {
            self.server(h)
                .visit(key.0, |s| s.replicas.disk.get(&key).is_some_and(|r| r.is_stable()))
        };
        let src = holder
            .filter(|&h| h != reader && self.replica_version(h, key).is_some())
            .or_else(|| {
                let mut holders = self.reachable_replica_holders(reader, key).into_iter();
                holders.find(|&h| h != reader && stable(h))
            });
        let Some(src) = src else {
            return; // no durable source in reach; a later read re-arms us
        };
        self.generate_replica_now(src, key, reader);
        if self.replica_version(reader, key).is_none() {
            return; // transfer failed (unreachable, vanished source)
        }
        self.obs.bump(Stat::MigrationsExecuted);
        // The retire half: now that the reader serves locally, drop
        // whatever nobody reads — delete_extra_replicas enforces the
        // LRU window and the min_replicas floor, and accounts the veto
        // when the floor blocks an otherwise-idle candidate.
        if let Some(th) = holder {
            self.delete_extra_replicas(th, key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_decay_by_elapsed_epochs() {
        let p = PlacementCore::new(1);
        let decays = RelaxedU64::new(0);
        let s0 = NodeId(0);
        let seg = SegmentId(7);
        for _ in 0..10 {
            p.record_remote_read(s0, seg, 0, &decays);
        }
        assert_eq!(p.remote_reads(s0, seg, 0), 10);
        // One epoch later the count halves before the new sample lands.
        assert_eq!(p.record_remote_read(s0, seg, 1, &decays), 6, "10 >> 1 = 5, plus this read");
        // Three more epochs shift the 6 away entirely.
        assert_eq!(p.record_remote_read(s0, seg, 4, &decays), 1, "6 >> 3 = 0, plus this read");
        assert_eq!(decays.load(), 2, "two rollovers observed");
        // Peeking at a future epoch decays the view without recording.
        assert_eq!(p.remote_reads(s0, seg, 5), 0);
        assert_eq!(p.remote_reads(s0, seg, 4), 1);
    }

    #[test]
    fn tables_are_per_server_and_bounds_checked() {
        let p = PlacementCore::new(2);
        let decays = RelaxedU64::new(0);
        let seg = SegmentId(3);
        assert_eq!(p.record_remote_read(NodeId(0), seg, 0, &decays), 1);
        assert_eq!(p.remote_reads(NodeId(1), seg, 0), 0, "server 1's table is independent");
        // A server id past the cell neither records nor panics.
        assert_eq!(p.record_remote_read(NodeId(9), seg, 0, &decays), 0);
        assert_eq!(p.remote_reads(NodeId(9), seg, 0), 0);
    }

    #[test]
    fn saturated_probe_window_drops_signal_instead_of_blocking() {
        let t = AccessTable::new();
        let decays = RelaxedU64::new(0);
        // Fill far more distinct segments than the table holds: every
        // record either lands in a slot or returns 0, never panics or
        // misattributes to another live key.
        let mut recorded = 0u64;
        for seg in 0..(TABLE_SLOTS as u64 * 2) {
            if t.record(seg, 0, &decays) > 0 {
                recorded += 1;
            }
        }
        assert!(recorded >= TABLE_SLOTS as u64 / 2, "most records land");
        assert!(recorded <= TABLE_SLOTS as u64, "no more keys than slots");
    }

    #[test]
    fn concurrent_recording_never_loses_the_hot_file() {
        let p = std::sync::Arc::new(PlacementCore::new(1));
        let seg = SegmentId(42);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = std::sync::Arc::clone(&p);
                std::thread::spawn(move || {
                    let decays = RelaxedU64::new(0);
                    for _ in 0..1000 {
                        p.record_remote_read(NodeId(0), seg, 0, &decays);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder thread");
        }
        assert_eq!(p.remote_reads(NodeId(0), seg, 0), 4000, "same-epoch records are exact");
    }
}
