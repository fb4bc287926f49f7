//! Deferred-event handlers.
//!
//! Handlers run through `&self`: the pump fires a slot's events under the
//! shared cell lock plus that slot's ring lock, and every handler touches
//! only hot state of its own shard (flush events carry the segment that
//! dirtied them, so even write-back is slot-local).

use deceit_sim::SimTime;

use crate::cluster::Cluster;
use crate::event::Pending;

impl Cluster {
    /// Dispatches one due event. `at` is the event's scheduled time; the
    /// cluster clock has already been advanced to at least `at`.
    pub(crate) fn handle_event(&self, _at: SimTime, ev: Pending) {
        match ev {
            Pending::ApplyUpdate { server, key, update } => {
                if !self.net.is_up(server) {
                    return;
                }
                if self.replica_version(server, key).is_none() {
                    return; // replica deleted while the update was in flight
                }
                // Route through the ordered-delivery buffer so updates
                // apply in identical order regardless of arrival (§3.3).
                self.apply_updates_ordered(server, key, std::slice::from_ref(&update), false);
                self.schedule_flush(server, key.0);
            }
            Pending::FlushServer { server, seg } => {
                if !self.net.is_up(server) {
                    return;
                }
                self.server(server).visit(seg, |s| {
                    s.replicas.disk.flush_all();
                    s.tokens.disk.flush_all();
                });
            }
            Pending::PropagateStream { holder, key } => {
                self.propagate_stream(holder, key);
            }
            Pending::StabilizeCheck { server, key, epoch } => {
                self.stabilize_check(server, key, epoch);
            }
            Pending::ReadRepair { server, key } => {
                self.read_repair(server, key);
            }
            Pending::MigrateReplica { server, key } => {
                self.migrate_replica(server, key);
            }
            Pending::GenerateReplica { holder, key, target } => {
                if !self.net.is_up(holder) {
                    return;
                }
                self.generate_replica_now(holder, key, target);
            }
        }
    }
}
