//! Update distribution.
//!
//! §3.2: "An update to f originates from a client and is given to its
//! server. That server then broadcasts the update to all members of f's
//! file group; no other servers receive this update for f." §3.3: "An
//! update requires only one communication round if the token is held. …
//! The token holder synchronously collects only the first s correct
//! replies, where s is the write safety level of the file."
//!
//! The whole path is `&self`: every piece of state it rewrites — the
//! file's replicas, token, stream state, delivery buffers, its slot's
//! event queue — lives behind the ShardKey-indexed seam of
//! [`crate::hot`], so a concurrent host runs it under the shared cell
//! lock plus the file's shard ring lock ([`Cluster::write_sharded`]).

use deceit_isis::broadcast_round;
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::cluster::{Cluster, OpResult, OpScope};
use crate::error::{DeceitError, DeceitResult};
use crate::event::Pending;
use crate::ops::{UpdateRecord, WriteOp};
use crate::server::SegmentId;
use crate::trace_events::ProtocolEvent;
use crate::version::VersionPair;

impl Cluster {
    /// Writes to a segment via server `via`.
    ///
    /// `expected` implements the conditional write of §5.1: "a write call
    /// can also have a version pair as a parameter; in this case the write
    /// will succeed only if the version pair of the segment matches the
    /// version pair in the call … otherwise an error will be returned."
    ///
    /// Returns the version pair of the segment after the write.
    pub fn write(
        &mut self,
        via: NodeId,
        seg: SegmentId,
        op: WriteOp,
        expected: Option<VersionPair>,
    ) -> DeceitResult<OpResult<VersionPair>> {
        self.client_op_scoped(via, OpScope::Global, |c| c.do_write(via, seg, op, expected))
    }

    /// The sharded-path twin of [`Cluster::write`]: the caller holds the
    /// ring locks for `slots`, which must cover `seg`'s slot.
    pub fn write_sharded(
        &self,
        slots: &[usize],
        via: NodeId,
        seg: SegmentId,
        op: WriteOp,
        expected: Option<VersionPair>,
    ) -> DeceitResult<OpResult<VersionPair>> {
        debug_assert!(slots.contains(&self.slot_of(seg)), "ring locks must cover the written file");
        self.client_op_scoped(via, OpScope::Slots(slots), |c| c.do_write(via, seg, op, expected))
    }

    fn do_write(
        &self,
        via: NodeId,
        seg: SegmentId,
        op: WriteOp,
        expected: Option<VersionPair>,
    ) -> DeceitResult<(VersionPair, SimDuration)> {
        // An op too big for even an empty segment is refused before the
        // token is looked for; an append, whose size depends on the
        // segment's, once more below.
        if op.resulting_len(0).is_none() {
            return Err(DeceitError::SegmentTooBig(seg));
        }

        // §3.3 optimization 2: for a small one-shot update, pass the
        // update to the current token holder instead of moving the token.
        if self.cfg.opt_forward_small && op.wire_size() <= self.cfg.forward_small_threshold {
            if let Ok((key, _)) = self.resolve_key(via, seg, None) {
                if !self.server(via).holds_token(key) {
                    if let Some(holder) = self.find_reachable_token_holder(via, key) {
                        if holder != via {
                            let rtt = self.round_trip(via, holder, op.wire_size(), 24)?;
                            self.stats.incr("core/token/updates_forwarded");
                            let (v, inner) = self.do_write(holder, seg, op, expected)?;
                            return Ok((v, rtt + inner));
                        }
                    }
                }
            }
        }

        // Table 1 row 1: precondition "token is not held" → acquire token.
        let piggyback = self.cfg.opt_piggyback_acquire;
        let (key, mut latency) = self.ensure_token_for_write(via, seg, piggyback)?;

        // Conditional write check against the authoritative (token)
        // version pair — a clone-free probe; the full token is read only
        // *after* extra-replica deletion below, so the write-back at the
        // end of this function can never resurrect a just-deleted victim
        // into the stored holder set.
        // "Just ensured" is best-effort under concurrency: a crash on
        // the ensure/write seam can drop the token, in which case the
        // write is refused rather than the server killed.
        let token_version = self
            .server(via)
            .tokens
            .with_ref(&key, |t| t.map(|t| t.version))
            .ok_or(DeceitError::WriteUnavailable(seg))?;
        if let Some(exp) = expected {
            if token_version != exp {
                self.stats.incr("core/occ/conflicts");
                return Err(DeceitError::VersionConflict {
                    segment: seg,
                    expected: exp,
                    actual: token_version,
                });
            }
        }

        // Only an append's size depends on what is already there: judged
        // against the primary copy, like the version check above — nothing
        // but the token's place has changed so far.
        if matches!(op, WriteOp::Append(_)) {
            let current =
                self.server(via).replicas.with_ref(&key, |r| r.map_or(0, |r| r.data.len()));
            if op.resulting_len(current).is_none() {
                return Err(DeceitError::SegmentTooBig(seg));
            }
        }

        let params = self.params_of(via, key);

        // Table 1 row 2: "replicas are not marked as unstable" → mark
        // replicas as unstable (§3.4), once per write stream.
        if params.stability {
            let unstable_done =
                self.server(via).streams.get(&key).map(|s| s.group_unstable).unwrap_or(false);
            if !unstable_done {
                latency += self.mark_unstable_round(via, key);
            }
        }

        // §3.1: "The token holder t will delete these extra replicas when
        // an update occurs instead of updating them." The token's holder
        // set is the §3.1 upper bound on the replica count; when it does
        // not exceed the minimum level there is nothing extra to find,
        // and the reachability scan is skipped.
        let holder_bound =
            self.server(via).tokens.with_ref(&key, |t| t.map(|t| t.holders.len())).unwrap_or(0);
        if holder_bound > params.min_replicas {
            self.delete_extra_replicas(via, key);
        }

        // The authoritative token, read after any holder-set update the
        // deletion above stored. Same seam as above: refuse, don't panic.
        let token = self.server(via).tokens.get(&key).ok_or(DeceitError::WriteUnavailable(seg))?;

        // Table 1 row 3: the distributed update itself.
        let new_version = token.version.bump();
        let wire_size = op.wire_size();
        let disk_cost = self.cfg.disk.write_cost(op.disk_size());
        let update = UpdateRecord { new_version, op };
        let now = self.now();
        let needed_remote = params.write_safety.saturating_sub(1);
        let (remote_replica_rtts, replies_from_replicas, group_size) =
            if self.cfg.opt_write_pipeline {
                self.distribute_pipelined(
                    via,
                    key,
                    &update,
                    &token,
                    needed_remote,
                    wire_size,
                    disk_cost,
                )
            } else {
                let members: Vec<NodeId> =
                    self.group_members(seg).map(|(_, m)| m).unwrap_or_else(|| vec![via]);
                let remote: Vec<NodeId> = members.iter().copied().filter(|&m| m != via).collect();
                let group_size = remote.len();
                let (rtts, replies) = self.distribute_eager(
                    via,
                    key,
                    &update,
                    &remote,
                    needed_remote,
                    wire_size,
                    disk_cost,
                    now,
                );
                (rtts, replies, group_size)
            };
        self.emit_from(
            via,
            ProtocolEvent::UpdateDistributed { seg, sub: new_version.sub, group_size },
        );
        self.stats.incr("core/updates");

        // Apply locally at the token holder (the primary replica).
        let sync_local = params.write_safety >= 1;
        self.apply_update_at(via, key, &update, sync_local);
        if !sync_local {
            self.schedule_flush(via, key.0);
        }

        // Publish (or advance) the holder-local read lease: the replica
        // now embeds everything through `new_version`, which is exactly
        // the acked durable prefix once this write returns. Granted
        // *after* the apply, so a lock-free reader in the window between
        // them sees a version/lease mismatch and falls back — never a
        // prefix ahead of the lease. Only streams under §3.4 stability
        // need it: without stability the holder's replica stays stable
        // and the ordinary fast path serves it.
        if self.cfg.opt_read_leases && params.stability {
            let prior = self
                .server(via)
                .leases
                .insert(key, crate::server::ReadLease { version: new_version });
            // Flight-record the opening of the lock-free window, not
            // every per-write refresh — a stream would otherwise flood
            // the ring with one grant per update.
            if prior.is_none() {
                self.emit_from(via, ProtocolEvent::LeaseGranted { seg, on: via });
            }
        }

        // Advance the token's version pair — folding in the availability
        // check so the token hits storage once. §3.5: "Some of a server's
        // non-volatile storage is updated immediately when values change,
        // and some of it is written asynchronously, depending on safety"
        // — at safety ≥ 1 the token must hit disk with the data, or a
        // crash would leave recovery believing stale replicas current.
        // Availability "medium": disable the token if the majority was
        // lost mid-stream (§4: "write availability may be lost in the
        // middle of a stream of updates").
        let mut t = token;
        t.version = new_version;
        if params.availability == crate::params::WriteAvailability::Medium
            && replies_from_replicas < t.majority(params.min_replicas)
            && t.enabled
        {
            t.enabled = false;
            self.stats.incr("core/token/disabled");
        }
        if sync_local {
            self.server(via).tokens.put_sync(key, t);
        } else {
            self.server(via).tokens.put_async(key, t);
            self.schedule_flush(via, key.0);
        }

        // Table 1 row 4: count update replies; §3.1 method 1 — if the
        // number of correct replies drops below the minimum replica level,
        // create new replicas.
        self.emit_from(
            via,
            ProtocolEvent::RepliesCounted {
                seg,
                replies: replies_from_replicas,
                needed: params.min_replicas,
            },
        );
        if replies_from_replicas < params.min_replicas {
            // Table 1 row 5: insufficient replicas → generate new replicas.
            self.schedule_min_replica_fill(via, key);
        }

        // Client-visible latency: the s-th correct reply (§3.3). The
        // holder's own durable apply is the first "reply"; each remote
        // reply costs its round trip.
        let net_wait = match params.write_safety {
            0 => SimDuration::ZERO,
            1 => disk_cost,
            s => {
                let needed_remote = s - 1;
                let idx = needed_remote.min(remote_replica_rtts.len());
                let remote_wait =
                    if idx == 0 { SimDuration::ZERO } else { remote_replica_rtts[idx - 1] };
                disk_cost.max(remote_wait)
            }
        };
        latency += net_wait;

        // Table 1 row 6 setup: schedule the period-of-no-write-activity
        // check that will mark replicas stable again (§3.4). One check
        // stays pending per stream; a stale firing re-arms itself to the
        // newest quiet horizon, so a stream of N writes queues O(1)
        // checks, not N.
        if params.stability {
            let (epoch, arm) =
                self.server(via).streams.with_or_insert(key, Default::default, |stream| {
                    stream.last_write = now;
                    stream.epoch += 1;
                    (stream.epoch, !std::mem::replace(&mut stream.check_scheduled, true))
                });
            if arm {
                self.events.push(
                    now + self.cfg.stability_timeout,
                    Pending::StabilizeCheck { server: via, key, epoch },
                );
            }
        }

        self.stats.record_duration("core/write_latency", latency);
        Ok((new_version, latency))
    }

    /// The paper prototype's eager distribution: one broadcast round to
    /// the whole file group per update, with write-through application at
    /// the safety-path replicas and a deferred `ApplyUpdate` per
    /// write-behind replica. Returns the safety-relevant remote reply
    /// times and the §3.1 reply count (self + remote repliers holding
    /// replicas).
    #[allow(clippy::too_many_arguments)]
    fn distribute_eager(
        &self,
        via: NodeId,
        key: (SegmentId, u64),
        update: &UpdateRecord,
        remote: &[NodeId],
        needed_remote: usize,
        wire_size: usize,
        remote_disk: SimDuration,
        now: deceit_sim::SimTime,
    ) -> (Vec<SimDuration>, usize) {
        let outcome = broadcast_round(&self.net, via, remote.to_vec(), wire_size, 16, "update");
        self.server(via).observe_round(&outcome);

        // Schedule write-behind application at every replica holder that
        // acknowledged receipt. Their acks are receipt, not application
        // (§1: an update can be visible before it reaches all replicas) —
        // application lands after the lazy-apply delay.
        let mut remote_replica_rtts: Vec<SimDuration> = Vec::new();
        for (m, rtt) in &outcome.replies {
            if !self.server(*m).replicas.contains(&key) {
                continue;
            }
            if remote_replica_rtts.len() < needed_remote {
                // Safety-path replica: its reply means "applied durably",
                // so it writes through before answering (reply time
                // includes its disk write), after catching up on any
                // still-lazy earlier updates to keep the order identical.
                // A replica that cannot be brought current (even by
                // state transfer) is not a correct reply and the next
                // replier takes its safety slot — §3.3 collects the
                // first s *correct* replies.
                self.drain_pending_applies(*m, key);
                if self.deliver_safety_copy(via, *m, key, update) {
                    remote_replica_rtts.push(*rtt + remote_disk);
                }
            } else {
                // Write-behind replica: acked receipt, applies after the
                // lazy delay (§1's asynchronous update propagation).
                remote_replica_rtts.push(*rtt + remote_disk);
                let apply_at = now + *rtt / 2 + self.cfg.lazy_apply_delay;
                self.events.push(
                    apply_at,
                    Pending::ApplyUpdate { server: *m, key, update: update.clone() },
                );
            }
        }
        let replies = 1 + remote_replica_rtts.len(); // self + remote
        (remote_replica_rtts, replies)
    }

    /// The asynchronous write pipeline's distribution
    /// (`ClusterConfig::opt_write_pipeline`): write-through at exactly
    /// the `write_safety - 1` remote replicas the safety level requires,
    /// then append the update to the file's outbound stream. One queued
    /// [`Pending::PropagateStream`] per stream ships everything buffered
    /// since the last drain in a single group broadcast — consecutive
    /// updates to the same replica ride one message.
    ///
    /// Returns the safety-lane reply times, the §3.1 reply count, and
    /// the remote group size. Unlike the eager path, no round runs on
    /// the common (safety ≤ 1) path, so the reply count substitutes
    /// reachability over the token's holder set — the §3.1 upper bound
    /// the holder maintains; those are exactly the servers the eager
    /// broadcast would have heard from.
    #[allow(clippy::too_many_arguments)]
    fn distribute_pipelined(
        &self,
        via: NodeId,
        key: (SegmentId, u64),
        update: &UpdateRecord,
        token: &crate::token::WriteToken,
        needed_remote: usize,
        wire_size: usize,
        remote_disk: SimDuration,
    ) -> (Vec<SimDuration>, usize, usize) {
        // Group size through the location cache — no name formatting,
        // no member-list allocation on the common path.
        let gid = self.cached_group(via, key.0);
        let group_size = gid.map(|g| self.groups.member_count(g).saturating_sub(1)).unwrap_or(0);

        // Safety lane (§3.3: "the token holder synchronously collects
        // only the first s correct replies"): each chosen replica first
        // catches up on any still-buffered earlier updates, so the
        // identical-order guarantee holds on the safety path.
        let mut remote_replica_rtts: Vec<SimDuration> = Vec::new();
        if needed_remote > 0 {
            let targets: Vec<NodeId> = gid
                .and_then(|g| self.groups.members_vec(g))
                .unwrap_or_default()
                .into_iter()
                .filter(|&m| {
                    m != via && self.net.reachable(via, m) && self.server(m).replicas.contains(&key)
                })
                .take(needed_remote)
                .collect();
            let outcome = broadcast_round(&self.net, via, targets, wire_size, 16, "update");
            self.server(via).observe_round(&outcome);
            for (m, rtt) in &outcome.replies {
                if self.deliver_safety_copy(via, *m, key, update) {
                    remote_replica_rtts.push(*rtt + remote_disk);
                }
            }
        }

        // Batch lane: buffer for the rest of the group. Members already
        // served by the safety lane drop the redelivery in their ordered
        // receivers, so the stream stays one linear history.
        if group_size > 0 {
            let schedule =
                self.server(via).outbound.with_or_insert(key, Default::default, |stream| {
                    stream.updates.push(update.clone());
                    !std::mem::replace(&mut stream.scheduled, true)
                });
            if schedule {
                let at = self.now() + self.cfg.lazy_apply_delay;
                self.events.push(at, Pending::PropagateStream { holder: via, key });
            }
        }

        let replies =
            1 + token.holders.iter().filter(|&&h| h != via && self.net.reachable(via, h)).count();
        (remote_replica_rtts, replies, group_size)
    }

    /// Write-through delivery for the safety lane: catches `target` up
    /// from the holder's outbound backlog, applies `update`, and — if a
    /// sequence gap left the replica behind (it missed a drain whose
    /// updates no longer exist as messages) — regenerates it from the
    /// holder's replica by state transfer (§3.1) and re-delivers.
    ///
    /// Returns whether the replica is durably current through `update`;
    /// only then may it be counted as one of §3.3's "first s correct
    /// replies" — acking a write at safety `s` on a reply whose copy is
    /// actually stale would silently void the durability contract.
    fn deliver_safety_copy(
        &self,
        holder: NodeId,
        target: NodeId,
        key: (SegmentId, u64),
        update: &UpdateRecord,
    ) -> bool {
        let current = |c: &Self| {
            c.server(target)
                .replicas
                .with_ref(&key, |r| r.map(|r| r.version == update.new_version))
                .unwrap_or(false)
        };
        if self.cfg.danger_skip_safety_currency {
            // Auditor mutation knob: count the reply blindly. A target
            // that rejoined with a sequence gap holds `update` in its
            // ordered receiver forever, so the "durable" copy is stale —
            // the exact defect `core::audit` exists to catch.
            self.apply_updates_ordered(target, key, std::slice::from_ref(update), true);
            return true;
        }
        self.catch_up_from_outbound(holder, target, key);
        self.apply_updates_ordered(target, key, std::slice::from_ref(update), true);
        if current(self) {
            return true;
        }
        // Sequence gap: the missing prefix of the stream no longer
        // exists as messages, so regenerate from the primary. The
        // holder's replica embeds everything *before* this update (it
        // applies `update` after distribution), so a fresh receiver on
        // the transferred state delivers `update` cleanly on top.
        let Some(src) = self.server(holder).replicas.get(&key) else {
            return false;
        };
        let blast = self.cfg.blast;
        if deceit_isis::xfer::transfer_state(
            &self.net,
            &blast,
            holder,
            target,
            src.data.len() as u64,
            "replica-xfer",
        )
        .duration()
        .is_none()
        {
            return false;
        }
        let now = self.now();
        self.server(target).replicas.put_sync(key, crate::replica::Replica::cloned_from(&src, now));
        self.server(target).drop_receiver(&key);
        self.apply_updates_ordered(target, key, std::slice::from_ref(update), true);
        self.stats.incr("core/pipeline/safety_transfers");
        current(self)
    }

    /// Delivers the still-buffered outbound updates `target` has not yet
    /// embedded, write-through — the safety lane's backlog catch-up.
    fn catch_up_from_outbound(&self, holder: NodeId, target: NodeId, key: (SegmentId, u64)) {
        let target_sub = self.server(target).replicas.with_ref(&key, |r| r.map(|r| r.version.sub));
        let Some(target_sub) = target_sub else { return };
        let backlog: Vec<UpdateRecord> = self.server(holder).outbound.with(&key, |s| match s {
            Some(s) => {
                s.updates.iter().filter(|u| u.new_version.sub > target_sub).cloned().collect()
            }
            None => Vec::new(),
        });
        if !backlog.is_empty() {
            self.apply_updates_ordered(target, key, &backlog, true);
        }
    }

    /// The deferred drain of the write pipeline: ships every update
    /// buffered for `key` at `holder` in one group broadcast and applies
    /// the batch (write-behind) at each reachable replica holder, folding
    /// all of a replica's deliverable updates into a single
    /// read-modify-write. Members that cannot be reached miss the batch —
    /// exactly like a missed eager broadcast — and are caught up later by
    /// the §3.4 stabilize round or §3.1 regeneration.
    pub(crate) fn propagate_stream(&self, holder: NodeId, key: (SegmentId, u64)) {
        if !self.net.is_up(holder) {
            return;
        }
        let batch: Vec<UpdateRecord> = self.server(holder).outbound.with(&key, |s| match s {
            Some(s) => {
                s.scheduled = false;
                std::mem::take(&mut s.updates)
            }
            None => Vec::new(),
        });
        if batch.is_empty() {
            return;
        }
        let members: Vec<NodeId> = self
            .cached_group(holder, key.0)
            .and_then(|g| self.groups.members_vec(g))
            .unwrap_or_default();
        let remote: Vec<NodeId> = members.into_iter().filter(|&m| m != holder).collect();
        if remote.is_empty() {
            return;
        }
        let wire: usize = batch.iter().map(|u| u.op.wire_size()).sum();
        let outcome = broadcast_round(&self.net, holder, remote, wire, 16, "update");
        self.server(holder).observe_round(&outcome);
        for (m, _) in &outcome.replies {
            if !self.server(*m).replicas.contains(&key) {
                continue;
            }
            if self.apply_updates_ordered(*m, key, &batch, false) > 0 {
                self.schedule_flush(*m, key.0);
            }
        }
        self.stats.incr("core/pipeline/batches");
        self.stats.add("core/pipeline/batched_updates", batch.len() as u64);
        // The drain-batch distribution is the batching window's
        // effectiveness signal: always-on, unlike the stats above.
        self.obs.drain_batch.record(batch.len() as u64);
        self.emit_from(
            holder,
            ProtocolEvent::StreamDrained {
                seg: key.0,
                updates: batch.len(),
                group_size: outcome.replies.len(),
            },
        );
    }

    /// Routes a batch of sequenced updates through one replica's ordered
    /// delivery buffer and folds everything deliverable into the stored
    /// replica under a single read-modify-write — one clone, one put —
    /// regardless of batch size. Returns how many updates landed. Stale
    /// redeliveries (already embedded in the replica) are dropped by the
    /// receiver, so feeding the same update twice is harmless.
    pub(crate) fn apply_updates_ordered(
        &self,
        server: NodeId,
        key: (SegmentId, u64),
        updates: &[UpdateRecord],
        sync: bool,
    ) -> usize {
        let srv = self.server(server);
        if !srv.replicas.contains(&key) {
            return 0;
        }
        let mut deliverable: Vec<UpdateRecord> = Vec::new();
        for u in updates {
            let msg = deceit_isis::SequencedMsg { seq: u.new_version.sub, payload: u.clone() };
            deliverable.extend(srv.receive_ordered(key, msg).into_iter().map(|(_, d)| d));
        }
        if deliverable.is_empty() {
            return 0;
        }
        let Some(mut replica) = srv.replicas.get(&key) else {
            return 0;
        };
        for u in &deliverable {
            u.op.apply(&mut replica.data, &mut replica.params);
            replica.version = u.new_version;
        }
        replica.last_access = self.now();
        if sync {
            srv.replicas.put_sync(key, replica);
        } else {
            srv.replicas.put_async(key, replica);
        }
        deliverable.len()
    }

    /// Applies an update to a local replica, either write-through
    /// (durable, charged to the caller) or write-behind.
    pub(crate) fn apply_update_at(
        &self,
        server: NodeId,
        key: (SegmentId, u64),
        update: &UpdateRecord,
        sync: bool,
    ) {
        let Some(mut replica) = self.server(server).replicas.get(&key) else {
            return;
        };
        update.op.apply(&mut replica.data, &mut replica.params);
        replica.version = update.new_version;
        replica.last_access = self.now();
        if sync {
            self.server(server).replicas.put_sync(key, replica);
        } else {
            self.server(server).replicas.put_async(key, replica);
        }
    }

    /// Applies, synchronously and in order, every still-pending lazy
    /// update for one replica (used before a write-through apply so the
    /// identical-order guarantee of §3.3 holds on the safety path).
    pub(crate) fn drain_pending_applies(&self, server: NodeId, key: (SegmentId, u64)) {
        let slot = self.slot_of(key.0);
        let mut drained: Vec<UpdateRecord> = Vec::new();
        for ev in self.events.drain_matching(slot, |e| {
            matches!(e, Pending::ApplyUpdate { server: s, key: k, .. } if *s == server && *k == key)
        }) {
            if let Pending::ApplyUpdate { update, .. } = ev {
                drained.push(update);
            }
        }
        drained.sort_by_key(|u| u.new_version.sub);
        for upd in drained {
            let msg = deceit_isis::SequencedMsg { seq: upd.new_version.sub, payload: upd };
            let deliverable = self.server(server).receive_ordered(key, msg);
            for (_, u) in deliverable {
                self.apply_update_at(server, key, &u, true);
            }
        }
    }

    /// Schedules a disk write-back for a server's asynchronous writes.
    /// `seg` attributes the flush to the shard whose mutation caused it,
    /// so the deferred work drains under that file's locks.
    pub(crate) fn schedule_flush(&self, server: NodeId, seg: SegmentId) {
        let at = self.now() + self.cfg.flush_delay;
        self.events.push(at, Pending::FlushServer { server, seg });
    }
}
