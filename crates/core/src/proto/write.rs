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
//!
//! # The held-token write is one pass
//!
//! That one-round case — a stream of updates to a file whose token the
//! server already holds — is what the path is shaped around, and each of
//! its steps at one server is one visit to that server's slot
//! (`ServerState::visit`), one lock round. A write
//! looks at the records it owns at `via` — the token, the primary
//! replica, the stream state — *once*, in one visit (`WriteCtx`, read
//! by `Cluster::held_token`), and every decision before the
//! distribution — enabled, the §5.1 version check, the append cap, the
//! extra-replica test, the reply count — is taken from that reading.
//! Every record it then changes is changed where it lies: each safety
//! replica in its delivery visit, and at the holder the outbound buffer,
//! the primary replica, the read lease, the token's version pair and
//! the stream state in one visit, whose follow-up (drain, flushes,
//! events, the stability check) is done after it. Delivery to a replica —
//! safety lane and drained batch alike — is one visit
//! (`Cluster::apply_in_sequence`): an update that continues the
//! replica's history is applied in place; one that is already embedded
//! is dropped; only a gap — or an earlier gap's held-back arrival —
//! goes through the [`deceit_isis::OrderedReceiver`], whose sequence the
//! visit otherwise just advances. What is sent, in what order, with what
//! sizes, and which writes reach the disk synchronously are what they
//! were when each step cloned the record out and put it back.

use deceit_isis::{broadcast_round, GroupId};
use deceit_net::NodeId;
use deceit_sim::SimDuration;
use deceit_storage::Durability;

use crate::cluster::{Cluster, Held, OpResult, OpScope};
use crate::error::{DeceitError, DeceitResult};
use crate::event::Pending;
use crate::hot::Reach;
use crate::obs::Stat;
use crate::ops::{UpdateRecord, WriteOp};
use crate::params::FileParams;
use crate::server::{ReadLease, ReplicaKey, SegmentId, ServerSlot};
use crate::trace_events::ProtocolEvent;
use crate::version::VersionPair;

/// Delay before a server flushes asynchronously written local state.
const FLUSH_DELAY: SimDuration = SimDuration::from_millis(30);

/// What a write needs to know about the file it is about to update: the
/// token record, the primary replica and the stream state at the writing
/// server, read once, in one visit to its slot, before anything is
/// changed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteCtx {
    /// The replica key the token governs.
    pub key: ReplicaKey,
    /// The file group as the write located it, if it did.
    pub group: Option<GroupId>,
    /// The token's version pair — the authoritative one (§3.5).
    pub version: VersionPair,
    /// Whether the token is enabled (§4, availability "medium").
    pub enabled: bool,
    /// Size of the token's holder set: the §3.1 upper bound on replicas.
    pub holders: usize,
    /// Holders other than the writing server it can reach.
    pub remote_reachable: usize,
    /// Whether it can reach every holder.
    pub all_reachable: bool,
    /// The file's parameters, as stored with the primary replica.
    pub params: FileParams,
    /// Length of the primary replica's contents.
    pub len: usize,
    /// Whether the group is already marked unstable for the current
    /// write stream (§3.4).
    pub marked_unstable: bool,
}

impl WriteCtx {
    /// What a write via `via` finds of `key` in `via`'s slot: the token
    /// `via` holds — `None` if it holds none — its primary replica (the
    /// defaults stand if it holds no copy; callers only get here when a
    /// local replica exists) and its stream state. Reachability is read
    /// here, under the slot lock, through the network's [`Reach`] view,
    /// which takes no lock.
    pub(crate) fn read(
        s: &ServerSlot,
        net: Reach<'_>,
        via: NodeId,
        key: ReplicaKey,
        group: Option<GroupId>,
    ) -> Option<Self> {
        let t = s.tokens.disk().get(&key)?;
        let mut ctx = WriteCtx {
            key,
            group,
            version: t.version,
            enabled: t.enabled,
            holders: t.holders.len(),
            remote_reachable: 0,
            all_reachable: true,
            params: FileParams::default(),
            len: 0,
            marked_unstable: s.streams.get(&key).is_some_and(|st| st.group_unstable),
        };
        for &h in &t.holders {
            let reachable = net.reachable(via, h);
            ctx.all_reachable &= reachable;
            ctx.remote_reachable += usize::from(reachable && h != via);
        }
        if let Some(r) = s.replicas.disk().get(&key) {
            (ctx.params, ctx.len) = (r.params, r.data.len());
        }
        Some(ctx)
    }
}

/// What the holder's end of a write did, for the caller to follow up on
/// after the visit, in the order the steps would have taken one by one.
struct HolderEnd {
    /// The update opened the stream's outbound buffer: a drain is due.
    propagate: bool,
    /// The update opened the read lease (rather than advancing it).
    lease_opened: bool,
    /// Whether the token was still there to advance.
    has_token: bool,
    /// The stream's epoch after the write, and whether its stabilize
    /// check is to be armed; `None` without §3.4 stability or a token.
    stabilize: Option<(u64, bool)>,
}

/// What distributing one update yielded.
struct Distributed {
    /// When the last of the safety-path remote replies is in hand: the
    /// `write_safety - 1`-th correct one, or the last there was.
    safety_wait: SimDuration,
    /// The §3.1 reply count: the holder plus the remote replica holders
    /// heard from (pipelined: reachable).
    replies: usize,
    /// Remote members of the file group.
    group_size: usize,
    /// Whether the update is to be buffered for the batch lane (the
    /// pipeline, with a group to ship it to).
    buffer: bool,
}

/// What one visit to a replica did with a run of updates.
#[derive(Debug, Default)]
pub(crate) struct InSequence {
    /// Updates applied.
    landed: usize,
    /// Leading updates dealt with — applied, or dropped as already
    /// embedded; the rest are out of sequence.
    consumed: usize,
    /// The replica's version pair after the visit; `None` if the visit
    /// was left to the ordered receiver.
    version: Option<VersionPair>,
}

/// Where [`Cluster::route_update`] applies an update.
pub(crate) enum Route {
    /// Forwarded to this token holder, at this cost: the search time
    /// spent resolving the file and the `forward` exchange.
    Holder(NodeId, SimDuration),
    /// At the server it arrived at — with what `resolve_key` found of the
    /// file on the way, if the gate got that far.
    Here(Option<(ReplicaKey, Option<GroupId>, SimDuration)>),
}

fn reach(sync: bool) -> Durability {
    if sync {
        Durability::Sync
    } else {
        Durability::Async
    }
}

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
        self.write_scoped(Held(OpScope::Global), via, seg, op, expected)
    }

    /// [`Cluster::write`] under the ring locks of `slots`.
    pub fn write_sharded(
        &self,
        slots: &[usize],
        via: NodeId,
        seg: SegmentId,
        op: WriteOp,
        expected: Option<VersionPair>,
    ) -> DeceitResult<OpResult<VersionPair>> {
        self.write_scoped(Held::slots(slots), via, seg, op, expected)
    }

    /// [`Cluster::write`] within what the caller holds, which must cover
    /// `seg`'s slot.
    pub fn write_scoped(
        &self,
        held: Held<'_>,
        via: NodeId,
        seg: SegmentId,
        op: WriteOp,
        expected: Option<VersionPair>,
    ) -> DeceitResult<OpResult<VersionPair>> {
        debug_assert!(held.covers(self.slot_of(seg)), "ring locks must cover the written file");
        self.client_op_scoped(via, held.0, |c| c.do_write(via, seg, op, expected))
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

        // Table 1 row 1: precondition "token is not held" → acquire token.
        // The held-token visit comes first: a stream of writes at the
        // holder pays nothing for what a miss does. What comes back is the
        // one reading of the token and the primary replica everything
        // below decides from.
        let (mut ctx, mut latency) = match self.held_token(via, seg) {
            Some(held) => self.check_token_enabled(via, held)?,
            None => {
                // §3.3 optimization 2, decided where every write path
                // decides it. The search time spent resolving the key is
                // the write's either way.
                let resolved = match self.route_update(via, seg, op.wire_size())? {
                    Route::Holder(holder, forward) => {
                        let (v, inner) = self.do_write(holder, seg, op, expected)?;
                        return Ok((v, forward + inner));
                    }
                    Route::Here(Some(resolved)) => resolved,
                    Route::Here(None) => self.resolve_key(via, seg, None)?,
                };
                let piggyback = self.cfg.opt_piggyback_acquire;
                self.acquire_token_for_write(via, seg, resolved, piggyback)?
            }
        };
        let (key, params) = (ctx.key, ctx.params);

        // Conditional write check against the authoritative (token)
        // version pair.
        if let Some(exp) = expected {
            if ctx.version != exp {
                self.obs.bump(Stat::OccConflicts);
                return Err(DeceitError::VersionConflict {
                    segment: seg,
                    expected: exp,
                    actual: ctx.version,
                });
            }
        }

        // Only an append's size depends on what is already there: judged
        // against the primary copy, like the version check above — nothing
        // but the token's place has changed so far.
        if matches!(op, WriteOp::Append(_)) && op.resulting_len(ctx.len).is_none() {
            return Err(DeceitError::SegmentTooBig(seg));
        }

        // Table 1 row 2: "replicas are not marked as unstable" → mark
        // replicas as unstable (§3.4), once per write stream.
        if params.stability && !ctx.marked_unstable {
            latency += self.mark_unstable_round(via, key);
        }

        // §3.1: "The token holder t will delete these extra replicas when
        // an update occurs instead of updating them." The token's holder
        // set is the §3.1 upper bound on the replica count; when it does
        // not exceed the minimum level there is nothing extra to find,
        // and the reachability scan is skipped. A deletion rewrites the
        // holder set, so the token is read again after one — the advance
        // at the end of this function can then never resurrect a
        // just-deleted victim, and the reply count sees the set as it is.
        if ctx.holders > params.min_replicas {
            self.delete_extra_replicas(via, key);
            ctx = self
                .write_context(via, key, ctx.group)
                .ok_or(DeceitError::WriteUnavailable(seg))?;
        }

        // Table 1 row 3: the distributed update itself.
        let new_version = ctx.version.bump();
        let wire_size = op.wire_size();
        let disk_cost = self.cfg.disk.write_cost(op.disk_size());
        let update = UpdateRecord { new_version, op };
        let now = self.now();
        let needed_remote = params.write_safety.saturating_sub(1);
        let sent = if self.cfg.opt_write_pipeline {
            self.distribute_pipelined(via, &ctx, &update, needed_remote, wire_size, disk_cost)
        } else {
            self.distribute_eager(via, key, &update, needed_remote, wire_size, disk_cost, now)
        };
        // The holder's end of the write, in one visit to its slot: buffer
        // the update for the batch lane, apply it to the primary replica,
        // publish the read lease, advance the token and note the write in
        // the stream state. What follows from each step — the drain and
        // flushes to schedule, the events to emit, the stability check
        // to arm — is done after the visit, in the order the steps would
        // have done it one by one.
        let sync_local = params.write_safety >= 1;
        let lease = self.cfg.opt_read_leases && params.stability;
        let medium = params.availability == crate::params::WriteAvailability::Medium;
        let end = self.server(via).visit(seg, move |s| {
            let propagate = sent.buffer && {
                let stream = s.outbound.entry(key).or_default();
                stream.updates.push(update.clone());
                !std::mem::replace(&mut stream.scheduled, true)
            };
            // Apply locally at the token holder (the primary replica).
            s.replicas.update_with(&key, |replica| {
                update.op.apply(&mut replica.data, &mut replica.params);
                replica.version = new_version;
                replica.last_access = now;
                ((), Some(reach(sync_local)))
            });
            // Publish (or advance) the holder-local read lease: the
            // replica now embeds everything through `new_version`, which
            // is exactly the acked durable prefix once this write
            // returns. Granted in the apply's visit, so a leased reader
            // sees both or neither. Only streams under §3.4 stability
            // need it: without stability the holder's replica stays
            // stable and the ordinary fast path serves it.
            let lease_opened =
                lease && s.leases.insert(key, ReadLease { version: new_version }).is_none();
            // Advance the token's version pair, in place — folding in
            // the availability check so the token hits storage once.
            // §3.5: "Some of a server's non-volatile storage is updated
            // immediately when values change, and some of it is written
            // asynchronously, depending on safety" — at safety ≥ 1 the
            // token must hit disk with the data, or a crash would leave
            // recovery believing stale replicas current. Availability
            // "medium": disable the token if the majority was lost
            // mid-stream (§4: "write availability may be lost in the
            // middle of a stream of updates").
            let has_token = s
                .tokens
                .update_with(&key, |t| {
                    t.version = new_version;
                    let lost =
                        medium && t.enabled && sent.replies < t.majority(params.min_replicas);
                    t.enabled &= !lost;
                    ((), Some(reach(sync_local)))
                })
                .is_some();
            // Table 1 row 6 setup: note the write for the
            // period-of-no-write-activity check that will mark replicas
            // stable again (§3.4). One check stays pending per stream; a
            // stale firing re-arms itself to the newest quiet horizon, so
            // a stream of N writes queues O(1) checks, not N.
            let stabilize = (has_token && params.stability).then(|| {
                let stream = s.streams.entry(key).or_default();
                stream.last_write = now;
                stream.epoch += 1;
                (stream.epoch, !std::mem::replace(&mut stream.check_scheduled, true))
            });
            HolderEnd { propagate, lease_opened, has_token, stabilize }
        });
        if end.propagate {
            let at = self.now() + self.cfg.lazy_apply_delay;
            self.events.push(at, Pending::PropagateStream { holder: via, key });
        }
        self.emit_from(
            via,
            ProtocolEvent::UpdateDistributed {
                seg,
                sub: new_version.sub,
                group_size: sent.group_size,
            },
        );
        // §3.5's asynchronous write-back, scheduled once and before the
        // token check below: a refused write may already have rewritten
        // the holder's replica.
        if !sync_local {
            self.schedule_flush(via, key.0);
        }
        // Flight-record the opening of the lock-free window, not every
        // per-write refresh — a stream would otherwise flood the ring
        // with one grant per update.
        if end.lease_opened {
            self.emit_from(via, ProtocolEvent::LeaseGranted { seg, on: via });
        }
        // A token gone since it was read (it cannot be, under the file's
        // ring lock) refuses the write rather than killing the server.
        if !end.has_token {
            return Err(DeceitError::WriteUnavailable(seg));
        }

        // Table 1 row 4: count update replies; §3.1 method 1 — if the
        // number of correct replies drops below the minimum replica level,
        // create new replicas.
        self.emit_from(
            via,
            ProtocolEvent::RepliesCounted {
                seg,
                replies: sent.replies,
                needed: params.min_replicas,
            },
        );
        if sent.replies < params.min_replicas {
            // Table 1 row 5: insufficient replicas → generate new replicas.
            self.schedule_min_replica_fill(via, key);
        }

        // Client-visible latency: the s-th correct reply (§3.3). The
        // holder's own durable apply is the first "reply"; each remote
        // reply costs its round trip.
        let net_wait = match params.write_safety {
            0 => SimDuration::ZERO,
            1 => disk_cost,
            _ => disk_cost.max(sent.safety_wait),
        };
        latency += net_wait;

        if let Some((epoch, true)) = end.stabilize {
            self.events.push(
                now + self.cfg.stability_timeout,
                Pending::StabilizeCheck { server: via, key, epoch },
            );
        }

        Ok((new_version, latency))
    }

    /// §3.3 optimization 2 (`ClusterConfig::opt_forward_small`): where an
    /// update of `size` bytes via `via` to `seg` applies. The gate:
    /// forwarding on, the update no larger than
    /// `ClusterConfig::forward_small_threshold`, `via` up and holding a
    /// replica of the file but not its token, and a reachable token
    /// holder. Through it, the update is forwarded to that holder instead
    /// of moving the token: charged the search time spent resolving the
    /// file and one `forward` exchange carrying the update, and counted
    /// (`Stat::UpdatesForwarded`, `ProtocolEvent::UpdateForwarded`).
    /// Otherwise nothing is charged, and the update applies at `via`. A
    /// server without a replica takes the token, and with it a replica,
    /// so its reads can be served where its client is.
    ///
    /// `size` is what the forward carries: a core write's wire size, or
    /// for the NFS envelope, which decides before its read-modify-write
    /// loads anything ([`Cluster::forward_update`]), the edit it makes.
    pub(crate) fn route_update(
        &self,
        via: NodeId,
        seg: SegmentId,
        size: usize,
    ) -> DeceitResult<Route> {
        let gate = self.cfg.opt_forward_small && size <= self.cfg.forward_small_threshold;
        if !gate || via.index() >= self.servers.len() || !self.net.is_up(via) {
            return Ok(Route::Here(None));
        }
        let local = self.server(via).visit(seg, move |s| {
            let key = s.replicas.latest(seg)?;
            (!s.tokens.disk().contains(&key)).then_some(key)
        });
        let Some(local) = local else {
            return Ok(Route::Here(None));
        };
        let resolved = self.resolve_key(via, seg, None)?;
        // A newer major found elsewhere is one `via` holds no replica of.
        let holder =
            (resolved.0 == local).then(|| self.find_reachable_token_holder(via, local)).flatten();
        let Some(holder) = holder else {
            return Ok(Route::Here(Some(resolved)));
        };
        let rtt = self.round_trip(via, holder, size, 24)?;
        self.obs.bump(Stat::UpdatesForwarded);
        self.emit_from(via, ProtocolEvent::UpdateForwarded { seg, from: via, to: holder });
        Ok(Route::Holder(holder, resolved.2 + rtt))
    }

    /// §3.3 optimization 2 — the forward decision a write makes after
    /// missing the held-token visit, with the same gate, charge and
    /// counters — for a mutation that has loaded nothing yet, within what
    /// the caller holds, which must cover `seg`'s slot. Returns the token
    /// holder when the update of `size` bytes via `via` is forwarded
    /// there, the forward charged to the clock; the mutation then loads
    /// the holder's primary copy and writes via the holder, where the
    /// write takes the held-token path. `None` charges nothing: the
    /// mutation runs at `via`.
    pub fn forward_update(
        &self,
        held: Held<'_>,
        via: NodeId,
        seg: SegmentId,
        size: usize,
    ) -> DeceitResult<Option<OpResult<NodeId>>> {
        debug_assert!(held.covers(self.slot_of(seg)), "ring locks must cover the written file");
        let Route::Holder(holder, latency) = self.route_update(via, seg, size)? else {
            return Ok(None);
        };
        self.clock_add(latency);
        Ok(Some(OpResult { value: holder, latency }))
    }

    /// The paper prototype's eager distribution: one broadcast round to
    /// the whole file group per update, with write-through application at
    /// the safety-path replicas and a deferred `ApplyUpdate` per
    /// write-behind replica. The §3.1 reply count is self + remote
    /// repliers holding replicas.
    #[expect(
        clippy::too_many_arguments,
        reason = "one broadcast round's inputs, computed by the caller"
    )]
    fn distribute_eager(
        &self,
        via: NodeId,
        key: ReplicaKey,
        update: &UpdateRecord,
        needed_remote: usize,
        wire_size: usize,
        remote_disk: SimDuration,
        now: deceit_sim::SimTime,
    ) -> Distributed {
        let members: Vec<NodeId> =
            self.group_members(key.0).map(|(_, m)| m).unwrap_or_else(|| vec![via]);
        let remote: Vec<NodeId> = members.into_iter().filter(|&m| m != via).collect();
        let group_size = remote.len();
        let outcome = broadcast_round(&self.net, via, remote, wire_size, 16, "update");
        self.server(via).observe_round(&outcome);

        // Schedule write-behind application at every replica holder that
        // acknowledged receipt. Their acks are receipt, not application
        // (§1: an update can be visible before it reaches all replicas) —
        // application lands after the lazy-apply delay.
        let mut sent =
            Distributed { safety_wait: SimDuration::ZERO, replies: 1, group_size, buffer: false };
        let mut correct = 0;
        for (m, rtt) in outcome.replies.iter() {
            if self.replica_version(*m, key).is_none() {
                continue;
            }
            if correct < needed_remote {
                // Safety-path replica: its reply means "applied durably",
                // so it writes through before answering (reply time
                // includes its disk write), after catching up on any
                // still-lazy earlier updates to keep the order identical.
                // A replica that cannot be brought current (even by
                // state transfer) is not a correct reply and the next
                // replier takes its safety slot — §3.3 collects the
                // first s *correct* replies.
                self.drain_pending_applies(*m, key);
                if !self.deliver_safety_copy(via, *m, key, update) {
                    continue;
                }
                sent.safety_wait = *rtt + remote_disk;
            } else {
                // Write-behind replica: acked receipt, applies after the
                // lazy delay (§1's asynchronous update propagation).
                let apply_at = now + *rtt / 2 + self.cfg.lazy_apply_delay;
                self.events.push(
                    apply_at,
                    Pending::ApplyUpdate { server: *m, key, update: update.clone() },
                );
            }
            correct += 1;
        }
        sent.replies += correct;
        sent
    }

    /// The asynchronous write pipeline's distribution
    /// (`ClusterConfig::opt_write_pipeline`): write-through at exactly
    /// the `write_safety - 1` remote replicas the safety level requires,
    /// then append the update to the file's outbound stream. One queued
    /// [`Pending::PropagateStream`] per stream ships everything buffered
    /// since the last drain in a single group broadcast — consecutive
    /// updates to the same replica ride one message.
    ///
    /// Unlike the eager path, no round runs on the common (safety ≤ 1)
    /// path, so the reply count substitutes reachability over the token's
    /// holder set (read with the token, in `ctx`) — the §3.1 upper bound
    /// the holder maintains; those are exactly the servers the eager
    /// broadcast would have heard from.
    fn distribute_pipelined(
        &self,
        via: NodeId,
        ctx: &WriteCtx,
        update: &UpdateRecord,
        needed_remote: usize,
        wire_size: usize,
        remote_disk: SimDuration,
    ) -> Distributed {
        let key = ctx.key;
        // The group as the write located it (else the location cache) —
        // no name formatting, no member-list allocation: its size, and the
        // safety lane's round, are taken off the member set in place.
        //
        // Safety lane (§3.3: "the token holder synchronously collects
        // only the first s correct replies"): one round to the first
        // `needed_remote` reachable replica holders of the group; each
        // then catches up on any still-buffered earlier updates, so the
        // identical-order guarantee holds on the safety path.
        let on_lane = |m: &NodeId| {
            *m != via && self.net.reachable(via, *m) && self.replica_version(*m, key).is_some()
        };
        let (group_size, round) = ctx
            .group
            .or_else(|| self.cached_group(via, key.0))
            .and_then(|g| {
                self.groups.with_members(g, |members| {
                    let round = (needed_remote > 0).then(|| {
                        let targets = members.iter().copied().filter(on_lane).take(needed_remote);
                        broadcast_round(&self.net, via, targets, wire_size, 16, "update")
                    });
                    (members.len().saturating_sub(1), round)
                })
            })
            .unwrap_or((0, None));
        let mut safety_wait = SimDuration::ZERO;
        if let Some(outcome) = round {
            self.server(via).observe_round(&outcome);
            for (m, rtt) in outcome.replies.iter() {
                if self.deliver_safety_copy(via, *m, key, update) {
                    safety_wait = *rtt + remote_disk;
                }
            }
        }

        // Batch lane: the rest of the group gets the update from the
        // holder's outbound buffer (filled in the holder's end of the
        // write). Members already served by the safety lane drop the
        // redelivery in their ordered receivers, so the stream stays one
        // linear history.
        Distributed {
            safety_wait,
            replies: 1 + ctx.remote_reachable,
            group_size,
            buffer: group_size > 0,
        }
    }

    /// Write-through delivery for the safety lane. A target exactly one
    /// update behind and holding nothing back — what a healthy stream
    /// finds — takes `update` in one visit. Otherwise the target is
    /// caught up from the holder's outbound backlog first, and — if a
    /// sequence gap left it behind (it missed a drain whose updates no
    /// longer exist as messages) — regenerated from the holder's replica
    /// by state transfer (§3.1), and `update` re-delivered.
    ///
    /// Returns whether the replica is durably current through `update`;
    /// only then may it be counted as one of §3.3's "first s correct
    /// replies" — acking a write at safety `s` on a reply whose copy is
    /// actually stale would silently void the durability contract.
    fn deliver_safety_copy(
        &self,
        holder: NodeId,
        target: NodeId,
        key: ReplicaKey,
        update: &UpdateRecord,
    ) -> bool {
        let new_version = update.new_version;
        let update = std::slice::from_ref(update);
        if self.cfg.danger_skip_safety_currency {
            // Auditor mutation knob: count the reply blindly. A target
            // that rejoined with a sequence gap holds `update` in its
            // ordered receiver forever, so the "durable" copy is stale —
            // the exact defect `core::audit` exists to catch.
            self.apply_updates_ordered(target, key, update, true);
            return true;
        }
        let seen = self.apply_in_sequence(target, key, update, true);
        if seen.is_some_and(|seen| seen.version == Some(new_version)) {
            return true;
        }
        // Behind by more than this update, or holding something back
        // (neither visit above changed anything, then).
        self.catch_up_from_outbound(holder, target, key);
        self.apply_updates_ordered(target, key, update, true);
        let stored = |c: &Self| c.replica_version(target, key) == Some(new_version);
        if stored(self) {
            return true;
        }
        // Sequence gap: the missing prefix of the stream no longer
        // exists as messages, so regenerate from the primary. The
        // holder's replica embeds everything *before* this update (it
        // applies `update` after distribution), so a fresh receiver on
        // the transferred state delivers `update` cleanly on top.
        let src = self.server(holder).visit(key.0, move |s| s.replicas.disk().get(&key).cloned());
        let Some((fresh, _)) = src.and_then(|src| self.ship_replica(holder, target, src)) else {
            return false;
        };
        self.install_replica(target, key, fresh);
        self.apply_updates_ordered(target, key, update, true);
        self.obs.bump(Stat::SafetyTransfers);
        stored(self)
    }

    /// Delivers the still-buffered outbound updates `target` has not yet
    /// embedded, write-through — the safety lane's backlog catch-up.
    fn catch_up_from_outbound(&self, holder: NodeId, target: NodeId, key: ReplicaKey) {
        let Some(target_sub) = self.replica_version(target, key).map(|v| v.sub) else { return };
        let backlog: Vec<UpdateRecord> = self.server(holder).visit(key.0, move |s| {
            let updates = s.outbound.get(&key).map_or(&[][..], |st| &st.updates);
            updates.iter().filter(|u| u.new_version.sub > target_sub).cloned().collect()
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
    pub(crate) fn propagate_stream(&self, holder: NodeId, key: ReplicaKey) {
        if !self.net.is_up(holder) {
            return;
        }
        // The holder's side is one visit: take the batch, and read the
        // cached file group it goes to.
        let (batch, cached) = self.server(holder).visit(key.0, move |s| {
            let batch = s.outbound.get_mut(&key).map_or_else(Vec::new, |st| {
                st.scheduled = false;
                std::mem::take(&mut st.updates)
            });
            (batch, s.group_cache.get(&key.0).copied())
        });
        if batch.is_empty() {
            return;
        }
        let wire: usize = batch.iter().map(|u| u.op.wire_size()).sum();
        // A cached group that is gone is repaired as `cached_group` does.
        let group =
            cached.filter(|&g| self.groups.exists(g)).or_else(|| self.cached_group(holder, key.0));
        // One round to the rest of the group, addressed off the member
        // set in place (`None`: no group, or nobody else in it).
        let outcome = group.and_then(|g| {
            self.groups.with_members(g, |members| {
                let remote = members.iter().copied().filter(|&m| m != holder);
                (members.len() > usize::from(members.contains(&holder)))
                    .then(|| broadcast_round(&self.net, holder, remote, wire, 16, "update"))
            })
        });
        let Some(outcome) = outcome.flatten() else {
            return;
        };
        self.server(holder).observe_round(&outcome);
        for (m, _) in outcome.replies.iter() {
            if self.apply_updates_ordered(*m, key, &batch, false) > 0 {
                self.schedule_flush(*m, key.0);
            }
        }
        self.obs.bump(Stat::PipelineBatches);
        self.obs.add(Stat::PipelineBatchedUpdates, batch.len() as u64);
        // The drain-batch distribution is the batching window's
        // effectiveness signal.
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

    /// One visit to the replica of `key` at `server`, under its slot
    /// lock: the leading updates of `updates` that are next in the
    /// replica's delivery sequence are applied where the replica lies and
    /// written once; those the sequence is already past (a redelivery)
    /// are dropped; the visit stops at the first gap. `None` if there is
    /// no replica here. The sequence is the ordered receiver's: the visit
    /// is made only while that holds nothing back — otherwise every
    /// arrival is its to judge, and nothing is done here — and whatever
    /// the visit delivers, the receiver is advanced past (a replica
    /// without a receiver gets the one its first arrival always gave it,
    /// expecting the update after its stored subversion).
    fn apply_in_sequence(
        &self,
        server: NodeId,
        key: ReplicaKey,
        updates: &[UpdateRecord],
        sync: bool,
    ) -> Option<InSequence> {
        let now = self.now();
        self.server(server).visit_with(key.0, updates, move |s, updates| {
            // `Some(next)`: a receiver expecting `next`; `None`: none yet.
            let expecting = match s.receivers.get(&key).map(|r| (r.held_count(), r.next_expected()))
            {
                Some((0, next)) => Some(next),
                Some(_) => return s.replicas.disk().contains(&key).then(InSequence::default),
                None => None,
            };
            let ((seen, start), _) = s.replicas.update_with(&key, |replica| {
                let start = replica.version.sub + 1;
                let mut next = expecting.unwrap_or(start);
                let mut seen = InSequence::default();
                for u in updates {
                    if u.new_version.sub > next {
                        break;
                    }
                    seen.consumed += 1;
                    if u.new_version.sub == next {
                        u.op.apply(&mut replica.data, &mut replica.params);
                        replica.version = u.new_version;
                        seen.landed += 1;
                        next += 1;
                    }
                }
                seen.version = Some(replica.version);
                let written = seen.landed > 0;
                if written {
                    replica.last_access = now;
                }
                ((seen, start), written.then(|| reach(sync)))
            })?;
            if seen.landed > 0 || expecting.is_none() {
                s.receivers
                    .entry(key)
                    .or_insert_with(|| deceit_isis::OrderedReceiver::starting_at(start))
                    .delivered_directly(seen.landed as u64);
            }
            Some(seen)
        })
    }

    /// Delivers a batch of sequenced updates to one replica and folds
    /// everything deliverable into the stored replica under a single
    /// read-modify-write — one put — regardless of batch size. In
    /// sequence, that is one visit ([`Cluster::apply_in_sequence`]); what
    /// is left after a gap goes through the replica's ordered-delivery
    /// buffer. Returns how many updates landed. Stale redeliveries
    /// (already embedded in the replica) are dropped, so feeding the same
    /// update twice is harmless.
    pub(crate) fn apply_updates_ordered(
        &self,
        server: NodeId,
        key: ReplicaKey,
        updates: &[UpdateRecord],
        sync: bool,
    ) -> usize {
        let Some(seen) = self.apply_in_sequence(server, key, updates, sync) else {
            return 0;
        };
        let rest = &updates[seen.consumed..];
        if rest.is_empty() {
            return seen.landed;
        }
        let srv = self.server(server);
        let mut deliverable: Vec<UpdateRecord> = Vec::new();
        for u in rest {
            let msg = deceit_isis::SequencedMsg { seq: u.new_version.sub, payload: u.clone() };
            deliverable.extend(srv.receive_ordered(key, msg).into_iter().map(|(_, d)| d));
        }
        if deliverable.is_empty() {
            return seen.landed;
        }
        let now = self.now();
        let landed = srv.visit(key.0, move |s| {
            s.replicas.update_with(&key, |replica| {
                for u in &deliverable {
                    u.op.apply(&mut replica.data, &mut replica.params);
                    replica.version = u.new_version;
                }
                replica.last_access = now;
                (deliverable.len(), Some(reach(sync)))
            })
        });
        seen.landed + landed.map_or(0, |(n, _)| n)
    }

    /// Applies, synchronously and in order, every still-pending lazy
    /// update for one replica (used before a write-through apply so the
    /// identical-order guarantee of §3.3 holds on the safety path).
    pub(crate) fn drain_pending_applies(&self, server: NodeId, key: ReplicaKey) {
        let slot = self.slot_of(key.0);
        let mut drained: Vec<UpdateRecord> = Vec::new();
        for ev in self.events.drain_matching(slot, move |e| {
            matches!(e, Pending::ApplyUpdate { server: s, key: k, .. } if *s == server && *k == key)
        }) {
            if let Pending::ApplyUpdate { update, .. } = ev {
                drained.push(update);
            }
        }
        drained.sort_by_key(|u| u.new_version.sub);
        self.apply_updates_ordered(server, key, &drained, true);
    }

    /// Schedules a disk write-back for a server's asynchronous writes.
    /// `seg` attributes the flush to the shard whose mutation caused it,
    /// so the deferred work drains under that file's locks.
    pub(crate) fn schedule_flush(&self, server: NodeId, seg: SegmentId) {
        let at = self.now() + FLUSH_DELAY;
        self.events.push(at, Pending::FlushServer { server, seg });
    }
}
