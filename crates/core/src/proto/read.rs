//! Reads: local service, forwarding, and the stable-replica search.
//!
//! §2.1: "If a client request arrives for a file at a server which does
//! not have that file, the request is automatically forwarded to a server
//! that has the file. The reply is propagated backwards along the same
//! path." §3.4: while a file is unstable, "all file reads and inquiries
//! are forwarded to the token holder." §3.6 defines the recovery read
//! path when the token holder is unreachable.

use std::sync::atomic;

use deceit_isis::broadcast_round;
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::cluster::{Cluster, Held, OpResult, OpScope};
use crate::error::{DeceitError, DeceitResult};
use crate::event::Pending;
use crate::obs::Stat;
use crate::ops::ReadData;
use crate::replica::ReplicaState;
use crate::server::{ReplicaKey, SegmentId};
use crate::trace_events::ProtocolEvent;
use crate::version::VersionRelation;

/// Materializes one served read from a replica borrow — the single
/// hand-out every local read path shares, so the shape of a served read
/// (shared image, requested range, version, serving node) cannot drift
/// between the fast paths and the full path.
fn copy_out(
    r: &crate::replica::Replica,
    served_by: NodeId,
    offset: usize,
    count: usize,
) -> ReadData {
    ReadData { image: r.data.clone(), offset, count, version: r.version, served_by }
}

impl Cluster {
    /// Reads `count` bytes at `offset` from a segment via server `via`.
    ///
    /// `major` selects an explicit version (the `foo;3` syntax of §3.5);
    /// `None` reads the most recent available version.
    pub fn read(
        &mut self,
        via: NodeId,
        seg: SegmentId,
        major: Option<u64>,
        offset: usize,
        count: usize,
    ) -> DeceitResult<OpResult<ReadData>> {
        self.read_scoped(Held(OpScope::Global), via, seg, major, offset, count)
    }

    /// [`Cluster::read`] within what the caller holds, which must cover
    /// `seg`'s slot: the full read protocol (forwarding, group joins,
    /// clock accounting included). The lock-free fast path is
    /// [`Cluster::try_read_local`].
    pub fn read_scoped(
        &self,
        held: Held<'_>,
        via: NodeId,
        seg: SegmentId,
        major: Option<u64>,
        offset: usize,
        count: usize,
    ) -> DeceitResult<OpResult<ReadData>> {
        debug_assert!(held.covers(self.slot_of(seg)), "ring locks must cover the read file");
        self.client_op_scoped(via, held.0, |c| c.do_read(via, seg, major, offset, count))
    }

    /// Attempts to serve a read with *shared* access only — the hot path
    /// a concurrent host runs under its shared cell lock, in parallel
    /// with other readers.
    ///
    /// Succeeds when `via` is up, its replica of the requested version is
    /// current (no reachable server supersedes it), and one of three
    /// things answers: the replica itself, stable; `via`'s own read lease
    /// as the token holder mid-stream; or — `via`'s replica unstable, so
    /// §3.4 forwards the read to the token holder — the first reachable
    /// holder's read lease. A local answer skips the full path's
    /// bookkeeping (clock advance, stats), none of which affects the
    /// served bytes; the forward is charged as the full path charges it,
    /// bar the deferred work that path fires (see `try_read_leased`).
    /// Every other case — the §2.1 forward from a server with no replica,
    /// which joins the file group, and the §3.6 stable-replica search —
    /// returns `None`, having charged nothing, so the caller falls back
    /// to the canonical [`Cluster::read`].
    pub fn try_read_local(
        &self,
        via: NodeId,
        seg: SegmentId,
        major: Option<u64>,
        offset: usize,
        count: usize,
    ) -> Option<OpResult<ReadData>> {
        if via.index() >= self.servers.len() || !self.net.is_up(via) {
            return None;
        }
        let srv = self.server(via);
        // One slot-lock acquisition covers the stability check, the
        // copy-out, *and* the LRU touch together: a concurrent mutation
        // is seen either entirely or not at all — never a torn replica —
        // and the access lands in the touch buffer (folded into
        // `last_access` at the next engine entry covering this slot, so
        // a hot, concurrently-read replica does not look idle to §3.1
        // extra-replica deletion) without a second lock round.
        let stable =
            |r: &crate::replica::Replica| r.is_stable().then(|| copy_out(r, via, offset, count));
        let now = self.now();
        let (key, served) = match major {
            // A file that has only ever had one major: the newest one
            // stored here is current, and finding it is part of the
            // same slot visit.
            None if self.single_major(seg) => srv.visit(seg, |s| {
                let key = s.replicas.latest(seg)?;
                Some((key, s.replicas.served(key, now, stable)))
            })?,
            major => {
                let key = (seg, major.or_else(|| self.local_current_major(via, seg))?);
                (key, srv.visit(seg, |s| s.replicas.served(key, now, stable)))
            }
        };
        if let Some(served) = served {
            return Some(OpResult { value: served, latency: self.cfg.local_read });
        }
        // Unstable (or no) local replica: §3.4 forwards the read to the
        // token holder, whose read lease may answer — `via`'s own when it
        // is the holder, else the one its unstable replica forwards to.
        if !self.cfg.opt_read_leases {
            return None;
        }
        self.try_read_leased(via, via, key, offset, count).or_else(|| {
            if !srv.visit(seg, |s| s.replicas.disk.get(&key).is_some_and(|r| !r.is_stable())) {
                return None; // no replica here: §2.1's forward, on the full path
            }
            let holder = self.find_reachable_token_holder(via, key).filter(|&h| h != via)?;
            self.try_read_leased(via, holder, key, offset, count)
        })
    }

    /// The lease half of the lock-free fast path
    /// (`ClusterConfig::opt_read_leases`): answers `reader`'s read from
    /// the token `holder`'s *unstable* replica mid-stream, at exactly the
    /// acked durable prefix named by the published [`crate::ReadLease`].
    /// §3.4 forwards every server's reads to the token holder while a
    /// file is unstable, and the holder answers directly — this is that
    /// answer, without ring locks: the holder's own read, or a forwarded
    /// one.
    ///
    /// Correctness rests on one visit to the holder's slot: the lease
    /// and the replica are read under the same slot lock, the replica
    /// must carry exactly the leased version, and every invalidation
    /// site removes the lease *before* the fact it asserts stops holding
    /// (token movement removes it before the token leaves, stabilize
    /// when the stream ends, a crash clears it with the rest of the
    /// slot's volatile state), while the write that advances the replica
    /// advances the lease in the same visit. So a lease seen beside a
    /// replica at its version means the token had not begun moving when
    /// the bytes were copied — the copy is the primary's acked prefix.
    /// Otherwise the caller falls back to the locked path. Nothing in
    /// the argument is the reader's own: it holds for another server's
    /// lease just as for `reader`'s, and the holder `reader` chose stays
    /// reachable throughout, since partitions and crashes take the
    /// exclusive cell lock a shared-lock caller excludes.
    ///
    /// A forwarded read is charged only once it is served, so a decline
    /// leaves nothing for the fallback to charge twice. The charge is the
    /// full path's ([`Cluster::forward_to_token_holder`]) but for the
    /// deferred work that path fires on entry and exit: one `forward`
    /// exchange, the read repair, the `ReadForwarded` event, the served
    /// count placement reads, and the clock advance.
    fn try_read_leased(
        &self,
        reader: NodeId,
        holder: NodeId,
        key: ReplicaKey,
        offset: usize,
        count: usize,
    ) -> Option<OpResult<ReadData>> {
        let now = self.now();
        let served = self.server(holder).visit(key.0, |s| {
            let lease = s.leases.get(&key)?;
            let r = s.replicas.disk.get(&key)?;
            // A stale lease the replica has moved past (a write advances
            // both in one visit, so nothing else): decline.
            if r.version != lease.version {
                return Some(None);
            }
            let served = copy_out(r, holder, offset, count);
            s.replicas.record_touch(key, now);
            Some(Some(served))
        })?;
        let Some(served) = served else {
            self.obs.bump(Stat::LeaseValidationFailures);
            return None;
        };
        let mut latency = self.cfg.local_read;
        if reader != holder {
            latency += self.round_trip(reader, holder, 32, count.min(8 * 1024)).ok()?;
            self.schedule_read_repair(reader, key);
            let ev = ProtocolEvent::ReadForwarded { seg: key.0, from: reader, to: holder };
            self.emit_from(reader, ev);
            self.server(reader).ops_served.fetch_add(1, atomic::Ordering::Relaxed);
            self.clock_add(latency);
        }
        Some(OpResult { value: served, latency })
    }

    /// The read lease `server` currently publishes for `key`, if any
    /// (diagnostics and tests; the serving path is
    /// [`Cluster::try_read_local`]).
    pub fn read_lease_version(
        &self,
        server: NodeId,
        key: ReplicaKey,
    ) -> Option<crate::version::VersionPair> {
        self.server(server).visit(key.0, |s| s.leases.get(&key).map(|l| l.version))
    }

    /// The newest major of `seg` stored at `via`, provided no reachable
    /// file-group member knows a newer one — the "is my copy current"
    /// probe both local fast paths share. The check covers exactly the
    /// set the §3.2 location search would cover (via the per-server
    /// group cache when warm); without group knowledge it conservatively
    /// scans every reachable server.
    fn local_current_major(&self, via: NodeId, seg: SegmentId) -> Option<u64> {
        let srv = self.server(via);
        let (local, cached) =
            srv.visit(seg, |s| (s.replicas.latest(seg), s.group_cache.get(&seg).copied()));
        let local = local?.1;
        // Single-major fast path: the membership scan below (a handful
        // of lock rounds per read on the lock-free path) is provably
        // redundant.
        if self.single_major(seg) {
            return Some(local);
        }
        let newer_than_local = |s: NodeId| {
            s != via
                && self.net.reachable(via, s)
                && self
                    .server(s)
                    .visit(seg, |s| s.replicas.latest(seg))
                    .is_some_and(|k| k.1 > local)
        };
        let gid = cached.or_else(|| self.groups.lookup(&crate::cluster::group_name(seg)));
        // Allocation-free membership scan: the predicate runs under the
        // group table's read lock and only touches leaf locks (network
        // reachability, replica slot locks), never the table itself.
        let superseded = match gid.and_then(|g| self.groups.any_member(g, newer_than_local)) {
            Some(superseded) => superseded,
            None => self.servers.iter().any(|s| newer_than_local(s.id)),
        };
        if superseded {
            None
        } else {
            Some(local)
        }
    }

    /// The token holder's lean read: if `via` holds the write token for
    /// the current version of `seg`, its replica is the primary copy and
    /// serves reads even while unstable (§3.4 forwards *other* servers'
    /// reads to the holder — the holder answers directly). For client
    /// reads the lock-free path declined, under the file's ring lock or,
    /// for a lookup's child, as one single-acquisition snapshot; the
    /// access is recorded for the LRU like any other read. `None` falls
    /// back to the full path.
    pub fn try_read_primary(
        &self,
        via: NodeId,
        seg: SegmentId,
        major: Option<u64>,
        offset: usize,
        count: usize,
    ) -> Option<OpResult<ReadData>> {
        self.read_primary(via, seg, major, offset, count, true)
    }

    /// The load half of a mutation's own read-modify-write, at the token
    /// holder under the file's ring lock: the whole primary copy, by
    /// reference. Unlike a client's read it records no access — the write
    /// it belongs to stamps `last_access` itself a moment later, and a
    /// recorded touch would only make that write's entry fold it first
    /// (a slot lock and a write-behind put on every server, per write, to
    /// store a time the apply then overwrites). `None` — `via` is not the
    /// holder — leaves the load to the read paths.
    pub fn load_primary(
        &self,
        via: NodeId,
        seg: SegmentId,
        major: Option<u64>,
    ) -> Option<OpResult<ReadData>> {
        self.read_primary(via, seg, major, 0, crate::MAX_SEGMENT, false)
    }

    fn read_primary(
        &self,
        via: NodeId,
        seg: SegmentId,
        major: Option<u64>,
        offset: usize,
        count: usize,
        touch: bool,
    ) -> Option<OpResult<ReadData>> {
        if via.index() >= self.servers.len() || !self.net.is_up(via) {
            return None;
        }
        // A file that has only ever had one major: the newest one stored
        // here is current, and finding it is part of the visit.
        let major = match major {
            None if self.single_major(seg) => None,
            None => Some(self.local_current_major(via, seg)?),
            major => major,
        };
        // The major, the token and the copy-out: one visit.
        let now = self.now();
        let served = self.server(via).visit(seg, |s| {
            let key = match major {
                Some(m) => (seg, m),
                None => s.replicas.latest(seg)?,
            };
            if !s.tokens.disk.contains(&key) {
                return None;
            }
            let served = copy_out(s.replicas.disk.get(&key)?, via, offset, count);
            if touch {
                s.replicas.record_touch(key, now);
            }
            Some(served)
        })?;
        Some(OpResult { value: served, latency: self.cfg.local_read })
    }

    fn do_read(
        &self,
        via: NodeId,
        seg: SegmentId,
        major: Option<u64>,
        offset: usize,
        count: usize,
    ) -> DeceitResult<(ReadData, SimDuration)> {
        let (key, _, mut latency) = self.resolve_key(via, seg, major)?;

        // One probe decides the local case: a `contains` check followed by
        // a separate state read would race a concurrent replica deletion
        // (LRU extra-replica deletion, recovery destruction) between the
        // two lookups. A vanished replica simply falls through to the
        // no-local-replica forwarding below.
        let local_state =
            self.server(via).visit(seg, |s| s.replicas.disk.get(&key).map(|r| r.state));
        match local_state {
            Some(ReplicaState::Stable) => {
                latency += self.cfg.local_read;
                let data = self
                    .serve_local(via, key, offset, count)
                    .ok_or(DeceitError::Unavailable(key.0))?;
                self.obs.bump(Stat::ReadsLocal);
                return Ok((data, latency));
            }
            Some(ReplicaState::Unstable) => {
                // Forward to the token holder (§3.4) — and, when enabled,
                // queue one targeted catch-up so a laggard the stabilize
                // horizon missed stops costing every read a forward.
                self.schedule_read_repair(via, key);
                return self.forward_to_token_holder(via, key, offset, count, latency);
            }
            None => {}
        }

        // No local replica: forward to a reachable replica holder (§2.1),
        // preferring a stable one.
        let holders = self.reachable_replica_holders(via, key);
        let target = holders
            .iter()
            .copied()
            .filter(|&h| h != via)
            .find(|&h| {
                self.server(h)
                    .visit(seg, |s| s.replicas.disk.get(&key).is_some_and(|r| r.is_stable()))
            })
            .or_else(|| holders.into_iter().find(|&h| h != via));
        let Some(target) = target else {
            return Err(DeceitError::Unavailable(seg));
        };

        // §3.1 method 4: migration — grow a local replica in the
        // background to speed future reads, whichever path serves this
        // request. Files param-marked `migration` migrate eagerly on the
        // first forwarded read; everything else feeds the always-on
        // access counters, and `opt_placement` grows the replica once
        // this server has demonstrably kept serving remote reads for the
        // file (due-gated, single-flighted — see `placement`).
        let params = self.params_of(target, key);
        if params.migration {
            let at = self.now() + SimDuration::from_millis(1);
            self.events.push(at, Pending::GenerateReplica { holder: target, key, target: via });
        } else {
            self.observe_remote_read(via, key);
        }

        // Forwarding servers join the file group and cache location
        // information (§3.2: the group includes servers that "cache only
        // timestamps or mode bits") — unless the file is in the §7
        // read-optimized mode, which keeps the reader population out of
        // the group so hot files do not inflate their update cost.
        if let Some((gid, _)) = self.group_members(seg) {
            if !params.read_optimized {
                self.ensure_member(gid, via);
            }
            self.server(via).visit(seg, |s| s.group_cache.insert(seg, gid));
        }

        // If the target's copy is unstable the chain continues to the
        // token holder from there — and the target is a repair candidate
        // for the same reason `via`'s own unstable replica is above.
        let target_unstable = self
            .server(target)
            .visit(seg, |s| s.replicas.disk.get(&key).is_some_and(|r| !r.is_stable()));
        if target_unstable {
            self.schedule_read_repair(target, key);
            return self.forward_to_token_holder(via, key, offset, count, latency);
        }

        let rtt = self.round_trip(via, target, 32, count.min(8 * 1024))?;
        latency += rtt + self.cfg.local_read;
        let data =
            self.serve_local(target, key, offset, count).ok_or(DeceitError::Unavailable(key.0))?;
        self.obs.bump(Stat::ReadsForwarded);
        self.emit_from(via, ProtocolEvent::ReadForwarded { seg, from: via, to: target });

        Ok((data, latency))
    }

    /// Forwards a read to the token holder of `key`; if no token holder is
    /// reachable, falls back to the stable-replica search of §3.6.
    fn forward_to_token_holder(
        &self,
        via: NodeId,
        key: ReplicaKey,
        offset: usize,
        count: usize,
        mut latency: SimDuration,
    ) -> DeceitResult<(ReadData, SimDuration)> {
        match self.find_reachable_token_holder(via, key) {
            Some(h) if h == via => {
                latency += self.cfg.local_read;
                let data = self
                    .serve_local(via, key, offset, count)
                    .ok_or(DeceitError::Unavailable(key.0))?;
                self.obs.bump(Stat::ReadsLocal);
                Ok((data, latency))
            }
            Some(h) => {
                let rtt = self.round_trip(via, h, 32, count.min(8 * 1024))?;
                latency += rtt + self.cfg.local_read;
                let data = self
                    .serve_local(h, key, offset, count)
                    .ok_or(DeceitError::Unavailable(key.0))?;
                self.obs.bump(Stat::ReadsForwardedUnstable);
                self.emit_from(via, ProtocolEvent::ReadForwarded { seg: key.0, from: via, to: h });
                Ok((data, latency))
            }
            None => self.stable_replica_search(via, key, offset, count, latency),
        }
    }

    /// §3.6 ("Stability Notification in the Presence of Failure"):
    /// "In order to respond to a read, s must locate a stable replica. s
    /// produces a stable replica by broadcasting to f's file group to
    /// determine the state of all available replicas. If there is a stable
    /// replica at server s', the operation is forwarded to s'. If no
    /// replica is marked as stable, s forces the most up to date replica
    /// to be stable, and all obsolete replicas are destroyed."
    fn stable_replica_search(
        &self,
        via: NodeId,
        key: ReplicaKey,
        offset: usize,
        count: usize,
        mut latency: SimDuration,
    ) -> DeceitResult<(ReadData, SimDuration)> {
        self.obs.bump(Stat::ReadsStableSearch);
        let members: Vec<NodeId> = self
            .group_members(key.0)
            .map(|(_, m)| m)
            .unwrap_or_else(|| self.all_replica_holders(key));
        let outcome = broadcast_round(&self.net, via, members, 40, 24, "state-inquiry");
        latency += outcome.full_latency();

        let state_at = |m: NodeId| {
            self.server(m)
                .visit(key.0, |s| s.replicas.disk.get(&key).map(|r| (m, r.version, r.state)))
        };
        let mut available: Vec<(NodeId, crate::version::VersionPair, ReplicaState)> =
            outcome.replies.iter().filter_map(|&(m, _)| state_at(m)).collect();
        if !outcome.heard_from(via) {
            available.extend(state_at(via));
        }
        if available.is_empty() {
            return Err(DeceitError::Unavailable(key.0));
        }

        let serve_from = if let Some((m, _, _)) =
            available.iter().find(|(_, _, st)| *st == ReplicaState::Stable)
        {
            *m
        } else {
            // Force the most up-to-date replica stable; destroy obsolete
            // ones. "Most up to date" is a history-tree judgment: where
            // majors diverge the branch table decides (a descendant
            // history embeds every update of its ancestor, whatever the
            // subversion counters say — an old-major replica with many
            // subversions must still lose to a newer-major descendant),
            // and only incomparable histories fall back to the highest
            // `(major, sub)` pair, never to subversion-first ordering.
            let table = self.branch_table_snapshot(key.0);
            // `available` was checked non-empty above, so `max_by` can
            // only miss if that invariant breaks — fail soft to the
            // same "nothing to serve" error rather than panic.
            let (best, best_version, _) = *available
                .iter()
                .max_by(|(_, va, _), (_, vb, _)| match table.relation(*va, *vb) {
                    VersionRelation::Ancestor => std::cmp::Ordering::Less,
                    VersionRelation::Descendant => std::cmp::Ordering::Greater,
                    VersionRelation::Equal => std::cmp::Ordering::Equal,
                    VersionRelation::Incomparable => (va.major, va.sub).cmp(&(vb.major, vb.sub)),
                })
                .ok_or(DeceitError::Unavailable(key.0))?;
            for (m, v, _) in &available {
                if *v == best_version {
                    // The winner — and every survivor already at the
                    // winning version. Marking only the winner would
                    // leave equal-version replicas unstable, sending the
                    // very next read through this forcing path again.
                    self.set_replica_state(*m, key, ReplicaState::Stable);
                } else {
                    // The canonical destruction path: lease removed
                    // *before* the replica it covers disappears, plus the
                    // outbound/repair cleanup a hand-rolled delete would
                    // miss.
                    self.destroy_replica(*m, key);
                    self.emit_from(*m, ProtocolEvent::ReplicaDeleted { seg: key.0, on: *m });
                    self.obs.bump(Stat::ReplicasDestroyedObsolete);
                }
            }
            best
        };

        if serve_from != via {
            let rtt = self.round_trip(via, serve_from, 32, count.min(8 * 1024))?;
            latency += rtt;
            self.emit_from(
                via,
                ProtocolEvent::ReadForwarded { seg: key.0, from: via, to: serve_from },
            );
        }
        latency += self.cfg.local_read;
        let data = self
            .serve_local(serve_from, key, offset, count)
            .ok_or(DeceitError::Unavailable(key.0))?;
        Ok((data, latency))
    }

    /// Queues one targeted catch-up for a lagging, unstable replica at
    /// `laggard` (`ClusterConfig::opt_read_repair`). Single-flighted per
    /// (server, file): the read that met the laggard forwards as usual,
    /// and one deferred repair makes the *next* reads local again —
    /// instead of every read forwarding until the next stabilize round
    /// happens to cover the laggard.
    pub(crate) fn schedule_read_repair(&self, laggard: NodeId, key: ReplicaKey) {
        if !self.cfg.opt_read_repair {
            return;
        }
        // The holder's replica is the primary: nothing to repair it from;
        // and a repair already in flight for this replica is enough.
        let armed = self
            .server(laggard)
            .visit(key.0, |s| !s.tokens.disk.contains(&key) && s.repairs.insert(key, ()).is_none());
        if !armed {
            return;
        }
        // Due-gated like a pipeline drain: the due time is a damping
        // window, not a validity condition — fired instantly, an active
        // stream would turn every forwarded read into a schedule/no-op
        // cycle on the pump.
        self.events.push(
            self.now() + self.cfg.lazy_apply_delay,
            Pending::ReadRepair { server: laggard, key },
        );
        self.obs.bump(Stat::RepairsScheduled);
    }

    /// The deferred read-repair handler: state-transfers `laggard` from
    /// the durable primary and marks it stable — one member's worth of
    /// the §3.4 stabilize round, on demand.
    ///
    /// The repair stands down (without rescheduling itself; the next
    /// forwarded read re-arms it) whenever the world moved on while it
    /// was queued: the laggard crashed, was destroyed, or became the
    /// holder; no token holder is reachable (token loss belongs to the
    /// §3.6 machinery); or the stream is still active — mid-stream the
    /// group is *deliberately* unstable, a catch-up would lag again by
    /// the next buffered update, and marking the laggard stable would
    /// let it skip the next mark-unstable round and serve stale reads.
    pub(crate) fn read_repair(&self, laggard: NodeId, key: ReplicaKey) {
        let up = self.net.is_up(laggard);
        let lag = self.server(laggard).visit(key.0, |s| {
            s.repairs.remove(&key);
            if !up || s.tokens.disk.contains(&key) {
                return None;
            }
            s.replicas.disk.get(&key).map(|r| (r.version, r.state))
        });
        let Some((lag_version, lag_state)) = lag else {
            return; // down, the holder, or destroyed while the repair was queued
        };
        let Some(holder) = self.find_reachable_token_holder(laggard, key) else {
            return;
        };
        // The holder's token version, unless its stream is still active.
        let token_version = self.server(holder).visit(key.0, |s| {
            let streaming = s.streams.get(&key).is_some_and(|st| st.group_unstable);
            s.tokens.disk.get(&key).filter(|_| !streaming).map(|t| t.version)
        });
        let Some(token_version) = token_version else {
            return; // streaming, or the token destroyed between the scan and the read
        };
        if lag_version == token_version {
            // Data already current — only the stable marker is missing
            // (a stabilize broadcast that never reached this member).
            if lag_state != ReplicaState::Stable {
                self.set_replica_state(laggard, key, ReplicaState::Stable);
                self.obs.bump(Stat::Repairs);
                self.emit_from(laggard, ProtocolEvent::ReadRepaired { seg: key.0, on: laggard });
            }
            return;
        }
        // Catch up from the primary, exactly as the stabilize round
        // catches up a lagging member (§3.4): whole-state transfer, then
        // stable. The primary must itself be settled at the token's
        // version — it always is outside a stream, but a token freshly
        // passed mid-recovery may not be; a later read re-arms us.
        let Some(src) = self.server(holder).visit(key.0, |s| s.replicas.disk.get(&key).cloned())
        else {
            return;
        };
        if src.version != token_version {
            return;
        }
        let blast = self.cfg.blast;
        if deceit_isis::xfer::transfer_state(
            &self.net,
            &blast,
            holder,
            laggard,
            src.data.len() as u64,
            "replica-xfer",
        )
        .duration()
        .is_none()
        {
            return; // unreachable after all; nothing changed
        }
        // `get` above already returned an owned copy of the primary's
        // replica: refresh its metadata in place rather than cloning the
        // whole segment a second time.
        let mut fresh = src;
        fresh.last_access = self.now();
        fresh.state = ReplicaState::Stable;
        self.server(laggard).visit(key.0, |s| {
            s.replicas.disk.put_sync(key, fresh);
            s.receivers.remove(&key);
        });
        self.obs.bump(Stat::Repairs);
        self.emit_from(laggard, ProtocolEvent::ReadRepaired { seg: key.0, on: laggard });
    }

    /// Serves a read from a server's local replica, updating its access
    /// time (LRU input). Returns `None` when the replica vanished since
    /// the caller's probe (LRU deletion, recovery destruction) — every
    /// caller treats that as the file being unavailable here, not a bug.
    pub(crate) fn serve_local(
        &self,
        server: NodeId,
        key: ReplicaKey,
        offset: usize,
        count: usize,
    ) -> Option<ReadData> {
        let now = self.now();
        // Copy the requested range out and record the LRU access-time
        // touch under one slot-lock acquisition; the touch goes through
        // the side buffer (the same mechanism the lock-free fast path
        // uses) and folds in at the next engine entry covering this slot
        // — no value clone, no forced metadata write.
        let serve = |r: &crate::replica::Replica| Some(copy_out(r, server, offset, count));
        self.server(server).visit(key.0, |s| s.replicas.served(key, now, serve))
    }

    /// One request/response exchange between two servers.
    pub(crate) fn round_trip(
        &self,
        from: NodeId,
        to: NodeId,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> DeceitResult<SimDuration> {
        self.net
            .exchange(from, to, req_bytes, resp_bytes, "forward")
            .latency()
            .ok_or(DeceitError::PeerUnreachable(to))
    }
}

/// Forced-stabilize replica selection (§3.6 regression coverage), on
/// replicas planted where they lie.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FileParams;
    use crate::replica::Replica;
    use crate::version::VersionPair;
    use crate::ClusterConfig;
    use deceit_sim::SimTime;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    /// Plants a replica with a hand-built version at one server (the §3.6
    /// "disastrous failure" states the forced-stabilize path must survive).
    fn plant(c: &Cluster, at: NodeId, key: ReplicaKey, version: VersionPair, data: &[u8]) {
        let mut r = Replica::new(version.major, FileParams::default(), SimTime::ZERO);
        r.version = version;
        r.state = ReplicaState::Unstable;
        r.data.append(data);
        c.server(at).visit(key.0, |s| s.replicas.disk.put_sync(key, r));
    }

    /// The state of the replica of `key` at `at`, if it holds one.
    fn state(c: &Cluster, at: NodeId, key: ReplicaKey) -> Option<ReplicaState> {
        c.server(at).visit(key.0, |s| s.replicas.disk.get(&key).map(|r| r.state))
    }

    /// The forced-stabilize winner is a history-tree judgment: an
    /// old-major replica with many subversions must lose to a newer-major
    /// *descendant* (which embeds every one of its updates), not win on
    /// raw subversion count — and the ancestor is the copy destroyed as
    /// obsolete.
    #[test]
    fn forced_stabilize_prefers_descendant_over_high_sub_ancestor() {
        let mut c = Cluster::new(3, ClusterConfig::deterministic());
        let seg = c.create(n(0)).unwrap().value;
        c.set_params(n(0), seg, FileParams { min_replicas: 3, ..FileParams::default() }).unwrap();
        c.run_until_quiet();
        let key = (seg, 0u64);

        // Server 1: the old-major history at subversion 9. Server 2: a
        // descendant that branched off it (major 2, subversion 1). The
        // branch table records the lineage, exactly as §3.5 requires.
        plant(&c, n(1), key, VersionPair { major: 0, sub: 9 }, b"high-sub ancestor");
        plant(&c, n(2), key, VersionPair { major: 2, sub: 1 }, b"descendant history");
        c.with_branch_table(seg, |t| t.record_branch(2, VersionPair { major: 0, sub: 9 }));

        // No reachable token holder: the read must force a stable replica.
        c.crash_server(n(0));
        let r = c.read(n(1), seg, Some(0), 0, 64).unwrap();
        assert_eq!(
            &r.value.data()[..],
            b"descendant history",
            "the descendant must win the forced stabilize, whatever the subversion counters say"
        );
        assert_eq!(c.obs.count(Stat::ReadsStableSearch), 1);
        assert_eq!(state(&c, n(2), key), Some(ReplicaState::Stable), "the winner is forced stable");
        assert!(
            state(&c, n(1), key).is_none(),
            "the obsolete ancestor must be destroyed, not crowned"
        );
        assert_eq!(c.obs.count(Stat::ReplicasDestroyedObsolete), 1);
    }

    /// Survivors whose version *equals* the winner's are marked stable
    /// too: the next read must serve locally instead of re-entering the
    /// forcing path (and paying its broadcast round) every time.
    #[test]
    fn forced_stabilize_marks_equal_version_survivors_stable() {
        let mut c = Cluster::new(3, ClusterConfig::deterministic());
        let seg = c.create(n(0)).unwrap().value;
        c.set_params(n(0), seg, FileParams { min_replicas: 3, ..FileParams::default() }).unwrap();
        c.write(n(0), seg, crate::ops::WriteOp::replace(b"settled"), None).unwrap();
        c.run_until_quiet();
        let key = (seg, 0u64);
        let version = c.replica_version(n(1), key).unwrap();

        // Both surviving replicas are current but unstable (a stream whose
        // holder died before the stabilize round).
        plant(&c, n(1), key, version, b"settled");
        plant(&c, n(2), key, version, b"settled");
        c.crash_server(n(0));

        let r = c.read(n(1), seg, Some(0), 0, 64).unwrap();
        assert_eq!(&r.value.data()[..], b"settled");
        assert_eq!(c.obs.count(Stat::ReadsStableSearch), 1);
        for s in [n(1), n(2)] {
            assert_eq!(
                state(&c, s, key),
                Some(ReplicaState::Stable),
                "every equal-version survivor must come out of the forcing path stable"
            );
        }

        // The next read — via either survivor — is local, no second search.
        let r = c.read(n(2), seg, Some(0), 0, 64).unwrap();
        assert_eq!(&r.value.data()[..], b"settled");
        assert_eq!(c.obs.count(Stat::ReadsStableSearch), 1, "one forcing round, not two");
    }
}
