//! The special user commands (§2.1).
//!
//! "Special commands are provided to list all versions of a file, locate
//! all replicas of a file, modify file parameters, reconcile directory
//! versions, and provide other functions."

use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::cluster::{Cluster, Held, OpResult, OpScope};
use crate::error::{DeceitError, DeceitResult};
use crate::ops::WriteOp;
use crate::params::FileParams;
use crate::server::SegmentId;
use crate::version::VersionPair;

/// One entry of a version listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionInfo {
    /// Major version number.
    pub major: u64,
    /// Current version pair of that version.
    pub version: VersionPair,
    /// Servers holding replicas of it.
    pub holders: Vec<NodeId>,
    /// Whether a live write token exists for it.
    pub has_token: bool,
}

impl Cluster {
    /// Sets the semantic parameters of a segment (`setparam`, §5.1).
    ///
    /// Parameter changes flow through the ordered update machinery so all
    /// replicas agree; raising the minimum replica level triggers replica
    /// generation (§3.1 method 2).
    pub fn set_params(
        &mut self,
        via: NodeId,
        seg: SegmentId,
        params: FileParams,
    ) -> DeceitResult<OpResult<()>> {
        self.set_params_scoped(Held(OpScope::Global), via, seg, params)
    }

    /// [`Cluster::set_params`] within what the caller holds: parameter
    /// changes ride the same per-file update machinery as writes, so the
    /// file's ring lock suffices.
    pub fn set_params_scoped(
        &self,
        held: Held<'_>,
        via: NodeId,
        seg: SegmentId,
        params: FileParams,
    ) -> DeceitResult<OpResult<()>> {
        let before = self.peek_params(via, seg);
        let res = self.write_scoped(held, via, seg, WriteOp::SetParams(params), None)?;
        self.after_set_params(via, seg, params, before);
        Ok(OpResult { value: (), latency: res.latency })
    }

    /// Peek at current params to detect a raised replica level.
    fn peek_params(&self, via: NodeId, seg: SegmentId) -> FileParams {
        self.resolve_key(via, seg, None)
            .ok()
            .and_then(|(key, ..)| {
                self.all_replica_holders(key).first().map(|&h| self.params_of(h, key))
            })
            .unwrap_or_default()
    }

    fn after_set_params(
        &self,
        via: NodeId,
        seg: SegmentId,
        params: FileParams,
        before: FileParams,
    ) {
        if params.min_replicas > before.min_replicas {
            if let Ok((key, ..)) = self.resolve_key(via, seg, None) {
                if let Some(holder) = self.find_reachable_token_holder(via, key) {
                    self.schedule_min_replica_fill(holder, key);
                }
            }
        }
    }

    /// Reads the current parameters of a segment.
    pub fn get_params(
        &mut self,
        via: NodeId,
        seg: SegmentId,
    ) -> DeceitResult<OpResult<FileParams>> {
        self.get_params_scoped(Held(OpScope::Global), via, seg)
    }

    /// [`Cluster::get_params`] within what the caller holds.
    pub fn get_params_scoped(
        &self,
        held: Held<'_>,
        via: NodeId,
        seg: SegmentId,
    ) -> DeceitResult<OpResult<FileParams>> {
        self.client_op_scoped(via, held.0, |c| c.do_get_params(via, seg))
    }

    fn do_get_params(
        &self,
        via: NodeId,
        seg: SegmentId,
    ) -> DeceitResult<(FileParams, SimDuration)> {
        let (key, _, latency) = self.resolve_key(via, seg, None)?;
        let holders = self.reachable_replica_holders(via, key);
        let h = holders.first().copied().ok_or(DeceitError::Unavailable(seg))?;
        Ok((self.params_of(h, key), latency + self.cfg.local_read))
    }

    /// "Users may inquire about the current location of all replicas for a
    /// file with another special command" (§3.1).
    pub fn locate_replicas(
        &mut self,
        via: NodeId,
        seg: SegmentId,
    ) -> DeceitResult<OpResult<Vec<NodeId>>> {
        self.client_op_scoped(via, OpScope::Global, |c| {
            let (key, _, mut latency) = c.resolve_key(via, seg, None)?;
            let mut scratch = SimDuration::ZERO;
            let _ = c.count_available_replicas(via, key, &mut scratch);
            latency += scratch;
            Ok((c.all_replica_holders(key), latency))
        })
    }

    /// Lists every version of a file (§2.1), with holders and token state.
    pub fn list_versions(
        &mut self,
        via: NodeId,
        seg: SegmentId,
    ) -> DeceitResult<OpResult<Vec<VersionInfo>>> {
        self.client_op_scoped(via, OpScope::Global, |c| {
            let (_, _, mut latency) = c.resolve_key(via, seg, None)?;
            let mut scratch = SimDuration::ZERO;
            let _ = c.count_available_replicas(via, (seg, 0), &mut scratch);
            latency += scratch;
            let mut majors: Vec<u64> = Vec::new();
            for s in c.server_ids() {
                if !c.net.reachable(via, s) {
                    continue;
                }
                for m in c.server(s).majors_of(seg) {
                    if !majors.contains(&m) {
                        majors.push(m);
                    }
                }
            }
            majors.sort_unstable();
            let infos = majors
                .into_iter()
                .map(|m| {
                    let key = (seg, m);
                    let holders = c.all_replica_holders(key);
                    let version = holders
                        .first()
                        .and_then(|&h| c.replica_version(h, key))
                        .unwrap_or(VersionPair { major: m, sub: 0 });
                    let has_token = c.find_reachable_token_holder(via, key).is_some();
                    VersionInfo { major: m, version, holders, has_token }
                })
                .collect();
            Ok((infos, latency))
        })
    }

    /// The version pair of a segment ("available to the user through a
    /// special command so that the user can determine if a file has been
    /// modified", §3.5).
    pub fn version_of(
        &mut self,
        via: NodeId,
        seg: SegmentId,
    ) -> DeceitResult<OpResult<VersionPair>> {
        self.client_op_scoped(via, OpScope::Global, |c| {
            let (key, _, latency) = c.resolve_key(via, seg, None)?;
            let holders = c.reachable_replica_holders(via, key);
            let h = holders.first().copied().ok_or(DeceitError::Unavailable(seg))?;
            // The holder list is advisory — the replica can vanish
            // between the probe and this read; report unavailable.
            let v = c.replica_version(h, key).ok_or(DeceitError::Unavailable(seg))?;
            Ok((v, latency + c.cfg.local_read))
        })
    }

    /// "A user may request the token holder t to create … a replica on a
    /// specific server with a special command" (§3.1 method 3).
    pub fn create_replica_on(
        &mut self,
        via: NodeId,
        seg: SegmentId,
        target: NodeId,
    ) -> DeceitResult<OpResult<()>> {
        self.client_op_scoped(via, OpScope::Global, |c| {
            c.check_up(target).map_err(|_| {
                DeceitError::InvalidCommand(format!("target {target} is not a live server"))
            })?;
            let (key, _, mut latency) = c.resolve_key(via, seg, None)?;
            let holder = c
                .find_reachable_token_holder(via, key)
                .ok_or(DeceitError::WriteUnavailable(seg))?;
            if c.replica_version(target, key).is_some() {
                return Err(DeceitError::InvalidCommand(format!(
                    "{target} already holds a replica of {seg}"
                )));
            }
            latency += c.round_trip(via, holder, 48, 16)?;
            if !c.generate_replica_now(holder, key, target) {
                return Err(DeceitError::Unavailable(seg));
            }
            Ok(((), latency))
        })
    }

    /// "… or delete a replica on a specific server" (§3.1 method 3). The
    /// last replica of a version cannot be deleted this way.
    pub fn delete_replica_on(
        &mut self,
        via: NodeId,
        seg: SegmentId,
        target: NodeId,
    ) -> DeceitResult<OpResult<()>> {
        self.client_op_scoped(via, OpScope::Global, |c| {
            let (key, _, mut latency) = c.resolve_key(via, seg, None)?;
            if c.replica_version(target, key).is_none() {
                return Err(DeceitError::InvalidCommand(format!(
                    "{target} holds no replica of {seg}"
                )));
            }
            if c.all_replica_holders(key).len() <= 1 {
                return Err(DeceitError::InvalidCommand(
                    "cannot delete the last replica".to_string(),
                ));
            }
            let holder = c
                .find_reachable_token_holder(via, key)
                .ok_or(DeceitError::WriteUnavailable(seg))?;
            latency += c.round_trip(via, holder, 48, 16)?;
            // If the target holds the token, pass it to another holder
            // first so the primary never disappears.
            if holder == target {
                let other = c
                    .all_replica_holders(key)
                    .into_iter()
                    .find(|&h| h != target && c.net.reachable(via, h))
                    .ok_or_else(|| {
                        DeceitError::InvalidCommand(
                            "no other replica to move the token to".to_string(),
                        )
                    })?;
                latency += c.pass_token(target, other, key)?;
            }
            let token_holder = c.find_reachable_token_holder(via, key).unwrap_or(holder);
            c.destroy_replica(target, key);
            c.update_holder_set(token_holder, key, move |holders| holders.remove(&target));
            Ok(((), latency))
        })
    }

    /// Explicitly creates a new version of a file (§3.5: "By using this
    /// form of file name, specific versions can be created"). Returns the
    /// new major version number.
    pub fn create_version(&mut self, via: NodeId, seg: SegmentId) -> DeceitResult<OpResult<u64>> {
        self.client_op_scoped(via, OpScope::Global, |c| {
            let (key, _, mut latency) = c.resolve_key(via, seg, None)?;
            let (new_key, gen) = c.generate_token(via, key)?;
            latency += gen;
            Ok((new_key.1, latency))
        })
    }

    /// Deletes one version of a file everywhere reachable ("a user can …
    /// ask Deceit to delete obsolete versions", §2.1).
    pub fn delete_version(
        &mut self,
        via: NodeId,
        seg: SegmentId,
        major: u64,
    ) -> DeceitResult<OpResult<()>> {
        // Conflict-log pruning needs `&mut`, so the body runs outside
        // the scoped helper; this command is exclusive-path only.
        self.apply_read_touches();
        self.fire_due(OpScope::Global);
        self.check_up(via)?;
        self.server(via).ops_served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let key = (seg, major);
        let holders = self.all_replica_holders(key);
        if holders.is_empty() {
            return Err(DeceitError::NoSuchVersion(seg, major));
        }
        let mut latency = SimDuration::ZERO;
        let mut scratch = SimDuration::ZERO;
        let _ = self.count_available_replicas(via, key, &mut scratch);
        latency += scratch;
        for h in holders {
            if self.net.reachable(via, h) {
                self.destroy_replica(h, key);
            }
            self.delete_token(h, key);
        }
        // Clear any logged conflicts this deletion resolves.
        self.conflicts
            .retain(|rec| !(rec.seg == seg && (rec.majors.0 == major || rec.majors.1 == major)));
        self.clock_add(latency);
        self.fire_due(OpScope::Global);
        Ok(OpResult { value: (), latency })
    }
}
