//! Process groups with atomic membership change.
//!
//! §3.2: "For any file, f, there is an explicit process group of servers
//! that need current information about f … Deceit represents each file
//! group with an ISIS process group." Membership changes are *view
//! synchronous*: each change produces a new numbered view, and every
//! broadcast is associated with the view in which it was sent, so members
//! agree on which messages preceded which membership change.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

use deceit_net::NodeId;
use deceit_sim::leaf;

/// Identity of one process group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u64);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One numbered membership view of a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// The group this view belongs to.
    pub group: GroupId,
    /// Monotonically increasing view number; bumped by every join/leave.
    pub view_id: u64,
    /// Current members.
    pub members: BTreeSet<NodeId>,
}

impl View {
    /// Whether `node` is a member in this view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[derive(Debug, Clone)]
struct GroupMeta {
    name: String,
    view: View,
    /// ABCAST sequencer state for this group (next sequence number).
    next_seq: u64,
}

/// Errors from group operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// The group id is not (or no longer) registered.
    NoSuchGroup(GroupId),
    /// A group with this name already exists.
    NameTaken(String),
    /// The node is already a member.
    AlreadyMember(GroupId, NodeId),
    /// The node is not a member.
    NotMember(GroupId, NodeId),
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::NoSuchGroup(g) => write!(f, "no such group {g}"),
            GroupError::NameTaken(n) => write!(f, "group name {n:?} already taken"),
            GroupError::AlreadyMember(g, n) => write!(f, "{n} already a member of {g}"),
            GroupError::NotMember(g, n) => write!(f, "{n} not a member of {g}"),
        }
    }
}

impl std::error::Error for GroupError {}

/// The group-membership service.
///
/// In real ISIS this state is itself replicated; here it is the
/// authoritative copy held by the simulation, with the *costs* of
/// membership operations (global search, state transfer) charged explicitly
/// by the caller, because those costs are what §3.2 and §7 analyze
/// ("Group joins are expensive", "ISIS does not efficiently support more
/// than 100-1000 process groups").
/// Internally synchronized: every operation takes `&self`, so protocol
/// code running under a shared lock (the concurrent host's sharded
/// mutation path) can look up, join, and create groups without exclusive
/// access to the directory. [`GroupTable::view`] returns an owned
/// snapshot; view-synchronous semantics come from the atomicity of each
/// membership change, not from holding a borrow open.
#[derive(Debug, Default)]
pub struct GroupTable {
    inner: std::sync::RwLock<TableInner>,
}

#[derive(Debug, Default)]
struct TableInner {
    groups: BTreeMap<GroupId, GroupMeta>,
    by_name: BTreeMap<String, GroupId>,
    next_id: u64,
    view_changes: u64,
    peak_groups: usize,
}

impl GroupTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        GroupTable::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, TableInner> {
        leaf::read(&self.inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, TableInner> {
        leaf::write(&self.inner)
    }

    /// Creates a group with a unique name and one initial member.
    pub fn create(&self, name: &str, creator: NodeId) -> Result<GroupId, GroupError> {
        let mut inner = self.write();
        if inner.by_name.contains_key(name) {
            return Err(GroupError::NameTaken(name.to_string()));
        }
        let id = GroupId(inner.next_id);
        inner.next_id += 1;
        let mut members = BTreeSet::new();
        members.insert(creator);
        inner.groups.insert(
            id,
            GroupMeta {
                name: name.to_string(),
                view: View { group: id, view_id: 1, members },
                next_seq: 0,
            },
        );
        inner.by_name.insert(name.to_string(), id);
        inner.view_changes += 1;
        inner.peak_groups = inner.peak_groups.max(inner.groups.len());
        Ok(id)
    }

    /// Looks up a group by name (the "locating group members by group name"
    /// primitive; the caller charges the search cost).
    pub fn lookup(&self, name: &str) -> Option<GroupId> {
        self.read().by_name.get(name).copied()
    }

    /// The current view of a group (an owned snapshot).
    pub fn view(&self, id: GroupId) -> Result<View, GroupError> {
        self.read().groups.get(&id).map(|g| g.view.clone()).ok_or(GroupError::NoSuchGroup(id))
    }

    /// Whether the group is (still) registered — the clone-free liveness
    /// probe hot paths use instead of [`GroupTable::view`].
    pub fn exists(&self, id: GroupId) -> bool {
        self.read().groups.contains_key(&id)
    }

    /// Whether `node` is a member of `id` (false if the group is gone) —
    /// clone-free.
    pub fn is_member(&self, id: GroupId, node: NodeId) -> bool {
        self.read().groups.get(&id).map(|g| g.view.contains(node)).unwrap_or(false)
    }

    /// The current members of `id` as a plain vector (ascending), or
    /// `None` if the group is gone. One allocation, no set clone.
    pub fn members_vec(&self, id: GroupId) -> Option<Vec<NodeId>> {
        self.read().groups.get(&id).map(|g| g.view.members.iter().copied().collect())
    }

    /// Whether any current member of `id` satisfies `pred`, or `None`
    /// if the group is gone — the allocation-free membership scan for
    /// read hot paths that would otherwise pay a
    /// [`GroupTable::members_vec`] per request. `pred` runs under the
    /// table's read lock, so it must not call back into this table.
    pub fn any_member(&self, id: GroupId, mut pred: impl FnMut(NodeId) -> bool) -> Option<bool> {
        self.read().groups.get(&id).map(|g| g.view.members.iter().any(|&m| pred(m)))
    }

    /// Runs `f` on the current member set of `id`, or returns `None` if
    /// the group is gone — the allocation-free way to size the group and
    /// address a round to (a filtered prefix of) its members in one
    /// acquisition. `f` runs under the table's read lock, so it must not
    /// call back into this table.
    pub fn with_members<R>(
        &self,
        id: GroupId,
        f: impl FnOnce(&BTreeSet<NodeId>) -> R,
    ) -> Option<R> {
        self.read().groups.get(&id).map(|g| f(&g.view.members))
    }

    /// Looks a group up by name and returns its members in one lock
    /// acquisition — the common "who needs this broadcast" query.
    pub fn members_by_name(&self, name: &str) -> Option<(GroupId, Vec<NodeId>)> {
        let inner = self.read();
        let id = *inner.by_name.get(name)?;
        let g = inner.groups.get(&id)?;
        Some((id, g.view.members.iter().copied().collect()))
    }

    /// The group's registered name.
    pub fn name(&self, id: GroupId) -> Result<String, GroupError> {
        self.read().groups.get(&id).map(|g| g.name.clone()).ok_or(GroupError::NoSuchGroup(id))
    }

    /// Adds a member, producing a new view (atomic membership change).
    pub fn join(&self, id: GroupId, node: NodeId) -> Result<View, GroupError> {
        let mut inner = self.write();
        let meta = inner.groups.get_mut(&id).ok_or(GroupError::NoSuchGroup(id))?;
        if !meta.view.members.insert(node) {
            return Err(GroupError::AlreadyMember(id, node));
        }
        meta.view.view_id += 1;
        let view = meta.view.clone();
        inner.view_changes += 1;
        Ok(view)
    }

    /// Removes a member, producing a new view. Deletes the group when the
    /// last member leaves (Deceit "will be more careful with generating and
    /// deleting process groups", §5.4).
    pub fn leave(&self, id: GroupId, node: NodeId) -> Result<View, GroupError> {
        let mut inner = self.write();
        let meta = inner.groups.get_mut(&id).ok_or(GroupError::NoSuchGroup(id))?;
        if !meta.view.members.remove(&node) {
            return Err(GroupError::NotMember(id, node));
        }
        meta.view.view_id += 1;
        let view = meta.view.clone();
        let name = meta.name.clone();
        inner.view_changes += 1;
        if view.members.is_empty() {
            inner.groups.remove(&id);
            inner.by_name.remove(&name);
        }
        Ok(view)
    }

    /// Allocates the next ABCAST sequence number for the group.
    pub fn next_seq(&self, id: GroupId) -> Result<u64, GroupError> {
        let mut inner = self.write();
        let meta = inner.groups.get_mut(&id).ok_or(GroupError::NoSuchGroup(id))?;
        let s = meta.next_seq;
        meta.next_seq += 1;
        Ok(s)
    }

    /// Number of currently live groups.
    pub fn len(&self) -> usize {
        self.read().groups.len()
    }

    /// Whether no groups exist.
    pub fn is_empty(&self) -> bool {
        self.read().groups.is_empty()
    }

    /// Total view changes performed (joins + leaves), for the scalability
    /// experiments.
    pub fn view_changes(&self) -> u64 {
        self.read().view_changes
    }

    /// High-water mark of simultaneously live groups — the resource the
    /// paper calls out as scarce in ISIS (§5.4).
    pub fn peak_groups(&self) -> usize {
        self.read().peak_groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn create_lookup_view() {
        let t = GroupTable::new();
        let g = t.create("file:42", n(0)).unwrap();
        assert_eq!(t.lookup("file:42"), Some(g));
        assert_eq!(t.lookup("nope"), None);
        let v = t.view(g).unwrap();
        assert_eq!(v.view_id, 1);
        assert!(v.contains(n(0)));
        assert_eq!(v.len(), 1);
        assert_eq!(t.name(g).unwrap(), "file:42");
    }

    #[test]
    fn duplicate_name_rejected() {
        let t = GroupTable::new();
        t.create("g", n(0)).unwrap();
        assert_eq!(t.create("g", n(1)), Err(GroupError::NameTaken("g".into())));
    }

    #[test]
    fn join_and_leave_bump_view() {
        let t = GroupTable::new();
        let g = t.create("g", n(0)).unwrap();
        let v2 = t.join(g, n(1)).unwrap();
        assert_eq!(v2.view_id, 2);
        assert_eq!(v2.len(), 2);
        assert_eq!(t.join(g, n(1)), Err(GroupError::AlreadyMember(g, n(1))));
        let v3 = t.leave(g, n(0)).unwrap();
        assert_eq!(v3.view_id, 3);
        assert!(!v3.contains(n(0)));
        assert_eq!(t.leave(g, n(0)), Err(GroupError::NotMember(g, n(0))));
        // Create + successful join + successful leave; rejected ops do not
        // change the view.
        assert_eq!(t.view_changes(), 3);
    }

    #[test]
    fn group_deleted_when_empty() {
        let t = GroupTable::new();
        let g = t.create("g", n(0)).unwrap();
        t.leave(g, n(0)).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.lookup("g"), None);
        assert_eq!(t.view(g), Err(GroupError::NoSuchGroup(g)));
        // The name becomes reusable.
        t.create("g", n(1)).unwrap();
    }

    #[test]
    fn sequencer_is_per_group() {
        let t = GroupTable::new();
        let a = t.create("a", n(0)).unwrap();
        let b = t.create("b", n(0)).unwrap();
        assert_eq!(t.next_seq(a).unwrap(), 0);
        assert_eq!(t.next_seq(a).unwrap(), 1);
        assert_eq!(t.next_seq(b).unwrap(), 0);
    }

    #[test]
    fn peak_groups_tracks_high_water() {
        let t = GroupTable::new();
        let a = t.create("a", n(0)).unwrap();
        let _b = t.create("b", n(0)).unwrap();
        t.leave(a, n(0)).unwrap();
        t.create("c", n(0)).unwrap();
        assert_eq!(t.peak_groups(), 2);
    }
}
