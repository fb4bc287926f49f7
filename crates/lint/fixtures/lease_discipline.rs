//! Planted violations for `lease-discipline`, linted as if this file
//! were `crates/core/src/proto/token.rs` (where `pass_token` is a
//! registered invalidator). Never compiled — read as text by
//! `tests/fixtures.rs`.

impl Cluster {
    pub(crate) fn pass_token(&self, from: NodeId, to: NodeId, key: ReplicaKey) {
        // VIOLATION: state mutated before the lease revoke below — a
        // racing leased read can validate against the new holder set.
        self.server(from).tokens.delete_sync(&key);
        self.server(from).leases.remove(&key);
    }

    fn unregistered_helper(&self, key: ReplicaKey) {
        // Not a registered invalidator: mutation order is not checked.
        self.server.replicas.put_sync(key, value);
    }
}

impl VisitForm for Cluster {
    pub(crate) fn pass_token(&self, from: NodeId, to: NodeId, key: ReplicaKey) {
        // VIOLATION: the same mutation made where the token lies, inside
        // a visit to the holder's slot.
        self.server(from).visit(key.0, |s| s.tokens.disk.delete_sync(&key));
        self.server(from).visit(key.0, |s| s.leases.remove(&key));
    }
}
