//! P8 (extension) — §7's file-contention problem and the proposed cure.
//!
//! "Certain files and directories such as the root directory will be
//! accessed very frequently by all servers. It is fortunate that these
//! files tend to have read only access. It may be valuable to have
//! special file modes which are optimized for this combination of
//! properties." This experiment measures the problem (every read-
//! forwarding server joins the file group, §3.2, so one hot file's update
//! cost grows with the whole cell) and the `read_optimized` mode built to
//! fix it.

use deceit::prelude::*;

use crate::table::Table;

/// Measured hot-file point.
#[derive(Debug, Clone, Copy)]
pub struct HotPoint {
    /// Whether the §7 read-optimized mode was on.
    pub optimized: bool,
    /// File-group size after every server in the cell has read the file.
    pub group_size: usize,
    /// Update messages for one write after the read storm.
    pub update_msgs: u64,
}

/// A 16-server cell; every server reads the hot file, then the owner
/// writes once.
pub fn measure(optimized: bool) -> HotPoint {
    let servers = 16;
    let mut fs = DeceitFs::new(servers, ClusterConfig::deterministic(), FsConfig::default());
    let root = fs.root();
    let f = fs.create(NodeId(0), root, "hot", 0o644).unwrap().value;
    let params = if optimized {
        FileParams { stability: false, ..FileParams::hot_read_mostly(3) }
    } else {
        FileParams { stability: false, ..FileParams::important(3) }
    };
    fs.set_file_params(NodeId(0), f.handle, params).unwrap();
    fs.write(NodeId(0), f.handle, 0, b"hot contents").unwrap();
    fs.cluster.run_until_quiet();

    // The read storm: every server touches the file ("accessed very
    // frequently by all servers").
    for s in 0..servers as u32 {
        fs.read(NodeId(s), f.handle, 0, 64).unwrap();
    }
    fs.cluster.run_until_quiet();
    let group_size =
        fs.cluster.group_members(f.handle.segment()).map(|(_, m)| m.len()).unwrap_or(0);

    // One update after the storm: its broadcast reaches the whole group.
    let before = fs.cluster.net.stats().tag_count("update");
    fs.write(NodeId(0), f.handle, 0, b"rare update").unwrap();
    let update_msgs = fs.cluster.net.stats().tag_count("update") - before;
    HotPoint { optimized, group_size, update_msgs }
}

/// The mode comparison.
pub fn run() -> (Table, HotPoint, HotPoint) {
    let plain = measure(false);
    let hot = measure(true);
    let mut t = Table::new(
        "P8 — §7 hot-file contention: 16 servers all read one file, then 1 write",
        &["mode", "file-group size", "update messages"],
    );
    for p in [&plain, &hot] {
        t.row(&[
            if p.optimized { "read_optimized (§7 proposal)" } else { "default (§3.2 joins)" }
                .to_string(),
            p.group_size.to_string(),
            p.update_msgs.to_string(),
        ]);
    }
    (t, plain, hot)
}

#[cfg(test)]
mod tests {
    #[test]
    fn read_optimized_contains_the_group() {
        let (_, plain, hot) = super::run();
        // Default: the reader population joined the group.
        assert!(plain.group_size >= 12, "{plain:?}");
        // Read-optimized: the group stays at the 3 replica holders.
        assert_eq!(hot.group_size, 3, "{hot:?}");
        // And the rare update costs proportionally less.
        assert!(hot.update_msgs < plain.update_msgs / 2, "{hot:?} vs {plain:?}");
    }
}
