//! Directory version reconciliation.
//!
//! §2.1 lists "reconcile directory versions" among Deceit's special
//! commands. After a partition, a directory can exist as two incomparable
//! versions, each containing entries created on one side (§3.6 keeps both
//! and logs a conflict). Unlike arbitrary file contents — whose merge
//! "may use the semantics of the file" and is left to the user — a
//! directory has merge semantics the system knows: the union of the
//! entries, with name collisions on *different* files surfaced by
//! suffixing the losing entry.

use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::Directory;
use crate::fs::{segment_image, DeceitFs, Edit, NfsError, NfsResult, Payload};
use crate::handle::FileHandle;
use crate::inode::Inode;
use crate::scope::{at_cell, Scope};

/// The outcome of one reconciliation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Major versions that were merged.
    pub merged_majors: Vec<u64>,
    /// Entries in the merged directory.
    pub merged_entries: usize,
    /// Names that collided on different files; the losing entry was kept
    /// under `name#<major>`.
    pub collisions: Vec<String>,
}

/// Merges every live version of a directory into the newest one, deletes
/// the older versions, and clears the logged conflict.
pub fn reconcile_directory(
    fs: &mut DeceitFs,
    via: NodeId,
    dir: FileHandle,
) -> NfsResult<ReconcileReport> {
    let mut latency = SimDuration::ZERO;
    let versions = {
        let r = fs.cluster.list_versions(via, dir.seg)?;
        latency += r.latency;
        r.value
    };
    let majors: Vec<u64> = versions.iter().map(|v| v.major).collect();
    // The merge target is the newest version (highest major — the branch
    // the unqualified name already resolves to); none at all is a stale
    // handle.
    let Some(&newest) = majors.iter().max() else { return Err(NfsError::Stale) };
    if majors.len() == 1 {
        // Nothing to reconcile.
        let (_, table, _, l) = fs.load_dir(via, dir)?;
        latency += l;
        return Ok(deceit_core::OpResult {
            value: ReconcileReport {
                merged_majors: majors,
                merged_entries: table.len(),
                collisions: Vec::new(),
            },
            latency,
        });
    }

    // Read every version's entry table, newest first, merging into it.
    let mut merged: Option<(Inode, Directory)> = None;
    let mut collisions = Vec::new();
    let mut ordered = majors.clone();
    ordered.sort_unstable_by(|a, b| b.cmp(a)); // newest first

    for major in &ordered {
        let (inode, table, _, l) = fs.load_dir(via, FileHandle::versioned(dir.seg, *major))?;
        latency += l;
        match &mut merged {
            None => merged = Some((inode, table)),
            Some((_, base)) => {
                for entry in table.entries() {
                    if let Some(existing) = base.get(&entry.name) {
                        if existing.handle.segment() == entry.handle.segment() {
                            continue; // same file, nothing to do
                        }
                        // Same name, different files: keep both; the
                        // older side's entry is renamed visibly.
                        let renamed = format!("{}#{}", entry.name, major);
                        collisions.push(entry.name.clone());
                        let mut e = entry.clone();
                        e.name = renamed;
                        base.insert(e);
                    } else {
                        base.insert(entry.clone());
                    }
                }
            }
        }
    }
    let Some((mut inode, table)) = merged else { return Err(NfsError::Stale) };

    // Write the merged table into the newest version and delete the rest.
    inode.mtime = fs.cluster.now().as_micros();
    let image = segment_image(&inode, &Payload::default(), Edit::Set(table.encode()))?;
    let (_, l) = at_cell(Scope::Cell(fs).store(via, dir, image, None))?;
    latency += l;
    for major in majors.iter().filter(|&&m| m != newest) {
        // The merged survivor embeds the other versions' entries; their
        // histories are now redundant.
        let del = fs.cluster.delete_version(via, dir.seg, *major)?;
        latency += del.latency;
    }
    Ok(deceit_core::OpResult {
        value: ReconcileReport { merged_majors: majors, merged_entries: table.len(), collisions },
        latency,
    })
}
