//! Link counting and garbage collection (§5.2).
//!
//! "The NFS envelope attempts to maintain the property that if file f is
//! in directory d, then d is in the uplink list of some version of f. …
//! Deceit also keeps a standard hard link count with f, but it is only
//! considered to be a hint. When the link count goes to zero, the NFS
//! envelope checks every available version of every directory in the
//! uplink list. If none have a link to the file, the segment is
//! deallocated; otherwise, the link count is corrected."

use deceit_core::Stat;
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::fs::{DeceitFs, Edit, NfsError};
use crate::handle::FileHandle;
use crate::scope::{at_cell, Scope, ATTR_ARGS};

/// Runs the zero-link-count check on `target`: deallocate if truly
/// unlinked, otherwise correct the hint. Returns the time spent.
pub fn collect_if_unlinked(
    fs: &mut DeceitFs,
    via: NodeId,
    target: FileHandle,
) -> Result<SimDuration, NfsError> {
    let mut latency = SimDuration::ZERO;
    let (inode, _, _, l0) = at_cell(Scope::Cell(fs).load(via, target))?;
    latency += l0;

    // Scan every available version of every uplink directory.
    let mut true_links = 0u32;
    for dir_seg in inode.uplinks() {
        let versions = match fs.cluster.list_versions(via, dir_seg) {
            Ok(r) => {
                latency += r.latency;
                r.value
            }
            Err(_) => continue, // directory gone entirely
        };
        for v in versions {
            let Ok((_, table, _, l)) = fs.load_dir(via, FileHandle::versioned(dir_seg, v.major))
            else {
                continue;
            };
            latency += l;
            // Count entries, not directories: two hard links from the
            // same directory are two links.
            true_links +=
                table.entries().iter().filter(|e| e.handle.segment() == target.seg).count() as u32;
        }
    }

    if true_links == 0 {
        // Deallocate the segment.
        let del = fs.cluster.delete(via, target.seg)?;
        latency += del.latency;
        fs.cluster.obs.bump(Stat::GcDeallocated);
    } else {
        // The hint was wrong: correct it (§5.2 "the link count is
        // corrected").
        latency += fs.update_segment(via, target, ATTR_ARGS, |inode, _| {
            inode.nlink = true_links;
            Ok(Some(Edit::Keep))
        })?;
        fs.cluster.obs.bump(Stat::GcCorrected);
    }
    Ok(latency)
}

/// Computes the paper's Figure 7 quantity for a file: the total number of
/// *link copies*, "where every replica of every version of a directory
/// referring to the file is counted once".
pub fn total_link_copies(
    fs: &mut DeceitFs,
    via: NodeId,
    target: FileHandle,
) -> Result<u64, NfsError> {
    let (inode, ..) = at_cell(Scope::Cell(fs).load(via, target))?;
    let mut total = 0u64;
    for dir_seg in inode.uplinks() {
        let versions = match fs.cluster.list_versions(via, dir_seg) {
            Ok(r) => r.value,
            Err(_) => continue,
        };
        for v in versions {
            // Does this version of the directory link to the file?
            let Ok((_, table, ..)) = fs.load_dir(via, FileHandle::versioned(dir_seg, v.major))
            else {
                continue;
            };
            if table.links_to(target.seg) {
                // Count one per replica of this version.
                total += v.holders.len() as u64;
            }
        }
    }
    Ok(total)
}
