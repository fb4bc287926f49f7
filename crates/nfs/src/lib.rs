//! The Deceit NFS file-service envelope.
//!
//! §5.2: "The full file service is built on top of the reliable segment
//! server. The principle is that every file, directory, or soft link is
//! mapped into a unique segment. All NFS operations are mapped into
//! creates, deletes, reads, and writes on segments. … Although the NFS
//! envelope implementation is a large piece of software, it is totally
//! independent of the underlying implementation of the segment service."
//!
//! Modules:
//!
//! * [`handle`] — NFS file handles, "guaranteed to be unique and usable as
//!   long as a replica of the file exists" (§2.1).
//! * [`inode`] — the per-segment metadata header (type, mode, link count
//!   hint, uplink list, timestamps).
//! * [`dir`] — the directory-entry encoding stored in directory segments.
//! * [`name`] — version-qualified file names (`foo;3`, §3.5).
//! * [`fs`] — the envelope's shared types and the segment image codec.
//! * [`scope`] — what the caller of an operation holds (the shared cell
//!   lock, some ring locks, the whole cell), and the segment plumbing
//!   written once against it.
//! * [`ops_read`] / [`ops_file`] / [`ops_dir`] — the NFS operations and
//!   Deceit special commands, each written once, grouped by how they
//!   interact with engine state (read-only, single-file mutation,
//!   namespace mutation) — the classification a concurrent host
//!   dispatches on.
//! * [`auth`] — credentials, mode-bit access checks, and the modeled
//!   DES session authentication (§5).
//! * [`gc`] — link counting and uplink-list garbage collection (§5.2).
//! * [`rpc`] — the NFS-shaped wire protocol served to client agents.
//! * [`host`] — the transport-agnostic hosting seam: serving requests and
//!   forwarding failure injection, for the simulator and the live runtime
//!   alike.
//! * [`reconcile`] — the "reconcile directory versions" special command
//!   (§2.1), giving divergent directories a system-assisted merge.
//! * [`cell`] — cells and the global root directory (§2.2).

// No panics outside tests: a storm or a client request can reach any
// of this code, and it must fail by returning an error (see clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod auth;
pub mod cell;
pub mod dir;
pub mod fs;
pub mod gc;
pub mod handle;
pub mod host;
pub mod inode;
pub mod name;
pub mod ops_dir;
pub mod ops_file;
pub mod ops_read;
pub mod reconcile;
pub mod rpc;
pub mod scope;

pub use auth::{permits, AccessMode, Credentials, SessionAuth};
pub use cell::{CellId, Federation};
pub use dir::{DirEntry, Directory};
pub use fs::{DeceitFs, FileAttr, FileType, FsConfig, NfsError, NfsResult};
pub use handle::FileHandle;
pub use host::NfsService;
pub use inode::Inode;
pub use name::QualifiedName;
pub use reconcile::{reconcile_directory, ReconcileReport};
pub use rpc::{NfsReply, NfsRequest, NfsServer};
pub use scope::Scope;
