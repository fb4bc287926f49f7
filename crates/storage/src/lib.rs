//! Simulated non-volatile storage for Deceit servers.
//!
//! §3.5 ("Local Non-volatile Storage"): each server keeps, on disk, the
//! data of its replicas, each replica's state and version pair, the state
//! of every token it holds, and the map from file handles to local names.
//! "Some of a server's non-volatile storage is updated immediately when
//! values change, and some of it is written asynchronously, depending on
//! safety."
//!
//! [`Disk`] models exactly that contract: a durable map plus a volatile
//! overlay. Synchronous writes are durable when the call returns (and cost
//! simulated disk time); asynchronous writes are visible immediately but
//! survive a crash only once flushed. [`Disk::crash`] throws away the
//! volatile overlay — this is the primitive every §3.6 crash scenario is
//! built on.
//!
//! [`SegmentData`] is the byte-array-with-offset representation of a
//! segment's contents (§5.1: "A segment contains an array of bytes that can
//! be indexed by an offset"), capped at [`MAX_SEGMENT`]. It is a persistent
//! list of immutable refcounted extents with copy-on-write mutators, so a
//! mutation costs what it writes rather than what the segment holds, and
//! the clones a [`Disk`] makes to mirror a value into its durable side
//! (`put_sync`, `flush_key`) and back (`crash`) share the bytes instead of
//! copying them — and stay isolated from each other, because a later
//! mutation of either side builds its own list.

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

pub mod disk;
pub mod segdata;

pub use disk::{Disk, DiskConfig, Durability, StoredSize};
pub use segdata::{Rewrite, SegmentData, MAX_SEGMENT};
