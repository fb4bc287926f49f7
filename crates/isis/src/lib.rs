//! An ISIS-like distributed programming substrate.
//!
//! Deceit delegates "all communication and process group management" to the
//! ISIS Distributed Programming Environment (§2.4). This crate keeps the
//! pieces of it that Deceit calls:
//!
//! * **process groups** with atomic membership change ([`group`]), and
//!   **locating group members by group name** (with the global-search
//!   cost charged by the caller per §3.2),
//! * **communication rounds** with first-k reply collection ([`bcast`]),
//! * **total-order delivery** ([`abcast::OrderedReceiver`]): §3.3's
//!   "identical order at all servers regardless of token movement" is the
//!   token-site sequence — whoever holds the token stamps each update with
//!   the group's next number, and every member delivers in that order.
//!   Deceit needs no causal order beyond it, so ISIS's CBCAST is absent,
//! * **process state transfer** ([`xfer`]),
//! * **failure detection coordinated with communication** ([`failure`]):
//!   a machine is suspected exactly when a message to it goes unanswered.
//!
//! The crate is a mechanism library: it owns no event loop. The Deceit
//! cluster (in `deceit-core`) drives these pieces, the same way the Deceit
//! server process linked against the ISIS toolkit.

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

pub mod abcast;
pub mod bcast;
pub mod failure;
pub mod group;
pub mod xfer;

pub use abcast::{OrderedReceiver, SequencedMsg};
pub use bcast::{broadcast_round, BcastOutcome};
pub use failure::FailureDetector;
pub use group::{GroupId, GroupTable, View};
