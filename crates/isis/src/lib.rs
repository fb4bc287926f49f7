//! An ISIS-like distributed programming substrate.
//!
//! Deceit delegates "all communication and process group management" to the
//! ISIS Distributed Programming Environment (§2.4). The features the paper
//! enumerates — and which this crate reimplements — are:
//!
//! * **process groups** with atomic membership change ([`group`]),
//! * **several group broadcast protocols** ([`bcast`] for communication
//!   rounds with first-k reply collection, [`cbcast`] for causal order via
//!   vector clocks, [`abcast`] for total order via a sequencer),
//! * **mechanisms for locating group members by group name** ([`group`],
//!   with the global-search cost charged by the caller per §3.2),
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
pub mod cbcast;
pub mod failure;
pub mod group;
pub mod vclock;
pub mod view_sync;
pub mod xfer;

pub use abcast::{OrderedReceiver, SequencedMsg, Sequencer};
pub use bcast::{broadcast_round, BcastOutcome};
pub use cbcast::{CausalMsg, CausalReceiver, CausalSender};
pub use failure::FailureDetector;
pub use group::{GroupId, GroupTable, View};
pub use vclock::VectorClock;
pub use view_sync::{ViewSyncBuffer, ViewedMsg};
