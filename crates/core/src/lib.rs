//! The Deceit segment server — the paper's primary contribution.
//!
//! §5: "The first component is a distributed reliable segment server. The
//! segment server provides a simple, flat, reliable distributed file
//! service with no user level security or user specified names. … The
//! segment server implements all of the update, replication, and versioning
//! protocols, and it is the layer where file parameters exist."
//!
//! This crate implements that layer in full:
//!
//! * [`version`] — version pairs, branch records, and the history tree
//!   (§3.5 "Histories and Version Pairs").
//! * [`params`] — the five per-file semantic parameters (§4).
//! * [`ops`] — segment operations: create, delete, read, write, setparam
//!   (§5.1), with conditional writes for optimistic concurrency.
//! * [`token`] — write tokens (§3.3) and token generation policy (§3.5).
//! * [`replica`] — replica state and metadata.
//! * [`server`] — one Deceit server's local state (non-volatile storage per
//!   §3.5, delivery queues, failure detector).
//! * [`cluster`] — the deployment: simulated network + servers + the event
//!   engine that drives asynchronous propagation, write-back, stability
//!   timeouts, and background replica generation.
//! * [`proto`] — the protocols themselves: update distribution (§3.2),
//!   token acquisition and generation (§3.3, §3.5), stability notification
//!   (§3.4), replica generation and migration (§3.1), crash recovery and
//!   partition reconciliation (§3.6), and the special user commands (§2.1).
//!
//! # Examples
//!
//! ```
//! use deceit_core::{Cluster, ClusterConfig, FileParams, WriteOp};
//! use deceit_net::NodeId;
//!
//! // Three servers, one cell.
//! let mut cluster = Cluster::new(3, ClusterConfig::default());
//! let s0 = NodeId(0);
//!
//! // Create a segment via server 0 and replicate it on two servers.
//! let seg = cluster.create(s0).unwrap().value;
//! cluster
//!     .set_params(s0, seg, FileParams { min_replicas: 2, ..FileParams::default() })
//!     .unwrap();
//! cluster.write(s0, seg, WriteOp::replace(b"hello"), None).unwrap();
//! cluster.run_until_quiet();
//!
//! let read = cluster.read(s0, seg, None, 0, 100).unwrap();
//! assert_eq!(&read.value.data()[..], b"hello");
//! assert_eq!(cluster.locate_replicas(s0, seg).unwrap().value.len(), 2);
//! ```

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

pub mod audit;
pub mod cluster;
pub mod config;
pub mod error;
pub mod event;
pub mod host;
pub mod hot;
pub mod obs;
pub mod ops;
pub mod params;
pub mod proto;
pub mod replica;
pub mod server;
pub mod token;
pub mod trace_events;
pub mod version;

pub use audit::{
    audit, fnv1a, AuditReport, Contract, Event, EventBody, FaultEvent, History, OpCall, OpOutcome,
    Violation,
};
pub use cluster::{Cluster, Held, OpResult};
pub use config::ClusterConfig;
pub use deceit_storage::{SegmentData, MAX_SEGMENT};
pub use error::{DeceitError, DeceitResult};
pub use host::{shard_slot, OpClass, ProtocolHost, ShardKey};
pub use obs::{
    AtomicHistogram, FlightRecorder, HistCounts, HistSummary, ObsCore, PlacementSnapshot, Stat,
};
pub use ops::{ReadData, WriteOp};
pub use params::{FileParams, WriteAvailability};
pub use proto::commands::VersionInfo;
pub use replica::{Replica, ReplicaState};
pub use server::{ReadLease, SegmentId};
pub use token::WriteToken;
pub use trace_events::ProtocolEvent;
pub use version::{BranchTable, VersionPair, VersionRelation};
