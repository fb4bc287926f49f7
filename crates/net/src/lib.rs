//! Simulated network substrate for the Deceit reproduction.
//!
//! Section 2.3 of the paper fixes the network assumptions: a small number of
//! LANs per cell (10–100 machines), symmetric communication, messages may be
//! lost, the network may partition for long periods, and machines crash
//! without notification. This crate models exactly that environment:
//!
//! * [`NodeId`] — identity of a server or client machine.
//! * [`LatencyModel`] — per-message latency shapes (LAN, WAN, fixed).
//! * [`Partition`] — long-term communication partitions as disjoint groups.
//! * [`Network`] — reachability + crash state + full message accounting.
//! * [`blast`] — the "blast" bulk file-transfer model used for replica
//!   generation (§3.1: a TCP connection run "at high efficiency").
//! * [`live`] — a real multi-threaded in-memory transport with the same
//!   interface shape, demonstrating the message layer off the simulator.
//! * [`rpc`] — request/reply correlation, pipelining, and timeouts over
//!   the live transport; the live runtime's call layer.

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

pub mod blast;
pub mod latency;
pub mod live;
pub mod network;
pub mod node;
pub mod rpc;
pub mod topology;

pub use blast::BlastConfig;
pub use latency::LatencyModel;
pub use live::{Envelope, LiveBus, LiveEndpoint};
pub use network::{Delivery, NetStats, Network};
pub use node::NodeId;
pub use rpc::{CallId, IncomingRequest, Rpc, RpcEndpoint, RpcError};
pub use topology::Partition;
