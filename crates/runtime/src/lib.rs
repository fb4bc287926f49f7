//! Live concurrent cluster runtime: the Deceit protocol on real threads.
//!
//! The original Deceit prototype ran live on SunOS workstations (§6);
//! this reproduction's experiments run on the deterministic simulator.
//! This crate closes the gap: it hosts the same protocol stack — segment
//! server, replication, tokens, stability, recovery, and the NFS envelope
//! — on real OS threads, serving concurrent client traffic over the
//! threaded [`deceit_net::live::LiveBus`] transport.
//!
//! The shape mirrors the paper's deployment:
//!
//! * each Deceit server is **one OS thread** running a message loop over
//!   the bus ([`ClusterRuntime`]), executing requests through the
//!   transport-agnostic [`deceit_nfs::NfsService`] /
//!   [`deceit_core::ProtocolHost`] seam;
//! * execution is **sharded** ([`shard`]): requests are classified
//!   (read-only / single-shard mutation / cross-shard / cell-wide, see
//!   [`deceit_core::OpClass`]), read-only requests run concurrently
//!   under a shared cell lock, and mutations take per-file shard locks
//!   in a fixed order;
//! * deferred protocol work (asynchronous propagation, write-back,
//!   stability timeouts, background replica generation), which the
//!   simulator drives from its event queue, fires here in two places: a
//!   request fires what is due in the slots it holds, inline, and a
//!   **pump thread** drains one ready slot per wake, round-robin, so
//!   background work trickles rather than bursts past the requests in
//!   flight; it naps 1 ms in a quiet cell (a ready slot waits ≤ 16 ms)
//!   and 16 ms while requests flow (a slot no request reaches waits
//!   ≤ 256 ms), so its timer does not preempt requests every
//!   millisecond;
//! * clients are [`RuntimeClient`] sessions carrying the NFS envelope
//!   over correlated RPC ([`deceit_net::rpc`]), with request pipelining;
//!   the §5.3 agent ([`deceit_agent::Agent`]) drives a session exactly
//!   as it drives the simulator's `NfsServer`, so the live cell runs the
//!   paper's client and its failover;
//! * **one harness for both worlds** ([`world`]): a [`World`] sends a
//!   request from a numbered session to a named server and applies a
//!   [`deceit_core::FaultEvent`] (crash, restart, split, heal, settle) to
//!   the cell. [`SimWorld`] serves through the simulator's request table,
//!   [`LiveWorld`] through these threads; a [`Scenario`] script, a
//!   [`nemesis`] storm or a differential replay is written once and runs
//!   in either, so outcomes compare directly.
//!
//! # Quick start
//!
//! ```
//! use deceit_runtime::{live_agent, ClusterRuntime, RuntimeConfig};
//!
//! let rt = ClusterRuntime::start(RuntimeConfig::new(3));
//! let mut session = rt.client();
//! let mut agent = live_agent(&session);
//! let root = session.root();
//! let (f, _) = agent.create(&mut session, root, "hello.txt", 0o644).unwrap();
//! agent.write(&mut session, f.handle, 0, b"from a real thread").unwrap();
//! let (data, _) = agent.read_file(&mut session, f.handle).unwrap();
//! assert_eq!(&data[..], b"from a real thread");
//! rt.shutdown();
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

pub mod client;
pub mod config;
pub mod error;
pub mod history;
pub mod nemesis;
pub mod obs;
pub mod runtime;
pub mod scenario;
pub mod shard;
pub mod world;

pub use client::{live_agent, RuntimeClient};
pub use config::RuntimeConfig;
pub use error::{RuntimeError, RuntimeResult};
pub use history::{HistoryRecorder, JournalHandle, NEMESIS_CLIENT};
pub use nemesis::{StormConfig, StormFailure, StormOutcome};
pub use obs::{CoreReport, EngineReport, ObsReport, RuntimeObs, OP_CLASSES, OP_CLASS_NAMES};
pub use runtime::{ClusterRuntime, RuntimeReport, RuntimeStats};
pub use scenario::{Scenario, ScenarioOutcome, ScenarioStep};
pub use world::{read_back, FileState, LiveWorld, SimWorld, World};
