//! The Deceit client agent.
//!
//! §5.3: "The agent is the client software which interfaces between the
//! user process and the NFS protocol. … The agent satisfies two primary
//! functions. First, the agent provides caching. The agent caches file and
//! directory data as well as information specific to the client/server
//! protocol such as NFS file handles and server information. Another agent
//! function in Deceit is failover. When one server fails, the agent must
//! select another to continue operation. … A third optional agent function
//! is using an access shortcut."
//!
//! This crate holds the reproduction's one client. An [`Agent`] sends its
//! requests over an [`AgentLink`]: the simulator's `NfsServer` (the
//! experiments and simulator tests) or the live runtime's client session
//! (`deceit_runtime::RuntimeClient`), so both worlds run the same caching,
//! failover and shortcut code. Live callers turn the caches off with
//! [`AgentConfig::uncached`].
//!
//! Figure 8's configurations (kernel agent, user-loadable library,
//! auxiliary user process) are modeled as per-call overhead profiles in
//! [`AgentPlacement`]; the `fig8` experiment sweeps them.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod cache;
pub mod config;
pub mod driver;
pub mod link;

pub use cache::Cache;
pub use config::{AgentConfig, AgentPlacement};
pub use driver::Agent;
pub use link::{AgentLink, Failover, Leg, Timed, Undelivered};
