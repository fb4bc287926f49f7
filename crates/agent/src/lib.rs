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

pub use cache::{AttrCache, DataCache};
pub use config::{AgentConfig, AgentPlacement};
pub use driver::Agent;
