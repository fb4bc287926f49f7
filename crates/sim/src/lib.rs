//! Deterministic discrete-event simulation kernel for the Deceit reproduction.
//!
//! The original Deceit prototype ran on SunOS workstations over a campus
//! Ethernet. This reproduction replaces that testbed with a deterministic
//! simulation so that every experiment in the paper can be regenerated
//! bit-for-bit from a seed. The kernel is deliberately tiny and generic:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution simulated clock.
//! * [`EventQueue`] — a stable (FIFO-within-timestamp) pending-event queue.
//! * [`SimRng`] — a seeded RNG with the distributions the workload models
//!   need (Zipf, truncated log-normal, exponential).
//! * [`StatsSnapshot`] — the owned copy of an engine's protocol counters.
//! * [`atomic`] — the one place std atomics are named, each type fixing
//!   its memory ordering.
//! * [`wall`] — the one counted wall clock the live runtime reads.
//! * [`leaf`] — the one counted, poison-tolerant leaf-lock acquisition.
//! * [`InlineVec`] — a short list held in place, for per-request lists.

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

pub mod atomic;
pub mod events;
pub mod inline;
pub mod leaf;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wall;

pub use events::EventQueue;
pub use inline::InlineVec;
pub use rng::SimRng;
pub use stats::StatsSnapshot;
pub use time::{SimDuration, SimTime};
