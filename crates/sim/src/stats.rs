//! The owned counter snapshot a protocol host exports.
//!
//! The counters themselves live with the engine that bumps them (the
//! protocol core keeps one fixed table of atomics); this is the copy an
//! exporter or a test reads out of it.

/// A point-in-time copy of an engine's protocol counters: every
/// counter's name and value, in the engine's table order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Every counter's name and value.
    pub counters: Vec<(&'static str, u64)>,
}

impl StatsSnapshot {
    /// The named counter's value, or `None` if the engine keeps no
    /// counter of that name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}
