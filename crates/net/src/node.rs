//! Machine identities.

use std::fmt;

/// Identity of one machine (server or client) in the simulated network.
///
/// The paper's cells contain "10-100 machines"; a `u32` is plenty. Node ids
/// are dense and assigned by the cluster builder, so they double as vector
/// indices throughout the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a usize index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    #[expect(
        clippy::expect_used,
        reason = "every caller converts an index into a cell's in-memory server list, and 2^32 servers (each a full engine state) cannot be built, so the index fits in u32"
    )]
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node index exceeds u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let n = NodeId::from(7usize);
        assert_eq!(n, NodeId(7));
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "n7");
        assert_eq!(NodeId::from(3u32), NodeId(3));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(NodeId(2) < NodeId(10));
    }
}
