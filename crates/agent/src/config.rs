//! Agent configuration.

use deceit_sim::SimDuration;

/// Where the agent code runs relative to the user process — the paper's
/// Figure 8: "These different configurations provide widely differing
/// performance."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentPlacement {
    /// In-kernel agent (the SunOS default Deceit uses today): a system
    /// call on every operation.
    Kernel,
    /// User-loadable library issuing NFS RPCs directly ("this agent should
    /// greatly improve file performance"): a plain procedure call.
    UserLibrary,
    /// Auxiliary user process: local interprocess communication on every
    /// operation — the slowest placement.
    AuxProcess,
}

impl AgentPlacement {
    /// One-way cost of crossing from the user process into the agent.
    pub fn crossing_cost(self) -> SimDuration {
        match self {
            AgentPlacement::Kernel => SimDuration::from_micros(150),
            AgentPlacement::UserLibrary => SimDuration::from_micros(5),
            AgentPlacement::AuxProcess => SimDuration::from_micros(400),
        }
    }

    /// Human-readable label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            AgentPlacement::Kernel => "kernel",
            AgentPlacement::UserLibrary => "user-library",
            AgentPlacement::AuxProcess => "aux-process",
        }
    }
}

/// Agent tunables.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Agent placement (Figure 8).
    pub placement: AgentPlacement,
    /// How long cached attributes stay valid.
    pub attr_ttl: SimDuration,
    /// Whether whole-file data caching is enabled ("Deceit also supports
    /// client memory caching", §3).
    pub data_cache: bool,
    /// Whether the agent fails over to another server when its server
    /// dies (§5.3; "standard NFS client software does not provide this
    /// capability", §2.1).
    pub failover: bool,
    /// Whether the agent caches file locations and talks directly to the
    /// correct server ("access shortcut", §5.3).
    pub shortcut: bool,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            placement: AgentPlacement::Kernel,
            attr_ttl: SimDuration::from_secs(3),
            data_cache: true,
            failover: true,
            shortcut: false,
        }
    }
}

impl AgentConfig {
    /// The standard Sun NFS client the prototype currently uses (§5.3):
    /// kernel agent, no failover, no shortcut.
    pub fn sun_stock() -> Self {
        AgentConfig { failover: false, shortcut: false, ..AgentConfig::default() }
    }

    /// A user-library agent that caches nothing — attributes and name
    /// bindings expire as they arrive — but fails over: what every live
    /// session runs until live §5.3 caching is measured.
    pub fn uncached() -> Self {
        let full = AgentConfig::user_library_full();
        AgentConfig { attr_ttl: SimDuration::ZERO, data_cache: false, shortcut: false, ..full }
    }

    /// The planned full-function user-library agent (§5.3).
    pub fn user_library_full() -> Self {
        AgentConfig {
            placement: AgentPlacement::UserLibrary,
            failover: true,
            shortcut: true,
            ..AgentConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_order_by_cost() {
        assert!(
            AgentPlacement::UserLibrary.crossing_cost() < AgentPlacement::Kernel.crossing_cost()
        );
        assert!(
            AgentPlacement::Kernel.crossing_cost() < AgentPlacement::AuxProcess.crossing_cost()
        );
    }

    #[test]
    fn profiles() {
        assert!(!AgentConfig::sun_stock().failover);
        let full = AgentConfig::user_library_full();
        assert!(full.failover && full.shortcut);
        assert_eq!(full.placement.label(), "user-library");
    }
}
