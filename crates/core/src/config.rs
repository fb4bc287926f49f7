//! Deployment configuration.

use deceit_net::{BlastConfig, LatencyModel};
use deceit_sim::SimDuration;
use deceit_storage::DiskConfig;

/// Tunables of one Deceit deployment (one cell).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Intra-cell message latency model.
    pub latency: LatencyModel,
    /// Local disk timing.
    pub disk: DiskConfig,
    /// Blast transfer channel for replica generation (§3.1).
    pub blast: BlastConfig,
    /// "A short period of no write activity" after which the token holder
    /// marks the file stable again (§3.4).
    pub stability_timeout: SimDuration,
    /// Write-behind delay at replicas that are not on the synchronous
    /// reply path: they acknowledge receipt immediately but apply the
    /// update after this delay (§1: "Asynchronous update propagation can
    /// produce dramatic improvements in performance. Note that an update
    /// can be visible to all clients before it has been delivered to all
    /// file replicas.").
    pub lazy_apply_delay: SimDuration,
    /// Cost of serving a read from a local stable replica (buffer-cache
    /// hit path).
    pub local_read: SimDuration,
    /// Replicas not accessed within this window count as "extra" and are
    /// eligible for least-recently-used deletion on update (§3.1).
    pub lru_keep: SimDuration,
    /// RNG seed for the run.
    pub seed: u64,
    /// §3.3 optimization 1: "broadcast an update in the same message with
    /// a token request; replica holders execute those updates upon
    /// receiving the corresponding token pass." When enabled, acquiring a
    /// token for a write costs no separate request round — the update
    /// broadcast carries it. The paper's prototype "currently uses
    /// neither" optimization, so the default is off.
    pub opt_piggyback_acquire: bool,
    /// §3.3 optimization 2: "pass an update to the current token holder
    /// instead of requesting the token if it is likely that there will be
    /// only one update; for example, a small file that is overwritten in a
    /// single update." Only a server that already holds a replica of the
    /// file forwards; one without a replica takes the token, and with it
    /// a replica, as without the option. Off by default, as in the paper;
    /// the live runtime turns it on.
    pub opt_forward_small: bool,
    /// Size bound at or below which optimization 2 applies, compared
    /// with what the forward carries: a core write's wire size, or for a
    /// mutation through the NFS envelope, which decides the forward
    /// before it loads anything, the update itself — a `WRITE`'s data
    /// behind its 16-byte header, a `SETATTR`'s arguments, a directory
    /// entry. So a small write to a large file is small here; the
    /// forwarded mutation then reads and writes the holder's primary
    /// copy, and the update is still distributed as the whole segment
    /// image (ROADMAP item 7).
    pub forward_small_threshold: usize,
    /// The asynchronous replicated-write pipeline (§3.3's "only the first
    /// s correct replies" taken to its logical end, §1's asynchronous
    /// update propagation): the token holder applies an update locally,
    /// appends it to the file's outbound update stream, and acknowledges
    /// the client as soon as its own state is durable (plus the first
    /// `write_safety - 1` synchronous remote replies, when required).
    /// Propagation to the remaining replicas is deferred work, drained by
    /// the pump with consecutive updates to the same file batched into
    /// one group broadcast. Off by default: the paper's prototype
    /// distributes every update eagerly, and the simulator experiments
    /// reproduce that behavior. The live runtime turns it on.
    pub opt_write_pipeline: bool,
    /// Holder-local read leases: while a write stream keeps a file's
    /// group unstable (§3.4 forwards every other server's reads to the
    /// token holder), the holder itself publishes a volatile per-file
    /// read lease naming its acked durable prefix, and the lock-free
    /// read fast path serves the holder's own unstable replica against
    /// it — the §3.4 "the holder answers directly" case without ring
    /// locks. Off by default: the paper's prototype has no lock-free
    /// read path to recover. The live runtime turns it on.
    pub opt_read_leases: bool,
    /// Read-repair: a read that meets a lagging, unstable replica whose
    /// write stream has gone quiet enqueues one targeted per-file
    /// catch-up (due-gated, single-flighted) that state-transfers the
    /// laggard from the durable primary and marks it stable — instead
    /// of forwarding every subsequent read until the next stabilize
    /// round happens to cover it. Only the full read path's forward arms
    /// one: a forward the holder's read lease answers happens
    /// mid-stream, where a repair stands down and the §3.4 stabilize
    /// round owns catch-up, so a laggard that round misses is armed by
    /// its first full-path forward once the lease is gone. Off by
    /// default: the paper's prototype leaves laggards to the §3.4
    /// stabilize horizon. The live runtime turns it on.
    pub opt_read_repair: bool,
    /// Fault-injection knob for the consistency auditor's mutation test:
    /// when set, the write pipeline's safety lane counts a remote reply
    /// as durable WITHOUT verifying the replica is current through the
    /// acknowledged update (no outbound catch-up, no state transfer on a
    /// sequence gap — the exact hardening PR 4 added). Acked durability
    /// then silently degrades whenever a safety target rejoins with a
    /// gap, which `core::audit` must detect. Never enable outside tests.
    pub danger_skip_safety_currency: bool,
    /// Shard slots the hot state (replica/token tables, delivery buffers,
    /// branch tables, the deferred-work queue) is partitioned into. A
    /// concurrent host's ring locks must use the same count so that
    /// holding a file's ring slot covers exactly the file's data slice.
    /// Clamped to 1..=64 (the pending-work scan is a `u64` mask).
    pub shards: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            latency: LatencyModel::lan(),
            disk: DiskConfig::workstation(),
            blast: BlastConfig::ethernet_10mb(),
            stability_timeout: SimDuration::from_millis(500),
            lazy_apply_delay: SimDuration::from_millis(50),
            local_read: SimDuration::from_millis(2),
            lru_keep: SimDuration::from_secs(300),
            seed: 0xDECE17,
            opt_piggyback_acquire: false,
            opt_forward_small: false,
            forward_small_threshold: 4096,
            opt_write_pipeline: false,
            opt_read_leases: false,
            opt_read_repair: false,
            danger_skip_safety_currency: false,
            shards: 16,
        }
    }
}

impl ClusterConfig {
    /// A configuration with deterministic fixed network latency, used by
    /// tests that assert exact timings.
    pub fn deterministic() -> Self {
        ClusterConfig {
            latency: LatencyModel::Fixed(SimDuration::from_millis(2)),
            ..ClusterConfig::default()
        }
    }

    /// Sets the seed, builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables both §3.3 token-protocol optimizations, builder-style.
    pub fn with_token_optimizations(mut self) -> Self {
        self.opt_piggyback_acquire = true;
        self.opt_forward_small = true;
        self
    }

    /// Enables the asynchronous replicated-write pipeline, builder-style
    /// (see [`ClusterConfig::opt_write_pipeline`]).
    pub fn with_write_pipeline(mut self) -> Self {
        self.opt_write_pipeline = true;
        self
    }

    /// Enables holder-local read leases, builder-style (see
    /// [`ClusterConfig::opt_read_leases`]).
    pub fn with_read_leases(mut self) -> Self {
        self.opt_read_leases = true;
        self
    }

    /// Enables read-repair, builder-style (see
    /// [`ClusterConfig::opt_read_repair`]).
    pub fn with_read_repair(mut self) -> Self {
        self.opt_read_repair = true;
        self
    }

    /// Sets the hot-state shard count, builder-style (clamped to 1..=64).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.clamp(1, 64);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ClusterConfig::default();
        assert!(c.stability_timeout > c.lazy_apply_delay, "stabilize after apply");
    }

    #[test]
    fn token_optimizations_default_off() {
        // §3.3: "Deceit currently uses neither of these optimizations."
        let c = ClusterConfig::default();
        assert!(!c.opt_piggyback_acquire);
        assert!(!c.opt_forward_small);
        assert!(!c.opt_write_pipeline, "the paper's prototype distributes updates eagerly");
        assert!(!c.opt_read_leases, "the paper's prototype has no lock-free read path");
        assert!(!c.opt_read_repair, "the paper's prototype waits for the stabilize horizon");
        assert!(!c.danger_skip_safety_currency, "the mutation knob must never default on");
        let on = ClusterConfig::default().with_token_optimizations();
        assert!(on.opt_piggyback_acquire && on.opt_forward_small);
        assert!(ClusterConfig::default().with_write_pipeline().opt_write_pipeline);
        assert!(ClusterConfig::default().with_read_leases().opt_read_leases);
        assert!(ClusterConfig::default().with_read_repair().opt_read_repair);
    }

    #[test]
    fn builders() {
        let c = ClusterConfig::deterministic().with_seed(9);
        assert_eq!(c.seed, 9);
        assert_eq!(c.latency, LatencyModel::Fixed(SimDuration::from_millis(2)));
    }
}
