//! Runtime deployment configuration.

use std::time::Duration;

use deceit_core::ClusterConfig;
use deceit_nfs::FsConfig;

/// Tunables of one live Deceit deployment.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of server threads in the cell.
    pub servers: usize,
    /// Protocol configuration handed to the cluster underneath.
    pub cluster: ClusterConfig,
    /// Envelope configuration.
    pub fs: FsConfig,
    /// How long a client waits for a reply before reporting a timeout
    /// (the live analogue of an NFS retransmission giving up).
    pub request_timeout: Duration,
    /// Shard slots in the concurrent execution layer: mutations of the
    /// same file serialize on its slot, and the pump drains deferred
    /// work slot by slot. More slots than servers keeps unrelated files
    /// off each other's locks without costing anything when idle.
    pub shards: usize,
}

impl RuntimeConfig {
    /// A deployment of `servers` servers with defaults tuned for live
    /// hosting: the asynchronous replicated-write pipeline on — a write
    /// acks at local durability (plus its safety-level replies) and the
    /// pump ships batched propagation, instead of the simulator's
    /// paper-faithful eager broadcast per update. The differential suite
    /// runs both worlds with this same config, so sim and live exercise
    /// the identical pipeline.
    pub fn new(servers: usize) -> Self {
        // §3.4's "short period of no write activity" is measured on the
        // protocol clock, which a busy live cell advances by ~20ms of
        // simulated disk time per write — the simulator's 500ms default
        // elapses in a few hundred microseconds of wall time, so any
        // thread-scheduling hiccup would "quiet" an active stream and
        // thrash the stable/unstable rounds. Live hosting stretches the
        // horizon accordingly; `settle` still stabilizes everything.
        // Read leases + read-repair recover the lock-free read path under
        // write streams: the token holder serves its own unstable files
        // at the acked durable prefix, and a read that meets a lagging
        // replica queues one targeted catch-up instead of forwarding
        // forever. Both off in the paper-faithful simulator default, on
        // here — the differential suite runs both worlds with this same
        // config, so sim and live exercise identical semantics.
        // Access-driven replica placement moves replicas toward the
        // servers that keep serving forwarded reads for them (off in the
        // paper-faithful simulator default, on here; the signal itself is
        // always-on obs atomics).
        let mut cluster = ClusterConfig::default()
            .with_write_pipeline()
            .with_read_leases()
            .with_read_repair()
            .with_placement();
        cluster.stability_timeout = deceit_sim::SimDuration::from_secs(30);
        // The lazy-apply delay doubles as the pipeline's batching window
        // (a drain fires when the protocol clock reaches it); at ~20ms
        // of simulated disk time per cell write, 5s ≈ a few hundred
        // writes of buffering headroom per stream. Lagging replicas are
        // unstable, so reads forward to the holder meanwhile.
        cluster.lazy_apply_delay = deceit_sim::SimDuration::from_secs(5);
        RuntimeConfig {
            servers,
            cluster,
            fs: FsConfig::default(),
            request_timeout: Duration::from_secs(3),
            shards: 16,
        }
    }

    /// Sets the client request timeout, builder-style.
    pub fn with_request_timeout(mut self, timeout: Duration) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Sets the shard-slot count, builder-style (clamped to at least 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::new(3)
    }
}

#[cfg(test)]
mod tests {
    use deceit_core::FaultEvent;
    use deceit_net::NodeId;

    use super::*;
    use crate::ClusterRuntime;

    #[test]
    fn defaults_enable_the_live_fast_paths() {
        let cfg = RuntimeConfig::new(5);
        assert_eq!(cfg.servers, 5);
        assert!(cfg.cluster.opt_write_pipeline, "live hosting pipelines replicated writes");
        assert!(cfg.cluster.opt_read_leases, "live hosting serves holder-local read leases");
        assert!(cfg.cluster.opt_read_repair, "live hosting repairs lagging replicas on read");
        assert!(cfg.cluster.opt_placement, "live hosting migrates replicas toward readers");
    }

    /// The failover budget follows the cell a session is in: a read
    /// whose every server is down sweeps the rest of the cell twice,
    /// then gives up — also in a cell sized by struct update from a
    /// config built for another size.
    #[test]
    fn retry_budget_scales_with_cell_size() {
        let resized = RuntimeConfig { servers: 5, ..RuntimeConfig::new(3) };
        for cfg in [RuntimeConfig::new(1), RuntimeConfig::new(3), resized] {
            let servers = cfg.servers as u32;
            let rt = ClusterRuntime::start(cfg);
            let mut client = rt.client_homed(NodeId(0));
            let root = client.root();
            for server in 0..servers {
                rt.fault(&FaultEvent::Crash { server });
            }
            assert!(client.getattr(root).is_err(), "no server is up");
            let obs = rt.observe();
            assert_eq!(obs.failover_retries, u64::from(2 * (servers - 1)), "{servers} servers");
            assert_eq!(obs.failover_exhausted, u64::from(servers > 1), "{servers} servers");
            rt.shutdown();
        }
    }
}
