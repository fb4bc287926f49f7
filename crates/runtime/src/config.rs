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
    /// the identical pipeline. Replicas move toward their readers only as
    /// the paper moves them: §3.1's migration is the per-file `migration`
    /// parameter, off by default (§4), in live hosting as in the
    /// simulator. §3.3's second token optimization is on: a small write
    /// at a server that holds a replica but not the token is passed to
    /// the holder, so competing writers leave the token parked instead of
    /// passing it back and forth; a server without a replica still takes
    /// the token, and with it the replica its reads are then served from.
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
        // at the acked durable prefix, and other replica holders' reads
        // forward to that lease in one visit each side; once the stream
        // is quiet, a read that meets a lagging replica queues one
        // targeted catch-up instead of forwarding forever. Both off in the paper-faithful simulator default, on
        // here — the differential suite runs both worlds with this same
        // config, so sim and live exercise identical semantics.
        let mut cluster =
            ClusterConfig::default().with_write_pipeline().with_read_leases().with_read_repair();
        cluster.stability_timeout = deceit_sim::SimDuration::from_secs(30);
        // The lazy-apply delay doubles as the pipeline's batching window
        // (a drain fires when the protocol clock reaches it); at ~20ms
        // of simulated disk time per cell write, 5s ≈ a few hundred
        // writes of buffering headroom per stream. Lagging replicas are
        // unstable, so reads forward to the holder meanwhile.
        cluster.lazy_apply_delay = deceit_sim::SimDuration::from_secs(5);
        // A small write from a replica holder reaches the token holder in
        // one forward, decided before anything is loaded, and is read and
        // written there; `forward_small_threshold` keeps the core default
        // and compares the update, not the file.
        cluster.opt_forward_small = true;
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
    use super::*;

    #[test]
    fn defaults_enable_the_live_fast_paths() {
        let cfg = RuntimeConfig::new(5);
        assert_eq!(cfg.servers, 5);
        assert!(cfg.cluster.opt_write_pipeline, "live hosting pipelines replicated writes");
        assert!(cfg.cluster.opt_read_leases, "live hosting serves holder-local read leases");
        assert!(cfg.cluster.opt_read_repair, "live hosting repairs lagging replicas on read");
        assert!(cfg.cluster.opt_forward_small, "live hosting forwards small writes to the holder");
        assert!(!cfg.cluster.opt_piggyback_acquire, "§3.3 optimization 1 stays off");
        assert_eq!(
            cfg.cluster.forward_small_threshold,
            deceit_core::ClusterConfig::default().forward_small_threshold
        );
        let fs = &cfg.fs;
        assert!(
            ![fs.root_params, fs.dir_params, fs.file_params].iter().any(|p| p.migration),
            "§4: live hosting migrates only files marked `migration`, and none is by default"
        );
    }
}
