//! Figure 8: agent/server configurations.
//!
//! "Currently, the agent runs in the kernel, but the agent can be in
//! several possible locations. … These different configurations provide
//! widely differing performance."

use deceit::prelude::*;
use deceit_sim::SimRng;

use crate::table::Table;
use crate::workload::{self, OpMix, WorkOp};

/// Result for one agent configuration.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Configuration label.
    pub label: String,
    /// Mean latency per operation (microseconds).
    pub mean_us: f64,
    /// RPCs sent per operation.
    pub rpcs_per_op: f64,
}

/// Runs the §2.3 op mix through one agent configuration.
pub fn measure(label: &str, cfg: AgentConfig, ops: usize) -> ConfigResult {
    let mut fs = DeceitFs::new(3, ClusterConfig::default().with_seed(88), FsConfig::default());
    let mut rng = SimRng::new(88);
    let corpus = workload::build_corpus(&mut fs, &mut rng, 3, 12, FileParams::default());
    let mut srv = NfsServer::new(fs);
    let mut agent = Agent::new(NodeId(100), NodeId(0), cfg);
    let script = workload::generate_ops(&mut rng, &corpus, OpMix::default(), ops);

    let mut total = SimDuration::ZERO;
    for op in &script {
        let (fh, dir_idx) = corpus.files[op.file()];
        let lat = match op {
            WorkOp::Getattr { .. } => agent.getattr(&mut srv, fh).map(|(_, l)| l),
            WorkOp::Lookup { file } => {
                agent.lookup(&mut srv, corpus.dirs[dir_idx], &corpus.names[*file]).map(|(_, l)| l)
            }
            WorkOp::Read { .. } => agent.read_file(&mut srv, fh).map(|(_, l)| l),
            WorkOp::Write { bytes, .. } => {
                let body = vec![0xEEu8; *bytes];
                agent.write(&mut srv, fh, 0, &body).map(|(_, l)| l)
            }
        }
        .expect("workload op failed");
        total += lat;
    }
    ConfigResult {
        label: label.to_string(),
        mean_us: total.as_micros() as f64 / ops as f64,
        rpcs_per_op: agent.rpcs_sent as f64 / ops as f64,
    }
}

/// The Figure 8 sweep: placements × (caching, shortcut).
pub fn run() -> (Table, Vec<ConfigResult>) {
    let ops = 300;
    let mk = |placement, data_cache, shortcut| AgentConfig {
        placement,
        data_cache,
        shortcut,
        ..AgentConfig::default()
    };
    let configs = vec![
        ("kernel agent (current prototype)", mk(AgentPlacement::Kernel, true, false)),
        ("kernel agent, no caching", mk(AgentPlacement::Kernel, false, false)),
        ("aux user process", mk(AgentPlacement::AuxProcess, true, false)),
        ("user library (planned)", mk(AgentPlacement::UserLibrary, true, false)),
        ("user library + shortcut", mk(AgentPlacement::UserLibrary, true, true)),
    ];
    let mut results = Vec::new();
    let mut t = Table::new(
        "Figure 8 — agent configurations under the §2.3 op mix",
        &["configuration", "mean op latency (us)", "RPCs/op"],
    );
    for (label, cfg) in configs {
        let r = measure(label, cfg, ops);
        t.row(&[r.label.clone(), format!("{:.0}", r.mean_us), format!("{:.2}", r.rpcs_per_op)]);
        results.push(r);
    }
    (t, results)
}

#[cfg(test)]
mod tests {
    #[test]
    fn caching_and_placement_shape_hold() {
        let (_, rs) = super::run();
        let by_label = |l: &str| rs.iter().find(|r| r.label.contains(l)).unwrap();
        // Caching dominates: no-cache kernel agent is slower than cached.
        assert!(by_label("no caching").mean_us > by_label("current prototype").mean_us);
        // Placement ordering on equal caching: user library < kernel < aux.
        assert!(by_label("planned").mean_us < by_label("current prototype").mean_us);
        assert!(by_label("current prototype").mean_us < by_label("aux user").mean_us);
    }
}
