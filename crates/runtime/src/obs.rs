//! Runtime-side observability: per-op-class latency, pump behavior, and
//! the unified [`ObsReport`] export.
//!
//! The simulator measures *simulated* latencies through its event clock;
//! the live runtime measures wall-clock ones. [`RuntimeObs`] holds the
//! request-boundary histograms — recorded by [`crate::RuntimeClient`] at
//! the request/reply boundary, classified by the request's
//! [`OpClass`] — plus the pump's idle/busy transition counters and the
//! sessions' failover counters. Everything is lock-free atomics
//! ([`AtomicHistogram`] buckets and relaxed counters), always on, and
//! shared by `Arc` between the runtime handle, every server thread, and
//! every client session.
//!
//! [`ClusterRuntime::observe`](crate::ClusterRuntime::observe) folds
//! these together with the engine's lock-level telemetry
//! (`crate::shard`) and the protocol core's [`deceit_core::ObsCore`] —
//! its histograms, flight-recorder totals and event counters — into one
//! [`ObsReport`], which
//! [`ObsReport::to_json`] serializes without any serializer dependency.

use deceit_core::{AtomicHistogram, HistCounts, HistSummary, OpClass};
use deceit_sim::atomic::RelaxedU64;
use deceit_sim::StatsSnapshot;

use crate::runtime::RuntimeStats;

/// Number of op classes tracked by [`RuntimeObs::op_latency`].
pub const OP_CLASSES: usize = 4;

/// Stable export names for the op-class histograms, indexed by
/// [`op_class_index`].
pub const OP_CLASS_NAMES: [&str; OP_CLASSES] = ["read_only", "mutate", "cross_shard", "cell_wide"];

/// Maps an [`OpClass`] to its histogram index.
pub fn op_class_index(class: OpClass) -> usize {
    match class {
        OpClass::ReadOnly => 0,
        OpClass::Mutate(_) => 1,
        OpClass::CrossShard(..) => 2,
        OpClass::CellWide => 3,
    }
}

/// The runtime's always-on observability bundle.
#[derive(Debug)]
pub struct RuntimeObs {
    /// End-to-end request latency (microseconds), client submit to reply
    /// receipt, one histogram per op class — see [`OP_CLASS_NAMES`].
    pub op_latency: [AtomicHistogram; OP_CLASSES],
    /// Pump transitions into the idle loop (no deferred work pending).
    pub pump_to_idle: RelaxedU64,
    /// Pump transitions back to draining (work appeared after idling).
    pub pump_to_busy: RelaxedU64,
    /// Read-only failover attempts (every retried send after the home
    /// server failed, successful or not), summed over all sessions.
    pub failover_retries: RelaxedU64,
    /// Requests whose two failover sweeps found no live server and
    /// surfaced the transport error.
    pub failover_exhausted: RelaxedU64,
}

impl Default for RuntimeObs {
    fn default() -> Self {
        RuntimeObs::new()
    }
}

impl RuntimeObs {
    /// A zeroed bundle.
    pub fn new() -> Self {
        RuntimeObs {
            op_latency: std::array::from_fn(|_| AtomicHistogram::new()),
            pump_to_idle: RelaxedU64::new(0),
            pump_to_busy: RelaxedU64::new(0),
            failover_retries: RelaxedU64::new(0),
            failover_exhausted: RelaxedU64::new(0),
        }
    }

    /// Records one completed request of `class` that took `elapsed`.
    pub fn record_op(&self, class: OpClass, elapsed: std::time::Duration) {
        self.op_latency[op_class_index(class)].record_micros(elapsed);
    }

    /// Point-in-time bucket counts of every op-class histogram — the
    /// interval primitive: snapshot before and after a timed section,
    /// subtract with [`HistCounts::since`], merge, take percentiles.
    pub fn op_latency_counts(&self) -> [HistCounts; OP_CLASSES] {
        std::array::from_fn(|i| self.op_latency[i].counts())
    }
}

/// Lock-level telemetry of the sharded engine, exported.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Shared (read) cell-lock acquisitions.
    pub shared_acquisitions: u64,
    /// Exclusive (write) cell-lock acquisitions.
    pub exclusive_acquisitions: u64,
    /// Cell-lock acquisition wait (queue wait), microseconds.
    pub cell_wait: HistSummary,
    /// Ring-lock hold time, microseconds.
    pub ring_hold: HistSummary,
}

/// Protocol-core telemetry ([`deceit_core::ObsCore`]), exported.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreReport {
    /// Outbound-stream drain batch sizes.
    pub drain_batch: HistSummary,
    /// Read-lease validations that failed and left the lock-free path.
    pub lease_validation_failures: u64,
    /// Protocol events ever flight-recorded, per server.
    pub flight_events: Vec<u64>,
    /// Replica-placement activity: migrations proposed / executed /
    /// vetoed by the replication floor, replicas retired, counter decay
    /// rollovers.
    pub placement: deceit_core::PlacementSnapshot,
}

/// The unified observability export of a running cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Request latency summaries, one per op class, named per
    /// [`OP_CLASS_NAMES`].
    pub op_latency: Vec<(&'static str, HistSummary)>,
    /// Pump busy→idle transitions.
    pub pump_to_idle: u64,
    /// Pump idle→busy transitions.
    pub pump_to_busy: u64,
    /// Read-only failover attempts across all sessions.
    pub failover_retries: u64,
    /// Requests whose two failover sweeps found no live server.
    pub failover_exhausted: u64,
    /// Sharded-engine lock telemetry.
    pub engine: EngineReport,
    /// Protocol-core telemetry, when the engine carries an `ObsCore`.
    pub core: Option<CoreReport>,
    /// The protocol's event counters ([`deceit_core::Stat`]), when the
    /// engine keeps them.
    pub stats: Option<StatsSnapshot>,
    /// The lock-free traffic counters.
    pub runtime: RuntimeStats,
}

impl ObsReport {
    /// Serializes the report as a JSON object (hand-rolled: the
    /// workspace has no JSON dependency).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"op_latency\": {");
        for (i, (name, s)) in self.op_latency.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {}", summary_json(s));
        }
        out.push_str("\n  },\n");
        let _ = writeln!(
            out,
            "  \"pump\": {{\"to_idle\": {}, \"to_busy\": {}}},",
            self.pump_to_idle, self.pump_to_busy
        );
        let _ = writeln!(
            out,
            "  \"failover\": {{\"retries\": {}, \"exhausted\": {}}},",
            self.failover_retries, self.failover_exhausted
        );
        let e = &self.engine;
        let _ = write!(
            out,
            "  \"engine\": {{\n    \"shared_acquisitions\": {},\n    \"exclusive_acquisitions\": {},\n    \"cell_wait\": {},\n    \"ring_hold\": {}\n  }},\n",
            e.shared_acquisitions,
            e.exclusive_acquisitions,
            summary_json(&e.cell_wait),
            summary_json(&e.ring_hold),
        );
        match &self.core {
            Some(c) => {
                let p = &c.placement;
                let _ = write!(
                    out,
                    "  \"core\": {{\n    \"drain_batch\": {},\n    \"lease_validation_failures\": {},\n    \"flight_events\": {:?},\n    \"placement\": {{\"migrations_proposed\": {}, \"migrations_executed\": {}, \"migrations_vetoed_floor\": {}, \"replicas_retired\": {}, \"decay_epochs\": {}}}\n  }},\n",
                    summary_json(&c.drain_batch),
                    c.lease_validation_failures,
                    c.flight_events,
                    p.migrations_proposed,
                    p.migrations_executed,
                    p.migrations_vetoed_floor,
                    p.replicas_retired,
                    p.decay_epochs,
                );
            }
            None => out.push_str("  \"core\": null,\n"),
        }
        match &self.stats {
            Some(s) => {
                out.push_str("  \"stats\": {");
                for (i, (name, v)) in s.counters.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{sep}\n    \"{name}\": {v}");
                }
                out.push_str("\n  },\n");
            }
            None => out.push_str("  \"stats\": null,\n"),
        }
        let r = &self.runtime;
        let _ = write!(
            out,
            "  \"runtime\": {{\"requests_served\": {}, \"requests_served_shared\": {}, \"requests_served_sharded\": {}, \"bus_delivered\": {}, \"bus_rejected\": {}, \"bus_dropped_stale\": {}, \"bus_wakes\": {}, \"bus_yields\": {}, \"clock_reads\": {}, \"pending_work\": {}}}\n}}",
            r.requests_served,
            r.requests_served_shared,
            r.requests_served_sharded,
            r.bus_delivered,
            r.bus_rejected,
            r.bus_dropped_stale,
            r.bus_wakes,
            r.bus_yields,
            r.clock_reads,
            r.pending_work,
        );
        out
    }
}

fn summary_json(s: &HistSummary) -> String {
    format!(
        "{{\"count\": {}, \"mean_us\": {:.3}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
        s.count, s.mean, s.p50, s.p90, s.p99, s.max
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(values: &[u64]) -> HistSummary {
        let h = AtomicHistogram::new();
        for &v in values {
            h.record(v);
        }
        h.summary()
    }

    #[test]
    fn op_class_indices_cover_every_class_once() {
        let key: deceit_core::ShardKey = 1;
        let classes = [
            OpClass::ReadOnly,
            OpClass::Mutate(key),
            OpClass::CrossShard(key, 2),
            OpClass::CellWide,
        ];
        let mut seen = [false; OP_CLASSES];
        for c in classes {
            let i = op_class_index(c);
            assert!(!seen[i], "class index {i} assigned twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "every histogram slot must be reachable");
        assert_eq!(OP_CLASS_NAMES.len(), OP_CLASSES);
    }

    /// A report with fixed figures around `stats`.
    fn report_with(stats: StatsSnapshot) -> ObsReport {
        ObsReport {
            op_latency: vec![("read_only", summary_of(&[10, 20, 30]))],
            pump_to_idle: 2,
            pump_to_busy: 1,
            failover_retries: 5,
            failover_exhausted: 1,
            engine: EngineReport {
                shared_acquisitions: 7,
                exclusive_acquisitions: 3,
                cell_wait: summary_of(&[1]),
                ring_hold: summary_of(&[2]),
            },
            core: Some(CoreReport {
                drain_batch: summary_of(&[3, 3]),
                lease_validation_failures: 1,
                flight_events: vec![12, 0, 5],
                placement: deceit_core::PlacementSnapshot {
                    migrations_proposed: 4,
                    migrations_executed: 3,
                    migrations_vetoed_floor: 1,
                    replicas_retired: 2,
                    decay_epochs: 6,
                },
            }),
            stats: Some(stats),
            runtime: RuntimeStats {
                bus_delivered: 100,
                bus_rejected: 0,
                bus_dropped_stale: 0,
                bus_wakes: 3,
                bus_yields: 97,
                clock_reads: 200,
                requests_served: 50,
                requests_served_shared: 40,
                requests_served_sharded: 8,
                pending_work: 0,
            },
        }
    }

    #[test]
    fn report_serializes_as_json_with_percentile_fields() {
        let core = deceit_core::ObsCore::new(3);
        core.bump(deceit_core::Stat::TokenPasses);
        let json = report_with(core.stats()).to_json();
        for needle in [
            "\"op_latency\"",
            "\"read_only\"",
            "\"p50_us\"",
            "\"p90_us\"",
            "\"p99_us\"",
            "\"failover\": {\"retries\": 5, \"exhausted\": 1}",
            "\"shared_acquisitions\": 7",
            "\"lease_validation_failures\": 1",
            "\"flight_events\": [12, 0, 5]",
            "\"placement\": {\"migrations_proposed\": 4, \"migrations_executed\": 3, \"migrations_vetoed_floor\": 1, \"replicas_retired\": 2, \"decay_epochs\": 6}",
            "\"core/token/passes\": 1",
            "\"requests_served\": 50",
            "\"bus_wakes\": 3, \"bus_yields\": 97, \"clock_reads\": 200",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces — the cheap structural sanity check available
        // without a JSON parser in-tree.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced JSON braces:\n{json}");
    }

    #[test]
    fn every_stat_appears_once_in_json() {
        let json = report_with(deceit_core::ObsCore::new(3).stats()).to_json();
        for stat in deceit_core::Stat::ALL {
            let key = format!("\"{}\": ", stat.name());
            assert_eq!(json.matches(&key).count(), 1, "{key} in:\n{json}");
        }
    }

    #[test]
    fn runtime_obs_records_by_class() {
        let obs = RuntimeObs::new();
        obs.record_op(OpClass::ReadOnly, std::time::Duration::from_micros(10));
        obs.record_op(OpClass::CellWide, std::time::Duration::from_micros(99));
        let counts = obs.op_latency_counts();
        assert_eq!(counts[0].count(), 1);
        assert_eq!(counts[1].count(), 0);
        assert_eq!(counts[3].count(), 1);
    }
}
