//! The traced run: where a request's time and messages go, layer by
//! layer (layers = the repository's crates).
//!
//! Three sources, all outside the program. *Spans* from a closed-loop
//! section on a cell whose engine sits behind [`Traced`]. *Counters*
//! the crates already keep, read through public accessors before and
//! after that section. *Probes* that call one layer's API directly.
//! End-to-end figures never come from here: the plain cell is run too,
//! only to price the tracing itself and to feed the open-loop
//! generator's own health metrics.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deceit_core::HistSummary;
use deceit_net::{NetStats, NodeId};
use deceit_nfs::NfsServer;
use deceit_runtime::{ClusterRuntime, RuntimeConfig, RuntimeStats};

use crate::loadgen::{closed_loop, open_loop, Driver, Until};
use crate::probe;
use crate::reference::Reference;
use crate::run::{bring_up, final_check, plain_cell, retire, Metric, Outcome, Plan};
use crate::stats::{mean, percentile};
use crate::trace::{summarize, trace_file, SpanKind, Traced, Tracer};
use crate::workload::{Spec, SERVERS, SESSIONS};

/// Requests kept in the trace file (with everything that ran beside
/// them); the metrics use every span.
const TRACE_FILE_OPS: usize = 20_000;

type TracedRuntime = ClusterRuntime<Traced<NfsServer>>;

/// One reading of every counter the layers keep.
struct Counters {
    runtime: RuntimeStats,
    shared_acquisitions: u64,
    exclusive_acquisitions: u64,
    cell_wait: HistSummary,
    ring_hold: HistSummary,
    failover_retries: u64,
    lease_failures: u64,
    drain_batch: HistSummary,
    migrations: u64,
    net: NetStats,
    segment_ops: u64,
    view_changes: u64,
    groups_peak: usize,
    sync_writes: u64,
    async_writes: u64,
}

impl Counters {
    /// `with_engine` takes the exclusive cell lock and `observe` counts
    /// acquisitions, so the reading that opens a section looks at the
    /// engine first and the one that closes it last: neither's own lock
    /// lands inside the interval.
    fn take(rt: &TracedRuntime, opening: bool) -> Counters {
        let engine = |rt: &TracedRuntime| {
            rt.with_engine(|e| {
                let c = &e.inner.fs.cluster;
                let servers = (0..SERVERS).map(|i| c.server(NodeId::from(i)));
                (
                    c.net.stats(),
                    servers
                        .clone()
                        .map(|s| s.ops_served.load(std::sync::atomic::Ordering::Relaxed))
                        .sum(),
                    c.groups.view_changes(),
                    c.groups.peak_groups(),
                    servers
                        .clone()
                        .map(|s| s.replicas.sync_writes() + s.tokens.sync_writes())
                        .sum(),
                    servers.map(|s| s.replicas.async_writes() + s.tokens.async_writes()).sum(),
                )
            })
        };
        let (obs, (net, segment_ops, view_changes, groups_peak, sync_writes, async_writes)) =
            if opening {
                let engine = engine(rt);
                (rt.observe(), engine)
            } else {
                (rt.observe(), engine(rt))
            };
        let core = obs.core.expect("the stock engine keeps an ObsCore");
        Counters {
            runtime: obs.runtime,
            shared_acquisitions: obs.engine.shared_acquisitions,
            exclusive_acquisitions: obs.engine.exclusive_acquisitions,
            cell_wait: obs.engine.cell_wait,
            ring_hold: obs.engine.ring_hold,
            failover_retries: obs.failover_retries,
            lease_failures: core.lease_validation_failures,
            drain_batch: core.drain_batch,
            migrations: core.placement.migrations_executed,
            net,
            segment_ops,
            view_changes,
            groups_peak,
            sync_writes,
            async_writes,
        }
    }
}

/// Mean of the samples a histogram gained between two readings.
fn mean_between(a: &HistSummary, b: &HistSummary) -> f64 {
    let gained = b.count.saturating_sub(a.count);
    if gained == 0 {
        return 0.0;
    }
    (b.mean * b.count as f64 - a.mean * a.count as f64) / gained as f64
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// `net.null_rtt_ns`: both sessions ping their homes in a closed loop —
/// the whole client → bus → server thread → cell lock → bus → client
/// path with no engine work in it, under the same concurrency as the
/// traced section.
fn null_rtt_ns(drivers: &mut [Driver], window: Duration) -> Result<f64, String> {
    let per_session: Vec<Result<(u128, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .map(|d| {
                scope.spawn(move || {
                    let begin = Instant::now();
                    let mut pings = 0u64;
                    while begin.elapsed() < window {
                        d.client.null().map_err(|e| format!("null ping: {e}"))?;
                        pings += 1;
                    }
                    Ok((begin.elapsed().as_nanos(), pings))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ping thread panicked")).collect()
    });
    let (mut ns, mut pings) = (0u128, 0u64);
    for r in per_session {
        let (n, p) = r?;
        ns += n;
        pings += p;
    }
    Ok(ns as f64 / pings.max(1) as f64)
}

fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from);
    target.join("benchmark-traces")
}

/// `--trace 1`: every per-layer metric.
pub fn run_layers(spec: &Spec, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let section = Duration::from_secs_f64(plan.seconds * 0.2);
    let probe_budget = Duration::from_secs_f64(plan.seconds * 0.05);

    // The traced cell: the stock engine behind the stopwatch, hosted
    // through the same seam `ClusterRuntime::start` uses.
    let tracer = Tracer::new(SERVERS);
    let engine = Traced::new(probe::stock_engine(), Arc::clone(&tracer));
    let mut cell = bring_up(ClusterRuntime::host(engine, RuntimeConfig::new(SERVERS)), spec, seed)?;
    tracer.drain(); // set-up and warm-up are not part of the section
    let reference = Reference::start();
    let handoff_before = reference.handoff_ns();
    let before = Counters::take(&cell.rt, true);
    let section_began = Instant::now();
    let traced = closed_loop(&mut cell.drivers, Until::Elapsed(section), Some(&tracer));
    let section_ns = section_began.elapsed().as_nanos() as f64;
    let after = Counters::take(&cell.rt, false);
    let host_speed = Reference::speed(handoff_before, reference.handoff_ns());
    drop(reference);
    let spans = tracer.drain();
    let null_ns = null_rtt_ns(&mut cell.drivers, probe_budget)?;
    final_check(&mut cell, seed, &mut out);
    let engine = retire(cell, &mut out);
    let durable_bytes: usize = (0..SERVERS)
        .map(|i| engine.inner.fs.cluster.server(NodeId::from(i)))
        .map(|s| s.replicas.durable_bytes() + s.tokens.durable_bytes())
        .sum();
    drop(engine);

    let t = summarize(&spans);
    if t.orphans > 0 {
        out.fail(format!("{} engine spans lie outside the root span they name", t.orphans));
    }
    let path = trace_dir().join(format!("trace-{}.json", spec.name));
    let written = std::fs::create_dir_all(trace_dir()).and_then(|()| {
        std::fs::write(&path, trace_file(spec.name, seed, &spans, TRACE_FILE_OPS).encode())
    });
    out.notes.push(match written {
        Ok(()) => format!("trace of the first {TRACE_FILE_OPS} requests: {}", path.display()),
        Err(e) => format!("trace file {} not written: {e}", path.display()),
    });
    drop(spans);

    // The plain cell: what tracing costs, the tail the traced run would
    // distort, and the open-loop generator's own health.
    let mut plain = plain_cell(spec, seed)?;
    let mut untraced = closed_loop(&mut plain.drivers, Until::Elapsed(section), None);
    let mut open = open_loop(&mut plain.drivers, spec.open_rate, section, seed, 0);
    final_check(&mut plain, seed, &mut out);
    retire(plain, &mut out);
    if traced.lat_ns.is_empty() || untraced.lat_ns.is_empty() || open.lat_ns.is_empty() {
        return Err("a section completed no request".into());
    }

    let net_rtt = probe::net_rtt_ns(probe_budget, None);
    let net_rtt_idle = probe::net_rtt_ns(probe_budget, Some(Duration::from_micros(200)));
    let replay = probe::sim_replay(spec, seed)?;
    let core_op = probe::core_op_ns(spec, seed, probe_budget);
    let bcast = probe::bcast_round_ns(spec, probe_budget);
    let (put_ns, read_ns) = probe::storage_ns(spec, seed, probe_budget);

    let ops = t.ops as f64;
    let d = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;
    let served = d(|c| c.runtime.requests_served);
    let shared = d(|c| c.runtime.requests_served_shared);
    let sharded = d(|c| c.runtime.requests_served_sharded);
    let tag = |name: &str| (after.net.tag_count(name) - before.net.tag_count(name)) as f64 / ops;
    let entry = |kind: SpanKind| t.entry[kind as usize].1;
    let traced_mean = mean(&traced.lat_ns);
    let untraced_mean = mean(&untraced.lat_ns);

    // Two sessions share one CPU, so a request also waits out the other
    // session's engine time: the independent estimate of a call is one
    // ping plus one engine span per session.
    let rebuilt = null_ns + SESSIONS as f64 * t.serve_ns;
    out.notes.push(format!(
        "accounting: call {:.0} ns = own engine {:.0} + outside {:.0}; rebuilt from independent parts, null ping {:.0} + {SESSIONS} sessions x engine {:.0} = {:.0} ({:+.1}% of call)",
        t.call_ns,
        t.serve_ns,
        t.outside_ns,
        null_ns,
        t.serve_ns,
        rebuilt,
        (rebuilt - t.call_ns) / t.call_ns * 100.0,
    ));
    out.notes.push(format!(
        "engine share of a request: {:.1}%; untraced mean latency {:.0} ns, traced {:.0} ns",
        t.serve_ns / t.call_ns * 100.0,
        untraced_mean,
        traced_mean
    ));

    let m = Metric::single;
    out.metrics = vec![
        m("runtime.call_ns", "ns", t.call_ns),
        m("runtime.self_ns", "ns", t.call_ns - t.serve_ns - net_rtt),
        m("runtime.cell_wait_us", "us", mean_between(&before.cell_wait, &after.cell_wait)),
        m("runtime.ring_hold_us", "us", mean_between(&before.ring_hold, &after.ring_hold)),
        m("runtime.exclusive_per_op", "count", d(|c| c.exclusive_acquisitions) / ops),
        m("runtime.shared_share", "ratio", ratio(shared, served)),
        m("runtime.sharded_share", "ratio", ratio(sharded, served)),
        m("runtime.fallback_share", "ratio", ratio(served - shared - sharded, served)),
        m(
            "runtime.fastpath_decline_share",
            "ratio",
            ratio(t.fast_declined as f64, t.fast_attempts as f64),
        ),
        m("runtime.reads_per_shared_acq", "count", ratio(shared, d(|c| c.shared_acquisitions))),
        m("runtime.pump_calls_per_op", "count", t.pump_calls as f64 / ops),
        m("runtime.pump_ns", "ns", t.pump_ns),
        m("runtime.pump_busy_share", "ratio", t.pump_busy_ns as f64 / section_ns),
        m("runtime.failover_retries", "count", d(|c| c.failover_retries)),
        m("runtime.p999_us", "us", percentile(&mut untraced.lat_ns, 99.9) as f64 / 1e3),
        m("net.rtt_ns", "ns", net_rtt),
        m("net.rtt_idle_ns", "ns", net_rtt_idle),
        m("net.null_rtt_ns", "ns", null_ns),
        m("net.frames_per_op", "count", d(|c| c.runtime.bus_delivered) / ops),
        m("net.rejected", "count", d(|c| c.runtime.bus_rejected)),
        m("net.dropped_stale", "count", d(|c| c.runtime.bus_dropped_stale)),
        m("nfs.serve_ns", "ns", t.serve_ns),
        m("nfs.serve_shared_ns", "ns", entry(SpanKind::ServeShared)),
        m("nfs.serve_sharded_ns", "ns", entry(SpanKind::ServeSharded)),
        m("nfs.serve_read_sharded_ns", "ns", entry(SpanKind::ServeReadSharded)),
        m("nfs.serve_exclusive_ns", "ns", entry(SpanKind::Serve)),
        m("nfs.handle_ns", "ns", replay.handle_ns),
        m("core.op_ns", "ns", core_op),
        m("core.segops_per_op", "count", d(|c| c.segment_ops) / ops),
        m("core.msgs_per_op", "count", d(|c| c.net.messages) / ops),
        m("core.bytes_per_op", "B", d(|c| c.net.bytes) / ops),
        m("core.msgs_token_per_op", "count", tag("token-request")),
        m("core.msgs_update_per_op", "count", tag("update")),
        m("core.msgs_forward_per_op", "count", tag("forward")),
        m("core.msgs_stability_per_op", "count", tag("mark-unstable") + tag("mark-stable")),
        m("core.msgs_xfer_per_op", "count", tag("replica-xfer")),
        m("core.sim_msgs_per_op", "count", replay.msgs_per_op),
        m("core.sim_latency_us", "us", replay.latency_us),
        m("core.lease_failures", "count", d(|c| c.lease_failures)),
        m("core.drain_batch_mean", "count", mean_between(&before.drain_batch, &after.drain_batch)),
        m("core.migrations", "count", d(|c| c.migrations)),
        m("core.pending_end", "count", after.runtime.pending_work as f64),
        m("isis.bcast_round_ns", "ns", bcast),
        m("isis.view_changes", "count", d(|c| c.view_changes)),
        m("isis.groups_peak", "count", after.groups_peak as f64),
        m("storage.sync_writes_per_op", "count", d(|c| c.sync_writes) / ops),
        m("storage.async_writes_per_op", "count", d(|c| c.async_writes) / ops),
        m(
            "storage.bytes_per_user_byte",
            "ratio",
            durable_bytes as f64 / spec.live_user_bytes() as f64,
        ),
        m("storage.put_ns", "ns", put_ns),
        m("storage.read_ns", "ns", read_ns),
        m("loadgen.late_p99_us", "us", percentile(&mut open.late_ns, 99.0) as f64 / 1e3),
        m("loadgen.open_p50_us", "us", percentile(&mut open.lat_ns, 50.0) as f64 / 1e3),
        m("loadgen.open_p95_us", "us", percentile(&mut open.lat_ns, 95.0) as f64 / 1e3),
        m("loadgen.open_p99_us", "us", percentile(&mut open.lat_ns, 99.0) as f64 / 1e3),
        m("loadgen.open_backlog_end", "count", open.backlog_end as f64),
        m("loadgen.samples", "count", ops),
        m("loadgen.host_speed", "ratio", host_speed),
        m("trace.overhead_pct", "%", (traced_mean - untraced_mean) / untraced_mean * 100.0),
    ];
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_mean_recovers_the_samples_gained() {
        let h = |count, mean| HistSummary { count, mean, p50: 0, p90: 0, p99: 0, max: 0 };
        // 10 samples averaging 2, then 30 more averaging 6.
        let (a, b) = (h(10, 2.0), h(40, 5.0));
        assert_eq!(mean_between(&a, &b), 6.0);
        assert_eq!(mean_between(&b, &b), 0.0, "no samples gained");
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
