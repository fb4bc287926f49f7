//! Probes: single-threaded calls straight into one layer's public API,
//! with the workload's payload size and request stream — what the layer
//! costs on its own, with nothing above it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use deceit_core::{Cluster, FileParams, WriteOp};
use deceit_isis::broadcast_round;
use deceit_net::rpc::{Rpc, RpcEndpoint};
use deceit_net::{LiveBus, Network, NodeId};
use deceit_nfs::{DeceitFs, NfsServer};
use deceit_runtime::RuntimeConfig;
use deceit_sim::SimDuration;
use deceit_storage::{Disk, DiskConfig, SegmentData};

use crate::gen::{make_payload, Rng, Tag};
use crate::workload::{build_sessions, Kind, Spec, SERVERS, SESSIONS};

/// Requests of the workload's stream the simulator replay covers. Its
/// two counts are exact: the same seed gives the same numbers on every
/// run of one commit, to the last digit.
pub const SIM_OPS: usize = 2_000;

/// The engine exactly as `ClusterRuntime::start` builds it.
pub fn stock_engine() -> NfsServer {
    let cfg = RuntimeConfig::new(SERVERS);
    NfsServer::new(DeceitFs::new(
        cfg.servers,
        cfg.cluster.clone().with_shards(cfg.shards),
        cfg.fs.clone(),
    ))
}

/// Bytes a probe moves per call: the workload's block, or for
/// `meta-churn` (no data blocks) about one directory segment.
fn probe_bytes(spec: &Spec) -> usize {
    if spec.io == 0 {
        1024
    } else {
        spec.io
    }
}

/// Mean ns per call of `f`, run back to back for `budget`.
fn time_calls(budget: Duration, mut f: impl FnMut(u64)) -> f64 {
    let begin = Instant::now();
    let mut calls = 0u64;
    loop {
        // Batches of 16 keep the clock reads out of the measurement.
        for _ in 0..16 {
            f(calls);
            calls += 1;
        }
        let spent = begin.elapsed();
        if spent >= budget {
            return spent.as_nanos() as f64 / calls as f64;
        }
    }
}

/// `net`: round trip between two `RpcEndpoint`s on a private `LiveBus`
/// with an echo thread. `gap` idles the caller between calls, so each
/// one finds the echo thread parked — the wake-up a lone synchronous
/// client pays on every request.
pub fn net_rtt_ns(budget: Duration, gap: Option<Duration>) -> f64 {
    let bus: LiveBus<Rpc<u64, u64>> = LiveBus::new();
    let mut server: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, NodeId(0));
    let mut client: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, NodeId(1_000));
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                if let Some(r) = server.next_request(Duration::from_millis(5)) {
                    server.reply(r.from, r.call, r.req);
                }
            }
        });
        let begin = Instant::now();
        let (mut total, mut calls) = (Duration::ZERO, 0u32);
        while begin.elapsed() < budget {
            let t0 = Instant::now();
            let echoed = client.call(NodeId(0), u64::from(calls), Duration::from_secs(2));
            total += t0.elapsed();
            assert_eq!(echoed, Ok(u64::from(calls)), "echo probe lost a frame");
            calls += 1;
            if let Some(gap) = gap {
                std::thread::sleep(gap);
            }
        }
        stop.store(true, Ordering::Release);
        total.as_nanos() as f64 / f64::from(calls)
    })
}

/// What the simulator replay of the workload's first [`SIM_OPS`]
/// requests yields.
pub struct Replay {
    /// Protocol messages per request — the paper's currency. Exact.
    pub msgs_per_op: f64,
    /// Mean simulated latency per request, µs of protocol time. Exact.
    pub latency_us: f64,
    /// `nfs`: wall ns per `NfsServer::handle`, no runtime around it.
    pub handle_ns: f64,
}

/// Replays the stream single-threaded through the stock engine: the
/// same requests the live cell gets, in round-robin session order.
pub fn sim_replay(spec: &Spec, seed: u64) -> Result<Replay, String> {
    let mut srv = stock_engine();
    let root = srv.mount();
    let (mut sessions, _) = build_sessions(&mut srv, root, spec, seed)?;
    deceit_core::ProtocolHost::settle(&mut srv);
    let before = srv.fs.cluster.net.stats().messages;
    let mut sim_latency = SimDuration::ZERO;
    let mut wall = Duration::ZERO;
    for i in 0..SIM_OPS {
        let session = &mut sessions[i % SESSIONS];
        let home = session.home();
        let op = session.next();
        let t0 = Instant::now();
        let (reply, latency) = srv.handle(home, op.req);
        wall += t0.elapsed();
        sim_latency += latency;
        session
            .complete(op.check, Ok(reply))
            .map_err(|e| format!("simulator replay, request {i}: {e}"))?;
    }
    let msgs = srv.fs.cluster.net.stats().messages - before;
    Ok(Replay {
        msgs_per_op: msgs as f64 / SIM_OPS as f64,
        latency_us: sim_latency.as_micros() as f64 / SIM_OPS as f64,
        handle_ns: wall.as_nanos() as f64 / SIM_OPS as f64,
    })
}

/// `core`: the segment operations behind the workload's requests,
/// called on a `Cluster` directly — no envelope, no inode header.
pub fn core_op_ns(spec: &Spec, seed: u64, budget: Duration) -> f64 {
    let cfg = RuntimeConfig::new(SERVERS);
    let mut c = Cluster::new(SERVERS, cfg.cluster.clone().with_shards(cfg.shards));
    let bytes = probe_bytes(spec);
    let blocks = spec.blocks.max(1);
    let payload = make_payload(bytes, Tag { writer: 0, file: 0, block: 0, seq: 1 }, seed);
    if spec.kind == Kind::MetaChurn {
        // A create and the delete that undoes it, as one pair per call.
        return time_calls(budget, |_| {
            let seg =
                c.create_with_params(NodeId(0), FileParams::default()).expect("probe create").value;
            c.delete(NodeId(0), seg).expect("probe delete");
        }) / 2.0;
    }
    let segs: Vec<_> = (0..16)
        .map(|_| {
            let seg = c.create_with_params(NodeId(0), spec.params).expect("probe create").value;
            for b in 0..blocks {
                c.write(NodeId(0), seg, WriteOp::write_at(b * bytes, &payload), None)
                    .expect("probe fill");
            }
            seg
        })
        .collect();
    c.run_until_quiet();
    let mut rng = Rng::new(seed, 0x30);
    time_calls(budget, |n| {
        let seg = segs[rng.below(segs.len())];
        let offset = rng.below(blocks) * bytes;
        let (write, via) = match spec.kind {
            Kind::ReadLocal => (false, NodeId(0)),
            Kind::WriteRepl => (true, NodeId(0)),
            Kind::BulkIo => (n % 2 == 0, NodeId(0)),
            // Both sessions' homes touch every file.
            _ => (rng.unit() < 0.2, NodeId((n % 2) as u32)),
        };
        if write {
            let slot = c.slot_of(seg);
            c.write_sharded(&[slot], via, seg, WriteOp::write_at(offset, &payload), None)
                .expect("probe write");
        } else if c.try_read_local(via, seg, None, offset, bytes).is_none() {
            // What the runtime does when the lock-free path declines.
            c.read(via, seg, None, offset, bytes).expect("probe read");
        }
    })
}

/// `isis`: one broadcast round (message out, reply back) to a
/// three-member group, carrying one block.
pub fn bcast_round_ns(spec: &Spec, budget: Duration) -> f64 {
    let net = Network::fixed(SimDuration::from_millis(1), 1);
    let members = [NodeId(0), NodeId(1), NodeId(2)];
    let bytes = probe_bytes(spec) + 40;
    time_calls(budget, |_| {
        let outcome = broadcast_round(&net, NodeId(0), members, bytes, 16, "update");
        assert_eq!(outcome.reply_count(), members.len());
    })
}

/// `storage`: `(put_ns, read_ns)` — overwrite one block of a segment and
/// put it durably; fetch a segment and copy one block out.
pub fn storage_ns(spec: &Spec, seed: u64, budget: Duration) -> (f64, f64) {
    let bytes = probe_bytes(spec);
    let blocks = spec.blocks.max(1);
    let payload = make_payload(bytes, Tag { writer: 0, file: 0, block: 0, seq: 1 }, seed);
    let mut disk: Disk<u64, SegmentData> = Disk::new(DiskConfig::default());
    let mut seg = SegmentData::from_bytes(&vec![0u8; bytes * blocks]);
    for k in 0..16 {
        disk.put_sync(k, seg.clone());
    }
    let put = time_calls(budget / 2, |n| {
        seg.write((n as usize % blocks) * bytes, &payload);
        disk.put_sync(n % 16, seg.clone());
    });
    let read = time_calls(budget / 2, |n| {
        let data =
            disk.get(&(n % 16)).expect("probe segment").read((n as usize % blocks) * bytes, bytes);
        assert_eq!(data.len(), bytes);
    });
    (put, read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    #[test]
    fn simulator_replay_repeats_exactly() {
        for spec in &SPECS {
            let a = sim_replay(spec, 5).expect(spec.name);
            let b = sim_replay(spec, 5).expect(spec.name);
            assert_eq!(a.msgs_per_op, b.msgs_per_op, "{}", spec.name);
            assert_eq!(a.latency_us, b.latency_us, "{}", spec.name);
            assert!(a.latency_us > 0.0 && a.handle_ns > 0.0);
        }
    }

    #[test]
    fn probes_return_plausible_times() {
        let spec = crate::workload::spec_named("write-repl").unwrap();
        let short = Duration::from_millis(20);
        for ns in [
            net_rtt_ns(short, None),
            net_rtt_ns(short, Some(Duration::from_micros(200))),
            core_op_ns(spec, 1, short),
            bcast_round_ns(spec, short),
            storage_ns(spec, 1, short).0,
            storage_ns(spec, 1, short).1,
        ] {
            assert!(ns > 1.0 && ns < 50_000_000.0, "{ns}");
        }
        for spec in &SPECS {
            assert!(core_op_ns(spec, 1, Duration::from_millis(5)) > 1.0, "{}", spec.name);
        }
    }
}
