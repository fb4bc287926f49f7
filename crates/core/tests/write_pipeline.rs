//! The asynchronous replicated-write pipeline
//! (`ClusterConfig::opt_write_pipeline`): acknowledgement semantics,
//! batching, safety-path synchrony, and holder-crash recovery.

use deceit_core::{
    Cluster, ClusterConfig, FileParams, ProtocolHost, ReplicaState, SegmentId, WriteOp,
};
use deceit_net::NodeId;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// A 3-server pipelined cell with one segment replicated 3×, settled.
fn pipelined_cell(params: FileParams) -> (Cluster, SegmentId) {
    let mut c = Cluster::new(3, ClusterConfig::deterministic().with_write_pipeline());
    let seg = c.create(n(0)).unwrap().value;
    c.set_params(n(0), seg, params).unwrap();
    c.run_until_quiet();
    c.write(n(0), seg, WriteOp::replace(b"initial"), None).unwrap();
    c.run_until_quiet();
    (c, seg)
}

/// An ack means: durable at the token holder, not yet at the group. The
/// pump's drain then converges every replica.
#[test]
fn ack_is_local_durability_and_pump_converges_replicas() {
    let (mut c, seg) =
        pipelined_cell(FileParams { min_replicas: 3, stability: false, ..FileParams::default() });
    let key = (seg, 0u64);

    c.write(n(0), seg, WriteOp::replace(b"pipelined"), None).unwrap();

    // Holder: applied, and durable (write-through at safety 1).
    let holder = c.server(n(0)).replicas.get(&key).unwrap();
    assert_eq!(&holder.data.contents()[..], b"pipelined");

    // Replicas: still the old contents — propagation is deferred work.
    for s in [n(1), n(2)] {
        let r = c.server(s).replicas.get(&key).unwrap();
        assert_eq!(&r.data.contents()[..], b"initial", "replica at {s} applied early");
    }
    assert!(c.pending_events() > 0, "a propagate drain must be queued");

    // Drain: everyone converges on the holder's version.
    c.run_until_quiet();
    let holder_sub = c.server(n(0)).replicas.get(&key).unwrap().version.sub;
    for s in [n(0), n(1), n(2)] {
        let r = c.server(s).replicas.get(&key).unwrap();
        assert_eq!(&r.data.contents()[..], b"pipelined");
        assert_eq!(r.version.sub, holder_sub);
    }
}

/// Consecutive updates to the same file ride one batched broadcast: a
/// whole stream drains in far fewer "update" rounds than writes.
#[test]
fn consecutive_updates_batch_into_one_message() {
    let (mut c, seg) =
        pipelined_cell(FileParams { min_replicas: 3, stability: false, ..FileParams::default() });
    let msgs_before = c.net.stats().tag_count("update");
    for i in 0..16 {
        c.write(n(0), seg, WriteOp::append(format!("w{i}").as_bytes()), None).unwrap();
    }
    c.run_until_quiet();
    // Each round is 4 messages (2 members × request+reply). Drains fire
    // as the stream's writes advance the clock past the lazy-apply
    // delay, so several writes amortize into each round — strictly
    // fewer rounds than the eager one-per-write.
    let rounds = (c.net.stats().tag_count("update") - msgs_before) / 4;
    assert!(rounds <= 8, "16 writes must amortize into fewer update rounds, took {rounds}");
    assert!(c.stats.counter("core/pipeline/batches") >= 1);
    assert!(c.stats.counter("core/pipeline/batched_updates") >= 16);
    // And the batch applied in order, byte for byte.
    let key = (seg, 0u64);
    let expect: Vec<u8> = b"initial"
        .iter()
        .copied()
        .chain((0..16).flat_map(|i| format!("w{i}").into_bytes()))
        .collect();
    for s in [n(1), n(2)] {
        assert_eq!(c.server(s).replicas.get(&key).unwrap().data.contents()[..], expect[..]);
    }
}

/// write_safety ≥ 2 keeps its synchronous guarantee through the
/// pipeline: the safety replica has applied (durably) when the write
/// returns, while the remaining replica still lags.
#[test]
fn safety_replicas_stay_synchronous() {
    let (mut c, seg) = pipelined_cell(FileParams {
        min_replicas: 3,
        write_safety: 2,
        stability: false,
        ..FileParams::default()
    });
    let key = (seg, 0u64);
    c.write(n(0), seg, WriteOp::replace(b"safe at two"), None).unwrap();

    let applied: Vec<bool> = [n(1), n(2)]
        .iter()
        .map(|&s| &c.server(s).replicas.get(&key).unwrap().data.contents()[..] == b"safe at two")
        .collect();
    assert_eq!(
        applied.iter().filter(|&&a| a).count(),
        1,
        "exactly one remote replica is on the synchronous safety path: {applied:?}"
    );
    c.run_until_quiet();
    for s in [n(1), n(2)] {
        assert_eq!(&c.server(s).replicas.get(&key).unwrap().data.contents()[..], b"safe at two");
    }
}

/// Stability notification still masks the propagation window: during the
/// stream the lagging replicas are unstable, so reads forward to the
/// holder and no client ever observes a version behind the ack.
#[test]
fn reads_never_observe_pre_ack_state_with_stability() {
    let (mut c, seg) = pipelined_cell(FileParams { min_replicas: 3, ..FileParams::default() });
    c.write(n(0), seg, WriteOp::replace(b"acked"), None).unwrap();
    let key = (seg, 0u64);
    assert_eq!(
        c.server(n(1)).replicas.get(&key).unwrap().state,
        ReplicaState::Unstable,
        "stream members must be marked unstable before the first buffered update"
    );
    // A read via the lagging replica forwards to the holder (§3.4).
    let r = c.read(n(1), seg, None, 0, 64).unwrap().value;
    assert_eq!(&r.data()[..], b"acked");
    c.run_until_quiet();
    let r = c.read(n(1), seg, None, 0, 64).unwrap().value;
    assert_eq!(&r.data()[..], b"acked");
}

/// Crash of the token holder mid-stream: the buffered (acked but
/// unpropagated) updates are lost from the buffer, but the holder's own
/// durable copy carries them — recovery regenerates the group from the
/// primary instead of leaving replicas waiting on updates that no longer
/// exist, and nothing panics.
#[test]
fn holder_crash_mid_stream_recovers_via_regeneration() {
    let (mut c, seg) = pipelined_cell(FileParams { min_replicas: 3, ..FileParams::default() });
    let key = (seg, 0u64);

    // Acked writes whose propagation is still buffered.
    c.write(n(0), seg, WriteOp::replace(b"acked-then-crashed"), None).unwrap();
    c.write(n(0), seg, WriteOp::append(b" twice"), None).unwrap();
    assert_eq!(
        &c.server(n(1)).replicas.get(&key).unwrap().data.contents()[..],
        b"initial",
        "updates must still be buffered when the crash lands"
    );

    c.crash_server(n(0));
    c.recover_server(n(0));
    c.run_until_quiet();

    // The acked updates survived at the primary and the group was
    // regenerated from it: every replica converges, stable again.
    for s in [n(0), n(1), n(2)] {
        let r = c.server(s).replicas.get(&key).unwrap();
        assert_eq!(&r.data.contents()[..], b"acked-then-crashed twice", "diverged at {s}");
        assert_eq!(r.state, ReplicaState::Stable);
    }
    // And the file is writable again through the recovered holder.
    c.write(n(0), seg, WriteOp::append(b", and alive"), None).unwrap();
    c.run_until_quiet();
    let r = c.read(n(2), seg, None, 0, 128).unwrap().value;
    assert_eq!(&r.data()[..], b"acked-then-crashed twice, and alive");
}

/// Crash of a *replica* mid-stream: it misses the batch, recovers behind
/// the token, and the §3.1 path destroys-and-regenerates it.
#[test]
fn replica_crash_mid_stream_regenerates() {
    let (mut c, seg) = pipelined_cell(FileParams { min_replicas: 3, ..FileParams::default() });
    let key = (seg, 0u64);
    c.crash_server(n(2));
    c.write(n(0), seg, WriteOp::replace(b"while two was down"), None).unwrap();
    c.run_until_quiet();
    c.recover_server(n(2));
    c.run_until_quiet();
    let r = c.server(n(2)).replicas.get(&key).expect("regenerated");
    assert_eq!(&r.data.contents()[..], b"while two was down");
    assert_eq!(c.locate_replicas(n(0), seg).unwrap().value.len(), 3);
}

/// The pipeline keeps the ProtocolHost seam honest: buffered propagation
/// is pending work, drained by the per-shard pump under shared access —
/// but only once the protocol clock reaches the drain's batching window
/// (a drain fired the instant it is queued would make every batch one
/// update).
#[test]
fn pump_drains_buffered_propagation_per_shard() {
    let (mut c, seg) =
        pipelined_cell(FileParams { min_replicas: 3, stability: false, ..FileParams::default() });
    c.write(n(0), seg, WriteOp::replace(b"pumped"), None).unwrap();
    let slot = c.slot_of(seg);
    let key = (seg, 0u64);

    // Inside the batching window the drain is parked: the ready mask
    // keeps the pump off the slot entirely, and a pump pass that does
    // land there fires nothing.
    assert_eq!(c.pending_shard_mask() & (1 << slot), 0, "parked drain must not draw the pump");
    assert!(c.pending_events() > 0, "the drain is still pending work");
    assert_eq!(ProtocolHost::try_pump_shard(&c, slot, 8), Some(0));
    assert_eq!(&c.server(n(1)).replicas.get(&key).unwrap().data.contents()[..], b"initial");

    // The rest of the cell's traffic advances the shared clock past the
    // window (scoped to no slots, so nothing fires on the way); the pump
    // then ships the batch under the slot's own locks.
    c.advance_sharded(&[], c.cfg.lazy_apply_delay + c.cfg.lazy_apply_delay);
    assert!(c.pending_shard_mask() & (1 << slot) != 0, "due drain must surface in the mask");
    let mut fired = 0;
    loop {
        let pass = ProtocolHost::try_pump_shard(&c, slot, 8).unwrap();
        if pass == 0 {
            break;
        }
        fired += pass;
    }
    assert!(fired > 0);
    for s in [n(1), n(2)] {
        assert_eq!(&c.server(s).replicas.get(&key).unwrap().data.contents()[..], b"pumped");
    }
}
