//! Property-based tests of the segment server's core guarantees.

use deceit_core::{Cluster, ClusterConfig, FileParams, WriteOp};
use deceit_net::NodeId;
use proptest::prelude::*;

/// A scripted client operation.
#[derive(Debug, Clone)]
enum Op {
    Write { via: u8, data: Vec<u8> },
    Append { via: u8, data: Vec<u8> },
    Read { via: u8 },
    Settle,
}

fn op(servers: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..servers, proptest::collection::vec(any::<u8>(), 1..24))
            .prop_map(|(via, data)| Op::Write { via, data }),
        (0..servers, proptest::collection::vec(any::<u8>(), 1..8))
            .prop_map(|(via, data)| Op::Append { via, data }),
        (0..servers).prop_map(|via| Op::Read { via }),
        Just(Op::Settle),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Convergence: after quiescence, every replica holds exactly the
    /// contents produced by applying the client's writes in issue order,
    /// and all replicas are identical (§3.3's identical-order requirement
    /// made observable).
    #[test]
    fn replicas_converge_to_issue_order(
        ops in proptest::collection::vec(op(3), 1..40),
        seed in 0u64..1000,
    ) {
        let mut c = Cluster::new(3, ClusterConfig::default().with_seed(seed));
        let via0 = NodeId(0);
        let seg = c.create(via0).unwrap().value;
        c.set_params(via0, seg, FileParams { min_replicas: 3, ..FileParams::default() })
            .unwrap();
        c.run_until_quiet();
        let mut model: Vec<u8> = Vec::new();
        for o in &ops {
            match o {
                Op::Write { via, data } => {
                    c.write(NodeId(*via as u32), seg, WriteOp::Replace(data.clone().into()), None)
                        .unwrap();
                    model = data.clone();
                }
                Op::Append { via, data } => {
                    c.write(NodeId(*via as u32), seg, WriteOp::Append(data.clone().into()), None)
                        .unwrap();
                    model.extend_from_slice(data);
                }
                Op::Read { via } => {
                    let _ = c.read(NodeId(*via as u32), seg, None, 0, 1 << 16).unwrap();
                }
                Op::Settle => c.run_until_quiet(),
            }
        }
        c.run_until_quiet();
        let holders = c.locate_replicas(via0, seg).unwrap().value;
        prop_assert_eq!(holders.len(), 3);
        for h in holders {
            let r = c.server(h).replicas.get(&(seg, 0)).unwrap();
            prop_assert_eq!(
                &r.data.contents()[..], &model[..],
                "replica at {} diverged", h
            );
        }
    }

    /// Global one-copy serializability with stability notification on:
    /// a read through ANY server, at ANY time, returns exactly the last
    /// written contents — the multiple replicas are invisible (§3).
    #[test]
    fn stability_gives_one_copy_semantics(
        ops in proptest::collection::vec(op(3), 1..30),
        seed in 0u64..1000,
    ) {
        let mut c = Cluster::new(3, ClusterConfig::default().with_seed(seed));
        let via0 = NodeId(0);
        let seg = c.create(via0).unwrap().value;
        c.set_params(
            via0,
            seg,
            FileParams { min_replicas: 3, stability: true, ..FileParams::default() },
        )
        .unwrap();
        c.run_until_quiet();
        let mut model: Vec<u8> = Vec::new();
        for o in &ops {
            match o {
                Op::Write { via, data } => {
                    c.write(NodeId(*via as u32), seg, WriteOp::Replace(data.clone().into()), None)
                        .unwrap();
                    model = data.clone();
                }
                Op::Append { via, data } => {
                    c.write(NodeId(*via as u32), seg, WriteOp::Append(data.clone().into()), None)
                        .unwrap();
                    model.extend_from_slice(data);
                }
                Op::Read { via } => {
                    let r = c.read(NodeId(*via as u32), seg, None, 0, 1 << 16).unwrap().value;
                    prop_assert_eq!(
                        &r.data()[..], &model[..],
                        "stale read via {} despite stability notification", via
                    );
                }
                Op::Settle => c.run_until_quiet(),
            }
        }
    }

    /// Version pairs increase monotonically within a major, one step per
    /// update, regardless of which server issues the write.
    #[test]
    fn version_subs_are_dense_and_monotone(
        vias in proptest::collection::vec(0u8..4, 1..25),
        seed in 0u64..1000,
    ) {
        let mut c = Cluster::new(4, ClusterConfig::default().with_seed(seed));
        let seg = c.create(NodeId(0)).unwrap().value;
        let mut last_sub = 0;
        for via in vias {
            let v = c
                .write(NodeId(via as u32), seg, WriteOp::append(b"x"), None)
                .unwrap()
                .value;
            prop_assert_eq!(v.major, 0, "no token loss, no new major");
            prop_assert_eq!(v.sub, last_sub + 1, "subversion increments by one");
            last_sub = v.sub;
        }
    }

    /// Crash/recover of non-token replica holders never loses a committed
    /// (safety ≥ 1) update: the survivor set always serves the last write.
    #[test]
    fn committed_updates_survive_replica_crashes(
        script in proptest::collection::vec((0u8..2, proptest::collection::vec(any::<u8>(), 1..16)), 1..12),
        seed in 0u64..1000,
    ) {
        let mut c = Cluster::new(3, ClusterConfig::default().with_seed(seed));
        let seg = c.create(NodeId(0)).unwrap().value;
        c.set_params(NodeId(0), seg, FileParams { min_replicas: 3, ..FileParams::default() })
            .unwrap();
        c.run_until_quiet();
        let mut last: Vec<u8> = Vec::new();
        for (crash_choice, data) in &script {
            // Crash one non-token replica holder, write, recover it.
            let victim = NodeId(1 + *crash_choice as u32);
            c.crash_server(victim);
            c.write(NodeId(0), seg, WriteOp::Replace(data.clone().into()), None).unwrap();
            last = data.clone();
            c.run_until_quiet();
            c.recover_server(victim);
            c.run_until_quiet();
            let r = c.read(victim, seg, None, 0, 1 << 16).unwrap().value;
            prop_assert_eq!(&r.data()[..], &last[..]);
        }
        // Full quiescence: all three replicas restored and identical.
        c.run_until_quiet();
        let holders = c.locate_replicas(NodeId(0), seg).unwrap().value;
        prop_assert_eq!(holders.len(), 3);
        for h in holders {
            let r = c.server(h).replicas.get(&(seg, 0)).unwrap();
            prop_assert_eq!(&r.data.contents()[..], &last[..]);
        }
    }
}
